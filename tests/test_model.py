import math
import os
import pathlib
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special

import sensemat
from sensemat.model import (
    ChannelProfile,
    SensingQuality,
    TimingConfig,
    as_matrix,
    false_alarm_for_sensing_time,
    per_slot_rate,
    rate_table,
    slot_effectiveness,
    validate_matrix,
)

TIMING = TimingConfig(slot_duration=0.2, sensing_time=0.001, handover_time=0.0001, rate=1.0)


def test_slot_effectiveness_reference_values():
    assert slot_effectiveness(1, TIMING) == pytest.approx(0.995, abs=1e-12)
    assert slot_effectiveness(2, TIMING) == pytest.approx(0.9895, abs=1e-12)
    assert slot_effectiveness(3, TIMING) == pytest.approx(0.984, abs=1e-12)


def test_slot_effectiveness_tiny_sensing_time_approaches_one():
    timing = TimingConfig(sensing_time=1e-9, handover_time=1e-9)
    assert slot_effectiveness(1, timing) == pytest.approx(1.0, abs=1e-6)


def test_slot_effectiveness_rejects_overflowing_minislot():
    timing = TimingConfig(slot_duration=0.01, sensing_time=0.004, handover_time=0.001)
    assert slot_effectiveness(2, timing) > 0
    with pytest.raises(ValueError):
        slot_effectiveness(3, timing)
    with pytest.raises(ValueError):
        slot_effectiveness(0, timing)


def test_successive_minislots_lose_a_constant_step():
    step = (TIMING.sensing_time + TIMING.handover_time) / TIMING.slot_duration
    for k in range(1, 100):
        lhs = slot_effectiveness(k, TIMING) - slot_effectiveness(k + 1, TIMING)
        assert lhs == pytest.approx(step, abs=1e-15)


def test_per_slot_rate_scales_with_rate():
    assert per_slot_rate(1, TIMING) == pytest.approx(0.995)
    fast = TimingConfig(rate=2e6)
    assert per_slot_rate(1, fast) == pytest.approx(1.99e6)
    assert rate_table(TIMING, 3) == pytest.approx([0.995, 0.9895, 0.984])


def test_timing_validation():
    with pytest.raises(ValueError):
        TimingConfig(slot_duration=0.0)
    with pytest.raises(ValueError):
        TimingConfig(sensing_time=-1e-3)
    with pytest.raises(ValueError):
        TimingConfig(rate=0.0)


def test_channel_profile_validation():
    profile = ChannelProfile([0.3, 0.8])
    assert profile.n_channels == 2
    assert profile.p1 == pytest.approx([0.7, 0.2])
    with pytest.raises(ValueError):
        ChannelProfile([])
    with pytest.raises(ValueError):
        ChannelProfile([0.5, 1.2])
    with pytest.raises(ValueError):
        ChannelProfile([[0.5], [0.2]])


def test_sensing_quality_validation():
    SensingQuality(p_fa=0.1, p_d=0.9, persistence=0.5)
    with pytest.raises(ValueError):
        SensingQuality(p_fa=0.5, p_d=0.4)
    with pytest.raises(ValueError):
        SensingQuality(p_fa=-0.1, p_d=0.9)
    with pytest.raises(ValueError):
        SensingQuality(p_fa=0.1, p_d=0.9, persistence=1.5)


def test_false_alarm_matches_high_precision_oracle():
    # independently recomputed with mpmath at 40 digits
    import mpmath as mp

    mp.mp.dps = 40
    snr = 10.0 ** (-15.0 / 10.0)
    for tau in (2e-4, 5e-4, 1e-3, 2e-3, 5e-3):
        q_inv = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf("0.9"))
        arg = mp.sqrt(2 * mp.mpf(snr) + 1) * q_inv + mp.sqrt(mp.mpf(tau) * 6e6) * mp.mpf(snr)
        expected = float(0.5 * mp.erfc(arg / mp.sqrt(2)))
        got = false_alarm_for_sensing_time(tau, 6e6, snr, 0.9)
        assert got == pytest.approx(expected, rel=1e-12)
    # frozen reference point
    assert false_alarm_for_sensing_time(1e-3, 6e6, snr, 0.9) == pytest.approx(
        0.1296529410710251, rel=1e-12
    )


def test_false_alarm_non_increasing_and_clamped():
    snr = 10.0 ** (-15.0 / 10.0)
    taus = np.linspace(1e-5, 8e-3, 60)
    values = [false_alarm_for_sensing_time(t, 6e6, snr, 0.9) for t in taus]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert false_alarm_for_sensing_time(1.0, 6e6, snr, 0.9) == pytest.approx(0.0, abs=1e-15)


def test_false_alarm_continuous_near_zero_window():
    # with a vanishing window the detector cannot do better than its
    # detection target, so the false-alarm value may exceed it slightly
    snr = 10.0 ** (-15.0 / 10.0)
    tiny = [false_alarm_for_sensing_time(t, 6e6, snr, 0.9) for t in (1e-14, 1e-12, 1e-10)]
    # the tau -> 0 limit drops the accumulation term entirely
    q_inv_pd = -math.sqrt(2.0) * float(special.erfcinv(2.0 * (1.0 - 0.9)))
    limit = 0.5 * math.erfc(math.sqrt(2.0 * snr + 1.0) * q_inv_pd / math.sqrt(2.0))
    for v in tiny:
        assert v == pytest.approx(limit, abs=2e-3)
    assert all(v > 0.9 for v in tiny)


def test_false_alarm_input_validation():
    with pytest.raises(ValueError):
        false_alarm_for_sensing_time(0.0, 6e6, 0.03, 0.9)
    with pytest.raises(ValueError):
        false_alarm_for_sensing_time(1e-3, 6e6, 0.03, 1.0)
    with pytest.raises(ValueError):
        false_alarm_for_sensing_time(1e-3, -1.0, 0.03, 0.9)


def test_validate_matrix():
    profile = ChannelProfile([0.5, 0.5])
    assert validate_matrix([[1, 2]], profile) == []
    assert validate_matrix([[1, 2], [2, 0]], profile, repeat_cap=2) == []
    problems = validate_matrix([[1, 3]], profile)
    assert any("outside" in p for p in problems)
    problems = validate_matrix([[1, 2], [2, 2]], profile, repeat_cap=2)
    assert any("cap" in p for p in problems)
    problems = validate_matrix([[1, 2, 0]], profile)
    assert any("row length" in p for p in problems)


def test_as_matrix_shapes():
    assert as_matrix([1, 2]).shape == (1, 2)
    assert as_matrix([[1], [2]]).shape == (2, 1)
    with pytest.raises(ValueError):
        as_matrix([[[1]]])


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_detector_quantile_matches_scipy_and_high_precision_forms():
    # the detector curve takes Q^{-1}(p_d) = -Phi^{-1}(p_d) from the standard
    # library's NormalDist; hold it to scipy's erfcinv form and to a
    # 50-digit quantile, down to p_d far below where 1 - p_d rounds to 1
    import mpmath as mp

    grid = ([k / 1000 for k in range(1, 1000)]
            + [2.0 ** -e for e in range(1, 53)]
            + [1.0 - 2.0 ** -e for e in range(1, 54)]
            + [1e-17, 1e-30, 1e-300])
    for target_p_d in grid:
        got = -NormalDist().inv_cdf(target_p_d)
        via_scipy = math.sqrt(2.0) * float(special.erfcinv(2.0 * target_p_d))
        # 2 * p_d - 1 keeps 50 digits of p_d only with that many more to spare
        with mp.workdps(50 - min(0, math.floor(math.log10(target_p_d)))):
            via_mpmath = float(-mp.sqrt(2) * mp.erfinv(2 * mp.mpf(target_p_d) - 1))
        assert _ulps(got, via_scipy) <= 8, target_p_d
        assert _ulps(got, via_mpmath) <= 6, target_p_d


def test_tiny_target_p_d_maps_to_a_false_alarm_probability():
    # 1 - 1e-17 rounds to 1.0, which the quantile used to be taken of
    snr = 10 ** -1.5
    values = [false_alarm_for_sensing_time(t, 6e6, snr, 1e-17) for t in (2e-4, 1e-3, 5e-3)]
    assert all(0.0 <= v <= 1e-17 for v in values)


def test_importing_the_cli_loads_no_scipy():
    src = str(pathlib.Path(sensemat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, sensemat.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
