import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from sensemat.allocators import (
    build_msms_matrix,
    build_pmsms_matrix,
    build_sms_matrix,
    contention_factor_hbar,
    cumulative_reward,
    msms_reward,
    occupation_probability,
    pmsms_reward,
    rotation_start_user,
    sms_reward,
)
from sensemat.model import ChannelProfile, SensingQuality, TimingConfig, validate_matrix

TIMING = TimingConfig()
PROF5 = ChannelProfile([0.9, 0.8, 0.7, 0.6, 0.5])
Q_DEFAULT = SensingQuality(p_fa=0.1, p_d=0.9)
B1 = 0.995
B2 = 0.9895


def test_rotation_start_user():
    assert rotation_start_user(1, 3) == 1
    assert rotation_start_user(2, 3) == 2
    assert rotation_start_user(3, 3) == 3
    assert rotation_start_user(4, 3) == 1
    assert rotation_start_user(7, 2) == 1
    with pytest.raises(ValueError):
        rotation_start_user(0, 3)
    with pytest.raises(ValueError):
        rotation_start_user(1, 0)


def test_sms_reward_examples():
    assert sms_reward(1, 1, (), PROF5, TIMING) == pytest.approx(0.9 * B1, abs=1e-12)
    assert sms_reward(1, 1, (), PROF5, TIMING) == pytest.approx(0.8955, abs=1e-12)
    # after a prefix on channel 1 the user only continues if it was busy
    assert sms_reward(2, 2, (1,), PROF5, TIMING) == pytest.approx(0.1 * 0.8 * B2, abs=1e-12)
    with pytest.raises(ValueError):
        sms_reward(1, 2, (1,), PROF5, TIMING)


def test_cumulative_reward_sums_prefix_rewards():
    prefix = (1, 2)
    want = sms_reward(1, 1, (), PROF5, TIMING) + sms_reward(2, 2, (1,), PROF5, TIMING)
    assert cumulative_reward(prefix, PROF5, TIMING) == pytest.approx(want, abs=1e-12)
    assert cumulative_reward((), PROF5, TIMING) == 0.0


def test_sms_two_user_trace():
    profile = ChannelProfile([0.9, 0.8, 0.7])
    sm = build_sms_matrix(profile, TIMING, 2)
    # round 1: user1 takes ch1, user2 takes ch2; round 2: user2 is behind
    # (0.796 credited vs 0.8955) so it picks first and takes ch3
    assert sm.tolist() == [[1, 0, 0], [2, 3, 0]]


def test_sms_default_profile_rotation():
    slot1 = build_sms_matrix(PROF5, TIMING, 3, slot=1)
    assert slot1.tolist() == [
        [1, 0, 0, 0, 0],
        [2, 5, 0, 0, 0],
        [3, 4, 0, 0, 0],
    ]
    slot2 = build_sms_matrix(PROF5, TIMING, 3, slot=2)
    assert slot2.tolist() == [
        [3, 4, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [2, 5, 0, 0, 0],
    ]
    slot3 = build_sms_matrix(PROF5, TIMING, 3, slot=3)
    # the rotation permutes roles across users, never the set of rows
    for sm in (slot2, slot3):
        assert sorted(map(tuple, sm.tolist())) == sorted(map(tuple, slot1.tolist()))
    assert build_sms_matrix(PROF5, TIMING, 3, slot=4).tolist() == slot1.tolist()


def test_sms_assigns_every_channel_once():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_ch = int(rng.integers(1, 7))
        n_su = int(rng.integers(1, 5))
        profile = ChannelProfile(rng.uniform(0.0, 1.0, size=n_ch))
        sm = build_sms_matrix(profile, TIMING, n_su, slot=int(rng.integers(1, 5)))
        assert validate_matrix(sm, profile, repeat_cap=1) == []
        assert np.count_nonzero(sm) == n_ch  # zero-reward channels included


def test_sms_zero_reward_channels_still_assigned():
    sm = build_sms_matrix(ChannelProfile([0.5, 0.0]), TIMING, 1)
    assert sm.tolist() == [[1, 2]]
    sm = build_sms_matrix(ChannelProfile([0.5]), TIMING, 2)
    assert sm.tolist() == [[1], [0]]


def test_occupancy_estimates():
    prof = ChannelProfile([0.8])
    fresh = occupation_probability(1, 0, prof, Q_DEFAULT)
    assert fresh == pytest.approx(0.2, abs=1e-12)
    assert 1 - fresh == pytest.approx(0.8, abs=1e-12)
    # one earlier assignee: usable only if primary-free and it false-alarmed
    est = occupation_probability(1, 1, prof, Q_DEFAULT)
    assert est == pytest.approx(1.0 - 0.8 * 0.1, abs=1e-12)
    assert est == pytest.approx(0.92, abs=1e-12)
    two = occupation_probability(1, 2, prof, Q_DEFAULT)
    assert two == pytest.approx(1.0 - 0.8 * 0.01, abs=1e-12)
    with pytest.raises(ValueError):
        occupation_probability(1, -1, prof, Q_DEFAULT)


def test_occupancy_estimates_with_persistence():
    prof = ChannelProfile([0.8])
    qp = SensingQuality(p_fa=0.1, p_d=0.9, persistence=0.5)
    # a prior assignee misses the channel by skipping (0.5) or false-alarming
    # (0.5 * 0.1), so the channel stays usable with probability 0.8 * 0.55
    est = occupation_probability(1, 1, prof, qp)
    assert est == pytest.approx(0.56, abs=1e-12)
    always = occupation_probability(1, 2, prof, SensingQuality(0.1, 0.9, 1.0))
    assert always == pytest.approx(0.992, abs=1e-12)


def test_occupancy_matches_binomial_expansion():
    # expand over how many of the n prior assignees actually sensed
    rng = np.random.default_rng(8)
    for _ in range(40):
        p0 = float(rng.uniform(0.0, 1.0))
        pers = float(rng.uniform(0.0, 1.0))
        pfa = float(rng.uniform(0.0, 0.5))
        n = int(rng.integers(0, 6))
        quality = SensingQuality(p_fa=pfa, p_d=1.0, persistence=pers)
        est = occupation_probability(1, n, ChannelProfile([p0]), quality)
        if n == 0:
            expect_q0 = p0
        else:
            expect_q0 = p0 * sum(
                math.comb(n, k) * (pers * pfa) ** k * (1.0 - pers) ** (n - k)
                for k in range(n + 1)
            )
        assert 1 - est == pytest.approx(expect_q0, abs=1e-12)


def test_contention_factor():
    always = SensingQuality(0.1, 0.9, 1.0)
    assert contention_factor_hbar(0, always) == pytest.approx(0.9, abs=1e-12)
    assert contention_factor_hbar(1, always) == pytest.approx(0.09, abs=1e-12)
    assert contention_factor_hbar(2, always) == pytest.approx(0.009, abs=1e-12)
    qp = SensingQuality(0.1, 0.9, 0.5)
    assert contention_factor_hbar(0, qp) == pytest.approx(0.45, abs=1e-12)
    assert contention_factor_hbar(1, qp) == pytest.approx(0.2475, abs=1e-12)
    q4 = SensingQuality(0.1, 0.9, 0.4)
    assert contention_factor_hbar(0, q4) == pytest.approx(0.36, abs=1e-12)
    with pytest.raises(ValueError):
        contention_factor_hbar(-1, always)


def test_contention_factor_continuous_at_full_persistence():
    # at persistence 1 the factor must equal the general form written out
    for n in range(4):
        general = 1.0 * (1.0 - 0.2) * (1.0 - 1.0 + 1.0 * 0.2) ** n
        assert contention_factor_hbar(n, SensingQuality(0.2, 0.9, 1.0)) == pytest.approx(
            general, abs=1e-12
        )


def test_msms_reward_values():
    prof = ChannelProfile([0.8])
    r = msms_reward(1, 1, [], 0, 0, prof, TIMING, Q_DEFAULT)
    assert r == pytest.approx(0.8 * 0.9 * B1, abs=1e-12)
    assert r / B1 == pytest.approx(0.72, abs=1e-12)
    # a same-mini-slot rival must false-alarm for the user to win
    r = msms_reward(1, 1, [], 1, 0, prof, TIMING, Q_DEFAULT)
    assert r / B1 == pytest.approx(0.072, abs=1e-12)
    prof2 = ChannelProfile([0.8, 0.5])
    prefix = [occupation_probability(1, 0, prof2, Q_DEFAULT)]
    # continue past ch1 w.p. 0.8*0.1 + 0.2*0.9 = 0.26, then win free ch2
    r = msms_reward(2, 2, prefix, 0, 0, prof2, TIMING, Q_DEFAULT)
    assert r / B2 == pytest.approx(0.26 * 0.5 * 0.9, abs=1e-12)
    assert r / B2 == pytest.approx(0.117, abs=1e-12)


def test_msms_reward_matches_monte_carlo():
    # generative cross-check of the 0.117*B2 case: sense busy-ish ch1,
    # continue, then claim a fresh free ch2 with no rivals
    rng = np.random.default_rng(2718)
    n = 200_000
    ch1_free = rng.random(n) < 0.8
    read1 = rng.random(n)
    reads_busy = np.where(ch1_free, read1 < 0.1, read1 < 0.9)
    ch2_free = rng.random(n) < 0.5
    reads2_free = rng.random(n) >= 0.1
    success = reads_busy & ch2_free & reads2_free
    mc = success.mean() * B2

    prof2 = ChannelProfile([0.8, 0.5])
    prefix = [occupation_probability(1, 0, prof2, Q_DEFAULT)]
    analytic = msms_reward(2, 2, prefix, 0, 0, prof2, TIMING, Q_DEFAULT)
    sigma = math.sqrt(0.117 * (1 - 0.117) / n) * B2
    assert abs(mc - analytic) < 4 * sigma


def test_pmsms_reward_values():
    prof = ChannelProfile([0.8])
    qp = SensingQuality(0.1, 0.9, 0.5)
    r = pmsms_reward(1, 1, [], 0, 0, prof, TIMING, qp)
    assert r / B1 == pytest.approx(0.5 * 0.9 * 0.8, abs=1e-12)
    assert r / B1 == pytest.approx(0.36, abs=1e-12)
    # at persistence 1 both reward models coincide for any inputs
    rng = np.random.default_rng(3)
    for _ in range(20):
        p0 = rng.uniform(0.1, 0.9, size=2)
        prof2 = ChannelProfile(p0)
        q1 = SensingQuality(float(rng.uniform(0, 0.3)), 0.9, 1.0)
        prefix = [occupation_probability(1, int(rng.integers(0, 3)), prof2, q1)]
        args = (2, 2, prefix, int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                prof2, TIMING, q1)
        assert pmsms_reward(*args) == pytest.approx(msms_reward(*args), abs=1e-15)


def test_msms_build_shares_single_channel():
    prof = ChannelProfile([0.9])
    sm = build_msms_matrix(prof, TIMING, Q_DEFAULT, 2)
    # the second user rides on the first one's false alarm
    assert sm.tolist() == [[1], [1]]


def test_msms_build_crowded_network_fills_to_cap():
    sm = build_msms_matrix(PROF5, TIMING, Q_DEFAULT, 8, repeat_cap=3)
    assert validate_matrix(sm, PROF5, repeat_cap=3) == []
    assert np.count_nonzero(sm) == 15  # 5 channels x cap 3, all worth assigning


def test_repeat_cap_respected():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n_ch = int(rng.integers(1, 6))
        n_su = int(rng.integers(1, 7))
        cap = int(rng.integers(1, 4))
        profile = ChannelProfile(rng.uniform(0.05, 0.95, size=n_ch))
        for build in (build_msms_matrix, build_pmsms_matrix):
            sm = build(
                profile, TIMING, SensingQuality(0.15, 0.9, 0.7), n_su,
                slot=int(rng.integers(1, 4)), repeat_cap=cap,
            )
            assert validate_matrix(sm, profile, repeat_cap=cap) == []


def test_error_free_msms_reduces_to_sms():
    rng = np.random.default_rng(7)
    perfect = SensingQuality(p_fa=0.0, p_d=1.0)
    for _ in range(25):
        n_ch = int(rng.integers(1, 7))
        n_su = int(rng.integers(1, 7))
        profile = ChannelProfile(rng.uniform(0.05, 0.95, size=n_ch))
        slot = int(rng.integers(1, 5))
        cap = int(rng.integers(1, 4))
        sms = build_sms_matrix(profile, TIMING, n_su, slot=slot)
        msms = build_msms_matrix(profile, TIMING, perfect, n_su, slot=slot, repeat_cap=cap)
        assert np.array_equal(sms, msms)


def test_full_persistence_pmsms_reduces_to_msms():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_ch = int(rng.integers(1, 7))
        n_su = int(rng.integers(1, 7))
        profile = ChannelProfile(rng.uniform(0.05, 0.95, size=n_ch))
        pfa = float(rng.uniform(0.0, 0.3))
        quality = SensingQuality(pfa, float(rng.uniform(max(pfa, 0.7), 1.0)), 1.0)
        slot = int(rng.integers(1, 5))
        cap = int(rng.integers(1, 4))
        a = build_msms_matrix(profile, TIMING, quality, n_su, slot=slot, repeat_cap=cap)
        b = build_pmsms_matrix(profile, TIMING, quality, n_su, slot=slot, repeat_cap=cap)
        assert np.array_equal(a, b)


def test_pmsms_build_stable_at_tiny_persistence():
    # rewards scale roughly linearly in the persistence, so the argmax
    # structure must not collapse as it heads toward zero
    a = build_pmsms_matrix(PROF5, TIMING, SensingQuality(0.1, 0.9, 1e-3), 3)
    b = build_pmsms_matrix(PROF5, TIMING, SensingQuality(0.1, 0.9, 1e-5), 3)
    assert np.array_equal(a, b)
    assert np.count_nonzero(a) > 0


def test_zero_false_alarm_skips_exhausted_channels():
    # without false alarms a channel assigned once can never pay again, so
    # later users leave their mini-slots idle instead of piling on
    prof = ChannelProfile([0.9])
    sm = build_msms_matrix(prof, TIMING, SensingQuality(0.0, 1.0), 3, repeat_cap=3)
    assert sm.tolist() == [[1], [0], [0]]



def _replay_error_aware(reward, profile, quality, n_su, slot, cap):
    """Rebuild an msms/pmsms matrix from the public reward and occupancy
    helpers alone, by the builder's rules: strict ``>`` in channel order,
    idle when no reward is positive, later columns ordered by
    ``(credited, user)``."""
    n_ch = profile.n_channels
    sm = np.zeros((n_su, n_ch), dtype=np.int64)
    prior = [0] * (n_ch + 1)
    prefixes = [[] for _ in range(n_su + 1)]
    credited = [0.0] * (n_su + 1)
    start = rotation_start_user(slot, n_su)
    order = [1 + (start - 1 + k) % n_su for k in range(n_su)]
    for m in range(1, n_ch + 1):
        column = [0] * (n_ch + 1)
        for user in order:
            best_c, best_r = 0, 0.0
            for c in range(1, n_ch + 1):
                if prior[c] + column[c] < cap:
                    r = reward(c, m, prefixes[user], column[c], prior[c], profile, TIMING, quality)
                    if r > best_r:
                        best_c, best_r = c, r
            if best_c:
                sm[user - 1, m - 1] = best_c
                prefixes[user].append(occupation_probability(best_c, prior[best_c], profile, quality))
                column[best_c] += 1
                credited[user] += best_r
        prior = [p + n for p, n in zip(prior, column)]
        order = sorted(range(1, n_su + 1), key=lambda u: (credited[u], u))
    return sm


def test_builders_score_with_the_public_rewards():
    rng = np.random.default_rng(5)
    for i in range(300):
        n_ch, n_su = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        p0 = rng.uniform(0.0, 1.0, n_ch)
        if i % 3 == 0:
            p0 = np.round(p0, 1)   # ties and exact zeros and ones
        pfa = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 0.4))
        persistence = [1.0, 0.5, 1e-4, float(rng.uniform(0.05, 1.0))][i % 4]
        quality = SensingQuality(pfa, float(rng.uniform(max(pfa, 0.6), 1.0)), persistence)
        profile = ChannelProfile(p0)
        slot, cap = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        msms = build_msms_matrix(profile, TIMING, quality, n_su, slot=slot, repeat_cap=cap)
        always = dataclasses.replace(quality, persistence=1.0)
        assert np.array_equal(
            msms, _replay_error_aware(msms_reward, profile, always, n_su, slot, cap))
        pmsms = build_pmsms_matrix(profile, TIMING, quality, n_su, slot=slot, repeat_cap=cap)
        assert np.array_equal(
            pmsms, _replay_error_aware(pmsms_reward, profile, quality, n_su, slot, cap))

# ---------------------------------------------------------------------------
# golden builds: seeded inputs and the matrices all three builders made for
# them, written once by ``PYTHONPATH=src python tests/test_allocators.py``
# (from the repo root) and only rewritten by a change meant to alter a build

BUILDS = pathlib.Path(__file__).with_name("golden") / "builds.json"


def _golden_case(rng, i):
    n_ch = int(rng.integers(1, 10))
    kind = i % 5
    if kind == 1:      # primary always present or always absent on some channels
        p0 = np.where(rng.random(n_ch) < 0.5, rng.uniform(0.05, 0.95, n_ch),
                      rng.integers(0, 2, n_ch).astype(float))
    elif kind == 2:    # every channel tied
        p0 = np.full(n_ch, float(rng.choice([0.0, 0.3, 0.5, 1.0])))
    elif kind == 3:    # some channels tied
        p0 = rng.choice([0.3, 0.6, 0.9], n_ch)
    else:
        p0 = rng.uniform(0.0, 1.0, n_ch)
    p_fa = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.4))
    p_d = 1.0 if rng.random() < 0.2 else float(rng.uniform(max(p_fa, 0.6), 1.0))
    persistence = [1.0, 0.5, 1e-4, float(rng.uniform(0.05, 1.0))][int(rng.integers(0, 4))]
    return {
        "p0": [float(x) for x in p0],
        "sensing_time": [0.001, 0.004, 0.01][int(rng.integers(0, 3))],
        "p_fa": p_fa,
        "p_d": p_d,
        "persistence": persistence,
        "n_su": int(rng.integers(1, 9)),
        "slot": int(rng.integers(1, 10)),
        "repeat_cap": int(rng.integers(1, 5)),
    }


def _golden_builds(case):
    profile = ChannelProfile(case["p0"])
    timing = TimingConfig(sensing_time=case["sensing_time"])
    quality = SensingQuality(case["p_fa"], case["p_d"], case["persistence"])
    n_su, slot, cap = case["n_su"], case["slot"], case["repeat_cap"]
    return {
        "sms": build_sms_matrix(profile, timing, n_su, slot=slot).tolist(),
        "msms": build_msms_matrix(profile, timing, quality, n_su, slot=slot,
                                  repeat_cap=cap).tolist(),
        "pmsms": build_pmsms_matrix(profile, timing, quality, n_su, slot=slot,
                                    repeat_cap=cap).tolist(),
    }


def test_builds_match_golden():
    cases = json.loads(BUILDS.read_text())
    assert len(cases) == 400
    differing = [
        (i, name)
        for i, case in enumerate(cases)
        for name, sm in _golden_builds(case).items()
        if sm != case[name]
    ]
    assert differing == []


if __name__ == "__main__":
    rng = np.random.default_rng(27)
    cases = []
    for i in range(400):
        case = _golden_case(rng, i)
        cases.append({**case, **_golden_builds(case)})
    BUILDS.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
