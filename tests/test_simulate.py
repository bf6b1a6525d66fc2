import numpy as np
import pytest

from sensemat import _kernels
from sensemat.energy import EnergyConfig
from sensemat.model import ERROR_FREE, ChannelProfile, SensingQuality, TimingConfig
from sensemat.simulate import (
    SimConfig,
    build_variant_matrices,
    fairness_metrics,
    run_simulation,
    simulate_slot,
)
from sensemat.throughput import expected_throughput_exact

TIMING = TimingConfig()
PROF5 = ChannelProfile([0.9, 0.8, 0.7, 0.6, 0.5])
B1 = 0.995
B2 = 0.9895


def _rng():
    return np.random.default_rng(7)


def test_slot_free_first_channel():
    (out,) = simulate_slot([[1, 0]], [False, False], ERROR_FREE, TIMING, _rng())
    assert out.channel == 1
    assert out.minislot == 1
    assert out.throughput == pytest.approx(B1, abs=1e-12)
    assert out.sensings == 1
    assert out.handovers == 0
    assert not out.collided and not out.interfered


def test_slot_busy_then_free():
    (out,) = simulate_slot([[1, 2]], [True, False], ERROR_FREE, TIMING, _rng())
    assert out.channel == 2
    assert out.minislot == 2
    assert out.throughput == pytest.approx(B2, abs=1e-12)
    assert out.sensings == 2
    assert out.handovers == 1


def test_slot_all_busy():
    (out,) = simulate_slot([[1, 2]], [True, True], ERROR_FREE, TIMING, _rng())
    assert out.channel == -1
    assert out.minislot == -1
    assert out.throughput == 0.0
    assert out.sensings == 2
    assert out.handovers == 1


def test_slot_same_minislot_collision():
    outs = simulate_slot([[1, 0], [1, 0]], [False, False], ERROR_FREE, TIMING, _rng())
    for out in outs:
        assert out.collided
        assert out.throughput == 0.0
        assert out.channel == 1
        assert out.minislot == 1


def test_slot_join_collision_kills_incumbent():
    # a blind detector (p_d = 0) lets user 2 join user 1 mid-slot; both lose
    blind = SensingQuality(p_fa=0.0, p_d=0.0)
    outs = simulate_slot([[1, 0], [0, 1]], [False, False], blind, TIMING, _rng())
    assert outs[0].minislot == 1 and outs[1].minislot == 2
    assert outs[0].collided and outs[1].collided
    assert outs[0].throughput == 0.0 and outs[1].throughput == 0.0


def test_slot_interference_on_missed_detection():
    blind = SensingQuality(p_fa=0.0, p_d=0.0)
    (out,) = simulate_slot([[1]], [True], blind, TIMING, _rng())
    assert out.interfered
    assert out.channel == 1
    assert out.throughput == 0.0


def test_slot_zero_persistence_never_senses():
    lazy = SensingQuality(p_fa=0.0, p_d=1.0, persistence=0.0)
    (out,) = simulate_slot([[1, 2]], [False, False], lazy, TIMING, _rng())
    assert out.sensings == 0
    assert out.channel == -1
    assert out.throughput == 0.0


def test_slot_pu_state_shape_checked():
    with pytest.raises(ValueError):
        simulate_slot([[1, 2]], [False], ERROR_FREE, TIMING, _rng())


@pytest.mark.parametrize("row, entry", [([3, 0], r"entry \[0,0\]=3 outside 0..2"),
                                        ([-1, 0], r"entry \[0,0\]=-1 outside 0..2")])
def test_slot_rejects_an_out_of_range_entry(row, entry):
    with pytest.raises(ValueError, match=entry):
        simulate_slot([row], [True, False], ERROR_FREE, TIMING, _rng())


def test_error_free_slot_agrees_with_exact_enumeration():
    # with sensing errors off, a slot walk is deterministic given the
    # primary states; point-mass profiles turn the analytic expectation
    # into that same single walk
    matrices = [
        [[1, 2], [2, 1]],
        [[1, 1], [2, 2]],
        [[2, 0], [2, 0]],
        [[1, 2], [1, 2]],
    ]
    for sm in matrices:
        for pattern in range(4):
            busy = [(pattern >> c) & 1 == 1 for c in range(2)]
            outs = simulate_slot(sm, busy, ERROR_FREE, TIMING, _rng())
            walked = sum(o.throughput for o in outs)
            point = ChannelProfile([0.0 if busy[c] else 1.0 for c in range(2)])
            assert walked == pytest.approx(
                expected_throughput_exact(sm, point, TIMING), abs=1e-12
            )


def test_run_simulation_deterministic():
    cfg = SimConfig(
        profile=PROF5, timing=TIMING, quality=SensingQuality(0.12, 0.9, 0.8),
        n_su=3, n_slots=5000, seed=321, allocator="pmsms",
    )
    r1 = run_simulation(cfg)
    r2 = run_simulation(cfg)
    assert np.array_equal(r1.per_su_throughput, r2.per_su_throughput)
    assert r1.network_throughput == r2.network_throughput
    assert r1.network_throughput_se == r2.network_throughput_se
    assert r1.su_collisions == r2.su_collisions
    assert r1.pu_interference_events == r2.pu_interference_events
    assert r1.sensing_energy_mean == r2.sensing_energy_mean
    assert r1.handover_energy_mean == r2.handover_energy_mean


def test_run_simulation_counts_guaranteed_collisions():
    cfg = SimConfig(
        profile=ChannelProfile([1.0]), timing=TIMING, quality=ERROR_FREE,
        n_su=2, n_slots=200, seed=4, matrix=[[1], [1]],
    )
    rep = run_simulation(cfg)
    assert rep.su_collisions == 200
    assert rep.network_throughput == 0.0
    assert rep.fairness_degenerate
    assert rep.fairness_spread == 0.0


def test_run_simulation_energy_accounting():
    # ch1 always busy, ch2 always free: every slot costs two sensings and
    # one retune
    cfg = SimConfig(
        profile=ChannelProfile([0.0, 1.0]), timing=TIMING, quality=ERROR_FREE,
        energy=EnergyConfig(e_sense=1.0, e_ho=2.0),
        n_su=1, n_slots=150, seed=0, matrix=[[1, 2]],
    )
    rep = run_simulation(cfg)
    assert rep.sensing_energy_mean == pytest.approx(2.0, abs=1e-12)
    assert rep.sensing_energy_se == 0.0
    assert rep.handover_energy_mean == pytest.approx(2.0, abs=1e-12)
    assert rep.per_su_sensing_mean == pytest.approx([2.0])
    assert rep.per_su_throughput == pytest.approx([B2], abs=1e-12)
    assert rep.fairness_spread == 0.0 and not rep.fairness_degenerate


def test_rotation_shares_a_single_good_channel():
    # only channel 1 is ever free; the rotation hands it to a different
    # user each slot, so over full cycles everyone earns exactly B1/3
    profile = ChannelProfile([1.0, 0.0, 0.0, 0.0, 0.0])
    cfg = SimConfig(
        profile=profile, timing=TIMING, quality=ERROR_FREE,
        n_su=3, n_slots=300, seed=2, allocator="sms", rebuild_per_slot=True,
    )
    rep = run_simulation(cfg)
    assert rep.per_su_throughput == pytest.approx([B1 / 3] * 3, abs=1e-12)
    assert rep.fairness_spread == pytest.approx(0.0, abs=1e-12)
    assert rep.network_throughput == pytest.approx(B1, abs=1e-12)


def test_fairness_metrics():
    assert fairness_metrics([0.5, 0.4]) == pytest.approx(0.2, abs=1e-12)
    assert fairness_metrics([0.3, 0.3, 0.3]) == 0.0
    assert fairness_metrics([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        fairness_metrics([0.5])


def test_build_variant_matrices():
    cfg = SimConfig(profile=PROF5, n_su=3, allocator="sms")
    mats = build_variant_matrices(cfg)
    assert mats.shape == (3, 3, 5)
    frozen = SimConfig(profile=PROF5, n_su=3, allocator="sms", rebuild_per_slot=False)
    assert build_variant_matrices(frozen).shape == (1, 3, 5)
    fixed = SimConfig(profile=PROF5, n_su=2, matrix=[[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
    assert build_variant_matrices(fixed).shape == (1, 2, 5)
    bad = SimConfig(profile=PROF5, n_su=3, matrix=[[1, 2]])
    with pytest.raises(ValueError, match="shape"):
        build_variant_matrices(bad)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(profile=PROF5, allocator="bogus")
    with pytest.raises(ValueError):
        SimConfig(profile=PROF5, n_slots=0)
    with pytest.raises(ValueError):
        SimConfig(profile=PROF5, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(profile=PROF5, n_su=0)


def test_kernel_paths_bit_identical(monkeypatch):
    cfg = SimConfig(
        profile=PROF5, timing=TIMING, quality=SensingQuality(0.12, 0.9, 0.7),
        n_su=3, n_slots=400, seed=123, allocator="pmsms",
    )
    vectorized = run_simulation(cfg)
    monkeypatch.setattr(_kernels, "simulate_slots", _kernels.simulate_slots_py)
    oracle = run_simulation(cfg)
    assert np.array_equal(vectorized.per_su_throughput, oracle.per_su_throughput)
    assert vectorized.network_throughput == oracle.network_throughput
    assert vectorized.network_throughput_se == oracle.network_throughput_se
    assert vectorized.su_collisions == oracle.su_collisions
    assert vectorized.pu_interference_events == oracle.pu_interference_events
    assert vectorized.sensing_energy_mean == oracle.sensing_energy_mean
    assert vectorized.handover_energy_mean == oracle.handover_energy_mean
    assert np.array_equal(vectorized.per_su_sensing_mean, oracle.per_su_sensing_mean)


def test_run_simulation_rejects_an_out_of_range_fixed_matrix():
    cfg = SimConfig(profile=PROF5, n_su=1, n_slots=10, matrix=[[-1, 0, 0, 0, 0]],
                    rebuild_per_slot=False)
    with pytest.raises(ValueError, match=r"entry \[0,0\]=-1 outside 0..5"):
        run_simulation(cfg)
