"""Tests of the benchmark harness itself: inputs, work units, output
checks and span accounting, on operations small enough to run in a
moment."""

import numpy as np
import pytest

import spans
import worker
from speed import SpeedProbe
from workloads import WORKLOADS, make_workload

#: the traced self times must account for the traced wall to within this share
SELF_TIME_SHARE = 0.02

SMALL_OPS = (
    ("sweep", "--preset", "fig8", "--n-slots", "5", "--p0", "[0.3, 0.8, 0.6]", "--seed", "3"),
    ("analyze", "--p0", "[0.3, 0.8, 0.6]", "--n-su", "2"),
)
#: a fig4 sweep small enough to search in a moment: 49 candidates
SMALL_SEARCH = (
    ("sweep", "--preset", "fig4", "--p0", "[0.3, 0.8, 0.6]", "--n-su", "2",
     "--n-slots", "50", "--seed", "4"),
)


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()[0]


def _run(cli, ops, out_dir, tracer=None):
    """One pass, traced when given a tracer, then the output checks."""
    if tracer is not None:
        tracer.install()
    try:
        wall, _, outputs = worker.run_pass(cli, ops, str(out_dir), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, worker.check_outputs(cli, ops, str(out_dir), [outputs])


def _flag(argv, name):
    return argv[argv.index(name) + 1]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fully_determines_the_inputs(name):
    first, again, other = make_workload(name, 7), make_workload(name, 7), make_workload(name, 8)
    assert first == again
    assert first.ops != other.ops
    for argv in first.ops:
        p0 = [float(v) for v in _flag(argv, "--p0").strip("[]").split(",")]
        assert all(0.1 <= v <= 0.9 for v in p0)
    # everything but the profile and the simulator seed is fixed
    strip = {"--p0", "--seed"}
    shape = [[a for k, a in enumerate(argv) if k == 0 or argv[k - 1] not in strip]
             for argv in first.ops]
    assert shape == [[a for k, a in enumerate(argv) if k == 0 or argv[k - 1] not in strip]
                     for argv in other.ops]


def test_rates_count_the_work_the_input_asks_for():
    from sensemat.throughput import count_repetition_free, repetition_free_candidates

    search = make_workload("search", 1)
    (argv,) = search.ops
    n_ch, n_su = len(_flag(argv, "--p0").split(",")), int(_flag(argv, "--n-su"))
    assert count_repetition_free(n_ch, n_su) == sum(1 for _ in repetition_free_candidates(n_ch, n_su))
    assert search.work["candidates"] == count_repetition_free(n_ch, n_su) * 10
    assert search.unit == "candidates"

    (argv,) = make_workload("montecarlo", 1).ops
    assert make_workload("montecarlo", 1).work == {"slots": int(_flag(argv, "--n-slots")) * 25 * 3}
    assert int(_flag(argv, "--n-slots")) > 4096

    crowded = make_workload("crowded", 1)
    assert crowded.work == {"slots": 100 * 21 * len(crowded.ops)}

    wide = make_workload("exact-wide", 1)
    n_ch = len(_flag(wide.ops[0], "--p0").split(","))
    assert wide.work == {"patterns": 2**n_ch * len(wide.ops)}


@pytest.mark.parametrize("ops", [SMALL_OPS, SMALL_SEARCH])
def test_correct_outputs_pass_both_checks(cli, tmp_path, ops):
    _, (attempted, failed, problems) = _run(cli, ops, tmp_path)
    assert (attempted, failed, problems) == (len(ops), 0, [])


def test_injected_wrong_simulation_counts_as_failed(cli, tmp_path, monkeypatch):
    from sensemat import _kernels
    original = _kernels.simulate_slots

    def skewed(*args):
        original(*args)
        args[10][:] += 0.01      # per-user throughput

    monkeypatch.setattr(_kernels, "simulate_slots", skewed)
    _, (attempted, failed, problems) = _run(cli, SMALL_OPS, tmp_path)
    assert (attempted, failed) == (2, 1)
    assert problems[0].startswith("op 0: csv")


@pytest.mark.parametrize("error, fails", [(1e-12, False), (1e-6, True)])
def test_exact_values_are_held_to_the_stated_bound(cli, tmp_path, monkeypatch, error, fails):
    from sensemat import _kernels
    original = _kernels.exact_network_throughput
    monkeypatch.setattr(_kernels, "exact_network_throughput",
                        lambda sm, p0, b: original(sm, p0, b) * (1.0 + error))
    _, (attempted, failed, _) = _run(cli, SMALL_OPS[1:], tmp_path)
    assert (attempted, failed) == (1, int(fails))


# The faults below sit outside the kernels, in code the oracle rerun shares
# with the checked run; only the independent reference can see them.

def test_a_different_argmax_counts_as_failed(cli, tmp_path, monkeypatch):
    from sensemat import experiments, throughput
    search = throughput.optimal_matrix_search

    def last_of_the_best(profile, timing, n_su, **kwargs):
        sm, value = search(profile, timing, n_su, **kwargs)
        return sm[::-1].copy(), value      # the same value, another matrix

    monkeypatch.setattr(experiments, "optimal_matrix_search", last_of_the_best)
    _, (attempted, failed, problems) = _run(cli, SMALL_SEARCH, tmp_path)
    assert (attempted, failed) == (1, 1)
    assert "argmax" in problems[0]


def test_a_wrong_search_value_counts_as_failed(cli, tmp_path, monkeypatch):
    from sensemat import experiments, throughput
    search = throughput.optimal_matrix_search

    def overstated(*args, **kwargs):
        sm, value = search(*args, **kwargs)
        return sm, value * (1 + 1e-6)

    monkeypatch.setattr(experiments, "optimal_matrix_search", overstated)
    _, (attempted, failed, problems) = _run(cli, SMALL_SEARCH, tmp_path)
    assert (attempted, failed) == (1, 1)
    assert "optimal_exact" in problems[0]


def test_a_wrong_allocator_counts_as_failed(cli, tmp_path, monkeypatch):
    from sensemat import allocators, simulate
    build = allocators.build_sms_matrix
    monkeypatch.setattr(simulate, "build_sms_matrix",
                        lambda *args, **kwargs: build(*args, **kwargs)[:, ::-1].copy())
    _, (attempted, failed, problems) = _run(cli, SMALL_OPS[1:], tmp_path)
    assert (attempted, failed) == (1, 1)
    assert "sms matrix" in problems[0]


def test_bypassing_a_kernel_entry_point_counts_as_failed(cli, tmp_path, monkeypatch):
    from sensemat import _kernels, throughput
    monkeypatch.setattr(throughput, "_kernels", type("Scalar", (), {
        "exact_network_throughput": staticmethod(_kernels.exact_network_throughput_py)}))
    _, (attempted, failed, problems) = _run(cli, SMALL_OPS[1:], tmp_path)
    assert (attempted, failed) == (1, 1)
    assert "exact kernel entry point was never called" in problems[0]


def test_reference_matches_the_program_on_its_own_inputs():
    from sensemat import _kernels, allocators, throughput
    from sensemat.model import ChannelProfile, TimingConfig, rate_table
    import reference

    rng = np.random.default_rng(5)
    for _ in range(20):
        n_ch, n_su = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        p0 = rng.uniform(0.1, 0.9, n_ch)
        sm = rng.integers(0, n_ch + 1, size=(n_su, n_ch))
        b = rate_table(TimingConfig(), n_ch)
        assert reference.rates(n_ch) == pytest.approx(b, rel=1e-15)
        assert reference.exact(sm, p0, b) == pytest.approx(
            _kernels.exact_network_throughput_py(sm, p0, b), rel=1e-12)
        if n_su <= n_ch:
            want = allocators.build_sms_matrix(ChannelProfile(p0), TimingConfig(), n_su, slot=n_su)
            assert (reference.sms_matrix(list(p0), b, n_su, slot=n_su) == want).all()
    assert len(reference.repetition_free_matrices(5, 2)) == throughput.count_repetition_free(5, 2)


def test_traced_self_times_account_for_the_traced_wall(cli, tmp_path):
    from sensemat import _kernels
    original = _kernels.simulate_slots
    tracer = spans.Tracer()
    wall, (_, failed, _) = _run(cli, SMALL_OPS, tmp_path, tracer)
    assert _kernels.simulate_slots is original
    assert failed == 0 and tracer.missing == []
    assert abs(sum(tracer.self_time.values()) - wall) <= SELF_TIME_SHARE * wall
    layers = spans.layer_metrics(tracer, 1)
    assert layers["simulate.runs"][0] == 21
    assert layers["kernels.slot_steps_computed"][0] == 21 * 5 * 8 * 3
    assert layers["kernels.exact_calls"][0] == 1
    assert layers["kernels.exact_steps_computed"][0] == 2**3 * 2 * 3
    assert layers["allocators.builds"][0] > 0
    by_index = tracer.spans
    for name, start, end, parent in by_index:
        assert start <= end
        if parent >= 0:
            assert by_index[parent][1] <= start and end <= by_index[parent][2]


def test_tail_leaves_ten_operations_beyond_it():
    times = list(np.arange(40, dtype=float))
    assert worker.tail(times) == (29.0, 75.0)
    assert worker.tail([3.0, 1.0]) == (3.0, 100.0)


def test_reference_seconds_take_out_the_probes_and_scale_by_their_speed():
    speed = SpeedProbe(numpy=False)
    ref = speed.ref_s
    speed.samples = [2 * ref, 2 * ref]          # the host at half the reference speed
    assert speed.reference_seconds(1.0 + 4 * ref, 0) == pytest.approx(0.5)
    speed.samples.append(4 * ref)               # a quarter of the speed since mark 2
    assert speed.reference_seconds(1.0 + 4 * ref, 2) == pytest.approx(0.25)
    # an interval without a probe is scaled by every probe so far
    assert speed.reference_seconds(1.0, 3) == pytest.approx(3 / 8)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedProbe()
    with speed.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    count = len(speed.samples)
    assert count >= 5 and all(t > 0 for t in speed.samples)
    time.sleep(0.05)
    assert len(speed.samples) == count
    assert signal.getsignal(signal.SIGALRM) is before
