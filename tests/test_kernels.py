import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensemat import _kernels
from sensemat.model import TimingConfig, rate_table
from sensemat.simulate import _allocate_outputs


def test_py_names_always_point_at_uncompiled_source():
    assert _kernels.simulate_slots_py.__name__ == "simulate_slots_py"
    assert _kernels.exact_network_throughput_py.__name__ == "exact_network_throughput_py"


def _slot_args(matrices, p0, p_fa, p_d, persistence, n_slots, seed):
    """Kernel arguments for ``matrices`` cycled over ``n_slots`` slots, with
    the uniforms drawn from ``seed``."""
    matrices = np.asarray(matrices, dtype=np.int64)
    n_variants, n_su, n_ch = matrices.shape
    rng = np.random.default_rng(seed)
    variant_idx = rng.integers(0, n_variants, size=n_slots).astype(np.int64)
    b = rate_table(TimingConfig(), n_ch)
    return (
        matrices, variant_idx, np.asarray(p0, dtype=np.float64),
        p_fa, p_d, persistence, b,
        rng.random((n_slots, n_ch)),
        rng.random((n_slots, n_su, n_ch)),
        rng.random((n_slots, n_su, n_ch)),
    )


def _assert_slot_kernels_agree(args):
    n_slots, n_su = args[1].shape[0], args[0].shape[1]
    vectorized = _allocate_outputs(n_slots, n_su)
    oracle = _allocate_outputs(n_slots, n_su)
    _kernels.simulate_slots(*args, *vectorized)
    _kernels.simulate_slots_py(*args, *oracle)
    for a, b_arr in zip(vectorized, oracle):
        assert np.array_equal(a, b_arr)


_probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _slot_cases(draw):
    n_ch = draw(st.integers(1, 6))
    n_su = draw(st.integers(1, 8))
    n_variants = draw(st.integers(1, 3))
    entries = st.integers(0, n_ch)
    matrices = draw(st.lists(
        st.lists(st.lists(entries, min_size=n_ch, max_size=n_ch), min_size=n_su, max_size=n_su),
        min_size=n_variants, max_size=n_variants,
    ))
    p0 = draw(st.lists(_probability, min_size=n_ch, max_size=n_ch))
    p_fa = draw(_probability)
    p_d = p_fa if draw(st.booleans()) else draw(_probability)
    persistence = draw(_probability)
    n_slots = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    return _slot_args(matrices, p0, p_fa, p_d, persistence, n_slots, seed)


# named corners: every user on one channel in each column, an all-zero row,
# a single channel, a single slot, eight users, p0 at 0 and 1, persistence
# at 0 and 1, and a detector whose false-alarm and detection rates coincide
@example(_slot_args([[[1, 2], [1, 2], [1, 1]]], [0.6, 0.3], 0.1, 0.9, 1.0, 32, 1))
@example(_slot_args([[[0, 0, 0], [2, 3, 1]]], [0.5, 0.7, 0.2], 0.2, 0.8, 0.6, 24, 2))
@example(_slot_args([[[1]], [[0]]], [0.4], 0.3, 0.7, 0.9, 40, 3))
@example(_slot_args([[[1, 2, 3], [3, 1, 2]]], [0.8, 0.5, 0.3], 0.1, 0.9, 0.8, 1, 4))
@example(_slot_args(
    [[[1 + (i + k) % 4 for k in range(4)] for i in range(8)]],
    [0.9, 0.6, 0.4, 0.7], 0.15, 0.85, 0.9, 40, 5))
@example(_slot_args([[[1, 2, 3], [2, 3, 1], [3, 1, 2]]], [0.0, 1.0, 0.0], 0.2, 0.9, 0.7, 24, 6))
@example(_slot_args([[[1, 2], [2, 1]]], [0.6, 0.4], 0.1, 0.9, 0.0, 16, 7))
@example(_slot_args([[[1, 2], [2, 1]]], [0.6, 0.4], 0.1, 0.9, 1.0, 16, 8))
@example(_slot_args([[[1, 2, 3], [1, 3, 2]]], [0.5, 0.5, 0.5], 0.4, 0.4, 0.9, 24, 9))
@settings(max_examples=150, deadline=None)
@given(_slot_cases())
def test_vectorized_slot_kernel_matches_oracle(args):
    _assert_slot_kernels_agree(args)


def test_vectorized_slot_kernel_matches_oracle_over_several_slot_blocks():
    assert 5000 > 2 * _kernels._SLOT_BLOCK
    rng = np.random.default_rng(2)
    matrices = rng.integers(0, 5, size=(3, 4, 4))
    p0 = rng.uniform(0.0, 1.0, size=4)
    _assert_slot_kernels_agree(_slot_args(matrices, p0, 0.15, 0.9, 0.7, 5000, 2))


@st.composite
def _exact_cases(draw):
    n_ch = draw(st.integers(1, 8))
    n_su = draw(st.integers(1, 8))
    sm = draw(st.lists(
        st.lists(st.integers(0, n_ch), min_size=n_ch, max_size=n_ch),
        min_size=n_su, max_size=n_su,
    ))
    p0 = draw(st.lists(_probability, min_size=n_ch, max_size=n_ch))
    # arbitrary rates, so that the order of every float sum shows
    rates = draw(st.lists(st.floats(0.01, 2.0), min_size=n_ch, max_size=n_ch))
    return (np.asarray(sm, dtype=np.int64), np.asarray(p0), np.asarray(rates))


def _exact_case(sm, p0):
    sm = np.asarray(sm, dtype=np.int64)
    return sm, np.asarray(p0, dtype=np.float64), rate_table(TimingConfig(), sm.shape[1])


@example(_exact_case([[1, 2], [1, 2], [1, 1]], [0.6, 0.3]))
@example(_exact_case([[0, 0, 0], [2, 3, 1]], [0.5, 0.7, 0.2]))
@example(_exact_case([[1], [1]], [0.4]))
@example(_exact_case([[1 + (i + k) % 4 for k in range(4)] for i in range(8)], [0.9, 0.6, 0.4, 0.7]))
@example(_exact_case([[1, 2, 3], [2, 3, 1], [3, 1, 2]], [0.0, 1.0, 0.0]))
@settings(max_examples=150, deadline=None)
@given(_exact_cases())
def test_vectorized_exact_kernel_matches_oracle(case):
    assert _kernels.exact_network_throughput(*case) == _kernels.exact_network_throughput_py(*case)


@pytest.mark.parametrize("n_ch", [12, 13])
def test_vectorized_exact_kernel_matches_oracle_around_the_block_size(n_ch):
    # 12 channels fill exactly one block; 13 need two, summed in turn
    assert 1 << 12 == _kernels._BLOCK
    rng = np.random.default_rng(n_ch)
    # channels 5 and 8 appear twice in the first column
    sm = rng.integers(0, n_ch + 1, size=(4, n_ch)).astype(np.int64)
    sm[:2, 0] = 5
    sm[2:, 0] = 8
    p0 = rng.uniform(0.1, 0.9, size=n_ch)
    p0[3] = 0.0                          # half of each block has no weight
    b = rate_table(TimingConfig(), n_ch)
    assert _kernels.exact_network_throughput(sm, p0, b) == (
        _kernels.exact_network_throughput_py(sm, p0, b)
    )


@settings(max_examples=60, deadline=None)
@given(_exact_cases(), st.data())
def test_permuting_users_leaves_exact_value_bit_identical(case, data):
    sm, p0, b = case
    order = data.draw(st.permutations(range(sm.shape[0])))
    assert _kernels.exact_network_throughput(sm[order], p0, b) == (
        _kernels.exact_network_throughput(sm, p0, b)
    )


def _exact_peak_bytes(n_ch, n_su=4):
    rng = np.random.default_rng(n_ch)
    sm = rng.integers(0, n_ch + 1, size=(n_su, n_ch)).astype(np.int64)
    p0 = rng.uniform(0.1, 0.9, size=n_ch)
    b = rng.uniform(0.5, 1.0, size=n_ch)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _kernels.exact_network_throughput(sm, p0, b)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_exact_kernel_memory_stays_within_its_block():
    peak_13 = _exact_peak_bytes(13)
    peak_16 = _exact_peak_bytes(16)
    # 2**16 patterns would need 512 KiB per float64 array alone
    assert peak_16 <= 1 << 20
    # each extra channel adds one boolean row per block; an array that grew
    # with the pattern count would add at least a float64 row per block
    assert peak_16 - peak_13 < 8 * _kernels._BLOCK
