import itertools
import math

import numpy as np
import pytest

from sensemat.allocators import cumulative_reward
from sensemat.model import ChannelProfile, TimingConfig, rate_table
from sensemat.throughput import (
    SearchBudgetError,
    collision_sum,
    count_repetition_free,
    expected_throughput_exact,
    network_throughput_closed_form,
    optimal_matrix_search,
    repetition_free_candidates,
)

TIMING = TimingConfig()
PROF2 = ChannelProfile([0.3, 0.8])
B1 = 0.995
B2 = 0.9895


def _oracle_exact(sm, profile, timing):
    """Brute-force reference for the exact expectation, written with sets
    and dicts instead of the kernel's flat arrays."""
    sm = np.asarray(sm)
    n_su, n_cols = sm.shape
    n_ch = profile.n_channels
    b = rate_table(timing, n_ch)
    total = 0.0
    for busy in itertools.product((False, True), repeat=n_ch):
        w = math.prod(
            (1.0 - profile.p0[c]) if busy[c] else profile.p0[c] for c in range(n_ch)
        )
        if w == 0.0:
            continue
        searching = set(range(n_su))
        occupied: set[int] = set()
        value = 0.0
        for m in range(n_cols):
            claims: dict[int, list[int]] = {}
            for i in sorted(searching):
                c = int(sm[i, m])
                if c == 0:
                    continue
                if not busy[c - 1] and c not in occupied:
                    claims.setdefault(c, []).append(i)
            for c, users in claims.items():
                occupied.add(c)
                for i in users:
                    searching.discard(i)
                if len(users) == 1:
                    value += b[m]
        total += w * value
    return total


def test_collision_sum_basic():
    assert collision_sum([]) == 0.0
    assert collision_sum([(1, 0.5)]) == 0.5
    assert collision_sum([(1, 0.5), (1, 0.3)]) == 0.0
    assert collision_sum([(1, 0.5), (2, 0.3)]) == pytest.approx(0.8)
    assert collision_sum([(3, 0.1), (3, 0.2), (3, 0.3)]) == 0.0
    assert collision_sum([(1, 0.5), (2, 0.3), (2, 0.9)]) == 0.5


def test_collision_sum_order_invariant():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        terms = [(int(rng.integers(1, 4)), float(rng.random())) for _ in range(n)]
        base = collision_sum(terms)
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert collision_sum(shuffled) == pytest.approx(base, abs=1e-15)


def test_closed_form_single_user_example():
    report = network_throughput_closed_form([[2, 1]], PROF2, TIMING)
    assert report.per_column == pytest.approx([0.8 * B1, 0.3 * B2], abs=1e-12)
    assert report.per_column == pytest.approx([0.796, 0.29685], abs=1e-12)
    assert report.total == pytest.approx(1.09285, abs=1e-12)


def test_closed_form_in_column_repeats_cancel():
    profile = ChannelProfile([0.5, 0.6, 0.7])
    report = network_throughput_closed_form([[1, 2, 0], [1, 3, 0]], profile, TIMING)
    # channel 1 claimed twice in column 1 cancels; column 2 adds both
    assert report.per_column[0] == 0.0
    assert report.per_column[1] == pytest.approx((0.6 + 0.7) * B2, abs=1e-12)


def test_closed_form_counts_only_first_appearance():
    report = network_throughput_closed_form([[1, 1]], ChannelProfile([0.5, 0.9]), TIMING)
    assert report.total == pytest.approx(0.5 * B1, abs=1e-12)
    report = network_throughput_closed_form([[0, 1]], PROF2, TIMING)
    assert report.total == pytest.approx(0.3 * B2, abs=1e-12)


def test_exact_single_user_example():
    # hand enumeration: ch2 free -> B1; ch2 busy and ch1 free -> B2
    expected = 0.8 * B1 + 0.2 * 0.3 * B2
    value = expected_throughput_exact([[2, 1]], PROF2, TIMING)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.85537, abs=1e-12)


def test_exact_matches_bruteforce_oracle():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n_ch = int(rng.integers(1, 5))
        n_su = int(rng.integers(1, 4))
        profile = ChannelProfile(rng.uniform(0.0, 1.0, size=n_ch))
        sm = rng.integers(0, n_ch + 1, size=(n_su, n_ch))  # zeros and repeats allowed
        got = expected_throughput_exact(sm, profile, TIMING)
        want = _oracle_exact(sm, profile, TIMING)
        assert got == pytest.approx(want, abs=1e-12)


def test_single_row_exact_telescopes_into_greedy_reward_sum():
    # a lone user transmits at its first free channel, so the exact
    # expectation is exactly the accumulated per-column greedy reward
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_ch = int(rng.integers(1, 7))
        profile = ChannelProfile(rng.uniform(0.0, 1.0, size=n_ch))
        length = int(rng.integers(1, n_ch + 1))
        prefix = tuple(int(c) for c in rng.permutation(np.arange(1, n_ch + 1))[:length])
        row = list(prefix) + [0] * (n_ch - length)
        exact = expected_throughput_exact([row], profile, TIMING)
        assert exact == pytest.approx(cumulative_reward(prefix, profile, TIMING), abs=1e-12)


def test_closed_form_never_below_exact_when_repetition_free():
    rng = np.random.default_rng(314)
    for _ in range(50):
        n_ch = int(rng.integers(2, 6))
        n_su = int(rng.integers(1, 4))
        profile = ChannelProfile(rng.uniform(0.05, 0.95, size=n_ch))
        rows = [[] for _ in range(n_su)]
        for c in rng.permutation(np.arange(1, n_ch + 1)):
            u = int(rng.integers(0, n_su + 1))
            if u < n_su:
                rows[u].append(int(c))
        sm = np.zeros((n_su, n_ch), dtype=np.int64)
        for i, r in enumerate(rows):
            sm[i, : len(r)] = r
        closed = network_throughput_closed_form(sm, profile, TIMING).total
        exact = expected_throughput_exact(sm, profile, TIMING)
        assert closed >= exact - 1e-12


def test_candidate_generator_agrees_with_count():
    for n_ch, n_su in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        mats = list(repetition_free_candidates(n_ch, n_su))
        assert len(mats) == count_repetition_free(n_ch, n_su)
        seen = {tuple(m.ravel()) for m in mats}
        assert len(seen) == len(mats)
        for m in mats:
            nonzero = m[m > 0]
            assert len(set(nonzero.tolist())) == nonzero.size  # disjoint rows
    assert count_repetition_free(5, 3) == 5056


def test_optimal_single_user():
    sm, value = optimal_matrix_search(PROF2, TIMING, 1)
    assert sm.tolist() == [[2, 1]]
    assert value == pytest.approx(0.85537, abs=1e-12)


def test_optimal_two_users_breaks_ties_lexicographically():
    sm, value = optimal_matrix_search(PROF2, TIMING, 2)
    # [[1,0],[2,0]] and [[2,0],[1,0]] tie; the flat-lexicographic rule
    # picks the first
    assert sm.tolist() == [[1, 0], [2, 0]]
    assert value == pytest.approx((0.3 + 0.8) * B1, abs=1e-12)
    assert value == pytest.approx(1.0945, abs=1e-12)


def test_optimal_closed_form_objective():
    sm, value = optimal_matrix_search(PROF2, TIMING, 1, objective="closed-form")
    assert sm.tolist() == [[2, 1]]
    assert value == pytest.approx(1.09285, abs=1e-12)


def test_optimal_full_search_small_case_matches_restricted():
    restricted = optimal_matrix_search(PROF2, TIMING, 1)
    full = optimal_matrix_search(PROF2, TIMING, 1, repetition_free=False)
    assert full[0].tolist() == restricted[0].tolist()
    assert full[1] == pytest.approx(restricted[1], abs=1e-12)


def test_optimal_budget_guard():
    profile = ChannelProfile([0.9, 0.8, 0.7, 0.6, 0.5])
    with pytest.raises(SearchBudgetError) as err:
        optimal_matrix_search(profile, TIMING, 3, repetition_free=False)
    assert err.value.space_size == 5 ** 15
    assert str(5 ** 15) in str(err.value)
    assert "budget" in str(err.value)
    # a tighter budget trips the restricted search too
    with pytest.raises(SearchBudgetError) as err:
        optimal_matrix_search(profile, TIMING, 3, budget=100)
    assert err.value.space_size == 5056


def test_optimal_input_validation():
    with pytest.raises(ValueError):
        optimal_matrix_search(PROF2, TIMING, 1, objective="fastest")
    with pytest.raises(ValueError):
        optimal_matrix_search(PROF2, TIMING, 0)


def test_exact_channel_limit():
    profile = ChannelProfile([0.5] * 26)
    sm = np.zeros((1, 26), dtype=np.int64)
    sm[0, 0] = 1
    with pytest.raises(ValueError, match="exceeds"):
        expected_throughput_exact(sm, profile, TIMING)


PROF5 = ChannelProfile([0.9, 0.8, 0.7, 0.6, 0.5])


def test_exact_rejects_a_negative_entry():
    # -1 used to wrap to channel 5 and score 0.597
    with pytest.raises(ValueError, match=r"entry \[0,0\]=-1 outside 0..5"):
        expected_throughput_exact([[-1, 0, 0, 0, 0]], PROF5, TIMING)


def test_closed_form_rejects_a_short_row():
    # a 2-wide matrix on 5 channels used to be scored as a 2-channel system
    with pytest.raises(ValueError, match="row length 2 does not match channel count 5"):
        network_throughput_closed_form([[1, 2]], PROF5, TIMING)
