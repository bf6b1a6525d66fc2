"""Analytic throughput of a sensing matrix and the exhaustive baseline.

Two evaluations are kept side by side on purpose:

* ``network_throughput_closed_form`` is the optimistic per-column sum: a
  channel's first appearance earns its free-probability weight no matter
  how likely the user was to still be searching by then.
* ``expected_throughput_exact`` is the true error-free expectation,
  obtained by enumerating every joint primary-occupancy pattern and
  walking all users through the slot deterministically.

The closed form never falls below the exact value on repetition-free
matrices, which makes the pair a useful sanity bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import (
    ChannelProfile, TimingConfig, as_matrix, check_feasible, check_matrix, rate_table,
)

#: enumerating 2**n_channels primary patterns stays tractable up to here:
#: with four users on full rows the exact kernel costs about 0.13 us per
#: pattern on 14 channels and 0.26 us on 25 (2-vCPU Xeon), so a 25-channel
#: call takes about 9 s, in fixed memory
MAX_EXACT_CHANNELS = 25

#: default cap on candidates the exhaustive search will evaluate
DEFAULT_SEARCH_BUDGET = 50_000_000


class SearchBudgetError(RuntimeError):
    """Raised when an exhaustive search would exceed its candidate budget."""

    def __init__(self, message: str, space_size: int):
        super().__init__(message)
        self.space_size = space_size


@dataclass(frozen=True)
class ThroughputReport:
    """Closed-form network throughput with its per-column breakdown."""

    total: float
    per_column: np.ndarray


def collision_sum(terms) -> float:
    """Combine one column's (channel, weight) terms: channels claimed by a
    single user contribute their weight, channels claimed by several users
    cancel to zero.  Order-independent."""
    by_channel: dict[int, list[float]] = {}
    for channel, weight in terms:
        by_channel.setdefault(int(channel), []).append(float(weight))
    total = 0.0
    for weights in by_channel.values():
        if len(weights) == 1:
            total += weights[0]
    return total


def network_throughput_closed_form(
    sm, profile: ChannelProfile, timing: TimingConfig
) -> ThroughputReport:
    """Optimistic closed-form throughput: per column, each channel's first
    appearance in the matrix earns p0 * rate(column); repeats within a
    column cancel, and channels already used in earlier columns earn 0."""
    sm = as_matrix(sm)
    check_matrix(sm, profile)
    n_ch = profile.n_channels
    check_feasible(timing, n_ch)
    b = rate_table(timing, n_ch)
    seen: set[int] = set()
    per_column = np.zeros(sm.shape[1])
    for j in range(sm.shape[1]):
        column = sm[:, j]
        terms = []
        for c in column:
            c = int(c)
            if c == 0:
                continue
            weight = profile.p0[c - 1] if c not in seen else 0.0
            terms.append((c, weight))
        per_column[j] = collision_sum(terms) * b[j]
        seen.update(int(c) for c in column if c != 0)
    return ThroughputReport(total=float(per_column.sum()), per_column=per_column)


def expected_throughput_exact(sm, profile: ChannelProfile, timing: TimingConfig) -> float:
    """Exact expected error-free network throughput of a sensing matrix."""
    sm = as_matrix(sm)
    check_matrix(sm, profile)
    n_ch = profile.n_channels
    if n_ch > MAX_EXACT_CHANNELS:
        raise ValueError(
            f"exact evaluation enumerates 2**n_channels patterns; "
            f"{n_ch} channels exceeds the supported {MAX_EXACT_CHANNELS}"
        )
    check_feasible(timing, n_ch)
    b = rate_table(timing, n_ch)
    return float(_kernels.exact_network_throughput(sm, profile.p0, b))


def count_repetition_free(n_channels: int, n_su: int) -> int:
    """Number of matrices whose rows are disjoint ordered channel subsets."""
    return sum(
        math.comb(n_channels, k) * math.factorial(k) * math.comb(k + n_su - 1, n_su - 1)
        for k in range(n_channels + 1)
    )


def _disjoint_row_sets(channels: tuple[int, ...], n_rows: int):
    """Yield tuples of pairwise-disjoint ordered rows (tuples of channels)."""
    if n_rows == 0:
        yield ()
        return
    for k in range(len(channels) + 1):
        for combo in itertools.combinations(channels, k):
            remaining = tuple(c for c in channels if c not in combo)
            for perm in itertools.permutations(combo):
                for rest in _disjoint_row_sets(remaining, n_rows - 1):
                    yield (perm,) + rest


def repetition_free_candidates(n_channels: int, n_su: int):
    """Generate every repetition-free sensing matrix, zero-padded."""
    channels = tuple(range(1, n_channels + 1))
    for rows in _disjoint_row_sets(channels, n_su):
        sm = np.zeros((n_su, n_channels), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                sm[i, j] = c
        yield sm


def _full_candidates(n_channels: int, n_su: int):
    cells = n_su * n_channels
    for flat in itertools.product(range(1, n_channels + 1), repeat=cells):
        yield np.array(flat, dtype=np.int64).reshape(n_su, n_channels)


def optimal_matrix_search(
    profile: ChannelProfile,
    timing: TimingConfig,
    n_su: int,
    objective: str = "exact",
    repetition_free: bool = True,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[np.ndarray, float]:
    """Exhaustive argmax over sensing matrices.

    With ``repetition_free`` (the default) rows are ordered, pairwise
    disjoint channel subsets; otherwise every cell ranges over all
    channels, which explodes combinatorially and is guarded by ``budget``.
    Value ties are broken toward the lexicographically smallest matrix,
    so the result does not depend on enumeration order.
    """
    if n_su < 1:
        raise ValueError("n_su must be >= 1")
    if objective not in ("exact", "closed-form"):
        raise ValueError(f"unknown objective {objective!r}")
    n_ch = profile.n_channels
    check_feasible(timing, n_ch)

    if repetition_free:
        space = count_repetition_free(n_ch, n_su)
        candidates = repetition_free_candidates(n_ch, n_su)
        detail = "disjoint ordered row assignments"
    else:
        space = n_ch ** (n_ch * n_su)
        candidates = _full_candidates(n_ch, n_su)
        detail = f"{n_ch}^({n_ch}*{n_su}) cell assignments"
    if space > budget:
        raise SearchBudgetError(
            f"search space holds {space} candidate matrices "
            f"({detail}), over the budget of {budget}",
            space_size=space,
        )

    if objective == "exact":
        b = rate_table(timing, n_ch)
        p0 = profile.p0

        def value_of(sm):
            return float(_kernels.exact_network_throughput(sm, p0, b))

    else:

        def value_of(sm):
            return network_throughput_closed_form(sm, profile, timing).total

    best_sm = None
    best_value = -math.inf
    best_key = None
    for sm in candidates:
        v = value_of(sm)
        key = tuple(sm.ravel())
        if v > best_value or (v == best_value and key < best_key):
            best_sm = sm
            best_value = v
            best_key = key
    return best_sm, best_value
