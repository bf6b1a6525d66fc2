"""Greedy sensing-matrix builders.

All three schemes fill the matrix column by column (mini-slot by
mini-slot).  Within a column every user picks the channel with the best
marginal reward; the order in which users pick is the fairness lever:

* column 1 starts from a user chosen by rotating the slot index, then
  proceeds cyclically, so the privileged first pick moves every slot;
* later columns let users pick in ascending order of the reward they have
  accumulated so far, so whoever is worst off so far chooses first.

``build_sms_matrix`` assumes error-free sensing and assigns each channel
at most once.  ``build_msms_matrix`` accounts for false alarms and missed
detections: a channel assigned to earlier users is still worth something
because a false alarm may leave it unclaimed, so channels can repeat up
to ``repeat_cap`` times across the matrix.  ``build_pmsms_matrix``
additionally models a persistence MAC where each user only senses with
probability ``quality.persistence``; at persistence 1.0 it reduces to the
MSMS build exactly.

The error-aware reward lives in ``_reward`` alone: the builders score
every candidate with it, and ``msms_reward``/``pmsms_reward`` expose it
for a candidate whose row prefix is given as the ``q1`` occupancy of each
earlier entry (``occupation_probability``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .model import (
    ChannelProfile,
    SensingQuality,
    TimingConfig,
    check_feasible,
    per_slot_rate,
    rate_table,
)


def rotation_start_user(slot: int, n_su: int) -> int:
    """1-based index of the user who picks first in the given slot."""
    if slot < 1:
        raise ValueError("slot index is 1-based")
    if n_su < 1:
        raise ValueError("n_su must be >= 1")
    return 1 + (slot - 1) % n_su


def _round_one_order(slot: int, n_su: int) -> list[int]:
    start = rotation_start_user(slot, n_su)
    return [1 + (start - 1 + k) % n_su for k in range(n_su)]


# ---------------------------------------------------------------------------
# error-free scheme


def sms_reward(channel, minislot, prefix, profile: ChannelProfile, timing: TimingConfig) -> float:
    """Marginal reward of appending ``channel`` at ``minislot`` to a row
    whose earlier entries are ``prefix``: the probability that every prefix
    channel was busy, times the candidate's free probability, times the
    rate left at that mini-slot."""
    if channel in prefix:
        raise ValueError(f"channel {channel} is already assigned in this row")
    still_searching = 1.0
    for c in prefix:
        still_searching *= 1.0 - profile.p0[c - 1]
    return still_searching * profile.p0[channel - 1] * per_slot_rate(minislot, timing)


def cumulative_reward(prefix, profile: ChannelProfile, timing: TimingConfig) -> float:
    """Total reward a row accumulated while its prefix was assigned."""
    total = 0.0
    for m, c in enumerate(prefix, start=1):
        total += sms_reward(c, m, prefix[: m - 1], profile, timing)
    return total


def build_sms_matrix(
    profile: ChannelProfile, timing: TimingConfig, n_su: int, slot: int = 1
) -> np.ndarray:
    """Greedy error-free build; every channel is assigned exactly once."""
    if n_su < 1:
        raise ValueError("n_su must be >= 1")
    n_ch = profile.n_channels
    check_feasible(timing, n_ch)
    b = rate_table(timing, n_ch)

    sm = np.zeros((n_su, n_ch), dtype=np.int64)
    available = list(range(1, n_ch + 1))
    still_searching = np.ones(n_su + 1)   # prefix busy-probability per user
    credited = np.zeros(n_su + 1)
    order = _round_one_order(slot, n_su)

    for m in range(1, n_ch + 1):
        if not available:
            break
        for user in order:
            if not available:
                break
            best_c = -1
            best_r = -1.0
            for c in available:
                r = still_searching[user] * profile.p0[c - 1] * b[m - 1]
                if r > best_r:
                    best_r = r
                    best_c = c
            sm[user - 1, m - 1] = best_c
            available.remove(best_c)
            still_searching[user] *= 1.0 - profile.p0[best_c - 1]
            credited[user] += best_r
        order = sorted(range(1, n_su + 1), key=lambda u: (credited[u], u))
    return sm


# ---------------------------------------------------------------------------
# sensing-error-aware schemes


def _hbar(n_same_minislot: int, persistence: float, p_fa: float) -> float:
    miss = 1.0 - persistence + persistence * p_fa
    return persistence * (1.0 - p_fa) * miss ** n_same_minislot


def _reward(c1, q1, n_same, b_m, persistence, p_fa) -> float:
    """The error-aware reward: still searching (``c1``), channel usable
    (``1 - q1``), no co-assignee in the mini-slot claims it, times the rate
    ``b_m`` left at that mini-slot."""
    return c1 * (1.0 - q1) * _hbar(n_same, persistence, p_fa) * b_m


def _continue(c1, q1, quality: SensingQuality) -> float:
    """Continue-probability after one more entry with occupancy ``q1``:
    a false alarm on a free channel or a correct detection on a busy one."""
    return c1 * ((1.0 - q1) * quality.p_fa + q1 * quality.p_d)


def occupation_probability(
    channel: int, prior_count: int, profile: ChannelProfile, quality: SensingQuality
) -> float:
    """Probability ``q1`` that ``channel`` is unusable to its next assignee:
    the primary is present, or one of the ``prior_count`` users assigned to
    it in earlier mini-slots (each sensing with probability
    ``quality.persistence``) read it free and took it."""
    if prior_count < 0:
        raise ValueError("prior_count must be >= 0")
    p0_c = profile.p0[channel - 1]
    if prior_count == 0:
        return 1.0 - p0_c
    # the channel stays usable only if it is primary-free and every prior
    # assignee either skipped its sensing or false-alarmed
    miss = 1.0 - quality.persistence + quality.persistence * quality.p_fa
    return 1.0 - p0_c * miss ** prior_count


def contention_factor_hbar(n_same_minislot: int, quality: SensingQuality) -> float:
    """Probability that a user wins a channel it shares with
    ``n_same_minislot`` co-assigned users in the same mini-slot: the user
    senses and reads the channel free while every rival stays silent."""
    if n_same_minislot < 0:
        raise ValueError("n_same_minislot must be >= 0")
    return _hbar(n_same_minislot, quality.persistence, quality.p_fa)


def msms_reward(
    channel: int,
    minislot: int,
    prefix,
    n_same_minislot: int,
    prior_count: int,
    profile: ChannelProfile,
    timing: TimingConfig,
    quality: SensingQuality,
) -> float:
    """Expected reward of the candidate under imperfect sensing: the user
    must still be searching after its ``prefix`` (the ``q1`` of each
    earlier entry, see ``occupation_probability``), find the channel free,
    and be the only one of its ``n_same_minislot`` co-assignees to claim
    it.  Every user is taken to sense; ``quality.persistence`` is ignored."""
    return pmsms_reward(
        channel, minislot, prefix, n_same_minislot, prior_count,
        profile, timing, replace(quality, persistence=1.0),
    )


def pmsms_reward(
    channel: int,
    minislot: int,
    prefix,
    n_same_minislot: int,
    prior_count: int,
    profile: ChannelProfile,
    timing: TimingConfig,
    quality: SensingQuality,
) -> float:
    """Like ``msms_reward`` with the persistence MAC folded in; identical
    to it at persistence 1.0."""
    c1 = 1.0
    for q1 in prefix:
        c1 = _continue(c1, q1, quality)
    q1 = occupation_probability(channel, prior_count, profile, quality)
    b_m = per_slot_rate(minislot, timing)
    return _reward(c1, q1, n_same_minislot, b_m, quality.persistence, quality.p_fa)


def build_msms_matrix(
    profile: ChannelProfile,
    timing: TimingConfig,
    quality: SensingQuality,
    n_su: int,
    slot: int = 1,
    repeat_cap: int = 3,
) -> np.ndarray:
    """Error-aware build under the always-sense MAC.  ``quality.persistence``
    is ignored here; it only matters to the PMAC variant."""
    return build_pmsms_matrix(
        profile, timing, replace(quality, persistence=1.0), n_su, slot, repeat_cap
    )


def build_pmsms_matrix(
    profile: ChannelProfile,
    timing: TimingConfig,
    quality: SensingQuality,
    n_su: int,
    slot: int = 1,
    repeat_cap: int = 3,
) -> np.ndarray:
    """Error-aware build that assumes users sense with probability
    ``quality.persistence`` each mini-slot."""
    if n_su < 1:
        raise ValueError("n_su must be >= 1")
    if repeat_cap < 1:
        raise ValueError("repeat_cap must be >= 1")
    n_ch = profile.n_channels
    check_feasible(timing, n_ch)
    b = rate_table(timing, n_ch)

    sm = np.zeros((n_su, n_ch), dtype=np.int64)
    prior = np.zeros(n_ch + 1, dtype=np.int64)    # assignments in fixed columns
    column = np.zeros(n_ch + 1, dtype=np.int64)   # assignments in this column
    c1 = [1.0] * (n_su + 1)                       # continue-probability per user
    credited = [0.0] * (n_su + 1)
    order = _round_one_order(slot, n_su)

    for m in range(1, n_ch + 1):
        if (prior[1:] >= repeat_cap).all():
            break   # every channel is at its cap
        for user in order:
            best_c = 0
            best_r = 0.0
            for c in range(1, n_ch + 1):
                if prior[c] + column[c] >= repeat_cap:
                    continue
                q1 = occupation_probability(c, int(prior[c]), profile, quality)
                r = _reward(c1[user], q1, int(column[c]), b[m - 1],
                            quality.persistence, quality.p_fa)
                if r > best_r:
                    best_c, best_r, best_q1 = c, r, q1
            if best_c == 0:
                # nothing offers positive reward; leave the mini-slot idle
                continue
            sm[user - 1, m - 1] = best_c
            column[best_c] += 1
            c1[user] = _continue(c1[user], best_q1, quality)
            credited[user] += best_r
        prior += column
        column[:] = 0
        order = sorted(range(1, n_su + 1), key=lambda u: (credited[u], u))
    return sm
