"""Core domain types and slot-timing arithmetic.

A slot of length ``slot_duration`` is divided into sensing mini-slots of
``sensing_time`` seconds separated by ``handover_time`` retuning gaps.  A
user that starts transmitting after its k-th sensed mini-slot keeps the
channel for the remainder of the slot, so the fraction of the slot left
for data shrinks linearly with k.  Channels are indexed 1..Np in matrices;
entry 0 means "idle this mini-slot".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class ChannelProfile:
    """Per-channel probability of the primary holder being absent."""

    p0: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p0, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("p0 must be a non-empty 1-D sequence")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("p0 entries must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "p0", arr)

    @property
    def n_channels(self) -> int:
        return int(self.p0.size)

    @property
    def p1(self) -> np.ndarray:
        """Probability of the primary holder being present, per channel."""
        return 1.0 - self.p0


@dataclass(frozen=True)
class TimingConfig:
    """Slot/mini-slot timing and the nominal data rate."""

    slot_duration: float = 0.2
    sensing_time: float = 0.001
    handover_time: float = 0.0001
    rate: float = 1.0

    def __post_init__(self):
        for name in ("slot_duration", "sensing_time", "handover_time", "rate"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.slot_duration <= 0.0:
            raise ValueError("slot_duration must be positive")
        if self.sensing_time <= 0.0:
            raise ValueError("sensing_time must be positive")
        if self.handover_time < 0.0:
            raise ValueError("handover_time must be non-negative")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class SensingQuality:
    """Detector operating point plus the transmission-persistence knob.

    ``persistence`` is the probability that a still-searching user actually
    senses in a given mini-slot (1.0 recovers the always-sense MAC).
    """

    p_fa: float = 0.0
    p_d: float = 1.0
    persistence: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p_fa <= 1.0:
            raise ValueError("p_fa must lie in [0, 1]")
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError("p_d must lie in [0, 1]")
        if self.p_d < self.p_fa:
            raise ValueError("p_d must be >= p_fa (detector above chance)")
        if not 0.0 <= self.persistence <= 1.0:
            raise ValueError("persistence must lie in [0, 1]")

    @property
    def error_free(self) -> bool:
        return self.p_fa == 0.0 and self.p_d == 1.0


ERROR_FREE = SensingQuality(p_fa=0.0, p_d=1.0, persistence=1.0)


def overhead(k: int, timing: TimingConfig) -> float:
    """Elapsed time before data can start in the k-th mini-slot."""
    return timing.sensing_time + (k - 1) * (timing.sensing_time + timing.handover_time)


def slot_effectiveness(k: int, timing: TimingConfig) -> float:
    """Fraction of the slot left for data when transmission starts after
    the k-th sensed mini-slot.

    Raises ValueError when the sensing overhead would not fit in the slot.
    """
    if k < 1:
        raise ValueError("mini-slot index k must be >= 1")
    used = overhead(k, timing)
    if used >= timing.slot_duration:
        raise ValueError(
            f"sensing overhead for mini-slot {k} ({used:g} s) does not fit in "
            f"the slot ({timing.slot_duration:g} s)"
        )
    return 1.0 - used / timing.slot_duration


def per_slot_rate(k: int, timing: TimingConfig) -> float:
    """Normalized throughput earned by transmitting from mini-slot k on."""
    return timing.rate * slot_effectiveness(k, timing)


def rate_table(timing: TimingConfig, n_minislots: int) -> np.ndarray:
    """Vector of per-slot rates for mini-slots 1..n_minislots."""
    return np.array([per_slot_rate(k, timing) for k in range(1, n_minislots + 1)])


def check_feasible(timing: TimingConfig, n_channels: int) -> None:
    """Require that even the last mini-slot leaves room for data."""
    slot_effectiveness(n_channels, timing)


def false_alarm_for_sensing_time(
    sensing_time: float,
    sampling_freq: float,
    snr: float,
    target_p_d: float,
) -> float:
    """False-alarm probability of an energy detector held at a fixed
    detection probability while the sensing window varies.

    ``snr`` is the received primary-signal SNR as a linear ratio.  The value
    is clamped to [0, 1] and is non-increasing in ``sensing_time``.
    """
    if sensing_time <= 0.0:
        raise ValueError("sensing_time must be positive")
    if sampling_freq <= 0.0:
        raise ValueError("sampling_freq must be positive")
    if snr <= 0.0:
        raise ValueError("snr must be positive")
    if not 0.0 < target_p_d < 1.0:
        raise ValueError("target_p_d must lie in (0, 1)")
    # Q^{-1}(p_d) = -Phi^{-1}(p_d), which keeps its precision as p_d -> 0 where
    # 1 - p_d would round to 1; the tail itself via the complementary error function
    q_inv_pd = -NormalDist().inv_cdf(target_p_d)
    arg = math.sqrt(2.0 * snr + 1.0) * q_inv_pd + math.sqrt(sensing_time * sampling_freq) * snr
    value = 0.5 * math.erfc(arg / math.sqrt(2.0))
    return min(1.0, max(0.0, value))


def as_matrix(rows) -> np.ndarray:
    """Coerce nested sequences into the canonical int64 matrix layout."""
    sm = np.asarray(rows, dtype=np.int64)
    if sm.ndim == 1:
        sm = sm.reshape(1, -1)
    if sm.ndim != 2:
        raise ValueError("a sensing matrix must be 2-D (users x mini-slots)")
    return sm


def validate_matrix(sm, profile: ChannelProfile, repeat_cap: int | None = None) -> list[str]:
    """Collect structural violations of a sensing matrix; empty list = ok."""
    problems: list[str] = []
    arr = np.asarray(sm)
    if arr.ndim != 2:
        return [f"matrix must be 2-D, got {arr.ndim}-D"]
    n_ch = profile.n_channels
    if arr.shape[1] != n_ch:
        problems.append(f"row length {arr.shape[1]} does not match channel count {n_ch}")
    if not np.issubdtype(arr.dtype, np.integer):
        problems.append(f"entries must be integers, got dtype {arr.dtype}")
        return problems
    bad = (arr < 0) | (arr > n_ch)
    for i, j in zip(*np.nonzero(bad)):
        problems.append(f"entry [{i},{j}]={arr[i, j]} outside 0..{n_ch}")
    if repeat_cap is not None:
        for c in range(1, n_ch + 1):
            n = int(np.count_nonzero(arr == c))
            if n > repeat_cap:
                problems.append(f"channel {c} assigned {n} times, cap is {repeat_cap}")
    return problems


def check_matrix(sm, profile: ChannelProfile) -> None:
    """Raise ValueError naming every problem ``validate_matrix`` finds."""
    problems = validate_matrix(sm, profile)
    if problems:
        raise ValueError("; ".join(problems))
