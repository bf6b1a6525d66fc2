"""Monte-Carlo slot simulator.

Each slot draws fresh i.i.d. primary states, then walks every user
through its sensing sequence mini-slot by mini-slot:

* a still-searching user with a nonzero entry senses with probability
  ``quality.persistence`` (skipping still consumes the mini-slot);
* a truly occupied channel (primary present, or a user transmitting on it
  since an earlier mini-slot) reads busy with probability ``p_d``; a free
  one reads busy with probability ``p_fa``;
* a user that reads "free" transmits for the rest of the slot at the rate
  of that mini-slot; if several users start on the same channel in the
  same mini-slot, or someone joins an already transmitting user, all of
  them lose the slot and stop;
* transmitting over a busy primary earns nothing and is counted as an
  interference event.

Energy: ``e_sense`` per actual sensing, ``e_ho`` per retune between a
user's consecutive attended mini-slots.

Reports are deterministic: the same ``SimConfig`` (including the seed)
always produces the same ``SimReport``, bit for bit, whether the slots run
through the vectorized kernel or its scalar oracle.  Randomness is
pre-drawn positionally per (slot, user, mini-slot), so skipped draws do
not shift anyone else's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .allocators import build_msms_matrix, build_pmsms_matrix, build_sms_matrix
from .energy import EnergyConfig
from .model import (
    ChannelProfile,
    SensingQuality,
    TimingConfig,
    as_matrix,
    check_feasible,
    check_matrix,
    rate_table,
)

_CHUNK_SLOTS = 4096          # fixed so the draw order never depends on n_slots

ALLOCATORS = ("sms", "msms", "pmsms")


@dataclass(frozen=True)
class SimConfig:
    profile: ChannelProfile
    timing: TimingConfig = TimingConfig()
    quality: SensingQuality = SensingQuality()
    energy: EnergyConfig = EnergyConfig()
    n_su: int = 3
    n_slots: int = 100
    seed: int = 0
    allocator: str = "sms"
    rebuild_per_slot: bool = True
    repeat_cap: int = 3
    matrix: object = None         # fixed matrix (array-like) overrides allocator

    def __post_init__(self):
        if self.n_su < 1:
            raise ValueError("n_su must be >= 1")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.repeat_cap < 1:
            raise ValueError("repeat_cap must be >= 1")
        if self.matrix is None and self.allocator not in ALLOCATORS:
            raise ValueError(f"allocator must be one of {ALLOCATORS}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SuOutcome:
    """What one user did in one slot."""

    channel: int          # channel transmitted on, -1 if none
    minislot: int         # mini-slot the transmission started in, -1 if none
    throughput: float
    collided: bool
    interfered: bool
    sensings: int
    handovers: int


@dataclass(frozen=True)
class SimReport:
    n_slots: int
    seed: int
    per_su_throughput: np.ndarray
    network_throughput: float
    network_throughput_se: float
    su_collisions: int
    pu_interference_events: int
    sensing_energy_mean: float
    sensing_energy_se: float
    handover_energy_mean: float
    fairness_spread: float
    fairness_degenerate: bool
    per_su_sensing_mean: np.ndarray = field(repr=False, default=None)


def fairness_metrics(per_su_throughput) -> float:
    """Relative spread (max - min) / max of the per-user means; an
    all-zero vector is reported as perfectly fair (0.0)."""
    values = np.asarray(per_su_throughput, dtype=np.float64)
    if values.size < 2:
        raise ValueError("fairness needs at least two users")
    top = float(values.max())
    if top <= 0.0:
        return 0.0
    return float((top - values.min()) / top)


def build_variant_matrices(cfg: SimConfig) -> np.ndarray:
    """Matrices the simulation cycles through: one per rotation offset when
    ``rebuild_per_slot`` is on, else the slot-1 matrix alone."""
    if cfg.matrix is not None:
        sm = as_matrix(np.asarray(cfg.matrix))
        if sm.shape != (cfg.n_su, cfg.profile.n_channels):
            raise ValueError(
                f"fixed matrix shape {sm.shape} does not match "
                f"(n_su={cfg.n_su}, n_channels={cfg.profile.n_channels})"
            )
        check_matrix(sm, cfg.profile)
        return sm[np.newaxis, :, :]
    slots = range(1, cfg.n_su + 1) if cfg.rebuild_per_slot else (1,)
    mats = []
    for slot in slots:
        if cfg.allocator == "sms":
            sm = build_sms_matrix(cfg.profile, cfg.timing, cfg.n_su, slot=slot)
        elif cfg.allocator == "msms":
            sm = build_msms_matrix(
                cfg.profile, cfg.timing, cfg.quality, cfg.n_su,
                slot=slot, repeat_cap=cfg.repeat_cap,
            )
        else:
            sm = build_pmsms_matrix(
                cfg.profile, cfg.timing, cfg.quality, cfg.n_su,
                slot=slot, repeat_cap=cfg.repeat_cap,
            )
        mats.append(sm)
    return np.stack(mats)


def simulate_slot(sm, pu_state, quality: SensingQuality, timing: TimingConfig, rng) -> list[SuOutcome]:
    """Walk a single slot with the given primary busy/free states; draws
    the persistence and sensing randomness from ``rng``."""
    sm = as_matrix(sm)
    n_su, n_ch = sm.shape
    pu_busy = np.asarray(pu_state, dtype=bool)
    if pu_busy.shape != (n_ch,):
        raise ValueError(f"pu_state must have one entry per channel ({n_ch})")
    check_feasible(timing, n_ch)
    b = rate_table(timing, n_ch)

    # pu states are given: a fake all-or-nothing profile makes the kernel's
    # threshold test reproduce them exactly whatever the uniforms are
    pu_u = np.zeros((1, n_ch))
    p0 = np.where(pu_busy, 0.0, 1.0)
    check_matrix(sm, ChannelProfile(p0))
    persist_u = rng.random((1, n_su, n_ch))
    sense_u = rng.random((1, n_su, n_ch))

    out = _allocate_outputs(1, n_su)
    _kernels.simulate_slots(
        sm[np.newaxis, :, :], np.zeros(1, dtype=np.int64), p0,
        quality.p_fa, quality.p_d, quality.persistence, b,
        pu_u, persist_u, sense_u, *out,
    )
    tp, sens, ho, coll, intf, chan, mslot, _events = out
    return [
        SuOutcome(
            channel=int(chan[0, i]),
            minislot=int(mslot[0, i]) + 1 if mslot[0, i] >= 0 else -1,
            throughput=float(tp[0, i]),
            collided=bool(coll[0, i]),
            interfered=bool(intf[0, i]),
            sensings=int(sens[0, i]),
            handovers=int(ho[0, i]),
        )
        for i in range(n_su)
    ]


def _allocate_outputs(n_slots: int, n_su: int):
    return (
        np.zeros((n_slots, n_su)),                    # throughput
        np.zeros((n_slots, n_su), dtype=np.int64),    # sensings
        np.zeros((n_slots, n_su), dtype=np.int64),    # handovers
        np.zeros((n_slots, n_su), dtype=np.int64),    # collided
        np.zeros((n_slots, n_su), dtype=np.int64),    # interfered
        np.full((n_slots, n_su), -1, dtype=np.int64), # channel
        np.full((n_slots, n_su), -1, dtype=np.int64), # minislot
        np.zeros(n_slots, dtype=np.int64),            # collision events
    )


def run_simulation(cfg: SimConfig) -> SimReport:
    n_ch = cfg.profile.n_channels
    check_feasible(cfg.timing, n_ch)
    b = rate_table(cfg.timing, n_ch)
    matrices = build_variant_matrices(cfg)
    n_variants = matrices.shape[0]
    variant_idx = (np.arange(cfg.n_slots, dtype=np.int64)) % n_variants

    out = _allocate_outputs(cfg.n_slots, cfg.n_su)
    tp, sens, ho, coll, intf, chan, mslot, events = out

    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.n_slots, _CHUNK_SLOTS):
        stop = min(start + _CHUNK_SLOTS, cfg.n_slots)
        n = stop - start
        pu_u = rng.random((n, n_ch))
        persist_u = rng.random((n, cfg.n_su, n_ch))
        sense_u = rng.random((n, cfg.n_su, n_ch))
        _kernels.simulate_slots(
            matrices, variant_idx[start:stop], cfg.profile.p0,
            cfg.quality.p_fa, cfg.quality.p_d, cfg.quality.persistence, b,
            pu_u, persist_u, sense_u,
            tp[start:stop], sens[start:stop], ho[start:stop],
            coll[start:stop], intf[start:stop],
            chan[start:stop], mslot[start:stop], events[start:stop],
        )

    per_su = tp.mean(axis=0)
    net_per_slot = tp.sum(axis=1)
    sense_energy_per_slot = sens.sum(axis=1) * cfg.energy.e_sense
    ho_energy_per_slot = ho.sum(axis=1) * cfg.energy.e_ho
    n = cfg.n_slots

    def _se(x):
        return float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    if cfg.n_su >= 2:
        spread = fairness_metrics(per_su)
        degenerate = bool(per_su.max() <= 0.0)
    else:
        spread, degenerate = 0.0, False

    return SimReport(
        n_slots=n,
        seed=cfg.seed,
        per_su_throughput=per_su,
        network_throughput=float(per_su.sum()),
        network_throughput_se=_se(net_per_slot),
        su_collisions=int(events.sum()),
        pu_interference_events=int(intf.sum()),
        sensing_energy_mean=float(sense_energy_per_slot.mean()),
        sensing_energy_se=_se(sense_energy_per_slot.astype(np.float64)),
        handover_energy_mean=float(ho_energy_per_slot.mean()),
        fairness_spread=spread,
        fairness_degenerate=degenerate,
        per_su_sensing_mean=sens.mean(axis=0),
    )
