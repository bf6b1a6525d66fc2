"""Seeded inputs for the benchmark workloads.

A workload is the list of CLI operations (argv lists) that make up one
pass, plus the work those operations ask for, counted from the input
alone.  The seed generates only the inputs: a ``p0`` profile on
[0.1, 0.9] and the simulator ``--seed``.  Every workload is a closed
loop with one caller: each operation starts when the previous one
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("search", "montecarlo", "crowded", "exact-wide")

#: fig4 runs one exhaustive search and one sms rotation per point of its
#: 10-point sensing-time grid, plus an sms and an optimal simulation
FIG4_POINTS = 10
#: fig7 simulates sms, msms and pmsms at each of its 25 sensing times
FIG7_SIMULATIONS = 25 * 3
#: fig8 simulates one msms baseline and pmsms at 20 persistence values
FIG8_SIMULATIONS = 21

SEARCH_USERS = 2
#: one past the simulator's 4,096-slot RNG chunk, so every run draws two chunks
MONTECARLO_SLOTS = 4200
CROWDED_SWEEPS = 30
CROWDED_SLOTS = 100           # the fig8 default
WIDE_CHANNELS = 14
WIDE_USERS = 4
WIDE_ALLOCATORS = (("sms",), ("msms",), ("pmsms", "--persistence", "0.8"))


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, ...], ...]   # argv of each operation of one pass
    work: dict                         # unit -> amount one pass asks for
    unit: str                          # the unit ``work_per_s`` counts


def draw_profile(rng: np.random.Generator, n_channels: int) -> str:
    """A ``--p0`` list on [0.1, 0.9], stratified so that the profile's mean,
    and with it the amount of walking the program does, varies little from
    seed to seed.  Each channel's value is still uniform on the range."""
    strata = (np.arange(n_channels) + rng.random(n_channels)) / n_channels
    p0 = 0.1 + 0.8 * rng.permutation(strata)
    return "[" + ", ".join(f"{v:.6f}" for v in p0) + "]"


def make_workload(name: str, seed: int) -> Workload:
    """Generate the named workload's operations from ``seed``."""
    from sensemat.throughput import count_repetition_free

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    sim_seed = int(rng.integers(0, 2**31))

    if name == "search":
        p0 = draw_profile(rng, 5)
        ops = [("sweep", "--preset", "fig4", "--n-su", str(SEARCH_USERS),
                "--p0", p0, "--seed", str(sim_seed))]
        searched = count_repetition_free(5, SEARCH_USERS) * FIG4_POINTS
        scored = searched + SEARCH_USERS * FIG4_POINTS
        work = {"candidates": searched, "patterns": 2**5 * scored,
                "slots": CROWDED_SLOTS * 2 * FIG4_POINTS}
        unit = "candidates"
    elif name == "montecarlo":
        p0 = draw_profile(rng, 5)
        ops = [("sweep", "--preset", "fig7", "--n-slots", str(MONTECARLO_SLOTS),
                "--p0", p0, "--seed", str(sim_seed))]
        work = {"slots": MONTECARLO_SLOTS * FIG7_SIMULATIONS}
        unit = "slots"
    elif name == "crowded":
        p0 = draw_profile(rng, 5)
        ops = [("sweep", "--preset", "fig8", "--p0", p0, "--seed", str(sim_seed + k))
               for k in range(CROWDED_SWEEPS)]
        work = {"slots": CROWDED_SLOTS * FIG8_SIMULATIONS * CROWDED_SWEEPS}
        unit = "slots"
    else:
        p0 = draw_profile(rng, WIDE_CHANNELS)
        ops = [("analyze", "--p0", p0, "--n-su", str(WIDE_USERS), "--allocator", *alloc)
               for alloc in WIDE_ALLOCATORS]
        work = {"patterns": 2**WIDE_CHANNELS * len(ops)}
        unit = "patterns"
    return Workload(name=name, ops=tuple(ops), work=work, unit=unit)
