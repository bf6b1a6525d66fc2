"""An independent reference for the outputs the benchmark checks.

Nothing here imports sensemat.  The rate table, the exact evaluator, the
repetition-free candidate space, the exhaustive search, the error-free
greedy build and the detector curve are written again from the model's
definitions, in another form: the exact evaluator walks every primary
pattern and every candidate matrix at once with numpy, where the program
walks one pattern at a time.  So a fault anywhere in the program's search,
enumeration, builders, presets or CSV writing shows here, not only a
fault in its two kernels.

What has no reference here: the error-aware builders (msms, pmsms) and
the Monte Carlo draws with sensing errors.  Those outputs are held to
invariants and ranges here, and to the scalar-oracle rerun in
``worker.py``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from statistics import NormalDist

import numpy as np

#: the CLI defaults the workloads leave alone
SLOT_DURATION = 0.2
SENSING_TIME = 0.001
HANDOVER_TIME = 0.0001
RATE = 1.0
N_USERS = 3
ALLOCATOR = "sms"
N_SLOTS = 100
REPEAT_CAP = 3
SNR_DB = -15.0
SAMPLING_FREQ = 6e6
TARGET_P_D = 0.9

#: the presets' sweep grids, as the paper's figures draw them
FIG4_TAUS = tuple(0.0005 * k for k in range(1, 11))
FIG7_TAUS = tuple(0.0002 * k for k in range(1, 26))
FIG8_PERSISTENCE = tuple(0.05 * k for k in range(1, 21))
FIG8_USERS = 8

#: exact and search values may differ from the reference by this much
#: (relative, or absolute near 0): a step above the 9-digit output rounding
REL_BOUND = 2e-8
ABS_BOUND = 1e-9
#: candidates this close to the best value count as tied for the argmax,
#: which then goes to the lexicographically smallest matrix
TIE_BOUND = 1e-12
#: an error-free simulation may miss its exact mean by this many standard errors
SIM_Z = 6.0


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_BOUND, abs_tol=ABS_BOUND)


def rates(n_minislots: int, sensing_time: float = SENSING_TIME) -> np.ndarray:
    """Rate earned by a transmission that starts after the k-th sensed
    mini-slot: the share of the slot that the k sensing windows and k - 1
    retunes leave over."""
    k = np.arange(1, n_minislots + 1)
    used = sensing_time + (k - 1) * (sensing_time + HANDOVER_TIME)
    return RATE * (1.0 - used / SLOT_DURATION)


def primary_patterns(p0) -> tuple[np.ndarray, np.ndarray]:
    """Every busy/free pattern of the primaries (bit c of pattern p set =
    channel c + 1 busy) and its probability."""
    p0 = np.asarray(p0, dtype=float)
    busy = ((np.arange(2 ** p0.size)[:, None] >> np.arange(p0.size)) & 1).astype(bool)
    return busy, np.where(busy, 1.0 - p0, p0).prod(axis=1)


def clean_starts(matrices: np.ndarray, busy: np.ndarray) -> np.ndarray:
    """Number of users that start an uncontested transmission in each
    mini-slot, per matrix and pattern: shape (matrices, patterns, mini-slots).

    Error-free walk: in mini-slot m every still-searching user senses its
    entry; a channel free of its primary and of every earlier secondary
    transmission is claimed.  One claimant transmits; two or more collide
    and drop out.  Either way the channel is occupied from then on.
    """
    n_mat, n_su, n_m = matrices.shape
    n_pat = busy.shape[0]
    blocked = np.concatenate([np.ones((n_pat, 1), bool), busy], axis=1)  # channel 0 = idle
    searching = np.ones((n_mat, n_pat, n_su), bool)
    occupied = np.zeros((n_mat, n_pat, busy.shape[1] + 1), bool)
    mats, pats = np.arange(n_mat)[:, None], np.arange(n_pat)[None, :]
    starts = np.zeros((n_mat, n_pat, n_m))
    for m in range(n_m):
        chan = matrices[:, :, m]                                    # (matrices, users)
        free = ~blocked[:, chan].transpose(1, 0, 2)                 # (matrices, patterns, users)
        claim = searching & free & ~occupied[mats[:, :, None], pats[:, :, None], chan[:, None, :]]
        same = (chan[:, :, None] == chan[:, None, :]).astype(int)   # users on one channel
        rivals = np.einsum("apj,aij->api", claim.astype(int), same)
        starts[:, :, m] = (claim & (rivals == 1)).sum(axis=2)
        searching &= ~claim
        for i in range(n_su):
            occupied[mats, pats, chan[:, i:i + 1]] |= claim[:, :, i]
    return starts


def exact_moments(matrices, p0, b) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the error-free network throughput of one slot,
    per matrix."""
    busy, weight = primary_patterns(p0)
    value = clean_starts(np.asarray(matrices, dtype=np.int64), busy) @ b
    mean = value @ weight
    return mean, (value ** 2) @ weight - mean ** 2


def exact(sm, p0, b) -> float:
    return float(exact_moments(np.asarray(sm)[None], p0, b)[0][0])


def closed_form(sm, p0, b) -> float:
    """Optimistic per-column sum: a channel's first column earns its free
    probability times that column's rate, unless two users claim it there."""
    seen, total = set(), 0.0
    for j in range(sm.shape[1]):
        column = Counter(int(c) for c in sm[:, j] if c)
        total += b[j] * sum(p0[c - 1] for c, n in column.items() if n == 1 and c not in seen)
        seen.update(column)
    return total


def repetition_free_matrices(n_ch: int, n_su: int) -> np.ndarray:
    """Every matrix whose rows are pairwise-disjoint ordered channel
    subsets, each row packed to the left: give each channel an owner (or
    none), then order each owner's channels every way."""
    found = []
    for owner in itertools.product(range(n_su + 1), repeat=n_ch):
        rows = [[c + 1 for c in range(n_ch) if owner[c] == u] for u in range(1, n_su + 1)]
        for ordered in itertools.product(*(itertools.permutations(r) for r in rows)):
            sm = np.zeros((n_su, n_ch), dtype=np.int64)
            for i, row in enumerate(ordered):
                sm[i, :len(row)] = row
            found.append(sm)
    return np.array(found)


class Search:
    """Exhaustive search over the repetition-free space, for any rate table."""

    def __init__(self, p0, n_su: int):
        busy, self.weight = primary_patterns(p0)
        self.candidates = repetition_free_matrices(len(p0), n_su)
        self.starts = clean_starts(self.candidates, busy)

    def best(self, b) -> tuple[np.ndarray, float]:
        values = (self.starts @ b) @ self.weight
        top = values.max()
        tied = np.flatnonzero(values >= top - TIE_BOUND * abs(top))
        flat = self.candidates[tied].reshape(len(tied), -1)
        first = tied[np.lexsort(flat.T[::-1])[0]]
        return self.candidates[first], float(top)


def sms_matrix(p0, b, n_su: int, slot: int) -> np.ndarray:
    """Error-free greedy build: column by column each user takes the free
    channel with the best reward; the first user of column 1 rotates with
    the slot, later columns go to the users with least reward first."""
    n_ch = len(p0)
    sm = np.zeros((n_su, n_ch), dtype=np.int64)
    left = list(range(1, n_ch + 1))
    searching, earned = [1.0] * n_su, [0.0] * n_su
    order = [((slot - 1) + k) % n_su for k in range(n_su)]
    for m in range(n_ch):
        for u in order:
            if not left:
                return sm
            c = max(left, key=lambda c: (p0[c - 1], -c))
            left.remove(c)
            sm[u, m] = c
            earned[u] += searching[u] * p0[c - 1] * b[m]
            searching[u] *= 1.0 - p0[c - 1]
        order = sorted(range(n_su), key=lambda u: (earned[u], u))
    return sm


def false_alarm(sensing_time: float) -> float:
    """Energy detector held at TARGET_P_D: Q(sqrt(2 snr + 1) Q^-1(p_d) + sqrt(tau fs) snr)."""
    snr = 10.0 ** (SNR_DB / 10.0)
    q_inv = NormalDist().inv_cdf(1.0 - TARGET_P_D)
    arg = math.sqrt(2.0 * snr + 1.0) * q_inv + math.sqrt(sensing_time * SAMPLING_FREQ) * snr
    return min(1.0, max(0.0, 0.5 * math.erfc(arg / math.sqrt(2.0))))


def sim_problem(got: float, variants, p0, b, n_slots: int) -> str | None:
    """Whether an error-free simulation that cycles through ``variants``
    lands within SIM_Z standard errors of its exact mean."""
    mean, var = exact_moments(variants, p0, b)
    share = np.bincount(np.arange(n_slots) % len(variants), minlength=len(variants))
    want = float(share @ mean) / n_slots
    se = math.sqrt(float(share @ var)) / n_slots
    if abs(got - want) <= SIM_Z * se + ABS_BOUND:
        return None
    return f"{got!r} is more than {SIM_Z:g} standard errors ({se:.3g}) from the exact mean {want!r}"


# ---------------------------------------------------------------------------
# per-operation expectations


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.strip("[]").split(",")]


def _table(csv: str) -> list[dict]:
    lines = [line for line in csv.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _grid_problem(rows, column, grid) -> str | None:
    got = [float(r[column]) for r in rows]
    if len(got) != len(grid) or not all(close(g, w) for g, w in zip(got, grid)):
        return f"{column} grid {got} is not {list(grid)}"
    return None


class Expected:
    """What the reference expects of one CLI operation: the kernels it
    must reach, and a check of its stdout and CSV."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.p0 = _floats(_flag(argv, "--p0"))
        self.n_su = int(_flag(argv, "--n-su", N_USERS))
        self.n_slots = int(_flag(argv, "--n-slots", N_SLOTS))
        self.seed = int(_flag(argv, "--seed", 0))
        self.preset = _flag(argv, "--preset") if argv[0] == "sweep" else None
        if argv[0] == "analyze":
            self.kernels = ("exact",)
        elif self.preset == "fig4":
            self.kernels = ("exact", "slots")
            self.search = Search(self.p0, self.n_su)
            self.argmax = [self.search.best(rates(len(self.p0), tau))[0] for tau in FIG4_TAUS]
        elif self.preset in ("fig7", "fig8"):
            self.kernels = ("slots",)
        else:
            raise ValueError(f"no reference for {argv}")

    def problem(self, stdout: str, csv: str | None, fixed: list | None = None) -> str | None:
        """Why the outputs are wrong, or None.  ``fixed`` are the matrices of
        the fixed-matrix simulations the operation ran, when known."""
        try:
            if self.argv[0] == "analyze":
                return self._analyze(stdout)
            if csv is None:
                return "no csv written"
            rows = _table(csv)
            for r in rows:
                if int(r["n_slots"]) != self.n_slots or int(r["seed"]) != self.seed:
                    return f"row {r} does not carry n_slots={self.n_slots} seed={self.seed}"
            return getattr(self, "_" + self.preset)(rows, fixed)
        except (KeyError, ValueError, IndexError) as exc:
            return f"output does not parse: {exc!r}"

    def _analyze(self, stdout: str) -> str | None:
        lines = stdout.splitlines()
        n_ch = len(self.p0)
        sm = np.array([[int(c) for c in line.split()] for line in lines[:self.n_su]])
        values = dict(line.split("=", 1) for line in lines[self.n_su:])
        b = rates(n_ch)
        allocator = _flag(self.argv, "--allocator", ALLOCATOR)
        if sm.shape != (self.n_su, n_ch) or sm.min() < 0 or sm.max() > n_ch:
            return f"matrix {sm.tolist()} is not a {self.n_su}x{n_ch} matrix of channels"
        if allocator == "sms":
            want = sms_matrix(self.p0, b, self.n_su, slot=1)
            if not np.array_equal(sm, want):
                return f"sms matrix {sm.tolist()}, reference {want.tolist()}"
        elif max(Counter(sm[sm > 0].tolist()).values()) > REPEAT_CAP:
            return f"matrix {sm.tolist()} repeats a channel more than {REPEAT_CAP} times"
        for name, want in (("closed_form", closed_form(sm, self.p0, b)),
                           ("exact", exact(sm, self.p0, b))):
            if not close(float(values[name]), want):
                return f"{name}={values[name]}, reference {want!r}"
        return None

    def _fig4(self, rows, fixed) -> str | None:
        problem = _grid_problem(rows, "sensing_time", FIG4_TAUS)
        if problem:
            return problem
        n_ch = len(self.p0)
        for tau, argmax, r in zip(FIG4_TAUS, self.argmax, rows):
            b = rates(n_ch, tau)
            sms = [sms_matrix(self.p0, b, self.n_su, slot) for slot in range(1, self.n_su + 1)]
            sms_exact = sum(exact(sm, self.p0, b) for sm in sms) / self.n_su
            opt = exact(argmax, self.p0, b)
            gap = (opt - sms_exact) / opt
            for name, want in (("sms_exact", sms_exact), ("optimal_exact", opt),
                               ("optimality_gap", gap)):
                if not close(float(r[name]), want):
                    return f"tau={tau:g} {name}={r[name]}, reference {want!r}"
            for name, variants in (("sms_sim", sms), ("optimal_sim", [argmax])):
                problem = sim_problem(float(r[name]), variants, self.p0, b, self.n_slots)
                if problem:
                    return f"tau={tau:g} {name} {problem}"
        if fixed is not None:
            got = sorted(map(str, fixed))
            want = sorted(str(sm.tolist()) for sm in self.argmax)
            if got != want:
                return f"the searches returned {got}, the reference argmax is {want}"
        return None

    def _fig7(self, rows, fixed) -> str | None:
        problem = _grid_problem(rows, "sensing_time", FIG7_TAUS)
        if problem:
            return problem
        n_ch = len(self.p0)
        for tau, r in zip(FIG7_TAUS, rows):
            b = rates(n_ch, tau)
            if not close(float(r["p_fa_mapped"]), false_alarm(tau)):
                return f"tau={tau:g} p_fa_mapped={r['p_fa_mapped']}, reference {false_alarm(tau)!r}"
            sms = [sms_matrix(self.p0, b, self.n_su, slot) for slot in range(1, self.n_su + 1)]
            problem = sim_problem(float(r["sms_sim"]), sms, self.p0, b, self.n_slots)
            if problem:
                return f"tau={tau:g} sms_sim {problem}"
            for name in ("msms_sim", "pmsms_sim"):
                if not 0.0 <= float(r[name]) <= self.n_su * b[0]:
                    return f"tau={tau:g} {name}={r[name]} is outside [0, {self.n_su * b[0]!r}]"
        return None

    def _fig8(self, rows, fixed) -> str | None:
        problem = _grid_problem(rows, "persistence", FIG8_PERSISTENCE)
        if problem:
            return problem
        top = FIG8_USERS * rates(len(self.p0))[0]
        baseline = rows[0]["msms_baseline"]
        for r in rows:
            pmsms, base = float(r["pmsms_sim"]), float(r["msms_baseline"])
            if r["msms_baseline"] != baseline:
                return f"msms_baseline changes from {baseline} to {r['msms_baseline']}"
            if not 0.0 < base <= top or not 0.0 <= pmsms <= top:
                return f"persistence={r['persistence']} throughput outside (0, {top!r}]"
            if not close(float(r["gain_ratio"]), pmsms / base):
                return f"gain_ratio={r['gain_ratio']} is not {pmsms!r} / {base!r}"
        # at persistence 1 the pmsms build is the msms build and draws the same
        if rows[-1]["pmsms_sim"] != baseline:
            return f"pmsms_sim at persistence 1 is {rows[-1]['pmsms_sim']}, msms_baseline {baseline}"
        return None
