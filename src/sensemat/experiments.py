"""Sweep presets and the CSV helpers (``emit_csv``, ``read_csv``).

Each preset regenerates one of the headline result curves, and all of them
run through one loop: each sweep point is an ``ExperimentConfig.replace`` of
the run's config, so every point is coerced and validated like a flag.

* ``fig4``  error-free greedy vs the exhaustive (repetition-free by default)
            optimum across sensing times
* ``fig5``  per-user throughput and fairness across sensing times
* ``fig6``  search-energy comparison across a homogeneous free probability
* ``fig7``  greedy variants across sensing times with the detector-mapped
            false-alarm probability (pmsms at persistence 0.8 unless
            the config sets one below 1)
* ``fig8``  persistence sweep for a crowded network (8 users, 5 channels)
* ``custom`` one int or float config key over the given values

CSV files are UTF-8: one ``#`` metadata line (tool version, seed, config
digest, preset notes), then the column names, then the rows sorted by the
sweep variable with floats at 9 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .allocators import build_sms_matrix
from .config import SCHEMA, ConfigError, ExperimentConfig
from .energy import (
    full_sequence_sensing_energy,
    homogeneous_energy_closed_form,
    expected_handovers,
    sms_energy_bounds,
)
from .model import ERROR_FREE, SensingQuality, false_alarm_for_sensing_time
from .simulate import run_simulation
from .throughput import SearchBudgetError, expected_throughput_exact, optimal_matrix_search

PRESETS = ("fig4", "fig5", "fig6", "fig7", "fig8", "custom")

_TAU_GRID = tuple(round(0.0005 * k, 7) for k in range(1, 11))       # 0.5 .. 5.0 ms
_TAU_GRID_DETECTOR = tuple(round(0.0002 * k, 7) for k in range(1, 26))  # 0.2 .. 5.0 ms
_P_GRID = tuple(round(0.1 * k, 10) for k in range(1, 10))           # 0.1 .. 0.9
_PERSISTENCE_GRID = tuple(round(0.05 * k, 10) for k in range(1, 21))  # 0.05 .. 1.0


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def emit_csv(path: str, columns, rows, meta: dict) -> None:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[dict, list[str], list[list]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing metadata line")
    meta = {}
    for token in lines[0][1:].split():
        key, _, value = token.partition("=")
        meta[key] = value
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        row = []
        for token in line.split(","):
            try:
                row.append(float(token) if ("." in token or "e" in token or "inf" in token) else int(token))
            except ValueError:
                row.append(token)
        rows.append(row)
    return meta, columns, rows


@dataclass(frozen=True)
class SweepResult:
    preset: str
    columns: list[str]
    rows: list[list]
    meta: dict


def _rotation_mean_exact(cfg: ExperimentConfig) -> float:
    """Analytic throughput of sms averaged over the rotation cycle of matrices."""
    profile, timing, n_su = cfg.profile, cfg.timing, cfg["n_su"]
    values = [
        expected_throughput_exact(
            build_sms_matrix(profile, timing, n_su, slot=slot), profile, timing)
        for slot in range(1, n_su + 1)
    ]
    return float(np.mean(values))


# Each preset returns (columns, notes, points, measure).  A point is the
# config changes of one sweep step; ``measure`` maps the changed config to
# the row's swept value and that point's values.  ``run_experiment_sweep``
# appends the changed config's n_slots and seed to each row.

def _fig4(cfg: ExperimentConfig, allow_repeats: bool):
    notes: dict = {"quality": "error-free"}
    columns = ["sensing_time", "sms_exact", "optimal_exact", "optimality_gap",
               "sms_sim", "optimal_sim"]

    def measure(swept):
        sms_exact = _rotation_mean_exact(swept)
        args = (swept.profile, swept.timing, swept["n_su"])
        try:
            opt_sm, opt_value = optimal_matrix_search(
                *args, objective="exact", repetition_free=not allow_repeats)
        except SearchBudgetError as exc:
            notes["note"] = f"search-budget-exceeded({exc.space_size});repetition-free-fallback"
            opt_sm, opt_value = optimal_matrix_search(*args, objective="exact")
        sms_sim = run_simulation(swept.sim_config(quality=ERROR_FREE, allocator="sms"))
        opt_sim = run_simulation(swept.sim_config(
            quality=ERROR_FREE, matrix=opt_sm, rebuild_per_slot=False))
        gap = (opt_value - sms_exact) / opt_value if opt_value > 0 else 0.0
        return [swept["sensing_time"], sms_exact, opt_value, gap,
                sms_sim.network_throughput, opt_sim.network_throughput]

    return columns, notes, [{"sensing_time": tau} for tau in _TAU_GRID], measure


def _fig5(cfg: ExperimentConfig):
    notes = {"quality": "error-free", "allocator": "sms"}
    columns = ["sensing_time", *[f"su{i}_throughput" for i in range(1, cfg["n_su"] + 1)],
               "fairness_spread"]

    def measure(swept):
        rep = run_simulation(swept.sim_config(quality=ERROR_FREE, allocator="sms"))
        return [swept["sensing_time"], *[float(v) for v in rep.per_su_throughput],
                rep.fairness_spread]

    return columns, notes, [{"sensing_time": tau} for tau in _TAU_GRID], measure


def _fig6(cfg: ExperimentConfig):
    notes = {"quality": "error-free",
             "optimal_model": "full-length-sequence-per-user"}
    n_ch = len(cfg["p0"])
    n_su = cfg["n_su"]
    e_sense = cfg["e_sense"]
    columns = ["p_free", "sms_energy_sim", "sms_energy_se",
               "optimal_energy_exact", "optimal_energy_closed_form",
               "optimal_energy_retune_form", "sms_bound_low", "sms_bound_high"]
    low, high = sms_energy_bounds(n_ch, n_su, e_sense)

    def measure(swept):
        p = swept["p0"][0]
        rep = run_simulation(swept.sim_config(quality=ERROR_FREE, allocator="sms"))
        exact = full_sequence_sensing_energy(p, n_ch, n_su, e_sense)
        closed = homogeneous_energy_closed_form(p, n_ch, n_su, e_sense)
        g_full = expected_handovers(range(1, n_ch + 1), swept.profile)
        retune = (n_su + n_su * g_full) * e_sense
        return [p, rep.sensing_energy_mean, rep.sensing_energy_se,
                exact, closed, retune, low, high]

    return columns, notes, [{"p0": (p,) * n_ch} for p in _P_GRID], measure


def _fig7(cfg: ExperimentConfig):
    persistence = cfg["persistence"] if cfg["persistence"] < 1.0 else 0.8
    notes = {"pmsms_persistence": format_value(persistence),
             "detector": f"snr_db={format_value(cfg['snr_db'])}"}
    columns = ["sensing_time", "p_fa_mapped", "sms_sim", "msms_sim", "pmsms_sim"]

    def measure(swept):
        tau = swept["sensing_time"]
        p_d = swept["target_p_d"]
        p_fa = false_alarm_for_sensing_time(tau, swept["sampling_freq"], swept.snr_linear, p_d)
        if p_fa > p_d:
            raise ConfigError(
                f"mapped p_fa {p_fa:.3g} exceeds target_p_d at sensing_time {tau:g}; "
                "start the sweep at a longer sensing_time"
            )
        sims = [
            run_simulation(swept.sim_config(quality=quality, allocator=allocator))
            for allocator, quality in (
                ("sms", ERROR_FREE),
                ("msms", SensingQuality(p_fa=p_fa, p_d=p_d, persistence=1.0)),
                ("pmsms", SensingQuality(p_fa=p_fa, p_d=p_d, persistence=persistence)),
            )
        ]
        return [tau, p_fa, *[rep.network_throughput for rep in sims]]

    return columns, notes, [{"sensing_time": tau} for tau in _TAU_GRID_DETECTOR], measure


def _fig8(cfg: ExperimentConfig):
    n_su = 8
    notes = {"n_su_forced": str(n_su)}
    columns = ["persistence", "pmsms_sim", "msms_baseline", "gain_ratio"]
    baseline = run_simulation(
        cfg.replace(n_su=n_su, persistence=1.0).sim_config(allocator="msms"))
    base_value = baseline.network_throughput

    def measure(swept):
        rep = run_simulation(swept.sim_config(allocator="pmsms"))
        ratio = rep.network_throughput / base_value if base_value > 0 else float("inf")
        return [swept["persistence"], rep.network_throughput, base_value, ratio]

    points = [{"n_su": n_su, "persistence": p} for p in _PERSISTENCE_GRID]
    return columns, notes, points, measure


def _custom(cfg: ExperimentConfig, var: str, values):
    if var is None or values is None:
        raise ConfigError("custom sweeps need --var and --values")
    if var in SCHEMA and SCHEMA[var][0] not in ("int", "float"):
        raise ConfigError(f"{var} cannot be swept: custom sweeps take int or float keys")
    notes = {"var": var}
    columns = [var, "network_throughput", "fairness_spread", "sensing_energy_mean"]

    def measure(swept):
        rep = run_simulation(swept.sim_config())
        return [swept[var], rep.network_throughput, rep.fairness_spread,
                rep.sensing_energy_mean]

    return columns, notes, [{var: value} for value in values], measure


def run_experiment_sweep(
    preset: str,
    cfg: ExperimentConfig,
    out_path: str | None = None,
    allow_repeats: bool = False,
    var: str | None = None,
    values=None,
) -> SweepResult:
    plans = {
        "fig4": lambda: _fig4(cfg, allow_repeats),
        "fig5": lambda: _fig5(cfg),
        "fig6": lambda: _fig6(cfg),
        "fig7": lambda: _fig7(cfg),
        "fig8": lambda: _fig8(cfg),
        "custom": lambda: _custom(cfg, var, values),
    }
    if preset not in plans:
        raise ConfigError(f"unknown preset {preset!r}; choose from {PRESETS}")
    columns, notes, points, measure = plans[preset]()
    rows = []
    for changes in points:
        swept = cfg.replace(**changes)
        rows.append([*measure(swept), swept["n_slots"], swept["seed"]])
    rows.sort(key=lambda r: r[0])
    columns = [*columns, "n_slots", "seed"]
    meta = {"tool": "sensemat", "version": __version__, "preset": preset,
            "seed": cfg["seed"], "config": cfg.digest(), **notes}
    if out_path is not None:
        emit_csv(out_path, columns, rows, meta)
    return SweepResult(preset=preset, columns=columns, rows=rows, meta=meta)
