"""Sweep presets and CSV emission.

Each preset regenerates one of the headline result curves:

* ``fig4``  error-free greedy vs the exhaustive (repetition-free by default)
            optimum across sensing times
* ``fig5``  per-user throughput and fairness across sensing times
* ``fig6``  search-energy comparison across a homogeneous free probability
* ``fig7``  greedy variants across sensing times with the detector-mapped
            false-alarm probability (pmsms at persistence 0.8 unless
            the config sets one below 1)
* ``fig8``  persistence sweep for a crowded network (8 users, 5 channels)

CSV files are UTF-8: one ``#`` metadata line (tool version, seed, config
digest, preset notes), then the column names, then the rows sorted by the
sweep variable with floats at 9 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .allocators import build_msms_matrix, build_pmsms_matrix, build_sms_matrix
from .config import SCHEMA, ConfigError, ExperimentConfig
from .energy import (
    full_sequence_sensing_energy,
    homogeneous_energy_closed_form,
    expected_handovers,
    sms_energy_bounds,
)
from .model import ERROR_FREE, ChannelProfile, SensingQuality, false_alarm_for_sensing_time
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


def _base_meta(preset: str, cfg: ExperimentConfig, notes: dict) -> dict:
    meta = {
        "tool": "sensemat",
        "version": __version__,
        "preset": preset,
        "seed": cfg["seed"],
        "config": cfg.digest(),
    }
    meta.update(notes)
    return meta


def _rotation_mean_exact(builder, cfg: ExperimentConfig, timing, quality=None):
    """Analytic throughput averaged over the rotation cycle of matrices."""
    n_su = cfg["n_su"]
    values = []
    for slot in range(1, n_su + 1):
        if quality is None:
            sm = builder(cfg.profile, timing, n_su, slot=slot)
        else:
            sm = builder(cfg.profile, timing, quality, n_su, slot=slot, repeat_cap=cfg["repeat_cap"])
        values.append(expected_throughput_exact(sm, cfg.profile, timing))
    return float(np.mean(values))


def _search_with_fallback(cfg, timing, allow_repeats, notes):
    try:
        return optimal_matrix_search(
            cfg.profile, timing, cfg["n_su"],
            objective="exact", repetition_free=not allow_repeats,
        )
    except SearchBudgetError as exc:
        notes["note"] = f"search-budget-exceeded({exc.space_size});repetition-free-fallback"
        return optimal_matrix_search(
            cfg.profile, timing, cfg["n_su"], objective="exact", repetition_free=True
        )


def _fig4(cfg: ExperimentConfig, allow_repeats: bool):
    notes: dict = {"quality": "error-free"}
    columns = ["sensing_time", "sms_exact", "optimal_exact", "optimality_gap",
               "sms_sim", "optimal_sim", "n_slots", "seed"]
    rows = []
    for tau in _TAU_GRID:
        timing = cfg.replace(sensing_time=tau).timing
        sms_exact = _rotation_mean_exact(build_sms_matrix, cfg, timing)
        opt_sm, opt_value = _search_with_fallback(cfg, timing, allow_repeats, notes)
        sms_sim = run_simulation(cfg.sim_config(
            timing=timing, quality=ERROR_FREE, allocator="sms"))
        opt_sim = run_simulation(cfg.sim_config(
            timing=timing, quality=ERROR_FREE, matrix=opt_sm, rebuild_per_slot=False))
        gap = (opt_value - sms_exact) / opt_value if opt_value > 0 else 0.0
        rows.append([tau, sms_exact, opt_value, gap,
                     sms_sim.network_throughput, opt_sim.network_throughput,
                     cfg["n_slots"], cfg["seed"]])
    return columns, rows, notes


def _fig5(cfg: ExperimentConfig):
    notes = {"quality": "error-free", "allocator": "sms"}
    n_su = cfg["n_su"]
    columns = ["sensing_time"] + [f"su{i}_throughput" for i in range(1, n_su + 1)] + \
              ["fairness_spread", "n_slots", "seed"]
    rows = []
    for tau in _TAU_GRID:
        timing = cfg.replace(sensing_time=tau).timing
        rep = run_simulation(cfg.sim_config(timing=timing, quality=ERROR_FREE, allocator="sms"))
        rows.append([tau, *[float(v) for v in rep.per_su_throughput],
                     rep.fairness_spread, cfg["n_slots"], cfg["seed"]])
    return columns, rows, notes


def _fig6(cfg: ExperimentConfig):
    notes = {"quality": "error-free",
             "optimal_model": "full-length-sequence-per-user"}
    n_ch = len(cfg["p0"])
    n_su = cfg["n_su"]
    e_sense = cfg["e_sense"]
    columns = ["p_free", "sms_energy_sim", "sms_energy_se",
               "optimal_energy_exact", "optimal_energy_closed_form",
               "optimal_energy_retune_form", "sms_bound_low", "sms_bound_high",
               "n_slots", "seed"]
    low, high = sms_energy_bounds(n_ch, n_su, e_sense)
    rows = []
    for p in _P_GRID:
        profile = ChannelProfile(p0=[p] * n_ch)
        rep = run_simulation(cfg.sim_config(
            profile=profile, quality=ERROR_FREE, allocator="sms"))
        exact = full_sequence_sensing_energy(p, n_ch, n_su, e_sense)
        closed = homogeneous_energy_closed_form(p, n_ch, n_su, e_sense)
        g_full = expected_handovers(range(1, n_ch + 1), profile)
        retune = (n_su + n_su * g_full) * e_sense
        rows.append([p, rep.sensing_energy_mean, rep.sensing_energy_se,
                     exact, closed, retune, low, high, cfg["n_slots"], cfg["seed"]])
    return columns, rows, notes


def _fig7(cfg: ExperimentConfig):
    persistence = cfg["persistence"] if cfg["persistence"] < 1.0 else 0.8
    notes = {"pmsms_persistence": format_value(persistence),
             "detector": f"snr_db={format_value(cfg['snr_db'])}"}
    columns = ["sensing_time", "p_fa_mapped", "sms_sim", "msms_sim", "pmsms_sim",
               "n_slots", "seed"]
    rows = []
    for tau in _TAU_GRID_DETECTOR:
        timing = cfg.replace(sensing_time=tau).timing
        p_fa = false_alarm_for_sensing_time(
            tau, cfg["sampling_freq"], cfg.snr_linear, cfg["target_p_d"])
        if p_fa > cfg["target_p_d"]:
            raise ConfigError(
                f"mapped p_fa {p_fa:.3g} exceeds target_p_d at sensing_time {tau:g}; "
                "start the sweep at a longer sensing_time"
            )
        noisy = SensingQuality(p_fa=p_fa, p_d=cfg["target_p_d"], persistence=1.0)
        pmac = SensingQuality(p_fa=p_fa, p_d=cfg["target_p_d"], persistence=persistence)
        sms = run_simulation(cfg.sim_config(timing=timing, quality=ERROR_FREE, allocator="sms"))
        msms = run_simulation(cfg.sim_config(timing=timing, quality=noisy, allocator="msms"))
        pmsms = run_simulation(cfg.sim_config(timing=timing, quality=pmac, allocator="pmsms"))
        rows.append([tau, p_fa, sms.network_throughput, msms.network_throughput,
                     pmsms.network_throughput, cfg["n_slots"], cfg["seed"]])
    return columns, rows, notes


def _fig8(cfg: ExperimentConfig):
    n_su = 8
    notes = {"n_su_forced": str(n_su)}
    columns = ["persistence", "pmsms_sim", "msms_baseline", "gain_ratio",
               "n_slots", "seed"]
    base_quality = SensingQuality(p_fa=cfg["p_fa"], p_d=cfg["p_d"], persistence=1.0)
    baseline = run_simulation(cfg.sim_config(
        n_su=n_su, quality=base_quality, allocator="msms"))
    base_value = baseline.network_throughput
    rows = []
    for p in _PERSISTENCE_GRID:
        quality = SensingQuality(p_fa=cfg["p_fa"], p_d=cfg["p_d"], persistence=p)
        rep = run_simulation(cfg.sim_config(n_su=n_su, quality=quality, allocator="pmsms"))
        ratio = rep.network_throughput / base_value if base_value > 0 else float("inf")
        rows.append([p, rep.network_throughput, base_value, ratio,
                     cfg["n_slots"], cfg["seed"]])
    return columns, rows, notes


def _sweep_value(var: str, kind: str, value):
    """Coerce one custom-sweep value to the type its config key holds."""
    if kind == "float":
        return float(value)
    if float(value).is_integer():
        return int(value)
    raise ConfigError(f"{var} takes whole numbers, got {value!r}")


def _custom(cfg: ExperimentConfig, var: str, values):
    if var is None or values is None:
        raise ConfigError("custom sweeps need --var and --values")
    if var not in SCHEMA:
        raise ConfigError(f"unknown config key {var!r}")
    kind = SCHEMA[var][0]
    if kind not in ("int", "float"):
        raise ConfigError(f"{var} cannot be swept: custom sweeps take int or float keys")
    notes = {"var": var}
    columns = [var, "network_throughput", "fairness_spread",
               "sensing_energy_mean", "n_slots", "seed"]
    rows = []
    for value in values:
        value = _sweep_value(var, kind, value)
        swept = cfg.replace(**{var: value})
        swept.validate()
        rep = run_simulation(swept.sim_config())
        rows.append([value, rep.network_throughput, rep.fairness_spread,
                     rep.sensing_energy_mean, swept["n_slots"], swept["seed"]])
    return columns, rows, notes


def run_experiment_sweep(
    preset: str,
    cfg: ExperimentConfig,
    out_path: str | None = None,
    allow_repeats: bool = False,
    var: str | None = None,
    values=None,
) -> SweepResult:
    if preset == "fig4":
        columns, rows, notes = _fig4(cfg, allow_repeats)
    elif preset == "fig5":
        columns, rows, notes = _fig5(cfg)
    elif preset == "fig6":
        columns, rows, notes = _fig6(cfg)
    elif preset == "fig7":
        columns, rows, notes = _fig7(cfg)
    elif preset == "fig8":
        columns, rows, notes = _fig8(cfg)
    elif preset == "custom":
        columns, rows, notes = _custom(cfg, var, values)
    else:
        raise ConfigError(f"unknown preset {preset!r}; choose from {PRESETS}")
    rows = sorted(rows, key=lambda r: r[0])
    meta = _base_meta(preset, cfg, notes)
    if out_path is not None:
        emit_csv(out_path, columns, rows, meta)
    return SweepResult(preset=preset, columns=columns, rows=rows, meta=meta)
