"""Command-line entry point.

Subcommands: ``allocate`` (print a matrix), ``analyze`` (closed-form and
exact throughput), ``optimal`` (exhaustive search), ``simulate`` (Monte
Carlo report), ``sweep`` (preset experiment runs emitting CSV).  Every
config key is also a flag; flags override the ``--config`` file.  Errors
exit nonzero after printing a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .config import SCHEMA, ConfigError, parse_config
from .experiments import PRESETS, run_experiment_sweep
from .model import as_matrix, validate_matrix
from .simulate import build_variant_matrices, run_simulation
from .throughput import (
    SearchBudgetError,
    expected_throughput_exact,
    network_throughput_closed_form,
    optimal_matrix_search,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    for key, (kind, default, help_text) in SCHEMA.items():
        flag = "--" + key.replace("_", "-")
        if kind == "bool":
            parser.add_argument(flag, dest=key, metavar="BOOL",
                                help=f"{help_text} (default {str(default).lower()})")
        elif kind == "floats":
            rendered = "[" + ", ".join(str(v) for v in default) + "]"
            parser.add_argument(flag, dest=key, metavar="LIST",
                                help=f"{help_text} (default {rendered})")
        else:
            parser.add_argument(flag, dest=key, metavar=kind.upper(),
                                help=f"{help_text} (default {default})")


def _config_from(args) -> "ExperimentConfig":
    overrides = {key: getattr(args, key) for key in SCHEMA if getattr(args, key, None) is not None}
    return parse_config(args.config, overrides)


def _print_matrix(sm) -> None:
    for row in np.asarray(sm):
        print(" ".join(str(int(c)) for c in row))


def _parse_matrix_arg(text: str, profile):
    rows = [
        [int(tok) for tok in row.replace(",", " ").split()]
        for row in text.split(";")
    ]
    sm = as_matrix(rows)
    problems = validate_matrix(sm, profile)
    if problems:
        raise ValueError("bad --matrix: " + "; ".join(problems))
    return sm


def _slot_matrix(cfg, slot: int):
    """The allocator's matrix for ``slot`` of its rotation cycle."""
    if slot < 1:
        raise ValueError(f"--slot must be >= 1, got {slot}")
    matrices = build_variant_matrices(cfg.sim_config())
    return matrices[(slot - 1) % matrices.shape[0]]


def _cmd_allocate(args) -> int:
    _print_matrix(_slot_matrix(_config_from(args), args.slot))
    return 0


def _cmd_analyze(args) -> int:
    cfg = _config_from(args)
    if args.matrix is not None:
        sm = _parse_matrix_arg(args.matrix, cfg.profile)
    else:
        sm = _slot_matrix(cfg, args.slot)
    report = network_throughput_closed_form(sm, cfg.profile, cfg.timing)
    exact = expected_throughput_exact(sm, cfg.profile, cfg.timing)
    _print_matrix(sm)
    print(f"closed_form={report.total:.9g}")
    print(f"exact={exact:.9g}")
    return 0


def _cmd_optimal(args) -> int:
    cfg = _config_from(args)
    kwargs = {}
    if args.budget is not None:
        kwargs["budget"] = args.budget
    sm, value = optimal_matrix_search(
        cfg.profile, cfg.timing, cfg["n_su"],
        objective=args.objective,
        repetition_free=not args.allow_repeats,
        **kwargs,
    )
    _print_matrix(sm)
    print(f"objective={args.objective}")
    print(f"value={value:.9g}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _config_from(args)
    sim = cfg.sim_config()
    if args.matrix is not None:
        sim = cfg.sim_config(matrix=_parse_matrix_arg(args.matrix, cfg.profile),
                             rebuild_per_slot=False)
    report = run_simulation(sim)
    print(f"n_slots={report.n_slots}")
    print(f"seed={report.seed}")
    per_su = " ".join(f"{v:.9g}" for v in report.per_su_throughput)
    print(f"per_su_throughput={per_su}")
    print(f"network_throughput={report.network_throughput:.9g}")
    print(f"network_throughput_se={report.network_throughput_se:.9g}")
    print(f"su_collisions={report.su_collisions}")
    print(f"pu_interference_events={report.pu_interference_events}")
    print(f"sensing_energy_mean={report.sensing_energy_mean:.9g}")
    print(f"handover_energy_mean={report.handover_energy_mean:.9g}")
    print(f"fairness_spread={report.fairness_spread:.9g}")
    print(f"fairness_degenerate={str(report.fairness_degenerate).lower()}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    values = None
    if args.values is not None:
        values = [float(tok) for tok in args.values.strip("[]").split(",")]
    out = args.out if args.out is not None else f"{args.preset}.csv"
    result = run_experiment_sweep(
        args.preset, cfg, out_path=out,
        allow_repeats=args.allow_repeats, var=args.var, values=values,
    )
    print(f"wrote {out} ({len(result.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensemat",
        description="sensing-matrix construction and evaluation for slotted "
                    "multi-user spectrum access",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="build and print a sensing matrix")
    _add_config_flags(p)
    p.add_argument("--slot", type=int, default=1, help="slot index for the rotation (default 1)")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("analyze", help="closed-form and exact throughput of a matrix")
    _add_config_flags(p)
    p.add_argument("--slot", type=int, default=1)
    p.add_argument("--matrix", help="explicit matrix, rows ';'-separated: '1 2; 3 0'")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimal", help="exhaustive search for the best matrix")
    _add_config_flags(p)
    p.add_argument("--objective", choices=("exact", "closed-form"), default="exact")
    p.add_argument("--allow-repeats", action="store_true",
                   help="search all cell assignments instead of disjoint rows")
    p.add_argument("--budget", type=int, help="candidate evaluation budget")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("simulate", help="run the Monte-Carlo simulator")
    _add_config_flags(p)
    p.add_argument("--matrix", help="simulate this fixed matrix instead of the allocator's")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a preset experiment sweep and emit CSV")
    _add_config_flags(p)
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--out", help="output CSV path (default <preset>.csv)")
    p.add_argument("--allow-repeats", action="store_true",
                   help="ask the exhaustive baseline for the unrestricted search")
    p.add_argument("--var", help="config key to sweep (custom preset)")
    p.add_argument("--values", help="comma list of values (custom preset)")
    p.set_defaults(func=_cmd_sweep)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: a build costs milliseconds and leaves
    # cyclic garbage behind, which adds up over many in-process calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SearchBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
