"""One workload in one fresh process: drive ``sensemat.cli.main`` in a
closed loop, then check every output against a rerun on the scalar oracle
kernels and against the independent reference (``reference.py``).

Run by ``run.py``; the result is one JSON object on the last line of
stdout.  ``--setup-probe`` only times importing sensemat and building the
CLI parser.  Untraced timings are scaled to the reference speed
(``speed.py``); traced runs report raw times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from spans import ROOT_SPAN
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent

#: fields of exact and search values, which may differ from the oracle run
#: by ``reference.REL_BOUND``; every other field must match exactly
EXACT_FIELDS = frozenset({"exact", "sms_exact", "optimal_exact", "optimality_gap"})

#: a tail needs at least this many operations beyond it
TAIL_BEYOND = 10


def import_cli(speed: SpeedProbe | None = None):
    """Import the CLI from this checkout's ``src`` and build its parser;
    return the module and the seconds it took, scaled to the reference
    speed when ``speed`` is running."""
    mark = speed.mark() if speed else 0
    start = time.perf_counter()
    from sensemat import cli
    cli.build_parser()
    elapsed = time.perf_counter() - start
    if speed:
        elapsed = speed.reference_seconds(elapsed, mark)
    origin = Path(cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"sensemat was imported from {origin}, not from {ROOT / 'src'}")
    return cli, elapsed


@dataclass
class OpOutput:
    code: int
    stdout: str
    csv: str | None = None
    error: str | None = None
    kernel_calls: dict = field(default_factory=dict)   # oracle runs only
    fixed: list = field(default_factory=list)          # oracle runs only


class ScalarOracles:
    """Routes the program's kernel entry points to the scalar ``*_py``
    walks, counts the calls of each kernel, and keeps the matrix of every
    fixed-matrix simulation (a single variant): in fig4 those are the
    matrices the searches returned."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.fixed: list = []
        self._last = None

    @contextmanager
    def installed(self):
        from sensemat import _kernels
        saved = _kernels.simulate_slots, _kernels.exact_network_throughput

        def slots(matrices, *args):
            self.calls["slots"] += 1
            if matrices.shape[0] == 1 and matrices is not self._last:
                self.fixed.append(matrices[0].tolist())
            self._last = matrices        # later RNG chunks of one run pass it again
            return _kernels.simulate_slots_py(matrices, *args)

        def exact(*args):
            self.calls["exact"] += 1
            return _kernels.exact_network_throughput_py(*args)

        _kernels.simulate_slots, _kernels.exact_network_throughput = slots, exact
        try:
            yield self
        finally:
            _kernels.simulate_slots, _kernels.exact_network_throughput = saved

    def take(self) -> tuple[dict, list]:
        calls, fixed = dict(self.calls), self.fixed
        self.calls, self.fixed, self._last = Counter(), [], None
        return calls, fixed


def run_pass(cli, ops, out_dir, tracer=None, oracles=None, speed=None):
    """Run every operation once, in order.  Return the pass wall time, the
    time of each operation and the outputs.  Times are scaled to the
    reference speed when ``speed`` is running."""
    times, outputs = [], []
    pass_mark = speed.mark() if speed else 0
    start = time.perf_counter()
    for i, argv in enumerate(ops):
        argv = list(argv)
        if argv[0] == "sweep":
            argv += ["--out", os.path.join(out_dir, f"op{i}.csv")]
        buf = io.StringIO()
        mark = speed.mark() if speed else 0
        op_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), \
                    tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext():
                code = cli.main(argv)
            error = None
        except Exception:  # an operation that raises counts as failed
            code, error = -1, traceback.format_exc()
        op_s = time.perf_counter() - op_start
        times.append(speed.reference_seconds(op_s, mark) if speed else op_s)
        out = OpOutput(code=code, stdout=buf.getvalue().replace(out_dir, "<out>"), error=error)
        if oracles is not None:
            out.kernel_calls, out.fixed = oracles.take()
        outputs.append(out)
    wall = time.perf_counter() - start
    if speed:
        wall = speed.reference_seconds(wall, pass_mark)
    for i, out in enumerate(outputs):
        path = Path(out_dir, f"op{i}.csv")
        if path.exists():
            out.csv = path.read_text(encoding="utf-8")
            path.unlink()
    return wall, times, outputs


def _fields_match(name: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if name not in EXACT_FIELDS:
        return False
    import reference
    try:
        return reference.close(float(got), float(want))
    except ValueError:
        return False


def _lines_problem(got: str, want: str, what: str) -> str | None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{what}: {len(got_lines)} lines, oracle has {len(want_lines)}"
    columns = None
    for n, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g == w:
            if what == "csv" and n == 1:
                columns = g.split(",")
            continue
        if what == "csv" and columns is not None:
            g_fields, w_fields = g.split(","), w.split(",")
            if len(g_fields) == len(w_fields) == len(columns) and all(
                    _fields_match(c, a, b) for c, a, b in zip(columns, g_fields, w_fields)):
                continue
        elif what == "stdout" and "=" in g:
            key, _, g_value = g.partition("=")
            w_key, _, w_value = w.partition("=")
            if key == w_key and _fields_match(key, g_value, w_value):
                continue
        return f"{what} line {n + 1}: {g!r} vs oracle {w!r}"
    return None


def output_problem(got: OpOutput, want: OpOutput) -> str | None:
    """Why ``got`` does not match the oracle run's ``want``, or None."""
    if got.code != 0:
        return got.error or f"exit code {got.code}"
    if want.code != 0:
        return want.error or f"oracle exit code {want.code}"
    if (got.csv is None) != (want.csv is None):
        return "csv written by only one of program and oracle"
    return (_lines_problem(got.stdout, want.stdout, "stdout")
            or (got.csv is not None and _lines_problem(got.csv, want.csv, "csv"))
            or None)


def check_outputs(cli, ops, out_dir, outputs_by_pass):
    """Check every recorded output twice: against a rerun on the scalar
    oracle kernels, and against the independent reference.  Return
    (attempted, failed, problems)."""
    import reference   # imports numpy, so only after the setup timing
    oracles = ScalarOracles()
    with oracles.installed():
        _, _, expected = run_pass(cli, ops, out_dir, oracles=oracles)
    problems = []
    attempted = failed = 0
    for i, (argv, want) in enumerate(zip(ops, expected)):
        ref = reference.Expected(argv)
        unreached = [k for k in ref.kernels if not want.kernel_calls.get(k)]
        shared = (f"the {unreached[0]} kernel entry point was never called" if unreached
                  else want.code == 0 and ref.problem(want.stdout, want.csv, want.fixed))
        for outputs in outputs_by_pass:
            got = outputs[i]
            attempted += 1
            problem = (output_problem(got, want) or shared
                       or ref.problem(got.stdout, got.csv))
            if problem:
                failed += 1
                problems.append(f"op {i}: {problem}")
    return attempted, failed, problems


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    ``TAIL_BEYOND`` operations beyond it; the slowest operation when there
    are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from sensemat import _kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "backend": "numba" if getattr(_kernels, "USING_NUMBA", False) else "python",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, setup_s = import_cli()
    from spans import Tracer, layer_metrics
    from workloads import make_workload   # imports numpy, so only after the setup timing

    wl = make_workload(name, seed)
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    result = {"workload": name, "unit": wl.unit, "work": wl.work,
              "env": environment(seed), "setup_s": setup_s}
    with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
        walls, op_times, outputs_by_pass = [], [], []
        traced_walls, tracer = [], Tracer()
        speed = None if trace else SpeedProbe()
        start = time.perf_counter()
        with speed.running() if speed else contextlib.nullcontext():
            while not walls or time.perf_counter() - start < seconds:
                wall, times, outputs = run_pass(cli, wl.ops, out_dir, speed=speed)
                walls.append(wall)
                op_times.append(times)
                outputs_by_pass.append(outputs)
                if trace:
                    tracer.install()
                    try:
                        wall, _, outputs = run_pass(cli, wl.ops, out_dir, tracer)
                    finally:
                        tracer.uninstall()
                    traced_walls.append(wall)
                    outputs_by_pass.append(outputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = check_outputs(cli, wl.ops, out_dir, outputs_by_pass)

    wall_s = statistics.median(walls)
    tails = [tail(times) for times in op_times]
    result.update(
        attempted=attempted, failed=failed, problems=problems[:20],
        passes=len(walls), ops_per_pass=len(wl.ops),
        wall_s=wall_s,
        op_s_p50=statistics.median(t for times in op_times for t in times),
        op_s_tail=statistics.median(value for value, _ in tails),
        tail_percentile=tails[0][1],
        work_per_s=wl.work[wl.unit] / wall_s,
        rates={unit + "_per_s": amount / wall_s for unit, amount in wl.work.items()},
        peak_rss_mb=peak_rss_mb,
    )
    if speed:
        result.update(probes=len(speed.samples),
                      probe_s_mean=sum(speed.samples) / max(1, len(speed.samples)))
    if trace:
        traced_wall = statistics.median(traced_walls)
        layers = layer_metrics(tracer, len(traced_walls))
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - wall_s, "s")
        result.update(layers={k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                      self_s_total=sum(tracer.self_time.values()) / len(traced_walls),
                      missing_boundaries=tracer.missing,
                      spans=tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.setup_probe:
        speed = SpeedProbe(numpy=False)
        with speed.running():
            setup_s = import_cli(speed)[1]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
