"""sensemat benchmark: one workload per fresh single-threaded process.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Workloads: search, montecarlo, crowded, exact-wide (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  Every run checks the program's
outputs against a rerun on the scalar oracle kernels and against an
independent reference (``reference.py``), and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record with the environment and, when traced, every span
is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
              "work_per_s": "1/s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report and return the metrics object."""
    from speed import NUMPY_PROBE
    env = result["env"]
    print(f"perfbench {result['workload']} seed={env['seed']} trace={int(trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes={result['passes']} ops_per_pass={result['ops_per_pass']} "
          f"work_per_pass=" + ",".join(f"{v} {k}" for k, v in result["work"].items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"ops_failed={failed}/{attempted} = {failed / attempted:.4g}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if trace:
        metrics = result["layers"]
        wall = metrics["trace.wall_s"]["value"]
        for name, m in metrics.items():
            share = f"  {100 * m['value'] / wall:5.1f} % of traced wall" if m["unit"] == "s" else ""
            print(f"{name:34s} {m['value']:.6g} {m['unit']}{share}")
        print(f"self times cover {100 * result['self_s_total'] / wall:.2f} % of the traced wall")
        if result["missing_boundaries"]:
            print("boundaries not found: " + ", ".join(result["missing_boundaries"]))
        return metrics
    metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"times are seconds at the reference speed: {result['probes']} speed probes "
          f"averaged {1e3 * result['probe_s_mean']:.4g} ms against {1e3 * NUMPY_PROBE[1]:.4g} ms")
    print(f"op_s_tail is p{result['tail_percentile']:.4g} of {result['ops_per_pass']} "
          f"operations per pass, median of {result['passes']} passes")
    print(f"work_per_s counts {result['unit']}; by unit: "
          + ", ".join(f"{k}={v:.6g}" for k, v in result["rates"].items()))
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sensemat" / "__init__.py").is_file():
        print(f"error: no sensemat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = worker_env()
    try:
        setup = [] if args.trace else [run_worker(["--setup-probe"], env, deadline)["setup_s"]
                                       for _ in range(SETUP_PROBES)]
        result = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["env"]["commit"] = git_commit()
    if setup:
        result["setup_s"] = statistics.median(setup)
        result["setup_samples"] = setup
    metrics = report(result, bool(args.trace))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
