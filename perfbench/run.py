"""mcred benchmark runner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reduce-replay --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
prints the per-layer metrics of a separate traced run, with the tracing
overhead against an untraced run of the same inputs.  Each worker is a
fresh, single-threaded process, started one after another.  Every metric is
printed by name with its unit; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation passed its correctness checks.  Times are calibrated
to a reference speed, so that host-speed drift does not move them; the raw
times are printed beside them (see calibrate.py and README.md).
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
WORKLOADS = ("reduce-replay", "derham-irregular", "cli-roundtrip")
DEFAULT_SEED = 1
CONFIRM_SEED = 2
GOLDENS = HERE / "goldens.json"
SETUP_RUNS = 3  # set-ups per run; setup_s is their median
TRACE_SHARE = 3  # a traced run measures the first third of the input set
TRACE_SLOWDOWN = 2.0  # assumed worst traced / untraced time (1.5 measured)
TRACE_MARGIN_S = 10.0  # time kept for the traced worker's set-up
DEADLINE_S = 175.0

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "error_rate": "ratio"}
# in the JSON line on every workload, bounded in BENCHMARK.json; op_p90_ms
# and error_rate are printed above it (see README.md for why)
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


def layer_unit(name):
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.startswith("serialize.bytes"):
        return "B"
    if name in ("cohomology.window_yield", "trace.overhead_ratio",
                "trace.coverage"):
        return "ratio"
    return "count"


class WorkerFailed(Exception):
    pass


def run_worker(root, cfg, deadline):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{cfg['mode']} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{cfg['mode']} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


def traced_ops(latencies, deadline):
    """How many of the untraced run's operations the traced worker repeats:
    the longest prefix that should still end before the deadline, and at
    least one.  A rare slow input (a window doubled to [-24, 24)) can take
    a minute untraced; tracing it after that would overrun."""
    budget = (deadline - time.monotonic() - TRACE_MARGIN_S) / TRACE_SLOWDOWN
    total, ops = 0.0, 0
    for lat in latencies:
        total += lat
        if total > budget:
            break
        ops += 1
    return max(ops, 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed; confirm claims on {CONFIRM_SEED} too")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="sizes the fixed input set (see README.md)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int,
                   help="cap the number of operations (self-test)")
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "mcred" / "__init__.py").is_file():
        print("perfbench: run from the root of an mcred checkout "
              "(src/mcred not found)", file=sys.stderr)
        return 2

    base = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "limit": args.limit, "share": TRACE_SHARE if args.trace else 1,
        "workdir": str(root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"),
        "out_dir": str(root / ".perfbench_out"),
        "goldens_path": str(GOLDENS) if args.seed == DEFAULT_SEED else None,
    }
    try:
        if args.trace:
            untraced = run_worker(root, {**base, "mode": "run"}, deadline)
            ops = traced_ops(untraced["raw_latencies"], deadline)
            main_run = run_worker(root, {**base, "mode": "trace", "ops": ops},
                                  deadline)
            runs = [untraced, main_run]
            setups = []
        else:
            setups = [run_worker(root, {**base, "mode": "setup"}, deadline)
                      for _ in range(SETUP_RUNS - 1)]
            main_run = run_worker(root, {**base, "mode": "run"}, deadline)
            runs = [main_run]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        _clean(Path(base["workdir"]))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"FAIL {args.workload} seed {args.seed}: {line}", file=sys.stderr)

    if args.trace:
        metrics = dict(main_run["layers"])
        untraced_wall = sum(untraced["raw_latencies"][:ops])
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.traced_wall_s"] = main_run["wall_s"]
        metrics["trace.overhead_ratio"] = main_run["wall_s"] / untraced_wall
        metrics["trace.coverage"] = main_run["coverage"]
        if not 0.95 <= main_run["coverage"] <= 1.0 + 1e-9:
            print(f"perfbench: top-level spans cover {main_run['coverage']:.3f} "
                  f"of the traced timed phase", file=sys.stderr)
            failed += 1
        units = {name: layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    else:
        setups.append(main_run)
        lat_ms = [t * 1000 for t in main_run["latencies"]]
        raw_ms = [t * 1000 for t in main_run["raw_latencies"]]
        shown = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups),
                        statistics.median(s["setup_raw_s"] for s in setups)),
            "wall_s": (main_run["wall_s"], main_run["wall_raw_s"]),
            "op_p50_ms": (statistics.median(lat_ms), statistics.median(raw_ms)),
            "op_p90_ms": (percentile(lat_ms, 90), percentile(raw_ms, 90)),
            "peak_rss_mb": (main_run["peak_rss_mb"], None),
            "error_rate": (failed / attempted, None),
        }
        if args.workload != "cli-roundtrip":
            del shown["op_p90_ms"]  # fewer than ten samples beyond p90
        for name, (value, raw) in shown.items():
            extra = "" if raw is None else f", raw {raw:.6g} {UNITS[name]}"
            print(f"{args.workload} {name} = {value:.6g} {UNITS[name]} "
                  f"(n_ops={attempted}{extra})")
        print(f"{args.workload} host_speed = {main_run['speed']:.4g} "
              f"x reference (timed phase)")
        shown = {name: value for name, (value, _) in shown.items()}
        metrics = {name: shown[name] for name in END_TO_END}
        units = UNITS

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _clean(workdir):
    if workdir.is_dir():
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


if __name__ == "__main__":
    sys.exit(main())
