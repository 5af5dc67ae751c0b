"""One benchmark worker: a fresh process that runs one workload once.

Usage (started by ``run.py``; the config is one JSON argument)::

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                                  "mode": "setup" | "run" | "trace", ...}'

It times its own set-up (importing mcred, generating and encoding the
inputs, one warm-up operation on an input outside the timed set), then, in
``run`` and ``trace`` mode, a closed loop over the inputs: each operation
starts when the previous one has returned.  Outputs are checked after the
timed phase.  The last line of stdout is one JSON object.

In ``setup`` and ``run`` mode every time is reported both raw and
calibrated to the reference speed (see ``calibrate.py``).  A ``trace``
worker reports raw times only: calibration ticks would land inside spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import calibrate


def main(cfg):
    t0 = time.perf_counter()
    cal = None
    if cfg["mode"] != "trace":
        cal = calibrate.Calibrator()
        cal.start()
    import workloads  # imports mcred

    wl = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], cfg["workdir"])
    count = workloads.op_count(wl, cfg["seconds"], cfg["limit"])
    if cfg["share"] > 1:  # a traced run measures the first part of the set
        count = max(min(count, 4), -(-count // cfg["share"]))
    if cfg.get("ops") is not None:  # the prefix run.py chose to trace
        count = min(count, cfg["ops"])
    inputs = wl.inputs(count)
    wl.run(wl.warmup_input())
    setup_end = time.perf_counter()
    if cfg["mode"] == "setup":
        cal.stop()
        raw, calibrated = cal.measure(t0, setup_end)
        return {"setup_s": calibrated, "setup_raw_s": raw}

    tracer = None
    if cfg["mode"] == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    outs = []
    spans = []
    clock = time.perf_counter
    start = clock()
    for i, inp in enumerate(inputs):
        t = clock()
        try:
            out = (tracer.op_span(i, wl.run, inp) if tracer is not None
                   else wl.run(inp))
            err = None
        except Exception as exc:  # an unexpected raise is a failed operation
            out, err = None, repr(exc)
        spans.append((t, clock()))
        outs.append((out, err))
    end = clock()
    if tracer is not None:
        tracer.uninstall()
        wall = wall_raw = end - start
        latencies = raw_latencies = [b - a for a, b in spans]
        result = {}
    else:
        cal.stop()
        raw, calibrated = cal.measure(t0, setup_end)
        result = {"setup_s": calibrated, "setup_raw_s": raw,
                  "speed": cal.speed(start, end)}
        wall_raw, wall = cal.measure(start, end)
        pairs = [cal.measure(a, b) for a, b in spans]
        raw_latencies = [p[0] for p in pairs]
        latencies = [p[1] for p in pairs]

    goldens = []
    if cfg.get("goldens_path"):
        text = Path(cfg["goldens_path"]).read_text()
        goldens = json.loads(text)["workloads"].get(cfg["workload"], [])
    failures, failed = [], set()
    totals = {}
    for i, (inp, (out, err)) in enumerate(zip(inputs, outs)):
        if err is not None:
            problems = [f"raised {err}"]
        else:
            record, problems, counts = wl.outcome(inp, out)
            record = json.loads(json.dumps(record))
            if i < len(goldens) and record != goldens[i]:
                problems.append(f"differs from golden {goldens[i]}: {record}")
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        if problems:
            failed.add(i)
            failures.extend(f"op {i}: {p}" for p in problems)

    result.update(
        wall_s=wall,
        wall_raw_s=wall_raw,
        latencies=latencies,
        raw_latencies=raw_latencies,
        attempted=len(inputs),
        failed=len(failed),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        top = sum(rec[2] - rec[1] for rec in tracer.spans if rec[3] is None)
        result["coverage"] = top / wall_raw
        result["layers"] = tracing.layer_metrics(tracer, totals)
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{cfg['workload']}-seed{cfg['seed']}.jsonl.gz")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
