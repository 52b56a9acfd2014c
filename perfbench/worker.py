"""One workload in one fresh process; started by run.py, not by hand.

    worker.py --workload NAME --seed N --out-dir DIR --setup-only
    worker.py --workload NAME --seed N --out-dir DIR --seconds S --trace 0|1

It imports the package, builds the workload's inputs and prints
``READY <time.monotonic()>``; with ``--setup-only`` it stops there, which is
how run.py times set-up.
Otherwise it runs one untimed warm-up op, then a closed loop (one op at a
time) for ``--seconds``, checking every op outside its timed interval, and
prints ``RESULT <json>`` as its last line.  With ``--trace 1`` every second op
runs traced, and the gap between the traced and untraced medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_op(workload, i: int, span) -> dict:
    """Run op ``i`` (timed), then check it (untimed); ``span`` opens a span."""
    workload.before_op(i)
    record = {"op": i, "op_s": 0.0, "ok": False, "reason": "", "counts": {}, "info": {}}
    t0 = time.perf_counter()
    try:
        with span("bench.op"):
            output = workload.op(i)
    except Exception:  # a failed op is counted, never retried
        record["op_s"] = time.perf_counter() - t0
        record["reason"] = "op raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        return record
    record["op_s"] = time.perf_counter() - t0
    try:
        with span("bench.check"):
            checked = workload.check(output)
    except Exception:
        record["reason"] = "check raised: " + traceback.format_exc(
            limit=3).strip().splitlines()[-1]
        return record
    record.update(ok=checked.ok, reason=checked.reason, counts=checked.counts,
                  info=checked.info)
    return record


def run_loop(workload, seconds: float, first_op: int, tracer=None) -> list[dict]:
    """Closed loop of ops for ``seconds``; returns one record per op.

    With a tracer, odd-numbered ops run traced and even ones untraced, so the
    two kinds interleave and drift in machine speed cancels out of the
    tracing overhead.
    """
    records = []
    i = first_op
    min_ops = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
            try:
                record = run_op(workload, i, tracer.span)
            finally:
                tracer.restore()
        else:
            record = run_op(workload, i, lambda name: nullcontext())
        record["traced"] = traced
        if not record["ok"]:
            print(f"op {i} failed: {record['reason']}", file=sys.stderr)
        records.append(record)
        i += 1
    return records


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    out_dir = Path(args.out_dir)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    warm = run_loop(workload, 0.0, first_op=-1)
    if not warm[0]["ok"]:
        print(f"warm-up op failed: {warm[0]['reason']}", file=sys.stderr)
    result = {"env": environment(), "steps_per_op": workload.steps_per_op}
    if not args.trace:
        result["ops"] = run_loop(workload, args.seconds, first_op=0)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        ops = run_loop(workload, args.seconds, first_op=0, tracer=tracer)
        traced = [r for r in ops if r["traced"]]
        layers, repeats = layer_metrics(tracer, [r for r in traced if r["ok"]],
                                        workload.steps_per_op)
        layers["trace.overhead_frac"] = (
            statistics.median(r["op_s"] for r in traced)
            / statistics.median(r["op_s"] for r in ops if not r["traced"]) - 1.0)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"spans": tracer.spans,
                                          "self_s": tracer.self_times()}))
        result.update(ops=ops, repeats=repeats, spans_file=str(spans_file), layers=layers)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
