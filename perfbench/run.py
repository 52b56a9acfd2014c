"""qadvdiff benchmark launcher.

    python3 perfbench/run.py --workload poiseuille-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the repository root.  For one workload it times set-up in several
fresh interpreters, runs the workload's closed loop in one more, prints a
readable report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  ``--workload all``
runs every workload in turn and prints each report.  See README.md.
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
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("poiseuille-sweep", "couette-run", "demo-n5")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# A run of one workload must end within 180 s, whatever hangs.
RUN_LIMIT_S = 170.0



def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def worker_cmd(workload: str, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out-dir", str(OUT_DIR)]


def time_setup(workload: str, seed: int, env: dict, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports READY.

    The child stamps READY with ``time.monotonic()``, a system-wide clock on
    Linux, so interpreter shutdown is not counted.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(worker_cmd(workload, seed) + ["--setup-only"],
                              stdout=subprocess.PIPE, env=env, text=True,
                              timeout=deadline - time.monotonic())
        word, _, stamp = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != "READY":
            raise RuntimeError(f"set-up of {workload} failed")
        samples.append(float(stamp) - t0)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
               deadline: float) -> dict:
    cmd = worker_cmd(workload, seed) + ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=deadline - time.monotonic())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it, and its
    percentile.  With ten or fewer samples it is the maximum (percentile 100)."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def upper_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def unrepeated(ops: list[dict], extra: dict) -> list[str]:
    """Names of program counts whose value differs between passing ops."""
    series: dict[str, list] = {name: list(v) for name, v in extra.items()}
    for op in ops:
        if op["ok"]:
            for name, value in op["counts"].items():
                series.setdefault(name, []).append(value)
    return sorted(name for name, values in series.items() if len(set(values)) > 1)


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach BENCHMARK.json's units; the metric names must match it exactly."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    deadline = time.monotonic() + RUN_LIMIT_S
    # set-up time is an end-to-end metric, so traced runs skip the probes
    setup = [] if trace else time_setup(workload, seed, env, deadline)
    result = run_worker(workload, seed, seconds, trace, env, deadline)
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    bad_counts = unrepeated(ops, result.get("repeats", {}))
    env_block = dict(result["env"], nproc=nproc, cpu=cpu_model(), seed=seed,
                     thread_caps={var: env[var] for var in THREAD_VARS})
    op_s = [op["op_s"] for op in ops]
    tail_s, tail_pct = tail(op_s)
    # Not gated: on a shared host the median and the mean fall between its fast
    # and slow states and swing with the share of each in a run (see README.md).
    reported = {
        "op_s.p50": {"value": statistics.median(op_s), "unit": "s"},
        "steps_per_s": {"value": result["steps_per_op"] * len(op_s) / sum(op_s),
                        "unit": "1/s"},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_block, "attempted": len(ops), "failed": failed,
        "fail_frac": failed / len(ops), "unrepeated_counts": bad_counts,
        "op_count": len(op_s), "tail_percentile": tail_pct, "op_s": op_s,
        "setup_samples_s": setup, "reported": {} if trace else reported,
        "failures": [f"op {op['op']}: {op['reason']}" for op in ops if not op["ok"]],
    }
    if trace:
        report["metrics"] = with_units(result["layers"], spec["per_layer"])
        report["spans_file"] = result["spans_file"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p75": upper_quartile(op_s),
            "op_s.tail": tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        report["metrics"] = with_units(values, spec["end_to_end"])
    report["correct"] = failed == 0 and not bad_counts
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print("env " + json.dumps(report["env"]))
    for name, metric in report["metrics"].items():
        note = ""
        if name == "op_s.tail":
            beyond = round(report["op_count"] * (1 - report["tail_percentile"] / 100))
            note = (f"  (p{report['tail_percentile']:.1f} of {report['op_count']} ops, "
                    f"{beyond} beyond)")
        elif name == "op_s.p75":
            note = f"  ({report['op_count']} ops)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    for name, metric in report["reported"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}  (reported, not gated)")
    print(f"  {'fail_frac':34s} {report['fail_frac']:.6g}  "
          f"({report['failed']} of {report['attempted']} ops)")
    print(f"  {'counts repeat exactly':34s} "
          f"{'yes' if not report['unrepeated_counts'] else report['unrepeated_counts']}")
    for line in report["failures"][:10]:
        print(f"  FAILED {line}")
    if report["trace"]:
        print(f"  spans written to {report['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qadvdiff" / "__init__.py").is_file():
        print(f"error: no qadvdiff sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(report)
        out_file = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(report, indent=1) + "\n")
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in reports for name, m in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in reports),
               "attempted": sum(r["attempted"] for r in reports),
               "failed": sum(r["failed"] for r in reports),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
