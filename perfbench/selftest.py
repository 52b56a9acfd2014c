"""Benchmark self-test: corrupted outputs must count as failed ops.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs one real op, checks that the untouched output
passes, then corrupts the output in several ways and checks that every
corruption is caught.  It also checks the tail statistic, the count-repeat
flag and the tracer's self-time arithmetic.  Exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import run
import worker  # puts src/ on sys.path
from tracing import Tracer
from workloads import CouetteRun, DemoN5, PoiseuilleSweep

FAILURES: list[str] = []


def expect(label: str, passed: bool, want: bool) -> None:
    verdict = "ok" if passed == want else "WRONG"
    print(f"{verdict:5s} {label}: check {'passed' if passed else 'failed'}")
    if passed != want:
        FAILURES.append(label)


def poiseuille_cases(out_dir: Path) -> None:
    work = PoiseuilleSweep(7, out_dir)
    results = work.op(0)
    expect("poiseuille untouched", work.check(results).ok, True)
    bad = copy.deepcopy(results)
    bad[1].final_state.amplitudes[5] += 1e-9
    expect("poiseuille amplitude off by 1e-9", work.check(bad).ok, False)
    bad = copy.deepcopy(results)
    bad[0].success_prob *= 1.0 + 1e-8
    expect("poiseuille success probability off", work.check(bad).ok, False)
    bad = copy.deepcopy(results)
    bad[0].final_state.amplitudes[0] = float("nan")
    expect("poiseuille NaN amplitude", work.check(bad).ok, False)

    class Corrupted(PoiseuilleSweep):
        def op(self, i):
            out = super().op(i)
            out[0].final_state.amplitudes *= -1.0
            return out

    records = worker.run_loop(Corrupted(7, out_dir), 0.0, first_op=0)
    expect("corrupted op counted as failed by the loop",
           records[0]["ok"] or len(records) != 1, False)


def couette_cases(out_dir: Path) -> None:
    work = CouetteRun(7, out_dir)

    def fresh():
        work.before_op(0)
        return work.op(0)

    expect("couette untouched", work.check(fresh()).ok, True)
    expect("couette nonzero exit code", work.check(1).ok, False)
    code = fresh()
    path = work.run_dir / "field_3.csv"
    lines = path.read_text().splitlines()
    x, y, _ = lines[10].split(",")
    lines[10] = f"{x},{y},nan"
    path.write_text("\n".join(lines) + "\n")
    expect("couette NaN field value with exit 0", work.check(code).ok, False)
    code = fresh()
    (work.run_dir / "field_6.csv").unlink()
    expect("couette missing field file", work.check(code).ok, False)
    code = fresh()
    summary = work.run_dir / "summary.csv"
    header, row = summary.read_text().splitlines()
    values = row.split(",")
    values[header.split(",").index("err_oracle")] = "1e-6"
    summary.write_text(f"{header}\n{','.join(values)}\n")
    expect("couette err_oracle above bound", work.check(code).ok, False)


def demo_cases(out_dir: Path) -> None:
    work = DemoN5(7, out_dir)
    output = work.op(0)
    expect("demo untouched", work.check(output).ok, True)
    op_seed, result = output
    bad = copy.deepcopy(result)
    scale = DemoN5.SHOTS
    counts = bad.sampled_amplitudes ** 2 * scale
    counts[0] += 1
    counts[1] -= 1
    bad.sampled_amplitudes = (counts / scale) ** 0.5
    expect("demo counts moved by one shot", work.check((op_seed, bad)).ok, False)
    bad = copy.deepcopy(result)
    bad.success_prob += 1e-9
    expect("demo success probability off 3/4", work.check((op_seed, bad)).ok, False)


def harness_cases() -> None:
    values = [float(v) for v in range(1, 101)]
    value, pct = run.tail(values)
    expect("tail of 100 ops is p90 with ten beyond",
           value == 90.0 and pct == 90.0 and sum(v > value for v in values) == 10, True)
    expect("upper quartile of 1..101 is 76",
           run.upper_quartile([float(v) for v in range(1, 102)]) == 76.0, True)
    ops = [{"ok": True, "counts": {"cli.bytes_written": n}} for n in (10, 10, 11)]
    expect("count that does not repeat is flagged",
           run.unrepeated(ops, {}) == ["cli.bytes_written"], True)
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    outer = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    inner = tracer.spans[1]["end"] - tracer.spans[1]["start"]
    expect("self time is duration minus children",
           abs(own[0] - (outer - inner)) < 1e-12 and own[1] == inner, True)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        out_dir = Path(tmp)
        poiseuille_cases(out_dir)
        couette_cases(out_dir)
        demo_cases(out_dir)
    harness_cases()
    if FAILURES:
        print(f"self-test FAILED: {len(FAILURES)} case(s)")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
