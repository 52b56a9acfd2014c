"""Record the demo-n5 reference digests into demo_digests.json.

Run from the repository root:

    python3 perfbench/record_digests.py

It runs ``run_demo(5, 10000, s)`` for every seed of the pool and stores a
digest of the kept counts and the number of kept shots.  The benchmark's
demo-n5 check compares every op against these, so rerun this only when the
sampled counts are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qadvdiff import demo  # noqa: E402

from workloads import DIGESTS_FILE, DemoN5, counts_digest, kept_counts  # noqa: E402

POOL = range(64)


def main() -> int:
    seeds = {}
    for seed in POOL:
        result = demo.run_demo(DemoN5.N_QUBITS, DemoN5.SHOTS, seed)
        counts = kept_counts(result, DemoN5.SHOTS)
        seeds[str(seed)] = {"digest": counts_digest(counts), "kept": int(counts.sum())}
    payload = {"n_qubits": DemoN5.N_QUBITS, "shots": DemoN5.SHOTS, "seeds": seeds}
    DIGESTS_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(seeds)} digests to {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
