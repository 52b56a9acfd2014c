"""The benchmark's three workloads: inputs from a seed, one op, and its check.

Every workload builds its inputs in ``__init__`` (timed as set-up), runs one
op in ``op(i)`` (the timed interval) and verifies that op's output in
``check(output)``, outside the timed interval.  The seed only shapes the
inputs; the work one op does is the same for every seed.

Ops call the package through module attributes (``splitting.run_scenario``,
``cli.main``, ``demo.run_demo``) so that the tracer's wrappers, installed on
those attributes, see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qadvdiff import cli, demo, oracles, splitting
from qadvdiff.advection import VelocityProfile
from qadvdiff.transforms import BoundaryKind

DIGESTS_FILE = Path(__file__).resolve().parent / "demo_digests.json"

STATE_TOL = 1e-12
SUCCESS_TOL = 1e-10
ERR_ORACLE_TOL = 1e-12
DEMO_SUCCESS = 0.75
DEMO_SUCCESS_TOL = 1e-12


@dataclass
class Checked:
    """Verdict on one op's output.

    ``counts`` are program counts that must repeat exactly between ops of one
    run; ``info`` holds measured outcomes the per-layer report uses.
    """

    ok: bool
    reason: str = ""
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


class Workload:
    name = ""
    steps_per_op = 1

    def before_op(self, i: int) -> None:
        """Untimed preparation of op ``i``."""


def smooth_field(seed: int, n_x: int, n_y: int) -> np.ndarray:
    """Seeded smooth positive field: a mean plus nine low Fourier/cosine modes.

    Flattened column-major (x fastest), the layout ``run_scenario`` expects.
    """
    rng = np.random.default_rng(seed)
    x = np.arange(1 << n_x) / (1 << n_x)
    y = np.arange(1 << n_y) / ((1 << n_y) - 1)
    values = np.ones((x.size, y.size))
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            amp = rng.uniform(-0.3, 0.3)
            shift = rng.uniform(0.0, 2.0 * np.pi)
            values += amp * np.outer(np.cos(2.0 * np.pi * k * x + shift),
                                     np.cos(np.pi * m * y))
    return values.reshape(-1, order="F")


class PoiseuilleSweep(Workload):
    """One row of the ``converge`` step sweep on the paper's criterion 4/5 setup.

    Why: the gate engine does nearly all the work (advection, damping with
    postselection, QFT, wall DCT), so an engine change such as gate fusion
    must show here.  The dense split oracle runs only in the check, where it
    also serves as the speed-of-light reference.
    """

    name = "poiseuille-sweep"
    N_STEPS = 4
    steps_per_op = 2 * N_STEPS

    def __init__(self, seed: int, out_dir: Path):
        base = dict(n_x=6, n_y=6, profile=VelocityProfile.named("poiseuille"),
                    diffusivity=0.002, t_final=1.0, bc_y=BoundaryKind.NEUMANN,
                    checkpoints=1, n_steps=self.N_STEPS)
        self.configs = [splitting.ScenarioConfig(**base, splitting=name)
                        for name in ("trotter", "strang")]
        self.field = smooth_field(seed, 6, 6)

    def op(self, i: int):
        return [splitting.run_scenario(cfg, self.field) for cfg in self.configs]

    def check(self, results) -> Checked:
        two_qubit = 0
        per_step = []
        finals = []
        for cfg, res in zip(self.configs, results):
            oracle, history = oracles.split_propagation_oracle(cfg, self.field)
            amps = res.final_state.amplitudes
            if not np.all(np.isfinite(amps)):
                return Checked(False, f"{cfg.splitting}: non-finite final state")
            ref = oracle / np.linalg.norm(oracle)
            gap = float(np.max(np.abs(amps - ref)))
            if not gap <= STATE_TOL:
                return Checked(False, f"{cfg.splitting}: final state off the "
                                      f"split oracle by {gap:.3e}")
            success_gap = abs(res.success_prob - float(np.prod(history)))
            if not success_gap <= SUCCESS_TOL:
                return Checked(False, f"{cfg.splitting}: success probability off "
                                      f"by {success_gap:.3e}")
            two_qubit += res.gate_counts["total_two_qubit"]
            per_step += history
            finals.append(res.success_prob)
        return Checked(
            True,
            counts={"splitting.two_qubit_gates": two_qubit},
            info={"splitting.success_prob": float(np.mean(finals)),
                  "diffusion.postselect_success":
                      float(np.exp(np.mean(np.log(per_step))))},
        )


class CouetteRun(Workload):
    """``qadvdiff run`` in-process on a couette2d-shaped config.

    Why: this is what a user runs.  FD10 and CSV output dominate and most of
    the gate engine is bypassed, so an engine speed-up should barely move it;
    FD10 and output changes show only here.  U is drawn in [0.5, 1.5], where
    FD10 stays diffusion-limited, so the work per op does not depend on it.
    """

    name = "couette-run"
    N_STEPS = 6
    N_FIELDS = 7
    steps_per_op = N_STEPS

    def __init__(self, seed: int, out_dir: Path):
        velocity = np.random.default_rng(seed).uniform(0.5, 1.5)
        self.config_path = out_dir / f"couette-seed{seed}.cfg"
        self.config_path.write_text(
            "n_x = 6\nn_y = 6\nprofile = couette\n"
            f"U = {velocity!r}\nD = 0.002\nt_final = 3.0\n"
            f"steps = {self.N_STEPS}\nsplitting = strang\nbc_y = neumann\n"
            "initial = gaussian\nreference = auto\n"
        )
        self.run_dir = out_dir / "couette-run"
        self.argv = ["run", "--config", str(self.config_path),
                     "--out-dir", str(self.run_dir)]

    def before_op(self, i: int) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def op(self, i: int):
        with redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, exit_code) -> Checked:
        if exit_code != 0:
            return Checked(False, f"exit code {exit_code}")
        expected = {f"field_{k}.csv" for k in range(self.N_FIELDS)} | {"summary.csv"}
        present = {p.name for p in self.run_dir.iterdir()}
        if present != expected:
            return Checked(False, f"output files {sorted(present ^ expected)} "
                                  f"missing or unexpected")
        for name in sorted(expected - {"summary.csv"}):
            rows = read_csv(self.run_dir / name)
            if rows[0] != ["x", "y", "value"] or len(rows) != 1 + 64 * 64:
                return Checked(False, f"{name}: wrong header or row count")
            if not all_finite(rows[1:]):
                return Checked(False, f"{name}: non-finite or malformed value")
        summary = read_csv(self.run_dir / "summary.csv")
        if len(summary) != 2 or not all_finite(summary[1:]):
            return Checked(False, "summary.csv: non-finite or malformed value")
        row = dict(zip(summary[0], (float(v) for v in summary[1])))
        if "err_oracle" not in row or not row["err_oracle"] <= ERR_ORACLE_TOL:
            return Checked(False, f"err_oracle {row.get('err_oracle')} above "
                                  f"{ERR_ORACLE_TOL}")
        written = sum(p.stat().st_size for p in self.run_dir.iterdir())
        return Checked(True, counts={"cli.bytes_written": written},
                       info={"splitting.success_prob": row["success_prob"]})


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def all_finite(rows) -> bool:
    try:
        return all(math.isfinite(float(v)) for row in rows for v in row)
    except ValueError:
        return False


def counts_digest(counts: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(counts, dtype="<i8").tobytes()).hexdigest()[:16]


def kept_counts(result, shots: int) -> np.ndarray:
    """Integer counts of the kept (all-ancillas-zero) bins from a DemoResult."""
    return np.rint(result.sampled_amplitudes ** 2 * shots).astype(np.int64)


class DemoN5(Workload):
    """``run_demo(5, shots, seed)``: 5 main qubits plus 15 fresh ancillas.

    Why: it uses the state engine differently from the sweep - a 20-qubit
    register, 50 gates, deferred measurement with no postselection, then
    multinomial sampling over 2^20 bins - so dropping the dead ancilla half
    of the simulation register must not slow it, and caching the joint state
    across seeds would show only here.  Op seeds come from a fixed pool whose
    count digests were recorded by ``record_digests.py``; the workload seed
    picks their order.
    """

    name = "demo-n5"
    N_QUBITS = 5
    SHOTS = 10_000
    # The demo circuit is one advection-diffusion step of a three-mode state.
    steps_per_op = 1

    def __init__(self, seed: int, out_dir: Path):
        recorded = json.loads(DIGESTS_FILE.read_text())
        if (recorded["n_qubits"], recorded["shots"]) != (self.N_QUBITS, self.SHOTS):
            raise ValueError(f"{DIGESTS_FILE.name} was recorded for other settings")
        self.reference = {int(s): v for s, v in recorded["seeds"].items()}
        pool = sorted(self.reference)
        self.op_seeds = [int(s) for s in np.random.default_rng(seed).permutation(pool)]

    def op(self, i: int):
        op_seed = self.op_seeds[i % len(self.op_seeds)]
        return op_seed, demo.run_demo(self.N_QUBITS, self.SHOTS, op_seed)

    def check(self, output) -> Checked:
        op_seed, result = output
        gap = abs(result.success_prob - DEMO_SUCCESS)
        if not gap <= DEMO_SUCCESS_TOL:
            return Checked(False, f"seed {op_seed}: success_prob off 3/4 by {gap:.3e}")
        counts = kept_counts(result, self.SHOTS)
        ref = self.reference[op_seed]
        if counts_digest(counts) != ref["digest"]:
            return Checked(False, f"seed {op_seed}: counts differ from the "
                                  f"recorded digest")
        kept = int(counts.sum())
        if kept != ref["kept"]:
            return Checked(False, f"seed {op_seed}: {kept} shots kept, "
                                  f"recorded {ref['kept']}")
        return Checked(True, info={"demo.kept_shot_frac": kept / self.SHOTS})


WORKLOADS = {w.name: w for w in (PoiseuilleSweep, CouetteRun, DemoN5)}
