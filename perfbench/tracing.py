"""In-memory spans around calls into the package's public functions.

The tracer replaces the public names the callers look up (for example
``qadvdiff.splitting.apply_circuit``) with wrappers that record a span per
call: name, start, end, parent span and op id, plus a few attributes such as
gate counts.  Nothing under ``src/`` changes; ``restore`` puts the originals
back.  A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from qadvdiff import cli, demo, oracles, splitting
from qadvdiff.state import GateKind

# Bytes a gate application moves at least: each complex128 amplitude is read
# and written once.
BYTES_PER_AMP_UPDATE = 32

CHECK_ROOT = "bench.check"


def circuit_kind(circuit) -> str:
    """Which layer built a circuit the splitting driver applies."""
    kinds = {g.kind for g in circuit.gates}
    if GateKind.DAMPING in kinds:
        return "diffusion"
    if kinds & {GateKind.HADAMARD, GateKind.SWAP}:
        return "qft"
    return "advection"


def _circuit_attrs(kind=None):
    def attrs(state, circuit, *args, **kwargs):
        return {
            "kind": kind or circuit_kind(circuit),
            "gates": len(circuit.gates),
            "damping": sum(g.kind is GateKind.DAMPING for g in circuit.gates),
            "qubits": circuit.n_qubits,
        }
    return attrs


def _steps_attrs(config, *args, **kwargs):
    return {"steps": config.n_steps}


def traced_bindings():
    """(module, attribute, span name, attribute extractor) for every wrap."""
    return [
        (splitting, "run_scenario", "splitting.run_scenario", _steps_attrs),
        (splitting, "apply_circuit", "state.apply_circuit", _circuit_attrs()),
        (splitting, "apply_qct", "transforms.apply_qct", None),
        (splitting, "apply_qst", "transforms.apply_qst", None),
        (splitting, "remap_circuit", "state.remap_circuit", None),
        (splitting, "build_qft_circuit", "transforms.build_qft_circuit", None),
        (splitting, "build_shear_advection", "advection.build_shear_advection", None),
        (splitting, "build_periodic_diffusion", "diffusion.build_periodic_diffusion", None),
        (splitting, "build_halfspectrum_diffusion",
         "diffusion.build_halfspectrum_diffusion", None),
        (oracles, "split_propagation_oracle", "oracles.split_propagation_oracle",
         _steps_attrs),
        (oracles, "error_norm", "oracles.error_norm", None),
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "initial_scalar_field", "splitting.initial_scalar_field", None),
        (cli, "split_propagation_oracle", "oracles.split_propagation_oracle",
         _steps_attrs),
        (cli, "fd10_reference", "oracles.fd10_reference", None),
        (cli, "run_scenario", "splitting.run_scenario", _steps_attrs),
        (demo, "run_demo", "demo.run_demo", None),
        (demo, "build_demo_circuit", "demo.build_demo_circuit", None),
        (demo, "apply_circuit", "state.apply_circuit", _circuit_attrs("demo")),
        (demo, "sample_counts", "state.sample_counts", None),
    ]


class Tracer:
    """Collects spans in memory; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op, "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs_fn=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else {}
            with self.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def install(self) -> None:
        for binding in traced_bindings():
            self.wrap(*binding)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def roots(self) -> list[str]:
        """Name of the root span above each span (parents precede children)."""
        out: list[str] = []
        for s in self.spans:
            out.append(s["name"] if s["parent"] is None else out[s["parent"]])
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: list[dict], steps_per_op: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops, plus per-op program counts.

    Every value is a per-op figure (median over ops), a per-step figure
    (per-op divided by the op's splitting steps) or a ratio.  Layers the
    workload never calls report 0.  The second result maps each count that
    must repeat exactly to its per-op values.
    """
    dur = [s["end"] - s["start"] for s in tracer.spans]
    selfs = tracer.self_times()
    roots = tracer.roots()
    per_op = {op["op"]: {} for op in ops}

    def add(op_id, key, value):
        bucket = per_op[op_id]
        bucket[key] = bucket.get(key, 0.0) + value

    for i, s in enumerate(tracer.spans):
        op_id, name, attrs = s["op"], s["name"], s["attrs"]
        if op_id not in per_op:
            continue
        # The check is not part of the op, except the split oracle it runs,
        # which is the speed-of-light reference.
        if roots[i] == CHECK_ROOT and name != "oracles.split_propagation_oracle":
            continue
        if name == "state.apply_circuit":
            add(op_id, "apply_s", dur[i])
            add(op_id, "gates", attrs["gates"])
            add(op_id, "amp_updates", attrs["gates"] * (1 << attrs["qubits"]))
            kind = attrs["kind"]
            add(op_id, f"{kind}_s", dur[i])
            add(op_id, f"{kind}_gates", attrs["gates"])
            if kind == "diffusion":
                add(op_id, "damping_gates", attrs["damping"])
        elif name in ("transforms.apply_qct", "transforms.apply_qst"):
            add(op_id, "wall_s", dur[i])
        elif name == "transforms.build_qft_circuit":
            add(op_id, "qft_build_s", dur[i])
        elif name.startswith("advection.build_"):
            add(op_id, "advection_build_s", dur[i])
        elif name.startswith("diffusion.build_"):
            add(op_id, "diffusion_build_s", dur[i])
        elif name == "splitting.run_scenario":
            add(op_id, "run_s", dur[i])
            add(op_id, "run_steps", attrs["steps"])
        elif name == "oracles.split_propagation_oracle":
            add(op_id, "oracle_s", dur[i])
            add(op_id, "oracle_steps", attrs["steps"])
        elif name == "oracles.fd10_reference":
            add(op_id, "fd10_s", dur[i])
        elif name == "oracles.error_norm":
            add(op_id, "error_norm_s", dur[i])
        elif name == "cli.main":
            add(op_id, "cli_s", dur[i])
            add(op_id, "cli_self_s", selfs[i])
        elif name == "config.load_config":
            add(op_id, "load_s", dur[i])
        elif name == "demo.build_demo_circuit":
            add(op_id, "demo_build_s", dur[i])
        elif name == "state.sample_counts":
            add(op_id, "sample_s", dur[i])

    def med(key, scale=1.0, per_step=False):
        return _median([b.get(key, 0.0) * scale / (steps_per_op if per_step else 1)
                        for b in per_op.values()])

    def ratio(num, den, scale=1.0):
        return _median([b[num] * scale / b[den] for b in per_op.values()
                        if b.get(den)])

    def info(key):
        return _median([op["info"][key] for op in ops if key in op["info"]])

    step_ms = ratio("run_s", "run_steps", 1e3)
    oracle_ms = ratio("oracle_s", "oracle_steps", 1e3)
    stage_keys = ("advection_s", "diffusion_s", "qft_s", "wall_s")
    coverage = _median([sum(b.get(k, 0.0) for k in stage_keys) / b["run_s"]
                        for b in per_op.values() if b.get("run_s")])
    metrics = {
        "state.gate_applications": med("gates"),
        "state.amp_updates": med("amp_updates"),
        "state.bytes_moved_computed": med("amp_updates", BYTES_PER_AMP_UPDATE),
        "state.ns_per_amp_update": ratio("apply_s", "amp_updates", 1e9),
        "state.sample_ms": med("sample_s", 1e3),
        "advection.ms_per_step": med("advection_s", 1e3, per_step=True),
        "advection.gates_per_step": med("advection_gates", per_step=True),
        "advection.build_ms": med("advection_build_s", 1e3),
        "diffusion.ms_per_step": med("diffusion_s", 1e3, per_step=True),
        "diffusion.damping_gates_per_step": med("damping_gates", per_step=True),
        "diffusion.postselect_success": info("diffusion.postselect_success"),
        "diffusion.build_ms": med("diffusion_build_s", 1e3),
        "transforms.qft_ms_per_step": med("qft_s", 1e3, per_step=True),
        "transforms.qft_gates_per_step": med("qft_gates", per_step=True),
        "transforms.wall_ms_per_step": med("wall_s", 1e3, per_step=True),
        "transforms.build_ms": med("qft_build_s", 1e3),
        "splitting.run_s": med("run_s"),
        "splitting.step_ms": step_ms,
        "splitting.two_qubit_gates": _median(
            [op["counts"].get("splitting.two_qubit_gates", 0) for op in ops]),
        "splitting.success_prob": info("splitting.success_prob"),
        "splitting.step_over_oracle": step_ms / oracle_ms if oracle_ms else 0.0,
        "splitting.stage_coverage": coverage,
        "oracles.split_ms_per_step": oracle_ms,
        "oracles.fd10_s": med("fd10_s"),
        "oracles.error_norm_ms": med("error_norm_s", 1e3),
        "cli.run_s": med("cli_s"),
        "cli.self_s": med("cli_self_s"),
        "cli.bytes_written": _median(
            [op["counts"].get("cli.bytes_written", 0) for op in ops]),
        "config.load_s": med("load_s"),
        "demo.build_ms": med("demo_build_s", 1e3),
        "demo.simulate_s": med("demo_s"),
        "demo.kept_shot_frac": info("demo.kept_shot_frac"),
    }
    repeats = {
        "state.gate_applications": [b.get("gates", 0.0) for b in per_op.values()],
        "state.amp_updates": [b.get("amp_updates", 0.0) for b in per_op.values()],
    }
    return metrics, repeats
