"""Statevector core: states, gates, circuits, postselection, sampling.

Qubit 0 is the least significant bit of the basis index throughout, so basis
state ``|q_{n-1} ... q_1 q_0>`` lives at amplitude index ``sum_r 2**r * q_r``.
Non-unitary damping blocks are realised with an ancilla qubit that is projected
back onto ``|0>``; the accumulated postselection probability is tracked on the
state as ``success_prob``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

DEFAULT_MAX_QUBITS = 26
_MAX_QUBITS_ENV = "QADVDIFF_MAX_QUBITS"

_NORM_TOL = 1e-12
_MIN_POSTSELECT_PROB = 1e-300


def max_qubits() -> int:
    """Largest register size new_state accepts (env QADVDIFF_MAX_QUBITS overrides)."""
    raw = os.environ.get(_MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_MAX_QUBITS_ENV} must be positive, got {value}")
    return value


class GateKind(str, Enum):
    PHASE = "phase"
    CONTROLLED_PHASE = "cphase"
    DAMPING = "damping"
    HADAMARD = "hadamard"
    CNOT = "cnot"
    SWAP = "swap"


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind, a target qubit, (qubit, value) controls and a parameter.

    ``param`` is the phase angle for (controlled) phase gates and the damping
    exponent gamma for damping rotations; it is unused otherwise.  ``partner``
    is the second qubit of a swap and None for every other kind.
    """

    kind: GateKind
    target: int
    controls: tuple[tuple[int, int], ...] = ()
    param: float = 0.0
    partner: int | None = None

    def __post_init__(self) -> None:
        qubits = [self.target] + [q for q, _ in self.controls]
        if self.partner is not None:
            qubits.append(self.partner)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate touches a qubit twice: {self}")
        for _, v in self.controls:
            if v not in (0, 1):
                raise ValueError(f"control value must be 0 or 1, got {v}")
        if self.kind is GateKind.SWAP and self.partner is None:
            raise ValueError("swap gate needs a partner qubit")
        if self.kind is not GateKind.SWAP and self.partner is not None:
            raise ValueError("only swap gates take a partner qubit")
        if self.kind is GateKind.CNOT and len(self.controls) != 1:
            raise ValueError("cnot takes exactly one control")
        if self.kind is GateKind.CONTROLLED_PHASE and not self.controls:
            raise ValueError("controlled phase needs at least one control")
        if self.kind is GateKind.DAMPING and self.param < 0.0:
            raise ValueError(
                f"damping exponent must be >= 0 (amplification is not "
                f"block-encodable), got {self.param}"
            )


def phase(target: int, theta: float, controls: tuple[tuple[int, int], ...] = ()) -> GateOp:
    kind = GateKind.CONTROLLED_PHASE if controls else GateKind.PHASE
    return GateOp(kind, target, tuple(controls), float(theta))


def damping(target: int, gamma: float, controls: tuple[tuple[int, int], ...] = ()) -> GateOp:
    return GateOp(GateKind.DAMPING, target, tuple(controls), float(gamma))


def hadamard(target: int, controls: tuple[tuple[int, int], ...] = ()) -> GateOp:
    return GateOp(GateKind.HADAMARD, target, tuple(controls))


def cnot(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CNOT, target, ((control, 1),))


def swap(a: int, b: int) -> GateOp:
    return GateOp(GateKind.SWAP, a, partner=b)


@dataclass
class Circuit:
    """Ordered gate list over ``n_qubits`` qubits.

    ``ancilla_indices`` marks qubits holding damping ancillas: apply_circuit
    projects such a qubit back onto |0> right after each damping gate that
    targets it.
    """

    n_qubits: int
    gates: list[GateOp] = field(default_factory=list)
    ancilla_indices: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        self._check_qubits(self.ancilla_indices, "ancilla")
        for gate in self.gates:
            self._check_gate(gate)

    def _check_qubits(self, qubits, role: str) -> None:
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"{role} qubit {q} outside register of {self.n_qubits}")

    def _check_gate(self, gate: GateOp) -> None:
        qubits = [gate.target] + [q for q, _ in gate.controls]
        if gate.partner is not None:
            qubits.append(gate.partner)
        self._check_qubits(qubits, "gate")

    def add(self, gate: GateOp) -> None:
        self._check_gate(gate)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for gate in gates:
            self.add(gate)


@dataclass
class QuantumState:
    """Complex amplitude vector over ``2**n_qubits`` basis states.

    Amplitudes stay normalized; ``success_prob`` is the product of all
    postselection probabilities applied so far.
    """

    n_qubits: int
    amplitudes: np.ndarray
    success_prob: float = 1.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy(), self.success_prob)


def _check_register_size(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"register needs at least one qubit, got {n_qubits}")
    limit = max_qubits()
    if n_qubits > limit:
        raise ValueError(
            f"register of {n_qubits} qubits exceeds the configured maximum "
            f"{limit} (override with {_MAX_QUBITS_ENV})"
        )


def new_state(n_qubits: int) -> QuantumState:
    """All-zeros computational basis state |0...0>."""
    _check_register_size(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def encode_amplitudes(values) -> QuantumState:
    """Load a real or complex vector as a normalized state.

    The length must be a power of two and the vector must not be identically
    zero; normalization is applied here so callers can pass raw field samples.
    """
    amps = np.asarray(values, dtype=np.complex128).ravel()
    dim = amps.size
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"amplitude count must be a power of two >= 2, got {dim}")
    n_qubits = dim.bit_length() - 1
    _check_register_size(n_qubits)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("cannot encode the zero vector")
    return QuantumState(n_qubits, amps / norm)


_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def damping_matrix(gamma: float) -> np.ndarray:
    """2x2 rotation R_Y(2*arccos(e^-gamma)); |0> -> e^-gamma|0> + sqrt(1-e^-2g)|1>."""
    if gamma < 0.0:
        raise ValueError(f"damping exponent must be >= 0, got {gamma}")
    c = np.exp(-gamma)
    s = np.sqrt(max(0.0, 1.0 - c * c))
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _gate_matrix(gate: GateOp) -> np.ndarray:
    if gate.kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE):
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * gate.param)]], dtype=np.complex128)
    if gate.kind is GateKind.HADAMARD:
        return _H_MATRIX
    if gate.kind is GateKind.CNOT:
        return _X_MATRIX
    if gate.kind is GateKind.DAMPING:
        return damping_matrix(gate.param)
    raise ValueError(f"no single-qubit matrix for {gate.kind}")


def _controlled_indices(n_qubits: int, gate: GateOp) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    sel = np.ones(idx.shape, dtype=bool)
    for q, v in gate.controls:
        sel &= ((idx >> q) & 1) == v
    return idx, sel


def _apply_gate_inplace(amps: np.ndarray, n_qubits: int, gate: GateOp) -> None:
    idx, sel = _controlled_indices(n_qubits, gate)
    if gate.kind is GateKind.SWAP:
        a, b = gate.target, gate.partner
        sel &= (((idx >> a) & 1) == 1) & (((idx >> b) & 1) == 0)
        i = idx[sel]
        j = i ^ ((1 << a) | (1 << b))
        amps[i], amps[j] = amps[j], amps[i].copy()
        return
    t = gate.target
    if gate.kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE):
        sel &= ((idx >> t) & 1) == 1
        amps[idx[sel]] *= np.exp(1j * gate.param)
        return
    u = _gate_matrix(gate)
    sel &= ((idx >> t) & 1) == 0
    i0 = idx[sel]
    i1 = i0 | (1 << t)
    a0 = amps[i0]
    a1 = amps[i1]
    amps[i0] = u[0, 0] * a0 + u[0, 1] * a1
    amps[i1] = u[1, 0] * a0 + u[1, 1] * a1


def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Apply one gate and return the new state (the input is left untouched)."""
    Circuit(state.n_qubits, [])._check_gate(gate)
    out = state.copy()
    _apply_gate_inplace(out.amplitudes, out.n_qubits, gate)
    return out


def _project_zero_inplace(state: QuantumState, ancilla: int) -> None:
    idx = np.arange(1 << state.n_qubits)
    keep = ((idx >> ancilla) & 1) == 0
    p_zero = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if p_zero < _MIN_POSTSELECT_PROB:
        raise ValueError(
            f"postselection impossible: ancilla {ancilla} holds |0> with "
            f"probability {p_zero:.3e}"
        )
    state.amplitudes[~keep] = 0.0
    state.amplitudes /= np.sqrt(p_zero)
    state.success_prob *= min(p_zero, 1.0)


def project_ancilla_zero(state: QuantumState, ancilla: int) -> QuantumState:
    """Postselect qubit ``ancilla`` on |0>: zero the |1> branch, renormalize,
    and fold the branch probability into ``success_prob``."""
    if not 0 <= ancilla < state.n_qubits:
        raise ValueError(f"ancilla {ancilla} outside register of {state.n_qubits}")
    out = state.copy()
    _project_zero_inplace(out, ancilla)
    return out


def apply_circuit(
    state: QuantumState, circuit: Circuit, project_ancillas: bool = True
) -> QuantumState:
    """Run a circuit gate by gate.

    Damping gates targeting a declared ancilla are followed by an immediate
    |0> projection of that ancilla unless ``project_ancillas`` is False (the
    fresh-ancilla export path defers all measurements to the end).
    """
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit spans {circuit.n_qubits} qubits but state has {state.n_qubits}"
        )
    out = state.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(out.amplitudes, out.n_qubits, gate)
        if (
            project_ancillas
            and gate.kind is GateKind.DAMPING
            and gate.target in circuit.ancilla_indices
        ):
            _project_zero_inplace(out, gate.target)
    return out


def sample_counts(state: QuantumState, shots: int, seed: int) -> np.ndarray:
    """Multinomial measurement histogram over all basis indices.

    Deterministic per seed; returns an int array of length ``2**n_qubits``
    summing to ``shots``.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


def build_fourier_initial_state(n_qubits: int) -> Circuit:
    """Prepare sqrt(2/3)|0> + sqrt(1/6)|1> + sqrt(1/6)|2^n - 1> from |0...0>.

    One Y-rotation on qubit 0, a controlled Hadamard onto qubit 1, then a CNOT
    chain copying qubit 1 up the register.  In spectral indexing this is the
    three-mode state with a dominant mean and a symmetric pair of first modes.
    """
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {n_qubits}")
    circuit = Circuit(n_qubits)
    # cos(theta/2) = sqrt(2/3) via a damping rotation with e^-gamma = sqrt(2/3)
    circuit.add(damping(0, 0.5 * np.log(1.5)))
    circuit.add(hadamard(1, controls=((0, 1),)))
    for q in range(1, n_qubits - 1):
        circuit.add(cnot(q, q + 1))
    return circuit


def remap_circuit(circuit: Circuit, mapping: dict[int, int], n_qubits: int) -> Circuit:
    """Re-index a circuit's qubits via ``mapping`` onto a register of ``n_qubits``."""
    gates = []
    for g in circuit.gates:
        gates.append(
            GateOp(
                g.kind,
                mapping[g.target],
                tuple((mapping[q], v) for q, v in g.controls),
                g.param,
                None if g.partner is None else mapping[g.partner],
            )
        )
    ancillas = frozenset(mapping[q] for q in circuit.ancilla_indices)
    return Circuit(n_qubits, gates, ancillas)


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Adjoint of a unitary circuit (reversed order, negated phase angles).

    Damping gates are non-invertible within the gate set and are rejected.
    """
    gates = []
    for g in reversed(circuit.gates):
        if g.kind is GateKind.DAMPING:
            raise ValueError("cannot invert a circuit containing damping gates")
        if g.kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE):
            gates.append(replace(g, param=-g.param))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, gates, circuit.ancilla_indices)


def write_amplitudes(state: QuantumState, path) -> None:
    """Binary dump: 8-byte little-endian qubit count, then interleaved
    little-endian float64 (re, im) pairs for all amplitudes."""
    flat = np.empty(2 * state.amplitudes.size, dtype="<f8")
    flat[0::2] = state.amplitudes.real
    flat[1::2] = state.amplitudes.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", state.n_qubits))
        fh.write(flat.tobytes())


def read_amplitudes(path) -> QuantumState:
    """Read a dump written by write_amplitudes (success_prob is not stored)."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"truncated amplitude dump: {path}")
        (n_qubits,) = struct.unpack("<Q", header)
        payload = np.frombuffer(fh.read(), dtype="<f8")
    expected = 2 * (1 << n_qubits)
    if payload.size != expected:
        raise ValueError(
            f"amplitude dump holds {payload.size} floats, expected {expected}"
        )
    amps = payload[0::2] + 1j * payload[1::2]
    return QuantumState(int(n_qubits), amps.astype(np.complex128))
