"""Shared helpers: slow dense-matrix oracles for small-register circuit checks."""

import numpy as np

from qadvdiff.state import Circuit, GateKind, GateOp


def single_qubit_matrix(gate: GateOp) -> np.ndarray:
    if gate.kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE):
        return np.diag([1.0, np.exp(1j * gate.param)])
    if gate.kind is GateKind.HADAMARD:
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    if gate.kind is GateKind.CNOT:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if gate.kind is GateKind.DAMPING:
        c = np.exp(-gate.param)
        s = np.sqrt(max(0.0, 1.0 - c * c))
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"no 2x2 matrix for {gate.kind}")


def gate_operator(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Dense operator built column by column, independent of the fast path."""
    dim = 1 << n_qubits
    op = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if not all(((col >> q) & 1) == v for q, v in gate.controls):
            op[col, col] = 1.0
            continue
        if gate.kind is GateKind.SWAP:
            a, b = gate.target, gate.partner
            bit_a = (col >> a) & 1
            bit_b = (col >> b) & 1
            row = col & ~(1 << a) & ~(1 << b)
            row |= (bit_a << b) | (bit_b << a)
            op[row, col] = 1.0
            continue
        u = single_qubit_matrix(gate)
        t = gate.target
        bit = (col >> t) & 1
        for out_bit in (0, 1):
            row = (col & ~(1 << t)) | (out_bit << t)
            op[row, col] = u[out_bit, bit]
    return op


def circuit_operator(circuit: Circuit) -> np.ndarray:
    """Product of all gate operators, ignoring ancilla projections."""
    dim = 1 << circuit.n_qubits
    op = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        op = gate_operator(gate, circuit.n_qubits) @ op
    return op


def reference_apply(circuit: Circuit, vec: np.ndarray, project_ancillas: bool = True):
    """Gate-by-gate dense execution of a circuit on ``vec``.

    With ``project_ancillas``, every damping gate on a declared ancilla is
    followed by projecting that ancilla onto |0> and renormalizing.  Returns
    the amplitudes and the product of the projection probabilities.
    """
    n = circuit.n_qubits
    out = np.array(vec, dtype=complex)
    success = 1.0
    for gate in circuit.gates:
        out = gate_operator(gate, n) @ out
        if (project_ancillas and gate.kind is GateKind.DAMPING
                and gate.target in circuit.ancilla_indices):
            one = [((i >> gate.target) & 1) == 1 for i in range(1 << n)]
            out[one] = 0.0
            p_zero = float(np.vdot(out, out).real)
            out /= np.sqrt(p_zero)
            success *= p_zero
    return out, success


def random_state_vector(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)
