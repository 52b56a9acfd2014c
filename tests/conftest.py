"""Shared helpers: slow dense-matrix oracles for small-register circuit checks,
the physical-space split oracle and the real-space FD10 integrator."""

import numpy as np
import scipy.fft

from qadvdiff import oracles
from qadvdiff.state import Circuit, GateKind, GateOp
from qadvdiff.transforms import BoundaryKind, wavenumbers


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


def reference_apply(circuit: Circuit, vec: np.ndarray):
    """Gate-by-gate dense execution of a circuit on ``vec``.

    Every damping gate on a declared ancilla is followed by projecting that
    ancilla onto |0> and renormalizing.  Returns the amplitudes and the
    product of the projection probabilities.
    """
    n = circuit.n_qubits
    out = np.array(vec, dtype=complex)
    success = 1.0
    for gate in circuit.gates:
        out = gate_operator(gate, n) @ out
        if gate.kind is GateKind.DAMPING and gate.target in circuit.ancilla_indices:
            one = [((i >> gate.target) & 1) == 1 for i in range(1 << n)]
            out[one] = 0.0
            p_zero = float(np.vdot(out, out).real)
            out /= np.sqrt(p_zero)
            success *= p_zero
    return out, success


def undeclared(circuit: Circuit) -> Circuit:
    """The same gates with no ancillas declared: every qubit is stored."""
    return Circuit(circuit.n_qubits, list(circuit.gates))


def random_state_vector(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)


def split_oracle_direct(config, field):
    """Physical-space split propagation, one transform pair per operator.

    The same operator sequence as ``oracles.split_propagation_oracle``, with
    every factor applied between its own forward and inverse transform
    (numpy's FFT along x, numpy's FFT or scipy's DCT/DST along y): the
    reference the x-Fourier-space oracle is checked against.
    """
    two_d = config.n_y > 0
    arr = np.asarray(field, dtype=np.complex128)
    if two_d:
        arr = arr.reshape(1 << config.n_x, 1 << config.n_y, order="F").copy()
    dt = config.t_final / config.n_steps
    kx = wavenumbers(config.n_x, config.length, BoundaryKind.PERIODIC).values
    u_rows = oracles.profile_row_velocities(config)
    d = config.diffusivity

    def along_x(a, factor):
        spec = np.fft.fft(a, axis=0, norm="ortho")
        spec *= factor if two_d else factor[:, 0]
        return np.fft.ifft(spec, axis=0, norm="ortho")

    def diffuse_y(a, tau):
        if not two_d:
            return a
        ky = wavenumbers(config.n_y, config.length, config.bc_y).values
        decay = np.exp(-d * ky * ky * tau)[None, :]
        if config.bc_y is BoundaryKind.PERIODIC:
            spec = np.fft.fft(a, axis=1, norm="ortho") * decay
            return np.fft.ifft(spec, axis=1, norm="ortho")
        func = scipy.fft.dct if config.bc_y is BoundaryKind.NEUMANN else scipy.fft.dst
        spec = func(a, type=2, axis=1, norm="ortho") * decay
        return func(spec, type=3, axis=1, norm="ortho")

    def advect(a, tau):
        return along_x(a, np.exp(-1j * tau * np.outer(kx, u_rows)))

    def diffuse_x(a, tau):
        return along_x(a, np.exp(-d * kx * kx * tau)[:, None])

    history = []
    for _ in range(config.n_steps):
        before = np.linalg.norm(arr)
        if config.splitting == "strang":
            arr = advect(arr, 0.5 * dt)
            arr = diffuse_x(arr, dt)
            arr = diffuse_y(arr, dt)
            arr = advect(arr, 0.5 * dt)
        else:
            arr = advect(arr, dt)
            arr = diffuse_x(arr, dt)
            arr = diffuse_y(arr, dt)
        history.append(float(np.linalg.norm(arr) ** 2 / before**2))
    out = arr.reshape(-1, order="F") if two_d else arr
    return out, history


def fd10_direct(config, field) -> np.ndarray:
    """Real-space RK4 with dense stencil matrices, one substep at a time.

    The same scheme and substep count as ``oracles.fd10_reference``,
    evaluated without the streamwise DFT: the reference its per-mode
    amplification matrices are checked against.
    """
    two_d = config.n_y > 0
    nx = 1 << config.n_x
    arr = np.array(np.real(field), dtype=float)
    d = config.diffusivity
    u_rows = oracles.profile_row_velocities(config)
    w1 = oracles.central_difference_weights(1)
    w2 = oracles.central_difference_weights(2)
    dx = config.length / nx
    d1x = oracles.periodic_stencil_matrix(nx, w1) / dx
    d2x = oracles.periodic_stencil_matrix(nx, w2) / dx**2
    if two_d:
        ny = 1 << config.n_y
        arr = arr.reshape(nx, ny, order="F")
        if config.bc_y is BoundaryKind.PERIODIC:
            dy = config.length / ny
            d2y = oracles.periodic_stencil_matrix(ny, w2) / dy**2
        else:
            dy = config.length / (ny - 1)
            d2y = oracles.wall_stencil_matrix(ny, w2, config.bc_y) / dy**2

    def rhs(a):
        if two_d:
            return -(d1x @ a) * u_rows[None, :] + d * (d2x @ a + a @ d2y.T)
        return -u_rows[0] * (d1x @ a) + d * (d2x @ a)

    limits = []
    u_max = float(np.max(np.abs(u_rows)))
    if u_max > 0.0:
        limits.append(dx / u_max)
    if d > 0.0:
        h = min(dx, dy) if two_d else dx
        limits.append(h**2 / (2.0 * float(np.sum(np.abs(w2))) * d * (2 if two_d else 1)))
    if not limits:
        return arr
    n_sub = max(1, int(np.ceil(config.t_final / (oracles._CFL_SAFETY * min(limits)))))
    dt = config.t_final / n_sub
    for _ in range(n_sub):
        k1 = rhs(arr)
        k2 = rhs(arr + 0.5 * dt * k1)
        k3 = rhs(arr + 0.5 * dt * k2)
        k4 = rhs(arr + dt * k3)
        arr = arr + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return arr
