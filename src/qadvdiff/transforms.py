"""Spectral transforms: gate-level QFT, cosine/sine transforms, wavenumbers.

``build_qft_circuit(n)`` realises the unitary DFT with matrix entries
e^{+2*pi*i*j*k/N}/sqrt(N) (synthesis orientation, swap network included so no
index relabeling is needed).  Grid-to-mode analysis is its inverse.  The
cosine/sine transforms for wall boundaries are applied as direct orthonormal
transforms on the statevector rather than as gate sequences; they are the
reference path the circuit kernels are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .state import Circuit, QuantumState, hadamard, inverse_circuit, phase, swap


class BoundaryKind(str, Enum):
    PERIODIC = "periodic"
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class WavenumberTable:
    """Spectral wavenumbers for one axis: ``values[j]`` belongs to mode index j."""

    kind: BoundaryKind
    size: int
    length: float
    values: np.ndarray


def wavenumbers(n_qubits: int, length: float, kind: BoundaryKind) -> WavenumberTable:
    """Wavenumber table for a register of ``n_qubits`` qubits.

    Periodic axes use the signed layout [0, 1, ..., N/2-1, -N/2, ..., -1]
    scaled by 2*pi/L; Neumann modes are pi*j/L and Dirichlet modes pi*(j+1)/L.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if length <= 0.0:
        raise ValueError(f"axis length must be positive, got {length}")
    n = 1 << n_qubits
    j = np.arange(n)
    if kind is BoundaryKind.PERIODIC:
        signed = np.where(j < n // 2, j, j - n)
        values = 2.0 * np.pi / length * signed
    elif kind is BoundaryKind.NEUMANN:
        values = np.pi / length * j
    elif kind is BoundaryKind.DIRICHLET:
        values = np.pi / length * (j + 1)
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return WavenumberTable(kind, n, float(length), values)


def build_qft_circuit(n_qubits: int, inverse: bool = False) -> Circuit:
    """Quantum Fourier transform circuit on qubits 0..n-1.

    Hadamards plus controlled phases, closed by an explicit swap network so the
    output mode index is read in the natural binary order.  ``inverse=True``
    returns its adjoint from inverse_circuit (grid-to-mode analysis
    orientation).
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    gates = []
    for i in range(n_qubits - 1, -1, -1):
        gates.append(hadamard(i))
        for j in range(i - 1, -1, -1):
            gates.append(phase(i, np.pi / (1 << (i - j)), controls=((j, 1),)))
    for i in range(n_qubits // 2):
        gates.append(swap(i, n_qubits - 1 - i))
    circuit = Circuit(n_qubits, gates)
    return inverse_circuit(circuit) if inverse else circuit


def wall_transform(
    values: np.ndarray, kind: BoundaryKind, inverse: bool = False, axis: int = 0
) -> np.ndarray:
    """Orthonormal cosine (NEUMANN) or sine (DIRICHLET) transform along ``axis``.

    Type 2 maps grid to modes and type 3 maps back.  Complex input goes to
    scipy as is; it transforms the real and imaginary parts separately.
    """
    import scipy.fft  # imported here so that importing the package skips scipy

    func = scipy.fft.dct if kind is BoundaryKind.NEUMANN else scipy.fft.dst
    return func(values, type=3 if inverse else 2, axis=axis, norm="ortho")


def _apply_wall_transform(
    state: QuantumState, axis_qubits, kind: BoundaryKind, inverse: bool
) -> QuantumState:
    qubits = list(axis_qubits)
    if not qubits:
        raise ValueError("axis_qubits must not be empty")
    if qubits != list(range(qubits[0], qubits[0] + len(qubits))):
        raise ValueError(f"axis qubits must be contiguous ascending, got {qubits}")
    lo, m = qubits[0], len(qubits)
    if lo < 0 or lo + m > state.n_qubits:
        raise ValueError(f"axis qubits {qubits} outside register of {state.n_qubits}")
    high = 1 << (state.n_qubits - lo - m)
    cube = state.amplitudes.reshape(high, 1 << m, 1 << lo)
    out = wall_transform(cube, kind, inverse, axis=1)
    return QuantumState(state.n_qubits, out.reshape(-1), state.success_prob)


def apply_qct(state: QuantumState, axis_qubits, inverse: bool = False) -> QuantumState:
    """Orthonormal cosine transform (Neumann walls) along a contiguous qubit run.

    Forward rows: mode 0 is sqrt(1/N), mode k is sqrt(2/N)*cos[pi*(n+1/2)*k/N].
    """
    return _apply_wall_transform(state, axis_qubits, BoundaryKind.NEUMANN, inverse)


def apply_qst(state: QuantumState, axis_qubits, inverse: bool = False) -> QuantumState:
    """Orthonormal sine transform (Dirichlet walls) along a contiguous qubit run.

    Forward rows: mode k is sqrt(2/N)*sin[pi*(n+1/2)*(k+1)/N], with the top
    mode k = N-1 scaled by 1/sqrt(2) so the matrix stays orthogonal.
    """
    return _apply_wall_transform(state, axis_qubits, BoundaryKind.DIRICHLET, inverse)
