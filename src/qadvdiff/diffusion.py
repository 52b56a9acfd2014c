"""Diffusion kernels: damping block encodings of e^{-beta j^2} mode decay.

Each spectral damping factor e^{-gamma} is realised by a controlled Y-rotation
onto an ancilla that is postselected on |0>.  The squared mode index expands
over register bits as j^2 = sum_r 4^r q_r + sum_{r<s} 2^{r+s+1} q_r q_s, so a
product of singly- and doubly-controlled damping gates covers the whole
spectrum.  On a periodic axis the signed upper half of the spectrum is folded
onto the lower half by a CNOT fan before damping and unfolded afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import Circuit, cnot, damping
from .transforms import BoundaryKind


@dataclass(frozen=True)
class DampingTerm:
    """One damping factor e^{-gamma} applied where all controls are 1."""

    gamma: float
    controls: tuple[int, ...]


@dataclass(frozen=True)
class DiffusionParams:
    """Mode-decay strength for one axis over one splitting interval."""

    n_qubits: int
    beta: float
    kind: BoundaryKind

    @classmethod
    def from_physical(
        cls, n_qubits: int, diffusivity: float, dt: float, length: float,
        kind: BoundaryKind,
    ) -> "DiffusionParams":
        """beta = D*dt*(2*pi/L)^2 on periodic axes, D*dt*(pi/L)^2 on walls."""
        scale = 2.0 * np.pi if kind is BoundaryKind.PERIODIC else np.pi
        return cls(n_qubits, diffusivity * dt * (scale / length) ** 2, kind)


def periodic_damping_terms(n_qubits: int, beta: float) -> list[DampingTerm]:
    """Damping factors for the folded signed spectrum of a periodic axis.

    Shared terms cover j^2 on the lower half and the first two pieces of
    (j'+1)^2 on the folded upper half; the extra terms controlled on the top
    qubit supply the remaining 2j'+1.
    """
    top = n_qubits - 1
    terms = [DampingTerm(beta * (1 << (2 * r)), (r,)) for r in range(top)]
    terms += [
        DampingTerm(beta * (1 << (1 + r + s)), (r, s))
        for r in range(top)
        for s in range(r + 1, top)
    ]
    terms += [DampingTerm(beta * (1 << (r + 1)), (r, top)) for r in range(top)]
    terms.append(DampingTerm(beta, (top,)))
    return terms


def halfspectrum_damping_terms(
    n_qubits: int, beta: float, kind: BoundaryKind
) -> list[DampingTerm]:
    """Damping factors for cosine (j^2) or sine ((j+1)^2) mode indices."""
    terms = [DampingTerm(beta * (1 << (2 * r)), (r,)) for r in range(n_qubits)]
    terms += [
        DampingTerm(beta * (1 << (1 + r + s)), (r, s))
        for r in range(n_qubits)
        for s in range(r + 1, n_qubits)
    ]
    if kind is BoundaryKind.DIRICHLET:
        terms += [DampingTerm(beta * (1 << (r + 1)), (r,)) for r in range(n_qubits)]
        terms.append(DampingTerm(beta, ()))
    return terms


def _damping_circuit(n_qubits: int, terms, mirror: bool) -> Circuit:
    circuit = Circuit(n_qubits + 1, ancilla_indices=frozenset({n_qubits}))
    top = n_qubits - 1
    if mirror:
        for r in range(top):
            circuit.add(cnot(top, r))
    for term in terms:
        circuit.add(
            damping(n_qubits, term.gamma, tuple((q, 1) for q in term.controls))
        )
    if mirror:
        for r in range(top - 1, -1, -1):
            circuit.add(cnot(top, r))
    return circuit


def build_periodic_diffusion(n_qubits: int, beta: float) -> Circuit:
    """Diffusion on a periodic axis whose register is in the Fourier basis.

    Returns a circuit on n_qubits + 1 qubits; the last qubit is the damping
    ancilla.  Mode j decays by e^{-beta*j^2} below N/2 and e^{-beta*(j-N)^2}
    above, via the CNOT mirror fold.
    """
    if n_qubits < 2:
        raise ValueError(f"periodic diffusion needs >= 2 qubits, got {n_qubits}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return _damping_circuit(n_qubits, periodic_damping_terms(n_qubits, beta), True)


def build_halfspectrum_diffusion(
    n_qubits: int, beta: float, kind: BoundaryKind
) -> Circuit:
    """Diffusion on a wall-bounded axis in its cosine or sine mode basis.

    Neumann (cosine) modes decay by e^{-beta*j^2}, Dirichlet (sine) modes by
    e^{-beta*(j+1)^2}.  The last qubit of the returned circuit is the ancilla.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if kind is BoundaryKind.PERIODIC:
        raise ValueError("use build_periodic_diffusion for periodic axes")
    terms = halfspectrum_damping_terms(n_qubits, beta, kind)
    return _damping_circuit(n_qubits, terms, False)
