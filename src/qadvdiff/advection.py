"""Advection phase kernels for uniform and polynomial shear velocity profiles.

In the Fourier basis of the streamwise register, advection by a velocity that
is polynomial in the wall-normal coordinate is diagonal: each monomial of the
velocity polynomial, expanded over wall-normal qubit products, contributes one
pattern of phase gates on the streamwise register controlled by that product.
The wall-normal coordinate is the binary fraction y = sum_r 2^r q_r / (2^n - 1),
which includes both endpoints 0 and 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .state import Circuit, GateKind, GateOp, phase

MAX_PROFILE_ORDER = 4


@dataclass(frozen=True)
class VelocityProfile:
    """Streamwise velocity as a polynomial in the normalized wall coordinate.

    ``u(y)/U = sum_m coefficients[m] * y**m`` with y in [0, 1].
    """

    label: str
    coefficients: tuple[float, ...]

    _NAMED = {
        "uniform": (1.0,),
        "couette": (0.0, 1.0),
        "poiseuille": (0.0, 4.0, -4.0),
        "blasius": (0.0, 2.0, -1.0),
    }

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("profile needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError(f"profile coefficients must be finite, got {self.coefficients}")
        expected = self._NAMED.get(self.label)
        if self.label != "custom":
            if expected is None:
                raise ValueError(f"unknown profile label {self.label!r}")
            if tuple(float(c) for c in self.coefficients) != expected:
                raise ValueError(
                    f"profile {self.label!r} must have coefficients {expected}, "
                    f"got {self.coefficients}"
                )

    @property
    def order(self) -> int:
        coeffs = self.coefficients
        h = len(coeffs) - 1
        while h > 0 and coeffs[h] == 0.0:
            h -= 1
        return h

    def __call__(self, y) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float),
                                                np.asarray(self.coefficients))

    def derivative(self, y, order: int = 1) -> np.ndarray:
        coeffs = np.polynomial.polynomial.polyder(
            np.asarray(self.coefficients, dtype=float), m=order
        )
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float), coeffs)

    @classmethod
    def uniform(cls) -> "VelocityProfile":
        return cls("uniform", cls._NAMED["uniform"])

    @classmethod
    def couette(cls) -> "VelocityProfile":
        return cls("couette", cls._NAMED["couette"])

    @classmethod
    def poiseuille(cls) -> "VelocityProfile":
        return cls("poiseuille", cls._NAMED["poiseuille"])

    @classmethod
    def blasius(cls) -> "VelocityProfile":
        return cls("blasius", cls._NAMED["blasius"])

    @classmethod
    def custom(cls, coefficients) -> "VelocityProfile":
        return cls("custom", tuple(float(c) for c in coefficients))

    @classmethod
    def named(cls, label: str) -> "VelocityProfile":
        if label not in cls._NAMED:
            raise ValueError(
                f"unknown profile {label!r}; expected one of {sorted(cls._NAMED)}"
            )
        return cls(label, cls._NAMED[label])


@dataclass(frozen=True)
class PhaseTerm:
    """One monomial of the expanded velocity polynomial.

    ``coefficient`` multiplies the advection angle alpha = 2*pi*U*t/L;
    ``y_controls`` are the wall-normal register qubits (0-based within that
    register) whose product gates the streamwise phase pattern.
    """

    coefficient: float
    y_controls: tuple[int, ...]


@functools.lru_cache(maxsize=32)
def _profile_phases(profile: VelocityProfile, n_y: int) -> tuple[PhaseTerm, ...]:
    """Expand u(y)/U over products of wall-normal qubits, exactly.

    Arithmetic runs in Fraction space over the integers 2**r and 2**n - 1, so
    coefficients are exact until the final float conversion.  Profiles beyond
    order 4 are rejected: the term count grows as n_y^h and the named profiles
    all have h <= 2.  The expansion depends on (profile, n_y) only, so the
    last 32 are kept.
    """
    h = profile.order
    if h > MAX_PROFILE_ORDER:
        raise ValueError(
            f"profile order {h} exceeds the practical cap {MAX_PROFILE_ORDER}"
        )
    if n_y == 0:
        if h > 0:
            raise ValueError("a sheared profile needs a wall-normal register")
        return (PhaseTerm(float(profile.coefficients[0]), ()),)
    denom = (1 << n_y) - 1
    terms: dict[frozenset[int], Fraction] = {}
    for m, c in enumerate(profile.coefficients[: h + 1]):
        if c == 0.0:
            continue
        cm = Fraction(c) / Fraction(denom) ** m
        if m == 0:
            terms[frozenset()] = terms.get(frozenset(), Fraction(0)) + cm
            continue
        for combo in itertools.product(range(n_y), repeat=m):
            key = frozenset(combo)
            weight = cm * (1 << sum(combo))
            terms[key] = terms.get(key, Fraction(0)) + weight
    return tuple(PhaseTerm(float(terms[key]), tuple(sorted(key)))
                 for key in sorted(terms, key=lambda s: (len(s), sorted(s)))
                 if terms[key] != 0)


def _streamwise_pattern(n_x: int, coefficient: float, alpha: float, controls) -> list[GateOp]:
    # Signed-mode phase ramp with angle = coefficient*alpha: -angle*2^r on the
    # low qubits, +angle*2^(n-1) on the top one, so mode j picks up -angle*j
    # for j < N/2 and -angle*(j-N) above.  Each phase is (coefficient*2^r)*alpha,
    # as Circuit.bind scales a stage built at alpha = 1, even when subnormal.
    gates = []
    for r in range(n_x - 1):
        gates.append(phase(r, -(coefficient * (1 << r)) * alpha, controls))
    gates.append(phase(n_x - 1, (coefficient * (1 << (n_x - 1))) * alpha, controls))
    return gates


def build_uniform_advection(n_qubits: int, alpha: float) -> Circuit:
    """Phase circuit advecting the streamwise spectrum by alpha = 2*pi*u*t/L.

    Single-qubit phases only; acts on a register already in the Fourier basis.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    return Circuit(n_qubits, _streamwise_pattern(n_qubits, 1.0, alpha, ()))


def build_shear_advection(
    n_x: int, n_y: int, alpha: float, profile: VelocityProfile
) -> Circuit:
    """Advection phases for a polynomial shear profile.

    Acts on n_x + n_y qubits: streamwise register at 0..n_x-1 (Fourier basis),
    wall-normal register at n_x..n_x+n_y-1 (computational basis).  Each
    expansion term emits the streamwise phase ramp controlled on its
    wall-normal qubit product; alpha = 2*pi*U*t/L.
    """
    if n_x < 1:
        raise ValueError(f"need at least one streamwise qubit, got {n_x}")
    if n_y < 0:
        raise ValueError(f"wall-normal register size must be >= 0, got {n_y}")
    circuit = Circuit(n_x + n_y)
    for term in _profile_phases(profile, n_y):
        if term.coefficient == 0.0:
            continue
        controls = tuple((n_x + q, 1) for q in term.y_controls)
        circuit.extend(_streamwise_pattern(n_x, term.coefficient, alpha, controls))
    return circuit


def count_controlled_gates(circuit: Circuit) -> int:
    """Number of gates carrying at least one control (logical count)."""
    return sum(1 for g in circuit.gates if g.controls)


def _two_qubit_cost(n_controls: int) -> int:
    # Standard ancilla-free decomposition of an (c)-controlled single-qubit
    # gate into two-qubit gates: 1 for c=1, 5 for c=2, quadratic growth after.
    if n_controls == 0:
        return 0
    return 2 * n_controls * n_controls - 2 * n_controls + 1


def count_two_qubit_gates(circuit: Circuit) -> int:
    """Two-qubit gate count after decomposing every multi-controlled gate.

    Single-qubit gates cost 0, CNOT costs 1, a swap costs 3 CNOTs, and a
    c-controlled single-qubit gate costs 2c^2 - 2c + 1.
    """
    total = 0
    for g in circuit.gates:
        c = len(g.controls)
        if g.kind is GateKind.SWAP:
            total += 3 * _two_qubit_cost(c + 1)
        elif g.kind is GateKind.CNOT:
            total += 1
        else:
            total += _two_qubit_cost(c)
    return total
