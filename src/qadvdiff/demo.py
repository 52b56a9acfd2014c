"""End-to-end demonstration circuit sized for real quantum hardware.

The circuit prepares the three-mode Fourier-space state with amplitudes
sqrt(2/3), sqrt(1/6), sqrt(1/6), advects it by a quarter pass (alpha = -pi/2),
applies one periodic diffusion step that halves the j = +-1 modes
(beta = ln 2), and returns to physical space with the swap-complete synthesis
QFT.  Unlike the simulation path, every damping factor gets its own fresh
ancilla so the whole sequence can run before any measurement; postselecting
all ancillas on |0> succeeds with probability 3/4.

``run_demo`` reads two things from the deferred-measurement joint state: the
block where every ancilla reads 0 (2^n amplitudes) and the distribution its
shots are drawn from.  Both depend only on (n, alpha, beta), so
``_joint_state`` keeps them for the last parameter set it simulated (an LRU
cache of one entry, read-only arrays) and every seed of a repeated experiment
samples from them.  The joint register itself (2^(n + ancillas) amplitudes,
16 MB at n = 5) is dropped: of its 2^20 probabilities at n = 5 only 96 are
nonzero, and the kept distribution holds just those and the last bin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .advection import build_uniform_advection
from .diffusion import periodic_damping_terms
from .state import (
    Circuit,
    QuantumState,
    ShotDistribution,
    _check_register_size,
    _check_shots,
    apply_circuit,
    build_fourier_initial_state,
    cnot,
    damping,
    new_state,
    sample_counts,
)
from .transforms import build_qft_circuit

DEMO_ALPHA = -np.pi / 2.0
DEMO_BETA = float(np.log(2.0))


def demo_ancilla_count(n_qubits: int) -> int:
    """Fresh ancillas needed by one periodic diffusion block: one per factor."""
    if n_qubits < 2:
        raise ValueError(f"demo register needs >= 2 qubits, got {n_qubits}")
    return len(periodic_damping_terms(n_qubits, 1.0))


def build_demo_circuit(
    n_qubits: int, alpha: float = DEMO_ALPHA, beta: float = DEMO_BETA
) -> Circuit:
    """Full demo circuit on n_qubits + demo_ancilla_count(n_qubits) qubits.

    Main register holds qubits 0..n-1 (Fourier space until the closing QFT);
    ancillas follow in damping-term order.
    """
    total = n_qubits + demo_ancilla_count(n_qubits)
    ancillas = frozenset(range(n_qubits, total))
    circuit = Circuit(total, ancilla_indices=ancillas)
    circuit.extend(build_fourier_initial_state(n_qubits).gates)
    circuit.extend(build_uniform_advection(n_qubits, alpha).gates)
    top = n_qubits - 1
    for r in range(top):
        circuit.add(cnot(top, r))
    for i, term in enumerate(periodic_damping_terms(n_qubits, beta)):
        controls = tuple((q, 1) for q in term.controls)
        circuit.add(damping(n_qubits + i, term.gamma, controls))
    for r in range(top - 1, -1, -1):
        circuit.add(cnot(top, r))
    circuit.extend(build_qft_circuit(n_qubits).gates)
    return circuit


def three_sigma_band(probs: np.ndarray, counts: np.ndarray, shots: int):
    """Sampled amplitudes sqrt(counts/shots) and their 3-sigma band.

    The band is sqrt(p -+ 3*sigma) with the per-bin binomial deviation
    sigma = sqrt(p(1-p)/shots).  Returns (sampled, lo, hi, inside) where
    ``inside`` is the fraction of bins whose sampled amplitude lies in the band.
    """
    sampled = np.sqrt(counts / shots)
    sigma = np.sqrt(probs * (1.0 - probs) / shots)
    lo = np.sqrt(np.clip(probs - 3.0 * sigma, 0.0, None))
    hi = np.sqrt(probs + 3.0 * sigma)
    inside = float(np.mean((sampled >= lo) & (sampled <= hi)))
    return sampled, lo, hi, inside


@functools.lru_cache(maxsize=1)
def _joint_state(n_qubits: int, alpha: float,
                 beta: float) -> tuple[np.ndarray, ShotDistribution]:
    """Kept block and shot distribution of the demo's joint register.

    The gates run with no ancillas declared (all stored).  Only the first
    2^n amplitudes (all ancillas 0) and the shot distribution over the
    nonzero joint probabilities outlive the call; both are read-only.
    """
    circuit = build_demo_circuit(n_qubits, alpha, beta)
    joint = apply_circuit(new_state(circuit.n_qubits),
                          Circuit(circuit.n_qubits, list(circuit.gates)))
    block = joint.amplitudes[: 1 << n_qubits].copy()
    block.flags.writeable = False
    return block, ShotDistribution.of(joint)


@dataclass
class DemoResult:
    """Ideal and sampled views of one demo execution."""

    n_qubits: int
    circuit: Circuit
    ideal_amplitudes: np.ndarray
    success_prob: float
    sampled_amplitudes: np.ndarray
    lo_3sigma: np.ndarray
    hi_3sigma: np.ndarray
    inside_band_fraction: float


def run_demo(
    n_qubits: int,
    shots: int,
    seed: int,
    alpha: float = DEMO_ALPHA,
    beta: float = DEMO_BETA,
) -> DemoResult:
    """Simulate the demo circuit and reconstruct it from sampled shots.

    Every qubit is measured, as on hardware: the shots are drawn from the
    joint register's distribution without projecting the ancillas, and a
    shot with any ancilla reading 1 is discarded by keeping only the first
    2^n joint indices.  Reported amplitudes are therefore unnormalized
    (their squared norm is the success probability); see three_sigma_band
    for the bands.  ``shots`` must be a positive integer.

    The kept block and the shot distribution of the last (n, alpha, beta)
    are memoized (see the module docstring); the circuit is built anew and
    the register size checked on each call.  ``sample_counts`` draws the
    same counts from that distribution as from the full register (see
    there why).
    """
    shots = _check_shots(shots)
    circuit = build_demo_circuit(n_qubits, alpha, beta)
    _check_register_size(circuit.n_qubits)
    block, shot_dist = _joint_state(n_qubits, alpha, beta)
    if np.max(np.abs(block.imag)) > 1e-10:
        raise RuntimeError("demo block should be real up to roundoff")
    ideal = block.real.copy()
    success = float(np.sum(ideal**2))
    counts = sample_counts(shot_dist, shots, seed)[: block.size]
    sampled, lo, hi, inside = three_sigma_band(ideal**2, counts, shots)
    return DemoResult(
        n_qubits=n_qubits,
        circuit=circuit,
        ideal_amplitudes=ideal,
        success_prob=success,
        sampled_amplitudes=sampled,
        lo_3sigma=lo,
        hi_3sigma=hi,
        inside_band_fraction=inside,
    )


def ideal_demo_state(n_qubits: int, alpha: float = DEMO_ALPHA,
                     beta: float = DEMO_BETA) -> QuantumState:
    """Postselected state of the n main qubits (the ancillas are never stored)."""
    return apply_circuit(new_state(n_qubits), build_demo_circuit(n_qubits, alpha, beta))


def format_circuit_listing(circuit: Circuit) -> str:
    """Render a circuit as stable text, one gate per line.

    Grammar: ``GATE <kind> <target> [<qubit>:<value> ...] <param>`` with the
    swap partner appearing as ``partner=<qubit>`` between target and controls.
    """
    lines = [f"QUBITS {circuit.n_qubits}"]
    if circuit.ancilla_indices:
        anc = " ".join(str(q) for q in sorted(circuit.ancilla_indices))
        lines.append(f"ANCILLAS {anc}")
    for gate in circuit.gates:
        fields = ["GATE", gate.kind.value, str(gate.target)]
        if gate.partner is not None:
            fields.append(f"partner={gate.partner}")
        controls = " ".join(f"{q}:{v}" for q, v in gate.controls)
        fields.append(f"[{controls}]")
        fields.append(f"{gate.param:.17g}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
