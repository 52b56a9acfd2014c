"""The compiled statevector engine against gate-by-gate dense execution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import reference_apply, random_state_vector, undeclared
from qadvdiff.advection import (
    VelocityProfile,
    build_shear_advection,
    build_uniform_advection,
)
from qadvdiff.demo import build_demo_circuit
from qadvdiff.diffusion import build_halfspectrum_diffusion, build_periodic_diffusion
from qadvdiff.splitting import ScenarioConfig, _Stepper
from qadvdiff.state import (
    Circuit,
    QuantumState,
    apply_circuit,
    build_fourier_initial_state,
    cnot,
    damping,
    hadamard,
    phase,
    swap,
)
from qadvdiff.transforms import BoundaryKind, build_qft_circuit

TOL = 1e-13


def assert_matches_reference(circuit: Circuit, seed: int) -> None:
    """The engine against dense execution, as declared and as an undeclared copy.

    As declared, the engine runs on a main-register state and the reference
    on that state with every ancilla (the top qubits) in |0>; the reference's
    ancilla half must stay empty and its main block must match.  The copy
    declares no ancillas, so both store and run every qubit.
    """
    variants = [circuit, undeclared(circuit)] if circuit.ancilla_indices else [circuit]
    for variant in variants:
        n_main = variant.n_qubits - len(variant.ancilla_indices)
        vec = random_state_vector(n_main, seed)
        joint = np.zeros(1 << variant.n_qubits, dtype=complex)
        joint[:vec.size] = vec
        expected, success = reference_apply(variant, joint)
        out = apply_circuit(QuantumState(n_main, vec.copy()), variant)
        assert_allclose(expected[vec.size:], 0.0, rtol=0, atol=TOL)
        assert_allclose(out.amplitudes, expected[:vec.size], rtol=0, atol=TOL)
        assert_allclose(out.success_prob, success, rtol=0, atol=TOL)


def stepper_stages(config: ScenarioConfig) -> list[Circuit]:
    stepper = _Stepper(config, config.dt)
    names = ("qft_fwd", "qft_bwd", "adv_full", "adv_half", "diff_x",
             "y_fwd", "y_bwd", "diff_y")
    stages = [getattr(stepper, name) for name in names]
    return [stage.circuit for stage in stages if stage is not None]


def _scenario(**overrides) -> ScenarioConfig:
    base = dict(n_x=3, n_y=2, profile=VelocityProfile.named("poiseuille"),
                diffusivity=0.05, t_final=0.5, n_steps=2)
    base.update(overrides)
    return ScenarioConfig(**base)


BUILDERS = {
    "qft1": lambda: build_qft_circuit(1),
    "qft2": lambda: build_qft_circuit(2),
    "qft4": lambda: build_qft_circuit(4),
    "qft4_inverse": lambda: build_qft_circuit(4, inverse=True),
    "uniform_advection": lambda: build_uniform_advection(4, 0.7),
    **{
        f"shear_{label}": (lambda label=label: build_shear_advection(
            3, 3, 0.9, VelocityProfile.named(label)))
        for label in ("uniform", "couette", "poiseuille", "blasius")
    },
    "periodic_diffusion2": lambda: build_periodic_diffusion(2, 0.3),
    "periodic_diffusion4": lambda: build_periodic_diffusion(4, 0.05),
    **{
        f"{kind.value}_diffusion{n}": (lambda kind=kind, n=n: build_halfspectrum_diffusion(
            n, 0.2, kind))
        for kind in (BoundaryKind.NEUMANN, BoundaryKind.DIRICHLET)
        for n in (1, 2, 4)
    },
    "fourier_initial_state": lambda: build_fourier_initial_state(4),
    "demo3": lambda: build_demo_circuit(3),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("seed", [0, 1])
def test_builder_matches_reference(name, seed):
    assert_matches_reference(BUILDERS[name](), seed)


@pytest.mark.parametrize("overrides", [
    dict(splitting="trotter"),
    dict(splitting="strang"),
    dict(splitting="strang", merge_strang=True, checkpoints=1),
    dict(bc_y=BoundaryKind.DIRICHLET),
    dict(bc_y=BoundaryKind.PERIODIC, profile=VelocityProfile.named("couette")),
    dict(n_y=0, profile=VelocityProfile.uniform()),
])
def test_stepper_stages_match_reference(overrides):
    for i, circuit in enumerate(stepper_stages(_scenario(**overrides))):
        assert_matches_reference(circuit, seed=i)


@pytest.mark.parametrize("gates, ancillas", [
    ([phase(0, 0.4), hadamard(0), damping(0, 0.3), phase(0, -1.1)], {0}),
    ([hadamard(0), damping(0, 0.3), damping(0, 0.6)], set()),
    ([phase(1, 0.8, controls=((0, 1),)), hadamard(1, controls=((0, 0),)),
      cnot(1, 0), swap(0, 1), damping(1, 0.5, controls=((0, 1),)),
      damping(1, 0.2, controls=((0, 0),))], {1}),
])
def test_gates_pinning_every_qubit(gates, ancillas):
    n_qubits = 1 + max(max(g.target, *(q for q, _ in g.controls),
                           g.partner or 0) for g in gates)
    circuit = Circuit(n_qubits, list(gates), frozenset(ancillas))
    # Both cases with an ancilla also touch it with other gates, which only
    # a circuit that declares no ancillas runs.
    for seed in range(3):
        assert_matches_reference(undeclared(circuit) if ancillas else circuit, seed)
    if ancillas:
        state = QuantumState(n_qubits, random_state_vector(n_qubits, 0))
        with pytest.raises(ValueError, match="projected ancilla"):
            apply_circuit(state, circuit)


@pytest.mark.parametrize("n_qubits, gates, ancilla", [
    (2, [damping(0, 0.3, controls=((1, 1),))], 0),
    (3, [damping(2, 0.3), phase(0, 0.5, controls=((2, 1),))], 2),
    (3, [damping(2, 0.3, controls=((0, 1),)), damping(1, 0.2, controls=((2, 1),))], 2),
    (2, [hadamard(1), damping(1, 0.3, controls=((0, 1),))], 1),
    (2, [damping(1, 0.3, controls=((0, 1),)), swap(0, 1)], 1),
    (2, [cnot(0, 1)], 1),
], ids=["below_top", "control", "damping_control", "hadamard", "swap", "cnot_target"])
def test_projection_rejects_touched_or_low_ancillas(n_qubits, gates, ancilla):
    circuit = Circuit(n_qubits, gates, frozenset({ancilla}))
    for size in (n_qubits - 1, n_qubits):
        state = QuantumState(size, random_state_vector(size, 4))
        with pytest.raises(ValueError, match="projected ancilla"):
            apply_circuit(state, circuit)
    assert_matches_reference(undeclared(circuit), seed=4)


def test_projection_rejects_a_joint_size_state():
    circuit = build_periodic_diffusion(2, 0.3)
    state = QuantumState(3, random_state_vector(3, 5))
    with pytest.raises(ValueError, match="needs 2 qubits, got 3"):
        apply_circuit(state, circuit)
    assert apply_circuit(state, undeclared(circuit)).n_qubits == 3


def test_extending_a_circuit_recompiles_it():
    circuit = Circuit(3, ancilla_indices=frozenset({2}))
    circuit.extend([hadamard(0), phase(1, 0.5, controls=((0, 1),)),
                    damping(2, 0.4, controls=((0, 1),))])
    assert_matches_reference(circuit, seed=3)
    circuit.add(damping(2, 0.7, controls=((1, 1),)))
    circuit.add(phase(0, 1.3))
    assert_matches_reference(circuit, seed=3)


@st.composite
def unitary_circuits(draw):
    """Random circuits of phase, Hadamard, CNOT and swap gates, with controls."""
    n_qubits = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        order = draw(st.permutations(range(n_qubits)))
        kinds = ["phase", "hadamard"] + (["cnot", "swap"] if n_qubits > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "cnot":
            gates.append(cnot(order[1], order[0]))
        elif kind == "swap":
            gates.append(swap(order[0], order[1]))
        else:
            spare = order[1:draw(st.integers(1, n_qubits))]
            controls = tuple((q, draw(st.integers(0, 1))) for q in spare)
            if kind == "phase":
                gates.append(phase(order[0], draw(st.floats(-7.0, 7.0)), controls))
            else:
                gates.append(hadamard(order[0], controls))
    return Circuit(n_qubits, gates)


@settings(max_examples=80, deadline=None)
@given(unitary_circuits(), st.integers(0, 2**32 - 1))
def test_circuits_without_damping_preserve_the_norm(circuit, seed):
    state = QuantumState(circuit.n_qubits, random_state_vector(circuit.n_qubits, seed))
    out = apply_circuit(state, circuit)
    assert abs(out.norm() - 1.0) <= 1e-12
