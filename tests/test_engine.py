"""The compiled statevector engine against gate-by-gate dense execution."""

import math

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
    GateKind,
    GateOp,
    QuantumState,
    apply_circuit,
    build_fourier_initial_state,
    cnot,
    damping,
    hadamard,
    phase,
    remap_circuit,
    swap,
)
from qadvdiff.transforms import BoundaryKind, build_qft_circuit

TOL = 1e-13


def assert_matches_reference(circuit: Circuit, seed: int) -> None:
    """The engine against dense execution, as declared and as an undeclared copy.

    As declared, the engine runs on a main-register state and the reference
    on that state with every ancilla (the top qubits) in |0>; the reference's
    ancilla half must stay empty and its main block must match.  The copy
    declares no ancillas, so both store and run every qubit.  Where the
    reference projects onto an empty branch, the engine must raise.
    """
    variants = [circuit, undeclared(circuit)] if circuit.ancilla_indices else [circuit]
    for variant in variants:
        n_main = variant.n_qubits - len(variant.ancilla_indices)
        vec = random_state_vector(n_main, seed)
        joint = np.zeros(1 << variant.n_qubits, dtype=complex)
        joint[:vec.size] = vec
        with np.errstate(invalid="ignore"):
            expected, success = reference_apply(variant, joint)
        if not success > 0.0:
            with pytest.raises(ValueError, match="postselection impossible"):
                apply_circuit(QuantumState(n_main, vec.copy()), variant)
            continue
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
    # 3x3 grids, where the x QFT and the periodic y QFT fuse into dense steps
    dict(n_y=3),
    dict(n_y=3, bc_y=BoundaryKind.PERIODIC),
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


@st.composite
def engine_circuits(draw):
    """Random circuits over every kind of step the engine compiles.

    Blocks of deferred CNOT and swap gates (with 0- and 1-controls, swaps
    also uncontrolled) alternate with runs of phases, Hadamards or damping
    gates on declared ancillas; phases and Hadamards carry 0- and
    1-controls.  Damping exponents include 1e17 and inf (the projection
    damping(a, inf)).  A frame is sometimes undone in reverse right after
    its run, as the periodic damping ladder is, and the circuit always ends
    on a frame of its own.
    """
    n_main = draw(st.integers(1, 4))
    n_qubits = n_main + draw(st.integers(0, 2))
    ancillas = range(n_main, n_qubits)

    def controls(qubits):
        chosen = draw(st.lists(st.sampled_from(qubits), unique=True)) if qubits else []
        return tuple((q, draw(st.integers(0, 1))) for q in chosen)

    def frame():
        gates = []
        for _ in range(draw(st.integers(0, 3)) if n_main > 1 else 0):
            order = draw(st.permutations(range(n_main)))
            if draw(st.booleans()):
                gates.append(GateOp(GateKind.CNOT, order[0],
                                    ((order[1], draw(st.integers(0, 1))),)))
            else:
                gates.append(GateOp(GateKind.SWAP, order[0], controls(order[2:]),
                                    partner=order[1]))
        return gates

    gates = []
    for _ in range(draw(st.integers(0, 6))):
        deferred = frame()
        gates += deferred
        kind = draw(st.sampled_from(["phase", "hadamard"] + ["damping"] * bool(ancillas)))
        for _ in range(draw(st.integers(1, 3))):
            if kind == "damping":
                gates.append(damping(draw(st.sampled_from(ancillas)),
                                     draw(st.floats(0.0, 3.0)
                                          | st.sampled_from([1e17, math.inf])),
                                     controls(list(range(n_main)))))
                continue
            order = draw(st.permutations(range(n_main)))
            if kind == "phase":
                gates.append(phase(order[0], draw(st.floats(-7.0, 7.0)), controls(order[1:])))
            else:
                gates.append(hadamard(order[0], controls(order[1:])))
        if draw(st.booleans()):
            gates += deferred[::-1]
    gates += frame()
    return Circuit(n_qubits, gates, frozenset(ancillas))


@settings(max_examples=150, deadline=None)
@given(engine_circuits(), st.integers(0, 2**32 - 1))
def test_random_circuits_match_the_reference(circuit, seed):
    assert_matches_reference(circuit, seed)


@settings(max_examples=100, deadline=None)
@given(engine_circuits().filter(lambda c: all(math.isfinite(g.param) for g in c.gates)),
       st.floats(0.0, 4.0), st.integers(0, 2**32 - 1))
def test_bound_circuits_match_the_reference(circuit, value, seed):
    # the rescaled program against dense execution of the scaled gates
    assert_matches_reference(circuit.bind(value), seed)


@st.composite
def narrow_window_circuits(draw):
    """``unitary_circuits`` on a window of w qubits of a register of 2w to 8.

    The window sits at the bottom, in the middle or at the top of the
    register, so the dense step runs each of its register layouts; Hadamards
    on its edge qubits open the circuit.
    """
    inner = draw(unitary_circuits().filter(lambda c: c.n_qubits <= 4))
    width = inner.n_qubits
    n_qubits = draw(st.integers(2 * width, 8))
    lo = {"bottom": 0, "middle": (n_qubits - width) // 2, "top": n_qubits - width}[
        draw(st.sampled_from(["bottom", "middle", "top"]))]
    circuit = Circuit(width, [hadamard(0), hadamard(width - 1), *inner.gates])
    return remap_circuit(circuit, {q: lo + q for q in range(width)}, n_qubits)


@settings(max_examples=80, deadline=None)
@given(narrow_window_circuits(), st.floats(-4.0, 4.0), st.integers(0, 2**32 - 1))
def test_narrow_window_circuits_match_the_reference(circuit, value, seed):
    assert [step.__qualname__ for step in circuit._program()] == [
        "_dense_step.<locals>.step"]
    assert_matches_reference(circuit, seed)
    assert_matches_reference(circuit.bind(value), seed)


def test_qft_stages_fuse_and_diagonal_stages_do_not():
    stepper = _Stepper(_scenario(n_x=6, n_y=6), 0.25)
    for stage in (stepper.qft_fwd, stepper.qft_bwd):
        assert [step.__qualname__ for step in stage.circuit._program()] == [
            "_dense_step.<locals>.step"]
    for stage in (stepper.adv_full, stepper.diff_x, stepper.diff_y):
        assert "_dense_step.<locals>.step" not in [
            step.__qualname__ for step in stage.circuit._program()]
    # the demo's joint circuit spans its whole register
    assert "_dense_step.<locals>.step" not in [
        step.__qualname__ for step in undeclared(build_demo_circuit(5))._program()]


class TestBind:
    def test_a_bound_dense_step_rebuilds_its_matrix(self):
        # the fused block's matrix must come from the scaled phase, not be
        # shared unscaled with the source program
        assert_matches_reference(
            Circuit(4, [hadamard(0), phase(1, 0.5, ((0, 1),))]).bind(2.0), seed=0)

    def test_bound_gates_scale_phases_and_damping_only(self):
        circuit = Circuit(3, [hadamard(0), phase(1, 0.5, ((0, 1),)), cnot(0, 1),
                              damping(2, 0.25, ((1, 1),))], frozenset({2}))
        bound = circuit.bind(3.0)
        assert [g.param for g in bound.gates] == [0.0, 1.5, 0.0, 0.75]
        assert bound.n_qubits == 3 and bound.ancilla_indices == frozenset({2})
        # parameter-free steps are shared with the source program
        assert bound.steps[0] is circuit._program()[0]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_value_is_named(self, value):
        with pytest.raises(ValueError, match="alpha must be finite"):
            build_shear_advection(2, 1, 1.0, VelocityProfile.named("couette")).bind(
                value, "alpha")

    def test_damping_rejects_a_negative_value(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            build_periodic_diffusion(2, 1.0).bind(-0.5, "beta")
        assert build_uniform_advection(2, 1.0).bind(-0.5).value == -0.5

    def test_damping_on_a_stored_qubit_cannot_be_rescaled(self):
        with pytest.raises(ValueError, match="cannot rescale"):
            undeclared(build_periodic_diffusion(2, 1.0)).bind(2.0)


class TestDeferredFrame:
    def test_damping_under_a_frame_still_names_its_ancilla(self):
        # cnot(1, 0) sends |10> to |11>, where the damping empties the
        # register; without the frame |10> would pass untouched.
        circuit = Circuit(3, [cnot(1, 0), damping(2, float("inf"), ((0, 1),)), cnot(1, 0)],
                          frozenset({2}))
        vec = np.zeros(4, dtype=complex)
        vec[0b10] = 1.0
        with pytest.raises(ValueError, match="postselection impossible: ancilla 2"):
            apply_circuit(QuantumState(2, vec), circuit)

    @pytest.mark.parametrize("gates", [
        [damping(2, math.inf, ((0, 0),)), damping(2, math.inf, ((1, 1),))],
        [cnot(1, 0), damping(2, math.inf, ((0, 0),)), cnot(1, 0)],
        [damping(2, 1e17, ((0, 0),)), damping(2, 1.0, ((0, 1),))],
    ], ids=["inf", "inf-under-a-frame", "large-next-to-small"])
    def test_damping_runs_with_0_controls_sum_exactly(self, gates):
        # Each term adds only where its pins hold: an inf exponent never
        # meets a -inf (NaN) and 1.0 is not lost next to 1e17.
        circuit = Circuit(3, gates, frozenset({2}))
        out = apply_circuit(QuantumState(2, random_state_vector(2, 7)), circuit)
        assert np.all(np.isfinite(out.amplitudes)) and math.isfinite(out.success_prob)
        assert_matches_reference(circuit, 7)

    def test_periodic_damping_ladder_is_one_step(self):
        program = build_periodic_diffusion(6, 0.1)._program()
        assert [step.__qualname__ for step in program] == [
            "_projected_damping_step.<locals>.step"]

    @pytest.mark.parametrize("n_qubits", [2, 5, 6])
    def test_qft_closes_with_its_swaps(self, n_qubits):
        program = build_qft_circuit(n_qubits)._program()
        swaps = n_qubits // 2
        assert len(program) == 2 * n_qubits - 1 + swaps
        assert [step.__qualname__ for step in program[-swaps:]] == [
            "_exchange.<locals>.step"] * swaps
        assert "_exchange.<locals>.step" not in [
            step.__qualname__ for step in program[:-swaps]]
