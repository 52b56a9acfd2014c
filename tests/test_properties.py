"""Property tests: transform round trips, QFT adjoint, error_norm invariances,
runs that match the split oracle and read out their checkpoints exactly,
runs that do not depend on what the stage memo already holds, the
per-mode FD10 integrator against its real-space form, config files that
parse to the settings they spell out, and shot counts drawn over the support
that equal numpy's multinomial over the whole register."""

from dataclasses import replace

import numpy as np
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import fd10_direct, random_state_vector
from qadvdiff.advection import VelocityProfile
from qadvdiff.config import RunSettings, parse_config
from qadvdiff.oracles import error_norm, fd10_reference, split_propagation_oracle
from qadvdiff.splitting import (
    ScenarioConfig,
    _shared_stage,
    initial_scalar_field,
    run_scenario,
)
from qadvdiff.state import QuantumState, ShotDistribution, apply_circuit, sample_counts
from qadvdiff.transforms import BoundaryKind, apply_qct, apply_qst, build_qft_circuit

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def register_and_axis(draw):
    """(n_qubits, axis qubits) with a contiguous axis run inside the register."""
    n_qubits = draw(st.integers(1, 7))
    m = draw(st.integers(1, n_qubits))
    lo = draw(st.integers(0, n_qubits - m))
    return n_qubits, list(range(lo, lo + m))


@settings(max_examples=60, deadline=None)
@given(register_and_axis(), SEEDS, st.sampled_from([apply_qct, apply_qst]))
def test_wall_transform_round_trip(layout, seed, transform):
    n_qubits, axis = layout
    state = QuantumState(n_qubits, random_state_vector(n_qubits, seed))
    back = transform(transform(state, axis), axis, inverse=True)
    assert_allclose(back.amplitudes, state.amplitudes, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(register_and_axis(), SEEDS, st.booleans(),
       st.sampled_from([(apply_qct, scipy.fft.dct), (apply_qst, scipy.fft.dst)]))
def test_wall_transform_matches_scipy_on_split_parts(layout, seed, inverse, pair):
    # complex input must equal transforming the real and imaginary parts apart
    transform, reference = pair
    n_qubits, axis = layout
    lo, m = axis[0], len(axis)
    amps = random_state_vector(n_qubits, seed)
    cube = amps.reshape(1 << (n_qubits - lo - m), 1 << m, 1 << lo)
    kw = dict(type=3 if inverse else 2, axis=1, norm="ortho")
    expected = reference(cube.real, **kw) + 1j * reference(cube.imag, **kw)
    out = transform(QuantumState(n_qubits, amps), axis, inverse=inverse)
    assert_allclose(out.amplitudes, expected.reshape(-1), rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), SEEDS)
def test_qft_after_its_inverse_is_identity(n_qubits, seed):
    state = QuantumState(n_qubits, random_state_vector(n_qubits, seed))
    analysis = build_qft_circuit(n_qubits, inverse=True)
    out = apply_circuit(apply_circuit(state, analysis), build_qft_circuit(n_qubits))
    assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), SEEDS,
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_error_norm_ignores_scale_and_layout(n_x, n_y, seed, scale_a, scale_b):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n_x, 1 << n_y))
    b = a + 0.1 * rng.normal(size=a.shape)
    base = error_norm(a, b)
    assert error_norm(a, a) == 0.0
    assert_allclose(error_norm(scale_a * a, scale_b * b), base, rtol=1e-9, atol=1e-14)
    assert_allclose(error_norm(a.ravel(order="F"), b), base, rtol=1e-12, atol=1e-15)
    assert_allclose(error_norm(a, b.ravel(order="F")), base, rtol=1e-12, atol=1e-15)


@st.composite
def small_scenarios(draw):
    """Small valid ScenarioConfigs across every profile, boundary and splitting."""
    n_y = draw(st.integers(0, 2))
    profiles = ["uniform"] if n_y == 0 else ["uniform", "couette", "poiseuille", "blasius"]
    # periodic diffusion needs two qubits on its axis
    walls = [BoundaryKind.NEUMANN, BoundaryKind.DIRICHLET] + (
        [BoundaryKind.PERIODIC] if n_y >= 2 else [])
    splitting = draw(st.sampled_from(["trotter", "strang"]))
    merge = splitting == "strang" and draw(st.booleans())
    return ScenarioConfig(
        n_x=draw(st.integers(2, 3)), n_y=n_y,
        profile=VelocityProfile.named(draw(st.sampled_from(profiles))),
        # few distinct values, so that two drawn scenarios often share stages
        diffusivity=draw(st.sampled_from([0.0, 0.01, 0.05])),
        t_final=draw(st.sampled_from([0.0, 0.5, 1.0])),
        n_steps=draw(st.integers(1, 4)),
        splitting=splitting, merge_strang=merge,
        bc_y=draw(st.sampled_from(walls)),
        checkpoints=1 if merge else 2,
    )


@settings(max_examples=40, deadline=None)
@given(small_scenarios(), small_scenarios())
def test_runs_do_not_depend_on_the_stage_memo(config_a, config_b):
    _shared_stage.cache_clear()
    run_scenario(config_a, initial_scalar_field(config_a))
    after_a = run_scenario(config_b, initial_scalar_field(config_b))
    _shared_stage.cache_clear()
    fresh = run_scenario(config_b, initial_scalar_field(config_b))
    assert np.array_equal(after_a.final_state.amplitudes, fresh.final_state.amplitudes)
    assert after_a.success_prob_history == fresh.success_prob_history
    assert after_a.gate_counts == fresh.gate_counts


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_runs_match_the_split_oracle(config):
    field = initial_scalar_field(config)
    result = run_scenario(config, field)
    oracle_vec, history = split_propagation_oracle(config, field)
    assert error_norm(result.final_state, oracle_vec) < 1e-12
    assert_allclose(result.success_prob, np.prod(history), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_scenarios().filter(lambda config: not config.merge_strang))
def test_each_checkpoint_is_the_final_state_of_a_shorter_run(config):
    # every checkpoint is read out of the spectral state by its own inverse QFT
    config = replace(config, checkpoints=config.n_steps)
    field = initial_scalar_field(config)
    result = run_scenario(config, field)
    assert [i for i, _ in result.checkpoint_states] == list(range(config.n_steps + 1))
    for i, vec in result.checkpoint_states[1:]:
        shorter = run_scenario(replace(config, n_steps=i, t_final=i * config.dt), field)
        assert_allclose(vec, shorter.final_state.amplitudes, rtol=0, atol=1e-13)


# speeds and coefficients on a 0.1 grid: no product underflows to a
# subnormal speed, whose CFL limit overflows
SPEEDS = st.integers(-15, 15).map(lambda i: i / 10)


@st.composite
def fd10_scenarios(draw):
    """Small FD10 scenarios: every wall kind, named and custom profiles."""
    n_y = draw(st.integers(0, 4))
    # a 1D run takes only profiles of order 0
    named = ["uniform"] if n_y == 0 else ["uniform", "couette", "poiseuille", "blasius"]
    profiles = st.sampled_from(named).map(VelocityProfile.named) | st.lists(
        SPEEDS, min_size=1, max_size=1 if n_y == 0 else 3).map(VelocityProfile.custom)
    return ScenarioConfig(
        n_x=draw(st.integers(2, 4)), n_y=n_y, profile=draw(profiles),
        diffusivity=draw(st.integers(0, 50)) / 1000,
        t_final=draw(st.floats(0.0, 0.5)),
        velocity_scale=draw(SPEEDS),
        bc_y=draw(st.sampled_from(list(BoundaryKind))),
    )


@settings(max_examples=40, deadline=None)
@given(fd10_scenarios(), SEEDS)
def test_fd10_modes_match_the_real_space_integrator(config, seed):
    size = config.nx_points * config.ny_points
    field = np.random.default_rng(seed).normal(size=size)
    expected = fd10_direct(config, field)
    values = fd10_reference(config, field).values
    assert values.shape == expected.shape
    assert_allclose(values, expected, rtol=0, atol=1e-11 * np.max(np.abs(expected)))


FINITE = dict(allow_nan=False, allow_infinity=False)
NAMED_PROFILES = ("uniform", "couette", "poiseuille", "blasius")


@st.composite
def config_files(draw):
    """(config text, the RunSettings it spells out), every key drawn.

    Optional keys are left out at random (their default applies), the lines
    are shuffled, floats are written with repr, and comments and blank lines
    are mixed in.
    """
    n_y = draw(st.integers(0, 3))
    coefficient = st.floats(-5.0, 5.0, **FINITE)
    if n_y:
        profile = draw(st.sampled_from(NAMED_PROFILES).map(VelocityProfile.named)
                       | st.lists(coefficient, min_size=1, max_size=5)
                       .map(VelocityProfile.custom))
    else:
        # a 1D run only takes order-0 profiles; trailing zeros keep order 0
        profile = draw(st.just(VelocityProfile.uniform()) | st.builds(
            lambda c, zeros: VelocityProfile.custom([c] + [0.0] * zeros),
            coefficient, st.integers(0, 3)))
    splitting = draw(st.sampled_from(["trotter", "strang"]))
    n_x = draw(st.integers(2, 6))
    size = (1 << n_x) * ((1 << n_y) if n_y else 1)
    scenario = ScenarioConfig(
        n_x=n_x, n_y=n_y, profile=profile,
        diffusivity=draw(st.floats(0.0, 1.0, **FINITE)),
        t_final=draw(st.floats(0.0, 10.0, **FINITE)),
        n_steps=draw(st.integers(1, 64)),
        length=draw(st.floats(0.0, 100.0, exclude_min=True, **FINITE)),
        velocity_scale=draw(st.floats(-10.0, 10.0, **FINITE)),
        splitting=splitting,
        bc_y=draw(st.sampled_from(list(BoundaryKind))),
        checkpoints=draw(st.integers(1, 20)),
        merge_strang=splitting == "strang" and draw(st.booleans()),
    )
    initial = draw(st.sampled_from(["gaussian", "uniform"])
                   | st.integers(0, size - 1).map("basis:{}".format))
    reference = draw(st.sampled_from(["auto", "oracle", "analytic", "fd10", "none"]))
    if profile.label == "custom":
        profile_text = "[" + ", ".join(map(repr, profile.coefficients)) + "]"
    else:
        profile_text = profile.label
    required = {"n_x": str(n_x), "profile": profile_text,
                "D": repr(scenario.diffusivity), "t_final": repr(scenario.t_final)}
    optional = {
        "n_y": str(n_y), "L": repr(scenario.length),
        "U": repr(scenario.velocity_scale), "steps": str(scenario.n_steps),
        "splitting": splitting, "bc_x": "periodic", "bc_y": scenario.bc_y.value,
        "checkpoints": str(scenario.checkpoints),
        "merge_strang": draw(st.sampled_from([str.lower, str.upper, str.title]))(
            str(scenario.merge_strang)),
        "initial": initial, "reference": reference,
    }
    defaults = ScenarioConfig(n_x, 0, VelocityProfile.uniform(), 0.0, 0.0)
    omittable = {"n_y": n_y == 0, "L": scenario.length == defaults.length,
                 "U": scenario.velocity_scale == defaults.velocity_scale,
                 "steps": scenario.n_steps == defaults.n_steps,
                 "splitting": splitting == defaults.splitting, "bc_x": True,
                 "bc_y": scenario.bc_y is defaults.bc_y,
                 "checkpoints": scenario.checkpoints == defaults.checkpoints,
                 "merge_strang": not scenario.merge_strang,
                 "initial": initial == "gaussian", "reference": reference == "auto"}
    keys = list(required) + [k for k in optional
                             if not (omittable[k] and draw(st.booleans()))]
    values = {**required, **optional}
    spacing = st.sampled_from(["", " ", "  ", "\t"])
    comment = st.sampled_from(["", "  # trailing note", "# x = 1"])
    lines = []
    for key in draw(st.permutations(keys)):
        lines.extend(draw(st.lists(st.sampled_from(["", "   ", "# comment", "#n_x = 99"]),
                                   max_size=2)))
        lines.append(f"{draw(spacing)}{key}{draw(spacing)}={draw(spacing)}"
                     f"{values[key]}{draw(comment)}")
    return "\n".join(lines) + "\n", RunSettings(scenario, initial, reference)


@settings(max_examples=60, deadline=None)
@given(config_files())
def test_configs_round_trip_through_parse_config(case):
    text, expected = case
    assert parse_config(text) == expected


SUPPORT_SHAPES = ("sparse, last bin zero", "sparse, last bin nonzero",
                  "one bin", "one bin, the last", "dense")


@st.composite
def sampled_states(draw):
    """(state, support shape): unnormalized states of every shape the shot
    draw tells apart, with probabilities spread over many decades."""
    n_qubits = draw(st.integers(1, 10))
    size = 1 << n_qubits
    rng = np.random.default_rng(draw(SEEDS))
    scale = 10.0 ** rng.uniform(-6, 0, size)
    amps = (rng.normal(size=size) + 1j * rng.normal(size=size)) * scale
    shape = draw(st.sampled_from(SUPPORT_SHAPES))
    keep = np.ones(size, dtype=bool)
    if shape.startswith("sparse"):
        keep = rng.random(size) < draw(st.floats(0.0, 1.0))
        # one other bin is set against the last, so some bin is 0 and some is not
        last = shape.endswith("nonzero")
        keep[draw(st.integers(0, size - 2))] = not last
        keep[-1] = last
    elif shape.startswith("one bin"):
        keep[:] = False
        keep[size - 1 if shape.endswith("last") else draw(st.integers(0, size - 2))] = True
    return QuantumState(n_qubits, np.where(keep, amps, 0.0)), shape


@settings(max_examples=150, deadline=None)
@given(sampled_states(), st.integers(1, 10**15), SEEDS)
@example((QuantumState(2, np.sqrt([1.0, 1e-12, 0.0, 0.0]) + 0j), "sparse, last bin zero"),
         10**15, 4)
def test_support_draw_is_numpys_multinomial_bit_for_bit(case, shots, seed):
    # the support-only draw rests on numpy's conditional-binomial multinomial
    # taking no random draw for a bin of probability 0; this pins it
    state, shape = case
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    expected = np.random.default_rng(seed).multinomial(shots, probs)
    assert np.array_equal(sample_counts(state, shots, seed), expected)
    kept = ShotDistribution.of(state)
    assert (kept.support is None) == (shape == "dense")
    assert np.array_equal(sample_counts(kept, shots, seed), expected)
