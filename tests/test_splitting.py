"""Splitting driver: scenario configs, step pipeline, oracle equivalence."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qadvdiff.advection import (
    VelocityProfile,
    build_shear_advection,
    count_controlled_gates,
    count_two_qubit_gates,
)
from qadvdiff.diffusion import build_halfspectrum_diffusion, build_periodic_diffusion
from qadvdiff import splitting
from qadvdiff.oracles import (
    diagonal_propagator_oracle,
    error_norm,
    split_propagation_oracle,
)
from qadvdiff.splitting import (
    _STAGE_MEMO_SIZE,
    RunResult,
    ScenarioConfig,
    _advection_stage,
    _shared_stage,
    _Stepper,
    commutator_error_estimate,
    initial_scalar_field,
    run_scenario,
    x_coordinates,
    y_coordinates,
)
from qadvdiff.state import BoundCircuit, QuantumState, apply_circuit
from qadvdiff.transforms import BoundaryKind, build_qft_circuit, wavenumbers


def make_config(**overrides):
    base = dict(n_x=4, n_y=0, profile=VelocityProfile.uniform(),
                diffusivity=0.05, t_final=0.5)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_derived_quantities(self):
        config = make_config(n_x=5, t_final=2.0, n_steps=8, diffusivity=0.004,
                             velocity_scale=2.0)
        assert config.dt == 0.25
        assert config.nx_points == 32
        assert config.ny_points == 1
        assert config.peclet() == pytest.approx(500.0)
        assert config.fourier() == pytest.approx(0.008)

    def test_zero_diffusivity_gives_infinite_peclet(self):
        assert make_config(diffusivity=0.0).peclet() == np.inf

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(n_x=1), ">= 2 qubits"),
            (dict(n_y=-1), ">= 0"),
            (dict(diffusivity=float("nan")), "finite"),
            (dict(splitting="euler"), "splitting"),
            (dict(diffusivity=-0.1), "diffusivity"),
            (dict(t_final=-1.0), "t_final"),
            (dict(n_steps=0), "n_steps"),
            (dict(length=0.0), "length"),
            (dict(checkpoints=0), "checkpoints"),
            (dict(profile=VelocityProfile.couette()), "wall-normal"),
            (dict(merge_strang=True), "merge_strang"),
            (dict(t_final=float("inf")), "finite"),
            (dict(length=float("nan")), "finite"),
            (dict(velocity_scale=float("-inf")), "finite"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            make_config(**overrides)


class TestGridsAndInitialFields:
    def test_streamwise_nodes_exclude_endpoint(self):
        config = make_config(n_x=3, length=2.0)
        assert_allclose(x_coordinates(config), np.arange(8) / 4.0)

    def test_wall_nodes_include_both_ends(self):
        config = make_config(n_y=2)
        assert_allclose(y_coordinates(config), [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        assert y_coordinates(make_config()) is None

    def test_gaussian_is_constant_across_wall_rows(self):
        config = make_config(n_x=3, n_y=2)
        field = initial_scalar_field(config).reshape(8, 4, order="F")
        for column in range(1, 4):
            assert_allclose(field[:, column], field[:, 0])
        x = x_coordinates(config)
        wrapped = sum(np.exp(-100.0 * (x - 0.5 - m) ** 2) for m in (-1, 0, 1))
        assert_allclose(field[:, 0], wrapped)
        assert_allclose(field[:, 0], np.exp(-100.0 * (x - 0.5) ** 2),
                        atol=3e-11)

    def test_basis_initial_condition(self):
        field = initial_scalar_field(make_config(), "basis:5")
        assert field[5] == 1.0 and field.sum() == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown initial"):
            initial_scalar_field(make_config(), "sawtooth")
        with pytest.raises(ValueError, match="outside"):
            initial_scalar_field(make_config(), "basis:99")


class TestOracleEquivalence:
    """The circuit pipeline and the dense scipy mirror must agree."""

    @pytest.mark.parametrize("splitting", ["trotter", "strang"])
    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_one_dimensional(self, splitting, n_steps):
        config = make_config(n_x=5, diffusivity=0.08, t_final=1.0,
                             splitting=splitting, n_steps=n_steps)
        field = initial_scalar_field(config)
        result = run_scenario(config, field)
        oracle_vec, history = split_propagation_oracle(config, field)
        assert error_norm(result.final_state, oracle_vec) < 1e-12
        assert_allclose(result.success_prob, np.prod(history), rtol=1e-10)

    @pytest.mark.parametrize("bc_y", [BoundaryKind.NEUMANN,
                                      BoundaryKind.DIRICHLET,
                                      BoundaryKind.PERIODIC])
    @pytest.mark.parametrize("splitting", ["trotter", "strang"])
    def test_two_dimensional_shear(self, bc_y, splitting):
        config = make_config(n_x=4, n_y=3, profile=VelocityProfile.couette(),
                             diffusivity=0.01, t_final=1.0, n_steps=2,
                             splitting=splitting, bc_y=bc_y)
        field = initial_scalar_field(config)
        result = run_scenario(config, field)
        oracle_vec, history = split_propagation_oracle(config, field)
        assert error_norm(result.final_state, oracle_vec) < 1e-12
        assert_allclose(result.success_prob, np.prod(history), rtol=1e-10)

    @pytest.mark.parametrize("profile", [VelocityProfile.poiseuille(),
                                         VelocityProfile.blasius()])
    def test_quadratic_profiles(self, profile):
        config = make_config(n_x=3, n_y=3, profile=profile, diffusivity=0.02,
                             t_final=0.5, n_steps=2, splitting="strang")
        field = initial_scalar_field(config)
        result = run_scenario(config, field)
        oracle_vec, _ = split_propagation_oracle(config, field)
        assert error_norm(result.final_state, oracle_vec) < 1e-12

    def test_zero_velocity_reduces_to_pure_diffusion(self):
        config = make_config(n_x=4, profile=VelocityProfile.custom([0.0]),
                             diffusivity=0.03, t_final=0.8)
        field = initial_scalar_field(config)
        result = run_scenario(config, field)
        table = wavenumbers(4, 1.0, BoundaryKind.PERIODIC)
        exact = diagonal_propagator_oracle(field / np.linalg.norm(field),
                                           table, diffusivity=0.03, t=0.8)
        assert error_norm(result.final_state, exact) < 1e-12
        assert_allclose(result.success_prob, np.linalg.norm(exact) ** 2,
                        rtol=1e-10)


class TestRunScenario:
    def test_checkpoints_bracket_the_run(self):
        config = make_config(n_steps=10, checkpoints=5)
        result = run_scenario(config, initial_scalar_field(config))
        steps = [s for s, _ in result.checkpoint_states]
        assert steps[0] == 0 and steps[-1] == 10
        assert steps == sorted(steps)
        for _, vec in result.checkpoint_states:
            assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)

    def test_final_state_matches_last_checkpoint(self):
        config = make_config(n_steps=4)
        result = run_scenario(config, initial_scalar_field(config))
        assert_allclose(result.final_state.amplitudes,
                        result.checkpoint_states[-1][1])
        assert result.final_state.n_qubits == 4

    def test_success_history_is_cumulative_and_decreasing(self):
        config = make_config(n_steps=6, diffusivity=0.05)
        result = run_scenario(config, initial_scalar_field(config))
        history = result.success_prob_history
        assert len(history) == 6
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
        assert_allclose(history[-1], result.success_prob)

    def test_real_field_stays_real(self):
        config = make_config(n_x=5, n_y=2,
                             profile=VelocityProfile.couette(),
                             diffusivity=0.01, t_final=1.0, n_steps=3)
        result = run_scenario(config, initial_scalar_field(config))
        assert float(np.max(np.abs(result.final_state.amplitudes.imag))) < 1e-10

    def test_commuting_success_is_step_count_invariant(self):
        # 1D uniform advection and diffusion commute, so the postselection
        # probability cannot depend on how the interval is split
        field = initial_scalar_field(make_config())
        probs = [
            run_scenario(make_config(n_steps=n), field).success_prob
            for n in (1, 2, 4, 8)
        ]
        assert_allclose(probs, probs[0], rtol=1e-12)

    def test_gate_counts_are_populated(self):
        config = make_config(n_x=4, n_y=2, profile=VelocityProfile.couette(),
                             diffusivity=0.01, t_final=0.5, n_steps=2)
        result = run_scenario(config, initial_scalar_field(config))
        counts = result.gate_counts
        assert counts["total_two_qubit"] > 0
        assert counts["advection_controlled"] > 0
        assert counts["qft_two_qubit"] > 0
        assert result.wall_time_s > 0.0
        one_step = run_scenario(replace(config, n_steps=1),
                                initial_scalar_field(config)).gate_counts

        def qft_counts(inverse):
            circuit = build_qft_circuit(4, inverse)
            return {"controlled": count_controlled_gates(circuit),
                    "two_qubit": count_two_qubit_gates(circuit)}

        analysis, synthesis = qft_counts(True), qft_counts(False)
        for kind in ("controlled", "two_qubit"):
            for stage in ("advection", "diffusion"):
                assert counts[f"{stage}_{kind}"] == 2 * one_step[f"{stage}_{kind}"]
            # one forward x QFT before the first step, one inverse after the last
            assert (counts[f"qft_{kind}"] == one_step[f"qft_{kind}"]
                    == analysis[kind] + synthesis[kind])
            # the two-step run reads out one intermediate checkpoint
            assert counts[f"readout_{kind}"] == synthesis[kind]
            assert one_step[f"readout_{kind}"] == 0
            for run in (counts, one_step):
                assert run[f"total_{kind}"] == sum(
                    run[f"{stage}_{kind}"] for stage in ("qft", "advection", "diffusion"))

    def test_reference_errors_are_attached(self):
        config = make_config()
        field = initial_scalar_field(config)
        oracle_vec, _ = split_propagation_oracle(config, field)
        result = run_scenario(config, field, {"oracle": oracle_vec})
        assert set(result.error_norms) == {"oracle"}
        assert result.error_norms["oracle"] < 1e-12

    def test_quantum_state_input_accepted(self):
        config = make_config()
        field = initial_scalar_field(config)
        state = QuantumState(4, field.astype(complex) / np.linalg.norm(field))
        by_state = run_scenario(config, state)
        by_array = run_scenario(config, field)
        assert_allclose(by_state.final_state.amplitudes,
                        by_array.final_state.amplitudes, atol=1e-14)

    def test_quantum_state_input_is_normalized(self):
        config = make_config(n_steps=2, checkpoints=2)
        field = initial_scalar_field(config)
        unit = QuantumState(4, field.astype(complex) / np.linalg.norm(field))
        scaled = QuantumState(4, 3.0 * unit.amplitudes)
        by_unit, by_scaled = run_scenario(config, unit), run_scenario(config, scaled)
        assert_allclose(by_scaled.success_prob, by_unit.success_prob, rtol=1e-14)
        assert_allclose(by_scaled.final_state.amplitudes,
                        by_unit.final_state.amplitudes, atol=1e-14)
        for (_, got), (_, want) in zip(by_scaled.checkpoint_states,
                                       by_unit.checkpoint_states):
            assert_allclose(got, want, atol=1e-14)

    def test_zero_quantum_state_rejected(self):
        with pytest.raises(ValueError, match="initial field is identically zero"):
            run_scenario(make_config(), QuantumState(4, np.zeros(16, dtype=complex)))

    def test_qubit_cap_counts_the_main_register_only(self, monkeypatch):
        monkeypatch.setenv("QADVDIFF_MAX_QUBITS", "4")
        config = make_config()
        result = run_scenario(config, initial_scalar_field(config))
        assert result.final_state.n_qubits == 4
        wide = make_config(n_x=5)
        with pytest.raises(ValueError, match="exceeds"):
            run_scenario(wide, initial_scalar_field(wide))

    def test_mismatched_quantum_state_rejected_with_both_sizes(self):
        # once failed deep in the engine with "cannot reshape array of size 8"
        with pytest.raises(ValueError, match="4-qubit state needs 16 amplitudes, "
                                             r"got shape \(8,\)"):
            run_scenario(make_config(), QuantumState(4, np.ones(8)))

    def test_bad_initial_shapes_rejected(self):
        config = make_config()
        with pytest.raises(ValueError, match="entries"):
            run_scenario(config, np.ones(7))
        with pytest.raises(ValueError, match="zero"):
            run_scenario(config, np.zeros(16))
        with pytest.raises(ValueError, match="qubits"):
            run_scenario(config, QuantumState(3, np.ones(8) / np.sqrt(8.0)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_initial_data_rejected(self, bad):
        config = make_config()
        field = initial_scalar_field(config)
        field[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_scenario(config, field)
        amps = np.full(16, 0.25, dtype=complex)
        amps[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_scenario(config, QuantumState(4, amps))

    def test_stage_times_are_reported(self):
        config = make_config(n_x=4, n_y=2, profile=VelocityProfile.couette(),
                             diffusivity=0.01, t_final=0.5, n_steps=2)
        result = run_scenario(config, initial_scalar_field(config))
        times = result.stage_times_s
        assert set(times) == {"qft", "advection", "diffusion", "wall", "readout",
                              "setup"}
        assert all(value >= 0.0 for value in times.values())
        assert times["setup"] > 0.0
        assert sum(times.values()) <= result.wall_time_s

    @pytest.mark.parametrize("splitting, merge, built", [
        ("trotter", False, {"adv_full"}),
        ("strang", False, {"adv_half"}),
        ("strang", True, {"adv_full", "adv_half"}),
    ])
    def test_only_applied_advection_circuits_are_built(self, splitting, merge, built):
        config = make_config(n_x=4, n_y=2, profile=VelocityProfile.couette(),
                             splitting=splitting, merge_strang=merge, checkpoints=1)
        stepper = _Stepper(config, config.dt)
        assert {name for name in ("adv_full", "adv_half")
                if getattr(stepper, name) is not None} == built


@pytest.fixture
def fresh_stage_memo():
    _shared_stage.cache_clear()
    _advection_stage.cache_clear()
    yield
    _shared_stage.cache_clear()
    _advection_stage.cache_clear()


def bound_source(stage):
    """The compiled unit-parameter circuit a bound stage was made from."""
    assert isinstance(stage.circuit, BoundCircuit)
    return stage.circuit.source


@pytest.mark.usefixtures("fresh_stage_memo")
class TestStageMemo:
    SHEAR = dict(n_x=4, n_y=2, profile=VelocityProfile.poiseuille(),
                 diffusivity=0.01, t_final=0.5, n_steps=2, checkpoints=1)

    def test_the_builder_is_part_of_the_key(self, monkeypatch):
        calls = []
        build = splitting.build_qft_circuit

        def counting(*args):
            calls.append(args)
            return build(*args)

        config = make_config(**self.SHEAR)
        field = initial_scalar_field(config)
        first = run_scenario(config, field)
        monkeypatch.setattr(splitting, "build_qft_circuit", counting)
        replaced = run_scenario(config, field)
        assert sorted(calls) == [(4, False), (4, True)]
        again = run_scenario(config, field)
        assert len(calls) == 2
        for result in (replaced, again):
            assert np.array_equal(result.final_state.amplitudes,
                                  first.final_state.amplitudes)
            assert result.gate_counts == first.gate_counts

    def test_strang_reuses_the_trotter_qft_and_diffusion_stages(self):
        trotter = _Stepper(make_config(**self.SHEAR), 0.25)
        misses = _shared_stage.cache_info().misses
        strang = _Stepper(make_config(**self.SHEAR, splitting="strang"), 0.25)
        assert _shared_stage.cache_info().misses == misses
        for name in ("qft_fwd", "qft_bwd"):
            assert getattr(strang, name) is getattr(trotter, name)
        for name in ("diff_x", "diff_y"):
            assert bound_source(getattr(strang, name)) is bound_source(getattr(trotter, name))

    def test_runs_share_one_advection_table(self):
        config = make_config(**self.SHEAR, splitting="strang", merge_strang=True)
        first, second = _Stepper(config, 0.25), _Stepper(config, 0.125)
        assert _advection_stage.cache_info().misses == 1
        assert first.qft_fwd is second.qft_fwd
        stages = [first.adv_full, first.adv_half, second.adv_full, second.adv_half]
        assert len({id(bound_source(stage)) for stage in stages}) == 1
        alpha = 2.0 * np.pi * 0.25
        assert [stage.circuit.value for stage in stages] == [
            alpha, 0.5 * alpha, 0.5 * alpha, 0.25 * alpha]
        # each binds its own factor: equal values equal factors, others not
        outs = [apply_circuit(QuantumState(6, np.full(64, 0.125, dtype=complex)),
                              stage.circuit).amplitudes for stage in stages]
        assert np.array_equal(outs[1], outs[2])
        assert not np.allclose(outs[0], outs[1])
        assert not np.allclose(outs[2], outs[3])

    def test_a_new_dt_or_velocity_shares_every_stage(self):
        config = make_config(**self.SHEAR, bc_y=BoundaryKind.PERIODIC)
        coarse = _Stepper(config, 0.25)
        misses = (_shared_stage.cache_info().misses, _advection_stage.cache_info().misses)
        fine = _Stepper(config, 0.125)
        faster = _Stepper(replace(config, velocity_scale=2.0), 0.25)
        assert (_shared_stage.cache_info().misses,
                _advection_stage.cache_info().misses) == misses
        for other in (fine, faster):
            for name in ("qft_fwd", "qft_bwd", "y_fwd", "y_bwd"):
                assert getattr(other, name) is getattr(coarse, name)
            for name in ("adv_full", "diff_x", "diff_y"):
                assert bound_source(getattr(other, name)) is bound_source(
                    getattr(coarse, name))
        assert fine.adv_full.circuit.value == 0.5 * coarse.adv_full.circuit.value
        assert faster.adv_full.circuit.value == 2.0 * coarse.adv_full.circuit.value
        assert fine.diff_x.circuit.value == 0.5 * coarse.diff_x.circuit.value
        assert faster.diff_x.circuit.value == coarse.diff_x.circuit.value

    def test_memo_stays_bounded(self):
        # A new grid or profile replaces the kept advection stage, whose table
        # spans the whole main register; the one-axis stages stay in the LRU.
        kept = []
        for n_x, n_y, profile in [(4, 2, "poiseuille"), (4, 2, "couette"),
                                  (3, 3, "couette"), (2, 4, "blasius")]:
            config = make_config(**dict(self.SHEAR, n_x=n_x, n_y=n_y,
                                        profile=VelocityProfile.named(profile)))
            for n_steps in range(1, 4):
                stepper = _Stepper(config, config.t_final / n_steps)
            kept.append(weakref.ref(bound_source(stepper.adv_full)))
            del stepper
            gc.collect()
            assert _advection_stage.cache_info().currsize == 1
            assert [ref() is not None for ref in kept] == [False] * (len(kept) - 1) + [True]
        assert _shared_stage.cache_info().currsize <= _STAGE_MEMO_SIZE

    @pytest.mark.parametrize("bc_y", list(BoundaryKind))
    def test_applied_stages_carry_the_built_gates(self, monkeypatch, bc_y):
        # The bound stage handed to apply_circuit lists the gates a fresh
        # build at the run's alpha and beta lists: same kinds, count, qubits.
        applied = []
        apply = splitting.apply_circuit

        def recording(state, circuit):
            applied.append(circuit)
            return apply(state, circuit)

        monkeypatch.setattr(splitting, "apply_circuit", recording)
        config = make_config(**self.SHEAR, bc_y=bc_y, splitting="strang")
        run_scenario(config, initial_scalar_field(config))
        alpha = 2.0 * np.pi * config.dt
        beta_x = config.diffusivity * config.dt * (2.0 * np.pi) ** 2
        beta_y = config.diffusivity * config.dt * (
            (2.0 if bc_y is BoundaryKind.PERIODIC else 1.0) * np.pi) ** 2
        y_damping = (build_periodic_diffusion(2, beta_y) if bc_y is BoundaryKind.PERIODIC
                     else build_halfspectrum_diffusion(2, beta_y, bc_y))
        built = {"advection": build_shear_advection(4, 2, 0.5 * alpha, config.profile),
                 "diff_x": build_periodic_diffusion(4, beta_x), "diff_y": y_damping}
        bound = [circuit for circuit in applied if isinstance(circuit, BoundCircuit)]
        # per step: leading and trailing half advection, x and y damping
        assert len(bound) == 4 * config.n_steps
        for circuit, name in zip(bound, ["advection", "diff_x", "diff_y", "advection"] * 2):
            assert circuit.n_qubits == 6 + len(built[name].ancilla_indices)
            assert [g.kind for g in circuit.gates] == [g.kind for g in built[name].gates]
            assert_allclose([g.param for g in circuit.gates],
                            [g.param for g in built[name].gates], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("overrides, name", [
        (dict(velocity_scale=1e300, t_final=1e10), "alpha"),
        (dict(diffusivity=1e300, t_final=1e10), "beta"),
    ])
    def test_a_non_finite_parameter_is_named(self, overrides, name):
        # An inf alpha or beta times a table's 0 entry would be NaN.
        config = make_config(**dict(self.SHEAR, n_steps=1, **overrides))
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            run_scenario(config, initial_scalar_field(config))


class TestMergedStrang:
    def test_merged_run_matches_plain_strang(self):
        base = dict(n_x=4, n_y=2, profile=VelocityProfile.couette(),
                    diffusivity=0.01, t_final=1.0, n_steps=4,
                    splitting="strang", checkpoints=1)
        field = initial_scalar_field(ScenarioConfig(**base))
        plain = run_scenario(ScenarioConfig(**base), field)
        merged = run_scenario(ScenarioConfig(**base, merge_strang=True), field)
        assert_allclose(merged.final_state.amplitudes,
                        plain.final_state.amplitudes, atol=1e-12)
        assert_allclose(merged.success_prob, plain.success_prob, rtol=1e-12)
        assert (merged.gate_counts["total_two_qubit"]
                < plain.gate_counts["total_two_qubit"])

    def test_intermediate_checkpoints_refused(self):
        with pytest.raises(ValueError, match="merge_strang"):
            make_config(splitting="strang", merge_strang=True,
                        n_steps=4, checkpoints=4)


class TestSingleSteps:
    def test_trotter_step_equals_single_step_run(self):
        # the first step of a two-step run is the whole of a one-step run
        config = make_config(n_steps=1, t_final=0.3)
        field = initial_scalar_field(config)
        longer = run_scenario(
            replace(config, n_steps=2, t_final=0.6, checkpoints=2), field
        )
        result = run_scenario(config, field)
        step, first = longer.checkpoint_states[1]
        assert step == 1
        assert_allclose(first, result.final_state.amplitudes, atol=1e-13)
        assert_allclose(longer.success_prob_history[0], result.success_prob,
                        rtol=1e-12)

    def test_strang_step_differs_from_trotter_under_shear(self):
        config = make_config(n_x=3, n_y=2, profile=VelocityProfile.couette(),
                             diffusivity=0.02, t_final=0.5)
        field = initial_scalar_field(config)
        a = run_scenario(config, field).final_state
        b = run_scenario(replace(config, splitting="strang"), field).final_state
        assert np.linalg.norm(a.amplitudes - b.amplitudes) > 1e-8

    def test_zero_dt_is_identity(self):
        config = make_config(t_final=0.0)
        field = initial_scalar_field(config)
        for splitting in ("trotter", "strang"):
            out = run_scenario(replace(config, splitting=splitting), field)
            assert_allclose(out.final_state.amplitudes,
                            field / np.linalg.norm(field), atol=1e-12)
            assert_allclose(out.success_prob, 1.0, rtol=1e-12)


class TestCommutatorEstimate:
    def test_uniform_profile_commutes(self):
        config = make_config(n_x=4, n_y=2, diffusivity=0.1, t_final=1.0)
        field = initial_scalar_field(config)
        assert_allclose(commutator_error_estimate(config, field),
                        np.zeros(field.size), atol=1e-14)

    def test_one_dimensional_run_commutes(self):
        config = make_config()
        estimate = commutator_error_estimate(config,
                                             initial_scalar_field(config))
        assert_allclose(estimate, np.zeros(16))

    def test_shear_estimate_scales_with_diffusivity(self):
        # couette has u'' = 0, so the estimate needs wall-normal variation
        base = dict(n_x=4, n_y=3, profile=VelocityProfile.couette(),
                    t_final=1.0)
        config = make_config(**base, diffusivity=0.01)
        y = np.arange(8) / 7.0
        field = initial_scalar_field(config).reshape(16, 8, order="F")
        field = field * (1.0 + 0.5 * np.cos(np.pi * y))[None, :]
        small = commutator_error_estimate(config, field)
        large = commutator_error_estimate(
            make_config(**base, diffusivity=0.04), field)
        assert np.linalg.norm(small) > 0.0
        assert_allclose(large, 4.0 * small, rtol=1e-12)

    def test_y_constant_field_commutes_with_couette(self):
        # both commutator pieces vanish: u'' = 0 and d(phi)/dy = 0
        config = make_config(n_x=4, n_y=3,
                             profile=VelocityProfile.couette(),
                             diffusivity=0.01, t_final=1.0)
        estimate = commutator_error_estimate(config,
                                             initial_scalar_field(config))
        assert_allclose(estimate, np.zeros(128), atol=1e-14)

    def test_preserves_input_shape(self):
        config = make_config(n_x=3, n_y=2,
                             profile=VelocityProfile.couette(),
                             diffusivity=0.01, t_final=1.0)
        flat = initial_scalar_field(config)
        grid = flat.reshape(8, 4, order="F")
        assert commutator_error_estimate(config, flat).shape == (32,)
        assert commutator_error_estimate(config, grid).shape == (8, 4)
