"""Classical references: closed-form pulse, diagonal propagators, FD solver."""

import math

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from qadvdiff import oracles
from qadvdiff.advection import VelocityProfile
from qadvdiff.oracles import (
    PULSE_CENTER,
    PULSE_VARIANCE,
    ScalarField,
    analytic_pulse_solution,
    central_difference_weights,
    diagonal_propagator_oracle,
    error_norm,
    fd10_reference,
    periodic_stencil_matrix,
    profile_row_velocities,
    split_propagation_oracle,
    wall_stencil_matrix,
)
from qadvdiff.splitting import ScenarioConfig, initial_scalar_field
from qadvdiff.state import QuantumState
from qadvdiff.transforms import BoundaryKind, wavenumbers


def quad_pulse_solution(x, t, velocity, diffusivity):
    """Brute-force convolution with the periodized heat kernel."""
    var = 4.0 * diffusivity * t

    def kernel(z):
        shifts = np.arange(-10, 11)
        return np.sum(np.exp(-((z + shifts) ** 2) / var)) / np.sqrt(np.pi * var)

    def integrand(xi, target):
        return np.exp(-100.0 * (xi - PULSE_CENTER) ** 2) * kernel(
            target - velocity * t - xi
        )

    value, _ = scipy.integrate.quad(
        integrand, -np.inf, np.inf, args=(x,), epsabs=1e-13, epsrel=1e-13
    )
    return value


class TestAnalyticPulse:
    def test_initial_condition_recovered(self):
        x = np.linspace(0.0, 1.0, 33)[:-1]
        # periodic images contribute ~1e-11 near the domain edges
        assert_allclose(
            analytic_pulse_solution(x, 0.0, 1.0, 0.08),
            np.exp(-100.0 * (x - 0.5) ** 2),
            atol=5e-11,
        )

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_matches_quadrature(self, t):
        velocity, diffusivity = 1.0, 0.08
        for x in (0.0, 0.21, 0.5, 0.77):
            expected = quad_pulse_solution(x, t, velocity, diffusivity)
            got = analytic_pulse_solution(np.array([x]), t, velocity,
                                          diffusivity)[0]
            assert_allclose(got, expected, rtol=0.0, atol=1e-10)

    def test_mass_is_conserved(self):
        x = np.arange(256) / 256.0
        masses = [
            analytic_pulse_solution(x, t, 0.7, 0.03).mean() for t in
            (0.0, 0.4, 1.3)
        ]
        assert_allclose(masses, masses[0], atol=1e-13)

    def test_pure_advection_is_a_shift(self):
        n = 64
        x = np.arange(n) / n
        shifted = analytic_pulse_solution(x, 0.25, 1.0, 0.0)
        assert_allclose(shifted, np.roll(analytic_pulse_solution(x, 0.0, 1.0,
                                                                 0.0), 16),
                        atol=1e-12)

    def test_peak_decays_with_diffusion(self):
        x = np.array([0.5])
        assert analytic_pulse_solution(x, 0.2, 0.0, 0.05)[0] < 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            analytic_pulse_solution(np.zeros(2), -0.1, 1.0, 0.1)


class TestDiagonalPropagator:
    def test_periodic_advection_rolls_the_grid(self):
        n_qubits = 5
        n = 1 << n_qubits
        vec = np.exp(-100.0 * (np.arange(n) / n - 0.5) ** 2)
        table = wavenumbers(n_qubits, 1.0, BoundaryKind.PERIODIC)
        out = diagonal_propagator_oracle(vec, table, velocity=1.0, t=0.25)
        assert_allclose(out.real, np.roll(vec, n // 4), atol=1e-12)
        assert_allclose(out.imag, 0.0, atol=1e-12)

    def test_single_fourier_mode_decays_exactly(self):
        n_qubits, m = 4, 3
        n = 1 << n_qubits
        x = np.arange(n) / n
        vec = np.exp(2j * np.pi * m * x)
        table = wavenumbers(n_qubits, 1.0, BoundaryKind.PERIODIC)
        out = diagonal_propagator_oracle(vec, table, velocity=0.4,
                                         diffusivity=0.05, t=0.8)
        k = 2.0 * np.pi * m
        factor = np.exp(-1j * 0.4 * k * 0.8 - 0.05 * k * k * 0.8)
        assert_allclose(out, factor * vec, atol=1e-12)

    def test_neumann_cosine_mode_decays(self):
        n_qubits, m = 4, 2
        n = 1 << n_qubits
        grid = (np.arange(n) + 0.5) / n
        vec = np.cos(np.pi * m * grid)
        table = wavenumbers(n_qubits, 1.0, BoundaryKind.NEUMANN)
        out = diagonal_propagator_oracle(vec, table, diffusivity=0.1, t=0.5)
        assert_allclose(out, np.exp(-0.1 * (np.pi * m) ** 2 * 0.5) * vec,
                        atol=1e-12)

    def test_norm_ratio_is_success_probability(self):
        vec = np.array([1.0, 0.5, 0.25, 0.125])
        vec = vec / np.linalg.norm(vec)
        table = wavenumbers(2, 1.0, BoundaryKind.PERIODIC)
        out = diagonal_propagator_oracle(vec, table, diffusivity=0.2, t=1.0)
        assert 0.0 < np.linalg.norm(out) ** 2 < 1.0

    def test_wall_advection_rejected(self):
        table = wavenumbers(3, 1.0, BoundaryKind.DIRICHLET)
        with pytest.raises(ValueError, match="not diagonal"):
            diagonal_propagator_oracle(np.ones(8), table, velocity=1.0, t=1.0)

    def test_size_mismatch_rejected(self):
        table = wavenumbers(3, 1.0, BoundaryKind.PERIODIC)
        with pytest.raises(ValueError, match="vector of"):
            diagonal_propagator_oracle(np.ones(4), table)


class TestRowVelocities:
    def test_one_dimensional_run_uses_mean_coefficient(self):
        config = ScenarioConfig(5, 0, VelocityProfile.uniform(), 0.1, 1.0,
                                velocity_scale=2.5)
        assert_allclose(profile_row_velocities(config), [2.5])

    def test_couette_rows_span_zero_to_scale(self):
        config = ScenarioConfig(3, 2, VelocityProfile.couette(), 0.1, 1.0,
                                velocity_scale=3.0)
        assert_allclose(profile_row_velocities(config),
                        [0.0, 1.0, 2.0, 3.0])


class TestSplitOracle:
    def test_commuting_one_dimensional_step_is_exact(self):
        config = ScenarioConfig(6, 0, VelocityProfile.uniform(), 0.08, 1.0)
        field = initial_scalar_field(config)
        out, history = split_propagation_oracle(config, field)
        table = wavenumbers(6, 1.0, BoundaryKind.PERIODIC)
        exact = diagonal_propagator_oracle(field, table, velocity=1.0,
                                           diffusivity=0.08, t=1.0)
        assert_allclose(out, exact, atol=1e-13)
        assert len(history) == 1

    def test_history_tracks_per_step_decay(self):
        config = ScenarioConfig(4, 0, VelocityProfile.uniform(), 0.02, 1.0,
                                n_steps=5)
        _, history = split_propagation_oracle(config,
                                              initial_scalar_field(config))
        assert len(history) == 5
        assert all(0.0 < h <= 1.0 + 1e-12 for h in history)

    def test_zero_diffusivity_preserves_norm(self):
        config = ScenarioConfig(4, 0, VelocityProfile.uniform(), 0.0, 1.0,
                                n_steps=3)
        _, history = split_propagation_oracle(config,
                                              initial_scalar_field(config))
        assert_allclose(history, np.ones(3), atol=1e-13)

    def test_strang_differs_from_trotter_under_shear(self):
        base = dict(n_x=4, n_y=3, profile=VelocityProfile.couette(),
                    diffusivity=0.01, t_final=1.0, n_steps=2)
        field = initial_scalar_field(ScenarioConfig(**base))
        trotter, _ = split_propagation_oracle(
            ScenarioConfig(**base, splitting="trotter"), field)
        strang, _ = split_propagation_oracle(
            ScenarioConfig(**base, splitting="strang"), field)
        assert np.linalg.norm(trotter - strang) > 1e-6


class TestStencils:
    def test_low_order_weights_are_the_textbook_ones(self):
        assert_allclose(central_difference_weights(2, 2), [1.0, -2.0, 1.0])
        assert_allclose(central_difference_weights(1, 2), [-0.5, 0.0, 0.5])

    @pytest.mark.parametrize("derivative", [1, 2])
    def test_tenth_order_moment_conditions(self, derivative):
        weights = central_difference_weights(derivative)
        offsets = np.arange(-5, 6)
        for k in range(11):
            target = math.factorial(k) if k == derivative else 0.0
            assert_allclose(np.sum(weights * offsets.astype(float) ** k),
                            target, atol=1e-9)

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="derivative"):
            central_difference_weights(3)
        with pytest.raises(ValueError, match="even"):
            central_difference_weights(1, order=5)

    def test_returned_weights_are_a_fresh_copy(self):
        first = central_difference_weights(2)
        expected = first.copy()
        first[:] = 0.0
        assert_allclose(central_difference_weights(2), expected)
        assert central_difference_weights(2) is not central_difference_weights(2)

    def test_periodic_matrix_rows_are_cyclic(self):
        mat = periodic_stencil_matrix(16, central_difference_weights(2))
        for q in range(16):
            assert_allclose(mat[q], np.roll(mat[0], q))

    def test_periodic_second_derivative_of_plane_wave(self):
        n = 64
        weights = central_difference_weights(2)
        mat = periodic_stencil_matrix(n, weights) * n * n  # h = 1/n
        x = np.arange(n) / n
        wave = np.cos(2.0 * np.pi * x)
        assert_allclose(mat @ wave, -(2.0 * np.pi) ** 2 * wave, atol=1e-7)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_neumann_fold_eigenfunctions(self, mode):
        # half-cell mirrors make cos(pi*k*(q+1/2)/n) the discrete eigenvectors
        n = 32
        mat = wall_stencil_matrix(n, central_difference_weights(2),
                                  BoundaryKind.NEUMANN)
        grid = (np.arange(n) + 0.5) / n
        vec = np.cos(np.pi * mode * grid)
        ratio = (mat @ vec) / vec
        assert_allclose(ratio, ratio[0], rtol=1e-8)
        assert ratio[0] < 0.0

    def test_neumann_fold_annihilates_constants(self):
        mat = wall_stencil_matrix(12, central_difference_weights(2),
                                  BoundaryKind.NEUMANN)
        assert_allclose(mat @ np.ones(12), np.zeros(12), atol=1e-12)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_dirichlet_fold_eigenfunctions(self, mode):
        n = 32
        mat = wall_stencil_matrix(n, central_difference_weights(2),
                                  BoundaryKind.DIRICHLET)
        grid = (np.arange(n) + 0.5) / n
        vec = np.sin(np.pi * (mode + 1) * grid)
        ratio = (mat @ vec) / vec
        assert_allclose(ratio, ratio[0], rtol=1e-7)


class TestFiniteDifferenceReference:
    def test_one_dimensional_run_matches_analytic(self):
        config = ScenarioConfig(6, 0, VelocityProfile.uniform(), 0.05, 0.2,
                                velocity_scale=0.3)
        field = initial_scalar_field(config)
        result = fd10_reference(config, field)
        x = np.arange(64) / 64.0
        expected = analytic_pulse_solution(x, 0.2, 0.3, 0.05)
        assert result.values.shape == (64,)
        assert_allclose(result.values, expected, atol=1e-7)

    def test_zero_coefficients_return_input(self):
        config = ScenarioConfig(4, 0, VelocityProfile.custom([0.0]), 0.0, 1.0)
        field = initial_scalar_field(config)
        result = fd10_reference(config, field)
        assert_allclose(result.values, field)

    def test_uniform_in_wall_direction_reduces_to_one_dimension(self):
        # a y-constant field under Neumann walls must evolve exactly as in 1D
        kwargs = dict(profile=VelocityProfile.uniform(), diffusivity=0.02,
                      t_final=0.3, velocity_scale=0.5)
        flat = ScenarioConfig(4, 0, **kwargs)
        full = ScenarioConfig(4, 3, **kwargs)
        one_d = fd10_reference(flat, initial_scalar_field(flat))
        two_d = fd10_reference(full, initial_scalar_field(full))
        assert two_d.values.shape == (16, 8)
        # columns stay exactly equal; the 1D run takes a different CFL
        # substep, so cross agreement is at the RK4 error level
        for column in range(1, 8):
            assert_allclose(two_d.values[:, column], two_d.values[:, 0],
                            atol=1e-13)
        assert_allclose(two_d.values[:, 0], one_d.values, atol=1e-7)

    def test_accepts_scalar_field_input(self):
        config = ScenarioConfig(4, 0, VelocityProfile.uniform(), 0.01, 0.1)
        wrapped = ScalarField(initial_scalar_field(config), dx=1.0 / 16.0)
        result = fd10_reference(config, wrapped)
        assert result.values.shape == (16,)

    def test_imaginary_part_is_rejected_not_dropped(self):
        # the real-part-only reference of 1j * field would be all zeros
        config = ScenarioConfig(4, 2, VelocityProfile.couette(), 0.01, 0.1)
        field = initial_scalar_field(config)
        with pytest.raises(ValueError, match="imaginary part"):
            fd10_reference(config, 1j * field)
        with pytest.raises(ValueError, match="imaginary part"):
            fd10_reference(config, ScalarField(field + 1e-9j, dx=1.0 / 16.0))
        complex_zero_imag = np.asarray(field, dtype=complex)
        assert np.array_equal(fd10_reference(config, complex_zero_imag).values,
                              fd10_reference(config, np.real(field)).values)

    def test_fine_wall_grid_stays_finite(self):
        # n_y > n_x makes dy < dx; a substep bounded by dx alone blew up to NaN
        config = ScenarioConfig(3, 6, VelocityProfile.couette(), 0.05, 1.0,
                                n_steps=4, splitting="strang")
        field = initial_scalar_field(config)
        result = fd10_reference(config, field)
        assert np.all(np.isfinite(result.values))
        oracle_vec, _ = split_propagation_oracle(config, field)
        assert error_norm(result.values, oracle_vec) < 1e-2

    def test_non_finite_result_raises(self, monkeypatch):
        # a substep far above the stable one diverges; it must not return NaN
        monkeypatch.setattr(oracles, "_CFL_SAFETY", 50.0)
        config = ScenarioConfig(3, 6, VelocityProfile.couette(), 0.05, 1.0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            fd10_reference(config, initial_scalar_field(config))

    def test_substep_guard_trips_on_extreme_parameters(self):
        config = ScenarioConfig(10, 0, VelocityProfile.uniform(), 50.0, 10.0)
        with pytest.raises(ValueError, match="substeps"):
            fd10_reference(config, initial_scalar_field(config))


class TestErrorNorm:
    def test_zero_for_identical_directions(self):
        vec = np.array([0.3, 0.1, -0.2, 0.9])
        assert error_norm(vec, 5.0 * vec) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_unit_vectors(self):
        assert error_norm(np.array([1.0, 0.0]),
                          np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2.0))

    def test_accepts_states_and_fields(self):
        vec = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        state = QuantumState(2, vec / np.linalg.norm(vec))
        field = ScalarField(np.array([[1.0, 3.0], [2.0, 4.0]]), dx=0.5)
        assert error_norm(state, field) == pytest.approx(0.0, abs=1e-15)

    def test_grid_and_flat_layouts_agree(self):
        grid = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])
        assert error_norm(grid, grid) == 0.0
        assert error_norm(grid.ravel(order="F"), grid) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            error_norm(np.ones(4), np.ones(8))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            error_norm(np.zeros(4), np.ones(4))
