"""Diffusion block encodings: damping terms, mode decay, success tracking."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_state_vector
from qadvdiff.diffusion import (
    DampingTerm,
    DiffusionParams,
    build_halfspectrum_diffusion,
    build_periodic_diffusion,
    halfspectrum_damping_terms,
    periodic_damping_terms,
)
from qadvdiff.oracles import diagonal_propagator_oracle
from qadvdiff.state import QuantumState, apply_circuit, damping_matrix
from qadvdiff.transforms import BoundaryKind, build_qft_circuit, wavenumbers


def signed_modes(n_points: int) -> np.ndarray:
    j = np.arange(n_points)
    return np.where(j < n_points // 2, j, j - n_points)


def apply_with_fresh_ancilla(circuit, vec):
    amps = np.array(vec, dtype=np.complex128)
    out = apply_circuit(QuantumState(circuit.n_qubits - 1, amps), circuit)
    return out.amplitudes, out.success_prob


class TestDampingTerms:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
    def test_periodic_term_count(self, n_qubits):
        terms = periodic_damping_terms(n_qubits, 1.0)
        m = n_qubits - 1
        assert len(terms) == m + m * (m - 1) // 2 + m + 1

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_periodic_gammas_sum_to_squared_signed_mode(self, n_qubits):
        # after the mirror fold the controls of index j see |j~| bits
        beta = 0.3
        terms = periodic_damping_terms(n_qubits, beta)
        n = 1 << n_qubits
        top = n_qubits - 1
        for j in range(n):
            folded = j if (j >> top) & 1 == 0 else j ^ (n - 1) ^ (1 << top)
            total = sum(
                t.gamma for t in terms
                if all((folded >> q) & 1 for q in t.controls)
            )
            assert_allclose(total, beta * signed_modes(n)[j] ** 2, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_neumann_gammas_sum_to_squared_mode(self, n_qubits):
        beta = 0.2
        terms = halfspectrum_damping_terms(n_qubits, beta, BoundaryKind.NEUMANN)
        for j in range(1 << n_qubits):
            total = sum(
                t.gamma for t in terms
                if all((j >> q) & 1 for q in t.controls)
            )
            assert_allclose(total, beta * j * j, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_dirichlet_gammas_sum_to_shifted_square(self, n_qubits):
        beta = 0.15
        terms = halfspectrum_damping_terms(n_qubits, beta,
                                           BoundaryKind.DIRICHLET)
        for j in range(1 << n_qubits):
            total = sum(
                t.gamma for t in terms
                if all((j >> q) & 1 for q in t.controls)
            )
            assert_allclose(total, beta * (j + 1) ** 2, atol=1e-12)

    def test_terms_are_frozen_records(self):
        term = DampingTerm(0.5, (1, 2))
        with pytest.raises(AttributeError):
            term.gamma = 0.7


class TestPeriodicDiffusion:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_mode_decay_matches_exact_factors(self, n_qubits):
        beta = 0.12
        circuit = build_periodic_diffusion(n_qubits, beta)
        vec = random_state_vector(n_qubits, 13)
        out, success = apply_with_fresh_ancilla(circuit, vec)
        factors = np.exp(-beta * signed_modes(1 << n_qubits) ** 2)
        expected = factors * vec
        assert_allclose(success, np.sum(np.abs(expected) ** 2), atol=1e-13)
        assert_allclose(out, expected / np.linalg.norm(expected), atol=1e-12)

    def test_zero_beta_is_identity(self):
        vec = random_state_vector(3, 2)
        out, success = apply_with_fresh_ancilla(
            build_periodic_diffusion(3, 0.0), vec
        )
        assert_allclose(out, vec, atol=1e-13)
        assert_allclose(success, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 2"):
            build_periodic_diffusion(1, 0.1)
        with pytest.raises(ValueError, match=">= 0"):
            build_periodic_diffusion(3, -0.1)


class TestHalfSpectrumDiffusion:
    @pytest.mark.parametrize("kind,shift", [
        (BoundaryKind.NEUMANN, 0), (BoundaryKind.DIRICHLET, 1),
    ])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_mode_decay(self, kind, shift, n_qubits):
        beta = 0.07
        circuit = build_halfspectrum_diffusion(n_qubits, beta, kind)
        vec = random_state_vector(n_qubits, 19)
        out, success = apply_with_fresh_ancilla(circuit, vec)
        factors = np.exp(-beta * (np.arange(1 << n_qubits) + shift) ** 2)
        expected = factors * vec
        assert_allclose(success, np.sum(np.abs(expected) ** 2), atol=1e-13)
        assert_allclose(out, expected / np.linalg.norm(expected), atol=1e-12)

    def test_periodic_kind_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            build_halfspectrum_diffusion(2, 0.1, BoundaryKind.PERIODIC)


class TestParams:
    def test_periodic_beta_uses_full_wavenumber(self):
        params = DiffusionParams.from_physical(3, 0.08, 1.0, 1.0,
                                               BoundaryKind.PERIODIC)
        assert_allclose(params.beta, 0.08 * (2.0 * np.pi) ** 2)

    @pytest.mark.parametrize("kind",
                             [BoundaryKind.NEUMANN, BoundaryKind.DIRICHLET])
    def test_wall_beta_uses_half_wavenumber(self, kind):
        params = DiffusionParams.from_physical(3, 0.02, 0.5, 2.0, kind)
        assert_allclose(params.beta, 0.02 * 0.5 * (np.pi / 2.0) ** 2)

    def test_damping_matrix_rejects_amplification(self):
        with pytest.raises(ValueError):
            damping_matrix(-0.1)


class TestSuccessFloor:
    """Long diffusion keeps only the mean mode: success -> N*|mean|^2."""

    @staticmethod
    def long_diffusion_success(amps) -> float:
        n = amps.size.bit_length() - 1
        state = apply_circuit(QuantumState(n, amps), build_qft_circuit(n, inverse=True))
        return apply_circuit(state, build_periodic_diffusion(n, 50.0)).success_prob

    def test_uniform_state_always_succeeds(self):
        amps = np.full(8, np.sqrt(1.0 / 8.0), dtype=complex)
        assert_allclose(self.long_diffusion_success(amps), 1.0)

    def test_zero_mean_state_never_survives(self):
        amps = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex) / 2.0
        assert_allclose(self.long_diffusion_success(amps), 0.0, atol=1e-15)

    def test_basis_state_floor_is_one_over_n(self):
        amps = np.zeros(8, dtype=complex)
        amps[5] = 1.0
        assert_allclose(self.long_diffusion_success(amps), 1.0 / 8.0)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="postselection impossible"):
            self.long_diffusion_success(np.zeros(4, dtype=complex))


def gaussian_by_diffusion(n_qubits: int, tau: float) -> QuantumState:
    """The centered basis state diffused for time tau on a unit periodic axis:
    grid-to-mode QFT, periodic damping with beta = tau*(2*pi)^2, mode-to-grid."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[amps.size // 2] = 1.0
    state = apply_circuit(QuantumState(n_qubits, amps),
                          build_qft_circuit(n_qubits, inverse=True))
    beta = tau * (2.0 * np.pi) ** 2
    state = apply_circuit(state, build_periodic_diffusion(n_qubits, beta))
    return apply_circuit(state, build_qft_circuit(n_qubits))


class TestGaussianPreparation:
    def test_matches_exact_heat_propagation(self):
        n_qubits = 5
        tau = 0.002
        state = gaussian_by_diffusion(n_qubits, tau)
        basis = np.zeros(1 << n_qubits, dtype=complex)
        basis[1 << (n_qubits - 1)] = 1.0
        table = wavenumbers(n_qubits, 1.0, BoundaryKind.PERIODIC)
        exact = diagonal_propagator_oracle(basis, table, diffusivity=1.0, t=tau)
        assert_allclose(state.success_prob, np.sum(np.abs(exact) ** 2),
                        atol=1e-12)
        assert_allclose(state.amplitudes, exact / np.linalg.norm(exact),
                        atol=1e-11)

    def test_profile_is_real_and_peaked_at_center(self):
        state = gaussian_by_diffusion(4, 0.004)
        values = state.amplitudes.real
        assert np.all(np.abs(state.amplitudes.imag) < 1e-12)
        assert np.argmax(values) == 8
        # mode truncation leaves sub-1e-4 ringing in the far field
        assert np.all(values[4:13] > 0.0)
        assert np.min(values) > -1e-4
