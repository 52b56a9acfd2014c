"""Advection phase circuits: profiles, qubit-product expansion, gate counts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import circuit_operator
from qadvdiff.advection import (
    PhaseTerm,
    VelocityProfile,
    _profile_phases,
    build_shear_advection,
    build_uniform_advection,
    count_controlled_gates,
    count_two_qubit_gates,
)
from qadvdiff.state import Circuit, cnot, hadamard, phase, swap


def signed_modes(n_points: int) -> np.ndarray:
    j = np.arange(n_points)
    return np.where(j < n_points // 2, j, j - n_points)


class TestVelocityProfile:
    @pytest.mark.parametrize(
        "label,at_half",
        [("uniform", 1.0), ("couette", 0.5), ("poiseuille", 1.0),
         ("blasius", 0.75)],
    )
    def test_named_profiles_at_midgap(self, label, at_half):
        profile = VelocityProfile.named(label)
        assert_allclose(profile(0.5), at_half)

    def test_couette_is_linear(self):
        y = np.linspace(0.0, 1.0, 9)
        assert_allclose(VelocityProfile.couette()(y), y)

    def test_poiseuille_vanishes_at_walls(self):
        profile = VelocityProfile.poiseuille()
        assert_allclose(profile([0.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_derivative_orders(self):
        profile = VelocityProfile.blasius()  # 2y - y^2
        assert_allclose(profile.derivative(0.25), 2.0 - 0.5)
        assert_allclose(profile.derivative(0.3, order=2), -2.0)

    def test_order_ignores_trailing_zeros(self):
        assert VelocityProfile.custom([1.0, 0.0, 0.0]).order == 0
        assert VelocityProfile.uniform().order == 0
        assert VelocityProfile.blasius().order == 2

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            VelocityProfile.named("plug")

    def test_tampered_named_coefficients_rejected(self):
        with pytest.raises(ValueError, match="must have coefficients"):
            VelocityProfile("couette", (0.0, 2.0))

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            VelocityProfile.custom([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            VelocityProfile.custom([0.0, bad])


class TestPhaseExpansion:
    def test_uniform_is_a_single_bare_term(self):
        terms = _profile_phases(VelocityProfile.uniform(), 3)
        assert terms == (PhaseTerm(1.0, ()),)

    def test_couette_term_per_qubit(self):
        n_y = 3
        terms = _profile_phases(VelocityProfile.couette(), n_y)
        denom = (1 << n_y) - 1
        assert terms == tuple(PhaseTerm((1 << r) / denom, (r,)) for r in range(n_y))

    @pytest.mark.parametrize("label", ["couette", "poiseuille", "blasius"])
    @pytest.mark.parametrize("n_y", [1, 2, 3])
    def test_expansion_reproduces_profile_on_grid(self, label, n_y):
        # summing terms whose control bits are set in q recovers u(y_q)
        profile = VelocityProfile.named(label)
        terms = _profile_phases(profile, n_y)
        n_points = 1 << n_y
        y = np.arange(n_points) / (n_points - 1)
        rebuilt = np.zeros(n_points)
        for q in range(n_points):
            for term in terms:
                if all((q >> c) & 1 for c in term.y_controls):
                    rebuilt[q] += term.coefficient
        assert_allclose(rebuilt, profile(y), atol=1e-13)

    def test_quartic_profile_expands(self):
        profile = VelocityProfile.custom([0.0, 0.0, 0.0, 0.0, 1.0])
        terms = _profile_phases(profile, 2)
        y = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        rebuilt = np.zeros(4)
        for q in range(4):
            for term in terms:
                if all((q >> c) & 1 for c in term.y_controls):
                    rebuilt[q] += term.coefficient
        assert_allclose(rebuilt, y**4, atol=1e-14)

    def test_order_cap(self):
        profile = VelocityProfile.custom([0.0] * 5 + [1.0])
        with pytest.raises(ValueError, match="order"):
            _profile_phases(profile, 2)

    def test_shear_without_wall_register_rejected(self):
        with pytest.raises(ValueError, match="wall-normal"):
            _profile_phases(VelocityProfile.couette(), 0)


class TestUniformAdvection:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_diagonal_signed_mode_phases(self, n_qubits):
        alpha = 0.37
        op = circuit_operator(build_uniform_advection(n_qubits, alpha))
        expected = np.diag(np.exp(-1j * alpha * signed_modes(1 << n_qubits)))
        assert_allclose(op, expected, atol=1e-13)

    def test_zero_alpha_is_identity(self):
        op = circuit_operator(build_uniform_advection(3, 0.0))
        assert_allclose(op, np.eye(8), atol=1e-15)

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError, match="at least one"):
            build_uniform_advection(0, 1.0)


class TestShearAdvection:
    @pytest.mark.parametrize("label", ["couette", "poiseuille", "blasius"])
    def test_diagonal_matches_row_velocities(self, label):
        n_x, n_y = 3, 2
        alpha = 0.61
        profile = VelocityProfile.named(label)
        op = circuit_operator(build_shear_advection(n_x, n_y, alpha, profile))
        modes = signed_modes(1 << n_x)
        y = np.arange(1 << n_y) / ((1 << n_y) - 1)
        # wall-normal register occupies the high qubits
        expected = np.exp(-1j * alpha * np.outer(profile(y), modes)).reshape(-1)
        assert_allclose(op, np.diag(expected), atol=1e-13)

    def test_uniform_profile_leaves_wall_register_alone(self):
        op = circuit_operator(
            build_shear_advection(2, 2, 0.5, VelocityProfile.uniform())
        )
        single = circuit_operator(build_uniform_advection(2, 0.5))
        assert_allclose(op, np.kron(np.eye(4), single), atol=1e-13)

    def test_register_size_validation(self):
        with pytest.raises(ValueError, match="streamwise"):
            build_shear_advection(0, 2, 1.0, VelocityProfile.couette())
        with pytest.raises(ValueError, match=">= 0"):
            build_shear_advection(2, -1, 1.0, VelocityProfile.uniform())


class TestGateCounts:
    def test_counts_on_handmade_circuit(self):
        circuit = Circuit(
            3,
            [
                hadamard(0),
                phase(1, 0.2, controls=((0, 1),)),
                phase(2, 0.3, controls=((0, 1), (1, 1))),
                cnot(0, 2),
                swap(1, 2),
            ],
        )
        assert count_controlled_gates(circuit) == 3
        # 0 + 1 + (2*4 - 4 + 1) + 1 + 3 = 10
        assert count_two_qubit_gates(circuit) == 10

    def test_couette_counts_scale_quadratically(self):
        # n qubits per axis: n terms, each emitting n singly controlled phases
        for n in (3, 4, 5):
            circuit = build_shear_advection(n, n, 1.0,
                                            VelocityProfile.couette())
            assert count_controlled_gates(circuit) == n * n
            assert count_two_qubit_gates(circuit) == n * n

    def test_uniform_advection_costs_nothing(self):
        circuit = build_uniform_advection(5, 2.0)
        assert count_controlled_gates(circuit) == 0
        assert count_two_qubit_gates(circuit) == 0

    def test_quadratic_profile_pairs_cost_five_each(self):
        n = 3
        circuit = build_shear_advection(n, n, 1.0, VelocityProfile.blasius())
        singles = n * n
        pairs = (n * (n - 1) // 2) * n
        assert count_controlled_gates(circuit) == singles + pairs
        assert count_two_qubit_gates(circuit) == singles + 5 * pairs
