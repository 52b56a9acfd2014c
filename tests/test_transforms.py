"""Spectral transforms: QFT circuit, cosine/sine transforms, wavenumbers."""

import numpy as np
import pytest
import scipy.fft
from numpy.testing import assert_allclose

from conftest import circuit_operator, random_state_vector
from qadvdiff.state import QuantumState, apply_circuit
from qadvdiff.transforms import (
    BoundaryKind,
    WavenumberTable,
    apply_qct,
    apply_qst,
    build_qft_circuit,
    spectral_transform,
    wavenumbers,
)


def synthesis_matrix(n: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)


class TestQftCircuit:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_matches_synthesis_dft(self, n_qubits):
        op = circuit_operator(build_qft_circuit(n_qubits))
        assert_allclose(op, synthesis_matrix(1 << n_qubits), atol=1e-13)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_inverse_is_adjoint(self, n_qubits):
        op = circuit_operator(build_qft_circuit(n_qubits, inverse=True))
        assert_allclose(op, synthesis_matrix(1 << n_qubits).conj().T,
                        atol=1e-13)

    def test_analysis_agrees_with_fft(self):
        # the periodic spectral_transform, the oracles' x transform, too
        vec = random_state_vector(4, 3)
        circuit = build_qft_circuit(4, inverse=True)
        out = apply_circuit(QuantumState(4, vec.copy()), circuit)
        for got in (out.amplitudes, spectral_transform(vec, BoundaryKind.PERIODIC)):
            assert_allclose(got, np.fft.fft(vec, norm="ortho"), atol=1e-13)

    def test_synthesis_agrees_with_ifft(self):
        vec = random_state_vector(3, 8)
        out = apply_circuit(QuantumState(3, vec.copy()), build_qft_circuit(3))
        inverse = spectral_transform(vec, BoundaryKind.PERIODIC, inverse=True)
        for got in (out.amplitudes, inverse):
            assert_allclose(got, np.fft.ifft(vec, norm="ortho"), atol=1e-13)

    def test_roundtrip_restores_state(self):
        vec = random_state_vector(5, 1)
        state = QuantumState(5, vec.copy())
        there = apply_circuit(state, build_qft_circuit(5, inverse=True))
        back = apply_circuit(there, build_qft_circuit(5))
        assert_allclose(back.amplitudes, vec, atol=1e-12)

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError, match="at least one"):
            build_qft_circuit(0)


class TestWavenumbers:
    def test_periodic_signed_layout(self):
        table = wavenumbers(3, 1.0, BoundaryKind.PERIODIC)
        expected = 2.0 * np.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1])
        assert_allclose(table.values, expected)
        assert table.size == 8

    def test_neumann_modes(self):
        table = wavenumbers(2, 2.0, BoundaryKind.NEUMANN)
        assert_allclose(table.values, np.pi / 2.0 * np.arange(4))

    def test_dirichlet_modes_start_at_one(self):
        table = wavenumbers(2, 1.0, BoundaryKind.DIRICHLET)
        assert_allclose(table.values, np.pi * np.arange(1, 5))

    def test_length_scaling(self):
        a = wavenumbers(3, 1.0, BoundaryKind.PERIODIC)
        b = wavenumbers(3, 4.0, BoundaryKind.PERIODIC)
        assert_allclose(b.values, a.values / 4.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="positive"):
            wavenumbers(3, 0.0, BoundaryKind.PERIODIC)


class TestHalfSpectrumTransforms:
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_qct_matches_orthonormal_dct(self, n_qubits):
        vec = random_state_vector(n_qubits, 4)
        state = QuantumState(n_qubits, vec.copy())
        out = apply_qct(state, range(n_qubits))
        expected = scipy.fft.dct(vec.real, type=2, norm="ortho") + 1j * scipy.fft.dct(
            vec.imag, type=2, norm="ortho"
        )
        assert_allclose(out.amplitudes, expected, atol=1e-13)

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_qst_matches_orthonormal_dst(self, n_qubits):
        vec = random_state_vector(n_qubits, 5)
        state = QuantumState(n_qubits, vec.copy())
        out = apply_qst(state, range(n_qubits))
        expected = scipy.fft.dst(vec.real, type=2, norm="ortho") + 1j * scipy.fft.dst(
            vec.imag, type=2, norm="ortho"
        )
        assert_allclose(out.amplitudes, expected, atol=1e-13)

    @pytest.mark.parametrize("func", [apply_qct, apply_qst])
    def test_roundtrip_preserves_norm_and_state(self, func):
        vec = random_state_vector(4, 6)
        state = QuantumState(4, vec.copy())
        back = func(func(state, range(4)), range(4), inverse=True)
        assert_allclose(back.amplitudes, vec, atol=1e-13)

    def test_acts_only_on_selected_axis(self):
        # transform on qubits 1..2 of a 3-qubit register, qubit 0 untouched
        vec = random_state_vector(3, 7)
        state = QuantumState(3, vec.copy())
        out = apply_qct(state, [1, 2])
        cube = vec.reshape(4, 2)  # rows indexed by qubits 2,1; cols by qubit 0
        expected = scipy.fft.dct(cube.real, type=2, axis=0, norm="ortho")
        expected = expected + 1j * scipy.fft.dct(cube.imag, type=2, axis=0,
                                                 norm="ortho")
        assert_allclose(out.amplitudes.reshape(4, 2), expected, atol=1e-13)

    def test_rejects_non_contiguous_axis(self):
        state = QuantumState(3, np.ones(8) / np.sqrt(8.0))
        with pytest.raises(ValueError, match="contiguous"):
            apply_qct(state, [0, 2])

    def test_rejects_axis_outside_register(self):
        state = QuantumState(2, np.full(4, 0.5))
        with pytest.raises(ValueError, match="outside"):
            apply_qst(state, [1, 2])


class TestTableDataclass:
    def test_fields_round_trip(self):
        table = WavenumberTable(BoundaryKind.NEUMANN, 4, 2.0,
                                np.array([0.0, 1.0, 2.0, 3.0]))
        assert table.kind is BoundaryKind.NEUMANN
        assert table.length == 2.0
