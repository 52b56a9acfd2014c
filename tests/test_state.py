"""Statevector core: gate application, postselection, sampling."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import circuit_operator, gate_operator, random_state_vector, undeclared
from qadvdiff.state import (
    Circuit,
    GateKind,
    GateOp,
    QuantumState,
    ShotDistribution,
    apply_circuit,
    build_fourier_initial_state,
    cnot,
    damping,
    damping_matrix,
    encode_amplitudes,
    hadamard,
    inverse_circuit,
    max_qubits,
    new_state,
    phase,
    remap_circuit,
    sample_counts,
    swap,
)


class TestGateValidation:
    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            GateOp(GateKind.CNOT, 1, ((1, 1),))

    def test_control_value_must_be_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            GateOp(GateKind.PHASE, 0, ((1, 2),), 0.1)

    def test_swap_needs_partner(self):
        with pytest.raises(ValueError, match="partner"):
            GateOp(GateKind.SWAP, 0)

    def test_partner_only_on_swap(self):
        with pytest.raises(ValueError, match="partner"):
            GateOp(GateKind.PHASE, 0, (), 0.1, partner=1)

    def test_cnot_takes_one_control(self):
        with pytest.raises(ValueError, match="exactly one"):
            GateOp(GateKind.CNOT, 0)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError, match="block-encodable"):
            damping(0, -0.5)

    @pytest.mark.parametrize("make", [
        lambda: phase(0, np.nan),
        lambda: phase(0, np.nan, ((1, 1),)),
        lambda: damping(0, np.nan),
        lambda: GateOp(GateKind.HADAMARD, 0, (), np.nan),
    ], ids=["phase", "cphase", "damping", "hadamard"])
    def test_nan_parameter_rejected(self, make):
        with pytest.raises(ValueError, match="NaN"):
            make()

    @pytest.mark.parametrize("theta", [np.inf, -np.inf])
    @pytest.mark.parametrize("controls", [(), ((1, 1),)])
    def test_infinite_phase_rejected(self, theta, controls):
        with pytest.raises(ValueError, match="phase angle must be finite"):
            phase(0, theta, controls)

    def test_infinite_damping_is_full_damping(self):
        gate = damping(1, np.inf)
        assert gate.param == np.inf
        assert_allclose(damping_matrix(gate.param).real, [[0.0, -1.0], [1.0, 0.0]])

    def test_gate_outside_register(self):
        circuit = Circuit(2)
        with pytest.raises(ValueError, match="outside"):
            circuit.add(phase(2, 0.3))

    @pytest.mark.parametrize("ancilla", [-1, 2, 5])
    def test_ancilla_outside_register(self, ancilla):
        with pytest.raises(ValueError, match=f"ancilla qubit {ancilla} outside"):
            Circuit(2, [], frozenset({ancilla}))


class TestQuantumStateValidation:
    @pytest.mark.parametrize("n_qubits, amps", [
        (2, np.ones(8) / np.sqrt(8.0)),
        (4, np.ones(8)),
        (3, np.ones(4)),
        (2, np.ones((2, 2)) / 2.0),
    ])
    def test_amplitude_count_must_match_register(self, n_qubits, amps):
        with pytest.raises(ValueError, match=(
                f"{n_qubits}-qubit state needs {2**n_qubits} amplitudes, "
                rf"got shape \({amps.shape[0]},")):
            QuantumState(n_qubits, amps)

    def test_sampling_never_sees_a_mismatched_state(self):
        # sample_counts once returned 8 bins for a "2-qubit" state
        with pytest.raises(ValueError, match="needs 4 amplitudes"):
            sample_counts(QuantumState(2, np.ones(8) / np.sqrt(8.0)), 10, 0)

    def test_matching_state_accepted(self):
        assert QuantumState(3, np.ones(8) / np.sqrt(8.0)).norm() == pytest.approx(1.0)


class TestSingleGates:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_phase_matches_dense_operator(self, n_qubits, seed):
        for target in range(n_qubits):
            gate = phase(target, 0.7 + target)
            vec = random_state_vector(n_qubits, seed)
            state = QuantumState(n_qubits, vec.copy())
            out = apply_circuit(state, Circuit(n_qubits, [gate]))
            assert_allclose(out.amplitudes,
                            gate_operator(gate, n_qubits) @ vec, atol=1e-14)

    @pytest.mark.parametrize(
        "gate",
        [
            hadamard(0),
            hadamard(1, controls=((0, 1),)),
            phase(2, -1.3, controls=((0, 1), (1, 0))),
            cnot(0, 2),
            swap(0, 2),
            damping(1, 0.8, controls=((2, 1),)),
        ],
    )
    def test_assorted_gates_match_dense_operator(self, gate):
        n_qubits = 3
        vec = random_state_vector(n_qubits, 42)
        state = QuantumState(n_qubits, vec.copy())
        out = apply_circuit(state, Circuit(n_qubits, [gate]))
        assert_allclose(out.amplitudes,
                        gate_operator(gate, n_qubits) @ vec, atol=1e-14)

    def test_swap_exchanges_basis_states(self):
        state = encode_amplitudes([0.0, 1.0, 0.0, 0.0])
        out = apply_circuit(state, Circuit(2, [swap(0, 1)]))
        assert_allclose(out.amplitudes, [0.0, 0.0, 1.0, 0.0])

    def test_damping_matrix_columns(self):
        u = damping_matrix(0.5)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
        assert_allclose(u[0, 0], np.exp(-0.5))


class TestCircuitApplication:
    def test_random_circuit_matches_operator_product(self):
        rng = np.random.default_rng(7)
        n_qubits = 4
        gates = []
        for _ in range(30):
            kind = rng.integers(4)
            qubits = rng.permutation(n_qubits)
            if kind == 0:
                gates.append(phase(int(qubits[0]), float(rng.normal())))
            elif kind == 1:
                gates.append(hadamard(int(qubits[0]),
                                      controls=((int(qubits[1]), 1),)))
            elif kind == 2:
                gates.append(cnot(int(qubits[0]), int(qubits[1])))
            else:
                gates.append(swap(int(qubits[0]), int(qubits[1])))
        circuit = Circuit(n_qubits, gates)
        vec = random_state_vector(n_qubits, 11)
        out = apply_circuit(QuantumState(n_qubits, vec.copy()), circuit)
        assert_allclose(out.amplitudes, circuit_operator(circuit) @ vec,
                        atol=1e-13)

    def test_register_size_mismatch(self):
        with pytest.raises(ValueError, match="spans"):
            apply_circuit(new_state(2), Circuit(3))

    def test_ancilla_projection_happens_per_damping_gate(self):
        # Damping |+> on the ancilla branch halves the norm before projection.
        circuit = Circuit(2, ancilla_indices=frozenset({1}))
        circuit.add(hadamard(0))
        circuit.add(damping(1, 1.0, controls=((0, 1),)))
        state = apply_circuit(new_state(1), circuit)
        expected = np.array([1.0, np.exp(-1.0)]) / np.sqrt(2.0)
        expected /= np.linalg.norm(expected)
        assert_allclose(state.amplitudes[:2], expected, atol=1e-15)
        assert_allclose(state.success_prob, 0.5 * (1.0 + np.exp(-2.0)),
                        atol=1e-15)

    def test_projection_skipped_when_disabled(self):
        circuit = Circuit(2, ancilla_indices=frozenset({1}))
        circuit.add(hadamard(0))
        circuit.add(damping(1, 1.0, controls=((0, 1),)))
        state = apply_circuit(new_state(2), undeclared(circuit))
        assert state.success_prob == 1.0
        assert abs(state.amplitudes[3]) > 0.0


class TestPostselection:
    # damping(a, inf) on a declared ancilla a keeps exactly the branch where
    # its controls fail, so each circuit below is a projective postselection.
    def test_projection_renormalizes_and_tracks_probability(self):
        circuit = Circuit(3, [damping(2, np.inf, controls=((1, 1),))],
                          frozenset({2}))
        out = apply_circuit(QuantumState(2, np.full(4, 0.5, dtype=complex)), circuit)
        assert_allclose(out.amplitudes,
                        [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0, 0.0])
        assert_allclose(out.success_prob, 0.5)

    def test_success_prob_accumulates(self):
        circuit = Circuit(4, [damping(2, np.inf, controls=((0, 1),)),
                              damping(3, np.inf, controls=((1, 1),))],
                          frozenset({2, 3}))
        out = apply_circuit(QuantumState(2, np.full(4, 0.5, dtype=complex)), circuit)
        assert_allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0])
        assert_allclose(out.success_prob, 0.25)

    def test_impossible_projection_raises(self):
        circuit = Circuit(2, [damping(1, np.inf)], frozenset({1}))
        with pytest.raises(ValueError, match="postselection impossible"):
            apply_circuit(new_state(1), circuit)


class TestEncoding:
    def test_normalizes_input(self):
        state = encode_amplitudes([3.0, 4.0, 0.0, 0.0])
        assert_allclose(state.amplitudes, [0.6, 0.8, 0.0, 0.0])
        assert state.n_qubits == 2

    @pytest.mark.parametrize("size", [1, 3, 6])
    def test_rejects_non_power_of_two(self, size):
        with pytest.raises(ValueError, match="power of two"):
            encode_amplitudes(np.ones(size))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            encode_amplitudes(np.zeros(4))

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.inf, 0.0, 0.0]])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            encode_amplitudes(values)

    def test_register_limit_enforced(self, monkeypatch):
        monkeypatch.setenv("QADVDIFF_MAX_QUBITS", "3")
        assert max_qubits() == 3
        with pytest.raises(ValueError, match="exceeds"):
            new_state(4)

    def test_register_limit_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("QADVDIFF_MAX_QUBITS", "many")
        with pytest.raises(ValueError, match="integer"):
            max_qubits()


class TestSampling:
    def test_counts_sum_to_shots_and_repeat(self):
        state = encode_amplitudes([1.0, 1.0, 1.0, 1.0])
        a = sample_counts(state, 1000, seed=5)
        b = sample_counts(state, 1000, seed=5)
        assert a.sum() == 1000
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        state = encode_amplitudes(np.ones(8))
        a = sample_counts(state, 10000, seed=1)
        b = sample_counts(state, 10000, seed=2)
        assert not np.array_equal(a, b)

    def test_frequencies_track_probabilities(self):
        state = encode_amplitudes([1.0, 2.0, 3.0, 4.0])
        counts = sample_counts(state, 200000, seed=9)
        probs = np.abs(state.amplitudes) ** 2
        # 5 sigma of a binomial per bin
        sigma = np.sqrt(probs * (1 - probs) / 200000)
        assert np.all(np.abs(counts / 200000 - probs) < 5 * sigma + 1e-12)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sample_counts(new_state(1), 0, seed=0)

    @pytest.mark.parametrize("shots", [2.5, 3.0, True, False, "10", None])
    def test_non_integer_shots_rejected(self, shots):
        # 2.5 once drew 2 shots without a word
        with pytest.raises(TypeError, match=f"shots must be an integer, got {shots!r}"):
            sample_counts(new_state(2), shots, seed=0)

    def test_numpy_integer_shots_accepted(self):
        state = encode_amplitudes(np.ones(4))
        assert np.array_equal(sample_counts(state, np.int32(50), seed=3),
                              sample_counts(state, 50, seed=3))

    @pytest.mark.parametrize("amps", [np.zeros(4), np.full(4, 1e-170)])
    def test_zero_norm_state_rejected(self, amps):
        # once a divide RuntimeWarning, then numpy's complaint about NaN pvals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero norm"):
                sample_counts(QuantumState(2, amps.astype(complex)), 10, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_state_rejected(self, bad):
        amps = np.array([0.5, bad, 0.5, 0.5], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite norm"):
                sample_counts(QuantumState(2, amps), 10, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_rejected(self):
        amps = np.array([0.5, 1e200, 0.5, 0.5], dtype=complex)
        with pytest.raises(ValueError, match=r"non-finite norm \(squared norm inf\)"):
            sample_counts(QuantumState(2, amps), 10, seed=0)

    def test_distribution_keeps_the_last_bin(self):
        amps = np.zeros(8)
        amps[[1, 4]] = 1.0
        shots = ShotDistribution.of(encode_amplitudes(amps))
        assert shots.size == 8
        assert shots.support.tolist() == [1, 4, 7]
        assert shots.probs.tolist() == [0.5, 0.5, 0.0]
        assert not shots.support.flags.writeable and not shots.probs.flags.writeable

    @pytest.mark.parametrize("seed", [4, 35, 47])
    def test_last_support_bin_takes_its_binomial_draw(self, seed):
        # bin 1 holds 1e-12 of the mass, and the mass numpy has left for it
        # after bin 0 is off by about 1e-16, so its conditional probability
        # is not 1; with these seeds one shot is left over for the last bin,
        # of probability 0.  A draw over bins (0, 1) alone would give that
        # shot to bin 1.
        state = QuantumState(2, np.sqrt([1.0, 1e-12, 0.0, 0.0]).astype(complex))
        probs = np.abs(state.amplitudes) ** 2
        expected = np.random.default_rng(seed).multinomial(10**15, probs / probs.sum())
        assert expected[3] == 1
        assert np.array_equal(sample_counts(state, 10**15, seed), expected)


class TestCircuitTools:
    def test_remap_conjugates_by_permutation(self):
        circuit = Circuit(2, [hadamard(0), cnot(0, 1), phase(1, 0.4)])
        remapped = remap_circuit(circuit, {0: 2, 1: 0}, 3)
        vec = random_state_vector(3, 17)
        out = apply_circuit(QuantumState(3, vec.copy()), remapped)
        assert_allclose(out.amplitudes, circuit_operator(remapped) @ vec,
                        atol=1e-14)
        # qubit 1 is untouched by the remapped circuit
        probs = np.abs(out.amplitudes.reshape(2, 2, 2)) ** 2
        before = np.abs(vec.reshape(2, 2, 2)) ** 2
        assert_allclose(probs.sum(axis=(0, 2)), before.sum(axis=(0, 2)),
                        atol=1e-13)

    def test_inverse_circuit_is_adjoint(self):
        circuit = Circuit(
            3, [hadamard(0), phase(1, 0.9, controls=((0, 1),)), swap(0, 2)]
        )
        inv = inverse_circuit(circuit)
        product = circuit_operator(inv) @ circuit_operator(circuit)
        assert_allclose(product, np.eye(8), atol=1e-14)

    def test_damping_cannot_be_inverted(self):
        circuit = Circuit(1, [damping(0, 0.2)])
        with pytest.raises(ValueError, match="damping"):
            inverse_circuit(circuit)


class TestFourierInitialState:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_three_mode_amplitudes(self, n_qubits):
        circuit = build_fourier_initial_state(n_qubits)
        state = apply_circuit(new_state(n_qubits), circuit)
        dim = 1 << n_qubits
        expected = np.zeros(dim)
        expected[0] = np.sqrt(2.0 / 3.0)
        expected[1] = np.sqrt(1.0 / 6.0)
        expected[dim - 1] = np.sqrt(1.0 / 6.0)
        assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_fourier_initial_state(1)
