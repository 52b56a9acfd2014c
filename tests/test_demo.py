"""Fresh-ancilla demo circuit: exact profile, sampling bands, text listing."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import undeclared
from qadvdiff import demo
from qadvdiff.demo import (
    DEMO_ALPHA,
    DEMO_BETA,
    _joint_state,
    build_demo_circuit,
    demo_ancilla_count,
    format_circuit_listing,
    ideal_demo_state,
    run_demo,
)
from qadvdiff.state import GateKind, apply_circuit, hadamard, new_state


RECORDED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "demo_digests.json"


def physical_profile(n_qubits: int) -> np.ndarray:
    """Unnormalized target: three Fourier modes advected and damped."""
    n = 1 << n_qubits
    x = np.arange(n) / n
    return (np.sqrt(2.0 / 3.0)
            - np.sqrt(1.0 / 6.0) * np.sin(2.0 * np.pi * x)) / np.sqrt(n)


class TestCircuitStructure:
    @pytest.mark.parametrize("n_qubits,expected", [(2, 3), (3, 6), (4, 10),
                                                   (5, 15)])
    def test_ancilla_count(self, n_qubits, expected):
        assert demo_ancilla_count(n_qubits) == expected

    def test_each_damping_gate_gets_a_fresh_ancilla(self):
        circuit = build_demo_circuit(4)
        targets = [g.target for g in circuit.gates
                   if g.kind is GateKind.DAMPING and g.target >= 4]
        assert len(targets) == len(set(targets)) == demo_ancilla_count(4)
        assert circuit.ancilla_indices == frozenset(range(4, 4 + 10))

    def test_register_width(self):
        circuit = build_demo_circuit(3)
        assert circuit.n_qubits == 3 + 6

    def test_too_small_register_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            build_demo_circuit(1)


class TestIdealProfile:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
    def test_matches_closed_form(self, n_qubits):
        result = run_demo(n_qubits, shots=1, seed=0)
        assert_allclose(result.ideal_amplitudes, physical_profile(n_qubits),
                        atol=1e-14)

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_success_probability_is_three_quarters(self, n_qubits):
        result = run_demo(n_qubits, shots=1, seed=0)
        assert_allclose(result.success_prob, 0.75, atol=1e-12)

    def test_projected_state_matches_joint_block(self):
        # postselecting ancillas one by one must agree with the deferred-
        # measurement block up to normalization
        state = ideal_demo_state(3)
        block = run_demo(3, shots=1, seed=0).ideal_amplitudes
        assert_allclose(state.amplitudes,
                        block / np.linalg.norm(block), atol=1e-13)
        assert_allclose(state.success_prob, 0.75, atol=1e-12)

    def test_qubit_cap_counts_the_stored_register(self, monkeypatch):
        # the projected state stores 3 qubits; the deferred-measurement run
        # stores all 3 + 6
        monkeypatch.setenv("QADVDIFF_MAX_QUBITS", "3")
        assert ideal_demo_state(3).n_qubits == 3
        with pytest.raises(ValueError, match="register of 9 qubits exceeds"):
            run_demo(3, shots=1, seed=0)

    def test_joint_block_is_real(self):
        circuit = build_demo_circuit(3)
        joint = apply_circuit(new_state(circuit.n_qubits), undeclared(circuit))
        assert np.max(np.abs(joint.amplitudes[:8].imag)) < 1e-14

    def test_beta_controls_mode_damping(self):
        # beta = 0 leaves the advected three-mode state undamped: success 1
        result = run_demo(3, shots=1, seed=0, beta=0.0)
        assert_allclose(np.sum(result.ideal_amplitudes**2), 1.0, atol=1e-12)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = run_demo(3, shots=4000, seed=11)
        b = run_demo(3, shots=4000, seed=11)
        assert np.array_equal(a.sampled_amplitudes, b.sampled_amplitudes)

    def test_bands_bracket_the_ideal_probabilities(self):
        result = run_demo(3, shots=4000, seed=11)
        assert np.all(result.lo_3sigma <= result.ideal_amplitudes + 1e-15)
        assert np.all(result.ideal_amplitudes <= result.hi_3sigma + 1e-15)

    def test_sampled_amplitudes_land_in_band(self):
        # a single seed can lose one bin of eight; aggregate coverage is
        # checked with many seeds in the acceptance suite
        result = run_demo(3, shots=10_000, seed=4)
        assert result.inside_band_fraction >= 0.75

    def test_aggregate_coverage_over_seeds(self):
        total = 0.0
        seeds = range(5)
        for seed in seeds:
            total += run_demo(3, shots=2000, seed=seed).inside_band_fraction
        assert total / len(seeds) >= 0.95

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_counts_match_the_recorded_digests(self, seed):
        # kept counts hashed as the benchmark does: sha256 of the <i8 bytes
        recorded = json.loads(RECORDED_DIGESTS.read_text())
        assert (recorded["n_qubits"], recorded["shots"]) == (5, 10_000)
        result = run_demo(5, shots=10_000, seed=seed)
        counts = np.rint(result.sampled_amplitudes**2 * 10_000).astype("<i8")
        digest = hashlib.sha256(counts.tobytes()).hexdigest()[:16]
        expected = recorded["seeds"][str(seed)]
        assert (digest, int(counts.sum())) == (expected["digest"], expected["kept"])

    def test_shot_guard(self):
        with pytest.raises(ValueError, match="shots"):
            run_demo(3, shots=0, seed=1)


class TestListing:
    def test_header_and_line_count(self):
        circuit = build_demo_circuit(3)
        listing = format_circuit_listing(circuit)
        lines = listing.strip().split("\n")
        assert lines[0] == "QUBITS 9"
        assert lines[1] == "ANCILLAS 3 4 5 6 7 8"
        assert len(lines) == 2 + len(circuit.gates)
        assert all(line.startswith("GATE ") for line in lines[2:])

    def test_parameters_round_trip_through_text(self):
        circuit = build_demo_circuit(3, alpha=-np.pi / 2.0, beta=np.log(2.0))
        listing = format_circuit_listing(circuit)
        params = [float(line.split()[-1])
                  for line in listing.strip().split("\n")[2:]]
        assert params == [g.param for g in circuit.gates]

    def test_controls_are_listed_in_brackets(self):
        listing = format_circuit_listing(build_demo_circuit(2))
        assert "[" in listing and "]" in listing
        controlled = [line for line in listing.split("\n")
                      if "[" in line and line.split("[")[1][0] != "]"]
        assert controlled


@pytest.fixture
def fresh_joint_memo():
    _joint_state.cache_clear()
    yield
    _joint_state.cache_clear()


@pytest.mark.usefixtures("fresh_joint_memo")
class TestJointStateMemo:
    def test_one_simulation_per_parameter_set(self, monkeypatch):
        simulated = []
        apply = demo.apply_circuit

        def counting(state, circuit, *args, **kwargs):
            simulated.append(circuit.n_qubits)
            return apply(state, circuit, *args, **kwargs)

        monkeypatch.setattr(demo, "apply_circuit", counting)
        for seed in (1, 2, 3):
            run_demo(3, shots=500, seed=seed)
        assert simulated == [9]
        run_demo(3, shots=500, seed=1, beta=0.5)
        assert simulated == [9, 9]

    def test_only_the_last_parameter_set_is_kept(self):
        run_demo(3, shots=10, seed=0)
        run_demo(3, shots=10, seed=0, beta=0.5)
        assert _joint_state.cache_info().currsize == 1
        run_demo(3, shots=10, seed=0)
        assert _joint_state.cache_info().misses == 3

    def test_registers_above_the_limit_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(demo, "_JOINT_MEMO_MAX_QUBITS", 8)
        kept = run_demo(2, shots=500, seed=3)
        unkept = [run_demo(3, shots=500, seed=3) for _ in range(2)]
        assert _joint_state.cache_info().misses == 1
        assert np.array_equal(unkept[0].sampled_amplitudes,
                              unkept[1].sampled_amplitudes)
        assert kept.circuit.n_qubits == 5

    def test_memoized_counts_match_a_fresh_simulation(self):
        warm = [run_demo(4, shots=3000, seed=s) for s in (5, 6, 5)]
        _joint_state.cache_clear()
        cold = [run_demo(4, shots=3000, seed=s) for s in (5, 6, 5)]
        for a, b in zip(warm, cold):
            assert np.array_equal(a.sampled_amplitudes, b.sampled_amplitudes)
            assert np.array_equal(a.ideal_amplitudes, b.ideal_amplitudes)
            assert a.success_prob == b.success_prob

    def test_qubit_cap_applies_with_a_warm_memo(self, monkeypatch):
        run_demo(3, shots=1, seed=0)
        monkeypatch.setenv("QADVDIFF_MAX_QUBITS", "3")
        with pytest.raises(ValueError, match="register of 9 qubits exceeds"):
            run_demo(3, shots=1, seed=0)

    def test_shot_guard_applies_with_a_warm_memo(self):
        run_demo(3, shots=1, seed=0)
        with pytest.raises(ValueError, match="shots"):
            run_demo(3, shots=0, seed=0)

    def test_results_share_no_mutable_state(self):
        first = run_demo(3, shots=1000, seed=2)
        listing = format_circuit_listing(first.circuit)
        first.circuit.add(hadamard(0))
        first.ideal_amplitudes[:] = 0.0
        second = run_demo(3, shots=1000, seed=2)
        assert second.circuit is not first.circuit
        assert format_circuit_listing(second.circuit) == listing
        assert_allclose(second.ideal_amplitudes, physical_profile(3), atol=1e-14)
        assert not _joint_state(3, DEMO_ALPHA, DEMO_BETA).amplitudes.flags.writeable
