"""End-to-end acceptance checks, one per headline result.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all) and then asserts, so the suite fails loudly as well as visibly.  Run
times are asserted where a budget is part of the requirement.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qadvdiff.advection import (
    VelocityProfile,
    build_shear_advection,
    count_two_qubit_gates,
)
from qadvdiff.demo import run_demo
from qadvdiff.diffusion import build_halfspectrum_diffusion, build_periodic_diffusion
from qadvdiff.oracles import (
    analytic_pulse_solution,
    diagonal_propagator_oracle,
    error_norm,
    fd10_reference,
    split_propagation_oracle,
)
from qadvdiff.splitting import (
    ScenarioConfig,
    initial_scalar_field,
    run_scenario,
    x_coordinates,
)
from qadvdiff.state import (
    QuantumState,
    apply_circuit,
    build_fourier_initial_state,
    new_state,
    remap_circuit,
)
from qadvdiff.transforms import BoundaryKind, build_qft_circuit, wavenumbers


def report(number: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_single_step_pulse():
    """128-point pulse at Pe 12.5: error < 1e-10, success 0.251 +- 0.003."""
    t0 = time.perf_counter()
    config = ScenarioConfig(7, 0, VelocityProfile.uniform(), 0.08, 1.0)
    result = run_scenario(config, initial_scalar_field(config))
    reference = analytic_pulse_solution(x_coordinates(config), 1.0, 1.0, 0.08)
    error = error_norm(result.final_state, reference)
    success = result.success_prob
    elapsed = time.perf_counter() - t0
    ok = error < 1e-10 and abs(success - 0.251) <= 0.003 and elapsed < 5.0
    report(1, ok, f"error={error:.3g} success={success:.6f} "
                  f"runtime={elapsed:.2f}s")
    assert error < 1e-10
    assert success == pytest.approx(0.251, abs=0.003)
    assert elapsed < 5.0


def test_criterion_2_grid_convergence():
    """Worst-stage error: ~0.009 at N=8, at most 1e-12 for N >= 64."""
    t0 = time.perf_counter()
    errors = {}
    for n_x in range(3, 10):
        config = ScenarioConfig(n_x, 0, VelocityProfile.uniform(), 0.08, 1.0,
                                n_steps=10, checkpoints=10)
        result = run_scenario(config, initial_scalar_field(config))
        x = x_coordinates(config)
        worst = 0.0
        for step, vec in result.checkpoint_states:
            if step == 0:
                continue
            reference = analytic_pulse_solution(x, step * config.dt, 1.0,
                                                0.08)
            worst = max(worst, error_norm(vec, reference))
        errors[1 << n_x] = worst
    elapsed = time.perf_counter() - t0
    coarse_ok = 0.006 <= errors[8] <= 0.012
    fine_ok = all(errors[n] <= 1e-12 for n in (64, 128, 256, 512))
    ok = coarse_ok and fine_ok and elapsed < 30.0
    report(2, ok, f"N=8 error={errors[8]:.3g} "
                  f"max(N>=64)={max(errors[n] for n in (64, 128, 256, 512)):.3g} "
                  f"runtime={elapsed:.1f}s")
    assert coarse_ok, errors
    assert fine_ok, errors
    assert elapsed < 30.0


SHEAR_WINDOWS = [
    ("couette", 0.333),
    ("poiseuille", 0.303),
    ("blasius", 0.357),
]


def test_criterion_3_shear_success_probabilities():
    """64x64 at Pe 500, Ut/L = 3: success probabilities of the three flows."""
    details = []
    ok = True
    for label, target in SHEAR_WINDOWS:
        t0 = time.perf_counter()
        config = ScenarioConfig(6, 6, VelocityProfile.named(label), 0.002,
                                3.0, n_steps=6, splitting="strang",
                                checkpoints=1)
        field = initial_scalar_field(config)
        result = run_scenario(config, field)
        _, history = split_propagation_oracle(config, field)
        oracle_success = float(np.prod(history))
        elapsed = time.perf_counter() - t0
        in_window = abs(result.success_prob - target) <= 0.003
        matches_oracle = abs(result.success_prob - oracle_success) <= 1e-6
        ok = ok and in_window and matches_oracle and elapsed < 300.0
        details.append(f"{label}={result.success_prob:.6f} (target {target})")
        assert in_window, (label, result.success_prob, target)
        assert matches_oracle, (label, result.success_prob, oracle_success)
        assert elapsed < 300.0
    report(3, ok, " ".join(details))


@pytest.fixture(scope="module")
def order_study():
    """Errors vs a fine-step Strang self-reference and vs the FD solver."""
    step_counts = (1, 2, 4, 8, 16, 32)
    data = {}
    for label in ("couette", "poiseuille", "blasius"):
        base = dict(n_x=6, n_y=6, profile=VelocityProfile.named(label),
                    diffusivity=0.002, t_final=1.0, bc_y=BoundaryKind.NEUMANN,
                    checkpoints=1)
        field = initial_scalar_field(ScenarioConfig(**base))
        fine = run_scenario(
            ScenarioConfig(**base, splitting="strang", n_steps=512,
                           merge_strang=True), field)
        reference = fine.final_state.amplitudes
        fd = fd10_reference(ScenarioConfig(**base), field).values
        errs = {"trotter": [], "strang": [], "strang_fd": []}
        for n_t in step_counts:
            for splitting in ("trotter", "strang"):
                cfg = ScenarioConfig(**base, splitting=splitting, n_steps=n_t)
                result = run_scenario(cfg, field)
                errs[splitting].append(
                    error_norm(result.final_state, reference))
                if splitting == "strang":
                    errs["strang_fd"].append(
                        error_norm(result.final_state, fd))
        data[label] = errs
    return step_counts, data


def test_criterion_4_splitting_orders(order_study):
    """Slope 1 for Trotter, slope 2 for Strang; FD curves flatten near 1e-3."""
    step_counts, data = order_study
    log_dt = np.log(1.0 / np.asarray(step_counts))
    ok = True
    details = []
    for label, errs in data.items():
        slope_t = np.polyfit(log_dt, np.log(errs["trotter"]), 1)[0]
        slope_s = np.polyfit(log_dt, np.log(errs["strang"]), 1)[0]
        floor = errs["strang_fd"][-1]
        flattened = floor / errs["strang"][-1] > 10.0 and 3e-4 < floor < 6e-3
        ok = ok and abs(slope_t - 1.0) <= 0.15 and abs(slope_s - 2.0) <= 0.15
        ok = ok and flattened
        details.append(f"{label}: trotter={slope_t:+.2f} strang={slope_s:+.2f} "
                       f"fd_floor={floor:.2g}")
        assert slope_t == pytest.approx(1.0, abs=0.15), (label, slope_t)
        assert slope_s == pytest.approx(2.0, abs=0.15), (label, slope_s)
        assert flattened, (label, floor, errs["strang"][-1])
    report(4, ok, "; ".join(details))


def test_criterion_5_error_ordering(order_study):
    """At every shared step count: Couette < Blasius < channel error."""
    step_counts, data = order_study
    ok = True
    for splitting in ("trotter", "strang"):
        for i, n_t in enumerate(step_counts):
            couette = data["couette"][splitting][i]
            blasius = data["blasius"][splitting][i]
            channel = data["poiseuille"][splitting][i]
            ordered = couette < blasius < channel
            ok = ok and ordered
            assert ordered, (splitting, n_t, couette, blasius, channel)
    i8 = step_counts.index(8)
    report(5, ok, "couette < blasius < channel at every step count "
                  f"(strang N_t=8: {data['couette']['strang'][i8]:.2e} < "
                  f"{data['blasius']['strang'][i8]:.2e} < "
                  f"{data['poiseuille']['strang'][i8]:.2e})")


def test_criterion_6_oracle_equivalence():
    """Circuit spectral kernels match diagonal propagators on random states."""
    rng = np.random.default_rng(2024)
    cases = 0
    worst_state = 0.0
    worst_success = 0.0
    for kind in (BoundaryKind.PERIODIC, BoundaryKind.NEUMANN,
                 BoundaryKind.DIRICHLET):
        for n_qubits in range(2, 7):
            for _ in range(7):
                vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(
                    size=1 << n_qubits)
                vec /= np.linalg.norm(vec)
                alpha = float(rng.uniform(-3.0, 3.0))
                beta = float(rng.uniform(0.0, 1.5))
                table = wavenumbers(n_qubits, 1.0, kind)
                if kind is BoundaryKind.PERIODIC:
                    velocity = alpha / (2.0 * np.pi)
                    diffusivity = beta / (2.0 * np.pi) ** 2
                else:
                    velocity = 0.0
                    diffusivity = beta / np.pi**2
                expected = diagonal_propagator_oracle(
                    vec, table, velocity=velocity, diffusivity=diffusivity,
                    t=1.0)
                state = _circuit_axis_evolution(vec, kind, alpha, beta)
                worst_state = max(
                    worst_state,
                    float(np.linalg.norm(
                        state.amplitudes - expected / np.linalg.norm(expected)
                    )),
                )
                worst_success = max(
                    worst_success,
                    abs(state.success_prob - float(
                        np.linalg.norm(expected) ** 2)),
                )
                cases += 1
    ok = cases >= 100 and worst_state < 1e-12 and worst_success < 1e-10
    report(6, ok, f"{cases} cases, max state error={worst_state:.2g}, "
                  f"max success error={worst_success:.2g}")
    assert cases >= 100
    assert worst_state < 1e-12
    assert worst_success < 1e-10


def _circuit_axis_evolution(vec, kind, alpha, beta) -> QuantumState:
    """One spectral round trip through the gate engine for a single axis."""
    from qadvdiff.advection import build_uniform_advection
    from qadvdiff.transforms import apply_qct, apply_qst

    n_qubits = int(np.log2(vec.size))
    state = QuantumState(n_qubits, np.array(vec, dtype=complex))
    if kind is BoundaryKind.PERIODIC:
        state = apply_circuit(state, build_qft_circuit(n_qubits, inverse=True))
        state = apply_circuit(state, build_uniform_advection(n_qubits, alpha))
        state = apply_circuit(state,
                              build_periodic_diffusion(n_qubits, beta))
        state = apply_circuit(state, build_qft_circuit(n_qubits))
    else:
        forward = apply_qct if kind is BoundaryKind.NEUMANN else apply_qst
        state = forward(state, range(n_qubits))
        state = apply_circuit(
            state, build_halfspectrum_diffusion(n_qubits, beta, kind))
        state = forward(state, range(n_qubits), inverse=True)
    return state


def test_criterion_7_hardware_demo():
    """Three-mode prep exact, success 3/4, sampled bins inside 3-sigma."""
    prep = apply_circuit(new_state(3), build_fourier_initial_state(3))
    prep_error = float(
        max(
            abs(prep.amplitudes[0] - np.sqrt(2.0 / 3.0)),
            abs(prep.amplitudes[1] - np.sqrt(1.0 / 6.0)),
            abs(prep.amplitudes[7] - np.sqrt(1.0 / 6.0)),
        )
    )
    coverage = {}
    success_error = 0.0
    for n_qubits in (3, 4, 5):
        inside = 0.0
        for seed in range(20):
            result = run_demo(n_qubits, shots=10_000, seed=seed)
            inside += result.inside_band_fraction
            success_error = max(success_error,
                                abs(result.success_prob - 0.75))
        coverage[n_qubits] = inside / 20.0
    ok = (prep_error < 1e-14 and success_error < 1e-12
          and all(v >= 0.99 for v in coverage.values()))
    report(7, ok, f"prep error={prep_error:.2g} "
                  f"success error={success_error:.2g} "
                  f"coverage={ {n: round(v, 4) for n, v in coverage.items()} }")
    assert prep_error < 1e-14
    assert success_error < 1e-12
    for n_qubits, value in coverage.items():
        assert value >= 0.99, (n_qubits, value)


def test_criterion_8_gate_count_scaling():
    """Two-qubit counts grow as n^2 for Couette and ~n^3 for h=2 profiles."""
    sizes = np.arange(3, 9)
    exponents = {}
    for label in ("couette", "poiseuille", "blasius"):
        profile = VelocityProfile.named(label)
        counts = [
            count_two_qubit_gates(build_shear_advection(n, n, 1.0, profile))
            for n in sizes
        ]
        exponents[label] = float(
            np.polyfit(np.log(sizes), np.log(counts), 1)[0])
    ok = (abs(exponents["couette"] - 2.0) <= 0.2
          and abs(exponents["poiseuille"] - 3.0) <= 0.3
          and abs(exponents["blasius"] - 3.0) <= 0.3)
    report(8, ok, " ".join(f"{k}={v:.2f}" for k, v in exponents.items()))
    assert exponents["couette"] == pytest.approx(2.0, abs=0.2)
    assert exponents["poiseuille"] == pytest.approx(3.0, abs=0.3)
    assert exponents["blasius"] == pytest.approx(3.0, abs=0.3)
