"""Operator-splitting driver joining the advection and diffusion kernels.

A scenario evolves a scalar field on a 2^n_x x 2^n_y grid: advection by a
polynomial shear profile plus isotropic diffusion, split per step into the
advection operator (diagonal after the streamwise Fourier transform) and the
two one-axis diffusion operators (diagonal in their mode bases, mutually
commuting).  Lie-Trotter applies advection then diffusion once per step;
Strang symmetrises with half advection on both sides.

The streamwise axis stays in Fourier space for the whole run.  Every
wall-normal stage acts on the y qubits (and its own ancilla) only, so it
commutes with the x QFT: a run applies one forward x QFT before its first
step, and each checkpoint reads the field out with one inverse x QFT on a
copy.  The last checkpoint is the final step, so its read-out is the run's
final state; the others are counted under ``readout``.

Every stage is built, widened onto the main register and compiled once per
structure, and each run binds its own parameters into it.  Advection angles
are linear in alpha = 2*pi*U*dt/L and damping exponents in beta, so those
stages are compiled at alpha = 1 and beta = 1, and a run binds each with
``Circuit.bind``: every diagonal step's factor becomes exp(1j*alpha*table)
or exp(-beta*table), from an exponent table that compilation already took
through the CNOT frame.  A new dt or U therefore shares every compiled
stage, and gate counts come from the built circuit, so alpha = 0 still
counts its zero-angle gates.

``_shared_stage`` keeps the QFT and damping stages in an LRU cache of
``_STAGE_MEMO_SIZE`` (16) entries keyed by the stage's category, its builder
function, the builder's arguments, the qubit offset of the widening and the
main register size; they hold tensors over one axis only.
``_advection_stage`` keeps one advection stage, the last grid's: its table
spans the whole main register.  After one Strang Poiseuille run with
Neumann walls, tracemalloc counts 136 KiB kept on a 6x6 grid and 8.3 MiB on
a 10x10 grid, of which the advection table is 32 KiB and 8 MiB.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .advection import (
    VelocityProfile,
    build_shear_advection,
    count_controlled_gates,
    count_two_qubit_gates,
)
from .diffusion import (
    DiffusionParams,
    build_halfspectrum_diffusion,
    build_periodic_diffusion,
)
from .state import (
    BoundCircuit,
    Circuit,
    QuantumState,
    _check_register_size,
    apply_circuit,
    remap_circuit,
)
from .transforms import (
    BoundaryKind,
    apply_qct,
    apply_qst,
    build_qft_circuit,
    wavenumbers,
)

_SPLITTINGS = ("trotter", "strang")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one transport scenario.

    ``n_x``/``n_y`` are qubits per axis (n_y = 0 for a one-dimensional run);
    lengths and times are in the units set by ``length`` and
    ``velocity_scale``.  ``n_steps`` splitting steps cover ``t_final``.  The
    streamwise axis is always periodic: advection acts in its Fourier basis.
    """

    n_x: int
    n_y: int
    profile: VelocityProfile
    diffusivity: float
    t_final: float
    n_steps: int = 1
    length: float = 1.0
    velocity_scale: float = 1.0
    splitting: str = "trotter"
    bc_y: BoundaryKind = BoundaryKind.NEUMANN
    checkpoints: int = 10
    merge_strang: bool = False

    def __post_init__(self) -> None:
        if self.n_x < 2:
            raise ValueError(f"streamwise register needs >= 2 qubits, got {self.n_x}")
        if self.n_y < 0:
            raise ValueError(f"wall-normal register size must be >= 0, got {self.n_y}")
        for name in ("diffusivity", "t_final", "length", "velocity_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.splitting not in _SPLITTINGS:
            raise ValueError(
                f"splitting must be one of {_SPLITTINGS}, got {self.splitting!r}"
            )
        if self.diffusivity < 0.0:
            raise ValueError(f"diffusivity must be >= 0, got {self.diffusivity}")
        if self.t_final < 0.0:
            raise ValueError(f"t_final must be >= 0, got {self.t_final}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.length <= 0.0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.checkpoints < 1:
            raise ValueError(f"checkpoints must be >= 1, got {self.checkpoints}")
        if self.n_y == 0 and self.profile.order > 0:
            raise ValueError("a sheared profile needs a wall-normal register")
        if self.merge_strang and self.splitting != "strang":
            raise ValueError("merge_strang only applies to Strang splitting")
        if self.merge_strang and self.n_steps > 1 and self.checkpoints > 1:
            raise ValueError(
                "merged Strang half-steps leave no exact intermediate states; "
                "disable merge_strang or set checkpoints = 1"
            )

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def nx_points(self) -> int:
        return 1 << self.n_x

    @property
    def ny_points(self) -> int:
        return (1 << self.n_y) if self.n_y else 1

    def peclet(self) -> float:
        if self.diffusivity == 0.0:
            return float("inf")
        return abs(self.velocity_scale) * self.length / self.diffusivity

    def fourier(self) -> float:
        return self.diffusivity * self.t_final / self.length**2


def x_coordinates(config: ScenarioConfig) -> np.ndarray:
    """Streamwise nodes j*L/N (periodic, endpoint excluded)."""
    n = config.nx_points
    return np.arange(n) * config.length / n


def y_coordinates(config: ScenarioConfig) -> np.ndarray | None:
    """Wall-normal nodes q*L/(N-1), both endpoints included; None when 1D."""
    if config.n_y == 0:
        return None
    n = config.ny_points
    return np.arange(n) * config.length / (n - 1)


def basis_index(config: ScenarioConfig, kind: str) -> int:
    """The grid index k of the initial condition ``basis:<k>``, checked."""
    raw, size = kind.split(":", 1)[1].strip(), config.nx_points * config.ny_points
    if not raw.isdecimal():
        raise ValueError(f"basis index must be an integer, got {raw!r}")
    if int(raw) >= size:
        raise ValueError(f"basis index {raw} outside grid of {size}")
    return int(raw)


def initial_scalar_field(config: ScenarioConfig, kind: str = "gaussian") -> np.ndarray:
    """Canonical initial conditions as a flat main-register vector.

    ``gaussian`` is the pulse exp(-100 (x - 1/2)^2) wrapped around the
    periodic cell, constant across the wall normal; ``uniform`` is all ones;
    ``basis:<k>`` is a single basis state.
    """
    if kind.startswith("basis:"):
        vec = np.zeros(config.nx_points * config.ny_points)
        vec[basis_index(config, kind)] = 1.0
        return vec
    x = x_coordinates(config)
    if kind == "gaussian":
        # The +-1 images reach e^-25 at the cell edges; omitting them leaves
        # the samples inconsistent with the periodic analytic solution.
        column = sum(np.exp(-100.0 * (x - 0.5 - m) ** 2) for m in (-1, 0, 1))
    elif kind == "uniform":
        column = np.ones(config.nx_points)
    else:
        raise ValueError(f"unknown initial condition {kind!r}")
    if config.n_y == 0:
        return column
    return np.tile(column[:, None], (1, config.ny_points)).reshape(-1, order="F")


@dataclass
class RunResult:
    """Outcome of run_scenario.

    ``final_state`` covers the main register (the damping ancilla is never
    stored); ``checkpoint_states`` maps step indices to normalized field
    vectors.  ``gate_counts`` and ``stage_times_s`` (seconds) are kept per
    stage category: ``qft``, ``advection``, ``diffusion``, the wall-normal
    DCT/DST ``wall`` (times only) and ``readout``, the inverse x QFTs that
    produce the intermediate checkpoints.  The ``total_*`` counts leave
    ``readout`` out.  ``stage_times_s["setup"]`` is the time taken to look
    up the compiled stages and bind them to the run's dt.
    """

    config: ScenarioConfig
    final_state: QuantumState
    success_prob: float
    success_prob_history: list[float]
    checkpoint_states: list[tuple[int, np.ndarray]]
    error_norms: dict[str, float] = dataclass_field(default_factory=dict)
    gate_counts: dict[str, int] = dataclass_field(default_factory=dict)
    stage_times_s: dict[str, float] = dataclass_field(default_factory=dict)
    wall_time_s: float = 0.0


class _Stage(NamedTuple):
    """A circuit widened onto the main register plus its own ancillas, with
    the gate totals that one application of it adds."""

    circuit: Circuit | BoundCircuit
    category: str
    controlled: int
    two_qubit: int

    def bind(self, value: float, name: str) -> "_Stage":
        """The stage with its circuit bound to ``value`` (see ``Circuit.bind``)."""
        return self._replace(circuit=self.circuit.bind(value, name))


_STAGE_MEMO_SIZE = 16


def _build_stage(category: str, builder, offset: int, n_main: int, *args) -> _Stage:
    """The circuit ``builder(*args)`` widened onto the main register, compiled.

    Its main qubits move up by ``offset`` and its ancillas to the top, above
    the ``n_main`` main qubits.
    """
    circuit = builder(*args)
    n_anc = len(circuit.ancilla_indices)
    n_own = circuit.n_qubits - n_anc
    if offset or n_own != n_main:
        mapping = {q: offset + q for q in range(n_own)}
        mapping.update({n_own + i: n_main + i for i in range(n_anc)})
        circuit = remap_circuit(circuit, mapping, n_main + n_anc)
    circuit._program()
    return _Stage(circuit, category, count_controlled_gates(circuit),
                  count_two_qubit_gates(circuit))


_shared_stage = functools.lru_cache(maxsize=_STAGE_MEMO_SIZE)(_build_stage)
_advection_stage = functools.lru_cache(maxsize=1)(_build_stage)


class _Stepper:
    """The stages of one splitting step, bound to a fixed dt."""

    def __init__(self, config: ScenarioConfig, dt: float):
        t0 = time.perf_counter()
        self.config = config
        n_x, n_y = config.n_x, config.n_y
        n_main = n_x + n_y
        self.y_qubits = list(range(n_x, n_main))
        self.counts = {
            key: {"controlled": 0, "two_qubit": 0}
            for key in ("qft", "advection", "diffusion", "readout")
        }
        self.times = dict.fromkeys((*self.counts, "wall", "setup"), 0.0)

        self.qft_fwd = _shared_stage("qft", build_qft_circuit, 0, n_main, n_x, True)
        self.qft_bwd = _shared_stage("qft", build_qft_circuit, 0, n_main, n_x, False)

        # Trotter applies only full advection steps, unmerged Strang only
        # half steps; merged Strang needs both.
        advection = _advection_stage("advection", build_shear_advection, 0, n_main,
                                     n_x, n_y, 1.0, config.profile)
        alpha = 2.0 * np.pi * config.velocity_scale * dt / config.length
        self.adv_full = self.adv_half = None
        if config.splitting == "trotter" or config.merge_strang:
            self.adv_full = advection.bind(alpha, "alpha")
        if config.splitting == "strang":
            self.adv_half = advection.bind(0.5 * alpha, "alpha")

        beta_x = DiffusionParams.from_physical(
            n_x, config.diffusivity, dt, config.length, BoundaryKind.PERIODIC
        ).beta
        self.diff_x = _shared_stage("diffusion", build_periodic_diffusion, 0, n_main,
                                    n_x, 1.0).bind(beta_x, "beta")

        self.y_fwd = None
        self.y_bwd = None
        self.diff_y = None
        if n_y > 0:
            beta_y = DiffusionParams.from_physical(
                n_y, config.diffusivity, dt, config.length, config.bc_y
            ).beta
            if config.bc_y is BoundaryKind.PERIODIC:
                self.y_fwd = _shared_stage("qft", build_qft_circuit, n_x, n_main,
                                           n_y, True)
                self.y_bwd = _shared_stage("qft", build_qft_circuit, n_x, n_main,
                                           n_y, False)
                diff_y = _shared_stage("diffusion", build_periodic_diffusion,
                                       n_x, n_main, n_y, 1.0)
            else:
                diff_y = _shared_stage("diffusion", build_halfspectrum_diffusion,
                                       n_x, n_main, n_y, 1.0, config.bc_y)
            self.diff_y = diff_y.bind(beta_y, "beta")
        self.times["setup"] = time.perf_counter() - t0

    def _apply(self, state: QuantumState, stage: _Stage,
               category: str | None = None) -> QuantumState:
        category = category or stage.category
        counts = self.counts[category]
        counts["controlled"] += stage.controlled
        counts["two_qubit"] += stage.two_qubit
        t0 = time.perf_counter()
        state = apply_circuit(state, stage.circuit)
        self.times[category] += time.perf_counter() - t0
        return state

    def _wall(self, state: QuantumState, inverse: bool) -> QuantumState:
        transform = apply_qct if self.config.bc_y is BoundaryKind.NEUMANN else apply_qst
        t0 = time.perf_counter()
        state = transform(state, self.y_qubits, inverse=inverse)
        self.times["wall"] += time.perf_counter() - t0
        return state

    def _diffuse(self, state: QuantumState) -> QuantumState:
        state = self._apply(state, self.diff_x)
        if self.config.n_y == 0:
            return state
        if self.config.bc_y is BoundaryKind.PERIODIC:
            state = self._apply(state, self.y_fwd)
            state = self._apply(state, self.diff_y)
            return self._apply(state, self.y_bwd)
        state = self._wall(state, inverse=False)
        state = self._apply(state, self.diff_y)
        return self._wall(state, inverse=True)

    def step(self, state: QuantumState, first: bool = True, last: bool = True) -> QuantumState:
        """One splitting step on a state whose x axis is in Fourier space.

        Merged Strang fuses each trailing half advection with the next
        leading one, so only its first step leads with a half and its last
        step ends with one.
        """
        strang, merged = self.config.splitting == "strang", self.config.merge_strang
        lead = self.adv_half if strang and (first or not merged) else self.adv_full
        state = self._diffuse(self._apply(state, lead))
        if strang and (last or not merged):
            state = self._apply(state, self.adv_half)
        return state

    def read_out(self, state: QuantumState, final: bool) -> QuantumState:
        """The state back in grid space (a new state); only the final
        read-out counts as the run's inverse x QFT."""
        return self._apply(state, self.qft_bwd, "qft" if final else "readout")

    def flat_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        total_c = total_t = 0
        for key, vals in self.counts.items():
            out[f"{key}_controlled"] = vals["controlled"]
            out[f"{key}_two_qubit"] = vals["two_qubit"]
            if key != "readout":
                total_c += vals["controlled"]
                total_t += vals["two_qubit"]
        out["total_controlled"] = total_c
        out["total_two_qubit"] = total_t
        return out


def _coerce_initial(config: ScenarioConfig, initial) -> QuantumState:
    """The initial field or state as a normalized main-register state."""
    n_main, main_dim = config.n_x + config.n_y, config.nx_points * config.ny_points
    _check_register_size(n_main)
    if isinstance(initial, QuantumState):
        if initial.n_qubits != n_main:
            raise ValueError(
                f"initial state has {initial.n_qubits} qubits, scenario needs {n_main}"
            )
        arr = initial.amplitudes
    else:
        arr = np.asarray(initial, dtype=np.complex128)
        if arr.ndim == 2:
            arr = arr.reshape(-1, order="F")
        if arr.size != main_dim:
            raise ValueError(f"initial field has {arr.size} entries, grid has {main_dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("initial field holds non-finite values")
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ValueError("initial field is identically zero")
    return QuantumState(n_main, arr / norm)


def _checkpoint_steps(config: ScenarioConfig) -> list[int]:
    marks = {0, config.n_steps}
    for k in range(1, config.checkpoints):
        marks.add((k * config.n_steps) // config.checkpoints)
    return sorted(marks)


def run_scenario(
    config: ScenarioConfig, initial, references: dict[str, np.ndarray] | None = None
) -> RunResult:
    """Run all splitting steps and collect diagnostics.

    ``initial`` is a main-register QuantumState or a field array (flat or
    (N_x, N_y)); it is normalized on entry.  ``references`` maps oracle names
    to reference vectors; each is compared against the final state with
    error_norm.
    """
    t0 = time.perf_counter()
    steps = _checkpoint_steps(config)
    state = _coerce_initial(config, initial)
    checkpoints = [(0, state.amplitudes.copy())]
    success_history = []
    stepper = _Stepper(config, config.dt)
    spectral = stepper._apply(state, stepper.qft_fwd)
    for i in range(1, config.n_steps + 1):
        last = i == config.n_steps
        spectral = stepper.step(spectral, first=(i == 1), last=last)
        success_history.append(spectral.success_prob)
        if i in steps:
            # n_steps is always a checkpoint, so this also yields the final state
            state = stepper.read_out(spectral, final=last)
            checkpoints.append((i, state.amplitudes.copy()))
    error_norms = {}
    if references:
        from .oracles import error_norm

        for name, vec in references.items():
            error_norms[name] = error_norm(state.amplitudes, vec)
    return RunResult(
        config=config,
        final_state=state,
        success_prob=state.success_prob,
        success_prob_history=success_history,
        checkpoint_states=checkpoints,
        error_norms=error_norms,
        gate_counts=stepper.flat_counts(),
        stage_times_s=dict(stepper.times),
        wall_time_s=time.perf_counter() - t0,
    )


def _spectral_x_derivative(arr: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    kx = wavenumbers(config.n_x, config.length, BoundaryKind.PERIODIC).values
    spec = np.fft.fft(arr, axis=0) * (1j * kx)[:, None]
    return np.fft.ifft(spec, axis=0)


def _spectral_y_derivative(arr: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    ny = config.ny_points
    dy = config.length / ny
    if config.bc_y is BoundaryKind.PERIODIC:
        ext = arr
    elif config.bc_y is BoundaryKind.NEUMANN:
        ext = np.concatenate([arr, arr[:, ::-1]], axis=1)
    else:
        ext = np.concatenate([arr, -arr[:, ::-1]], axis=1)
    k = 2.0 * np.pi * np.fft.fftfreq(ext.shape[1], d=dy)
    spec = np.fft.fft(ext, axis=1) * (1j * k)[None, :]
    return np.fft.ifft(spec, axis=1)[:, :ny]


def commutator_error_estimate(config: ScenarioConfig, field) -> np.ndarray:
    """Leading-order splitting error field D*(2u'(y) d2/dxdy + u''(y) d/dx).

    The prefactor dt^2/2 is left out, so this measures the size of the
    advection/diffusion commutator on the given field.  Uniform profiles and
    fields without streamwise variation give zero.
    """
    if config.n_y == 0:
        return np.zeros(config.nx_points)
    arr = np.asarray(field, dtype=np.complex128)
    flat_in = arr.ndim == 1
    if flat_in:
        arr = arr.reshape(config.nx_points, config.ny_points, order="F")
    ny = config.ny_points
    y_hat = np.arange(ny) / (ny - 1)
    scale = config.velocity_scale / config.length
    du = scale * config.profile.derivative(y_hat, 1)
    d2u = (scale / config.length) * config.profile.derivative(y_hat, 2)
    dphidx = _spectral_x_derivative(arr, config)
    dphidxdy = _spectral_y_derivative(dphidx, config)
    est = config.diffusivity * (
        2.0 * du[None, :] * dphidxdy + d2u[None, :] * dphidx
    )
    est = np.real(est)
    return est.reshape(-1, order="F") if flat_in else est

