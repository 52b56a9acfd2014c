"""Statevector core: states, gates, circuits, postselection, sampling.

Qubit 0 is the least significant bit of the basis index throughout, so basis
state ``|q_{n-1} ... q_1 q_0>`` lives at amplitude index ``sum_r 2**r * q_r``.
Non-unitary damping blocks are realised with an ancilla qubit that is projected
back onto ``|0>``; the accumulated postselection probability is tracked on the
state as ``success_prob``.

The register rule: a state holds only the circuit's main qubits.  The
declared ancillas must be the top qubits, touched only by damping gates that
target them; each is a fresh |0> never stored.  A circuit that declares no
ancillas (the deferred-measurement demo) stores and runs every qubit.

Circuits run through one compiled engine.  The first time ``apply_circuit``
runs a circuit it compiles the gate list into a short program of in-place
steps and caches it on the circuit; ``Circuit.add`` drops the cache.  Every
step acts on the amplitudes reshaped to a (2,)*n tensor, where qubit q is
axis n-1-q, and pins control and target values with length-1 slices.  The
steps therefore read and write strided views of the register; no index or
mask array over the register is kept, and the compiler builds index arrays
only over the qubits one factor tensor spans.

- CNOT and swap gates, with any controls, only permute basis states.  They
  are held in a pending frame instead of being run.  A gate equal to the
  frame's last gate cancels it.
- A run of consecutive phase and controlled-phase gates becomes one phase
  tensor, built in one vectorized pass: the gates are grouped by the qubits
  they pin to 0, and each group's angles are scattered with one bincount
  and summed with one subset-sum pass per axis; an entry only ever receives
  the angles of gates whose pins hold there.  Under a pending frame the
  step runs before the frame's gates, so the tensor is re-indexed through
  the frame; it spans only the qubits the run and the frame touch.
- A run of consecutive damping gates on one declared ancilla becomes one
  step in the same way: one real factor tensor exp(-sum gamma) on the main
  register, under the frame, and one renormalization whose probability
  multiplies ``success_prob``.  A run whose probability is below 1e-300
  raises ``postselection impossible``.
- Hadamard and damping gates on stored qubits first emit the frame, one
  exchange step per deferred gate, and are then one step each.  The end of
  the circuit emits what the frame still holds.  A frame that cancels
  completely emits nothing: the periodic damping ladder (CNOT fold, damping,
  fold undone) is one step.

A narrow circuit with a Hadamard is fused instead: when a circuit declares
no ancillas, holds a Hadamard, and touches only a window of w contiguous
qubits with 2w <= n, it compiles to one dense step.  Its 2^w x 2^w matrix is
made once, by running the circuit's own program (compiled as above) on the
identity laid out as a 2w-qubit state, so gate semantics keep one
implementation; the step multiplies the window axis of the register, viewed
as (2^(n-lo-w), 2^w, 2^lo), by it.  The x QFT stages of a square grid and
its periodic y QFT stages fuse; a standalone QFT, which spans its whole
register, and the demo's joint circuit do not.

A diagonal step keeps its exponent table, taken through the frame, and
makes its factor on its first call.  ``Circuit.bind(value)`` therefore
rescales a compiled circuit without rebuilding it: each diagonal step
becomes exp(value * scale * table) and every other step is shared.  A
circuit whose angles are all linear in one parameter (advection in alpha,
damping in beta) is built and compiled once at parameter 1 and bound per
use; the unit circuit holds its tables and no factors.  A dense step
rebuilds its matrix from its gates bound to the value.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

DEFAULT_MAX_QUBITS = 26
_MAX_QUBITS_ENV = "QADVDIFF_MAX_QUBITS"

_MIN_POSTSELECT_PROB = 1e-300
_SLAB_ROWS, _SLAB_DIM = 8, 64


def max_qubits() -> int:
    """Largest register size new_state accepts (env QADVDIFF_MAX_QUBITS overrides)."""
    raw = os.environ.get(_MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_MAX_QUBITS_ENV} must be positive, got {value}")
    return value


class GateKind(str, Enum):
    PHASE = "phase"
    CONTROLLED_PHASE = "cphase"
    DAMPING = "damping"
    HADAMARD = "hadamard"
    CNOT = "cnot"
    SWAP = "swap"


_PHASE_KINDS = (GateKind.PHASE, GateKind.CONTROLLED_PHASE)


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind, a target qubit, (qubit, value) controls and a parameter.

    ``param`` is the phase angle for (controlled) phase gates and the damping
    exponent gamma for damping rotations; it is unused otherwise.  ``partner``
    is the second qubit of a swap and None for every other kind.
    """

    kind: GateKind
    target: int
    controls: tuple[tuple[int, int], ...] = ()
    param: float = 0.0
    partner: int | None = None

    def __post_init__(self) -> None:
        qubits = [self.target] + [q for q, _ in self.controls]
        if self.partner is not None:
            qubits.append(self.partner)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate touches a qubit twice: {self}")
        for _, v in self.controls:
            if v not in (0, 1):
                raise ValueError(f"control value must be 0 or 1, got {v}")
        if self.kind is GateKind.SWAP and self.partner is None:
            raise ValueError("swap gate needs a partner qubit")
        if self.kind is not GateKind.SWAP and self.partner is not None:
            raise ValueError("only swap gates take a partner qubit")
        if self.kind is GateKind.CNOT and len(self.controls) != 1:
            raise ValueError("cnot takes exactly one control")
        if self.kind is GateKind.CONTROLLED_PHASE and not self.controls:
            raise ValueError("controlled phase needs at least one control")
        if math.isnan(self.param):
            raise ValueError(f"gate parameter must not be NaN: {self}")
        if self.kind in _PHASE_KINDS and math.isinf(self.param):
            raise ValueError(f"phase angle must be finite, got {self.param}")
        if self.kind is GateKind.DAMPING and self.param < 0.0:
            raise ValueError(
                f"damping exponent must be >= 0 (amplification is not "
                f"block-encodable), got {self.param}"
            )


def phase(target: int, theta: float, controls: tuple[tuple[int, int], ...] = ()) -> GateOp:
    kind = GateKind.CONTROLLED_PHASE if controls else GateKind.PHASE
    return GateOp(kind, target, tuple(controls), float(theta))


def damping(target: int, gamma: float, controls: tuple[tuple[int, int], ...] = ()) -> GateOp:
    return GateOp(GateKind.DAMPING, target, tuple(controls), float(gamma))


def hadamard(target: int, controls: tuple[tuple[int, int], ...] = ()) -> GateOp:
    return GateOp(GateKind.HADAMARD, target, tuple(controls))


def cnot(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CNOT, target, ((control, 1),))


def swap(a: int, b: int) -> GateOp:
    return GateOp(GateKind.SWAP, a, partner=b)


@dataclass
class Circuit:
    """Ordered gate list over ``n_qubits`` qubits.

    ``ancilla_indices`` marks the damping ancillas, the top qubits:
    apply_circuit never stores them and projects each back onto |0> right
    after each damping gate that targets it.
    """

    n_qubits: int
    gates: list[GateOp] = field(default_factory=list)
    ancilla_indices: frozenset[int] = frozenset()
    _compiled: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_qubits(self.ancilla_indices, "ancilla")
        for gate in self.gates:
            self._check_gate(gate)

    def _check_qubits(self, qubits, role: str) -> None:
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"{role} qubit {q} outside register of {self.n_qubits}")

    def _check_gate(self, gate: GateOp) -> None:
        qubits = [gate.target] + [q for q, _ in gate.controls]
        if gate.partner is not None:
            qubits.append(gate.partner)
        self._check_qubits(qubits, "gate")

    def add(self, gate: GateOp) -> None:
        self._check_gate(gate)
        self.gates.append(gate)
        self._compiled = None

    def extend(self, gates) -> None:
        for gate in gates:
            self.add(gate)

    def _program(self) -> list:
        """The compiled steps apply_circuit runs, built once.

        Change the gate list only through add/extend, which drop the cache.
        """
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled

    def bind(self, value: float, name: str = "value") -> "BoundCircuit":
        """This circuit with every phase angle and damping exponent times ``value``.

        The compiled program is shared: only its diagonal steps are
        rescaled, from the exponent tables they keep.  Damping gates scale
        only on declared ancillas and only by ``value >= 0``; ``name`` names
        the parameter in errors.
        """
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value < 0.0 and any(g.kind is GateKind.DAMPING for g in self.gates):
            raise ValueError(f"{name} must be >= 0 to scale damping exponents, "
                             f"got {value}")
        steps = tuple(step.rescaled(value) if hasattr(step, "rescaled") else step
                      for step in self._program())
        return BoundCircuit(self, value, steps)


_SCALED_KINDS = (*_PHASE_KINDS, GateKind.DAMPING)


class BoundCircuit:
    """A compiled circuit bound to a parameter value (see ``Circuit.bind``).

    It runs ``steps``, the source program with each diagonal step rescaled
    by ``value``, and shares everything else with ``source``.  ``gates`` are
    the source's gates with their phase angles and damping exponents times
    ``value``, made on first access.
    """

    def __init__(self, source: Circuit, value: float, steps: tuple):
        self.source, self.value, self.steps = source, value, steps
        self._gates = None

    @property
    def n_qubits(self) -> int:
        return self.source.n_qubits

    @property
    def ancilla_indices(self) -> frozenset[int]:
        return self.source.ancilla_indices

    @property
    def gates(self) -> list[GateOp]:
        if self._gates is None:
            self._gates = [
                GateOp(g.kind, g.target, g.controls, g.param * self.value, g.partner)
                if g.kind in _SCALED_KINDS else g for g in self.source.gates]
        return self._gates

    def _program(self) -> tuple:
        return self.steps


@dataclass
class QuantumState:
    """Complex amplitude vector over ``2**n_qubits`` basis states.

    Amplitudes stay normalized; ``success_prob`` is the product of all
    postselection probabilities applied so far.
    """

    n_qubits: int
    amplitudes: np.ndarray
    success_prob: float = 1.0

    def __post_init__(self) -> None:
        if np.shape(self.amplitudes) != (2**self.n_qubits,):
            raise ValueError(
                f"a {self.n_qubits}-qubit state needs {2**self.n_qubits} amplitudes, "
                f"got shape {np.shape(self.amplitudes)}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy(), self.success_prob)


def _check_register_size(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"register needs at least one qubit, got {n_qubits}")
    limit = max_qubits()
    if n_qubits > limit:
        raise ValueError(
            f"register of {n_qubits} qubits exceeds the configured maximum "
            f"{limit} (override with {_MAX_QUBITS_ENV})"
        )


def new_state(n_qubits: int) -> QuantumState:
    """All-zeros computational basis state |0...0>."""
    _check_register_size(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def damping_matrix(gamma: float) -> np.ndarray:
    """2x2 rotation R_Y(2*arccos(e^-gamma)); |0> -> e^-gamma|0> + sqrt(1-e^-2g)|1>."""
    if gamma < 0.0:
        raise ValueError(f"damping exponent must be >= 0, got {gamma}")
    c = np.exp(-gamma)
    s = np.sqrt(max(0.0, 1.0 - c * c))
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


_H = 1.0 / np.sqrt(2.0)


def _register(state: QuantumState) -> np.ndarray:
    """The amplitudes as a (2,)*n tensor sharing their memory; qubit q is axis n-1-q."""
    return state.amplitudes.reshape((2,) * state.n_qubits)


def _pins(n_qubits: int, pins) -> tuple[slice, ...]:
    """Index into the register tensor that fixes each (qubit, value) pin.

    Pins are length-1 slices, so the result is always a view: indexing every
    axis with an integer would return a scalar copy, and an in-place update
    through it would be lost.
    """
    index = [slice(None)] * n_qubits
    for q, v in pins:
        index[n_qubits - 1 - q] = slice(v, v + 1)
    return tuple(index)


def _exponent_table(n_span: int, terms) -> np.ndarray:
    """Summed term values over a (2,)*n_span tensor of local bits.

    ``terms`` are (pins, value) pairs over local bit positions.  Terms are
    grouped by the bits they pin to 0; with those bits flipped every pin in
    the group reads 1, so one bincount places each value at its pinned bits
    and one subset-sum pass per bit carries it to every index above them.
    An index only ever receives the values of terms whose pins hold there,
    so no value is cancelled against another (an inf exponent stays inf).
    """
    groups: dict[int, tuple[list, list]] = {}
    for pins, value in terms:
        zeros = sum(1 << j for j, v in pins if not v)
        index, weight = groups.setdefault(zeros, ([], []))
        index.append(sum(1 << j for j, _ in pins))
        weight.append(value)
    total = np.zeros((2,) * n_span)
    for zeros, (index, weight) in groups.items():
        table = np.bincount(index, weight, minlength=1 << n_span)
        for j in range(n_span):
            halves = table.reshape(-1, 2, 1 << j)
            halves[:, 1] += halves[:, 0]
        total += table.reshape(total.shape)[tuple(
            slice(None, None, -1) if zeros >> (n_span - 1 - axis) & 1 else slice(None)
            for axis in range(n_span))]
    return total


def _frame_map(bit: dict[int, int], frame) -> np.ndarray:
    """Where the deferred gates ``frame`` send each local index.

    Bit ``bit[q]`` of a local index holds qubit q; ``bit`` covers every qubit
    the frame touches.
    """
    index = np.arange(1 << len(bit))
    for gate in frame:
        hold = np.ones(index.shape, dtype=bool)
        for q, v in gate.controls:
            hold &= (index >> bit[q] & 1) == v
        flip = 1 << bit[gate.target]
        if gate.kind is GateKind.SWAP:
            hold &= (index >> bit[gate.target] ^ index >> bit[gate.partner]) & 1 == 1
            flip |= 1 << bit[gate.partner]
        index = np.where(hold, index ^ flip, index)
    return index


def _diagonal_step(n_qubits: int, terms, scale: complex, frame):
    """One step multiplying the register by exp(scale * summed exponents).

    ``terms`` are (pins, value) pairs; each adds ``value`` to the exponent on
    the part of the register its pins select.  The step runs before the
    deferred gates ``frame``, so the exponent at each index is the one at the
    index the frame sends it to.  Pins shared by every term on qubits the
    frame does not touch select the view the factor applies to; the factor
    spans the other pinned qubits and the frame's, and broadcasts onto that
    view.
    """
    framed = {q for g in frame for q in _gate_qubits(g)}
    common = set.intersection(*(set(pins) for pins, _ in terms))
    common = {(q, v) for q, v in common if q not in framed}
    span = sorted(({q for pins, _ in terms for q, _ in pins} | framed)
                  - {q for q, _ in common})
    bit = {q: j for j, q in enumerate(span)}
    table = _exponent_table(len(span), [([(bit[q], v) for q, v in pins if q in bit], value)
                                        for pins, value in terms])
    if frame:
        table = table.ravel()[_frame_map(bit, frame)]
    shape = [2 if n_qubits - 1 - axis in bit else 1 for axis in range(n_qubits)]
    return _factor_step(_pins(n_qubits, common), table.reshape(shape), scale)


def _factor_step(where, table: np.ndarray, scale: complex, factor=None):
    """A step multiplying the register view ``where`` by exp(scale * table).

    It makes the factor on its first call unless given one, so a circuit
    compiled only to be rescaled holds its tables and no factors.
    ``step.rescaled(value)`` is the step for exp(value * scale * table) with
    its factor made at once; it shares the table.
    """
    def step(psi, state):
        nonlocal factor
        if factor is None:
            factor = np.exp(scale * table)
        view = psi[where]
        view *= factor

    def rescaled(value: float):
        return _factor_step(where, table, scale * value, np.exp((scale * value) * table))

    step.rescaled = rescaled
    return step


def _matrix_step(n_qubits: int, gate: GateOp):
    """Real 2x2 update of the target's |0> and |1> halves under the controls."""
    if gate.kind is GateKind.HADAMARD:
        u00, u01, u10, u11 = _H, _H, _H, -_H
    else:
        (u00, u01), (u10, u11) = damping_matrix(gate.param).real
    lo = _pins(n_qubits, gate.controls + ((gate.target, 0),))
    hi = _pins(n_qubits, gate.controls + ((gate.target, 1),))

    def step(psi, state):
        a0, a1 = psi[lo], psi[hi]
        new0 = u00 * a0
        new0 += u01 * a1
        a1 *= u11
        a1 += u10 * a0
        a0[...] = new0

    if gate.kind is GateKind.DAMPING:
        def rescaled(value):
            raise ValueError(f"cannot rescale {gate}: only damping on a declared "
                             f"ancilla is a diagonal step")

        step.rescaled = rescaled
    return step


def _exchange(n_qubits: int, gate: GateOp):
    """A CNOT or swap as one step swapping two equally shaped parts of the register."""
    if gate.kind is GateKind.SWAP:
        t, p = gate.target, gate.partner
        pins_a, pins_b = ((t, 1), (p, 0)), ((t, 0), (p, 1))
    else:
        pins_a, pins_b = ((gate.target, 0),), ((gate.target, 1),)
    ia = _pins(n_qubits, gate.controls + pins_a)
    ib = _pins(n_qubits, gate.controls + pins_b)

    def step(psi, state):
        a, b = psi[ia], psi[ib]
        held = a.copy()
        a[...] = b
        b[...] = held

    return step


def _gate_qubits(gate: GateOp) -> set[int]:
    """Every qubit a gate touches: target, controls and swap partner."""
    return {gate.target, gate.partner, *(q for q, _ in gate.controls)} - {None}


def _defer(frame: list, gate: GateOp) -> None:
    """Add a CNOT or swap to the pending frame, or cancel it against the last one.

    Both kinds are involutions, so a gate equal to the frame's last gate
    (swap partners in either order, controls in any order) undoes it.
    """
    def key(g: GateOp):
        return g.kind, {g.target, g.partner}, set(g.controls)

    if frame and key(frame[-1]) == key(gate):
        frame.pop()
    else:
        frame.append(gate)


def _projected_damping_step(ancilla: int, scale):
    """A run of damping gates on one unstored ancilla, each followed by its projection.

    The ancilla is a fresh |0>, so a damping gate and its projection scale the
    main register by e^-gamma where the gate's controls hold.  The run is one
    real factor step ``scale``, taken through the pending frame, and one
    renormalization; the probability of the whole run is the product of the
    per-gate ones.  ``step.rescaled`` rescales the factor step.
    """
    def step(psi, state):
        scale(psi, state)
        p_zero = float(np.vdot(psi, psi).real)
        if p_zero < _MIN_POSTSELECT_PROB:
            raise ValueError(
                f"postselection impossible: ancilla {ancilla} holds |0> with "
                f"probability {p_zero:.3e}"
            )
        psi /= np.sqrt(p_zero)
        state.success_prob *= min(p_zero, 1.0)

    step.rescaled = lambda value: _projected_damping_step(ancilla, scale.rescaled(value))
    return step


def _dense_step(n_qubits: int, lo: int, block: "Circuit", value: float | None = None):
    """One step multiplying a window of 2^w basis states by a dense matrix.

    ``block`` holds the window's gates moved onto the top w qubits of a
    2w-qubit register.  Run on the identity laid out as that register (entry
    [r, c] at index r*2^w + c), its own program leaves the window's matrix U,
    or that of ``block.bind(value)``.  The step views the register as
    (2^(n-lo-w), 2^w, 2^lo) and multiplies the middle axis by U.
    ``step.rescaled(value)`` rebuilds U from ``block.bind(value)``.
    """
    w = block.n_qubits // 2
    dim, high, low = 1 << w, 1 << (n_qubits - lo - w), 1 << lo
    eye = QuantumState(2 * w, np.eye(dim, dtype=np.complex128).ravel())
    bound = block if value is None else block.bind(value)
    matrix = apply_circuit(eye, bound).amplitudes.reshape(dim, dim)
    # A matrix at most _SLAB_DIM wide multiplies in slabs of _SLAB_ROWS rows,
    # one batched matmul: numpy runs one GEMM per slab, small enough that
    # BLAS keeps it on one thread, where one 64x64 GEMM is split over every
    # BLAS thread and waits on the slowest.  A wider matrix is one GEMM, which
    # threads well and reads the matrix once instead of once per slab.
    wide = dim > _SLAB_DIM
    if low == 1:
        slab = high if wide else min(_SLAB_ROWS, high)

        def product(psi):
            return np.matmul(psi.reshape(-1, slab, dim), matrix.T)
    else:
        left = matrix.reshape(-1, dim if wide else min(_SLAB_ROWS, dim), dim)

        def product(psi):
            return np.matmul(left, psi.reshape(high, 1, dim, low))

    # Heavily damped modes decay toward subnormal numbers, and every
    # subnormal product costs a slow floating-point assist: they made the
    # y QFTs of a 10x10 periodic run several times slower.  The step first
    # sets to 0 each amplitude below tiny * 2^w, the ones whose product with
    # an entry of size 2^-w can be subnormal (a QFT entry is 2^(-w/2)).
    tiny = np.finfo(np.float64).tiny * dim

    def step(psi, state):
        parts = psi.reshape(-1).view(np.float64)
        parts[np.abs(parts) < tiny] = 0.0
        psi[...] = product(psi).reshape(psi.shape)

    step.rescaled = lambda value: _dense_step(n_qubits, lo, block, value)
    return step


def _fused_step(circuit: "Circuit"):
    """The circuit as one dense step, or None when it does not fuse.

    It fuses when it declares no ancillas, holds a Hadamard, and its gates
    lie in a window of w qubits with 2w <= n, so the block's matrix is no
    larger than the n-qubit register.
    """
    if circuit.ancilla_indices or not any(g.kind is GateKind.HADAMARD
                                          for g in circuit.gates):
        return None
    touched = set().union(*map(_gate_qubits, circuit.gates))
    lo, w = min(touched), max(touched) + 1 - min(touched)
    if 2 * w > circuit.n_qubits:
        return None
    block = remap_circuit(circuit, {q: w + q - lo for q in range(lo, lo + w)}, 2 * w)
    block._compiled = _compile(block, fuse=False)
    return _dense_step(circuit.n_qubits, lo, block)


def _compile(circuit: "Circuit", fuse: bool = True) -> list:
    """Turn a circuit into steps that act in place on the register tensor.

    A circuit that ``_fused_step`` fuses is one dense step.  Otherwise CNOT
    and swap gates are held in a pending frame.  Each run of
    (controlled) phase gates becomes one phase-tensor step under the frame.
    The declared ancillas are left out of the register and each run of
    damping gates on one becomes one postselected step under the frame; an
    ancilla below the top or touched other than as a damping target raises.
    Every other gate first emits the frame as exchange steps, then is a step
    of its own; the end of the circuit emits what the frame still holds.
    """
    projected = circuit.ancilla_indices
    n = circuit.n_qubits - len(projected)
    if n < 1 or projected != frozenset(range(n, circuit.n_qubits)):
        raise ValueError(
            f"projected ancillas {sorted(projected)} must be the top qubits of "
            f"the {circuit.n_qubits}-qubit register, above at least one main qubit"
        )
    for gate in circuit.gates if projected else ():
        touched = _gate_qubits(gate)
        if gate.kind is GateKind.DAMPING:
            touched.discard(gate.target)
        if touched & projected:
            raise ValueError(f"{gate} touches a projected ancilla other than "
                             f"as a damping target (declare no ancillas to store it)")
    fused = _fused_step(circuit) if fuse else None
    if fused is not None:
        return [fused]

    def run_key(gate: GateOp):
        if gate.kind in _PHASE_KINDS:
            return "phase"
        if gate.kind in (GateKind.CNOT, GateKind.SWAP):
            return "frame"
        if gate.kind is GateKind.DAMPING and gate.target in projected:
            return gate.target
        return None

    steps, frame = [], []
    for key, run in itertools.groupby(circuit.gates, run_key):
        run = list(run)
        if key == "frame":
            for gate in run:
                _defer(frame, gate)
        elif key == "phase":
            terms = [(g.controls + ((g.target, 1),), g.param) for g in run]
            steps.append(_diagonal_step(n, terms, 1j, frame))
        elif key is None:
            steps.extend(_exchange(n, gate) for gate in frame)
            frame = []
            steps.extend(_matrix_step(n, gate) for gate in run)
        else:
            terms = [(g.controls, g.param) for g in run]
            steps.append(_projected_damping_step(key, _diagonal_step(n, terms, -1.0, frame)))
    steps.extend(_exchange(n, gate) for gate in frame)
    return steps


def apply_circuit(state: QuantumState, circuit: Circuit | BoundCircuit) -> QuantumState:
    """Run a circuit, or a bound one, through its compiled program.

    The state holds only the main qubits: each declared ancilla, never
    stored, is projected onto |0> after each damping gate on it.  A circuit
    that declares no ancillas runs on every qubit and projects nothing (the
    fresh-ancilla export defers all measurements to the end).  The program is
    compiled on first use and cached on the circuit.
    """
    program = circuit._program()
    unstored = len(circuit.ancilla_indices)
    if state.n_qubits != circuit.n_qubits - unstored:
        raise ValueError(
            f"circuit spans {circuit.n_qubits} qubits with {unstored} unstored "
            f"ancillas, so the state needs {circuit.n_qubits - unstored} qubits, "
            f"got {state.n_qubits}"
        )
    out = state.copy()
    psi = _register(out)
    for step in program:
        step(psi, out)
    return out


def _check_shots(shots) -> int:
    """``shots`` as a positive int; a bool or a non-integer is rejected."""
    try:
        count = operator.index(shots)
    except TypeError:
        count = None
    if count is None or isinstance(shots, bool):
        raise TypeError(f"shots must be an integer, got {shots!r}")
    if count < 1:
        raise ValueError(f"shots must be positive, got {count}")
    return count


@dataclass(frozen=True, eq=False)
class ShotDistribution:
    """A state's normalized measurement probabilities, kept over their support.

    ``support`` holds the indices of the nonzero probabilities, and also the
    last index when its probability is 0; ``probs`` holds their values.  A
    state with no zero probability keeps every index.  Both arrays are
    read-only, so one distribution can serve many draws.
    """

    size: int
    support: np.ndarray
    probs: np.ndarray

    @classmethod
    def of(cls, state: QuantumState) -> "ShotDistribution":
        probs = np.abs(state.amplitudes) ** 2
        size = probs.size
        total = probs.sum()
        if not math.isfinite(total):
            raise ValueError(f"cannot sample a state with a non-finite norm "
                             f"(squared norm {total})")
        if total == 0.0:
            raise ValueError("cannot sample a state with zero norm")
        probs /= total
        support = np.flatnonzero(probs)
        if support[-1] != size - 1:
            support = np.append(support, size - 1)
        probs = probs[support]
        support.flags.writeable = False
        probs.flags.writeable = False
        return cls(size, support, probs)

    def draw(self, shots: int, seed: int) -> np.ndarray:
        counts = np.random.default_rng(seed).multinomial(shots, self.probs)
        full = np.zeros(self.size, dtype=counts.dtype)
        full[self.support] = counts
        return full


def sample_counts(state: QuantumState | ShotDistribution, shots: int,
                  seed: int) -> np.ndarray:
    """Multinomial measurement histogram over all basis indices.

    Deterministic per seed; returns an int array of length ``2**n_qubits``
    summing to ``shots``.  ``state`` may also be its ``ShotDistribution``,
    which a caller drawing many seeds from one state keeps.

    The probabilities are normalized over the whole register, and the
    multinomial is drawn over the support alone and scattered back.  The
    counts are the same bit for bit: numpy draws the multinomial
    as a chain of binomials, one per bin but the last, and a bin of
    probability 0 takes no random draw and leaves the remaining mass
    unchanged.  Only the last bin differs, as it takes what is left without
    a draw, so the support keeps the register's last index.
    """
    shots = _check_shots(shots)
    if not isinstance(state, ShotDistribution):
        state = ShotDistribution.of(state)
    return state.draw(shots, seed)


def build_fourier_initial_state(n_qubits: int) -> Circuit:
    """Prepare sqrt(2/3)|0> + sqrt(1/6)|1> + sqrt(1/6)|2^n - 1> from |0...0>.

    One Y-rotation on qubit 0, a controlled Hadamard onto qubit 1, then a CNOT
    chain copying qubit 1 up the register.  In spectral indexing this is the
    three-mode state with a dominant mean and a symmetric pair of first modes.
    """
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {n_qubits}")
    circuit = Circuit(n_qubits)
    # cos(theta/2) = sqrt(2/3) via a damping rotation with e^-gamma = sqrt(2/3)
    circuit.add(damping(0, 0.5 * np.log(1.5)))
    circuit.add(hadamard(1, controls=((0, 1),)))
    for q in range(1, n_qubits - 1):
        circuit.add(cnot(q, q + 1))
    return circuit


def remap_circuit(circuit: Circuit, mapping: dict[int, int], n_qubits: int) -> Circuit:
    """Re-index a circuit's qubits via ``mapping`` onto a register of ``n_qubits``."""
    gates = []
    for g in circuit.gates:
        gates.append(
            GateOp(
                g.kind,
                mapping[g.target],
                tuple((mapping[q], v) for q, v in g.controls),
                g.param,
                None if g.partner is None else mapping[g.partner],
            )
        )
    ancillas = frozenset(mapping[q] for q in circuit.ancilla_indices)
    return Circuit(n_qubits, gates, ancillas)


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Adjoint of a unitary circuit (reversed order, negated phase angles).

    Damping gates are non-invertible within the gate set and are rejected.
    """
    gates = []
    for g in reversed(circuit.gates):
        if g.kind is GateKind.DAMPING:
            raise ValueError("cannot invert a circuit containing damping gates")
        if g.kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE):
            gates.append(replace(g, param=-g.param))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, gates, circuit.ancilla_indices)

