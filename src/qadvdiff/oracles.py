"""Classical reference solutions the quantum pipeline is verified against.

Three independent routes: a closed-form periodic Gaussian-convolution solution
for the 1D pulse, exact diagonal propagators in each spectral basis (built on
numpy's FFT and scipy's DCT/DST through ``transforms.spectral_transform``
rather than the gate engine), and a tenth-order central finite-difference
integrator for the full 2D shear problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .transforms import BoundaryKind, WavenumberTable, spectral_transform, wavenumbers

PULSE_CENTER = 0.5
PULSE_VARIANCE = 1.0 / 200.0  # exp(-100 (x - 1/2)^2)

_IMAGE_TAIL = 1e-16
_FD_ORDER = 10
_CFL_SAFETY = 0.4
_MAX_SUBSTEPS = 2_000_000


@dataclass
class ScalarField:
    """Grid samples of a scalar plus the axis spacings they live on."""

    values: np.ndarray
    dx: float
    dy: float | None = None
    time: float = 0.0


def analytic_pulse_solution(
    x, t: float, velocity: float, diffusivity: float, length: float = 1.0
) -> np.ndarray:
    """Advected-diffused periodic Gaussian pulse, evaluated in closed form.

    The initial condition is exp(-100 (x - 1/2)^2).  Convolving with the heat
    kernel keeps the profile a Gaussian sum over periodic images: variance
    grows to sigma0^2 + 2*D*t, the center rides at 1/2 + u*t, and the
    amplitude scales by sigma0/sigma.  The image sum is truncated once the
    neglected tail is below 1e-14.
    """
    x = np.asarray(x, dtype=float)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    var = PULSE_VARIANCE + 2.0 * diffusivity * t
    sigma = np.sqrt(var)
    amplitude = np.sqrt(PULSE_VARIANCE / var)
    center = np.mod(PULSE_CENTER + velocity * t, length)

    n_images = max(2, int(np.ceil(6.0 * sigma / length)) + 1)
    if diffusivity * t > 0.0:
        while (
            np.exp(-((length * n_images - 6.0 * sigma) ** 2) / (4.0 * diffusivity * t))
            >= _IMAGE_TAIL
            and n_images < 1000
        ):
            n_images += 1
    shifts = np.arange(-n_images, n_images + 1) * length
    offsets = x[..., None] - center - shifts
    return amplitude * np.exp(-(offsets**2) / (2.0 * var)).sum(axis=-1)


def diagonal_propagator_oracle(
    initial,
    table: WavenumberTable,
    velocity: float = 0.0,
    diffusivity: float = 0.0,
    t: float = 0.0,
) -> np.ndarray:
    """Exact one-axis propagation e^{-i*u*k*t - D*k^2*t} in the mode basis.

    Returns the unnormalized evolved vector; the squared norm ratio against the
    input is the ideal postselection probability.  Advection is only diagonal
    on a periodic axis, so a nonzero velocity with wall modes is rejected.
    """
    vec = np.asarray(initial, dtype=np.complex128)
    if vec.size != table.size:
        raise ValueError(f"vector of {vec.size} vs table of {table.size}")
    if velocity != 0.0 and table.kind is not BoundaryKind.PERIODIC:
        raise ValueError("advection is not diagonal in a wall-mode basis")
    k = table.values
    factors = np.exp(-1j * velocity * k * t - diffusivity * k * k * t)
    spec = spectral_transform(vec, table.kind) * factors
    return spectral_transform(spec, table.kind, inverse=True)


def profile_row_velocities(config) -> np.ndarray:
    """Per-row streamwise speeds u(y_q), y_q = q/(N_y - 1) with endpoints; y = 0 in 1D."""
    ny = config.ny_points
    return config.velocity_scale * config.profile(np.arange(ny) / max(ny - 1, 1))


def split_propagation_oracle(config, field) -> tuple[np.ndarray, list[float]]:
    """Dense mirror of the split quantum pipeline, in streamwise Fourier space.

    The same operator sequence as the circuit driver (advection, then
    streamwise, then wall-normal diffusion per step; halved advection at both
    ends for Strang) with exact diagonal factors, each built once.  Like the
    driver it transforms x once before the first step and back after the
    last, as advection and x diffusion are diagonal there.  A 1D run is one
    grid row.  Returns the unnormalized final field and the per-step
    success probabilities.
    """
    shape = (config.nx_points, config.ny_points)
    arr = np.asarray(field, dtype=np.complex128).reshape(shape, order="F")
    # row-major, so y transforms run along rows (3.5x faster at 1024x1024)
    spec = np.ascontiguousarray(np.fft.fft(arr, axis=0, norm="ortho"))
    dt = config.t_final / config.n_steps
    tau = 0.5 * dt if config.splitting == "strang" else dt
    d = config.diffusivity
    kx = wavenumbers(config.n_x, config.length, BoundaryKind.PERIODIC).values
    advect = np.exp(-1j * tau * np.outer(kx, profile_row_velocities(config)))
    decay_x = np.exp(-d * kx * kx * dt)[:, None]
    if config.n_y:
        ky = wavenumbers(config.n_y, config.length, config.bc_y).values
        decay_y = np.exp(-d * ky * ky * dt)

    history = []
    for _ in range(config.n_steps):
        before = np.linalg.norm(spec)
        spec *= advect
        spec *= decay_x
        if config.n_y:
            spec = spectral_transform(spec, config.bc_y, axis=1) * decay_y
            spec = spectral_transform(spec, config.bc_y, inverse=True, axis=1)
        if config.splitting == "strang":
            spec *= advect
        history.append(float(np.linalg.norm(spec) ** 2 / before**2))
    out = np.fft.ifft(spec, axis=0, norm="ortho")
    return out.reshape(-1, order="F"), history


def central_difference_weights(derivative: int, order: int = _FD_ORDER) -> np.ndarray:
    """Central stencil weights, solved exactly in Fraction arithmetic.

    Returns weights for offsets -p..p (p = order/2 for the first and second
    derivative) such that sum_m w_m f(x + m*h) = h^deriv * f^(deriv)(x) up to
    the requested order.  Each (derivative, order) is solved once per
    process; every call returns a fresh array.
    """
    return np.array(_stencil_weights(derivative, order))


@functools.lru_cache(maxsize=8)
def _stencil_weights(derivative: int, order: int) -> tuple[float, ...]:
    if derivative not in (1, 2):
        raise ValueError(f"only first and second derivatives, got {derivative}")
    if order % 2 or order < 2:
        raise ValueError(f"order must be even and positive, got {order}")
    half = order // 2
    offsets = list(range(-half, half + 1))
    size = len(offsets)
    # moment conditions: sum_m w_m m^k = k! [k == derivative]
    rows = [[Fraction(m) ** k for m in offsets] for k in range(size)]
    rhs = [Fraction(0)] * size
    rhs[derivative] = Fraction(math.factorial(derivative))
    # Gaussian elimination over Fractions
    aug = [row + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(float(aug[r][size]) for r in range(size))


def periodic_stencil_matrix(n: int, weights: np.ndarray) -> np.ndarray:
    """Dense operator applying a central stencil with periodic wraparound."""
    half = len(weights) // 2
    mat = np.zeros((n, n))
    for q in range(n):
        for m, w in zip(range(-half, half + 1), weights):
            mat[q, (q + m) % n] += w
    return mat


def wall_stencil_matrix(n: int, weights: np.ndarray, kind: BoundaryKind) -> np.ndarray:
    """Dense stencil operator with mirror ghosts half a cell beyond the ends.

    Out-of-range offsets fold back as phi[-1-k] = s*phi[k] and
    phi[n+k] = s*phi[n-1-k], with s = +1 for Neumann and -1 for Dirichlet.
    """
    half = len(weights) // 2
    sign = 1.0 if kind is BoundaryKind.NEUMANN else -1.0
    mat = np.zeros((n, n))
    for q in range(n):
        for m, w in zip(range(-half, half + 1), weights):
            idx, s = q + m, 1.0
            while not 0 <= idx < n:
                if idx < 0:
                    idx = -idx - 1
                else:
                    idx = 2 * n - 1 - idx
                s *= sign
            mat[q, idx] += s * w
    return mat


def fd10_reference(config, field) -> ScalarField:
    """Tenth-order finite-difference integration of the same scenario.

    Streamwise axis periodic with spacing L/N_x.  The wall-normal rows span
    y = 0 to y = L inclusive (spacing L/(N_y - 1)) and are mirrored half a
    cell outside the end rows: ghost values phi[-1] = phi[0],
    phi[-2] = phi[1], odd-signed for Dirichlet.  (The spectral side assumes
    spacing L/N_y instead; see the README.)  Advection uses the same per-row
    speeds as the quantum kernels.  Classical RK4 in time with a substep h
    bounded by the advective CFL limit and by the diffusive limit of the
    finer of the two spacings; a non-finite result raises ValueError, and so
    does a field with a nonzero imaginary part.

    The x stencils are circulant, so the streamwise DFT block-diagonalizes
    the scheme exactly: streamwise mode k sees the scalars
    lambda1(k) = sum_m w1_m e^{2 pi i k m / N_x} / dx and lambda2(k) (same
    with w2 / dx^2), and evolves under the N_y x N_y matrix
    M_k = diag(-u_q lambda1(k) + D lambda2(k)) + D D2y.  One RK4 substep of
    a linear system is the amplification matrix
    S_k = sum_{j<=4} (h M_k)^j / j!.  S_k^{n_sub} is formed by repeated
    squaring and applied to the mode's column, one mode at a time, so memory
    stays O(N_y^2).  An unstable substep overflows S_k^{n_sub} itself, so
    the non-finite check does not depend on how the initial field projects
    onto the growing modes.
    """
    two_d = config.n_y > 0
    nx, ny = config.nx_points, config.ny_points
    arr = np.asarray(getattr(field, "values", field))
    if np.any(np.imag(arr)):
        raise ValueError("FD10 integrates a real field; the input has a nonzero "
                         "imaginary part")
    arr = np.array(np.real(arr), dtype=float)
    if two_d:
        arr = arr.reshape(nx, ny, order="F")
    d = config.diffusivity
    u_rows = profile_row_velocities(config)
    w1 = central_difference_weights(1)
    w2 = central_difference_weights(2)
    dx = config.length / nx
    dy = None
    # a 1D run is a single row with no wall-normal coupling
    d2y = np.zeros((1, 1))
    if two_d:
        if config.bc_y is BoundaryKind.PERIODIC:
            dy = config.length / ny
            d2y = periodic_stencil_matrix(ny, w2) / dy**2
        else:
            # wall rows sit on y = 0 and y = L; mirrors half a cell outside
            dy = config.length / (ny - 1)
            d2y = wall_stencil_matrix(ny, w2, config.bc_y) / dy**2

    u_max = float(np.max(np.abs(u_rows)))
    limits = []
    if u_max > 0.0:
        limits.append(dx / u_max)
    if d > 0.0:
        # the stiffer axis bounds the explicit diffusion substep
        h = min(dx, dy) if two_d else dx
        c2 = float(np.sum(np.abs(w2)))
        limits.append(h**2 / (2.0 * c2 * d * (2 if two_d else 1)))
    if not limits:
        return ScalarField(arr, dx, dy, config.t_final)
    dt_stable = _CFL_SAFETY * min(limits)
    if not np.isfinite(dt_stable) or dt_stable <= 0.0:
        raise ValueError("finite-difference substep collapsed; check parameters")
    n_sub = max(1, int(np.ceil(config.t_final / dt_stable)))
    if n_sub > _MAX_SUBSTEPS:
        raise ValueError(
            f"reference integration needs {n_sub} substeps; parameters are "
            f"outside the stable range"
        )
    dt = config.t_final / n_sub
    half = len(w1) // 2
    modes = np.arange(nx // 2 + 1)
    phases = np.exp(2j * np.pi * np.outer(modes, np.arange(-half, half + 1)) / nx)
    lam1 = phases @ w1 / dx
    lam2 = phases @ w2 / dx**2
    eye = np.eye(ny)
    spec = np.fft.rfft(arr.reshape(nx, ny), axis=0)
    for k in modes:
        hm = dt * (d * d2y + np.diag(-u_rows * lam1[k] + d * lam2[k]))
        # Horner form of I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24
        step = eye + hm @ (eye + hm @ (eye + hm @ (eye + hm / 4.0) / 3.0) / 2.0)
        spec[k] = np.linalg.matrix_power(step, n_sub) @ spec[k]
    arr = np.fft.irfft(spec, n=nx, axis=0).reshape(arr.shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("finite-difference reference diverged to non-finite values")
    return ScalarField(arr, dx, dy, config.t_final)


def error_norm(state, reference) -> float:
    """Euclidean distance between direction vectors; lives in [0, 2].

    Both arguments are normalized before comparison, so any positive scaling
    of either side leaves the result unchanged.  Accepts QuantumState or raw
    arrays on either side; (N_x, N_y) grids and flat x-fastest vectors
    compare equal.
    """
    a = np.asarray(getattr(state, "amplitudes", state), dtype=np.complex128)
    b = np.asarray(getattr(reference, "values", reference), dtype=np.complex128)
    a, b = a.ravel(order="F"), b.ravel(order="F")
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot compare a zero vector")
    return float(np.linalg.norm(a / na - b / nb))
