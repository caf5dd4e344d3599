"""Array acquisition model: geometry, steering matrix, forward operator, noise.

The sensing model ties an elevation fiber x (length n_z, one complex
reflectivity per elevation grid position) to an echo fiber y (length n_e, one
complex sample per array element) through y = A x.  Applied to a full scene
tensor the operator acts independently on every (range, azimuth) fiber.

The echo is Y = A X + N.  Every echo's noise N is drawn by one helper,
:func:`noisy_fibers`, from one :func:`fiber_rng` stream per fiber: a volume
fiber f from (seed, f) (:func:`add_noise`), a resolution trial from (seed,
separation, trial), and a training fiber from the (seed, fiber) stream that
also drew its scatterers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConfigurationError

# Airborne array campaign constants used by the default geometry.
DEFAULT_WAVELENGTH_M = 0.031
DEFAULT_SLANT_RANGE_M = 2040.3406
DEFAULT_INCIDENCE_DEG = 31.6453
DEFAULT_N_ELEMENTS = 12


@dataclass(frozen=True)
class SystemGeometry:
    """Acquisition geometry for one array data take.

    baselines_m are perpendicular element offsets from the reference track;
    elevation_grid_m are the strictly increasing elevation positions (meters,
    perpendicular to the reference line of sight) that reconstruction
    resolves.
    """

    wavelength_m: float
    baselines_m: np.ndarray
    reference_slant_range_m: float
    reference_incidence_deg: float
    elevation_grid_m: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.baselines_m, dtype=np.float64)
        s = np.asarray(self.elevation_grid_m, dtype=np.float64)
        object.__setattr__(self, "baselines_m", b)
        object.__setattr__(self, "elevation_grid_m", s)
        for name in ("wavelength_m", "reference_slant_range_m", "baselines_m", "elevation_grid_m"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite, got {float(v[~np.isfinite(v)][0])!r}")
        if not (self.wavelength_m > 0):
            raise ConfigurationError(f"wavelength must be positive, got {self.wavelength_m}")
        if not (self.reference_slant_range_m > 0):
            raise ConfigurationError(
                f"reference slant range must be positive, got {self.reference_slant_range_m}"
            )
        if not (0 < self.reference_incidence_deg < 90):
            raise ConfigurationError(
                f"reference incidence must be in (0, 90) degrees, got {self.reference_incidence_deg}"
            )
        if b.ndim != 1 or b.size < 2:
            raise ConfigurationError("need at least 2 baselines")
        if s.ndim != 1 or s.size < 2:
            raise ConfigurationError("need at least 2 elevation grid positions")
        if not np.all(np.diff(s) > 0):
            raise ConfigurationError("elevation grid must be strictly increasing")

    @property
    def n_elements(self):
        return int(self.baselines_m.size)

    @property
    def n_elevations(self):
        return int(self.elevation_grid_m.size)

    @property
    def aperture_m(self):
        return float(self.baselines_m.max() - self.baselines_m.min())


def theoretical_resolution(g: SystemGeometry) -> float:
    """Rayleigh elevation resolution: wavelength * range / (2 * aperture)."""
    if g.aperture_m <= 0:
        raise ConfigurationError("aperture must be positive for a resolution estimate")
    return g.wavelength_m * g.reference_slant_range_m / (2.0 * g.aperture_m)


def default_geometry(n_elements: int = DEFAULT_N_ELEMENTS) -> SystemGeometry:
    """Desk-scale default geometry: a 10 m aperture and 64 elevation positions.

    Baselines are uniform and centered on zero.  The elevation grid is
    uniform, spans eight Rayleigh resolutions, and is anchored so index 32
    sits exactly at elevation 0 (the reference point maps to the central
    grid index).
    """
    if n_elements < 2:
        raise ConfigurationError("need at least 2 elements")
    aperture_m = 10.0
    n_elevations = 64
    baselines = np.linspace(-aperture_m / 2.0, aperture_m / 2.0, n_elements)
    rho = DEFAULT_WAVELENGTH_M * DEFAULT_SLANT_RANGE_M / (2.0 * aperture_m)
    cell = 8.0 * rho / n_elevations
    grid = (np.arange(n_elevations) - n_elevations // 2) * cell
    return SystemGeometry(
        wavelength_m=DEFAULT_WAVELENGTH_M,
        baselines_m=baselines,
        reference_slant_range_m=DEFAULT_SLANT_RANGE_M,
        reference_incidence_deg=DEFAULT_INCIDENCE_DEG,
        elevation_grid_m=grid,
    )


def build_steering_matrix(g: SystemGeometry) -> np.ndarray:
    """Steering matrix A with A[m, n] = exp(j 4 pi s_n b_m / (lambda R0)).

    Shape (n_elements, n_elevations); every entry has unit modulus.  Column n
    is the array response of a unit scatterer at elevation s_n.
    """
    scale = 4.0 * np.pi / (g.wavelength_m * g.reference_slant_range_m)
    phase = scale * np.outer(g.baselines_m, g.elevation_grid_m)
    return np.exp(1j * phase)


def forward(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the sensing operator fiber-by-fiber to a scene tensor.

    x has shape (n_z, n_x, n_y); the result has shape (n_e, n_x, n_y) and
    equals a @ x[:, j, k] on every fiber.
    """
    tensor._check3d(x)
    n_e, n_z = a.shape
    d0, d1, d2 = x.shape
    if d0 != n_z:
        raise ValueError(f"scene elevation extent {d0} does not match matrix columns {n_z}")
    return (a @ x.reshape(d0, d1 * d2)).reshape(n_e, d1, d2)


def adjoint(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply the conjugate-transpose operator fiber-by-fiber to an echo tensor."""
    tensor._check3d(y)
    n_e, n_z = a.shape
    d0, d1, d2 = y.shape
    if d0 != n_e:
        raise ValueError(f"echo channel extent {d0} does not match matrix rows {n_e}")
    return (a.conj().T @ y.reshape(d0, d1 * d2)).reshape(n_z, d1, d2)


def fiber_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based substream keyed by (seed, *key), e.g. (seed, fiber) or
    (seed, separation, trial); ``fiber_rng(seed)`` is the plain stream of
    ``seed``.  Every random draw of the package comes from one of these.

    Streams are independent of evaluation order, so noise draws do not
    depend on how work is scheduled across threads.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def noisy_fibers(y, snr_db: float, streams) -> np.ndarray:
    """Clean echo fibers plus circular complex white Gaussian noise at ``snr_db``.

    ``y`` is one fiber of n_e samples, repeated in every output column, or an
    (n_e, n) array of fibers, one per column.  ``streams`` yields one
    generator per output column, taken one at a time; at finite SNR each is
    released once its column is drawn.  Column c adds sigma/sqrt(2) (d[:n_e]
    + j d[n_e:]) for 2 n_e standard normals d drawn from its stream, with
    sigma^2 = mean |y|^2 / 10^(snr_db / 10) over ``y`` as passed.  snr_db =
    +inf adds no noise and draws nothing; NaN, -inf, and an all-zero ``y`` at
    finite SNR raise ValueError.  Returns a new array.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    if snr_db == math.inf:
        return y.copy() if y.ndim == 2 else np.stack([y for _ in streams], axis=1)
    power = float(np.mean(np.abs(y) ** 2))
    if power == 0.0:
        raise ValueError("cannot add finite-SNR noise to an all-zero echo")
    scale = math.sqrt(power / (10.0 ** (snr_db / 10.0))) / math.sqrt(2.0)
    n = y.shape[0]

    def noise(g):
        draws = g.standard_normal(2 * n)
        return scale * (draws[:n] + 1j * draws[n:])

    noises = map(noise, streams)  # map, not a loop variable, so no generator outlives its draw
    if y.ndim == 1:
        return y[:, None] + np.stack(list(noises), axis=1)
    out = y.copy()
    for fiber, d in zip(out.T, noises):
        fiber += d
    return out


def add_noise(y: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add noise to every fiber of an echo volume at the given echo SNR
    (:func:`noisy_fibers`), with sigma set by the whole volume.

    Fiber f of the flattened (range, azimuth) plane draws from
    ``fiber_rng(seed, f)``, so the result is identical no matter how fibers
    are scheduled.  snr_db = +inf returns a copy.
    """
    tensor._check3d(y)
    d0, d1, d2 = y.shape
    streams = (fiber_rng(seed, f) for f in range(d1 * d2))
    return noisy_fibers(y.reshape(d0, d1 * d2), snr_db, streams).reshape(y.shape)


def spectral_norm_sq(a: np.ndarray, iters: int = 50) -> float:
    """Largest eigenvalue of a^H a by power iteration (squared spectral norm).

    Deterministic: the start vector comes from a fixed internal seed.  The
    returned Rayleigh quotient estimate is monotone nondecreasing in
    ``iters`` and bounded above by the squared Frobenius norm.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    g = fiber_rng(0x5EED)
    v = g.standard_normal(a.shape[1]) + 1j * g.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        est = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return est
