"""Scene simulation: building point clouds, grid projection, echo synthesis.

Pipeline: generate_building -> normalize -> project_to_grid ->
generate_echo.  Buildings are a fixed catalogue of kinds (``BUILDINGS``),
seen from the default incidence, in a local ground frame (x azimuth, y
ground range increasing away from the sensor, z height, meters).
Projection converts each point to per-point slant range R and perpendicular
elevation s against a single sensor reference position, quantizes to the
nearest voxel, assigns a random amplitude in [1, 4) and the two-way
propagation phase (-4 pi R / lambda) mod 2 pi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, whole_number
from .sensing import (
    DEFAULT_INCIDENCE_DEG,
    SystemGeometry,
    add_noise,
    fiber_rng,
    forward,
    noisy_fibers,
    theoretical_resolution,
)

# (width, depth, height) in meters of each building kind, in the local ground frame
BUILDINGS = {
    "box": (12.0, 10.0, 14.0),
    "l_shape": (14.0, 12.0, 10.0),
    "one_step": (12.0, 8.0, 10.0),
    "multi_step": (12.0, 12.0, 12.0),
    "flat": (16.0, 14.0, 2.5),
}
# the most points a building cloud may hold; a 1e-9 m spacing would ask for
# about 4e20 for a box
MAX_CLOUD_POINTS = 1 << 20
# unit vector from the scene toward the sensor, against which facets are culled
_THETA = math.radians(DEFAULT_INCIDENCE_DEG)
_LOOK = np.array([0.0, -math.sin(_THETA), math.cos(_THETA)])


@dataclass
class PointCloud:
    """Columnar point set: xyz (n, 3), amplitude (n,), phase (n,), all float64."""

    xyz: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        n = self.xyz.shape[0]
        self.amplitude = np.asarray(self.amplitude, dtype=np.float64).reshape(-1)
        self.phase = np.asarray(self.phase, dtype=np.float64).reshape(-1)
        if self.amplitude.shape != (n,) or self.phase.shape != (n,):
            raise ValueError("amplitude/phase length does not match point count")
        if n and np.any(self.amplitude < 0):
            raise ValueError("amplitudes must be nonnegative")

    @property
    def n_points(self):
        return int(self.xyz.shape[0])

    @classmethod
    def from_xyz(cls, xyz):
        xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        n = xyz.shape[0]
        return cls(xyz=xyz, amplitude=np.ones(n), phase=np.zeros(n))


@dataclass(frozen=True)
class GridSpec:
    """Voxel grid in the slant frame: (elevation, slant range, azimuth).

    Origins are the physical coordinates of voxel (0, 0, 0)'s center in
    meters: origin_z elevation, origin_x slant range, origin_y azimuth.
    """

    n_z: int
    n_x: int
    n_y: int
    cell_z: float
    cell_x: float
    cell_y: float
    origin_z: float
    origin_x: float
    origin_y: float

    def __post_init__(self):
        if min(self.n_z, self.n_x, self.n_y) < 1:
            raise ConfigurationError(f"grid extents must be positive: {self.dims}")
        for name, size in (("cell_z", self.cell_z), ("cell_x", self.cell_x), ("cell_y", self.cell_y)):
            if not (math.isfinite(size) and size > 0):
                raise ConfigurationError(f"cell must hold finite sizes > 0, got {name}={size!r}")

    @property
    def dims(self):
        return (self.n_z, self.n_x, self.n_y)

    @classmethod
    def from_geometry(cls, g: SystemGeometry, n_x=64, n_y=64, cell_x=0.5, cell_y=0.5):
        """Grid whose elevation axis coincides with the geometry's grid.

        Requires a uniform elevation grid.  Range and azimuth axes are
        centered on the reference slant range and zero azimuth.
        """
        steps = np.diff(g.elevation_grid_m)
        cell_z = float(steps[0])
        if not np.allclose(steps, cell_z, rtol=1e-9, atol=1e-12):
            raise ConfigurationError("geometry elevation grid must be uniform to derive a GridSpec")
        return cls(
            n_z=g.n_elevations,
            n_x=int(n_x),
            n_y=int(n_y),
            cell_z=cell_z,
            cell_x=float(cell_x),
            cell_y=float(cell_y),
            origin_z=float(g.elevation_grid_m[0]),
            origin_x=g.reference_slant_range_m - float(cell_x) * (int(n_x) // 2),
            origin_y=-float(cell_y) * (int(n_y) // 2),
        )


def _grid_steps(e1, e2, spacing):
    """The sample intervals (n1, n2) of a facet along its two edges, as floats,
    so that a tiny spacing cannot overflow."""
    return tuple(max(1.0, float(np.rint(float(np.linalg.norm(e)) / spacing))) for e in (e1, e2))


def _sample_facet(origin, e1, e2, spacing, rng, jitter):
    """Grid-sample a parallelogram facet including its edges."""
    l1 = np.linalg.norm(e1)
    l2 = np.linalg.norm(e2)
    n1, n2 = (int(n) for n in _grid_steps(e1, e2, spacing))
    u = np.linspace(0.0, 1.0, n1 + 1)
    v = np.linspace(0.0, 1.0, n2 + 1)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = (
        np.asarray(origin)[None, :]
        + uu.ravel()[:, None] * np.asarray(e1)[None, :]
        + vv.ravel()[:, None] * np.asarray(e2)[None, :]
    )
    if jitter > 0:
        d1 = np.asarray(e1) / l1
        d2 = np.asarray(e2) / l2
        off = rng.uniform(-jitter, jitter, size=(pts.shape[0], 2))
        pts = pts + off[:, :1] * d1[None, :] + off[:, 1:] * d2[None, :]
    return pts


def _facets_for(kind):
    """Rectangular facets of a building kind as (origin, edge1, edge2, outward normal)."""
    if kind not in BUILDINGS:
        raise ConfigurationError(f"unknown building kind {kind!r}; choose from {tuple(BUILDINGS)}")
    w, d, h = BUILDINGS[kind]
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    facets = []

    def add(origin, e1, e2, normal):
        facets.append((np.asarray(origin, float), np.asarray(e1, float), np.asarray(e2, float), np.asarray(normal, float)))

    # Ground apron on the sensor side, as deep as the building, shared by every kind.
    add([0.0, -d, 0.0], w * ex, d * ey, ez)

    if kind in ("box", "flat"):
        add([0.0, 0.0, 0.0], w * ex, h * ez, -ey)          # front wall
        add([0.0, d, 0.0], w * ex, h * ez, ey)             # back wall
        add([0.0, 0.0, 0.0], d * ey, h * ez, -ex)          # left wall
        add([w, 0.0, 0.0], d * ey, h * ez, ex)             # right wall
        add([0.0, 0.0, h], w * ex, d * ey, ez)             # roof
    elif kind == "one_step":
        add([0.0, 0.0, 0.0], w * ex, h * ez, -ey)          # facade
        add([0.0, d, 0.0], w * ex, h * ez, ey)             # back wall
        add([0.0, 0.0, h], w * ex, d * ey, ez)             # roof
    elif kind == "multi_step":
        n = 3
        dh, dd = h / n, d / n
        for i in range(n):
            add([0.0, i * dd, i * dh], w * ex, dh * ez, -ey)        # riser facade
            add([0.0, i * dd, (i + 1) * dh], w * ex, dd * ey, ez)   # tread roof
        add([0.0, d, 0.0], w * ex, h * ez, ey)             # back wall
    elif kind == "l_shape":
        w2, d1 = w / 2.0, d / 2.0
        add([0.0, 0.0, 0.0], w * ex, h * ez, -ey)          # front wall, full width
        add([0.0, 0.0, h], w * ex, d1 * ey, ez)            # roof of the front block
        add([0.0, d1, h], w2 * ex, (d - d1) * ey, ez)      # roof of the rear wing
        add([0.0, d, 0.0], w2 * ex, h * ez, ey)            # wing back wall
        add([w2, d1, 0.0], (d - d1) * ey, h * ez, ex)      # exposed wing flank
        add([w2, d1, 0.0], (w - w2) * ex, h * ez, ey)      # rear wall of the front block
    return facets


def generate_building(kind: str, spacing: float, seed: int) -> PointCloud:
    """Surface-sample the visible facets of one kind of ``BUILDINGS``.

    Facets whose outward normal does not face the sensor (dot product with
    the look direction at the default incidence <= 0) are dropped,
    approximating self-occlusion.  Sample positions get a small in-plane
    jitter drawn from ``seed``.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ConfigurationError(f"spacing must be finite and positive, got {spacing!r}")
    facets = [f for f in _facets_for(kind) if float(np.dot(f[3], _LOOK)) > 0.0]
    points = sum((n1 + 1) * (n2 + 1) for n1, n2 in (_grid_steps(e1, e2, spacing) for _, e1, e2, _ in facets))
    if points > MAX_CLOUD_POINTS:
        raise ConfigurationError(
            f"spacing {spacing!r} samples {points:.3g} points, more than {MAX_CLOUD_POINTS}; use a coarser spacing"
        )
    rng = fiber_rng(seed)
    jitter = 0.2 * spacing
    chunks = [_sample_facet(origin, e1, e2, spacing, rng, jitter) for origin, e1, e2, _ in facets]
    return PointCloud.from_xyz(np.concatenate(chunks, axis=0))


def normalize(p: PointCloud) -> PointCloud:
    """Shift minima to zero and divide all axes by the single largest span."""
    if p.n_points == 0:
        raise ValueError("cannot normalize an empty cloud")
    shifted = p.xyz - p.xyz.min(axis=0, keepdims=True)
    div = float(shifted.max())
    if div == 0.0:
        raise ValueError("cannot normalize a cloud with zero extent on every axis")
    return PointCloud(xyz=shifted / div, amplitude=p.amplitude.copy(), phase=p.phase.copy())


def project_to_grid(p: PointCloud, g: SystemGeometry, grid: GridSpec, seed: int, scene_size_m=None):
    """Project a normalized cloud into the voxel grid of the slant frame.

    Returns (scene tensor, info dict).  The normalized cube is scaled to
    ``scene_size_m`` meters and centered on the scene reference point (slant
    range R0 on the reference line of sight).  Per point: exact slant range
    R to the sensor reference position, elevation s measured perpendicular
    to the reference line of sight, nearest-voxel quantization, amplitude
    uniform in [1, 4), phase (-4 pi R / lambda) mod 2 pi.  Out-of-grid
    points and voxel collisions are counted, never fatal.
    """
    if p.n_points == 0:
        raise ValueError("cannot project an empty cloud")
    u = p.xyz
    if u.min() < -1e-9 or u.max() > 1.0 + 1e-9:
        raise ConfigurationError("cloud must be normalized to [0,1]^3 before projection")
    if scene_size_m is None:
        scene_size_m = 0.5 * min(
            grid.n_z * grid.cell_z, grid.n_x * grid.cell_x, grid.n_y * grid.cell_y
        )
    if not (math.isfinite(scene_size_m) and scene_size_m > 0):
        raise ConfigurationError(f"scene_size_m must be finite and positive, got {scene_size_m!r}")

    theta = math.radians(g.reference_incidence_deg)
    r0 = g.reference_slant_range_m
    # Sensor reference position relative to the scene center, (ground, height).
    sensor_y = -r0 * math.sin(theta)
    sensor_z = r0 * math.cos(theta)

    # a scene too large for the grid overflows here and is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        az = (u[:, 0] - 0.5) * scene_size_m
        vy = (u[:, 1] - 0.5) * scene_size_m - sensor_y
        vz = (u[:, 2] - 0.5) * scene_size_m - sensor_z
        r = np.hypot(vy, vz)
        s = vy * math.cos(theta) + vz * math.sin(theta)
        coords = ((s - grid.origin_z) / grid.cell_z, (r - grid.origin_x) / grid.cell_x, (az - grid.origin_y) / grid.cell_y)
    # a voxel index must fit an int64; NaN fails the comparison too
    if not all(np.all(np.abs(c) < 2.0**63) for c in coords):
        raise ConfigurationError(f"scene_size_m {scene_size_m!r} puts voxel indices beyond the int64 range")
    iz, ix, iy = (np.rint(c).astype(np.int64) for c in coords)

    rng = fiber_rng(seed)
    amps = rng.uniform(1.0, 4.0, size=p.n_points)
    phases = np.mod(-4.0 * np.pi * r / g.wavelength_m, 2.0 * np.pi)

    inside = (
        (iz >= 0) & (iz < grid.n_z) & (ix >= 0) & (ix < grid.n_x) & (iy >= 0) & (iy < grid.n_y)
    )
    dropped = int(p.n_points - int(inside.sum()))
    iz, ix, iy = iz[inside], ix[inside], iy[inside]
    amps_in, phases_in = amps[inside], phases[inside]

    flat = (iz * grid.n_x + ix) * grid.n_y + iy
    _, first = np.unique(flat, return_index=True)
    collisions = int(flat.size - first.size)

    t = np.zeros(grid.dims, dtype=np.complex128)
    keep = np.sort(first)
    t[iz[keep], ix[keep], iy[keep]] = amps_in[keep] * np.exp(1j * phases_in[keep])
    info = {
        "n_points": p.n_points,
        "placed": int(first.size),
        "dropped_out_of_grid": dropped,
        "collisions": collisions,
        "scene_size_m": float(scene_size_m),
    }
    return t, info


def generate_echo(x: np.ndarray, a: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Forward-project a scene tensor and add noise at the requested SNR."""
    return add_noise(forward(a, x), snr_db, seed)


def _paint_segments(t, segments):
    for seg in segments:
        for iz, ix, iy in seg:
            t[iz, ix, iy] = 1.0 + 0.0j
    return t


# the keyword parameters each kind of test object accepts
_OBJECT_PARAMS = {
    "two_scatterers": ("separation_rho",),
    "one_step": (),
    "multi_step": (),
    "building": ("spacing_m", "scene_size_m"),
}


def make_test_object(kind: str, g: SystemGeometry, grid: GridSpec, seed: int = 0, **params):
    """Canonical ground-truth tensors for the benchmark tests.

    Kinds: "two_scatterers" (param separation_rho in multiples of the
    Rayleigh resolution), "one_step" and "multi_step" (one and three steps;
    axis-aligned voxel structures), and "building:<kind>" with a kind of
    ``BUILDINGS`` (params spacing_m, scene_size_m; full point-cloud
    pipeline).  A parameter the kind does not accept raises
    ConfigurationError.  Returns (scene tensor, metadata dict); metadata
    lists the true scatterer voxels.
    """
    accepted = _OBJECT_PARAMS.get("building" if kind.startswith("building:") else kind)
    if accepted is None:
        raise ConfigurationError(
            f"unknown test object {kind!r}; expected two_scatterers, one_step, multi_step, or building:<kind>"
        )
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"test object {kind!r} has no parameter {unknown[0]!r}; it accepts {', '.join(accepted) or 'none'}"
        )
    n_z, n_x, n_y = grid.dims
    meta = {"kind": kind, "seed": int(seed)}

    if kind == "two_scatterers":
        sep = float(params.get("separation_rho", 1.0))
        if not math.isfinite(sep) or sep < 0:
            raise ConfigurationError(f"separation must be finite and >= 0, got {sep}")
        rho = theoretical_resolution(g)
        gap = int(round(sep * rho / grid.cell_z))
        if gap >= n_z:
            raise ConfigurationError(f"separation {sep} rho_s exceeds the elevation extent")
        jx, jy = n_x // 2, n_y // 2
        k_lo = (n_z - gap) // 2
        k_hi = k_lo + gap
        t = np.zeros(grid.dims, dtype=np.complex128)
        t[k_lo, jx, jy] += 1.0
        t[k_hi, jx, jy] += 1.0
        meta.update(
            {
                "separation_rho": sep,
                "separation_m": gap * grid.cell_z,
                "rho_s_m": rho,
                "true_voxels": [[k_lo, jx, jy], [k_hi, jx, jy]],
                "true_elevations_m": [
                    grid.origin_z + k_lo * grid.cell_z,
                    grid.origin_z + k_hi * grid.cell_z,
                ],
            }
        )
        return t, meta

    if kind in ("one_step", "multi_step"):
        t = np.zeros(grid.dims, dtype=np.complex128)
        n_steps = 1 if kind == "one_step" else 3
        azimuth_span = [n_y // 2] if kind == "one_step" else list(
            range(max(0, n_y // 2 - n_y // 8), min(n_y, n_y // 2 + n_y // 8 + 1))
        )
        run = max(2, n_x // (2 * (n_steps + 1)))
        rise = max(2, n_z // (2 * (n_steps + 1)))
        x_start = n_x // 2 - (n_steps + 1) * run // 2
        z_ground = n_z // 2 - (n_steps * rise) // 2
        segments = []
        for iy in azimuth_span:
            x_cur = x_start
            z_cur = z_ground
            ground = [(z_cur, ix, iy) for ix in range(max(0, x_cur - run), x_cur + 1)]
            segments.append(ground)
            for _ in range(n_steps):
                wall = [(iz, x_cur, iy) for iz in range(z_cur, z_cur + rise + 1)]
                z_cur += rise
                roof = [(z_cur, ix, iy) for ix in range(x_cur, min(n_x, x_cur + run) + 1)]
                x_cur += run
                segments.append(wall)
                segments.append(roof)
        _paint_segments(t, segments)
        occupied = np.argwhere(np.abs(t) > 0)
        meta.update(
            {
                "n_steps": n_steps,
                "true_voxels": occupied.tolist(),
                "segments_per_slice": 1 + 2 * n_steps,
            }
        )
        return t, meta

    if kind.startswith("building:"):
        bkind = kind.split(":", 1)[1]
        spacing = float(params.get("spacing_m", 0.5))
        cloud = normalize(generate_building(bkind, spacing, seed))
        t, info = project_to_grid(cloud, g, grid, seed, scene_size_m=params.get("scene_size_m"))
        occupied = np.argwhere(np.abs(t) > 0)
        meta.update({"building_kind": bkind, "spacing_m": spacing, "true_voxels": occupied.tolist()})
        meta.update(info)
        return t, meta


def make_fiber_dataset(a: np.ndarray, n_fibers: int, seed: int, snr_db: float = 5.0):
    """Paired (echo, truth) fiber matrices for learned-solver training.

    Returns (Y, X) with Y of shape (n_e, n_fibers) and X of shape
    (n_z, n_fibers).  Fiber i draws its scatterer count (1 to 3), positions,
    amplitudes, phases, and then noise from substream (seed, i), so the
    dataset is independent of generation order.
    """
    n_fibers = whole_number("n_fibers", n_fibers)
    n_e, n_z = a.shape
    X = np.zeros((n_z, n_fibers), dtype=np.complex128)
    Y = np.zeros((n_e, n_fibers), dtype=np.complex128)
    for i in range(n_fibers):
        rng = fiber_rng(seed, i)
        k = int(rng.integers(1, 4))
        bins = rng.choice(n_z, size=k, replace=False)
        amps = rng.uniform(1.0, 4.0, size=k)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
        x = np.zeros(n_z, dtype=np.complex128)
        x[bins] = amps * np.exp(1j * phases)
        X[:, i] = x
        Y[:, i:i + 1] = noisy_fibers(a @ x, snr_db, (rng,))
    return Y, X
