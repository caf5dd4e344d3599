"""Scene generation: buildings, normalization, projection."""

import hashlib
import math
import re

import numpy as np
import pytest

from tomosar.errors import ConfigurationError
from tomosar.sensing import build_steering_matrix, default_geometry, fiber_rng, forward
from tomosar.simulate import (
    BUILDINGS,
    MAX_CLOUD_POINTS,
    GridSpec,
    PointCloud,
    generate_building,
    generate_echo,
    make_fiber_dataset,
    make_test_object,
    normalize,
    project_to_grid,
)

THETA = math.radians(31.6453)


def default_grid(n_x=64, n_y=64):
    return GridSpec.from_geometry(default_geometry(), n_x=n_x, n_y=n_y)


def horizontal_segments(mask):
    """Maximal horizontal runs of length >= 2 in a 2D boolean mask."""
    segs = []
    for i in range(mask.shape[0]):
        j = 0
        while j < mask.shape[1]:
            if mask[i, j]:
                j0 = j
                while j < mask.shape[1] and mask[i, j]:
                    j += 1
                if j - j0 >= 2:
                    segs.append(("h", i, j0, j - 1))
            else:
                j += 1
    return segs


def vertical_segments(mask):
    return [("v", i, j0, j1) for (_, i, j0, j1) in horizontal_segments(mask.T)]


class TestPointCloud:
    def test_from_xyz_defaults(self):
        c = PointCloud.from_xyz(np.zeros((4, 3)))
        assert np.array_equal(c.amplitude, np.ones(4))
        assert np.array_equal(c.phase, np.zeros(4))

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((1, 3)), amplitude=np.array([-1.0]), phase=np.zeros(1))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((2, 2)), amplitude=np.ones(2), phase=np.zeros(2))


class TestGenerateBuilding:
    def test_box_visibility(self):
        # default look direction: toward the sensor (up-range, elevated).
        # facing wall, roof, and the ground apron survive; the far wall
        # cannot face the sensor and is culled.
        _, d, h = BUILDINGS["box"]
        cloud = generate_building("box", spacing=0.5, seed=0)
        xyz = cloud.xyz
        # in-plane jitter keeps each facet's defining coordinate exact
        front = (np.abs(xyz[:, 1]) < 1e-9) & (xyz[:, 2] > 0.25)
        roof = np.abs(xyz[:, 2] - h) < 1e-9
        ground = (np.abs(xyz[:, 2]) < 1e-9) & (xyz[:, 1] < -0.25)
        back = (np.abs(xyz[:, 1] - d) < 1e-9) & (xyz[:, 2] > 0.25) & (xyz[:, 2] < h - 0.25)
        assert front.sum() > 0
        assert roof.sum() > 0
        assert ground.sum() > 0
        assert back.sum() == 0

    def test_one_step_has_floor_facade_roof(self):
        cloud = generate_building("one_step", spacing=0.5, seed=1)
        xyz = cloud.xyz
        assert np.any(np.abs(xyz[:, 2]) < 1e-9)                         # floor
        assert np.any((np.abs(xyz[:, 1]) < 1e-9) & (xyz[:, 2] > 1))     # facade
        assert np.any(np.abs(xyz[:, 2] - BUILDINGS["one_step"][2]) < 1e-9)  # roof

    def test_count_scales_with_inverse_spacing_squared(self):
        n_coarse = generate_building("box", spacing=0.5, seed=0).n_points
        n_fine = generate_building("box", spacing=0.25, seed=0).n_points
        assert n_fine / n_coarse == pytest.approx(4.0, rel=0.10)

    def test_seed_determinism(self):
        a = generate_building("l_shape", spacing=0.5, seed=3)
        b = generate_building("l_shape", spacing=0.5, seed=3)
        assert np.array_equal(a.xyz, b.xyz)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_building("box", spacing=0.0, seed=0)

    def test_unknown_preset_rejected(self):
        message = "unknown building kind 'pyramid'; choose from ('box', 'l_shape', 'one_step', 'multi_step', 'flat')"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            generate_building("pyramid", spacing=0.5, seed=0)


class TestNormalize:
    def test_unit_cube_output(self):
        r = np.random.default_rng(0)
        cloud = PointCloud.from_xyz(r.uniform(-2, 2, (50, 3)))
        out = normalize(cloud)
        assert out.xyz.min() >= 0.0
        assert out.xyz.max() == pytest.approx(1.0, abs=1e-15)

    def test_idempotent(self):
        r = np.random.default_rng(1)
        out1 = normalize(PointCloud.from_xyz(r.uniform(-5, 3, (30, 3))))
        out2 = normalize(out1)
        assert np.allclose(out1.xyz, out2.xyz, atol=1e-15)

    def test_shared_divisor_preserves_aspect(self):
        # x-span 4, z-span 1: after the shared divisor z spans 0.25
        xyz = np.array([
            [0.0, 0.0, 0.0],
            [4.0, 0.5, 1.0],
            [2.0, 1.0, 0.5],
        ])
        out = normalize(PointCloud.from_xyz(xyz))
        assert out.xyz[:, 0].max() == pytest.approx(1.0)
        assert out.xyz[:, 2].max() == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize(PointCloud.from_xyz(np.zeros((0, 3))))


class TestNonFiniteKnobs:
    @pytest.mark.parametrize("field", ["cell_x", "cell_y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_grid_cell_named(self, field, value):
        with pytest.raises(ConfigurationError, match=f"cell must hold finite sizes > 0, got {field}="):
            GridSpec.from_geometry(default_geometry(), n_x=8, n_y=8, **{field: value})

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, -1.0])
    def test_building_spacing_named(self, spacing):
        with pytest.raises(ConfigurationError, match="spacing must be finite and positive"):
            generate_building("box", spacing, seed=0)

    @pytest.mark.parametrize("spacing", [1e-9, 1e-300, 5e-324])
    def test_building_spacing_bounded_before_sampling(self, spacing):
        # about 1e21 points at 1e-9 m; 1e-300 and 5e-324 overflow a float count
        with pytest.raises(ConfigurationError, match=f"spacing {spacing!r} samples .* points, more than"):
            generate_building("box", spacing, seed=0)

    def test_building_spacing_at_the_bound(self):
        # the finest spacing of a box cloud that fits, and the next below it
        assert generate_building("box", 0.02, seed=0).n_points <= MAX_CLOUD_POINTS
        with pytest.raises(ConfigurationError, match="spacing 0.01 samples"):
            generate_building("box", 0.01, seed=0)

    @pytest.mark.parametrize("size", [1e300, 1e19, 1.7e308])
    def test_scene_size_beyond_int64_indices_named(self, size):
        cloud = normalize(generate_building("box", 1.0, seed=0))
        with pytest.raises(ConfigurationError, match="scene_size_m .* puts voxel indices beyond the int64 range"):
            project_to_grid(cloud, default_geometry(), default_grid(8, 8), seed=0, scene_size_m=size)

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0])
    def test_scene_size_named(self, size):
        cloud = normalize(generate_building("box", 1.0, seed=0))
        with pytest.raises(ConfigurationError, match="scene_size_m must be finite and positive"):
            project_to_grid(cloud, default_geometry(), default_grid(8, 8), seed=0, scene_size_m=size)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_fiber_dataset_snr(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be finite or [+]inf"):
            make_fiber_dataset(build_steering_matrix(default_geometry()), 2, seed=0, snr_db=snr_db)

    @pytest.mark.parametrize("n_fibers, message", [
        (2.5, "n_fibers must be a whole number, got 2.5"),
        (math.nan, "n_fibers must be a whole number, got nan"),
        (math.inf, "n_fibers must be a whole number, got inf"),
        (0, "n_fibers must be >= 1, got 0"),
    ])
    def test_fiber_dataset_count(self, n_fibers, message):
        with pytest.raises(ConfigurationError, match=message):
            make_fiber_dataset(build_steering_matrix(default_geometry()), n_fibers, seed=0)


class TestProjectToGrid:
    def test_center_point_hits_center_voxel(self):
        g = default_geometry()
        grid = default_grid()
        cloud = PointCloud.from_xyz(np.array([[0.5, 0.5, 0.5]]))
        t, info = project_to_grid(cloud, g, grid, seed=0)
        occupied = np.argwhere(np.abs(t) > 0)
        assert occupied.tolist() == [[32, 32, 32]]
        assert info["placed"] == 1
        assert info["dropped_out_of_grid"] == 0
        # phase encodes the reference slant range exactly
        phase = float(np.angle(t[32, 32, 32]))
        expect = (-4.0 * np.pi * g.reference_slant_range_m / g.wavelength_m) % (2 * np.pi)
        assert np.exp(1j * (phase - expect)) == pytest.approx(1.0, abs=1e-6)

    def test_collision_keeps_lowest_index(self):
        g = default_geometry()
        grid = default_grid()
        # two coincident points: the first one's amplitude survives
        cloud = PointCloud.from_xyz(np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]))
        t, info = project_to_grid(cloud, g, grid, seed=7)
        assert info["placed"] == 1
        assert info["collisions"] == 1
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        amps = rng.uniform(1.0, 4.0, size=2)
        assert np.abs(t[32, 32, 32]) == pytest.approx(amps[0], rel=1e-12)

    def test_half_wavelength_multiple_gives_equal_phase(self):
        # displacing a point along the line of sight by a whole number of
        # half wavelengths leaves the round-trip phase unchanged
        g = default_geometry()
        grid = default_grid()
        size = 16.0
        k = 40  # 40 half-wavelengths = 0.62 m, enough to shift a range cell
        delta = k * g.wavelength_m / 2.0
        dy = math.sin(THETA) * delta / size
        dz = -math.cos(THETA) * delta / size
        cloud = PointCloud.from_xyz(np.array([
            [0.5, 0.5, 0.5],
            [0.5, 0.5 + dy, 0.5 + dz],
        ]))
        t, info = project_to_grid(cloud, g, grid, seed=0, scene_size_m=size)
        occupied = np.argwhere(np.abs(t) > 0)
        assert len(occupied) == 2
        phases = [float(np.angle(t[tuple(v)])) for v in occupied]
        assert np.exp(1j * (phases[0] - phases[1])) == pytest.approx(1.0, abs=1e-6)

    def test_out_of_grid_points_dropped_not_fatal(self):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        r = np.random.default_rng(6)
        cloud = PointCloud.from_xyz(r.uniform(0, 1, (200, 3)))
        t, info = project_to_grid(cloud, g, grid, seed=0, scene_size_m=100.0)
        assert info["dropped_out_of_grid"] > 0
        assert info["placed"] + info["collisions"] + info["dropped_out_of_grid"] == 200

    def test_amplitude_and_phase_ranges(self):
        g = default_geometry()
        grid = default_grid()
        r = np.random.default_rng(8)
        cloud = PointCloud.from_xyz(r.uniform(0, 1, (300, 3)))
        t, _ = project_to_grid(cloud, g, grid, seed=1)
        vals = t[np.abs(t) > 0]
        mags = np.abs(vals)
        assert np.all(mags >= 1.0) and np.all(mags < 4.0)
        phases = np.angle(vals) % (2 * np.pi)
        assert np.all((phases >= 0) & (phases < 2 * np.pi))

    def test_unnormalized_cloud_rejected(self):
        g = default_geometry()
        grid = default_grid()
        cloud = PointCloud.from_xyz(np.array([[1.5, 0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            project_to_grid(cloud, g, grid, seed=0)


class TestGenerateEcho:
    def test_zero_scene_infinite_snr(self):
        a = build_steering_matrix(default_geometry())
        x = np.zeros((64, 4, 4), dtype=complex)
        assert np.count_nonzero(generate_echo(x, a, np.inf, seed=0)) == 0

    def test_single_scatterer_reads_out_column(self):
        a = build_steering_matrix(default_geometry())
        x = np.zeros((64, 4, 4), dtype=complex)
        x[10, 1, 2] = 2.0 - 1.0j
        y = generate_echo(x, a, np.inf, seed=0)
        assert np.allclose(y[:, 1, 2], (2.0 - 1.0j) * a[:, 10], atol=1e-14)

    def test_zero_scene_finite_snr_rejected(self):
        a = build_steering_matrix(default_geometry())
        with pytest.raises(ValueError):
            generate_echo(np.zeros((64, 2, 2), dtype=complex), a, 5.0, seed=0)

    def test_empirical_snr(self):
        g = default_geometry()
        a = build_steering_matrix(g)
        grid = default_grid(n_x=16, n_y=16)
        x, _ = make_test_object("building:box", g, grid, seed=2)
        y0 = forward(a, x)
        y = generate_echo(x, a, 5.0, seed=3)
        noise = y - y0
        snr = 10 * np.log10(np.mean(np.abs(y0) ** 2) / np.mean(np.abs(noise) ** 2))
        assert abs(snr - 5.0) < 0.3


class TestMakeTestObject:
    def test_two_scatterers_zero_separation(self):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        t, meta = make_test_object("two_scatterers", g, grid, separation_rho=0.0)
        occupied = np.argwhere(np.abs(t) > 0)
        assert len(occupied) == 1
        assert np.abs(t[tuple(occupied[0])]) == pytest.approx(2.0)

    def test_two_scatterers_gap_arithmetic(self):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        t, meta = make_test_object("two_scatterers", g, grid, separation_rho=1.0)
        rho = 3.16252793
        expect_gap = round(rho / grid.cell_z)
        occupied = sorted(np.argwhere(np.abs(t) > 0).tolist())
        assert len(occupied) == 2
        assert occupied[1][0] - occupied[0][0] == expect_gap
        assert occupied[0][1:] == occupied[1][1:]
        assert meta["separation_m"] == pytest.approx(expect_gap * grid.cell_z)

    def test_two_scatterers_negative_separation_rejected(self):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        with pytest.raises(ConfigurationError):
            make_test_object("two_scatterers", g, grid, separation_rho=-1.0)

    @pytest.mark.parametrize("sep", [math.inf, math.nan])
    def test_two_scatterers_nonfinite_separation_rejected(self, sep):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        with pytest.raises(ConfigurationError, match=f"separation must be finite and >= 0, got {sep}"):
            make_test_object("two_scatterers", g, grid, separation_rho=sep)

    def test_one_step_frontal_slice_has_three_segments_two_corners(self):
        g = default_geometry()
        grid = default_grid()
        t, meta = make_test_object("one_step", g, grid)
        assert meta["segments_per_slice"] == 3
        k = grid.n_y // 2
        mask = np.abs(t[:, :, k]) > 0
        # nothing outside that one frontal slice
        rest = np.abs(t).sum() - np.abs(t[:, :, k]).sum()
        assert rest == 0
        h = horizontal_segments(mask)
        v = vertical_segments(mask)
        assert len(h) == 2  # ground and roof
        assert len(v) == 1  # facade
        # corners: cells covered by both a horizontal and a vertical segment
        covered_h = {(i, j) for (_, i, j0, j1) in h for j in range(j0, j1 + 1)}
        covered_v = {(j, i) for (_, i, j0, j1) in v for j in range(j0, j1 + 1)}
        assert len(covered_h & covered_v) == 2
        # every occupied cell is on a segment
        occupied = {tuple(ij) for ij in np.argwhere(mask)}
        assert occupied == covered_h | covered_v

    def test_multi_step_segment_count(self):
        g = default_geometry()
        grid = default_grid()
        t, meta = make_test_object("multi_step", g, grid)
        assert meta["segments_per_slice"] == 1 + 2 * 3
        k = grid.n_y // 2
        mask = np.abs(t[:, :, k]) > 0
        assert len(horizontal_segments(mask)) == 4  # ground + 3 treads
        assert len(vertical_segments(mask)) == 3    # 3 risers

    def test_building_pipeline_runs(self):
        g = default_geometry()
        grid = default_grid(n_x=32, n_y=32)
        t, meta = make_test_object("building:box", g, grid, seed=5)
        assert meta["building_kind"] == "box"
        assert meta["placed"] == len(meta["true_voxels"])
        assert np.count_nonzero(t) == meta["placed"]

    def test_unknown_kind_rejected(self):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        with pytest.raises(ConfigurationError):
            make_test_object("sphere", g, grid)

    @pytest.mark.parametrize("kind, key, accepted", [
        # a typo for separation_rho, and the removed augmentation switch
        ("two_scatterers", "separation", "separation_rho"),
        ("building:box", "augment", "spacing_m, scene_size_m"),
        ("one_step", "n_steps", "none"),
        ("multi_step", "n_steps", "none"),
    ])
    def test_unknown_parameter_rejected(self, kind, key, accepted):
        g = default_geometry()
        grid = default_grid(n_x=8, n_y=8)
        with pytest.raises(ConfigurationError, match=f"no parameter '{key}'; it accepts {accepted}$"):
            make_test_object(kind, g, grid, **{key: 0.3})

    @pytest.mark.parametrize("kind", [
        "two_scatterers", "one_step", "multi_step",
        "building:box", "building:l_shape", "building:one_step",
        "building:multi_step", "building:flat",
    ])
    def test_sparsity_and_value_ranges(self, kind):
        g = default_geometry()
        grid = default_grid()
        t, _ = make_test_object(kind, g, grid, seed=4)
        frac = np.count_nonzero(t) / t.size
        assert 0 < frac <= 0.05
        vals = t[np.abs(t) > 0]
        assert np.all(np.abs(vals) >= 1.0) and np.all(np.abs(vals) <= 4.0)

    def test_pipeline_determinism(self):
        g = default_geometry()
        grid = default_grid(n_x=16, n_y=16)
        t1, _ = make_test_object("building:multi_step", g, grid, seed=11)
        t2, _ = make_test_object("building:multi_step", g, grid, seed=11)
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("kind, digest", [
        ("box", "642e1674184ec83383b315145b00115629035f7028d71685e60815e87540dcfa"),
        ("l_shape", "b3247d6549d7c3373bb5e2f0bb7c4d54a57904a4dd3ac3542646a24904c5a031"),
        ("one_step", "1396e701daf936db7c55ec5d19db4189702fc9f7c642df3d1f016bc2ce7c555d"),
        ("multi_step", "d9f122c84178a3c051cc530e99255e5dd740d9acbebe9f33794b15b8287bf26b"),
        ("flat", "2a8fb691568ca240ba2b34fe6f56162fba2be7691a6f00ec2f94e783b13216aa"),
    ])
    def test_building_scene_bytes_pinned(self, kind, digest):
        # every byte of each catalogue scene: dimensions, steps, culling,
        # sampling and projection
        t, _ = make_test_object(f"building:{kind}", default_geometry(), default_grid(n_x=32, n_y=32), seed=3)
        assert hashlib.sha256(t.tobytes()).hexdigest() == digest


class TestFiberDataset:
    def test_shapes_and_determinism(self):
        a = build_steering_matrix(default_geometry())
        y1, x1 = make_fiber_dataset(a, 8, seed=1)
        y2, x2 = make_fiber_dataset(a, 8, seed=1)
        assert y1.shape == (12, 8) and x1.shape == (64, 8)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)

    def test_prefix_property(self):
        # fiber i depends only on (seed, i): a longer dataset extends a
        # shorter one without changing the shared fibers
        a = build_steering_matrix(default_geometry())
        y_small, x_small = make_fiber_dataset(a, 3, seed=2)
        y_big, x_big = make_fiber_dataset(a, 10, seed=2)
        assert np.array_equal(y_big[:, :3], y_small)
        assert np.array_equal(x_big[:, :3], x_small)

    def test_noiseless_consistency(self):
        a = build_steering_matrix(default_geometry())
        y, x = make_fiber_dataset(a, 5, seed=3, snr_db=np.inf)
        assert np.allclose(y, a @ x, atol=1e-12)

    def test_noise_continues_the_scatterer_stream(self):
        # column i of Y is a @ x_i plus the draw that follows fiber i's
        # scatterer draws on fiber_rng(seed, i), at the sigma of that fiber
        a = build_steering_matrix(default_geometry())
        y, x = make_fiber_dataset(a, 4, seed=5, snr_db=3.0)
        n_e, n_z = a.shape
        for i in range(4):
            rng = fiber_rng(5, i)
            k = int(rng.integers(1, 4))
            bins = rng.choice(n_z, size=k, replace=False)
            amps = rng.uniform(1.0, 4.0, size=k)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
            expect_x = np.zeros(n_z, dtype=complex)
            expect_x[bins] = amps * np.exp(1j * phases)
            assert np.array_equal(x[:, i], expect_x)
            y_clean = a @ expect_x
            sigma = np.sqrt(np.mean(np.abs(y_clean) ** 2) / 10 ** (3.0 / 10.0))
            d = rng.standard_normal(2 * n_e)
            assert np.array_equal(y[:, i], y_clean + (sigma / np.sqrt(2.0)) * (d[:n_e] + 1j * d[n_e:]))

    def test_sparsity_bound(self):
        a = build_steering_matrix(default_geometry())
        _, x = make_fiber_dataset(a, 20, seed=4)
        per_fiber = np.count_nonzero(x, axis=0)
        assert np.all(per_fiber >= 1) and np.all(per_fiber <= 3)
