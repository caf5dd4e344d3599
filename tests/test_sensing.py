"""Array geometry, steering matrix, forward/adjoint operators, noise."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from tomosar import fileio
from tomosar.errors import ConfigurationError
from tomosar.sensing import (
    DEFAULT_SLANT_RANGE_M,
    DEFAULT_WAVELENGTH_M,
    SystemGeometry,
    add_noise,
    adjoint,
    build_steering_matrix,
    default_geometry,
    fiber_rng,
    forward,
    noisy_fibers,
    spectral_norm_sq,
    theoretical_resolution,
)


def make_geometry(baselines, elevations, **kw):
    return SystemGeometry(
        wavelength_m=kw.get("wavelength_m", DEFAULT_WAVELENGTH_M),
        baselines_m=np.asarray(baselines, dtype=float),
        reference_slant_range_m=kw.get("reference_slant_range_m", DEFAULT_SLANT_RANGE_M),
        reference_incidence_deg=kw.get("reference_incidence_deg", 31.6453),
        elevation_grid_m=np.asarray(elevations, dtype=float),
    )


def random_tensor(dims, seed=0):
    r = np.random.default_rng(seed)
    return r.standard_normal(dims) + 1j * r.standard_normal(dims)


class TestGeometry:
    def test_default_geometry_values(self):
        g = default_geometry()
        assert g.n_elements == 12
        assert g.n_elevations == 64
        assert g.aperture_m == pytest.approx(10.0)
        assert g.wavelength_m == pytest.approx(0.031)
        assert g.reference_slant_range_m == pytest.approx(2040.3406)
        assert g.reference_incidence_deg == pytest.approx(31.6453)
        # grid is centered: the middle elevation is exactly zero
        assert g.elevation_grid_m[g.n_elevations // 2] == 0.0

    def test_rejects_single_element(self):
        with pytest.raises(ConfigurationError):
            make_geometry([0.0], [-1.0, 0.0, 1.0])

    def test_rejects_nonincreasing_grid(self):
        with pytest.raises(ConfigurationError):
            make_geometry([0.0, 1.0], [0.0, 0.0, 1.0])

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ConfigurationError):
            make_geometry([0.0, 1.0], [-1.0, 1.0], wavelength_m=0.0)

    @pytest.mark.parametrize("field", ["wavelength_m", "reference_slant_range_m", "baselines_m", "elevation_grid_m"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_field_by_name(self, field, value):
        g = default_geometry()
        v = getattr(g, field)
        bad = np.where(np.arange(v.size) == v.size - 1, value, v) if np.ndim(v) else value
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got -?(inf|nan)$"):
            dataclasses.replace(g, **{field: bad})


class TestSteeringMatrix:
    def test_unit_modulus(self):
        a = build_steering_matrix(default_geometry())
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12

    def test_zero_elevation_column_is_ones(self):
        g = make_geometry([0.0, 1.0, 2.0], [-1.0, 0.0, 2.0])
        a = build_steering_matrix(g)
        assert np.allclose(a[:, 1], 1.0)

    def test_zero_baseline_row_is_ones(self):
        g = make_geometry([0.0, 1.0, 2.0], [-1.0, 0.5, 2.0])
        a = build_steering_matrix(g)
        assert np.allclose(a[0, :], 1.0)

    def test_unit_baseline_unit_elevation_phase(self):
        # b = 1 m, s = 1 m with the reference wavelength and slant range
        g = make_geometry([0.0, 1.0], [0.0, 1.0])
        a = build_steering_matrix(g)
        phase = 4.0 * np.pi / (0.031 * 2040.3406)
        assert phase == pytest.approx(0.19868, abs=5e-5)
        assert np.angle(a[1, 1]) == pytest.approx(phase, rel=1e-12)
        # sign convention: positive elevation and baseline give positive phase
        assert np.angle(a[1, 1]) > 0


class TestForwardAdjoint:
    def test_zero_scene_zero_echo(self):
        a = build_steering_matrix(default_geometry())
        x = np.zeros((64, 3, 3), dtype=complex)
        assert np.count_nonzero(forward(a, x)) == 0

    def test_unit_scatterer_reads_out_column(self):
        a = build_steering_matrix(default_geometry())
        x = np.zeros((64, 4, 5), dtype=complex)
        x[17, 2, 3] = 1.0
        y = forward(a, x)
        assert np.allclose(y[:, 2, 3], a[:, 17], atol=1e-15)
        y[:, 2, 3] = 0
        assert np.count_nonzero(y) == 0

    def test_matches_fiber_loop_oracle(self):
        g = make_geometry(np.linspace(0, 5, 6), np.linspace(-3, 3, 8))
        a = build_steering_matrix(g)
        x = random_tensor((8, 3, 3), seed=1)
        y = forward(a, x)
        for j in range(3):
            for k in range(3):
                expect = a @ x[:, j, k]
                assert np.max(np.abs(y[:, j, k] - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_linearity(self):
        a = build_steering_matrix(default_geometry())
        x1 = random_tensor((64, 3, 2), seed=2)
        x2 = random_tensor((64, 3, 2), seed=3)
        c = 1.7 - 0.4j
        lhs = forward(a, c * x1 + x2)
        rhs = c * forward(a, x1) + forward(a, x2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_adjoint_inner_product_identity(self):
        a = build_steering_matrix(default_geometry())
        x = random_tensor((64, 4, 3), seed=4)
        y = random_tensor((12, 4, 3), seed=5)
        lhs = np.sum(forward(a, x) * np.conj(y))
        rhs = np.sum(x * np.conj(adjoint(a, y)))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_adjoint_zero(self):
        a = build_steering_matrix(default_geometry())
        assert np.count_nonzero(adjoint(a, np.zeros((12, 2, 2), dtype=complex))) == 0

    def test_dft_orthogonality(self):
        # with N_z = N_e and elevation sampling matched to the baseline
        # grid, A is a DFT-like matrix and adjoint(forward(x)) = N_e * x
        n = 8
        lam, r0 = 0.031, 2040.3406
        # choose spacing so 4*pi*db*ds/(lam*r0) = 2*pi/n
        db = 1.0
        ds = lam * r0 / (2.0 * n * db)
        g = make_geometry(np.arange(n) * db, (np.arange(n) - n // 2) * ds)
        a = build_steering_matrix(g)
        gram = a.conj().T @ a
        assert np.allclose(gram, n * np.eye(n), atol=n * 1e-9)
        x = random_tensor((n, 2, 2), seed=6)
        back = adjoint(a, forward(a, x))
        assert np.max(np.abs(back - n * x)) < 1e-9 * n * np.max(np.abs(x))

    def test_shape_mismatch_raises(self):
        a = build_steering_matrix(default_geometry())
        with pytest.raises(ValueError):
            forward(a, random_tensor((63, 2, 2)))
        with pytest.raises(ValueError):
            adjoint(a, random_tensor((11, 2, 2)))


class TestNoise:
    def test_infinite_snr_copies(self):
        y = random_tensor((12, 4, 4), seed=7)
        out = add_noise(y, np.inf, seed=1)
        assert np.array_equal(out, y)
        assert out is not y

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_and_minus_inf_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be finite or [+]inf"):
            noisy_fibers(random_tensor((12,)), snr_db, [fiber_rng(0, 0)])
        with pytest.raises(ValueError, match="snr_db must be finite or [+]inf"):
            add_noise(random_tensor((12, 2, 2)), snr_db, seed=0)

    def test_noiseless_only_at_plus_inf(self):
        fiber, fibers = random_tensor((12,), seed=1), random_tensor((12, 3), seed=2)
        for snr_db in (math.inf, np.inf):
            assert np.array_equal(noisy_fibers(fiber, snr_db, [fiber_rng(0, t) for t in range(3)]),
                                  np.stack([fiber] * 3, axis=1))
            assert np.array_equal(noisy_fibers(fibers, snr_db, [fiber_rng(0, t) for t in range(3)]), fibers)
        for snr_db in (5.0, -40.0):
            noisy = noisy_fibers(fibers, snr_db, [fiber_rng(0, t) for t in range(3)])
            assert noisy.shape == fibers.shape and np.all(noisy != fibers)

    def test_seed_determinism(self):
        y = random_tensor((12, 8, 8), seed=8)
        a = add_noise(y, 5.0, seed=42)
        b = add_noise(y, 5.0, seed=42)
        assert np.array_equal(a, b)
        c = add_noise(y, 5.0, seed=43)
        assert not np.array_equal(a, c)

    def test_zero_signal_finite_snr_rejected(self):
        with pytest.raises(ValueError, match="all-zero echo"):
            add_noise(np.zeros((12, 2, 2), dtype=complex), 5.0, seed=0)
        with pytest.raises(ValueError, match="all-zero echo"):
            noisy_fibers(np.zeros(12, dtype=complex), 5.0, [fiber_rng(0, 0)])

    def test_empirical_snr_at_5db(self):
        y = random_tensor((64, 16, 16), seed=9)
        noisy = add_noise(y, 5.0, seed=3)
        noise = noisy - y
        snr_est = 10.0 * np.log10(np.mean(np.abs(y) ** 2) / np.mean(np.abs(noise) ** 2))
        assert abs(snr_est - 5.0) < 0.3

    def test_noise_moments(self):
        # real/imag parts: mean 0, variance target/2, checked within 3 sigma
        y = np.ones((10, 100, 100), dtype=complex)  # 1e5 samples, power 1
        snr_db = 0.0
        target_var = 1.0  # power / 10^(0/10)
        noise = add_noise(y, snr_db, seed=11) - y
        for part in (noise.real, noise.imag):
            n = part.size
            assert abs(np.mean(part)) < 3.0 * np.sqrt(target_var / 2 / n)
            # var of sample variance ~ 2*sigma^4/n for gaussian
            sigma2 = target_var / 2
            assert abs(np.var(part) - sigma2) < 3.0 * np.sqrt(2 * sigma2**2 / n)

    def test_fiber_substreams_are_schedule_independent(self):
        # the noise added to fiber f depends only on (seed, f), so a
        # wider tensor reproduces the narrow tensor's leading fibers
        y = random_tensor((12, 2, 3), seed=10)
        noisy = add_noise(y, 5.0, seed=5)
        r0 = fiber_rng(5, 0)
        sigma = np.sqrt(np.mean(np.abs(y) ** 2) / 10 ** (5.0 / 10.0))
        g = r0.standard_normal(12) + 1j * r0.standard_normal(12)
        expect = y[:, 0, 0] + (sigma / np.sqrt(2)) * g
        assert np.allclose(noisy[:, 0, 0], expect, atol=1e-15)

    def test_keyed_substream_and_complex_noise(self):
        # fiber_rng(seed, *key) is the Philox stream of SeedSequence(seed,
        # spawn_key=key); each column splits its stream's 2n normals into re
        # and im, scaled by the sigma of the one clean fiber
        y = random_tensor((5,), seed=12)
        sigma = np.sqrt(np.mean(np.abs(y) ** 2) / 10 ** (3.0 / 10.0))
        got = noisy_fibers(y, 3.0, (fiber_rng(9, 2, t) for t in range(4)))
        for t in range(4):
            ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=9, spawn_key=(2, t))))
            d = ref.standard_normal(10)
            assert np.array_equal(got[:, t], y + (sigma / np.sqrt(2.0)) * (d[:5] + 1j * d[5:]))

    @pytest.mark.parametrize("seed", [0, 7, 0x5EED, 2**40])
    def test_unkeyed_stream_is_the_plain_seed_stream(self, seed):
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        assert np.array_equal(fiber_rng(seed).standard_normal(8), ref.standard_normal(8))

    def test_streams_are_taken_one_at_a_time(self):
        # a lazy stream of generators is never held whole: when column f's
        # generator is made, no earlier one is still alive
        class Stream(np.random.Generator):
            pass

        alive = []

        def streams():
            for f in range(6):
                assert all(ref() is None for ref in alive), f
                g = Stream(np.random.Philox(np.random.SeedSequence(entropy=4, spawn_key=(f,))))
                alive.append(weakref.ref(g))
                yield g
                del g

        y = random_tensor((12, 2, 3), seed=13)
        noisy = noisy_fibers(y.reshape(12, 6), 5.0, streams())
        assert len(alive) == 6
        assert np.array_equal(noisy.reshape(y.shape), add_noise(y, 5.0, seed=4))
        alive.clear()
        noisy_fibers(y[:, 0, 0], 5.0, streams())
        assert len(alive) == 6


class TestSpectralNorm:
    def test_matches_dense_eigenvalue(self):
        a = build_steering_matrix(default_geometry())
        dense = float(np.max(np.linalg.eigvalsh(a.conj().T @ a)).real)
        est = spectral_norm_sq(a, iters=50)
        assert est == pytest.approx(dense, rel=0.01)

    def test_orthogonal_columns(self):
        # DFT-like square matrix: largest eigenvalue of A^H A is N_e
        n = 8
        db = 1.0
        ds = 0.031 * 2040.3406 / (2.0 * n * db)
        g = make_geometry(np.arange(n) * db, (np.arange(n) - n // 2) * ds)
        a = build_steering_matrix(g)
        assert spectral_norm_sq(a, iters=50) == pytest.approx(n, rel=1e-6)

    def test_rank_one(self):
        u = np.random.default_rng(1).standard_normal(6) + 1j * np.random.default_rng(2).standard_normal(6)
        u = u / np.linalg.norm(u)
        a = np.outer(u, u.conj())
        assert spectral_norm_sq(a, iters=50) == pytest.approx(1.0, rel=1e-9)

    def test_monotone_in_iters(self):
        a = build_steering_matrix(default_geometry())
        vals = [spectral_norm_sq(a, iters=k) for k in (1, 2, 5, 10, 30)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_never_exceeds_frobenius_sq(self):
        a = build_steering_matrix(default_geometry())
        assert spectral_norm_sq(a, iters=80) <= np.sum(np.abs(a) ** 2) + 1e-9


class TestResolution:
    def test_reference_value(self):
        assert theoretical_resolution(default_geometry()) == pytest.approx(3.163, abs=5e-4)

    def test_doubling_aperture_halves_resolution(self):
        g1 = make_geometry([0.0, 5.0], [-1.0, 1.0])
        g2 = make_geometry([0.0, 10.0], [-1.0, 1.0])
        assert theoretical_resolution(g1) == pytest.approx(2 * theoretical_resolution(g2))

    def test_zero_aperture_rejected(self):
        with pytest.raises(ConfigurationError):
            theoretical_resolution(make_geometry([1.0, 1.0], [-1.0, 1.0]))


class TestGeometryRoundtrip:
    def test_json_roundtrip(self, tmp_path):
        g = default_geometry()
        path = str(tmp_path / "g.json")
        fileio.write_geometry(path, g)
        back = fileio.read_geometry(path)
        assert np.array_equal(back.baselines_m, g.baselines_m)
        assert np.array_equal(back.elevation_grid_m, g.elevation_grid_m)
        assert back.wavelength_m == g.wavelength_m
        assert back.reference_slant_range_m == g.reference_slant_range_m
        assert back.reference_incidence_deg == g.reference_incidence_deg
