"""Serialization: tensor container, JSON documents, CSV tables."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from tomosar import fileio
from tomosar.errors import ConfigurationError
from tomosar.sensing import default_geometry
from tomosar.simulate import PointCloud
from tomosar.solvers import LearnedIstaParams


def random_tensor(dims, seed=0):
    r = np.random.default_rng(seed)
    return (r.standard_normal(dims) + 1j * r.standard_normal(dims)).astype(np.complex64).astype(np.complex128)


class TestTensorContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        t = random_tensor((6, 5, 4), seed=1)
        path = str(tmp_path / "t.tsr3")
        fileio.write_tensor(path, t)
        back = fileio.read_tensor(path)
        assert back.dtype == np.complex128
        assert back.shape == (6, 5, 4)
        # values are stored as complex64; the write already quantized, so
        # a second roundtrip must be bit-identical
        assert np.array_equal(back, t)

    def test_write_read_write_stable_bytes(self, tmp_path):
        t = random_tensor((3, 3, 3), seed=2)
        p1, p2 = str(tmp_path / "a.tsr3"), str(tmp_path / "b.tsr3")
        fileio.write_tensor(p1, t)
        fileio.write_tensor(p2, fileio.read_tensor(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_layout(self, tmp_path):
        t = np.zeros((2, 3, 4), dtype=complex)
        path = str(tmp_path / "t.tsr3")
        fileio.write_tensor(path, t)
        raw = open(path, "rb").read()
        magic, version, dtype_code = raw[:4], raw[4], raw[5]
        assert magic == b"TSR3"
        assert version == 1
        assert dtype_code == 0
        dims = struct.unpack("<III", raw[8:20])
        assert dims == (2, 3, 4)
        assert len(raw) == 20 + 2 * 3 * 4 * 8  # complex64 payload

    def test_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.tsr3")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\0" * 24)
        with pytest.raises(ConfigurationError):
            fileio.read_tensor(path)

    def test_rejects_truncated_payload(self, tmp_path):
        t = np.ones((2, 2, 2), dtype=complex)
        path = str(tmp_path / "t.tsr3")
        fileio.write_tensor(path, t)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[:-4])
        with pytest.raises(ConfigurationError):
            fileio.read_tensor(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_nonfinite_payload(self, tmp_path, bad):
        t = np.ones((2, 2, 2), dtype=complex)
        t[1, 0, 1] = bad
        path = str(tmp_path / "t.tsr3")
        fileio.write_tensor(path, t)
        with pytest.raises(ConfigurationError, match="non-finite"):
            fileio.read_tensor(path)


class TestJson:
    def test_canonical_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        fileio.write_json(p1, {"b": 1, "a": [1.5, None]})
        fileio.write_json(p2, {"a": [1.5, None], "b": 1})
        b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
        assert b1 == b2
        assert b1.endswith(b"\n")

    def test_infinity_roundtrip(self, tmp_path):
        path = str(tmp_path / "inf.json")
        fileio.write_json(path, {"psnr_db": float("inf")})
        assert fileio.read_json(path)["psnr_db"] == float("inf")

    def test_syntax_error_names_the_file(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write('{"max_outer": 2')
        with pytest.raises(ConfigurationError, match="not valid JSON: Expecting ',' delimiter") as err:
            fileio.read_json(path)
        assert str(err.value).startswith(f"{path}: ")


class TestGeometryDocument:
    def test_exact_keys(self, tmp_path):
        path = str(tmp_path / "g.json")
        fileio.write_geometry(path, default_geometry())
        doc = json.load(open(path))
        assert sorted(doc) == [
            "baselines_m",
            "elevation_grid_m",
            "reference_incidence_deg",
            "reference_slant_range_m",
            "wavelength_m",
        ]

    def test_default_geometry_bytes_pinned(self, tmp_path):
        path = tmp_path / "g.json"
        fileio.write_geometry(str(path), default_geometry())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "f145537836bfac0bf35f2f987634437ad9698843cdad02c8946a986feee2afba"

    def test_missing_key_rejected(self, tmp_path):
        path = str(tmp_path / "g.json")
        fileio.write_geometry(path, default_geometry())
        doc = json.load(open(path))
        del doc["wavelength_m"], doc["elevation_grid_m"]
        json.dump(doc, open(path, "w"))
        # keys are checked in the order of the SystemGeometry fields
        with pytest.raises(ConfigurationError, match="missing geometry key 'wavelength_m'"):
            fileio.read_geometry(path)

    @pytest.mark.parametrize("change, message", [
        (lambda doc: list(doc), "must be a JSON object, got list"),
        (lambda doc: 5, "must be a JSON object, got int"),
        (lambda doc: doc | {"wavelength_m": "0.031"}, "'wavelength_m' must be a number"),
        (lambda doc: doc | {"wavelength_m": [0.031]}, "'wavelength_m' must be a number"),
        (lambda doc: doc | {"reference_incidence_deg": True}, "'reference_incidence_deg' must be a number"),
        (lambda doc: doc | {"baselines_m": 1.0}, "'baselines_m' must be a list of numbers"),
        (lambda doc: doc | {"elevation_grid_m": [0.0, None]}, "'elevation_grid_m' must be a list of numbers"),
        (lambda doc: doc | {"wavelength_m": -0.031}, "wavelength must be positive"),
        (lambda doc: doc | {"baselines_m": [0.0]}, "need at least 2 baselines"),
        (lambda doc: doc | {"elevation_grid_m": [1.0, 0.0]}, "elevation grid must be strictly increasing"),
    ], ids=["array", "scalar", "string", "list-for-number", "bool", "number-for-list", "null-in-list",
            "negative-wavelength", "one-baseline", "decreasing-grid"])
    def test_malformed_document_rejected_naming_the_file(self, tmp_path, change, message):
        path = str(tmp_path / "g.json")
        fileio.write_geometry(path, default_geometry())
        fileio.write_json(path, change(fileio.read_json(path)))
        with pytest.raises(ConfigurationError, match=message) as err:
            fileio.read_geometry(path)
        assert str(err.value).startswith(f"{path}: ")


class TestPointCloudCsv:
    def test_roundtrip_exact(self, tmp_path):
        r = np.random.default_rng(3)
        cloud = PointCloud(
            xyz=r.standard_normal((7, 3)),
            amplitude=r.uniform(1, 4, 7),
            phase=r.uniform(0, 2 * np.pi, 7),
        )
        path = str(tmp_path / "c.csv")
        fileio.write_point_cloud(path, cloud)
        back = fileio.read_point_cloud(path)
        # repr-based float formatting roundtrips float64 exactly
        assert np.array_equal(back.xyz, cloud.xyz)
        assert np.array_equal(back.amplitude, cloud.amplitude)
        assert np.array_equal(back.phase, cloud.phase)

    def test_header_line(self, tmp_path):
        cloud = PointCloud.from_xyz(np.zeros((1, 3)))
        path = str(tmp_path / "c.csv")
        fileio.write_point_cloud(path, cloud)
        assert open(path).readline().strip() == "x,y,z,amplitude,phase"

    def test_empty_cloud(self, tmp_path):
        cloud = PointCloud.from_xyz(np.zeros((0, 3)))
        path = str(tmp_path / "e.csv")
        fileio.write_point_cloud(path, cloud)
        back = fileio.read_point_cloud(path)
        assert back.n_points == 0


class TestLearnedParamsDocument:
    def test_roundtrip(self, tmp_path):
        params = LearnedIstaParams(alpha=np.array([0.1, 0.2]), theta=np.array([0.01, 0.02]))
        path = str(tmp_path / "p.json")
        fileio.write_lista_params(path, params)
        back = fileio.read_lista_params(path)
        assert np.array_equal(back.alpha, params.alpha)
        assert np.array_equal(back.theta, params.theta)
        assert back.blocks == 2

    def test_inconsistent_blocks_rejected(self, tmp_path):
        path = str(tmp_path / "p.json")
        fileio.write_json(path, {"blocks": 3, "alpha": [0.1], "theta": [0.2]})
        with pytest.raises(ConfigurationError):
            fileio.read_lista_params(path)

    @pytest.mark.parametrize("doc, message", [
        ({"alpha": [0.1], "theta": [0.2]}, "missing parameter key 'blocks'"),
        ({"blocks": 1, "theta": [0.2]}, "missing parameter key 'alpha'"),
        ([{"blocks": 1, "alpha": [0.1], "theta": [0.2]}], "must be a JSON object, got list"),
        ({"blocks": "1", "alpha": [0.1], "theta": [0.2]}, "'blocks' must be a number"),
        ({"blocks": 1, "alpha": ["0.1"], "theta": [0.2]}, "'alpha' must be a list of numbers"),
        ({"blocks": 1, "alpha": [0.1], "theta": 0.2}, "'theta' must be a list of numbers"),
        ({"blocks": 1, "alpha": [-0.1], "theta": [0.1]}, "learned parameters must be nonnegative"),
        ({"blocks": 1, "alpha": [0.1], "theta": [0.1, 0.2]}, "alpha and theta must be equal-length"),
        ({"blocks": 1, "alpha": [math.nan], "theta": [0.1]}, r"learned parameters must be finite, got alpha \[nan\]"),
        ({"blocks": 2, "alpha": [0.1, 0.1], "theta": [0.1, math.inf]},
         r"learned parameters must be finite, got theta \[0\.1, inf\]"),
    ], ids=["no-blocks", "no-alpha", "array", "string-blocks", "string-in-list", "number-for-list",
            "negative", "unequal-lengths", "nan-alpha", "infinite-theta"])
    def test_malformed_document_rejected_naming_the_file(self, tmp_path, doc, message):
        path = str(tmp_path / "p.json")
        fileio.write_json(path, doc)
        with pytest.raises(ConfigurationError, match=message) as err:
            fileio.read_lista_params(path)
        assert str(err.value).startswith(f"{path}: ")


class TestResolutionCurveCsv:
    def test_roundtrip_and_reserved_column(self, tmp_path):
        rows = [
            {"separation_rho_s": 0.0, "success_rate": 0.0, "mean_pos_lo_m": None,
             "mean_pos_hi_m": None, "std_pos_lo_m": None, "std_pos_hi_m": None,
             "trials": 10, "crlb": None},
            {"separation_rho_s": 1.0, "success_rate": 0.9, "mean_pos_lo_m": -1.5,
             "mean_pos_hi_m": 1.6, "std_pos_lo_m": 0.2, "std_pos_hi_m": 0.25,
             "trials": 10, "crlb": None},
        ]
        path = str(tmp_path / "curve.csv")
        fileio.write_resolution_curve(path, rows)
        text = open(path).read()
        assert text.splitlines()[0] == fileio.RESOLUTION_CURVE_HEADER
        # reserved column stays empty
        assert all(line.endswith(",") for line in text.splitlines()[1:])
        back = fileio.read_resolution_curve(path)
        assert back[0]["success_rate"] == 0.0
        assert back[0]["mean_pos_lo_m"] is None
        assert back[1]["mean_pos_hi_m"] == 1.6
        assert back[1]["trials"] == 10
