"""On-disk interchange formats.

TSR3 tensor container (little-endian):

    bytes 0..3   magic "TSR3"
    byte  4      format version, currently 1
    byte  5      dtype code, 0 = complex64
    bytes 6..7   reserved, zero
    bytes 8..19  three uint32 dims (d0, d1, d2)
    payload      d0*d1*d2 complex64 values, (re, im) float32 pairs,
                 C order (last index fastest)

Tensors are complex128 in memory and complex64 on disk.  All text formats
(JSON, CSV) are written with canonical formatting so identical data produces
identical bytes.
"""

import json
import struct
from dataclasses import fields

import numpy as np

from .errors import ConfigurationError
from .sensing import SystemGeometry

TSR3_MAGIC = b"TSR3"
TSR3_VERSION = 1
TSR3_DTYPE_COMPLEX64 = 0
_HEADER = struct.Struct("<4sBBBBIII")


def write_tensor(path, t):
    """Write an order-3 complex tensor as a TSR3 file."""
    t = np.asarray(t)
    if t.ndim != 3 or t.size == 0:
        raise ValueError(f"expected a nonempty order-3 tensor, got shape {t.shape}")
    d0, d1, d2 = t.shape
    header = _HEADER.pack(TSR3_MAGIC, TSR3_VERSION, TSR3_DTYPE_COMPLEX64, 0, 0, d0, d1, d2)
    payload = np.ascontiguousarray(t, dtype="<c8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor(path):
    """Read a TSR3 file back as a complex128 tensor; a non-finite payload is
    rejected with ConfigurationError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ConfigurationError(f"{path}: truncated TSR3 header")
    magic, version, dtype, r0, r1, d0, d1, d2 = _HEADER.unpack_from(raw)
    if magic != TSR3_MAGIC:
        raise ConfigurationError(f"{path}: bad magic {magic!r}")
    if version != TSR3_VERSION:
        raise ConfigurationError(f"{path}: unsupported version {version}")
    if dtype != TSR3_DTYPE_COMPLEX64:
        raise ConfigurationError(f"{path}: unsupported dtype code {dtype}")
    if min(d0, d1, d2) == 0:
        raise ConfigurationError(f"{path}: empty tensor extent ({d0}, {d1}, {d2})")
    n = d0 * d1 * d2
    expected = _HEADER.size + 8 * n
    if len(raw) != expected:
        raise ConfigurationError(f"{path}: payload size {len(raw) - _HEADER.size} != {8 * n}")
    data = np.frombuffer(raw, dtype="<c8", offset=_HEADER.size, count=n)
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(f"{path}: payload contains non-finite values")
    return data.reshape(d0, d1, d2).astype(np.complex128)


def write_json(path, obj):
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_json(path):
    """A JSON document; ConfigurationError naming ``path`` if it is not valid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: not valid JSON: {exc}") from None


def read_json_object(path, what):
    """A JSON document that must be an object (ConfigurationError naming ``path``)."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: {what} must be a JSON object, got {type(obj).__name__}")
    return obj


def number_field(path, obj, key, what, vector=False):
    """obj[key] as a float, or with ``vector`` as a float64 vector from a list
    of numbers; ConfigurationError naming ``path`` if the key is missing or
    its value is neither."""
    if key not in obj:
        raise ConfigurationError(f"{path}: missing {what} key '{key}'")
    v = obj[key]
    if isinstance(v, list) != vector or not all(type(e) in (int, float) for e in (v if vector else [v])):
        kind = "a list of numbers" if vector else "a number"
        raise ConfigurationError(f"{path}: {what} key '{key}' must be {kind}, got {v!r}")
    return np.asarray(v, dtype=np.float64) if vector else float(v)


def _build(path, cls, **fields):
    """cls(**fields), naming ``path`` in the ConfigurationError it may raise."""
    try:
        return cls(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def write_geometry(path, g: SystemGeometry):
    """One key per SystemGeometry field; an ndarray field is a list of numbers."""
    doc = {}
    for f in fields(SystemGeometry):
        v = getattr(g, f.name)
        doc[f.name] = [float(e) for e in v] if f.type is np.ndarray else v
    write_json(path, doc)


def read_geometry(path) -> SystemGeometry:
    obj = read_json_object(path, "geometry")
    values = {
        f.name: number_field(path, obj, f.name, "geometry", vector=f.type is np.ndarray)
        for f in fields(SystemGeometry)
    }
    return _build(path, SystemGeometry, **values)


def write_point_cloud(path, cloud):
    """Write a point cloud as CSV with header x,y,z,amplitude,phase."""
    lines = ["x,y,z,amplitude,phase"]
    for (x, y, z), amp, ph in zip(cloud.xyz, cloud.amplitude, cloud.phase):
        # plain-float repr: shortest string that roundtrips float64 exactly
        lines.append(",".join(repr(float(v)) for v in (x, y, z, amp, ph)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_point_cloud(path):
    from .simulate import PointCloud

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "x,y,z,amplitude,phase":
        raise ValueError(f"{path}: expected header 'x,y,z,amplitude,phase'")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if rows and any(len(r) != 5 for r in rows):
        raise ValueError(f"{path}: malformed row")
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    return PointCloud(xyz=arr[:, :3], amplitude=arr[:, 3], phase=arr[:, 4])


def write_lista_params(path, params):
    write_json(
        path,
        {
            "blocks": int(params.blocks),
            "alpha": [float(a) for a in params.alpha],
            "theta": [float(t) for t in params.theta],
        },
    )


def read_lista_params(path):
    from .solvers import LearnedIstaParams

    obj = read_json_object(path, "parameter file")
    params = _build(
        path,
        LearnedIstaParams,
        alpha=number_field(path, obj, "alpha", "parameter", vector=True),
        theta=number_field(path, obj, "theta", "parameter", vector=True),
    )
    if params.blocks != number_field(path, obj, "blocks", "parameter"):
        raise ConfigurationError(f"{path}: blocks field does not match array lengths")
    return params


# The columns of the resolution-curve CSV in file order.  Every row fills
# the _CURVE_REQUIRED ones; a cell of another column is empty for None, and
# the reserved crlb column is empty in every row a study writes.
RESOLUTION_CURVE_COLUMNS = (
    "separation_rho_s", "success_rate", "mean_pos_lo_m", "mean_pos_hi_m",
    "std_pos_lo_m", "std_pos_hi_m", "trials", "crlb",
)
RESOLUTION_CURVE_HEADER = ",".join(RESOLUTION_CURVE_COLUMNS)
_CURVE_REQUIRED = ("separation_rho_s", "success_rate", "trials")


def _curve_cell(column, v):
    if v is None and column not in _CURVE_REQUIRED:
        return ""
    return repr(int(v) if column == "trials" else float(v))


def _curve_value(column, cell):
    if cell == "" and column not in _CURVE_REQUIRED:
        return None
    return int(cell) if column == "trials" else float(cell)


def write_resolution_curve(path, rows):
    """Write resolution-test rows; an optional column a row lacks is left empty."""
    lines = [RESOLUTION_CURVE_HEADER]
    for r in rows:
        lines.append(",".join(_curve_cell(c, r.get(c)) for c in RESOLUTION_CURVE_COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_resolution_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != RESOLUTION_CURVE_HEADER:
        raise ValueError(f"{path}: unexpected resolution curve header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(RESOLUTION_CURVE_COLUMNS):
            raise ValueError(f"{path}: malformed row {ln!r}")
        rows.append({c: _curve_value(c, p) for c, p in zip(RESOLUTION_CURVE_COLUMNS, parts)})
    return rows
