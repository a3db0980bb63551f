"""On-disk formats: field binaries, CSV tables, JSON summaries, PGM images.

Every writer goes through :func:`atomic_write` (temp file in the target
directory, then rename), so partially written outputs never appear under
their final name.  Formats are fixed:

* field binary — magic ``AMBO``, a version byte, the dimension byte, the
  per-axis cell counts as little-endian uint32, then the cell values as
  row-major little-endian float64;
* CSV — header row always present, floats rendered with ``%.17g`` so a
  read-back parses to the identical double;
* summary JSON — sorted keys, validated against the schema shipped with
  the package (non-finite numbers are nulled, keeping the files strict
  JSON);
* PGM — binary ``P5`` at 16 bits, for quick visual inspection only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .errors import ConfigError

__all__ = [
    "FIELD_MAGIC",
    "FIELD_VERSION",
    "atomic_write",
    "config_hash",
    "jsonable",
    "read_field",
    "read_summary",
    "summary_schema",
    "write_csv",
    "write_field",
    "write_pgm",
    "write_summary",
]

FIELD_MAGIC = b"AMBO"
FIELD_VERSION = 1


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Yield a handle to a temp file that replaces ``path`` on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Field binary
# ---------------------------------------------------------------------------

def write_field(path, values) -> None:
    """Write an array of cell values in the package binary format."""
    # ascontiguousarray promotes a 0-d scalar to 1-d, so check first.
    if np.asarray(values).ndim < 1:
        raise ConfigError("field must have at least one axis")
    arr = np.ascontiguousarray(values, dtype="<f8")
    with atomic_write(path, "wb") as out:
        out.write(FIELD_MAGIC)
        out.write(struct.pack("<BB", FIELD_VERSION, arr.ndim))
        out.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.write(arr.tobytes(order="C"))


def read_field(path) -> np.ndarray:
    """Read a field binary back; round-trips bit-identically."""
    with open(path, "rb") as src:
        blob = src.read()
    if blob[:4] != FIELD_MAGIC:
        raise ConfigError(f"{path}: not a field file (bad magic {blob[:4]!r})")
    # the magic, version and dimension bytes, then one uint32 per axis
    if len(blob) < 6 or len(blob) < 6 + 4 * blob[5]:
        raise ConfigError(f"{path}: truncated field file (only {len(blob)} bytes)")
    version, ndim = struct.unpack_from("<BB", blob, 4)
    if version != FIELD_VERSION:
        raise ConfigError(f"{path}: unsupported field version {version}")
    shape = struct.unpack_from(f"<{ndim}I", blob, 6)
    offset = 6 + 4 * ndim
    count = int(np.prod(shape))
    expected = offset + 8 * count
    if len(blob) != expected:
        raise ConfigError(
            f"{path}: truncated field file ({len(blob)} bytes, need {expected})"
        )
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    return data.reshape(shape).copy()


def write_pgm(path, values, lo: float | None = None, hi: float | None = None) -> None:
    """16-bit binary PGM of a 2-d field; x2 increases upward in the image."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError("PGM output needs a 2-d field")
    if lo is None:
        lo = float(arr.min())
    if hi is None:
        hi = float(arr.max())
    span = hi - lo
    if span <= 0.0:
        pixels = np.zeros(arr.shape, dtype=">u2")
    else:
        scaled = np.clip((arr - lo) / span, 0.0, 1.0) * 65535.0
        pixels = np.rint(scaled).astype(">u2")
    # values[i, j] is (x1, x2); image rows run top to bottom.
    image = pixels.T[::-1]
    with atomic_write(path, "wb") as out:
        out.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode("ascii"))
        out.write(image.tobytes(order="C"))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        return f"{v:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a CSV table; the header row is always present."""
    lines = [",".join(str(name) for name in header)]
    width = len(lines[0].split(","))
    for row in rows:
        cells = [_format_cell(v) for v in row]
        if len(cells) != width:
            raise ConfigError(
                f"CSV row has {len(cells)} cells, header has {width}"
            )
        lines.append(",".join(cells))
    with atomic_write(path, "w") as out:
        out.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Summary JSON
# ---------------------------------------------------------------------------

def jsonable(value):
    """Recursively convert numpy scalars/arrays; nul non-finite floats."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def summary_schema() -> dict:
    text = (
        resources.files("ambo") / "schemas" / "summary.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


@functools.cache
def _summary_validator():
    """A validator for the shipped schema, checked against its meta-schema once."""
    schema = summary_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def write_summary(path, summary: dict) -> dict:
    """Validate the summary against the shipped schema and write it.

    Returns the sanitized document that was written (plain JSON types).
    """
    doc = jsonable(summary)
    _summary_validator().validate(doc)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with atomic_write(path, "w") as out:
        out.write(text + "\n")
    return doc


def read_summary(path) -> dict:
    with open(path, "r", encoding="utf-8") as src:
        doc = json.load(src)
    _summary_validator().validate(doc)
    return doc


def config_hash(document) -> str:
    """sha256 of the canonical JSON rendering of a config mapping."""
    canon = json.dumps(
        jsonable(document), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
