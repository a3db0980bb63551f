"""On-disk formats: field binaries, CSV tables, JSON summaries, PGM images.

Every writer goes through :func:`atomic_write` (temp file in the target
directory, then rename), so partially written outputs never appear under
their final name.  Formats are fixed:

* field binary — magic ``AMBO``, a version byte, the dimension byte, the
  per-axis cell counts as little-endian uint32, then the cell values as
  row-major little-endian float64;
* CSV — header row always present, floats rendered with ``%.17g`` so a
  read-back parses to the identical double;
* summary JSON — sorted keys, checked against the schema shipped with
  the package when written and when read (non-finite numbers are nulled,
  keeping the files strict JSON);
* PGM — binary ``P5`` at 16 bits, for quick visual inspection only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import struct
import tempfile
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "FIELD_MAGIC",
    "FIELD_VERSION",
    "SummaryError",
    "atomic_write",
    "check_summary",
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
        out.write(memoryview(arr))


def read_field(path) -> np.ndarray:
    """Read a field binary back; round-trips bit-identically.  The payload
    is read straight into the returned array."""
    with open(path, "rb") as src:
        size = os.fstat(src.fileno()).st_size
        head = src.read(6)
        if head[:4] != FIELD_MAGIC:
            raise ConfigError(f"{path}: not a field file (bad magic {head[:4]!r})")
        # the magic, version and dimension bytes, then one uint32 per axis
        if size < 6 or size < 6 + 4 * head[5]:
            raise ConfigError(f"{path}: truncated field file (only {size} bytes)")
        version, ndim = struct.unpack("<BB", head[4:])
        if version != FIELD_VERSION:
            raise ConfigError(f"{path}: unsupported field version {version}")
        data = np.empty(struct.unpack(f"<{ndim}I", src.read(4 * ndim)), dtype="<f8")
        expected = 6 + 4 * ndim + data.nbytes
        if size != expected or src.readinto(data) != data.nbytes:
            raise ConfigError(
                f"{path}: truncated field file ({size} bytes, need {expected})"
            )
    return data


def write_pgm(path, values) -> None:
    """16-bit binary PGM of a 2-d field in [0, 1] (black to white; values
    outside are clipped); x2 increases upward in the image."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError("PGM output needs a 2-d field")
    scaled = np.clip(arr, 0.0, 1.0)
    scaled *= 65535.0
    np.rint(scaled, out=scaled)
    # values[i, j] is (x1, x2); image rows run top to bottom.
    image = np.ascontiguousarray(scaled.T[::-1], dtype=">u2")
    with atomic_write(path, "wb") as out:
        out.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode("ascii"))
        out.write(memoryview(image))


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


_shipped_schema = functools.cache(summary_schema)  # read once, never modified


class SummaryError(ValueError):
    """A summary document does not match the shipped schema."""


# The test of each JSON type the schema names (an integral float is an
# integer).  _schema_problems checks type, enum (of strings, for which ==
# is JSON equality), pattern, required, properties and additionalProperties
# with their draft-7 meaning; the tests hold the shipped schema to these.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: type(v) is int or isinstance(v, float) and v.is_integer(),
}


def _schema_problems(doc, schema: dict, where: str = "$"):
    """Yield each way ``doc`` breaks ``schema``."""
    if "type" in schema:
        types = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_JSON_TYPES[t](doc) for t in types):
            yield f"{where}: {doc!r} is not of type {', '.join(types)}"
            return
    if "enum" in schema and doc not in schema["enum"]:
        yield f"{where}: {doc!r} is not one of {schema['enum']}"
    if isinstance(doc, str) and not re.search(schema.get("pattern", ""), doc):
        yield f"{where}: {doc!r} does not match {schema['pattern']!r}"
    if not isinstance(doc, dict):
        return
    for key in schema.get("required", []):
        if key not in doc:
            yield f"{where}: required key {key!r} is missing"
    properties = schema.get("properties", {})
    extra = schema.get("additionalProperties", True)
    for key, value in doc.items():
        if key in properties:
            yield from _schema_problems(value, properties[key], f"{where}.{key}")
        elif extra is False:
            yield f"{where}: key {key!r} is not allowed"
        elif isinstance(extra, dict):
            yield from _schema_problems(value, extra, f"{where}.{key}")


def check_summary(doc, source: str = "summary") -> None:
    """Raise SummaryError naming every way ``doc`` breaks the shipped schema."""
    problems = list(_schema_problems(doc, _shipped_schema()))
    if problems:
        raise SummaryError(
            f"{source} does not match the summary schema: " + "; ".join(problems)
        )


def write_summary(path, summary: dict) -> dict:
    """Check the summary against the shipped schema and write it.

    Returns the sanitized document that was written (plain JSON types).
    """
    doc = jsonable(summary)
    check_summary(doc, str(path))
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with atomic_write(path, "w") as out:
        out.write(text + "\n")
    return doc


def read_summary(path) -> dict:
    with open(path, "r", encoding="utf-8") as src:
        doc = json.load(src)
    check_summary(doc, str(path))
    return doc


def config_hash(document) -> str:
    """sha256 of the canonical JSON rendering of a config mapping."""
    canon = json.dumps(
        jsonable(document), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
