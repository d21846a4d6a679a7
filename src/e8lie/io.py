"""Matrix bundle files and atomic artifact writes.

A bundle is a JSON header {format_version, name, rows, cols, encoding,
layout, payload} next to a payload file: CSV integers or little-endian
int32 for encoding "doubled-int", little-endian float64 for encoding
"f64".  Round-trips are bit-exact.  All writes go through a temp file and
os.replace so a crashed run never leaves a partial artifact.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import FORMAT_VERSION
from .halfint import HalfIntMatrix

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1


def atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def write_bundle(path_base: str, name: str, matrix, fmt: str = "bin") -> str:
    """Write a matrix bundle; returns the header path.

    HalfIntMatrix payloads use encoding "doubled-int" (int32 LE binary or
    CSV integers); float arrays use encoding "f64" (always binary).
    """
    if isinstance(matrix, HalfIntMatrix):
        encoding = "doubled-int"
        rows, cols = matrix.rows, matrix.cols
        d = matrix.doubled
        if d.size and (d.min() < _INT32_MIN or d.max() > _INT32_MAX):
            raise ValueError("doubled entries do not fit the int32 payload format")
        if fmt == "bin":
            payload_path = path_base + ".bin"
            payload = d.astype("<i4").tobytes(order="C")
        elif fmt == "csv":
            payload_path = path_base + ".csv"
            lines = "\n".join(",".join(str(int(v)) for v in row) for row in d)
            payload = (lines + "\n").encode("ascii")
        else:
            raise ValueError(f"unknown bundle format {fmt!r}")
    else:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("f64 bundle payload must be 2-d")
        encoding = "f64"
        rows, cols = arr.shape
        payload_path = path_base + ".bin"
        payload = arr.astype("<f8").tobytes(order="C")

    header = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "rows": rows,
        "cols": cols,
        "encoding": encoding,
        "layout": "row-major",
        "payload": os.path.basename(payload_path),
    }
    atomic_write_bytes(payload_path, payload)
    header_path = path_base + ".json"
    write_json(header_path, header)
    return header_path


# what each header field must satisfy before any of them is used
_HEADER_FIELDS = {
    "format_version": lambda v: v == FORMAT_VERSION,
    "layout": lambda v: v == "row-major",
    "encoding": lambda v: v in ("doubled-int", "f64"),
    "name": lambda v: isinstance(v, str),
    "payload": lambda v: isinstance(v, str),
    "rows": lambda v: type(v) is int and v >= 0,
    "cols": lambda v: type(v) is int and v >= 0,
}


def read_bundle(header_path: str):
    """Read a bundle back; returns (name, HalfIntMatrix or float ndarray)."""
    with open(header_path, "r", encoding="utf-8") as f:
        header = json.load(f)
    if not isinstance(header, dict):
        raise ValueError("bundle header must be a JSON object")
    for key, ok in _HEADER_FIELDS.items():
        if not ok(header.get(key)):
            raise ValueError(f"invalid bundle header field {key!r}: {header.get(key)!r}")
    rows, cols = header["rows"], header["cols"]
    base = os.path.realpath(os.path.dirname(os.path.abspath(header_path)))
    payload_path = os.path.realpath(os.path.join(base, header["payload"]))
    if os.path.dirname(payload_path) != base:
        raise ValueError("payload must be a file in the header's directory")
    if header["encoding"] == "f64":
        return header["name"], _read_binary(payload_path, "<f8", rows, cols).astype(np.float64)
    if payload_path.endswith(".csv"):
        with open(payload_path, "r", encoding="ascii") as f:
            data = [[int(v) for v in line.split(",")] for line in f.read().split()]
        arr = np.array(data, dtype=np.int64)
    else:
        arr = _read_binary(payload_path, "<i4", rows, cols).astype(np.int64)
    if arr.shape != (rows, cols):
        raise ValueError("payload size does not match header dimensions")
    return header["name"], HalfIntMatrix(arr)


def _read_binary(path: str, dtype: str, rows: int, cols: int) -> np.ndarray:
    if os.path.getsize(path) != rows * cols * np.dtype(dtype).itemsize:
        raise ValueError("payload size does not match header dimensions")
    return np.fromfile(path, dtype=dtype).reshape(rows, cols)
