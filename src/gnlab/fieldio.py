"""GNF1 field files.

Layout: 8-byte magic "GNFIELD1", little-endian uint32 header length, JSON
header {"n", "points_per_dim", "box_length", "domain", "dtype"}, then raw
little-endian complex128 samples in row-major order.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .rational import as_int
from .spectral import Domain, Field, Grid

MAGIC = b"GNFIELD1"


def write_gnf(path: Union[str, Path], field: Field) -> None:
    header = {
        "n": field.grid.n,
        "points_per_dim": field.grid.points_per_dim,
        "box_length": field.grid.box_length,
        "domain": field.domain.value,
        "dtype": "c128",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data = np.ascontiguousarray(field.data, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(data.tobytes())


def read_gnf(path: Union[str, Path]) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a GNF1 file (bad magic {magic!r})")
        size = fh.read(4)
        if len(size) != 4:
            raise ValueError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<I", size)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise ValueError(f"{path}: truncated header")
        header = json.loads(blob.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        if header.get("dtype") != "c128":
            raise ValueError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        n = as_int(header["n"], f"{path}: n")
        m = as_int(header["points_per_dim"], f"{path}: points_per_dim")
        grid = Grid(n, m, float(header["box_length"]))
        raw = fh.read()
    expected = np.prod(grid.shape) * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<c16").reshape(grid.shape)
    return Field(grid, Domain(header["domain"]), data)
