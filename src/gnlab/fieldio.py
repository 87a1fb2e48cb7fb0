"""GNF1 field files, and the one writer of every output file.

Layout: 8-byte magic "GNFIELD1", little-endian uint32 header length, JSON
header {"n", "points_per_dim", "box_length", "domain", "dtype"}, then raw
little-endian complex128 samples in row-major order.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from .rational import as_int
from .spectral import Domain, Field, Grid

MAGIC = b"GNFIELD1"


def write_atomic(path: Union[str, Path], data: Union[str, bytes, bytearray]) -> None:
    """Write text or bytes to `path` atomically, creating its missing parent
    directories: the data goes to a temporary file beside `path`, which then
    replaces it, so a reader sees the old file or the whole new one, and a
    failed write leaves neither a partial file nor the temporary one.  The
    file gets the permissions open() would give it, not mkstemp's 0600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_gnf(path: Union[str, Path], field: Field) -> None:
    header = {
        "n": field.grid.n,
        "points_per_dim": field.grid.points_per_dim,
        "box_length": field.grid.box_length,
        "domain": field.domain.value,
        "dtype": "c128",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray(MAGIC + struct.pack("<I", len(blob)) + blob)
    out += memoryview(np.ascontiguousarray(field.data, dtype="<c16")).cast("B")
    write_atomic(path, out)


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
