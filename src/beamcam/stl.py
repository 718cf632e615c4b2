"""STL mesh import/export.

Reads ASCII and binary STL (little-endian, 80-byte header, 50-byte
records). Stored facet normals are ignored.
"""

from __future__ import annotations

import re
import struct

import numpy as np

from .geometry import Mesh

_BINARY_HEADER = struct.Struct("<80sI")
_BINARY_RECORD = struct.Struct("<12fH")

_ASCII_FACET = re.compile(
    rb"facet[^v]*" + 3 * rb"vertex\s+(\S+)\s+(\S+)\s+(\S+)\s+",
)


class StlError(ValueError):
    pass


def parse_stl(data: bytes, material: str = "metal") -> Mesh:
    """Parse ASCII or binary STL bytes into a Mesh."""
    if len(data) < 15:
        raise StlError("not an STL file: too short")
    if data.lstrip().startswith(b"solid") and b"facet" in data:
        return _parse_ascii(data, material)
    return _parse_binary(data, material)


def _parse_ascii(data: bytes, material: str) -> Mesh:
    tris = []
    for m in _ASCII_FACET.finditer(data):
        try:
            coords = [float(g) for g in m.groups()]
        except ValueError as exc:
            raise StlError(f"bad ASCII STL vertex: {exc}") from exc
        tris.append(np.array(coords).reshape(3, 3))
    if not tris:
        raise StlError("ASCII STL contains no facets")
    return Mesh(np.array(tris), material, check=False)


def _parse_binary(data: bytes, material: str) -> Mesh:
    if len(data) < _BINARY_HEADER.size:
        raise StlError("binary STL truncated: missing header")
    _, count = _BINARY_HEADER.unpack_from(data, 0)
    if count == 0:
        raise StlError("STL contains zero triangles")
    expected = _BINARY_HEADER.size + count * _BINARY_RECORD.size
    if len(data) < expected:
        raise StlError(
            f"binary STL truncated: header claims {count} triangles "
            f"({expected} bytes), got {len(data)} bytes"
        )
    offset = _BINARY_HEADER.size
    records = np.frombuffer(
        data[offset:offset + count * _BINARY_RECORD.size], dtype=np.uint8
    ).reshape(count, _BINARY_RECORD.size)
    floats = records[:, :48].copy().view("<f4").reshape(count, 12)
    tris = floats[:, 3:12].astype(float).reshape(count, 3, 3)
    return Mesh(tris, material, check=False)

