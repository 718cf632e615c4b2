"""Beam selection: a detection's centre column to a codebook index.

``column_index`` is the definition of a prediction: the codebook bin of the
world azimuth that ``pixel_to_azimuth`` gives the centre column, taken
relative to the array. ``BeamEdges`` is that index as a step table over the
columns of the image, which the prediction paths of ``beamcam.pipeline``
read.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right

import numpy as np

from .camera import CameraModel, pixel_to_azimuth
from .channel import Codebook, world_to_array_deg


def clip(x, limit) -> float:
    """x clamped to [0, limit]; scalar np.clip costs microseconds a call."""
    return min(max(float(x), 0.0), float(limit))


def center_columns(u_min: np.ndarray, u_max: np.ndarray, du: np.ndarray,
                   width: float) -> np.ndarray:
    """The centre column of every box (u_min, u_max) moved by every jitter
    in ``du``, with the float operations of ``detect`` and
    ``apply_detector`` (add, clip each edge to [0, width], add, halve);
    ``du`` is overwritten."""
    center = u_min + du
    np.minimum(np.maximum(center, 0.0, out=center), width, out=center)
    du += u_max
    np.minimum(np.maximum(du, 0.0, out=du), width, out=du)
    center += du
    center /= 2.0
    return center


def column_index(c: float, cam: CameraModel, codebook: Codebook,
                 boresight_deg: float) -> int | None:
    """The codebook bin of column c's world azimuth relative to the array,
    None off the array half-space. This scalar ``math`` form is the
    definition of a prediction: ``np.arctan`` may differ from ``math.atan``
    in the last bit, which can move a prediction across a bin edge."""
    return codebook.bin_index(
        world_to_array_deg(pixel_to_azimuth(cam, c), boresight_deg))


def _bits(x: float) -> int:
    """The bit pattern of a float; ordered as the float for x >= 0."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


class BeamEdges:
    """``column_index`` as a step function of the centre column c in
    [0, W]: ``index(c)`` equals ``column_index(c, ...)`` for every float c
    there.

    ``edges`` is sorted; c at or right of ``edges[j - 1]`` and left of
    ``edges[j]`` predicts ``indices[j]``, the one index table: ``index``
    reads it by ``bisect``, cheaper than numpy for one column, and
    ``lookup`` for an array of columns. Each edge is the first float of its
    new index, found by bisection over the float bit patterns of [0, W]:
    every bit interval whose ends read different indices is split until its
    ends are neighbours. That finds every step because, as c grows, the
    column's array-relative angle sweeps an arc shorter than the hfov
    (< 180 degrees), so the index rises by one bin per step and reads None
    at one end at most: an interval whose ends agree holds no step. Raises
    ValueError when the table breaks this (bins not consecutive, or None
    other than at one end) or when either float neighbour of an edge
    disagrees with ``column_index``.
    """

    def __init__(self, cam: CameraModel, codebook: Codebook,
                 boresight_deg: float):
        def index_at(c: float) -> int | None:
            return column_index(c, cam, codebook, boresight_deg)

        def split(lo: int, left, hi: int, right) -> None:
            """Append the steps in the bit interval (lo, hi], whose ends
            read ``left`` and ``right``."""
            if left == right:
                return
            if hi - lo == 1:
                self.edges.append(_from_bits(hi))
                self.indices.append(right)
                return
            mid = (lo + hi) // 2
            at_mid = index_at(_from_bits(mid))
            split(lo, left, mid, at_mid)
            split(mid, at_mid, hi, right)

        width = float(cam.width_px)
        self.edges: list[float] = []
        self.indices = [index_at(0.0)]
        split(_bits(0.0), self.indices[0], _bits(width), index_at(width))
        bins = [i for i in self.indices if i is not None]
        if any(b != a + 1 for a, b in zip(bins, bins[1:])) \
                or self.indices.count(None) > 1 \
                or None in self.indices[1:-1]:
            raise ValueError(f"column indices {self.indices} are not "
                             f"consecutive bins with None at one end")
        for edge in self.edges:
            for c in (math.nextafter(edge, -math.inf),
                      math.nextafter(edge, math.inf)):
                if self.index(c) != index_at(c):
                    raise ValueError(f"table disagrees with column_index "
                                     f"at column {c!r}")

    def index(self, c: float) -> int | None:
        """The predicted index at one centre column."""
        return self.indices[bisect_right(self.edges, c)]

    def lookup(self, c: np.ndarray) -> np.ndarray:
        """The predicted index at every centre column of an array, with -1
        for None."""
        table = np.array([-1 if i is None else i for i in self.indices])
        return table[np.searchsorted(self.edges, c, side="right")]
