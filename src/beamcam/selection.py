"""Beam selection: a detected box's centre column to a codebook index.

``detected_boxes`` is the one place a detection is formed from a truth box:
its edges jittered and clipped to the image, and its centre column, for any
batch of boxes. ``column_index`` is the definition of a prediction: the
codebook bin of the world azimuth that ``pixel_to_azimuth`` gives the centre
column, taken relative to the array. ``BeamEdges`` is that index as a step
table over the columns of the image. ``apply_detector`` and ``sweep`` of
``beamcam.pipeline`` both read these two.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .camera import CameraModel, pixel_to_azimuth
from .channel import Codebook, world_to_array_deg


def detected_boxes(edges: np.ndarray, jitter: np.ndarray, size
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The detected edges and centre column of every box of a batch.

    ``edges`` is (..., 2, k): the min then the max edge of a box along each
    of k image axes, u first; ``jitter`` (..., k) moves both edges of an
    axis, and ``size`` holds the image's k sizes, each at least 1. Each
    moved edge is clipped to [0, size] as ``min(max(x, 0.0), size)`` clips
    it, which keeps -0.0: ``np.maximum`` would make it 0.0, and the dataset
    writes the sign. The centre column is the midpoint of the clipped u
    edges. Returns the clipped edges, shaped as ``edges`` broadcast against
    the jitter, and the centre columns.
    """
    moved = edges + jitter[..., None, :]
    np.copyto(moved, 0.0, where=moved < 0.0)
    np.minimum(moved, size, out=moved)
    return moved, (moved[..., 0, 0] + moved[..., 1, 0]) / 2.0


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
    [0, W]: ``lookup`` gives ``column_index(c, ...)`` for every float c
    there, with -1 for None.

    ``edges`` is sorted; c at or right of ``edges[j - 1]`` and left of
    ``edges[j]`` predicts ``table[j]``, the one index table, built once.
    Each edge is the first float of its new index, found by bisection over
    the float bit patterns of [0, W]: every bit interval whose ends read
    different indices is split until its ends are neighbours. That finds
    every step because, as c grows, the column's array-relative angle sweeps
    an arc shorter than the hfov (< 180 degrees), so the index rises by one
    bin per step and reads None at one end at most: an interval whose ends
    agree holds no step. Raises ValueError when the table breaks this (bins
    not consecutive, or None other than at one end) or when either float
    neighbour of an edge disagrees with ``column_index``.
    """

    def __init__(self, cam: CameraModel, codebook: Codebook,
                 boresight_deg: float):
        def index_at(c: float) -> int:
            i = column_index(c, cam, codebook, boresight_deg)
            return -1 if i is None else i

        def split(lo: int, left, hi: int, right) -> None:
            """Append the steps in the bit interval (lo, hi], whose ends
            read ``left`` and ``right``."""
            if left == right:
                return
            if hi - lo == 1:
                edges.append(_from_bits(hi))
                steps.append(right)
                return
            mid = (lo + hi) // 2
            at_mid = index_at(_from_bits(mid))
            split(lo, left, mid, at_mid)
            split(mid, at_mid, hi, right)

        width = float(cam.width_px)
        edges: list[float] = []
        steps = [index_at(0.0)]
        split(_bits(0.0), steps[0], _bits(width), index_at(width))
        self.edges = np.array(edges)
        self.table = np.array(steps)
        indices = self.indices
        bins = [i for i in indices if i is not None]
        if any(b != a + 1 for a, b in zip(bins, bins[1:])) \
                or indices.count(None) > 1 or None in indices[1:-1]:
            raise ValueError(f"column indices {indices} are not "
                             f"consecutive bins with None at one end")
        columns = [math.nextafter(edge, side) for edge in edges
                   for side in (-math.inf, math.inf)]
        for c, i in zip(columns, self.lookup(np.array(columns)).tolist()):
            if i != index_at(c):
                raise ValueError(f"table disagrees with column_index "
                                 f"at column {c!r}")

    @property
    def indices(self) -> list[int | None]:
        """The index table as a list, with None off the array half-space."""
        return [None if i < 0 else i for i in self.table.tolist()]

    def lookup(self, c: np.ndarray) -> np.ndarray:
        """The predicted index at every centre column of an array, with -1
        for None."""
        return self.table[np.searchsorted(self.edges, c, side="right")]
