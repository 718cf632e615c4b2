"""Beam selection: a detected box's centre column to a codebook index.

``select_beam`` is the definition of a prediction: the box's horizontal
edges clipped to the image, their centre column mapped through
``pixel_to_azimuth`` into a codebook bin. ``BeamEdges`` is its index as a
step function of the centre column, built from it and checked against it;
the prediction paths of ``beamcam.pipeline`` read that table.
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


def center_column(u_min, u_max, width_px) -> float:
    """The centre column of a box's horizontal edges clipped to the image."""
    return (clip(u_min, width_px) + clip(u_max, width_px)) / 2.0


def center_columns(u_min: np.ndarray, u_max: np.ndarray, du: np.ndarray,
                   width: float) -> np.ndarray:
    """``center_column`` of every box (u_min, u_max) moved by every jitter in
    ``du``, with the same float operations (add, clip, add, halve); ``du``
    is overwritten."""
    center = u_min + du
    np.minimum(np.maximum(center, 0.0, out=center), width, out=center)
    du += u_max
    np.minimum(np.maximum(du, 0.0, out=du), width, out=du)
    center += du
    center /= 2.0
    return center


def select_beam(u_min: float, u_max: float, cam: CameraModel,
                codebook: Codebook, boresight_deg: float
                ) -> tuple[int | None, float]:
    """Map a box's horizontal edges to (codebook index, world azimuth).

    The edges are clipped to the image, as the detector clips them, and the
    centre column is mapped to an azimuth. Index is None when the azimuth
    falls outside the array half-space. This scalar ``math`` form is the
    definition of a prediction: ``BeamEdges`` is built from it and checked
    against it, and ``np.arctan`` may differ from ``math.atan`` in the last
    bit, which can move a prediction across a bin edge.
    """
    center_u = center_column(u_min, u_max, cam.width_px)
    az_world = pixel_to_azimuth(cam, center_u)
    return (codebook.bin_index(world_to_array_deg(az_world, boresight_deg)),
            az_world)


def _bits(x: float) -> int:
    """The bit pattern of a float; ordered as the float for x >= 0."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


class BeamEdges:
    """The predicted codebook index as a step function of the clipped
    centre column c in [0, W]: ``index(c)`` equals ``select_beam(c, c,
    ...)[0]`` for every float c there.

    ``edges`` is sorted; c at or right of ``edges[j - 1]`` and left of
    ``edges[j]`` predicts ``indices[j]``, the one index table: ``index``
    reads it by ``bisect``, cheaper than numpy for one column, and
    ``lookup`` for an array of columns. Each edge is the first float at
    which ``select_beam`` changes its index, found by bisection over the
    float bit patterns of [0, W]. The search starts from the analytic bin
    boundaries, the columns c = cx + fx tan(k 180/Q + boresight - 90 - yaw)
    for k = 0..Q (modulo 360 degrees), whose midpoints split [0, W] into one
    bracket per boundary. Raises ValueError when a bracket holds no step
    (unless its boundary lies within rounding of an image end) or more
    than one, or when either float neighbour of an edge disagrees with
    ``select_beam``.
    """

    def __init__(self, cam: CameraModel, codebook: Codebook,
                 boresight_deg: float):
        def index_at(c: float) -> int | None:
            return select_beam(c, c, cam, codebook, boresight_deg)[0]

        width = float(cam.width_px)
        # Far wider than the rounding of select_beam's degree arithmetic,
        # far narrower than the 180/Q degrees between boundaries.
        slack_rad = math.radians(
            1e-9 * (450.0 + abs(cam.yaw_deg) + abs(boresight_deg)))
        bounds = []
        for k in range(codebook.q + 1):
            theta = (k * 180.0 / codebook.q + boresight_deg - 90.0
                     - cam.yaw_deg + 180.0) % 360.0 - 180.0
            if abs(theta) < 90.0:
                t = math.tan(math.radians(theta))
                c = cam.cx + cam.fx * t
                slack = cam.fx * (1.0 + t * t) * slack_rad
                if -slack < c < width + slack:
                    bounds.append((c, slack))
        bounds.sort()
        cuts = [0.0, *(min(max((a + b) / 2.0, 0.0), width)
                       for (a, _), (b, _) in zip(bounds, bounds[1:])), width]
        edges: list[float] = []
        indices = [index_at(0.0)]
        for (c, slack), lo, hi in zip(bounds, cuts, cuts[1:]):
            left, right = indices[-1], index_at(hi)
            if left == right:
                if slack < c < width - slack:
                    raise ValueError(f"no index step near column {c!r}")
                continue
            lo_bits, hi_bits = _bits(lo), _bits(hi)
            # Cut first just either side of the boundary, where the step
            # lies, then halve.
            near = [_bits(c + slack), _bits(c - slack)]
            while hi_bits - lo_bits > 1:
                mid = near.pop(0) if near else (lo_bits + hi_bits) // 2
                if not lo_bits < mid < hi_bits:
                    continue
                if index_at(_from_bits(mid)) == left:
                    lo_bits = mid
                else:
                    hi_bits = mid
            edge = _from_bits(hi_bits)
            if index_at(edge) != right:
                raise ValueError(f"more than one index step in columns "
                                 f"[{lo!r}, {hi!r}]")
            edges.append(edge)
            indices.append(right)
        if index_at(width) != indices[-1]:
            raise ValueError("an index step lies off every bin boundary")
        self.edges = edges
        self.indices = indices
        for edge in edges:
            for c in (math.nextafter(edge, -math.inf),
                      math.nextafter(edge, math.inf)):
                if self.index(c) != index_at(c):
                    raise ValueError(f"table disagrees with select_beam at "
                                     f"column {c!r}")

    def index(self, c: float) -> int | None:
        """The predicted index at one centre column."""
        return self.indices[bisect_right(self.edges, c)]

    def lookup(self, c: np.ndarray) -> np.ndarray:
        """The predicted index at every centre column of an array, with -1
        for None."""
        table = np.array([-1 if i is None else i for i in self.indices])
        return table[np.searchsorted(self.edges, c, side="right")]
