"""Pinhole camera: projection, bounding boxes, pixel-to-azimuth inversion.

The camera is co-located with the BS by default and shares its boresight,
which makes pixel azimuth and beam azimuth directly comparable. Pixel u
grows with counterclockwise azimuth offset from the camera yaw, so
``pixel_to_azimuth(project(p).u)`` recovers the true world azimuth of p
exactly when pitch is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import RAY_EPS, rowdot
from .scenario import BsConfig


@dataclass(frozen=True)
class CameraModel:
    width_px: int
    height_px: int
    fx: float
    cx: float
    cy: float
    position: tuple[float, float, float]
    yaw_deg: float
    pitch_deg: float

    @classmethod
    def from_bs(cls, bs: BsConfig) -> "CameraModel":
        cam = bs.camera
        fx = (cam.width_px / 2.0) / math.tan(math.radians(cam.hfov_deg) / 2.0)
        position = tuple(p + o for p, o in zip(bs.position, cam.position_offset))
        return cls(
            width_px=cam.width_px,
            height_px=cam.height_px,
            fx=fx,
            cx=cam.width_px / 2.0,
            cy=cam.height_px / 2.0,
            position=position,
            yaw_deg=cam.yaw_deg,
            pitch_deg=cam.pitch_deg,
        )

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(forward, u_axis, v_axis) world-frame unit vectors, read-only.

        u_axis is horizontal, pointing toward increasing pixel u; v_axis
        points toward increasing pixel v (image down). Computed once per
        camera.
        """
        yaw = math.radians(self.yaw_deg)
        pitch = math.radians(self.pitch_deg)
        forward = np.array([
            math.cos(yaw) * math.cos(pitch),
            math.sin(yaw) * math.cos(pitch),
            math.sin(pitch),
        ])
        u_axis = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
        v_axis = np.cross(u_axis, forward)
        for axis in (forward, u_axis, v_axis):
            axis.setflags(write=False)
        return forward, u_axis, v_axis


@dataclass(frozen=True)
class BoundingBox:
    u_min: float
    v_min: float
    u_max: float
    v_max: float
    visibility: float


def project_points(cam: CameraModel, points
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perspective projection of points (shape (n, 3)) at once.

    Returns the pixel coordinates u and v, and whether each point is in
    front of the camera plane; the pixels of points behind it are
    meaningless. Points outside the image rectangle still project
    (clipping is the caller's job).
    """
    forward, u_axis, v_axis = cam.axes
    rel = np.asarray(points, float).reshape(-1, 3) - np.asarray(cam.position)
    z = rowdot(rel, forward)
    front = z > RAY_EPS
    z = np.where(front, z, 1.0)
    # Square pixels: the one focal length scales both axes.
    u = cam.cx + cam.fx * rowdot(rel, u_axis) / z
    v = cam.cy + cam.fx * rowdot(rel, v_axis) / z
    return u, v, front


def pixel_to_azimuth(cam: CameraModel, u: float) -> float:
    """World azimuth (degrees, [0, 360)) of the vertical pixel column u."""
    offset = math.degrees(math.atan((u - cam.cx) / cam.fx))
    return (cam.yaw_deg + offset) % 360.0


class VertexRays:
    """The vertices of several meshes projected at once, and the occlusion
    rays from the camera to the vertices that land inside the image.

    ``points`` holds each mesh's vertices in turn, shape (N, 3), and
    ``counts`` how many are each mesh's. ``starts``, ``ends`` and ``mesh``
    give each ray's camera end, vertex and mesh index. ``boxes`` turns the
    rays' occlusion verdicts into one bounding box per mesh, in the order
    of ``counts``, which is all that says whose box it is.
    """

    def __init__(self, cam: CameraModel, points: np.ndarray, counts):
        self._counts = np.asarray(counts, int)
        u, v, front = project_points(cam, points)
        inside = front & (u >= 0.0) & (u < cam.width_px) \
            & (v >= 0.0) & (v < cam.height_px)
        self.ends = points[inside]
        self.starts = np.empty_like(self.ends)
        self.starts[:] = cam.position
        self.mesh = np.repeat(np.arange(len(self._counts)),
                              self._counts)[inside]
        self._uv = np.column_stack([u[inside], v[inside]])

    def boxes(self, blocked: np.ndarray) -> list[BoundingBox | None]:
        """One box per mesh over its unblocked rays, or None if it has none.

        Visibility is the fraction of the mesh's vertices that are in front
        of the camera, inside the image and unblocked. A box spans its
        rays' pixels clipped to the image, ``max(0.0, min(us))`` to
        ``min(width, max(us))`` in u and so in v, with Python's ``min`` and
        ``max``, each mesh's taken by one reduction over its rays. Every
        pixel is >= 0 and below the image size, so the clip only turns a
        -0.0 min into 0.0, and a zero max means every pixel of the mesh is
        a zero: Python's ``max`` keeps the first of them, whose sign the box
        keeps.
        """
        seen = ~np.asarray(blocked, bool)
        mesh, uv = self.mesh[seen], self._uv[seen]
        count = np.bincount(mesh, minlength=len(self._counts))
        has = np.flatnonzero(count)
        first = np.searchsorted(mesh, has)
        lo = np.minimum.reduceat(uv, first, axis=0)
        hi = np.maximum.reduceat(uv, first, axis=0)
        boxes: list[BoundingBox | None] = [None] * len(self._counts)
        for m, (u_min, v_min), (u_max, v_max), k, n in zip(
                has.tolist(), np.where(lo > 0.0, lo, 0.0).tolist(),
                np.where(hi == 0.0, uv[first], hi).tolist(),
                count[has].tolist(), self._counts[has].tolist()):
            boxes[m] = BoundingBox(u_min, v_min, u_max, v_max, k / n)
        return boxes
