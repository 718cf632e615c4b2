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

from .geometry import RAY_EPS, Mesh
from .raytrace import SceneGeometry
from .scenario import BsConfig


@dataclass(frozen=True)
class CameraModel:
    width_px: int
    height_px: int
    fx: float
    fy: float
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
            fy=fx,
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
    ue_name: str
    visibility: float

    @property
    def center_u(self) -> float:
        return (self.u_min + self.u_max) / 2.0

    @property
    def center_v(self) -> float:
        return (self.v_min + self.v_max) / 2.0


def project_point(cam: CameraModel, p_world) -> tuple[float, float] | None:
    """Perspective projection; None for points behind the camera plane.

    Points outside the image rectangle still project (clipping is the
    caller's job).
    """
    forward, u_axis, v_axis = cam.axes
    rel = np.asarray(p_world, float) - np.asarray(cam.position)
    z = float(np.dot(rel, forward))
    if z <= RAY_EPS:
        return None
    u = cam.cx + cam.fx * float(np.dot(rel, u_axis)) / z
    v = cam.cy + cam.fy * float(np.dot(rel, v_axis)) / z
    return u, v


def pixel_to_azimuth(cam: CameraModel, u: float) -> float:
    """World azimuth (degrees, [0, 360)) of the vertical pixel column u."""
    offset = math.degrees(math.atan((u - cam.cx) / cam.fx))
    return (cam.yaw_deg + offset) % 360.0


def project_bbox(cam: CameraModel, mesh: Mesh, ue_name: str,
                 scene: SceneGeometry | None = None,
                 exclude=()) -> BoundingBox | None:
    """Occlusion-aware bounding box of a UE mesh.

    The box spans the projected vertices that are in front of the camera,
    inside the image and pass an occlusion ray test; visibility is the
    fraction of mesh vertices passing all three tests. Returns None when
    nothing is visible.
    """
    verts = mesh.vertices()
    pixels = [project_point(cam, vert) for vert in verts]
    keep = [i for i, px in enumerate(pixels) if px is not None
            and 0.0 <= px[0] < cam.width_px and 0.0 <= px[1] < cam.height_px]
    if scene is not None and keep:
        # One occlusion pass over the rays to the in-image vertices.
        blocked = scene.tset.segments_occluded(
            np.broadcast_to(cam.position, (len(keep), 3)), verts[keep],
            exclude)
        keep = [i for i, b in zip(keep, blocked) if not b]
    if not keep:
        return None
    us = [pixels[i][0] for i in keep]
    vs = [pixels[i][1] for i in keep]
    return BoundingBox(
        u_min=max(0.0, min(us)),
        v_min=max(0.0, min(vs)),
        u_max=min(float(cam.width_px), max(us)),
        v_max=min(float(cam.height_px), max(vs)),
        ue_name=ue_name,
        visibility=len(keep) / len(verts),
    )
