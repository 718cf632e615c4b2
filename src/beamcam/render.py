"""Deterministic flat-shaded debug renderer writing binary PPM (P6).

Painter's algorithm over the frame's occluder table, flat color per
propagation material with a fixed directional light, plus bounding box
overlays. Identical inputs produce identical bytes, which makes renders
usable as byte-exact goldens.
"""

from __future__ import annotations

import numpy as np

from .camera import BoundingBox, CameraModel, project_points
from .geometry import TriangleSet

BACKGROUND_RGB = (38, 50, 66)
BBOX_RGB = (255, 220, 40)
BBOX_THICKNESS_PX = 2

#: Flat base color per propagation material (documented in the README).
MATERIAL_RGB = {
    "metal": (196, 60, 48),
    "concrete": (150, 150, 150),
    "brick": (176, 110, 74),
}
_FALLBACK_RGB = (90, 160, 90)

_LIGHT_DIR = np.array([0.40824829, 0.40824829, 0.81649658])  # fixed, unit


def render_debug_frame(cam: CameraModel, tset: TriangleSet,
                       bboxes: list[BoundingBox] = ()) -> np.ndarray:
    """Rasterize the triangles of an occluder table, each in its owner's
    material color; returns an (H, W, 3) uint8 image."""
    h, w = cam.height_px, cam.width_px
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:] = BACKGROUND_RGB
    forward, _, _ = cam.axes
    cam_pos = np.asarray(cam.position)
    bases = [np.array(MATERIAL_RGB.get(m, _FALLBACK_RGB), float)
             for m in tset.materials]

    # Every vertex projected at once; a triangle is drawn only if all three
    # of its vertices are in front of the camera.
    u, v, front = project_points(cam, tset.tris)
    pixels = np.stack([u, v], axis=-1).reshape(-1, 3, 2)
    drawn = front.reshape(-1, 3).all(axis=1).tolist()
    tris = []
    for tri, owner, pts, seen in zip(tset.tris, tset.owners.tolist(), pixels,
                                     drawn):
        if not seen:
            continue
        depth = float(np.mean((tri - cam_pos) @ forward))
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        nlen = np.linalg.norm(normal)
        if nlen == 0.0:
            continue
        shade = 0.55 + 0.45 * abs(float(normal @ _LIGHT_DIR)) / nlen
        color = np.clip(bases[owner] * shade, 0, 255).astype(np.uint8)
        tris.append((depth, pts, color))

    # Far to near so closer triangles overwrite farther ones.
    tris.sort(key=lambda item: -item[0])
    for _, pts, color in tris:
        _fill_triangle(img, pts, color)

    for bbox in bboxes:
        _draw_bbox(img, bbox)
    return img


def _fill_triangle(img: np.ndarray, pts: np.ndarray, color) -> None:
    h, w = img.shape[:2]
    u_lo = max(int(np.floor(pts[:, 0].min())), 0)
    u_hi = min(int(np.ceil(pts[:, 0].max())), w - 1)
    v_lo = max(int(np.floor(pts[:, 1].min())), 0)
    v_hi = min(int(np.ceil(pts[:, 1].max())), h - 1)
    if u_lo > u_hi or v_lo > v_hi:
        return
    (x0, y0), (x1, y1), (x2, y2) = pts
    det = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
    if abs(det) < 1e-12:
        return
    us = np.arange(u_lo, u_hi + 1) + 0.5
    vs = np.arange(v_lo, v_hi + 1) + 0.5
    uu, vv = np.meshgrid(us, vs)
    w0 = ((y1 - y2) * (uu - x2) + (x2 - x1) * (vv - y2)) / det
    w1 = ((y2 - y0) * (uu - x2) + (x0 - x2) * (vv - y2)) / det
    w2 = 1.0 - w0 - w1
    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    region = img[v_lo:v_hi + 1, u_lo:u_hi + 1]
    region[inside] = color


def _draw_bbox(img: np.ndarray, bbox: BoundingBox) -> None:
    h, w = img.shape[:2]
    u0 = int(np.clip(np.floor(bbox.u_min), 0, w - 1))
    u1 = int(np.clip(np.ceil(bbox.u_max), 0, w - 1))
    v0 = int(np.clip(np.floor(bbox.v_min), 0, h - 1))
    v1 = int(np.clip(np.ceil(bbox.v_max), 0, h - 1))
    color = np.array(BBOX_RGB, dtype=np.uint8)
    t = BBOX_THICKNESS_PX
    img[v0:min(v0 + t, h), u0:u1 + 1] = color
    img[max(v1 - t + 1, 0):v1 + 1, u0:u1 + 1] = color
    img[v0:v1 + 1, u0:min(u0 + t, w)] = color
    img[v0:v1 + 1, max(u1 - t + 1, 0):u1 + 1] = color


def write_ppm(img: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 image as binary PPM (P6)."""
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()
