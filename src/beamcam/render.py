"""Deterministic flat-shaded debug renderer writing binary PPM (P6).

Painter's algorithm over the frame's occluder table, flat color per
propagation material with a fixed directional light, plus bounding box
overlays. Identical inputs produce identical bytes, which makes renders
usable as byte-exact goldens.
"""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

from .camera import BoundingBox, CameraModel, project_points
from .geometry import TriangleSet, norms, rowdot

BACKGROUND_RGB = (38, 50, 66)
BBOX_RGB = (255, 220, 40)
BBOX_THICKNESS_PX = 2

#: Flat base color per propagation material (README, Conventions).
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
    material color; returns an (H, W, 3) uint8 image.

    A triangle is drawn only if all three of its vertices are in front of
    the camera and its normal is not zero. Triangles are painted far to
    near by mean vertex depth along the camera's forward axis, ties in
    table order, so the later of two equal-depth triangles wins. A pixel is
    inside when its centre's three barycentric coordinates are all >= 0.
    """
    h, w = cam.height_px, cam.width_px
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[0] = BACKGROUND_RGB
    img[1:] = img[0]
    pixel = img.view("V3").reshape(h, w)  # one 3-byte item per pixel
    forward, _, _ = cam.axes

    # One pass over the table: which triangles are drawn, their depth,
    # flat color and painter's order. Each value is made by the calls that
    # a one-triangle form makes (a gemv per depth; ``np.dot`` per norm and
    # shade, through ``norms`` and ``rowdot``), so it is equal bit for bit.
    tris = tset.tris
    u, v, front = project_points(cam, tris)
    pixels = np.stack([u, v], axis=-1).reshape(-1, 3, 2)
    normal = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    nlen = norms(normal)
    drawn = front.reshape(-1, 3).all(axis=1) & (nlen != 0.0)
    depth = np.mean(np.matmul(tris[drawn] - np.asarray(cam.position),
                              forward), axis=1)
    shade = 0.55 + 0.45 * np.abs(rowdot(normal[drawn], _LIGHT_DIR)) \
        / nlen[drawn]
    bases = np.array([MATERIAL_RGB.get(m, _FALLBACK_RGB)
                      for m in tset.materials], float).reshape(-1, 3)
    colors = np.clip(bases[tset.owners[drawn]] * shade[:, None], 0,
                     255).astype(np.uint8).view("V3")[:, 0]
    order = np.argsort(-depth, kind="stable")  # far to near
    pts = pixels[drawn][order]
    colors = colors[order]

    # Each triangle's pixel rectangle, clipped to the image, and its
    # projected determinant; one off the image or with |det| < 1e-12 draws
    # nothing.
    lo = np.maximum(np.floor(pts.min(axis=1)), 0.0)
    hi = np.minimum(np.ceil(pts.max(axis=1)), [w - 1, h - 1])
    (x0, y0), (x1, y1), (x2, y2) = pts.transpose(1, 2, 0)
    det = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
    keep = (lo <= hi).all(axis=1) & (np.abs(det) >= 1e-12)
    for (u_lo, v_lo), (u_hi, v_hi), tri, det, color in zip(
            lo[keep].astype(int).tolist(), hi[keep].astype(int).tolist(),
            pts[keep].tolist(), det[keep].tolist(), colors[keep]):
        (x0, y0), (x1, y1), (x2, y2) = tri
        # A row of column centres and a column of row centres, broadcast
        # over the rectangle.
        us = np.arange(u_lo, u_hi + 1) + 0.5
        vs = (np.arange(v_lo, v_hi + 1) + 0.5)[:, None]
        w0 = ((y1 - y2) * (us - x2) + (x2 - x1) * (vs - y2)) / det
        w1 = ((y2 - y0) * (us - x2) + (x0 - x2) * (vs - y2)) / det
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        np.copyto(pixel[v_lo:v_hi + 1, u_lo:u_hi + 1], color, where=inside)

    for bbox in bboxes:
        _draw_bbox(img, bbox)
    return img


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


def write_ppm(img: np.ndarray, out: BinaryIO) -> None:
    """Write an (H, W, 3) uint8 image to a binary file as PPM (P6): the
    header, then the image's own buffer, with no copy of it."""
    h, w = img.shape[:2]
    out.write(b"P6\n%d %d\n255\n" % (w, h))
    out.write(np.ascontiguousarray(img).data)
