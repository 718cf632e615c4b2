"""Shared 3D primitives: meshes, box builders, trajectories, occlusion.

World frame convention (used by every module): right-handed, z up,
azimuth measured in the xy-plane counterclockwise from +x, degrees.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

#: Self-intersection guard on ray origins, meters.
RAY_EPS = 1e-6

_MIN_TRIANGLE_AREA = 1e-12


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def normalize(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def same_point(a, b) -> bool:
    """``np.allclose(a, b)`` for two points, without its per-call cost.

    Same rule per component: ``|a - b| <= 1e-8 + 1e-5 * |b|``.
    """
    return all(abs(x - y) <= 1e-8 + 1e-5 * abs(y)
               for x, y in zip(np.asarray(a, float).tolist(),
                               np.asarray(b, float).tolist()))


def rot_z_deg(yaw_deg: float) -> np.ndarray:
    c = np.cos(np.radians(yaw_deg))
    s = np.sin(np.radians(yaw_deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rowdot(a, b) -> np.ndarray:
    """``np.dot`` of each pair of rows of a and b (shape (..., 3)), bitwise.

    ``np.matmul`` of a (1, 3) by a (3, 1) block makes the same BLAS dot call
    that ``np.dot`` makes for two vectors, so every value equals the
    one-vector form; ``a @ b`` over whole arrays is a matrix-vector call,
    which may round differently.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def norms(d) -> np.ndarray:
    """``np.linalg.norm`` of each row of d (shape (..., 3)), bit for bit."""
    return np.sqrt(rowdot(d, d))


def azimuth_deg(d):
    """Azimuth in [0, 360) of each direction d (shape (..., 3))."""
    d = np.asarray(d, float)
    return np.degrees(np.arctan2(d[..., 1], d[..., 0])) % 360.0


def elevation_deg(d):
    """Elevation of each direction d (shape (..., 3)), degrees."""
    d = np.asarray(d, float)
    return np.degrees(np.arcsin(np.clip(d[..., 2] / norms(d), -1.0, 1.0)))


class Mesh:
    """Immutable triangle soup with a single propagation material."""

    def __init__(self, tris, material: str = "metal", check: bool = True):
        tris = np.asarray(tris, dtype=float).reshape(-1, 3, 3)
        if tris.shape[0] == 0:
            raise ValueError("mesh must contain at least one triangle")
        if not np.all(np.isfinite(tris)):
            raise ValueError("mesh vertices must be finite")
        if check:
            areas = _tri_areas(tris)
            if np.any(areas <= _MIN_TRIANGLE_AREA):
                raise ValueError("degenerate triangle (area <= 1e-12 m^2)")
        self.tris = tris
        self.tris.setflags(write=False)
        self.material = material
        self._vertices: np.ndarray | None = None

    def __len__(self) -> int:
        return self.tris.shape[0]

    def vertices(self) -> np.ndarray:
        """Unique vertices, shape (V, 3), read-only; computed once."""
        if self._vertices is None:
            self._vertices = np.unique(self.tris.reshape(-1, 3), axis=0)
            self._vertices.setflags(write=False)
        return self._vertices

    def areas(self) -> np.ndarray:
        return _tri_areas(self.tris)


def _tri_areas(tris: np.ndarray) -> np.ndarray:
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


_BOX_CORNERS = np.array(
    [[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)]
)

# Two CCW-wound (outward-facing) triangles per face, indices into _BOX_CORNERS.
_BOX_FACES = [
    (0, 3, 2), (0, 1, 3),  # -x
    (4, 6, 7), (4, 7, 5),  # +x
    (0, 5, 1), (0, 4, 5),  # -y
    (2, 7, 6), (2, 3, 7),  # +y
    (0, 2, 6), (0, 6, 4),  # -z
    (1, 7, 3), (1, 5, 7),  # +z
]


def box_mesh(center, size, yaw_deg: float = 0.0, material: str = "metal") -> Mesh:
    """Closed 12-triangle box, rotated by yaw about the vertical axis."""
    size = np.asarray(size, dtype=float)
    if np.any(size <= 0):
        raise ValueError("box size components must be > 0")
    corners = (_BOX_CORNERS * size) @ rot_z_deg(yaw_deg).T + np.asarray(center, float)
    tris = corners[np.array(_BOX_FACES)]
    return Mesh(tris, material)


# ---------------------------------------------------------------------------
# Trajectories

@dataclass(frozen=True)
class Trajectory:
    """Keyframed position track; frame indices strictly increasing."""

    keyframes: tuple[tuple[int, tuple[float, float, float]], ...]

    def __post_init__(self):
        if not self.keyframes:
            raise ValueError("trajectory requires at least one keyframe")
        frames = [f for f, _ in self.keyframes]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("keyframe frames must be strictly increasing")


def interpolate_position(traj: Trajectory, frame: float) -> np.ndarray:
    """Linear interpolation between bracketing keyframes, clamped outside."""
    keys = traj.keyframes
    if frame <= keys[0][0]:
        return vec3(*keys[0][1])
    if frame >= keys[-1][0]:
        return vec3(*keys[-1][1])
    for (f0, p0), (f1, p1) in zip(keys, keys[1:]):
        if f0 <= frame <= f1:
            a = (frame - f0) / (f1 - f0)
            return (1.0 - a) * vec3(*p0) + a * vec3(*p1)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Ray casting (Moller-Trumbore, vectorized over rays and triangles)

class TriangleSet:
    """Occluder table: the triangles of several named meshes, one owner
    index per triangle, and each owner's name and material.

    ``tris`` has shape (T, 3, 3); ``v0``, ``e1`` and ``e2`` are the
    Moller-Trumbore arrays derived from it.
    """

    def __init__(self, meshes: list[tuple[str, Mesh]]):
        self.names = [name for name, _ in meshes]
        self.materials = [m.material for _, m in meshes]
        self.owners = np.repeat(np.arange(len(meshes)),
                                [len(m) for _, m in meshes])
        self._place(np.concatenate([np.empty((0, 3, 3))]
                                   + [m.tris for _, m in meshes]))

    def _place(self, tris: np.ndarray) -> None:
        """Take ``tris`` as the table's triangles and derive the kernel's
        arrays from them."""
        tris.setflags(write=False)
        self.tris = tris
        self.v0 = tris[:, 0]
        self.e1 = tris[:, 1] - tris[:, 0]
        self.e2 = tris[:, 2] - tris[:, 0]

    def moved(self, first: int, offsets) -> "TriangleSet":
        """This table with mesh ``first + i`` translated by ``offsets[i]``.

        A moved triangle is ``tri + offset``, and its edges are taken from
        the moved triangle, since ``(a + o) - (b + o)`` need not equal
        ``a - b`` in the last bit.
        """
        offsets = np.asarray(offsets, float).reshape(-1, 3)
        lo, hi = np.searchsorted(self.owners, [first, first + len(offsets)])
        tris = self.tris.copy()
        tris[lo:hi] += offsets[self.owners[lo:hi] - first, None]
        table = copy.copy(self)
        table._place(tris)
        return table

    def owned_by(self, names) -> np.ndarray:
        """Bool (T,): which triangles belong to a mesh named in ``names``."""
        return np.isin(self.owners, [i for i, name in enumerate(self.names)
                                     if name in names])

    def _hit_ts(self, origins, directions):
        """Hit distances of S rays against every triangle.

        ``origins`` and unit ``directions`` have shape (S, 3). Returns the
        (S, T) distances along each ray, -inf where it misses. Each value
        depends only on its own ray and triangle.

        Every value is bit-identical to the one-ray form of the test
        (``np.cross``, then ``np.einsum("ij,ij->i")`` and ``np.dot`` over
        (T, 3) arrays): the cross products use ``np.cross``'s formula, the
        einsum dot products add their terms in the order einsum uses for
        three terms, (0 + 2) + 1 (numpy 2.4, x86-64), and ``np.matmul``
        makes the same BLAS call per ray that ``np.dot`` makes, fused
        multiply-adds included.
        """
        v0, e1, e2 = self.v0, self.e1, self.e2
        d0, d1, d2 = (directions[:, k, None] for k in range(3))
        a0, a1, a2 = e1.T
        b0, b1, b2 = e2.T
        p0 = d1 * b2 - d2 * b1
        p1 = d2 * b0 - d0 * b2
        p2 = d0 * b1 - d1 * b0
        det = a0 * p0 + a2 * p2 + a1 * p1
        ok = np.abs(det) > 1e-14
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        s0, s1, s2 = (origins[:, k, None] - v0[:, k] for k in range(3))
        u = (s0 * p0 + s2 * p2 + s1 * p1) * inv
        q = np.stack([s1 * a2 - s2 * a1, s2 * a0 - s0 * a2,
                      s0 * a1 - s1 * a0], axis=-1)
        v = np.matmul(q, directions[:, :, None])[..., 0] * inv
        t = (b0 * q[..., 0] + b2 * q[..., 2] + b1 * q[..., 1]) * inv
        ok &= (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
        return np.where(ok, t, -np.inf)

    def segments_occluded(self, a, b, ignore) -> np.ndarray:
        """Whether each segment a[i] -> b[i] is blocked, shape (S,).

        ``ignore``, a bool mask that broadcasts to (S, T), is True where
        triangle t never blocks segment s (the bodies of the segment's own
        UE; see ``owned_by``). A segment no longer than 2 * RAY_EPS is never
        blocked; otherwise only hits with RAY_EPS < t < length - RAY_EPS
        count, so segments ending on a surface are not blocked by it. All
        segments are tested in one kernel pass.
        """
        a = np.asarray(a, float).reshape(-1, 3)
        d = np.asarray(b, float).reshape(-1, 3) - a
        length = norms(d)
        blocked = np.zeros(len(a), dtype=bool)
        live = length > 2 * RAY_EPS
        if len(self.v0) and np.any(live):
            length = length[live]
            ts = self._hit_ts(a[live], d[live] / length[:, None])
            hit = (ts > RAY_EPS) & (ts < (length - RAY_EPS)[:, None])
            hit &= ~np.broadcast_to(ignore, (len(a), len(self.v0)))[live]
            blocked[live] = hit.any(axis=1)
        return blocked

    def segment_occluded(self, a, b, exclude=()) -> bool:
        return bool(self.segments_occluded(a, b, self.owned_by(exclude))[0])
