"""Shared 3D primitives: meshes, box builders, trajectories, occlusion.

World frame convention (used by every module): right-handed, z up,
azimuth measured in the xy-plane counterclockwise from +x, degrees.
"""

from __future__ import annotations

import copy

import numpy as np

#: Self-intersection guard on ray origins, meters.
RAY_EPS = 1e-6

_MIN_TRIANGLE_AREA = 1e-12


def same_point(a, b):
    """``np.allclose`` per point of a and b (shape (..., 3)): the same rule,
    ``|a - b| <= 1e-8 + 1e-5 * |b|``, in every component."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return (np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)).all(axis=-1)


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

    def __len__(self) -> int:
        return self.tris.shape[0]


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


def box_corners(center, size, yaw_deg: float = 0.0) -> np.ndarray:
    """The 8 corners of a box, shape (8, 3), rotated by yaw about the
    vertical axis; unrotated and at the origin they are ``_BOX_CORNERS *
    size`` exactly, sorted by x, then y, then z."""
    return ((_BOX_CORNERS * np.asarray(size, float)) @ rot_z_deg(yaw_deg).T
            + np.asarray(center, float))


def box_mesh(center, size, yaw_deg: float = 0.0, material: str = "metal") -> Mesh:
    """Closed 12-triangle box, rotated by yaw about the vertical axis."""
    size = np.asarray(size, dtype=float)
    if np.any(size <= 0):
        raise ValueError("box size components must be > 0")
    return Mesh(box_corners(center, size, yaw_deg)[np.array(_BOX_FACES)],
                material)


# ---------------------------------------------------------------------------
# Trajectories

class Tracks:
    """Several keyframed position tracks as padded arrays, so that their
    positions at many frames come from one array pass. Each track is a
    ``(frame, (x, y, z))`` tuple per keyframe, frames strictly increasing."""

    def __init__(self, tracks: list[tuple]):
        width = max([2] + [len(t) for t in tracks])
        #: Keyframe frames, padded with inf, and points, shape (U, K[, 3]).
        self.frames = np.full((len(tracks), width), np.inf)
        self.points = np.zeros((len(tracks), width, 3))
        for i, track in enumerate(tracks):
            for j, (frame, point) in enumerate(track):
                self.frames[i, j] = frame
                self.points[i, j] = point
        ue = np.arange(len(tracks))
        last = np.array([len(t) - 1 for t in tracks], dtype=int)
        self._ue = ue
        self._last_end = np.maximum(last, 1)
        self._first = self.frames[:, 0], self.points[:, 0]
        self._last = self.frames[ue, last], self.points[ue, last]

    def at(self, frames) -> np.ndarray:
        """Every track's position at each frame, shape (F, U, 3).

        Linear interpolation in the first keyframe interval with
        ``f0 <= frame <= f1``, clamped to the end keyframes outside them:
        ``(1 - a) * p0 + a * p1`` with ``a = (frame - f0) / (f1 - f0)``, and
        a clamped frame takes its keyframe as given.
        """
        f = np.asarray(frames, float).reshape(-1, 1)
        # The interval's end is the first keyframe >= frame.
        end = (self.frames < f[..., None]).sum(axis=2)
        end = np.minimum(np.maximum(end, 1), self._last_end)
        f0, f1 = self.frames[self._ue, end - 1], self.frames[self._ue, end]
        a = ((f - f0) / (f1 - f0))[..., None]
        pos = (1.0 - a) * self.points[self._ue, end - 1] \
            + a * self.points[self._ue, end]
        (first_f, first_p), (last_f, last_p) = self._first, self._last
        pos = np.where((f >= last_f)[..., None], last_p, pos)
        return np.where((f <= first_f)[..., None], first_p, pos)


# ---------------------------------------------------------------------------
# Ray casting (Moller-Trumbore, vectorized over rays and triangles)

#: Triangles per chunk of the occlusion screen: one box mesh. The kernel's
#: arrays are stored a chunk to a row (``TriangleSet.kernel``), and the
#: screen keeps or drops a chunk whole. It must stay above 1, since
#: ``_hit_ts``'s per-ray product over one row does not round as it does
#: over the full table.
CHUNK = 12

#: Most (segment, chunk) pairs of one ``_hit_ts`` call, which takes the
#: kernel rows of those pairs' chunks, so the kernel's arrays stay a fixed
#: size whatever the number of pairs the screens keep; chosen with
#: ``pipeline.TRUTH_BLOCK``, whose note gives the measurements.
KERNEL_PAIRS = 256

#: Most (segment, chunk) pairs of one ``segments_meet_boxes`` call, whose
#: arrays take about 400 bytes a pair. On the shipped run (64-frame
#: blocks, up to about 2,000 pairs a block; in-process, min of 15-40 runs,
#: three interleaved sets) slices of 256, 1,024 and 4,096 pairs took
#: 11.0-11.6, 10.5-11.2 and 10.7-11.4 ms of occlusion, with a truth-pass
#: working set of 0.81-0.89, 0.89 and 1.22-1.30 MB.
SCREEN_PAIRS = 1024


def segments_meet_boxes(a, b, lo, hi) -> np.ndarray:
    """Whether each segment a[p] -> b[p] meets the box from lo[p] to hi[p]
    (its least and greatest corners; all of shape (P, 3)), given that the
    segment's own bounding box meets that box.

    The box's face normals e_k then separate nothing, so only the axes
    d x e_k, d = b - a, can separate the two (the separating-axis test for
    a segment and a box; the slab test of Kay and Kajiya, "Ray Tracing
    Complex Scenes", SIGGRAPH 1986, decides the same). On axis k the
    segment projects to the one point (w x d)_k, with w = (a + b) -
    (lo + hi), and the box to an interval of radius r_{k+1} |d_{k+2}| +
    r_{k+2} |d_{k+1}|, with r = hi - lo, both doubled. Nothing is divided:
    an axis whose d is parallel to e_k is zero and separates nothing, and
    a component of d that is +-0.0 only drops its terms.
    """
    # Rows w, r, d and |d|, axis-major, each with its axes 0 and 1 again
    # after axis 2, so that rows k+1 and k+2 of every k are slices.
    x = np.empty((4, 5, len(a)))
    np.subtract(a + b, lo + hi, out=x[0, :3].T)
    np.subtract(hi, lo, out=x[1, :3].T)
    np.subtract(b, a, out=x[2, :3].T)
    np.abs(x[2, :3], out=x[3, :3])
    x[:, 3:] = x[:, :2]
    p = x[:2, 1:4] * x[2:, 2:5]  # w_{k+1} d_{k+2}, r_{k+1} |d_{k+2}|
    q = x[:2, 2:5] * x[2:, 1:4]  # w_{k+2} d_{k+1}, r_{k+2} |d_{k+1}|
    return (np.abs(p[0] - q[0]) <= p[1] + q[1]).all(axis=0)


def _hit_ts(kernel, origins, directions):
    """Hit distances of rays against every triangle of their row.

    ``kernel`` has shape (K, 3, T, 3), v0, e1 and e2 of a row of T
    triangles each; ``origins`` and unit ``directions`` have shape
    (K, R, 3), ray row k against triangle row k. Returns the (K, R, T)
    distances along each ray, -inf where it misses; (R, 3) rays are
    tested against every row. Each value depends only on its own ray
    and triangle. ``TriangleSet.segments_occluded`` calls it on the P
    kernel rows of the chunks of P (segment, chunk) pairs, one ray each:
    (P, 1, 3) rays against (P, CHUNK, 3) triangles.

    Every value is bit-identical to the one-ray form of the test
    (``np.cross``, then ``np.einsum("ij,ij->i")`` and ``np.dot`` over
    (T, 3) arrays): the cross products use ``np.cross``'s formula, the
    einsum dot products add their terms in the order einsum uses for
    three terms, (0 + 2) + 1 (numpy 2.4, x86-64), and ``np.matmul``
    makes the same BLAS call per ray that ``np.dot`` makes, fused
    multiply-adds included. That call gave the same bits over every
    run of 2 to 40 contiguous triangle rows tried, so a chunk's values
    equal the full table's; over 1 row it rounds about a fifth of its
    values differently, hence CHUNK > 1. Sums and differences are built
    in place, which keeps few ray-by-triangle arrays alive and rounds
    as the plain expressions do.
    """
    # Each row broadcasts over its own rays: (K, 1, T).
    v0, e1, e2 = (kernel[..., k, None, :, :] for k in range(3))
    d0, d1, d2 = (directions[..., k, None] for k in range(3))
    a0, a1, a2 = (e1[..., k] for k in range(3))
    b0, b1, b2 = (e2[..., k] for k in range(3))
    p0 = d1 * b2
    p0 -= d2 * b1
    p1 = d2 * b0
    p1 -= d0 * b2
    p2 = d0 * b1
    p2 -= d1 * b0
    det = a0 * p0
    det += a2 * p2
    det += a1 * p1
    ok = np.abs(det) > 1e-14
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=ok)
    del det
    s0, s1, s2 = (origins[..., k, None] - v0[..., k] for k in range(3))
    u = s0 * p0
    u += s2 * p2
    u += s1 * p1
    u *= inv
    del p0, p1, p2
    q = np.empty(u.shape + (3,))
    np.multiply(s1, a2, out=q[..., 0])
    q[..., 0] -= s2 * a1
    np.multiply(s2, a0, out=q[..., 1])
    q[..., 1] -= s0 * a2
    np.multiply(s0, a1, out=q[..., 2])
    q[..., 2] -= s1 * a0
    del s0, s1, s2
    v = np.matmul(q, directions[..., :, None])[..., 0]
    v *= inv
    t = b0 * q[..., 0]
    t += b2 * q[..., 2]
    t += b1 * q[..., 1]
    t *= inv
    del q
    ok &= u >= 0.0
    ok &= v >= 0.0
    u += v
    ok &= u <= 1.0
    t[~ok] = -np.inf
    return t


class TriangleSet:
    """Occluder table: the triangles of several named meshes, one owner
    index per triangle, and each owner's name and material.

    ``tris`` holds the table's own triangles, shape (T, 3, 3), read-only;
    the debug render draws them. ``chunks`` cuts each owner's triangles
    into runs of CHUNK, which the occlusion screen keeps or drops as a
    whole. ``kernel`` holds the Moller-Trumbore arrays v0, e1 and e2 of one
    chunk a row, shape (K, 3, CHUNK, 3), and ``box`` each row's box, its
    least and greatest vertex coordinates, shape (K, 2, 3); the occlusion
    screen reads them. ``rows`` gives the row of each chunk, shape (C,). A
    stack of tables (see ``moved``) keeps its unmoved table's ``tris``, has
    a leading axis of one table per frame in ``rows``, shape (F, C), and
    stores the rows of the chunks it does not move once for all its
    frames.
    """

    def __init__(self, meshes: list[tuple[str, Mesh]]):
        self.names = [name for name, _ in meshes]
        self.materials = [m.material for _, m in meshes]
        counts = np.array([len(m) for _, m in meshes], dtype=int)
        self.owners = np.repeat(np.arange(len(meshes)), counts)
        ends = np.cumsum(counts)
        #: Triangle numbers of each chunk, shape (C, CHUNK). An owner's last
        #: short run repeats its last triangle, which gives the same hit
        #: and leaves the chunk's box as it is.
        self.chunks = np.concatenate([np.zeros((0, CHUNK), int)] + [
            np.minimum(np.arange(lo, hi + -(hi - lo) % CHUNK), hi - 1)
            .reshape(-1, CHUNK) for lo, hi in zip(ends - counts, ends)])
        #: Owner of each chunk, shape (C,).
        self.chunk_owner = self.owners[self.chunks[:, 0]]
        self.tris = np.concatenate([np.empty((0, 3, 3))]
                                   + [m.tris for _, m in meshes])
        self.tris.setflags(write=False)
        corners = self.tris[self.chunks]
        # (chunk, corner, triangle, xyz), then each edge from its corner.
        self.kernel = corners.transpose(0, 2, 1, 3).copy()
        self.kernel[:, 1:] -= self.kernel[:, :1]
        corners = corners.reshape(-1, 3 * CHUNK, 3)
        self.box = np.stack([corners.min(axis=1), corners.max(axis=1)],
                            axis=1)
        self.rows = np.arange(len(self.chunks))

    def moved(self, first: int, offsets) -> "TriangleSet":
        """A stack of F tables, table f this one with mesh ``first + i``
        translated by ``offsets[f, i]`` (offsets of shape (F, M, 3)), made
        in one pass: its rows are this table's, then F rows for each moved
        chunk.

        A moved triangle is ``tri + offset``, and its edges are taken from
        the moved triangle, since ``(a + o) - (b + o)`` need not equal
        ``a - b`` in the last bit. A moved chunk's box is its box plus the
        offset, which is the box of its moved vertices exactly, as
        rounding is monotone: min fl(v + o) = fl(min v + o).
        """
        offsets = np.asarray(offsets, float)
        frames, moving, _ = offsets.shape
        c_lo, c_hi = np.searchsorted(self.chunk_owner,
                                     [first, first + moving])
        shift = offsets[:, self.chunk_owner[c_lo:c_hi] - first, None, None]
        n, moved = len(self.kernel), frames * (c_hi - c_lo)
        table = copy.copy(self)
        table.kernel = np.empty((n + moved, 3, CHUNK, 3))
        table.kernel[:n] = self.kernel
        part = table.kernel[n:].reshape(frames, c_hi - c_lo, 3, CHUNK, 3)
        np.add(self.tris[self.chunks[c_lo:c_hi]].transpose(0, 2, 1, 3),
               shift, out=part)
        part[..., 1:, :, :] -= part[..., :1, :, :]
        table.box = np.concatenate([self.box, (
            self.box[self.rows[c_lo:c_hi]] + shift[..., 0, :, :]
        ).reshape(-1, 2, 3)])
        table.rows = np.empty((frames,) + self.rows.shape, int)
        table.rows[...] = self.rows
        table.rows[:, c_lo:c_hi] = n + np.arange(moved).reshape(
            frames, c_hi - c_lo)
        return table

    def segments_occluded(self, a, b, ignore, table
                          ) -> tuple[np.ndarray, int]:
        """Whether each segment a[i] -> b[i] is blocked, shape (S,), and
        the number of (segment, chunk) pairs the kernel tested.

        This is a stack of tables (see ``moved``); segment s is tested
        against table ``table[s]``. ``ignore``, a bool mask that broadcasts
        to (S, M) for the table's M owners, is True where owner m never
        blocks segment s (such as the body of the segment's own UE). A
        segment no longer than 2 * RAY_EPS is never blocked; otherwise only
        hits with RAY_EPS < t < length - RAY_EPS count, so segments ending
        on a surface are not blocked by it.

        Two screens pick the (segment, chunk) pairs the kernel tests, both
        against the chunk's box in its table (``box``, made with the table)
        grown by RAY_EPS on every side. The first keeps the pairs of a live
        segment and a chunk of an owner it does not ignore whose boxes
        meet: the segment's bounding box and the grown box. The second
        keeps those whose segment itself meets the grown box
        (``segments_meet_boxes``, in slices of at most SCREEN_PAIRS), which
        drops the segments that pass a box's corner or edge inside their
        own bounding box. A segment that meets a triangle meets its box,
        and the margin takes up the rounding of a hit found at a
        triangle's edge, so neither screen drops a hit of a well-posed
        ray; a segment farther than the margin from a chunk's box cannot
        meet it, whatever the kernel's rounding says for a ray that nearly
        lies in a triangle's plane. The kept pairs go through the kernel
        in slices of at most KERNEL_PAIRS, one ``_hit_ts`` call per slice
        on the kernel rows of its pairs' chunks; each pair's values are its
        own, so the slicing changes no verdict.
        """
        a = np.asarray(a, float).reshape(-1, 3)
        b = np.asarray(b, float).reshape(-1, 3)
        rows = self.rows[np.asarray(table, int)]  # (S, C)
        d = b - a
        length = norms(d)
        ignore = np.broadcast_to(ignore, (len(a), len(self.names)))
        keep = (length > 2 * RAY_EPS)[:, None] & ~ignore[:, self.chunk_owner]
        # One axis at a time, so no (S, C, 3) box gather is made.
        lo, hi = (self.box[:, 0] - RAY_EPS).T, (self.box[:, 1] + RAY_EPS).T
        for low, high, lo_k, hi_k in zip(np.minimum(a, b).T,
                                         np.maximum(a, b).T, lo, hi):
            keep &= low[:, None] <= hi_k.take(rows)
            keep &= high[:, None] >= lo_k.take(rows)
        seg, chunk = np.nonzero(keep)
        rows = rows[seg, chunk]
        meets = np.empty(len(seg), dtype=bool)
        for start in range(0, len(seg), SCREEN_PAIRS):
            part = slice(start, start + SCREEN_PAIRS)
            meets[part] = segments_meet_boxes(
                a[seg[part]], b[seg[part]], lo[:, rows[part]].T,
                hi[:, rows[part]].T)
        seg, rows = seg[meets], rows[meets]
        blocked = np.zeros(len(a), dtype=bool)
        for start in range(0, len(seg), KERNEL_PAIRS):
            part = seg[start:start + KERNEL_PAIRS]
            ts = _hit_ts(self.kernel[rows[start:start + KERNEL_PAIRS]],
                         a[part, None],
                         (d[part] / length[part, None])[:, None])[:, 0]
            hit = (ts > RAY_EPS) & (ts < (length[part] - RAY_EPS)[:, None])
            blocked[part[hit.any(axis=1)]] = True
        return blocked, len(seg)
