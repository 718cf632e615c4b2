"""Specular multipath tracing between a transmitter and its receivers.

Line-of-sight plus image-method reflections of order 1..max_reflections
over the planar rectangular faces of box reflectors. Every candidate path
is validated geometrically (reflection points must fall inside their
faces, both neighbors of a bounce must lie on the outward side), every
receiver of a frame and every reflection order at once, and a candidate is
dropped at the first check it fails. Then the segments of the LOS paths
and of every valid chain, of all orders, are tested for occlusion by scene
geometry in one batched pass. A path with any blocked segment is dropped
outright (no diffraction, scattering or penetration); an empty result
means outage.

Candidate face sequences come from a prefix table of the transmitter,
built once by its caller: a beam tree of image sources (Heckbert and
Hanrahan, "Beam tracing polygonal objects", 1984; Funkhouser et al.,
1998). Order-k+1 rows only extend order-k rows that survived, and an
extension by face g is dropped when g is coplanar with the previous face f
or the current image of tx is not strictly in front of g
(``dot(image - c_g, n_g) > 0``). This drops no valid chain: on a valid
chain the image before bounce k lies on the ray from p_k back through
p_{k-1}, at least |p_k - p_{k-1}| away, so its distance in front of face k
is at least that of p_{k-1}, which the front-side check already requires
to exceed ``RAY_EPS``.

From order 2 on, g must also meet the row's beam: the pyramid whose apex
is the row's current image, which is strictly behind f, and whose four
side planes pass through the edges of f's rectangle. g is dropped when its
four corners all lie outside one side plane by more than a margin. On a
valid chain, bounce p_{k+1} lies on the ray from the image through p_k,
and p_k lies in f's rectangle, so p_{k+1}, a point of g, lies in the
pyramid. The margin covers ``_CONTAIN_TOL``, which lets a bounce sit up to
that far outside its rectangle along each axis: p_k may then lie up to
``_CONTAIN_TOL`` outside a side plane, which the ray from the image
magnifies by |p_{k+1} - image| / |p_k - image|, at most reach / behind
(reach, the farthest corner of g from the image; behind, the image's
distance behind f), and p_{k+1} may lie up to sqrt(2) ``_CONTAIN_TOL`` off
g. The margin, 2 ``_CONTAIN_TOL`` (1 + reach / behind), covers both with
room for rounding. Rows stay in lexicographic order, so ties in the
(length, bounces) sort are unchanged, and every chain that survives meets
the same operations on the same operands.

The front-side rule also prunes from the receiver's end. A valid chain
reversed is a valid chain from the receiver (reciprocity), so the argument
above, read from the receiver, says that the receiver is strictly in front
of the chain's last face and, from order 2 on, that its image through the
last face is strictly in front of the face before it. A (receiver, prefix
row) pair that fails either test is dropped before backtracking.
Backtracking then runs from the receiver's end in one loop over bounce
levels for all orders together: level j finds the j-th-last bounce of
every pair of order j or more, and the pairs of order j finish at level j
with the check on tx. Each surviving pair meets the same operations on the
same operands as when each order was backtracked alone, so every point
keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (RAY_EPS, Mesh, TriangleSet, azimuth_deg, elevation_deg,
                       norms, rot_z_deg)

#: Speed of light, m/s.
C_LIGHT = 299_792_458.0

_CONTAIN_TOL = 1e-9


@dataclass(frozen=True)
class PathComponent:
    """One propagation path between transmitter and receiver."""

    gain: complex
    delay_s: float
    aod_az_deg: float
    aod_el_deg: float
    aoa_az_deg: float
    aoa_el_deg: float
    bounces: int
    length_m: float

    @property
    def gain_db(self) -> float:
        return 20.0 * math.log10(abs(self.gain))

    @property
    def phase_deg(self) -> float:
        return math.degrees(math.atan2(self.gain.imag, self.gain.real))

    @property
    def delay_ns(self) -> float:
        return self.delay_s * 1e9


def path_components(points: np.ndarray, amps: np.ndarray,
                    carrier_ghz: float) -> list[PathComponent]:
    """Gain, delay and angles of n polyline paths with the same bounce count.

    ``points`` has shape (bounces + 2, n, 3), tx to rx, and ``amps`` shape
    (n, bounces), the reflection amplitude of each bounce. Amplitude is
    lambda/(4*pi*L) times the product of the reflection amplitudes; phase
    is -2*pi*L/lambda. Each path's values equal those of the one-path
    scalar form: ``norms`` is ``np.linalg.norm`` per segment, the segment
    lengths are summed left to right, numpy's array angles equal its
    scalar ones, and the phase stays on ``math.cos``/``math.sin``.
    """
    segments = points[1:] - points[:-1]
    seg_lengths = norms(segments)
    if np.any(seg_lengths <= 0.0):
        raise ValueError("degenerate zero-length path segment")
    length = np.add.accumulate(seg_lengths, axis=0)[-1]
    lam = C_LIGHT / (carrier_ghz * 1e9)
    amp = lam / (4.0 * math.pi * length)
    for r in amps.T:
        amp = amp * r
    phase = -2.0 * math.pi * length / lam
    # Departure directions (first segments), then arrival directions (rx
    # towards the point before it). The last segment negated would turn an
    # exact 0 into -0 and give a vertical arrival the opposite azimuth of
    # the reverse path's departure.
    n = len(length)
    ends = np.concatenate([segments[0], points[-2] - points[-1]])
    az = azimuth_deg(ends).tolist()
    el = elevation_deg(ends).tolist()
    # After the phase, the columns are PathComponent's fields after gain.
    columns = zip(amp.tolist(), phase.tolist(), (length / C_LIGHT).tolist(),
                  az[:n], el[:n], az[n:], el[n:], [points.shape[0] - 2] * n,
                  length.tolist())
    return [PathComponent(a * complex(math.cos(ph), math.sin(ph)), *fields)
            for a, ph, *fields in columns]


class _Reflectors:
    """The faces of box reflectors as arrays, shared by every frame's
    snapshot (``Simulator.frame_scene``).

    ``boxes`` lists each box as (center, size, yaw_deg, material). A box
    gives six outward-facing rectangles, its -a then +a face for each axis
    a of the yaw-rotated box; face f has a center, a unit outward normal,
    in-plane unit axes ``u`` and ``v`` with half sizes ``hu`` and ``hv``,
    and the reflection amplitude of its material.
    """

    def __init__(self, boxes, materials: dict[str, float]):
        center, normal, u, v, hu, hv, amp = ([] for _ in range(7))
        for box_center, size, yaw_deg, material in boxes:
            box_center = np.asarray(box_center, float)
            half = np.asarray(size, float) / 2.0
            rot = rot_z_deg(yaw_deg)
            axes = [rot @ e for e in np.eye(3)]
            for axis in range(3):
                a, b = (k for k in range(3) if k != axis)
                for sign in (-1.0, 1.0):
                    n = axes[axis] * sign
                    center.append(box_center + n * half[axis])
                    normal.append(n)
                    u.append(axes[a])
                    v.append(axes[b])
                    hu.append(half[a])
                    hv.append(half[b])
                    amp.append(materials[material])
        self.center, self.normal, self.u, self.v = (
            np.array(x, float).reshape(-1, 3) for x in (center, normal, u, v))
        self.hu, self.hv, self.amp = (np.array(x, float)
                                      for x in (hu, hv, amp))
        # Each face's plane is dot(x, normal) = offset. Coplanar face pairs
        # can never form consecutive bounces.
        nd = self.normal @ self.normal.T
        off = self.offset = np.einsum("ij,ij->i", self.center, self.normal)
        self.coplanar = (np.abs(np.abs(nd) - 1.0) < 1e-12) & (
            np.abs(off[:, None] * nd - off[None, :]) < 1e-9
        )
        # Each face's four corners, shape (F, 4, 3), counterclockwise seen
        # from its front: v is turned where u x v points behind the face.
        turn = np.sign(np.einsum("ij,ij->i", np.cross(self.u, self.v),
                                 self.normal))
        du = self.hu[:, None] * self.u
        dv = (self.hv * turn)[:, None] * self.v
        self.corners = self.center[:, None] + np.stack(
            [du + dv, dv - du, -du - dv, du - dv], axis=1)


def _ahead(refl: _Reflectors, images: np.ndarray, last: np.ndarray | None
           ) -> np.ndarray:
    """(N, F) bool: which faces may take the bounce after each of N images
    (shape (N, 3)): the image is strictly in front of the face, and the
    face is not coplanar with the image's last face (``last``, shape (N,);
    None for images that are their own source)."""
    ok = images @ refl.normal.T - refl.offset > 0.0
    if last is not None:
        ok &= ~refl.coplanar[last]
    return ok


def _in_beam(refl: _Reflectors, apex: np.ndarray, last: np.ndarray,
             rows: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(P,) bool: which of P (row, face) pairs may take the next bounce by
    the beam test. Row i's beam is the pyramid from ``apex[i]`` (its current
    image, strictly behind face ``last[i]``) through the rectangle of
    ``last[i]``; the pair (``rows[p]``, ``faces[p]``) is dropped when the
    face's four corners all lie outside one side plane of that pyramid by
    more than the margin of the module docstring."""
    # Each row's four side planes, by their inward unit normals: corners go
    # counterclockwise seen from the front, and the apex is behind.
    edges = refl.corners[last] - apex[:, None]
    side = np.cross(edges, edges[:, [1, 2, 3, 0]])
    side /= np.sqrt(np.einsum("ijk,ijk->ij", side, side))[..., None]
    behind = refl.offset[last] - np.einsum("ij,ij->i", apex,
                                           refl.normal[last])
    # x[p, c]: corner c of the pair's face from its row's apex.
    x = refl.corners[faces] - apex[rows, None]
    # How far the face reaches into the beam past its tightest side plane:
    # -gap is how far all four corners lie outside it, when gap < 0.
    gap = (x @ side[rows].swapaxes(1, 2)).max(axis=1).min(axis=1)
    reach = np.sqrt(np.einsum("ijk,ijk->ij", x, x).max(axis=1))
    # gap < -2 tol (1 + reach / behind), times behind, which is positive:
    # the apex mirrors an image that ``_ahead`` put in front of the face.
    h = behind[rows]
    return gap * h >= -2.0 * _CONTAIN_TOL * (h + reach)


def _image_rows(refl: _Reflectors, sources: np.ndarray, max_order: int
                ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Face sequences that can start a valid chain from each of the N
    ``sources`` (shape (N, 3)), per order.

    Entry k-1 holds the order-k rows' source index (S,), face sequences
    (S, k) and images of their source (k+1, S, 3), image 0 being the
    source, in lexicographic (source, faces) order. Each order extends only
    the rows of the order below, by the faces that ``_ahead`` keeps and,
    from order 2 on, that the row's beam reaches (``_in_beam``); see the
    module docstring for why this keeps every valid chain.
    """
    src = np.arange(len(sources))
    seqs = np.zeros((len(sources), 0), dtype=int)
    images = sources[None]
    table = []
    for k in range(max_order):
        face = seqs[:, -1] if k else None
        rows, f = np.nonzero(_ahead(refl, images[-1], face))
        if k:
            beam = _in_beam(refl, images[-1], face, rows, f)
            rows, f = rows[beam], f[beam]
        n = refl.normal[f]
        last = images[-1, rows]
        d = np.einsum("ij,ij->i", last - refl.center[f], n)
        src = src[rows]
        seqs = np.concatenate([seqs[rows], f[:, None]], axis=1)
        images = np.concatenate(
            [images[:, rows], (last - 2.0 * d[:, None] * n)[None]])
        table.append((src, seqs, images))
    return table


class PrefixTable(list):
    """The image-source table of one tx: entry k-1 holds the order-k face
    sequences, shape (S, k), in lexicographic order, and their images of
    tx, shape (k+1, S, 3), image 0 being tx. ``prefix_table`` keeps only
    the rows that the front-side and beam tests of ``_image_rows`` keep.

    ``rows`` holds the same rows as ``Candidates`` reads them, made on its
    first read, so a table built once serves every receiver set.
    """

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, faces, images): every order's rows in one table, order
        k's rows from ``starts[k-1]`` to ``starts[k]``, each row's faces and
        tx images from the receiver's end: column j-1 of ``faces`` (shape
        (R, top)) and image j-1 of ``images`` (shape (top, R, 3)) belong to
        the j-th-last bounce. All three are read-only."""
        top = len(self)
        starts = np.cumsum([0] + [len(seqs) for seqs, _ in self])
        faces = np.zeros((starts[-1], top), dtype=int)
        images = np.zeros((top, starts[-1], 3))
        for k, (seqs, imgs) in enumerate(self, 1):
            faces[starts[k - 1]:starts[k], :k] = seqs[:, ::-1]
            images[:k, starts[k - 1]:starts[k]] = imgs[k:0:-1]
        for table in (starts, faces, images):
            table.setflags(write=False)
        return starts, faces, images


def prefix_table(refl: _Reflectors, tx: np.ndarray, max_order: int
                 ) -> PrefixTable:
    """Face sequences that can start a valid chain from tx, per order: the
    rows of ``_image_rows`` of the one source tx."""
    return PrefixTable((seqs, images) for _, seqs, images
                       in _image_rows(refl, np.reshape(tx, (1, 3)),
                                      max_order))


class SceneGeometry:
    """Occluder table plus the faces of box reflectors, each box given as
    (center, size, yaw_deg, material)."""

    def __init__(self, meshes: list[tuple[str, Mesh]], boxes,
                 materials: dict[str, float]):
        self.tset = TriangleSet(meshes)
        self.reflectors = _Reflectors(boxes, materials)


def _pairs(refl: _Reflectors, rxs: np.ndarray,
           prefixes: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """The (receiver, prefix row) pairs of each order that the receiver-side
    screen keeps, shape (n, 2), receiver by receiver and in prefix-row
    order.

    A pair is kept only if the receiver is strictly in front of the row's
    last face and, from order 2 on, the receiver's image through that face
    (from ``_image_rows`` of the receivers) may take a bounce off the face
    before it (``_ahead``); see the module docstring. Screening by deeper
    receiver tables cost more each frame than it saved.
    """
    nfaces = len(refl.center)
    (src, faces, images), = _image_rows(refl, rxs, 1)
    f = faces[:, 0]
    # ahead1[r, f]: receiver r is strictly in front of face f.
    # ahead2[r, f, g]: so is r's image through f in front of face g, and g
    # is not coplanar with f.
    ahead1 = np.zeros((len(rxs), nfaces), dtype=bool)
    ahead1[src, f] = True
    ahead2 = np.zeros((len(rxs), nfaces, nfaces), dtype=bool)
    ahead2[src, f] = _ahead(refl, images[-1], f)
    return [np.argwhere(ahead2[:, seqs[:, -1], seqs[:, -2]] if k > 1
                        else ahead1[:, seqs[:, -1]])
            for k, (seqs, _) in enumerate(prefixes, 1)]


class Candidates:
    """Every receiver's LOS segment and geometrically valid chains from one
    tx, over the reflection orders of ``prefixes`` (the ``prefix_table`` of
    tx, whose backtracking rows are made once per table), before occlusion.

    Every receiver is paired with every prefix row of every order, and the
    receiver-side screen (``_pairs``) drops the pairs whose last bounces
    cannot end at the receiver; ``tested`` counts the pairs left, per
    order. Vectorized image-method backtracking then runs every order in
    one loop from the receiver's end: level j finds the j-th-last bounce of
    every pair of order >= j, and the pairs of order j end there with the
    check on tx. A pair is dropped as soon as one of its checks fails: each
    bounce's point must fall inside its face, and both neighbors of a
    bounce must lie on the face's outward side. Occlusion is not tested
    here.

    ``segments`` lists the rows an occlusion pass must test; ``paths``
    keeps the paths whose rows are all unblocked.
    """

    def __init__(self, refl: _Reflectors, tx, rxs, prefixes: PrefixTable):
        self.refl = refl
        tx = np.asarray(tx, float)
        rxs = np.asarray(rxs, float).reshape(-1, 3)
        self.rxs = rxs
        los = np.empty((2,) + rxs.shape)
        los[0] = tx
        los[1] = rxs
        # (receiver, points, face sequences) of the chains of each order;
        # the LOS segments are the chains of order 0.
        self.chains = [(np.arange(len(rxs)), los,
                        np.zeros((len(rxs), 0), dtype=int))]
        pairs = _pairs(refl, rxs, prefixes)
        self.tested = [len(p) for p in pairs]
        top = len(prefixes)
        starts, faces, images = prefixes.rows
        # Every pair of every order, in order of (order, receiver, prefix
        # row), so that the pairs of order j lead the live pairs at level j.
        order = np.repeat(np.arange(1, top + 1), self.tested)
        rec, row = np.concatenate([np.zeros((0, 2), dtype=int), *pairs]).T
        table_row = starts[order - 1] + row
        # points[j-1, i]: the j-th-last bounce point of pair i.
        points = np.empty((top, len(rec), 3))
        live = np.arange(len(rec))
        after = rxs[rec]  # the point after the current bounce
        n_after = None  # normals of the bounce after the current one
        ends = []
        for j in range(1, top + 1):
            f = faces[table_row, j - 1]
            n = refl.normal[f]
            c = refl.center[f]
            img = images[j - 1, table_row]
            dvec = after - img
            denom = np.einsum("ij,ij->i", dvec, n)
            ok = np.abs(denom) > 1e-14
            tpar = np.einsum("ij,ij->i", c - img, n) \
                / np.where(ok, denom, 1.0)
            ok &= (tpar > 0.0) & (tpar < 1.0)
            q = img + tpar[:, None] * dvec
            rel = q - c
            ok &= np.abs(np.einsum("ij,ij->i", rel, refl.u[f])) \
                <= refl.hu[f] + _CONTAIN_TOL
            ok &= np.abs(np.einsum("ij,ij->i", rel, refl.v[f])) \
                <= refl.hv[f] + _CONTAIN_TOL
            # The point after this bounce in front of it, and this bounce's
            # point in front of the bounce after it.
            ok &= np.einsum("ij,ij->i", after - q, n) > RAY_EPS
            if n_after is not None:
                ok &= np.einsum("ij,ij->i", q - after, n_after) > RAY_EPS
            points[j - 1, live] = q
            # The pairs of order j, which lead, end here: tx in front of
            # their first bounce.
            head = np.searchsorted(order, j, side="right")
            ends.append(live[:head][ok[:head] & (np.einsum(
                "ij,ij->i", tx - q[:head], n[:head]) > RAY_EPS)])
            ok[:head] = False
            live, table_row, order = live[ok], table_row[ok], order[ok]
            after, n_after = q[ok], n[ok]
        for k, (seqs, _) in enumerate(prefixes, 1):
            done = ends[k - 1]
            pts = np.empty((k + 2, len(done), 3))
            pts[0] = tx
            pts[1:k + 1] = points[k - 1::-1, done]
            pts[k + 1] = rxs[rec[done]]
            self.chains.append((rec[done], pts, seqs[row[done]]))

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, receiver) of every row: every hop of every chain,
        order by order from the LOS segments up, chain-major."""
        starts, ends, rec = [], [], []
        for r, pts, _ in self.chains:
            starts.append(pts[:-1].swapaxes(0, 1).reshape(-1, 3))
            ends.append(pts[1:].swapaxes(0, 1).reshape(-1, 3))
            rec.append(np.repeat(r, len(pts) - 1))
        return np.concatenate(starts), np.concatenate(ends), \
            np.concatenate(rec)

    def paths(self, blocked: np.ndarray, carrier_ghz: float
              ) -> list[list[PathComponent]]:
        """Each receiver's unoccluded paths, sorted by (length, bounces).

        ``blocked`` holds the occlusion verdict of each row of ``segments``;
        a path with any blocked row is dropped. An empty list means outage.
        """
        paths: list[list[PathComponent]] = [[] for _ in self.rxs]
        at = 0
        for rec, pts, seqs in self.chains:
            n, hops = seqs.shape[0], seqs.shape[1] + 1
            keep = ~blocked[at:at + n * hops].reshape(n, hops).any(axis=1)
            at += n * hops
            if keep.any():
                amps = self.refl.amp[seqs[keep]]
                comps = path_components(pts[:, keep], amps, carrier_ghz)
                for r, comp in zip(rec[keep].tolist(), comps):
                    paths[r].append(comp)
        for p in paths:
            p.sort(key=lambda c: (c.length_m, c.bounces))
        return paths
