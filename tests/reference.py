"""Reference forms that the tests compare the program's batched passes to.

Each is the one-receiver, one-mesh, one-vector or one-path case of code in
``beamcam``, written the plain way: ``trace_paths`` is one receiver of
``Candidates`` with its rows in one occlusion pass (``trace_with_points``
adds each path's polyline, which the program does not keep),
``candidate_chains`` backtracks one reflection order with every
(receiver, prefix row) pair and no receiver-side screen, ``project_bbox``
one mesh of ``VertexRays`` and ``vertex_box`` one box of its ``boxes``,
``compute_path_component`` one path of
``path_components``, ``detect`` one row of ``detected_boxes`` with its
draws, ``select_beam`` one box's prediction of ``apply_detector`` and
``apply_detector`` the two of them row by row, ``render_debug_frame`` the
renderer one triangle at a time, ``record_channel`` and
``record_beam_table`` one record of ``build_channels`` and
``beam_tables``, and so on; ``noise_draws`` seeds its stream with the
list that the program's form turns into uint32 words itself,
``ziggurat_threshold`` finds numpy's exact fast-path threshold that
``sweep_draws``' tables stay under, and ``SeedState`` seeds a ``PCG64``
from state words by numpy's own seeding. ``write_stl`` is the writer of
the files ``stl.parse_stl`` reads. The program itself never calls them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from beamcam.camera import (BoundingBox, CameraModel, VertexRays,
                            pixel_to_azimuth, project_points)
from beamcam.channel import OUTAGE_SNR_DB, Codebook, world_to_array_deg
from beamcam.geometry import (RAY_EPS, Mesh, Tracks, TriangleSet,
                              _tri_areas, same_point)
from beamcam.pipeline import (Detection, DetectorNoiseModel, FrameRecord,
                              Simulator, UeFrameRecord)
from beamcam.raytrace import (_CONTAIN_TOL, Candidates, PathComponent,
                              PrefixTable, SceneGeometry, _Reflectors,
                              path_components, prefix_table)
from beamcam.render import (_FALLBACK_RGB, _LIGHT_DIR, BACKGROUND_RGB,
                            MATERIAL_RGB, _draw_bbox)
from beamcam.scenario import Scenario, UeConfig, _by_name
from beamcam.stl import _BINARY_HEADER, _BINARY_RECORD


# ---------------------------------------------------------------------------
# geometry

def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def normalize(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def areas(mesh: Mesh) -> np.ndarray:
    return _tri_areas(mesh.tris)


def interpolate_position(keyframes, frame: float) -> np.ndarray:
    """Linear interpolation between bracketing keyframes, clamped outside."""
    return Tracks([keyframes]).at([frame])[0, 0]


def unique_rows(mesh: Mesh) -> np.ndarray:
    """A mesh's distinct vertices, ``np.unique``'s rows of its triangles'
    vertices, shape (V, 3)."""
    return np.unique(mesh.tris.reshape(-1, 3), axis=0)


def moved_tris(tset: TriangleSet, first: int, offsets) -> np.ndarray:
    """The triangles of each table of ``tset.moved(first, offsets)``, shape
    (F, T, 3, 3): those of mesh ``first + i`` are ``tri + offsets[f, i]``,
    the others the unmoved ``tset.tris``."""
    offsets = np.asarray(offsets, float)
    moving = (tset.owners >= first) & (tset.owners < first + offsets.shape[1])
    tris = np.repeat(tset.tris[None], len(offsets), axis=0)
    tris[:, moving] = tset.tris[moving] + offsets[:, tset.owners[moving]
                                                  - first, None]
    return tris


def owned_by(tset: TriangleSet, names) -> np.ndarray:
    """Bool (M,): which owners of the table are named in ``names``."""
    return np.isin(tset.names, list(names))


def occluded(tset: TriangleSet, a, b, ignore) -> np.ndarray:
    """``segments_occluded``'s verdicts for segments against the one table
    ``tset``, given to it as a stack of one table."""
    a = np.asarray(a, float).reshape(-1, 3)
    stack = tset.moved(len(tset.names), np.zeros((1, 0, 3)))
    return stack.segments_occluded(a, b, ignore, np.zeros(len(a), int))[0]


def segment_occluded(tset: TriangleSet, a, b, exclude=()) -> bool:
    return bool(occluded(tset, a, b, owned_by(tset, exclude))[0])


# ---------------------------------------------------------------------------
# raytrace

def compute_path_component(points, reflection_amps, carrier_ghz: float
                           ) -> PathComponent:
    """Gain, delay and angles of one polyline path tx -> bounces -> rx:
    the one-path case of ``path_components``."""
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) < 2:
        raise ValueError("path needs at least two points")
    if len(reflection_amps) != len(pts) - 2:
        raise ValueError("need one reflection amplitude per interior vertex")
    amps = np.asarray(reflection_amps, float).reshape(1, len(pts) - 2)
    return path_components(pts[:, None], amps, carrier_ghz)[0]


def candidate_chains(refl: _Reflectors, seqs: np.ndarray,
                     images: np.ndarray, tx: np.ndarray, rxs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized image-method backtracking for one reflection order.

    ``seqs`` and ``images`` are one order of the prefix table of tx; every
    receiver in ``rxs`` (shape (R, 3)) is paired with every prefix row.
    A pair is dropped as soon as one of its checks fails: each bounce's
    point must fall inside its face, and both neighbors of a bounce must
    lie on the face's outward side. Returns the receiver index (n,),
    points (order + 2, n, 3) and face sequences (n, order) of the n
    geometrically valid chains, receiver by receiver, each receiver's in
    prefix-row order; occlusion is not tested here.
    """
    s, order = seqs.shape
    pair = np.arange(len(rxs) * s)  # receiver pair // s, prefix row pair % s
    back = [rxs[pair // s]]  # points from rx back to the current bounce
    n_after = None  # normals of the bounce after the current one
    for j in range(order, 0, -1):
        row = pair % s
        f = seqs[row, j - 1]
        n = refl.normal[f]
        c = refl.center[f]
        img = images[j, row]
        after = back[-1]
        dvec = after - img
        denom = np.einsum("ij,ij->i", dvec, n)
        ok = np.abs(denom) > 1e-14
        tpar = np.einsum("ij,ij->i", c - img, n) / np.where(ok, denom, 1.0)
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
        pair, n_after = pair[ok], n[ok]
        back = [p[ok] for p in back] + [q[ok]]
    ok = np.einsum("ij,ij->i", tx - back[-1], n_after) > RAY_EPS
    pair = pair[ok]
    pts = np.empty((order + 2, len(pair), 3))
    pts[0] = tx
    for j, p in enumerate(reversed(back), 1):
        pts[j] = p[ok]
    return pair // s, pts, seqs[pair % s]


def oracle_candidates(refl: _Reflectors, tx, rxs, prefixes) -> Candidates:
    """``Candidates`` whose chains of each order come from
    ``candidate_chains``, one order at a time: every (receiver, prefix row)
    pair backtracked, with no receiver-side screen."""
    tx = np.asarray(tx, float)
    cand = Candidates(refl, tx, rxs, PrefixTable())
    cand.chains += [candidate_chains(refl, seqs, images, tx, cand.rxs)
                    for seqs, images in prefixes]
    return cand


def trace_paths(scene: SceneGeometry, tx, rx, max_reflections: int,
                carrier_ghz: float, exclude=(), prefixes=None,
                candidates=Candidates) -> list[PathComponent]:
    """All unoccluded LOS and specular paths, sorted by (length, bounces).

    ``exclude`` names meshes (the endpoint UEs' own bodies) that never
    occlude. An empty list means outage. The one-receiver case of
    ``Candidates`` (or of ``candidates``, a function with its arguments),
    with its rows tested in one occlusion pass. The chains extend
    ``prefixes``, by default the ``prefix_table`` of tx, built anew on each
    call.
    """
    cand, blocked = _one_receiver(scene, tx, rx, max_reflections, exclude,
                                  prefixes, candidates)
    return cand.paths(blocked, carrier_ghz)[0]


def trace_with_points(scene: SceneGeometry, tx, rx, max_reflections: int,
                      carrier_ghz: float, exclude=()
                      ) -> list[tuple[PathComponent, np.ndarray]]:
    """``trace_paths`` with each path's polyline: (path, points) pairs, the
    points of shape (bounces + 2, 3) from tx to rx, in the same (length,
    bounces) order. The program keeps no polyline; this one comes from the
    same chains and occlusion verdicts as ``trace_paths``."""
    cand, blocked = _one_receiver(scene, tx, rx, max_reflections, exclude,
                                  None, Candidates)
    pairs = []
    at = 0
    for _, pts, seqs in cand.chains:
        n, hops = seqs.shape[0], seqs.shape[1] + 1
        keep = ~blocked[at:at + n * hops].reshape(n, hops).any(axis=1)
        at += n * hops
        if keep.any():
            comps = path_components(pts[:, keep], cand.refl.amp[seqs[keep]],
                                    carrier_ghz)
            pairs += zip(comps, pts[:, keep].swapaxes(0, 1))
    # A stable sort on the key of ``Candidates.paths``, over the paths in the
    # same chain order, gives its order.
    pairs.sort(key=lambda pair: (pair[0].length_m, pair[0].bounces))
    return pairs


def _one_receiver(scene, tx, rx, max_reflections, exclude, prefixes,
                  candidates) -> tuple[Candidates, np.ndarray]:
    """The candidates of one receiver and the occlusion verdict of each of
    their rows, tested in one pass."""
    tx = np.asarray(tx, float)
    rx = np.asarray(rx, float)
    if same_point(tx, rx):
        raise ValueError("tx and rx must differ")
    refl = scene.reflectors
    if prefixes is None:
        prefixes = prefix_table(refl, tx, max_reflections)
    cand = candidates(refl, tx, rx, prefixes)
    starts, ends, _ = cand.segments()
    tset = scene.tset
    return cand, occluded(tset, starts, ends, owned_by(tset, exclude))


# ---------------------------------------------------------------------------
# camera

def center_u(bbox: BoundingBox) -> float:
    return (bbox.u_min + bbox.u_max) / 2.0


def center_v(bbox: BoundingBox) -> float:
    return (bbox.v_min + bbox.v_max) / 2.0


def project_point(cam: CameraModel, p_world) -> tuple[float, float] | None:
    """Pixel of one point; None for a point behind the camera plane."""
    u, v, front = project_points(cam, p_world)
    return (float(u[0]), float(v[0])) if front[0] else None


def vertex_box(pixels, count: int, size) -> BoundingBox | None:
    """One mesh's box over the (u, v) pixels of its unblocked rays, of its
    ``count`` vertices, in an image of ``size`` (width, height): Python's
    ``min`` and ``max`` over the pixels, clipped to the image. The one-mesh
    case of ``VertexRays.boxes``."""
    if not pixels:
        return None
    width, height = size
    us = [u for u, _ in pixels]
    vs = [v for _, v in pixels]
    return BoundingBox(u_min=max(0.0, min(us)), v_min=max(0.0, min(vs)),
                       u_max=min(width, max(us)), v_max=min(height, max(vs)),
                       visibility=len(pixels) / count)


def project_bbox(cam: CameraModel, mesh: Mesh,
                 scene: SceneGeometry | None = None,
                 exclude=()) -> BoundingBox | None:
    """Occlusion-aware bounding box of a UE mesh.

    The box spans the projected vertices that are in front of the camera,
    inside the image and pass an occlusion ray test against the meshes of
    ``scene`` not named in ``exclude``; visibility is the fraction of mesh
    vertices passing all three tests. Returns None when nothing is visible.
    The one-mesh case of ``VertexRays``.
    """
    verts = unique_rows(mesh)
    rays = VertexRays(cam, verts, [len(verts)])
    blocked = np.zeros(len(rays.ends), dtype=bool)
    if scene is not None and len(rays.ends):
        tset = scene.tset
        blocked = occluded(tset, rays.starts, rays.ends,
                           owned_by(tset, exclude))
    return rays.boxes(blocked)[0]


# ---------------------------------------------------------------------------
# channel

def array_to_world_deg(az_array_deg: float, boresight_deg: float) -> float:
    return (az_array_deg + boresight_deg - 90.0) % 360.0


def record_channel(paths, n_elements: int, spacing_wavelengths: float,
                   boresight_deg: float) -> np.ndarray:
    """One record's channel, one path at a time: its steering vector from
    the path's scalar phase, times its gain, added to a sum from zero."""
    h = np.zeros(n_elements, dtype=complex)
    for path in paths:
        az = world_to_array_deg(path.aod_az_deg, boresight_deg)
        phase = (2.0 * math.pi * spacing_wavelengths
                 * math.cos(math.radians(az)))
        h += path.gain * np.exp(1j * phase * np.arange(n_elements))
    return h


def record_beam_table(h: np.ndarray, codebook: Codebook, tx_power_dbm: float,
                      noise_power_dbm: float
                      ) -> tuple[list[float], int | None]:
    """One channel's per-beam SNR table, from one matrix-vector product,
    and its optimal index: the first maximum, None if every beam is at
    ``OUTAGE_SNR_DB``."""
    g = np.abs(codebook.matrix.conj() @ h)
    out = np.full(codebook.q, OUTAGE_SNR_DB)
    nz = g > 0.0
    out[nz] = tx_power_dbm + 20.0 * np.log10(g[nz]) - noise_power_dbm
    snrs = [float(x) for x in out]
    best = max(range(len(snrs)), key=snrs.__getitem__)
    return snrs, None if snrs[best] == OUTAGE_SNR_DB else best


def beam_snr(h: np.ndarray, w: np.ndarray, tx_power_dbm: float,
             noise_power_dbm: float) -> float:
    """SNR in dB of beam w over channel h; -inf for a zero channel."""
    if h.shape != w.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {w.shape}")
    g = abs(np.vdot(w, h))
    if g == 0.0:
        return OUTAGE_SNR_DB
    return tx_power_dbm + 20.0 * math.log10(g) - noise_power_dbm


# ---------------------------------------------------------------------------
# selection

def clip(x, limit) -> float:
    """x clamped to [0, limit] the Python way: ``max(-0.0, 0.0)`` is -0.0."""
    return min(max(float(x), 0.0), float(limit))


def select_beam(u_min: float, u_max: float, cam: CameraModel,
                codebook: Codebook, boresight_deg: float
                ) -> tuple[int | None, float]:
    """Map a box's horizontal edges to (codebook index, world azimuth).

    The edges are clipped to the image, as the detector clips them, and the
    centre column is mapped to an azimuth. Index is None when the azimuth
    falls outside the array half-space.
    """
    center_u = (clip(u_min, cam.width_px) + clip(u_max, cam.width_px)) / 2.0
    az_world = pixel_to_azimuth(cam, center_u)
    return (codebook.bin_index(world_to_array_deg(az_world, boresight_deg)),
            az_world)


# ---------------------------------------------------------------------------
# render

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


# ---------------------------------------------------------------------------
# stl

def write_stl(mesh: Mesh, header: bytes = b"beamcam binary STL") -> bytes:
    """Serialize a Mesh as binary STL, the form ``stl.parse_stl`` reads:
    facet normals recomputed from winding, and a vertex payload that
    round-trips bit-exactly through float32."""
    count = len(mesh)
    out = bytearray(_BINARY_HEADER.size + count * _BINARY_RECORD.size)
    _BINARY_HEADER.pack_into(out, 0, header[:80], count)
    offset = _BINARY_HEADER.size
    tris32 = mesh.tris.astype("<f4")
    e1 = mesh.tris[:, 1] - mesh.tris[:, 0]
    e2 = mesh.tris[:, 2] - mesh.tris[:, 0]
    normals = np.cross(e1, e2)
    lens = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.where(lens > 0, normals / np.where(lens > 0, lens, 1.0), 0.0)
    normals32 = normals.astype("<f4")
    for i in range(count):
        _BINARY_RECORD.pack_into(
            out, offset, *normals32[i], *tris32[i].reshape(9), 0
        )
        offset += _BINARY_RECORD.size
    return bytes(out)


# ---------------------------------------------------------------------------
# pipeline and scenario

def run_simulation(scenario: Scenario,
                   model: DetectorNoiseModel | None = None,
                   bs_name: str | None = None,
                   base_dir: str | Path | None = None) -> list[FrameRecord]:
    """Full co-simulation: one FrameRecord per frame, ordered by frame."""
    sim = Simulator(scenario, bs_name, base_dir)
    return sim.apply_detector(sim.run_truth(), model or DetectorNoiseModel())


def noise_draws(seed: int, frame: int, ue_index: int
                ) -> tuple[float, float, float]:
    """The detector's draws for one (seed, frame, UE index), from the
    stream seeded with the list ``[seed, frame, ue_index]`` itself."""
    rng = np.random.default_rng([seed, frame, ue_index])
    miss = rng.random()
    z_u, z_v = rng.standard_normal(2).tolist()
    return miss, z_u, z_v


class SeedState(ISeedSequence):
    """The state words of a ``SeedSequence``, already made: what a
    ``PCG64`` asks its seed sequence for, ``generate_state(4, np.uint64)``.
    ``PCG64(SeedState(words))`` seeds a stream from its state words by
    numpy's own seeding, with none of the program's LCG arithmetic."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


_MOD128 = 1 << 128
_MULT_INVERSE = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, _MOD128)


def _back(state: int, inc: int) -> int:
    """The PCG64 state one LCG step (multiplier 0x2360...F645) before
    ``state``."""
    return (state - inc) * _MULT_INVERSE % _MOD128


def words_drawing(r: int) -> np.ndarray:
    """State words (``generate_state(4, np.uint64)``) of a ``PCG64`` stream
    whose second 64-bit output, the one its ``standard_normal()`` reads
    first, is ``r``: with inc 1 (words 2 and 3 zero), three steps back from
    state ``r``, whose output has no rotation, then the seeding's ``state =
    (inc + initstate) * mult + inc`` solved for initstate."""
    initstate = (_back(_back(_back(r, 1), 1), 1) - 1) % _MOD128
    return np.array([initstate >> 64, initstate & (1 << 64) - 1, 0, 0],
                    np.uint64)


def ziggurat_threshold(idx: int) -> int:
    """numpy's exact threshold of layer ``idx`` of its ziggurat
    ``standard_normal``: the least ``rabs`` whose draw takes more than one
    64-bit output (``2**52`` if none does), found by binary search over
    draws whose first output is ``r = rabs << 9 | idx`` (sign 0)."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    state = bits.state

    def one_output(rabs: int) -> bool:
        r = rabs << 9 | idx
        state["state"] = {"state": _back(r, 1), "inc": 1}
        bits.state = state
        rng.standard_normal()
        return bits.state["state"]["state"] == r

    lo, hi = 0, 1 << 52
    while lo < hi:
        mid = (lo + hi) // 2
        if one_output(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def detect(ue_index: int, bbox: BoundingBox, model: DetectorNoiseModel,
           frame: int, width_px: int, height_px: int) -> Detection | None:
    """The detection of one truth box of the scenario's UE ``ue_index``, or
    None for a miss: its (miss, z_u, z_v) draws, a miss below ``miss_prob``,
    and each edge jittered by z times sigma and clipped to the image."""
    miss, z_u, z_v = noise_draws(model.seed, frame, ue_index)
    if miss < model.miss_prob:
        return None
    du, dv = z_u * model.pixel_sigma, z_v * model.pixel_sigma
    return Detection(BoundingBox(
        u_min=clip(bbox.u_min + du, width_px),
        v_min=clip(bbox.v_min + dv, height_px),
        u_max=clip(bbox.u_max + du, width_px),
        v_max=clip(bbox.v_max + dv, height_px),
        visibility=bbox.visibility,
    ))


def apply_detector(sim: Simulator, truth: list[FrameRecord],
                   model: DetectorNoiseModel) -> list[FrameRecord]:
    """``Simulator.apply_detector`` one row at a time: ``detect`` of each
    active row with a box, and ``select_beam`` of each detection."""
    ue_index = {ue.name: i for i, ue in enumerate(sim.scenario.ues)}
    cam = sim.camera
    out = []
    for rec in truth:
        ues = []
        for u in rec.ues:
            det, pred = None, (None, None)
            if u.active and u.bbox is not None:
                det = detect(ue_index[u.ue_name], u.bbox, model, rec.frame,
                             cam.width_px, cam.height_px)
            if det is not None:
                pred = select_beam(det.bbox.u_min, det.bbox.u_max, cam,
                                   sim.codebook, sim.bs.boresight_deg)
            ues.append(UeFrameRecord(
                ue_name=u.ue_name, position=u.position, active=u.active,
                bbox=u.bbox, paths=u.paths, beam_snrs_db=u.beam_snrs_db,
                optimal_index=u.optimal_index, detection=det,
                predicted_index=pred[0], predicted_azimuth_deg=pred[1]))
        out.append(FrameRecord(rec.frame, rec.bs_name, tuple(ues)))
    return out


def ue(scenario: Scenario, name: str) -> UeConfig:
    return _by_name(scenario.ues, name, "ue")
