import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from beamcam import geometry as geo
from beamcam import pipeline as pl
from beamcam import scenario as sc
from beamcam import stl

import reference as ref
from conftest import MINIMAL_SCENARIO, small_scenarios


def test_box_mesh_area_and_closure():
    mesh = geo.box_mesh((1.0, -2.0, 3.0), (2.0, 3.0, 4.0), yaw_deg=30.0)
    assert mesh.tris.shape == (12, 3, 3)
    # Surface area 2(ab + bc + ca) is yaw-invariant.
    assert np.isclose(ref.areas(mesh).sum(), 2 * (2 * 3 + 3 * 4 + 4 * 2))
    assert np.allclose(ref.unique_rows(mesh).mean(axis=0), [1.0, -2.0, 3.0])


# A tetrahedron in ASCII STL whose vertices carry -0.0 and 0.0, each vertex
# written the same way in every facet.
SIGNED_ZERO_STL = b"""solid zeros
facet normal 0 0 0
outer loop
vertex 0 0 0
vertex -0 1 0
vertex 1 -0 -0
endloop
endfacet
facet normal 0 0 0
outer loop
vertex 0 0 0
vertex 1 -0 -0
vertex -0 -0 1
endloop
endfacet
facet normal 0 0 0
outer loop
vertex 0 0 0
vertex -0 -0 1
vertex -0 1 0
endloop
endfacet
facet normal 0 0 0
outer loop
vertex -0 1 0
vertex -0 -0 1
vertex 1 -0 -0
endloop
endfacet
endsolid zeros
"""


# UE box sizes of every magnitude from 1e-150 to 1e150.
UE_SIZE = st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                    st.floats(1.0, 9.99), st.integers(-150, 149))


@given(st.lists(st.tuples(UE_SIZE, UE_SIZE, UE_SIZE), min_size=3,
                max_size=6))
@example([(1e-150, 1e150, 1e150), (1e150, 1e150, 1e150), (4.4, 1.8, 1.4),
          (1e-150, 1e-150, 1.0)])
def test_ue_vertices_are_numpy_unique_rows(sizes):
    """The UE vertices the truth pass projects, each box's corners at the
    origin, equal ``np.unique``'s rows of the UE's box mesh, UE by UE and
    as bytes. Sizes that ``box_mesh`` refuses are skipped."""
    kept = []
    # The area check of a face with sides near 1e150 overflows to inf.
    with np.errstate(over="ignore"):
        for size in sizes:
            try:
                kept.append((size, geo.box_mesh((0.0, 0.0, 0.0), size)))
            except ValueError:
                pass
        assume(kept)
        scenario = sc.parse_scenario(MINIMAL_SCENARIO)
        ue = scenario.ues[0]
        scenario = dataclasses.replace(scenario, ues=tuple(
            dataclasses.replace(ue, name=f"u{i}", size=size)
            for i, (size, _) in enumerate(kept)))
        verts, owner, counts = pl.Simulator(scenario)._ue_vertices
    assert owner.tolist() == np.repeat(np.arange(len(kept)), counts).tolist()
    for i, (_, mesh) in enumerate(kept):
        want = ref.unique_rows(mesh)
        got = verts[owner == i]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_signed_zero_stl_has_both_zeros():
    verts = ref.unique_rows(stl.parse_stl(SIGNED_ZERO_STL))
    zeros = verts[verts == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def test_box_mesh_normals_point_outward():
    mesh = geo.box_mesh((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    v0, v1, v2 = mesh.tris[:, 0], mesh.tris[:, 1], mesh.tris[:, 2]
    normals = np.cross(v1 - v0, v2 - v0)
    centroids = (v0 + v1 + v2) / 3.0
    assert np.all(np.einsum("ij,ij->i", normals, centroids) > 0)


def test_interpolate_position_linear_and_clamped():
    traj = ((0, (0.0, 0.0, 0.0)), (10, (10.0, 20.0, 0.0)))
    assert np.allclose(ref.interpolate_position(traj, 5), [5.0, 10.0, 0.0])
    assert np.allclose(ref.interpolate_position(traj, -3), [0.0, 0.0, 0.0])
    assert np.allclose(ref.interpolate_position(traj, 42), [10.0, 20.0, 0.0])


def test_azimuth_elevation_conventions():
    assert geo.azimuth_deg(ref.vec3(1, 0, 0)) == pytest.approx(0.0)
    assert geo.azimuth_deg(ref.vec3(0, 1, 0)) == pytest.approx(90.0)
    assert geo.azimuth_deg(ref.vec3(-1, 0, 0)) == pytest.approx(180.0)
    assert geo.elevation_deg(ref.vec3(1, 0, 1)) == pytest.approx(45.0)


COORD = st.floats(-1e3, 1e3)
NEAR = st.tuples(st.floats(-2e-5, 2e-5), st.floats(-2e-8, 2e-8))


@given(st.tuples(COORD, COORD, COORD), st.tuples(NEAR, NEAR, NEAR))
@example((0.0, 0.0, 6.0), ((0.0, 0.0),) * 3)
def test_same_point_is_allclose(a, offsets):
    # Offsets straddle allclose's tolerance |a - b| <= 1e-8 + 1e-5 |b|.
    b = tuple(x * (1.0 + r) + c for x, (r, c) in zip(a, offsets))
    assert geo.same_point(a, b) == np.allclose(a, b)
    assert geo.same_point(b, a) == np.allclose(b, a)


def nearest_ts(tset, origins, directions, t_max):
    """Nearest hit distance in (RAY_EPS, t_max) of each ray, from
    ``_hit_ts`` against every chunk row of the table; None for a ray that
    hits nothing there."""
    ts = geo._hit_ts(tset.kernel, np.asarray(origins, float),
                     np.asarray(directions, float))
    ts = np.moveaxis(ts, 0, 1).reshape(len(origins), -1)
    ts = np.where((ts > geo.RAY_EPS) & (ts < t_max), ts, np.inf).min(axis=1)
    return [None if t == np.inf else t for t in ts.tolist()]


def test_ray_hits_box_front_face():
    mesh = geo.box_mesh((0.0, 10.0, 0.0), (2.0, 2.0, 2.0))
    tset = geo.TriangleSet([("box", mesh)])
    hit, miss = nearest_ts(tset, [(0.0, 0.0, 0.0), (0.0, 0.0, 5.0)],
                           [(0.0, 1.0, 0.0)] * 2, 100.0)
    assert hit == pytest.approx(9.0)
    assert miss is None


def test_segment_occlusion_and_exclusion():
    blocker = geo.box_mesh((0.0, 5.0, 0.0), (4.0, 1.0, 4.0), material="metal")
    tset = geo.TriangleSet([("blocker", blocker)])
    a, b = ref.vec3(0, 0, 0), ref.vec3(0, 10, 0)
    assert ref.segment_occluded(tset, a, b)
    assert not ref.segment_occluded(tset, a, b, exclude=("blocker",))
    # A segment ending on the box surface is not occluded by it.
    assert not ref.segment_occluded(tset, a, ref.vec3(0, 4.5, 0))


def test_nearest_hit_matches_bruteforce_scan():
    rng = np.random.default_rng(2024)
    meshes = [
        geo.box_mesh(rng.uniform(-10, 10, 3), rng.uniform(0.5, 3.0, 3),
                     yaw_deg=rng.uniform(0, 360))
        for _ in range(6)
    ]
    tset = geo.TriangleSet([(f"m{i}", m) for i, m in enumerate(meshes)])
    rays = [(rng.uniform(-15, 15, 3), ref.normalize(rng.standard_normal(3)))
            for _ in range(200)]
    # Rays aimed near a box center, so most of them hit something.
    for origin in rng.uniform(-15, 15, (100, 3)):
        target = ref.unique_rows(meshes[rng.integers(6)]).mean(axis=0)
        rays.append((origin, ref.normalize(target + rng.uniform(-1, 1, 3)
                                           - origin)))
    origins, directions = zip(*rays)
    got = nearest_ts(tset, origins, directions, 100.0)
    for origin, direction, hit in zip(origins, directions, got):
        # Brute force: Moller-Trumbore per triangle in pure python.
        best = None
        for mesh in meshes:
            for v0, v1, v2 in mesh.tris:
                e1, e2 = v1 - v0, v2 - v0
                p = np.cross(direction, e2)
                det = e1 @ p
                if abs(det) < 1e-12:
                    continue
                s = origin - v0
                u = (s @ p) / det
                q = np.cross(s, e1)
                v = (direction @ q) / det
                t = (e2 @ q) / det
                if u >= 0 and v >= 0 and u + v <= 1 and geo.RAY_EPS < t < 100.0:
                    if best is None or t < best:
                        best = t
        if best is None:
            assert hit is None
        else:
            assert hit == pytest.approx(best, abs=1e-9)
    assert sum(hit is not None for hit in got) > 50


def reference_occluded(meshes, a, b):
    """One segment against the triangles of meshes, with the one-ray form
    of the Moller-Trumbore test (``np.cross``, einsum and ``np.dot`` over
    (T, 3) arrays) and the segment rules of ``segments_occluded``."""
    d = b - a
    length = float(np.linalg.norm(d))
    if length <= 2 * geo.RAY_EPS or not meshes:
        return False
    direction = d / length
    tris = np.concatenate([m.tris for m in meshes])
    v0, e1, e2 = tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    p = np.cross(direction[None, :], e2)
    det = np.einsum("ij,ij->i", e1, p)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = a[None, :] - v0
    u = np.einsum("ij,ij->i", s, p) * inv
    q = np.cross(s, e1)
    v = np.dot(q, direction) * inv
    t = np.einsum("ij,ij->i", e2, q) * inv
    ok &= (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
    t = t[ok]
    return bool(np.any((t > geo.RAY_EPS) & (t < length - geo.RAY_EPS)))


BOXES = st.lists(st.tuples(
    st.tuples(*[st.floats(-5.0, 5.0)] * 3),
    st.tuples(*[st.floats(0.5, 4.0)] * 3),
    st.one_of(st.just(0.0), st.floats(0.0, 360.0)),
), max_size=4)


@st.composite
def occlusion_cases(draw):
    """(boxes, segments, excluded names): segments are free, end on a box
    face, have zero length or are no longer than 2 * RAY_EPS."""
    boxes = draw(BOXES)
    meshes = [geo.box_mesh(*box) for box in boxes]

    def point():
        if meshes and draw(st.booleans()):
            mesh = meshes[draw(st.integers(0, len(meshes) - 1))]
            w = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))) + 1e-3
            return tuple(w / w.sum() @ mesh.tris[draw(st.integers(0, 11))])
        return draw(st.tuples(*[st.floats(-8.0, 8.0)] * 3))

    segments = []
    for _ in range(draw(st.integers(1, 10))):
        a = point()
        kind = draw(st.sampled_from(["free", "zero", "short"]))
        if kind == "zero":
            b = a
        elif kind == "short":
            step = draw(st.floats(0.0, 2 * geo.RAY_EPS))
            b = tuple(np.asarray(a) + step * ref.normalize(
                np.array(draw(st.tuples(*[st.floats(0.1, 1.0)] * 3)))))
        else:
            b = point()
        segments.append((a, b))
    names = [f"m{i}" for i in range(len(boxes))] + ["absent"]
    exclude = draw(st.lists(st.sampled_from(names), unique=True))
    return boxes, segments, tuple(exclude)


@given(occlusion_cases())
# A hit at exactly t == RAY_EPS (power-of-two box, so the arithmetic is
# exact) does not count.
@example(([((0.0, 1.0, 0.0), (2.0, 2.0, 2.0), 0.0)],
          [((0.25, -geo.RAY_EPS, 0.5), (0.25, 1.0, 0.5))], ()))
def test_segments_occluded_matches_one_segment_reference(case):
    boxes, segments, exclude = case
    meshes = [(f"m{i}", geo.box_mesh(*box)) for i, box in enumerate(boxes)]
    tset = geo.TriangleSet(meshes)
    a = np.array([seg[0] for seg in segments], dtype=float)
    b = np.array([seg[1] for seg in segments], dtype=float)
    # Zero-length segments are answered without dividing by zero.
    with np.errstate(divide="raise", invalid="raise"):
        got = ref.occluded(tset, a, b, ref.owned_by(tset, exclude))
    kept = [m for name, m in meshes if name not in exclude]
    want = [reference_occluded(kept, p, q) for p, q in zip(a, b)]
    assert got.tolist() == want
    assert ref.segment_occluded(tset, a[0], b[0], exclude) == want[0]


def hex_prism(center, radius: float, height: float) -> geo.Mesh:
    """A closed hexagonal prism of 20 triangles (12 sides, two caps of 4),
    read back from binary STL: one full chunk and one padded."""
    angles = np.radians(np.arange(6) * 60.0)
    ring = np.stack([radius * np.cos(angles), radius * np.sin(angles),
                     np.zeros(6)], axis=1) + np.asarray(center, float)
    bottom, top = ring, ring + (0.0, 0.0, height)
    tris = []
    for k in range(6):
        j = (k + 1) % 6
        tris += [(bottom[k], bottom[j], top[j]), (bottom[k], top[j], top[k])]
    for cap in (bottom, top):
        tris += [(cap[0], cap[k], cap[k + 1]) for k in range(1, 5)]
    return stl.parse_stl(ref.write_stl(geo.Mesh(tris)))


def test_chunks_cover_each_owner_in_runs_padded_by_its_last_triangle():
    sizes = [1, geo.CHUNK, geo.CHUNK + 1, 20]
    rng = np.random.default_rng(3)
    meshes = [(f"m{i}", geo.Mesh(rng.standard_normal((n, 3, 3))))
              for i, n in enumerate(sizes)]
    tset = geo.TriangleSet(meshes)
    assert tset.chunks.shape == (1 + 1 + 2 + 2, geo.CHUNK)
    for owner, n in enumerate(sizes):
        rows = tset.chunks[tset.chunk_owner == owner].ravel()
        first = int(np.searchsorted(tset.owners, owner))
        want = np.arange(first, first + n)
        assert rows[:n].tolist() == want.tolist()
        assert set(rows[n:].tolist()) <= {first + n - 1}
    assert len(hex_prism((0.0, 0.0, 0.0), 1.0, 2.0)) == 20


# Offsets of every magnitude from 1e-300 to 1e6, of both signs, and zeros
# of both signs.
OFFSET = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-300, 6))


@given(small_scenarios(), st.floats(0.5, 3.0), st.integers(1, 3),
       st.data())
def test_moved_chunk_boxes_are_the_boxes_of_the_moved_vertices(
        scenario, radius, frames, data):
    """A moved table's chunk boxes, made by adding each offset to its
    chunk's box, equal with == the reduceat boxes of its moved vertices,
    and its kernel rows are its moved triangles' vertex and edges, bit for
    bit. The table is a small scenario's reflector boxes, then its UE boxes
    and an STL prism of one full chunk and one short one, all moved."""
    meshes = [(r.name, geo.box_mesh(r.center, r.size, r.yaw_deg))
              for r in scenario.reflectors]
    first = len(meshes)
    meshes += [(ue.name, geo.box_mesh((0.0, 0.0, 0.0), ue.size))
               for ue in scenario.ues]
    meshes.append(("prism", hex_prism((1.0, 2.0, 0.0), radius, 2.0)))
    tset = geo.TriangleSet(meshes)
    moving = len(meshes) - first
    offsets = np.array(data.draw(st.lists(
        OFFSET, min_size=3 * moving * frames, max_size=3 * moving * frames))
    ).reshape(frames, moving, 3)
    stack = tset.moved(first, offsets)
    tris = ref.moved_tris(tset, first, offsets)
    vertices = tris.reshape(frames, -1, 3)
    starts = 3 * tset.chunks[:, 0]
    box = stack.box[stack.rows]
    assert (box[..., 0, :]
            == np.minimum.reduceat(vertices, starts, axis=1)).all()
    assert (box[..., 1, :]
            == np.maximum.reduceat(vertices, starts, axis=1)).all()
    corners = tris[:, tset.chunks]
    got = stack.kernel[stack.rows]
    for k, want in enumerate((corners[..., 0, :],
                              corners[..., 1, :] - corners[..., 0, :],
                              corners[..., 2, :] - corners[..., 0, :])):
        assert np.array_equal(np.signbit(got[..., k, :, :]),
                              np.signbit(want))
        assert np.array_equal(got[..., k, :, :], want)
    # The reflectors' rows are stored once, for every frame.
    assert (stack.rows[:, tset.chunk_owner < first]
            == tset.rows[tset.chunk_owner < first]).all()
    assert len(stack.kernel) == len(tset.chunks) + frames * (
        tset.chunk_owner >= first).sum()


@st.composite
def edge_and_corner_cases(draw):
    """(meshes, segments, excluded names): boxes and an STL hexagonal prism,
    and segments from a free point through a triangle's corner, a point of
    its edge or of its face, or ending there."""
    meshes = [geo.box_mesh(*box) for box in draw(BOXES)]
    meshes.append(hex_prism(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)),
                            draw(st.floats(0.5, 3.0)),
                            draw(st.floats(0.5, 3.0))))
    segments = []
    for _ in range(draw(st.integers(1, 10))):
        mesh = meshes[draw(st.integers(0, len(meshes) - 1))]
        tri = mesh.tris[draw(st.integers(0, len(mesh) - 1))]
        i = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["corner", "edge", "face"]))
        if kind == "corner":
            target = tri[i]
        elif kind == "edge":
            target = tri[i] + draw(st.floats(0.0, 1.0)) \
                * (tri[(i + 1) % 3] - tri[i])
        else:
            w = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))) + 1e-3
            target = w / w.sum() @ tri
        a = np.array(draw(st.tuples(*[st.floats(-8.0, 8.0)] * 3)))
        if draw(st.booleans()):
            b = target
        else:
            b = target + draw(st.floats(0.1, 2.0)) * (target - a)
        segments.append((a, b))
    names = [f"m{i}" for i in range(len(meshes))]
    exclude = draw(st.lists(st.sampled_from(names), unique=True))
    return meshes, segments, tuple(exclude)


@given(edge_and_corner_cases())
def test_screened_verdicts_match_the_unscreened_kernel_at_edges_and_corners(
        case):
    meshes, segments, exclude = case
    named = [(f"m{i}", m) for i, m in enumerate(meshes)]
    tset = geo.TriangleSet(named)
    a = np.array([seg[0] for seg in segments], dtype=float)
    b = np.array([seg[1] for seg in segments], dtype=float)
    got = ref.occluded(tset, a, b, ref.owned_by(tset, exclude))
    kept = [m for name, m in named if name not in exclude]
    assert got.tolist() == [reference_occluded(kept, p, q)
                            for p, q in zip(a, b)]


def box_edge_graze(box, corner, axis, along, offset, slope, reach):
    """A segment that passes an edge of ``box`` (center, size, yaw) at
    ``offset`` from it, outward along the bisector of the edge's two faces
    (inward where negative), at slant ``slope`` to the edge, ``reach`` out
    to either side. ``corner`` gives the edge's side of each axis (signs),
    ``axis`` its direction and ``along`` its point, from -1 to 1."""
    center, size, yaw = box
    rot = geo.rot_z_deg(yaw)
    half = np.asarray(size, float) / 2.0
    k, m = (n for n in range(3) if n != axis)
    n1, n2 = corner[k] * rot[:, k], corner[m] * rot[:, m]
    local = np.array(corner, float) * half
    local[axis] = along * half[axis]
    point = rot @ local + np.asarray(center, float) \
        + offset * (n1 + n2) / np.sqrt(2.0)
    step = reach * (slope * rot[:, axis] + (n1 - n2) / np.sqrt(2.0))
    return point - step, point + step


#: Offset along the bisector at which the edge of a box grown by RAY_EPS
#: lies.
GROWN_EDGE = np.sqrt(2.0) * geo.RAY_EPS


@st.composite
def box_test_cases(draw):
    """(meshes, segments, grazes): yawed boxes and an STL hexagonal prism,
    then segments through a triangle's corner or a point of its edge,
    axis-parallel ones (one or two components of d exactly +0.0 or -0.0),
    ones that start on a face, and ones that graze a box's edge just
    inside or just outside the RAY_EPS margin, or cut it by a hair.
    ``grazes`` maps a grazing segment of an unyawed box to (box, whether
    it meets the box grown by RAY_EPS)."""
    boxes = draw(st.lists(st.tuples(
        st.tuples(*[st.floats(-5.0, 5.0)] * 3),
        st.tuples(*[st.floats(0.5, 4.0)] * 3),
        st.sampled_from([0.0, 90.0, 45.0]) | st.floats(0.0, 360.0),
    ), min_size=1, max_size=3))
    meshes = [geo.box_mesh(*box) for box in boxes]
    meshes.append(hex_prism(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)),
                            draw(st.floats(0.5, 3.0)),
                            draw(st.floats(0.5, 3.0))))
    free = st.tuples(*[st.floats(-8.0, 8.0)] * 3).map(np.array)
    segments, grazes = [], {}
    for _ in range(draw(st.integers(1, 8))):
        mesh = meshes[draw(st.integers(0, len(meshes) - 1))]
        tri = mesh.tris[draw(st.integers(0, len(mesh) - 1))]
        i = draw(st.integers(0, 2))
        target = tri[i] + draw(st.sampled_from([0.0, 0.5]) | st.floats(
            0.0, 1.0)) * (tri[(i + 1) % 3] - tri[i])
        kind = draw(st.sampled_from(["through", "parallel", "start",
                                     "graze"]))
        if kind == "through":
            a = draw(free)
            b = target + draw(st.floats(0.1, 2.0)) * (target - a)
        elif kind == "parallel":
            zero = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2,
                                 unique=True))
            step = np.array(draw(st.tuples(
                *[st.floats(0.5, 8.0) | st.floats(-8.0, -0.5)] * 3)))
            a, b = target - step, target + step
            for k in zero:
                # -0.0 - (+0.0) is the only difference that gives -0.0.
                a[k], b[k] = draw(st.sampled_from(
                    [(target[k],) * 2, (0.0, -0.0), (-0.0, 0.0)]))
        elif kind == "start":
            w = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))) + 1e-3
            a = w / w.sum() @ tri
            b = draw(free)
        else:
            box = draw(st.integers(0, len(boxes) - 1))
            offset = draw(st.sampled_from([-1e-3, -1e-7, 0.0])
                          | (st.floats(0.5, 0.99) | st.floats(1.01, 2.0))
                          .map(lambda f: f * GROWN_EDGE))
            a, b = box_edge_graze(
                boxes[box],
                corner=draw(st.tuples(*[st.sampled_from([-1, 1])] * 3)),
                axis=draw(st.integers(0, 2)),
                along=draw(st.floats(-0.9, 0.9)),
                offset=offset, slope=draw(st.floats(0.0, 2.0)),
                reach=draw(st.floats(0.5, 4.0)))
            if boxes[box][2] == 0.0:
                grazes[len(segments)] = box, offset < GROWN_EDGE
        segments.append((a, b))
    return meshes, segments, grazes


# An unyawed box's edge grazed inside the margin, outside it and cut by a
# hair, next to a prism.
GRAZES = [box_edge_graze(((0.5, -1.0, 2.0), (2.0, 3.0, 4.0), 0.0),
                         (1, -1, 1), 2, 0.3, offset, 0.5, 2.0)
          for offset in (0.75 * GROWN_EDGE, 1.5 * GROWN_EDGE, -1e-7)]


@given(box_test_cases())
@example(([geo.box_mesh((0.5, -1.0, 2.0), (2.0, 3.0, 4.0)),
           hex_prism((3.0, 0.0, 0.0), 1.0, 2.0)], GRAZES,
          {0: (0, True), 1: (0, False), 2: (0, True)}))
def test_the_segment_box_test_keeps_every_kernel_hit(case):
    """Every (segment, chunk) pair whose kernel distance lies in
    (RAY_EPS, length - RAY_EPS) passes both screens: the segment's
    bounding box and the segment itself meet the chunk's box grown by
    RAY_EPS. So the screened verdicts are the unscreened kernel's. Nothing
    is divided by zero on the way, and an unyawed box's edge is met
    exactly when the graze passes inside the margin."""
    meshes, segments, grazes = case
    tset = geo.TriangleSet([(f"m{i}", m) for i, m in enumerate(meshes)])
    a = np.array([seg[0] for seg in segments], dtype=float)
    b = np.array([seg[1] for seg in segments], dtype=float)
    seg, chunk = np.indices((len(a), len(tset.chunks))).reshape(2, -1)
    rows = tset.rows[chunk]
    d = b - a
    length = geo.norms(d)
    lo = tset.box[rows, 0] - geo.RAY_EPS
    hi = tset.box[rows, 1] + geo.RAY_EPS
    with np.errstate(divide="raise", invalid="raise"):
        ts = geo._hit_ts(tset.kernel[rows], a[seg, None],
                         (d[seg] / length[seg, None])[:, None])[:, 0]
        overlap = ((np.minimum(a, b)[seg] <= hi)
                   & (np.maximum(a, b)[seg] >= lo)).all(axis=1)
        meets = geo.segments_meet_boxes(a[seg], b[seg], lo, hi)
        got = ref.occluded(tset, a, b, False)
    hit = ((ts > geo.RAY_EPS)
           & (ts < (length[seg] - geo.RAY_EPS)[:, None])).any(axis=1)
    assert (overlap & meets)[hit].all()
    assert got.tolist() == hit.reshape(len(a), -1).any(axis=1).tolist()
    for s, (box, inside) in grazes.items():
        pair = s * len(tset.chunks) + box
        assert overlap[pair] & meets[pair] == inside


def coplanar_segment(center, size, yaw, face, c):
    """A box and a segment in the plane of one of its faces, from
    ``v0 + c0 e1 + c1 e2`` to ``v0 + c2 e1 + c3 e2`` of the face's first
    triangle."""
    mesh = geo.box_mesh(center, size, yaw)
    v0, v1, v2 = mesh.tris[2 * face]
    e1, e2 = v1 - v0, v2 - v0
    return mesh, v0 + c[0] * e1 + c[1] * e2, v0 + c[2] * e1 + c[3] * e2


# A yawed box and a segment about 95 m from it in the plane of its +x face,
# found by a seeded scan: the kernel without the screen takes rounding
# noise for a determinant (|det| > 1e-14 on these large faces) and reports
# a hit.
FAR_COPLANAR = (
    (-2.851566808537198, 0.09088489827550816, 1.8531094016834126),
    (5.859272234349975, 15.892947260331045, 29.22166567332105),
    295.1897972604765, 1,
    (0.47271407331394144, 4.707257783015658, -3.545747517953023,
     4.244907723355972),
)


def test_the_unscreened_kernel_blocks_the_far_coplanar_example():
    mesh, a, b = coplanar_segment(*FAR_COPLANAR)
    assert reference_occluded([mesh], a, b)


@given(center=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
       size=st.tuples(*[st.floats(0.5, 30.0)] * 3),
       yaw=st.floats(0.0, 360.0), face=st.integers(0, 5),
       c=st.tuples(*[st.floats(-5.0, 5.0)] * 4))
@example(*FAR_COPLANAR)
def test_a_far_coplanar_segment_is_never_blocked(center, size, yaw, face, c):
    mesh, a, b = coplanar_segment(center, size, yaw, face, c)
    corners = mesh.tris.reshape(-1, 3)
    assume(np.any(np.minimum(a, b) > corners.max(axis=0) + 1e-3)
           or np.any(np.maximum(a, b) < corners.min(axis=0) - 1e-3))
    assert not ref.segment_occluded(geo.TriangleSet([("box", mesh)]), a, b)


def test_stl_binary_roundtrip_bit_exact():
    rng = np.random.default_rng(7)
    tris = rng.standard_normal((17, 3, 3)).astype(np.float32).astype(float)
    mesh = geo.Mesh(tris, material="brick")
    data = ref.write_stl(mesh)
    back = stl.parse_stl(data, material="brick")
    assert back.tris.shape == mesh.tris.shape
    assert np.array_equal(
        np.asarray(back.tris, np.float32), np.asarray(mesh.tris, np.float32)
    )


def test_stl_ascii_parse():
    text = b"""solid demo
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid demo
"""
    mesh = stl.parse_stl(text)
    assert mesh.tris.shape == (1, 3, 3)
    assert np.allclose(mesh.tris[0], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_stl_errors():
    with pytest.raises(stl.StlError):
        stl.parse_stl(b"")
    with pytest.raises(stl.StlError):
        # Header promises one triangle but payload is truncated.
        stl.parse_stl(b"\0" * 80 + (1).to_bytes(4, "little") + b"\0" * 10)
