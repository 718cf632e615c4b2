import cmath
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from beamcam import geometry as geo
from beamcam import raytrace as rt
from beamcam import pipeline as pl
from beamcam import scenario as sc
from beamcam.pipeline import Simulator

import reference as ref
from conftest import REPO_ROOT, small_scenarios


def wall_scene(material="metal", amp_table=None):
    """A single wall at y=5 spanning x in [-20, 20], z in [0, 10]."""
    center = (0.0, 5.0, 5.0)
    size = (40.0, 0.5, 10.0)
    mesh = geo.box_mesh(center, size, material=material)
    return rt.SceneGeometry([("wall", mesh)], [(center, size, 0.0, material)],
                            amp_table or {"metal": 0.95})


def test_wall_scene_paths():
    scene = wall_scene()
    tx = ref.vec3(-5.0, 0.0, 2.0)
    rx = ref.vec3(5.0, 0.0, 2.0)
    paths = ref.trace_paths(scene, tx, rx, max_reflections=1, carrier_ghz=28.0)
    assert [p.bounces for p in paths] == [0, 1]
    los, bounce = paths
    assert los.length_m == pytest.approx(10.0, abs=1e-12)
    # Image method: reflect rx across the wall front plane (y = 4.75).
    expected = np.linalg.norm(np.array([5.0, 2 * 4.75, 2.0]) - tx)
    assert bounce.length_m == pytest.approx(expected, abs=1e-9)


def test_reflection_law_on_wall():
    scene = wall_scene()
    tx = ref.vec3(-3.0, 1.0, 2.0)
    rx = ref.vec3(7.0, 2.0, 4.0)
    paths = ref.trace_with_points(scene, tx, rx, max_reflections=1,
                                  carrier_ghz=28.0)
    a, m, b = [pts for p, pts in paths if p.bounces == 1][0]
    n = np.array([0.0, -1.0, 0.0])  # wall front face normal
    d_in = ref.normalize(m - a)
    d_out = ref.normalize(b - m)
    # Angle of incidence equals angle of reflection.
    assert abs((-d_in) @ n - d_out @ n) < 1e-12
    # Incident, reflected and normal are coplanar.
    assert abs(np.cross(-d_in + d_out, n) @ d_in) < 1e-12


def test_path_gain_and_delay_formulas():
    carrier = 28.0
    lam = rt.C_LIGHT / (carrier * 1e9)
    p = ref.compute_path_component(
        [ref.vec3(0, 0, 0), ref.vec3(10, 0, 0)], [], carrier
    )
    assert abs(p.gain) == pytest.approx(lam / (4 * math.pi * 10.0),
                                        rel=1e-12)
    assert p.delay_s == pytest.approx(10.0 / rt.C_LIGHT, abs=1e-18)
    expected_phase = -2 * math.pi * 10.0 / lam
    wrapped = (np.angle(p.gain) - expected_phase + math.pi) % (2 * math.pi)
    assert wrapped - math.pi == pytest.approx(0.0, abs=1e-6)


def test_reflection_multiplies_amplitude():
    carrier = 28.0
    pts = [ref.vec3(0, 0, 0), ref.vec3(0, 5, 0), ref.vec3(0, 10, 0)]
    direct = ref.compute_path_component(pts, [1.0], carrier)
    bounced = ref.compute_path_component(pts, [0.6], carrier)
    assert abs(bounced.gain) == pytest.approx(0.6 * abs(direct.gain),
                                              rel=1e-12)
    assert bounced.delay_s == direct.delay_s


def test_gain_decreases_with_distance():
    carrier = 28.0
    gains = [
        abs(ref.compute_path_component(
            [ref.vec3(0, 0, 0), ref.vec3(d, 0, 0)], [], carrier).gain)
        for d in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(a > b for a, b in zip(gains, gains[1:]))
    # Doubling distance halves amplitude (quarters power).
    assert gains[0] / gains[1] == pytest.approx(2.0, rel=1e-12)


def test_reciprocity():
    scene = wall_scene()
    tx = ref.vec3(-4.0, 1.0, 3.0)
    rx = ref.vec3(6.0, 2.0, 1.0)
    fwd = ref.trace_paths(scene, tx, rx, max_reflections=2, carrier_ghz=28.0)
    rev = ref.trace_paths(scene, rx, tx, max_reflections=2, carrier_ghz=28.0)
    assert len(fwd) == len(rev)
    for a, b in zip(fwd, rev):
        assert a.length_m == pytest.approx(b.length_m, abs=1e-9)
        assert abs(a.gain) == pytest.approx(abs(b.gain), rel=1e-12)
        assert a.aod_az_deg == pytest.approx(b.aoa_az_deg, abs=1e-9)


def test_blocked_scene_is_outage():
    wall = geo.box_mesh((0.0, 5.0, 5.0), (40.0, 0.5, 10.0), material="metal")
    # Slab across the x=0 plane: every tx->rx path must cross it.
    blocker = geo.box_mesh((0.0, 2.5, 2.0), (0.5, 30.0, 20.0),
                           material="concrete")
    scene = rt.SceneGeometry(
        [("wall", wall), ("blocker", blocker)],
        [((0.0, 5.0, 5.0), (40.0, 0.5, 10.0), 0.0, "metal")],
        {"metal": 0.95, "concrete": 0.6},
    )
    paths = ref.trace_paths(scene, ref.vec3(-5, 0, 2), ref.vec3(5, 0, 2),
                           max_reflections=2, carrier_ghz=28.0)
    assert paths == []


def test_exclude_prevents_self_occlusion():
    wall = geo.box_mesh((0.0, 5.0, 5.0), (40.0, 0.5, 10.0), material="metal")
    body = geo.box_mesh((5.0, 0.0, 2.0), (4.0, 2.0, 1.5), material="metal")
    scene = rt.SceneGeometry(
        [("wall", wall), ("car", body)],
        [((0.0, 5.0, 5.0), (40.0, 0.5, 10.0), 0.0, "metal")],
        {"metal": 0.95},
    )
    rx = ref.vec3(5.0, 0.0, 2.0)  # center of the car body
    tx = ref.vec3(-5.0, 0.0, 2.0)
    blocked = ref.trace_paths(scene, tx, rx, 1, 28.0)
    assert blocked == []  # rx is inside its own mesh
    open_paths = ref.trace_paths(scene, tx, rx, 1, 28.0, exclude=("car",))
    assert [p.bounces for p in open_paths] == [0, 1]


def test_aod_aoa_angles_on_bounce():
    scene = wall_scene()
    tx = ref.vec3(-5.0, 0.0, 2.0)
    rx = ref.vec3(5.0, 0.0, 2.0)
    bounce, points = ref.trace_with_points(scene, tx, rx, 1, 28.0)[1]
    # Departure heads toward +x/+y at 45 degrees (reflection point at x=0).
    mx = points[1]
    assert mx[0] == pytest.approx(0.0, abs=1e-9)
    assert bounce.aod_az_deg == pytest.approx(
        geo.azimuth_deg(mx - tx), abs=1e-12)
    assert bounce.aoa_az_deg == pytest.approx(
        geo.azimuth_deg(mx - rx), abs=1e-12)


def test_second_order_paths_exist_in_corner():
    # Two perpendicular walls form a corner reflector.
    w1c, w1s = (0.0, 10.0, 5.0), (40.0, 0.5, 10.0)
    w2c, w2s = (10.0, 0.0, 5.0), (0.5, 40.0, 10.0)
    scene = rt.SceneGeometry(
        [("w1", geo.box_mesh(w1c, w1s)), ("w2", geo.box_mesh(w2c, w2s))],
        [(w1c, w1s, 0.0, "metal"), (w2c, w2s, 0.0, "metal")],
        {"metal": 0.95},
    )
    paths = ref.trace_with_points(scene, ref.vec3(-5, -5, 2),
                                  ref.vec3(-5, 5, 2), max_reflections=2,
                                  carrier_ghz=28.0)
    orders = sorted(p.bounces for p, _ in paths)
    assert 0 in orders and 1 in orders and 2 in orders
    # Every path's segments add up to its reported length.
    for p, pts in paths:
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        assert p.length_m == pytest.approx(seg, abs=1e-9)


# ---------------------------------------------------------------------------
# The prefix table against the full enumeration it replaced

def reference_order(refl, tx, order):
    """Every order-``order`` face sequence without two coplanar faces in a
    row, in lexicographic order, with its tx images: no front-side pruning."""
    nfaces = refl.center.shape[0]
    seqs = [seq for seq in itertools.product(range(nfaces), repeat=order)
            if not any(refl.coplanar[a, b] for a, b in zip(seq, seq[1:]))]
    seqs = np.array(seqs, dtype=int).reshape(len(seqs), order)
    images = np.empty((order + 1, seqs.shape[0], 3))
    images[0] = tx
    for j in range(order):
        f = seqs[:, j]
        n = refl.normal[f]
        d = np.einsum("ij,ij->i", images[j] - refl.center[f], n)
        images[j + 1] = images[j] - 2.0 * d[:, None] * n
    return seqs, images


def reference_prefixes(refl, tx, max_order):
    return [reference_order(refl, tx, k) for k in range(1, max_order + 1)]


def reference_trace(scene, tx, rx, order, carrier_ghz, exclude=()):
    """``trace_paths`` with neither the tx-side nor the receiver-side
    pruning: every coplanar-free face sequence, each order backtracked on
    its own by ``reference.candidate_chains``."""
    return ref.trace_paths(
        scene, tx, rx, order, carrier_ghz, exclude,
        prefixes=reference_prefixes(scene.reflectors, tx, order),
        candidates=ref.oracle_candidates)


def at_order(scenario, order):
    return dataclasses.replace(scenario, system=dataclasses.replace(
        scenario.system, max_reflections=order))


def shipped_simulator(scenario, order):
    return Simulator(at_order(scenario, order), base_dir=REPO_ROOT)


@pytest.mark.parametrize("order,frames", [
    (1, (0, 75, 150, 225, 299)),
    (2, (0, 75, 150, 225, 299)),
    (3, (0, 150, 299)),
    (4, (60, 150)),
])
def test_pruned_paths_equal_full_enumeration(shipped_scenario, order, frames):
    sim = shipped_simulator(shipped_scenario, order)
    bs = np.asarray(sim.bs.position, float)
    carrier = shipped_scenario.system.carrier_ghz
    for frame in frames:
        scene, positions = sim.frame_scene(frame)
        for name, pos in positions.items():
            args = (scene, bs, pos, order, carrier)
            got = ref.trace_paths(*args, exclude=(name,))
            assert got == reference_trace(*args, exclude=(name,))


_coord = st.floats(-15.0, 15.0, allow_nan=False)
_point = st.tuples(_coord, _coord, st.floats(0.0, 8.0, allow_nan=False))
_box = st.tuples(
    _point,
    st.tuples(*[st.floats(0.5, 12.0, allow_nan=False)] * 3),
    st.floats(0.0, 90.0, allow_nan=False),
)
_unit = st.floats(-1.0, 1.0, allow_nan=False)
# (face of the first box, in-plane coordinates, height above the face,
# log-uniform from just above RAY_EPS to 1 m)
_near_face = st.tuples(st.integers(0, 5), _unit, _unit,
                       st.floats(-5.9, 0.0).map(lambda e: 10.0 ** e))


def _near(refl, near):
    """The point at ``near`` = (face, in-plane coordinates, height) of the
    first box."""
    k, s, t, height = near
    return (refl.center[k] + s * refl.hu[k] * refl.u[k]
            + t * refl.hv[k] * refl.v[k] + height * refl.normal[k])


# tx 3 um in front of the +x face: its one-bounce path off that face is
# valid, so a pruning bound above RAY_EPS would lose it.
@example(boxes=[((0.0, 0.0, 2.0), (4.0, 4.0, 4.0), 0.0)], tx=(0.0, 0.0, 0.0),
         rx=(10.0, 3.0, 2.0), near=(1, 0.0, 0.0, 3e-6), near_rx=None,
         order=2, occluders=False)
# The same for rx, where the receiver-side bound is tightest.
@example(boxes=[((0.0, 0.0, 2.0), (4.0, 4.0, 4.0), 0.0)], tx=(10.0, 3.0, 2.0),
         rx=(0.0, 0.0, 0.0), near=None, near_rx=(1, 0.0, 0.0, 3e-6),
         order=2, occluders=False)
@given(boxes=st.lists(_box, min_size=1, max_size=3), tx=_point, rx=_point,
       near=st.none() | _near_face, near_rx=st.none() | _near_face,
       order=st.integers(1, 3), occluders=st.booleans())
def test_pruned_paths_equal_full_enumeration_random_boxes(
        boxes, tx, rx, near, near_rx, order, occluders):
    meshes = [(f"b{i}", geo.box_mesh(c, size, yaw))
              for i, (c, size, yaw) in enumerate(boxes)] if occluders else []
    scene = rt.SceneGeometry(
        meshes, [(c, size, yaw, "metal") for c, size, yaw in boxes],
        {"metal": 0.9})
    # tx or rx just in front of a face, where the pruning bounds of that
    # end are tightest.
    if near is not None:
        tx = _near(scene.reflectors, near)
    if near_rx is not None:
        rx = _near(scene.reflectors, near_rx)
    tx, rx = np.array(tx), np.array(rx)
    assume(not np.allclose(tx, rx))
    # Both directions on one scene.
    for a, b in ((tx, rx), (rx, tx)):
        assert ref.trace_paths(scene, a, b, order, 28.0) \
            == reference_trace(scene, a, b, order, 28.0)


def assert_chains_equal_oracle(refl, tx, rxs, prefixes):
    """``Candidates(...).chains`` equal those of
    ``reference.oracle_candidates`` order by order: the same receivers,
    face sequences and points, in the same order, of the same dtypes, and
    bit for bit, the sign of zero included."""
    got = rt.Candidates(refl, tx, rxs, prefixes).chains
    want = ref.oracle_candidates(refl, tx, rxs, prefixes).chains
    assert len(got) == len(want) == len(prefixes) + 1
    for order, (a, b) in enumerate(zip(got, want)):
        for x, y in zip(a, b):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), order
            assert x.tobytes() == y.tobytes(), order


# Two boxes meeting in a corner, and a 2-bounce chain off the +y face at
# y = 0, then the -x face at x = 0, 2 um above y = 0, to an rx 3 um in
# front of it. The rx image through the -x face is only about 2 um in front
# of the +y face: a receiver-side bound above RAY_EPS would lose the chain.
@example(boxes=[((0.0, -1.0, 2.0), (20.0, 2.0, 4.0), 0.0),
                ((1.0, 5.0, 2.0), (2.0, 10.0, 4.0), 0.0)],
         tx=(-15.0, 4e-6, 2.0), rxs=[(-3e-6, 2e-6, 2.0)], near=None,
         near_rx=None, order=2)
@given(boxes=st.lists(_box, min_size=1, max_size=3), tx=_point,
       rxs=st.lists(_point, min_size=1, max_size=4),
       near=st.none() | _near_face, near_rx=st.none() | _near_face,
       order=st.integers(1, 4))
def test_chains_equal_the_per_order_oracle_random_boxes(
        boxes, tx, rxs, near, near_rx, order):
    refl = rt.SceneGeometry(
        [], [(c, size, yaw, "metal") for c, size, yaw in boxes],
        {"metal": 0.9}).reflectors
    if near is not None:
        tx = _near(refl, near)
    rxs = np.array(rxs)
    if near_rx is not None:
        rxs[0] = _near(refl, near_rx)
    tx = np.array(tx)
    assert_chains_equal_oracle(refl, tx, rxs,
                               rt.prefix_table(refl, tx, order))


_graze = st.floats(-1.0, 1.0).map(lambda t: t * rt._CONTAIN_TOL)


@st.composite
def ledge_scenes(draw):
    """(reflectors, tx, receivers): a street between two long walls, the
    street and walls yawed together, and maybe one more yawed box. Each box
    ends or starts at one height h, and tx and most receivers stand in the
    street at h to within ``_CONTAIN_TOL``. A chain from a face below h to a
    face above it (or the other way) then passes both faces within
    ``_CONTAIN_TOL`` of their edges at h, where the beam test's margin
    decides. A receiver may instead sit within ``_CONTAIN_TOL`` of a face
    edge or corner, 1 um to 1 m in front of the face."""
    h = draw(st.floats(1.0, 6.0))
    yaw = draw(st.floats(0.0, 90.0))
    turn = geo.rot_z_deg(yaw)
    width = draw(st.floats(2.0, 12.0))

    def box(x, y, size, box_yaw):
        """A box at (x, y) in the street's frame, its top or bottom at h."""
        z = h + draw(st.sampled_from([-0.5, 0.5])) * size[2]
        return (tuple(turn @ (x, y, 0.0) + (0.0, 0.0, z)), size, box_yaw,
                "metal")

    height = st.floats(0.5, 8.0)
    boxes = []
    for side in (-1.0, 1.0):
        depth = draw(st.floats(0.5, 2.0))
        boxes.append(box(draw(st.floats(-5.0, 5.0)),
                         side * (width + depth) / 2.0,
                         (draw(st.floats(10.0, 40.0)), depth, draw(height)),
                         yaw))
    if draw(st.booleans()):
        boxes.append(box(draw(st.floats(-15.0, 15.0)),
                         draw(st.floats(-15.0, 15.0)),
                         (draw(st.floats(0.5, 12.0)),
                          draw(st.floats(0.5, 12.0)), draw(height)),
                         draw(st.floats(0.0, 90.0))))
    refl = rt.SceneGeometry([], boxes, {"metal": 0.9}).reflectors
    street = st.builds(
        lambda x, y, dz: tuple(turn @ (x, y, 0.0) + (0.0, 0.0, h + dz)),
        st.floats(-8.0, 8.0), st.floats(-0.45, 0.45).map(lambda y: y * width),
        _graze)
    edge = st.builds(
        lambda k, s, t, ds, dt, lift: tuple(
            refl.center[k] + (s * refl.hu[k] + ds) * refl.u[k]
            + (t * refl.hv[k] + dt) * refl.v[k] + lift * refl.normal[k]),
        st.integers(0, len(refl.center) - 1), st.sampled_from([-1.0, 1.0]),
        _unit, _graze, _graze, st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e))
    rxs = draw(st.lists(street | edge, min_size=1, max_size=4))
    return refl, np.array(draw(street)), np.array(rxs)


@given(ledge_scenes(), st.integers(2, 4))
def test_beam_pruned_table_keeps_every_valid_chain(scene, order):
    """The chains that ``Candidates`` backtracks from the beam-pruned
    ``prefix_table`` equal those from the unpruned table of every
    coplanar-free face sequence (``reference_prefixes``): the same
    receivers, face sequences and points, order by order, bit for bit."""
    refl, tx, rxs = scene
    got = rt.Candidates(refl, tx, rxs, rt.prefix_table(refl, tx, order))
    want = rt.Candidates(refl, tx, rxs, rt.PrefixTable(
        reference_prefixes(refl, tx, order)))
    for a, b in zip(got.chains, want.chains, strict=True):
        for x, y in zip(a, b):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("order", [4, 5])
def test_chains_equal_the_per_order_oracle_shipped(shipped_scenario, order):
    """Every UE of four frames as the receivers of one candidate pass."""
    sim = shipped_simulator(shipped_scenario, order)
    rxs = np.concatenate([list(sim.frame_scene(frame)[1].values())
                          for frame in (0, 30, 150, 299)])
    assert_chains_equal_oracle(sim._scene.reflectors,
                               np.asarray(sim.bs.position, float), rxs,
                               sim._prefixes)


def test_prefix_table_built_once_per_simulator_and_lazily(shipped_scenario):
    with mock.patch.object(pl, "prefix_table",
                           wraps=pl.prefix_table) as build:
        sim = shipped_simulator(shipped_scenario, 3)
        assert build.call_count == 0
        for frame in (0, 100, 200):
            sim.frame_truth(frame)
        assert build.call_count == 1
    # Rows that survive from the BS, of 18, 294, 4812 coplanar-free ones
    # (7, 44, 254 without the beam test).
    table = sim._prefixes
    assert [seqs.shape[0] for seqs, _ in table] == [7, 19, 49]
    # Counted once per table, not once per frame.
    assert [sim.stats[f"prefix_rows.o{k}"] for k in (1, 2, 3)] == [7, 19, 49]


# ---------------------------------------------------------------------------
# Properties of every traced (frame, UE) of small scenarios

# Drawn scenarios can be thin on reflected paths, so each property also
# runs on a corner of two walls, with 2-bounce paths, and a UE straight
# below the BS, whose LOS path is vertical.
CORNER = sc.parse_scenario("""\
[system]
frames = 4
carrier_ghz = 28
max_reflections = 2

[array a0]
elements_n = 8

[bs pole]
position = 0, 0, 6
boresight_deg = 90
array = a0

[reflector north]
center = 0, 40, 5
size = 60, 1, 10
material = concrete

[reflector east]
center = 25, 20, 5
size = 1, 60, 10
material = metal

[ue car]
size = 4.4, 1.8, 1.4
keyframe = 0 : -10, 25, 0.7
keyframe = 3 : 10, 25, 0.7

[ue below]
size = 1, 1, 1
keyframe = 0 : 0, 0, 1
""")


def _angle_gap(a, b):
    """Degrees between two azimuths in [0, 360), across the wrap."""
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _is_reversed(fwd_pair, rev_pair):
    """Whether the (path, points) pair ``rev_pair`` is ``fwd_pair`` traced
    from its receiver back to its transmitter: the same bounces, length
    within 1e-9 m, the points in reverse order, departure and arrival
    angles swapped and the same complex gain."""
    (fwd, fwd_points), (rev, rev_points) = fwd_pair, rev_pair
    return (rev.bounces == fwd.bounces
            and abs(rev.length_m - fwd.length_m) <= 1e-9
            and np.allclose(rev_points[::-1], fwd_points, rtol=0.0,
                            atol=1e-9)
            and _angle_gap(rev.aoa_az_deg, fwd.aod_az_deg) <= 1e-9
            and _angle_gap(rev.aod_az_deg, fwd.aoa_az_deg) <= 1e-9
            and abs(rev.aoa_el_deg - fwd.aod_el_deg) <= 1e-9
            and abs(rev.aod_el_deg - fwd.aoa_el_deg) <= 1e-9
            and cmath.isclose(rev.gain, fwd.gain, rel_tol=1e-9))


@example(CORNER)
@given(small_scenarios())
def test_paths_are_reciprocal(scenario):
    """Tracing each traced (frame, UE) from the UE back to the BS gives the
    truth pass's BS-to-UE paths, each one reversed, and no other path. The
    polylines come from ``trace_with_points`` both ways, whose BS-to-UE
    paths are the truth pass's."""
    sim = Simulator(scenario)
    bs = np.asarray(sim.bs.position, float)
    system = scenario.system
    for rec in sim.run_truth():
        scene, positions = sim.frame_scene(rec.frame)
        at_bs = tuple(name for name, pos in positions.items()
                      if geo.same_point(bs, pos))
        for u in rec.ues:
            if u.ue_name in at_bs:
                continue
            exclude = (u.ue_name,) + at_bs
            forward = ref.trace_with_points(
                scene, bs, positions[u.ue_name], system.max_reflections,
                system.carrier_ghz, exclude=exclude)
            assert [p for p, _ in forward] == list(u.paths)
            unmatched = ref.trace_with_points(
                scene, positions[u.ue_name], bs, system.max_reflections,
                system.carrier_ghz, exclude=exclude)
            for fwd in forward:
                match = [i for i, rev in enumerate(unmatched)
                         if _is_reversed(fwd, rev)]
                assert match, (rec.frame, u.ue_name, fwd[0])
                del unmatched[match[0]]
            assert unmatched == []


@example(at_order(CORNER, 1))
@example(CORNER)
@given(small_scenarios())
def test_a_higher_reflection_order_keeps_every_path(scenario):
    """Raising the reflection order from k to k + 1 only adds (k + 1)-bounce
    paths: each (frame, UE)'s paths of at most k bounces are exactly its
    order-k paths, every field equal to the last bit."""
    k = scenario.system.max_reflections
    low, high = (Simulator(at_order(scenario, order)).run_truth()
                 for order in (k, k + 1))
    for lo, hi in zip(low, high, strict=True):
        for a, b in zip(lo.ues, hi.ues, strict=True):
            assert [p for p in b.paths if p.bounces <= k] == list(a.paths)


def _rigidly_moved(scenario, shift=(0.0, 0.0, 0.0), turns=0):
    """The scenario turned ``turns`` quarter turns counterclockwise about the
    z axis, then shifted by ``shift``: positions, reflector yaws, BS
    boresight, camera yaw and camera offset. A quarter turn is exact in
    floats; UE boxes have no yaw, so an odd turn swaps their x and y
    sizes."""
    def turn(p):
        x, y, z = p
        for _ in range(turns):
            x, y = -y, x
        return x, y, z

    def move(p):
        return tuple(a + b for a, b in zip(turn(p), shift))

    def yaw(deg):
        return (deg + 90.0 * turns) % 360.0

    def size(s):
        return (s[1], s[0], s[2]) if turns % 2 else s

    r = dataclasses.replace
    return r(
        scenario,
        bss=tuple(r(bs, position=move(bs.position),
                    boresight_deg=yaw(bs.boresight_deg),
                    camera=r(bs.camera, yaw_deg=yaw(bs.camera.yaw_deg),
                             position_offset=turn(bs.camera.position_offset)))
                  for bs in scenario.bss),
        reflectors=tuple(r(refl, center=move(refl.center),
                           yaw_deg=yaw(refl.yaw_deg))
                         for refl in scenario.reflectors),
        ues=tuple(r(ue, size=size(ue.size),
                    keyframes=tuple((f, move(p)) for f, p in ue.keyframes))
                  for ue in scenario.ues))


def _verdicts(records):
    """Each (frame, UE) row's discrete verdicts: whether it has a box, its
    visibility, the bounce counts of its paths and its optimal index."""
    return {(rec.frame, u.ue_name): (
        u.bbox and u.bbox.visibility, sorted(p.bounces for p in u.paths),
        u.optimal_index) for rec in records for u in rec.ues}


def _rows_near_a_bound(scenario):
    """The (frame, UE) rows with a verdict within rounding of its bound:
    those whose best beam has a rival within 1e-7 dB (a gain that moves by
    rel 1e-9 moves an SNR by under 1e-8 dB), and those of which some
    verdict changes when the BS, with its camera, moves by RAY_EPS along
    any axis. Drawn examples have shown:
    - two beams of equal SNR (a path at endfire has the same gain in
      mirror-image beams), where the first argmax may change;
    - a box vertex projecting onto an image edge (a UE at the BS whose
      square box puts its corners at +-45 degrees);
    - a path leaving the BS within rounding of vertical, whose azimuth,
      the only angle the channel steers by, comes from a horizontal offset
      that a shift of the coordinates rounds away.
    """
    truth = Simulator(scenario).run_truth()
    near = {(rec.frame, u.ue_name) for rec in truth for u in rec.ues
            if not u.outage and sum(
                s >= u.beam_snrs_db[u.optimal_index] - 1e-7
                for s in u.beam_snrs_db) > 1}
    base = _verdicts(truth)
    bs, *others = scenario.bss
    for step in np.vstack([np.eye(3), -np.eye(3)]) * geo.RAY_EPS:
        nudged = dataclasses.replace(bs, position=tuple(bs.position + step))
        rows = _verdicts(Simulator(dataclasses.replace(
            scenario, bss=(nudged, *others))).run_truth())
        near |= {row for row, verdict in rows.items() if verdict != base[row]}
    return near


def _same_paths(a, b):
    """Whether two lists of paths match one to one, with equal bounces and
    gains and delays within rel 1e-9."""
    unmatched = list(b)
    for p in a:
        match = [q for q in unmatched if q.bounces == p.bounces
                 and math.isclose(q.delay_s, p.delay_s, rel_tol=1e-9)
                 and cmath.isclose(q.gain, p.gain, rel_tol=1e-9)]
        if not match:
            return False
        unmatched.remove(match[0])
    return not unmatched


def _same_box(a, b):
    """Whether two boxes (or None) have pixels within 1e-6 and the same
    visibility."""
    if a is None or b is None:
        return a is b
    return a.visibility == b.visibility and np.allclose(
        [a.u_min, a.v_min, a.u_max, a.v_max],
        [b.u_min, b.v_min, b.u_max, b.v_max], rtol=0.0, atol=1e-6)


def assert_rigid_motion_keeps_truth(scenario, moved):
    """Every (frame, UE) row of ``moved``'s truth pass equals that of
    ``scenario``: the same paths (``_same_paths``), the same box
    (``_same_box``) and the same optimal index. A row that differs must be
    one of ``_rows_near_a_bound``, which the failure message lists."""
    differ = {}
    for ra, rb in zip(Simulator(scenario).run_truth(),
                      Simulator(moved).run_truth(), strict=True):
        for a, b in zip(ra.ues, rb.ues, strict=True):
            if not (_same_paths(a.paths, b.paths) and _same_box(a.bbox, b.bbox)
                    and a.optimal_index == b.optimal_index):
                differ[ra.frame, a.ue_name] = (a, b)
    if differ:
        near = _rows_near_a_bound(scenario)
        assert differ.keys() <= near, (
            {row: differ[row] for row in differ.keys() - near}, near)


@example(CORNER, (-731.25, 412.0, 3.5))
@given(small_scenarios(), st.tuples(*[st.floats(-1e3, 1e3)] * 3))
def test_translation_keeps_truth(scenario, shift):
    """Shifting the BS, every reflector and every UE keyframe by one vector
    changes no path, box or optimal beam (see
    ``assert_rigid_motion_keeps_truth``)."""
    assert_rigid_motion_keeps_truth(
        scenario, _rigidly_moved(scenario, shift=shift))


@example(CORNER, 1)
@example(CORNER, 2)
@example(CORNER, 3)
@given(small_scenarios(), st.integers(1, 3))
def test_quarter_turns_keep_truth(scenario, turns):
    """Turning the whole scenario by quarter turns about z, with the BS
    boresight and camera yaw, changes no path, box or optimal beam (see
    ``assert_rigid_motion_keeps_truth``)."""
    assert_rigid_motion_keeps_truth(
        scenario, _rigidly_moved(scenario, turns=turns))
