import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamcam import channel as ch
from beamcam import dataset as ds
from beamcam import geometry as geo
from beamcam import pipeline as pl
from beamcam import scenario as sc
from beamcam import selection as sel
from beamcam.camera import BoundingBox, CameraModel, pixel_to_azimuth
from beamcam.geometry import (CHUNK, KERNEL_PAIRS, RAY_EPS, Mesh, TriangleSet,
                              norms)

import reference as ref
from conftest import (MINIMAL_SCENARIO, REPO_ROOT,
                      assert_blocks_are_frames,
                      assert_frame_pass_is_one_receiver_calls,
                      small_scenarios)


def make_bbox(cu, cv, half=20.0):
    return BoundingBox(u_min=cu - half, v_min=cv - half,
                       u_max=cu + half, v_max=cv + half, visibility=1.0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        pl.DetectorNoiseModel(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        pl.DetectorNoiseModel(miss_prob=1.5)
    with pytest.raises(ValueError):
        pl.DetectorNoiseModel(seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        pl.DetectorNoiseModel(seed=1.5)


def test_activity_state():
    always = sc.UeConfig(name="u", size=(1, 1, 1))
    assert pl.activity_state(always, 0) == 1
    gated = sc.UeConfig(name="u", size=(1, 1, 1),
                        active_ranges=((0, 3), (10, 12)))
    assert [pl.activity_state(gated, f) for f in (0, 3, 4, 9, 10, 12, 13)] \
        == [1, 1, 0, 0, 1, 1, 0]


def detect_all(truth, model, frame):
    """``detect`` of each (UE index, box) pair in 1280 x 720, misses
    dropped."""
    dets = [ref.detect(i, b, model, frame, 1280, 720) for i, b in truth]
    return [d for d in dets if d is not None]


def test_detect_noiseless_is_identity():
    truth = [(0, make_bbox(300, 200)), (1, make_bbox(700, 400))]
    dets = detect_all(truth, pl.DetectorNoiseModel(), 5)
    assert len(dets) == len(truth)
    for (_, b), d in zip(truth, dets):
        assert (d.bbox.u_min, d.bbox.v_min, d.bbox.u_max, d.bbox.v_max) \
            == (b.u_min, b.v_min, b.u_max, b.v_max)


def test_detect_miss_prob_one_drops_everything():
    model = pl.DetectorNoiseModel(miss_prob=1.0, seed=3)
    assert ref.detect(0, make_bbox(300, 200), model, 0, 1280, 720) is None


def test_detect_deterministic_given_seed():
    truth = [(0, make_bbox(300, 200)), (1, make_bbox(700, 400))]
    model = pl.DetectorNoiseModel(pixel_sigma=4.0, miss_prob=0.3, seed=9)
    a = detect_all(truth, model, 17)
    b = detect_all(truth, model, 17)
    assert a == b
    # A different frame index gives a different stream.
    c = detect_all(truth, model, 18)
    assert a != c


def test_detect_jitter_preserves_box_size():
    model = pl.DetectorNoiseModel(pixel_sigma=6.0, seed=1)
    det = ref.detect(0, make_bbox(600, 300, half=25.0), model, 0, 1280, 720)
    assert det.bbox.u_max - det.bbox.u_min == pytest.approx(50.0)
    assert det.bbox.v_max - det.bbox.v_min == pytest.approx(50.0)
    assert (ref.center_u(det.bbox), ref.center_v(det.bbox)) != (600.0, 300.0)


def test_detect_clips_to_image():
    truth = [(0, make_bbox(2.0, 2.0, half=5.0))]
    model = pl.DetectorNoiseModel(pixel_sigma=50.0, seed=12)
    for frame in range(20):
        for det in detect_all(truth, model, frame):
            assert 0.0 <= det.bbox.u_min <= det.bbox.u_max <= 1280.0
            assert 0.0 <= det.bbox.v_min <= det.bbox.v_max <= 720.0


def camera_90():
    # 150 degrees wide, so every column the tests below use lies inside the
    # image, which select_beam clips to.
    return CameraModel.from_bs(sc.BsConfig(
        name="b", position=(0.0, 0.0, 6.0), boresight_deg=90.0,
        array_ref="a", camera=sc.CameraConfig(yaw_deg=90.0, hfov_deg=150.0),
    ))


def test_select_beam_bin_arithmetic():
    cam = camera_90()
    cb = ch.generate_codebook(8, 0.5, 4)
    # With boresight 90 the array-relative azimuth equals the world
    # azimuth, so world 120 falls in bin [90, 135) = 2, and so on.
    for az_world, expected in ((120.0, 2), (135.0, 3), (60.0, 1), (30.0, 0)):
        u = cam.cx + cam.fx * np.tan(np.radians(az_world - 90.0))
        idx, az = ref.select_beam(u - 0.5, u + 0.5, cam, cb,
                                  boresight_deg=90.0)
        assert idx == expected
        assert az % 360.0 == pytest.approx(az_world, abs=1e-9)


def test_select_beam_boundary_is_half_open():
    cam = camera_90()
    cb = ch.generate_codebook(8, 0.5, 4)
    # Array-relative exactly 45 degrees falls in bin 1 UNLESS jitter; the
    # bins are half-open [45, 90).
    u = cam.cx + cam.fx * np.tan(np.radians(45.0))  # world az 135 = rel 135
    idx, _ = ref.select_beam(u - 0.5, u + 0.5, cam, cb, boresight_deg=90.0)
    assert idx == 3  # rel azimuth 135 -> bin [135, 180)


def test_select_beam_clips_edges_to_the_image():
    cam = camera_90()
    cb = ch.generate_codebook(8, 0.5, 4)
    assert ref.select_beam(-80.0, 40.0, cam, cb, 90.0) \
        == ref.select_beam(0.0, 40.0, cam, cb, 90.0)
    w = cam.width_px
    assert ref.select_beam(w - 10.0, w + 90.0, cam, cb, 90.0) \
        == ref.select_beam(w - 10.0, float(w), cam, cb, 90.0)


def camera(hfov, width, boresight, yaw):
    return CameraModel.from_bs(sc.BsConfig(
        name="b", position=(0.0, 0.0, 6.0), boresight_deg=boresight,
        array_ref="a", camera=sc.CameraConfig(yaw_deg=yaw, hfov_deg=hfov,
                                              width_px=width)))


def checked_beam_edges(cam, cb, boresight, columns=()):
    """``BeamEdges`` of a camera, once it is seen to predict what
    ``column_index`` predicts at ``columns``, at both ends of the image (and
    -0.0), at ``cx`` and at both float neighbours of every edge, and to hold
    consecutive bins with None at one end at most. In the image,
    ``column_index`` is the reference ``select_beam`` of a zero-width box."""
    table = sel.BeamEdges(cam, cb, boresight)
    w = float(cam.width_px)
    columns = [*columns, 0.0, -0.0, w, cam.cx]
    for edge in table.edges:
        columns += [math.nextafter(edge, -math.inf),
                    math.nextafter(edge, math.inf)]
    want = [sel.column_index(c, cam, cb, boresight) for c in columns]
    assert table.lookup(np.array(columns)).tolist() \
        == [-1 if i is None else i for i in want]
    assert [i for c, i in zip(columns, want) if 0.0 <= c <= w] \
        == [ref.select_beam(c, c, cam, cb, boresight)[0]
            for c in columns if 0.0 <= c <= w]
    bins = [i for i in table.indices if i is not None]
    assert all(b == a + 1 for a, b in zip(bins, bins[1:]))
    assert table.indices.count(None) <= 1
    assert None not in table.indices[1:-1]
    return table


@given(hfov=st.floats(0.5, 179.5), width=st.integers(1, 4000),
       q=st.integers(1, 64), boresight=st.floats(0.0, 359.99),
       yaw=st.floats(-720.0, 720.0),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_beam_edges_equal_column_index(hfov, width, q, boresight, yaw,
                                       fractions):
    """The edge table predicts what ``column_index`` predicts at random
    columns, at both ends of the image, at ``cx`` and at both float
    neighbours of every edge, for a camera aimed anywhere."""
    checked_beam_edges(camera(hfov, width, boresight, yaw),
                       ch.generate_codebook(4, 0.5, q), boresight,
                       [f * width for f in fractions])


def turned(cam, column, az_world):
    """``cam`` turned so that ``column`` reads world azimuth ``az_world``
    exactly."""
    yaw = az_world - math.degrees(math.atan((column - cam.cx) / cam.fx))
    for _ in range(16):
        cam = dataclasses.replace(cam, yaw_deg=yaw)
        ahead = (pixel_to_azimuth(cam, column) - az_world + 180.0) % 360.0
        if ahead == 180.0:
            return cam
        yaw = math.nextafter(yaw, math.inf if ahead < 180.0 else -math.inf)
    raise AssertionError(f"no yaw reads {az_world} at column {column}")


@pytest.mark.parametrize("nudge", [-1, 0, 1])
@pytest.mark.parametrize("hfov, width, q, at, az_world", [
    (60.0, 640, 4, 0.0, 45.0),
    (60.0, 640, 4, 1.0, 135.0),
    (60.0, 640, 4, 0.5, 90.0),
    (179.5, 1, 64, 0.0, 5.625),
    (0.5, 4000, 64, 1.0, 112.5),
    (179.5, 3999, 16, 0.5, 157.5),
    # World azimuth wraps through 0 in the image (yaw within hfov/2 of 0).
    (60.0, 640, 4, 0.5, 0.0),
    (60.0, 640, 8, 0.3, 0.0),
    (179.5, 1280, 8, 0.9, 0.0),
    (0.5, 1280, 4, 1.0, 0.0),
    (60.0, 640, 4, 0.0, 0.0),
])
def test_beam_edges_with_a_bin_boundary_on_a_column(hfov, width, q, at,
                                                     az_world, nudge):
    """Boresight 90, so world and array-relative azimuth agree: the camera
    is turned so that column ``at * W`` (0, cx or W, or where world
    azimuth wraps) reads a bin boundary exactly, or one float of yaw
    either side of it."""
    column = at * width
    cam = turned(camera(hfov, width, 90.0, 0.0), column, az_world)
    if nudge:
        cam = dataclasses.replace(
            cam, yaw_deg=math.nextafter(cam.yaw_deg, nudge * math.inf))
    table = checked_beam_edges(cam, ch.generate_codebook(4, 0.5, q), 90.0)
    if nudge == 0:
        # Columns left of one that reads the boundary may read it too, so
        # the step into its bin lies at or left of the column.
        k = round(az_world * q / 180.0)
        assert table.lookup(np.array([column])).tolist() == [k]
        if column == 0.0:
            assert table.indices[0] == k
        else:
            assert table.indices[table.indices.index(k) - 1] \
                == (None if k == 0 else k - 1)


def test_beam_edges_of_the_shipped_camera(shipped_truth):
    sim, _ = shipped_truth
    table = sel.BeamEdges(sim.camera, sim.codebook, sim.bs.boresight_deg)
    # Q = 16 bins over [0, 180), of which the 90-degree camera sees 4-12.
    assert table.indices == list(range(4, 13))
    assert table.edges[3] == sim.camera.cx


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_noise_draws_are_the_list_seeded_stream(seed):
    rng = np.random.default_rng(7)
    frames = [0, *rng.integers(0, 2**40, 6).tolist()]
    ues = [0, *rng.integers(0, 64, 6).tolist()]
    for frame, ue in zip(frames, ues):
        assert pl.noise_draws(seed, frame, ue) \
            == ref.noise_draws(seed, frame, ue)


# Stream keys across the word boundaries of ``SeedSequence``'s entropy.
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**40, 2**64 + 3]


@given(seeds=st.lists(st.sampled_from(EDGE_KEYS) | st.integers(0, 2**70),
                      max_size=4),
       keys=st.lists(st.tuples(st.sampled_from(EDGE_KEYS)
                               | st.integers(0, 2**40),
                               st.sampled_from(EDGE_KEYS)
                               | st.integers(0, 64)), max_size=6))
def test_sweep_draws_are_the_noise_draws(seeds, keys):
    """The batched streams are ``noise_draws``' streams, cell for cell,
    whatever mix of entropy word counts (3 to 9) one call holds."""
    draws = pl.sweep_draws(seeds, keys)
    assert draws.shape == (len(seeds), len(keys), 2)
    assert [[tuple(cell) for cell in row] for row in draws.tolist()] \
        == [[pl.noise_draws(seed, frame, ue)[:2] for frame, ue in keys]
            for seed in seeds]


def test_sweep_draws_of_the_edge_keys():
    """One call over every edge seed and key mixes entropy lists of 3 to 8
    words; a call with no rows draws nothing."""
    keys = [(frame, ue) for frame in EDGE_KEYS for ue in EDGE_KEYS[:4]]
    draws = pl.sweep_draws(EDGE_KEYS, keys)
    assert draws.tolist() == [
        [list(pl.noise_draws(seed, frame, ue)[:2]) for frame, ue in keys]
        for seed in EDGE_KEYS]
    assert pl.sweep_draws(EDGE_KEYS, []).shape == (len(EDGE_KEYS), 0, 2)
    assert pl.sweep_draws([], keys).shape == (0, len(keys), 2)


def test_a_negative_seed_is_rejected(minimal_scenario):
    with pytest.raises(ValueError):
        pl.noise_draws(-1, 0, 0)
    with pytest.raises(ValueError):
        pl.sweep_draws([-1], [(0, 0)])
    # Even when no row is drawn.
    sim = pl.Simulator(minimal_scenario)
    with pytest.raises(ValueError):
        sim.sweep([], [0.0], [0, -1])


@pytest.mark.parametrize("key", [(1.5, 0, 0), (0, 1.5, 0), (0, 0, 1.5)],
                         ids=["seed", "frame", "ue"])
def test_a_float_stream_key_is_rejected(key):
    """A float is refused, not truncated to an int word."""
    seed, frame, ue = key
    with pytest.raises(ValueError, match="integer"):
        pl.noise_draws(seed, frame, ue)
    with pytest.raises(ValueError, match="integer"):
        pl.sweep_draws([seed], [(frame, ue)])


def test_sweep_checks_miss_prob_without_sigmas(minimal_scenario):
    sim = pl.Simulator(minimal_scenario)
    with pytest.raises(ValueError, match="miss_prob"):
        sim.sweep([], [], range(2), miss_prob=7.0)


def test_sweep_hashes_its_streams_in_the_array_pass(shipped_truth,
                                                    monkeypatch):
    """Seeds below 2**64 on the shipped truth draw no stream through
    ``noise_draws``; a seed of 3 entropy words draws every key through it."""
    sim, truth = shipped_truth
    calls = []
    draws = pl.noise_draws
    monkeypatch.setattr(pl, "noise_draws", lambda *key: (
        calls.append(key), draws(*key))[1])
    sim.sweep(truth, [0.0, 2.0], [*range(20), *range(2**32, 2**32 + 4)])
    assert calls == []
    keys = [(0, 0), (7, 2), (2**32 - 1, 1)]
    pl.sweep_draws([2**64 + 3], keys)
    assert calls == [(2**64 + 3, *key) for key in keys]


def test_sweep_draws_are_bit_identical_on_random_cells():
    """100,000 random (seed < 2**64, frame, UE) cells, one- and two-word
    seeds alike, are the reference streams bit for bit, with one normal and
    with two, so the sign of a zero counts."""
    rng = np.random.default_rng(28)
    seeds = [*rng.integers(0, 2**32, 50).tolist(),
             *rng.integers(0, 2**64, 50, dtype=np.uint64).tolist()]
    keys = list(zip(rng.integers(0, 2**32, 1000).tolist(),
                    [*rng.integers(0, 2**32, 500).tolist(),
                     *rng.integers(0, 64, 500).tolist()]))
    want = np.array([[ref.noise_draws(seed, frame, ue)
                      for frame, ue in keys] for seed in seeds])
    for normals in (1, 2):
        assert np.array_equal(
            pl.sweep_draws(seeds, keys, normals).view(np.uint64),
            want[..., :1 + normals].view(np.uint64))


def probed_tables():
    """The ziggurat tables ``sweep_draws`` reads, probed on its first call."""
    pl.sweep_draws([], [])
    return pl._ZIGGURAT[0][1:]


def path_class(r: int, kb: np.ndarray) -> str:
    """Where a normal draw whose first 64-bit output is ``r`` falls: on the
    one-output path of the lanes, or in one of the classes off it."""
    idx, rabs = r & 0xFF, r >> 9 & (1 << 52) - 1
    return ("idx0" if idx == 0 else "idx1" if idx == 1
            else "rabs_at_or_over_kb" if rabs >= kb[idx] else "fast")


# Shipped-sweep cells whose normal draw reads layer 0 (the tail), layer 1
# (threshold 0), and a layer >= 2 at or above its threshold: each falls back
# to numpy's own draw.
FALLBACK_KEYS = {"idx0": (1, 77, 0), "idx1": (0, 44, 1),
                 "rabs_at_or_over_kb": (0, 87, 1)}
# Shipped-truth cells whose z_u is on the one-output path and whose z_v
# falls in each class off it, where numpy's z_v is not the one-output value.
Z_V_FALLBACK_KEYS = {"idx0": (0, 240, 2), "idx1": (0, 88, 1),
                     "rabs_at_or_over_kb": (0, 124, 2)}


def test_each_fallback_class_is_numpys_own_draw():
    """Keys whose z_u, or only whose z_v, is off the one-output path are the
    reference draws; state words made to draw ``rabs = kb - 1`` at every
    layer >= 2 take the array pass, and ``rabs = kb`` or layers 0 and 1 do
    not, whether that output is z_u's or z_v's. The lanes give numpy's own
    ``standard_normal(1)`` or ``standard_normal(2)`` its starting state."""
    wi, kb = probed_tables()
    for name, (seed, frame, ue) in FALLBACK_KEYS.items():
        r = int(np.random.PCG64([seed, frame, ue]).random_raw(2)[1])
        assert path_class(r, kb) == name
        assert pl.sweep_draws([seed], [(frame, ue)])[0, 0].tolist() \
            == list(ref.noise_draws(seed, frame, ue)[:2])
    for name, (seed, frame, ue) in Z_V_FALLBACK_KEYS.items():
        _, r_u, r_v = np.random.PCG64([seed, frame, ue]).random_raw(3).tolist()
        assert (path_class(r_u, kb), path_class(r_v, kb)) == ("fast", name)
        want = ref.noise_draws(seed, frame, ue)
        assert pl.sweep_draws([seed], [(frame, ue)], 2)[0, 0].tolist() \
            == list(want)
        words = np.random.SeedSequence([seed, frame, ue]).generate_state(
            4, np.uint64)
        assert pl._pcg_draws(words[None], wi, kb, 2)[0][0, 2] != want[2]
    cells = [(idx, sign, rabs) for idx in range(256) for sign in (0, 1)
             for rabs in ((1,) if idx < 2 else (int(kb[idx]) - 1,
                                                int(kb[idx])))]
    rng = np.random.Generator(np.random.PCG64(0))
    for normals in (1, 2):
        words = np.array([ref.words_drawing(rabs << 9 | sign << 8 | idx,
                                            1 + normals)
                          for idx, sign, rabs in cells])
        draws, fast, lanes = pl._pcg_draws(words, wi, kb, normals)
        classes = [[path_class(r, kb) for r in np.random.PCG64(
            ref.SeedState(row)).random_raw(1 + normals)[1:].tolist()]
            for row in words]
        assert {tuple(c) for c in classes} >= {
            ("fast",) * (normals - 1) + (name,)
            for name in ("fast", *FALLBACK_KEYS)}
        assert fast.tolist() == [c == ["fast"] * normals for c in classes]
        for i, row in enumerate(words):
            want = np.random.Generator(np.random.PCG64(ref.SeedState(row)))
            assert draws[i, 0] == want.random()
            z = want.standard_normal(normals).tolist()
            assert draws[i, 1:].tolist() == z or not fast[i]
            hi, lo, inc_hi, inc_lo = (int(lane[i]) for lane in lanes)
            assert pl._numpy_normal(rng, hi << 64 | lo, inc_hi << 64 | inc_lo,
                                    normals).tolist() == z


def test_kb_is_at_or_below_numpys_exact_thresholds():
    """At every layer, every ``rabs`` below ``kb`` is a one-output draw:
    numpy's threshold, found by binary search over probes, is at least
    ``kb``. Every layer from 2 up has a live fast path."""
    _, kb = probed_tables()
    thresholds = [ref.ziggurat_threshold(idx) for idx in range(256)]
    assert all(int(k) <= t for k, t in zip(kb, thresholds))
    assert kb[:2].tolist() == [0, 0] and (kb[2:] > 0).all()


def test_detect_jitter_is_linear_in_sigma():
    """One draw per (seed, frame, UE) serves every sigma: on an unclipped
    box, the jitter at 2 sigma is exactly twice the jitter at sigma."""
    box = make_bbox(640.0, 360.0, half=20.0)
    for seed in range(5):
        _, z_u, z_v = pl.noise_draws(seed, 11, 2)
        du, dv = z_u * 1.5, z_v * 1.5
        assert (du, dv) != (0.0, 0.0)
        for sigma, scale in ((1.5, 1.0), (3.0, 2.0)):
            model = pl.DetectorNoiseModel(pixel_sigma=sigma, seed=seed)
            det = ref.detect(2, box, model, 11, 1280, 720).bbox
            assert (det.u_min, det.v_min, det.u_max, det.v_max) == (
                box.u_min + scale * du, box.v_min + scale * dv,
                box.u_max + scale * du, box.v_max + scale * dv)


def exported(records):
    out = io.StringIO()
    ds.export_records(records, out)
    return out.getvalue()


@given(small_scenarios())
def test_apply_detector_is_the_one_row_reference(scenario):
    """The one ``detected_boxes`` pass gives, row for row, what the
    reference detects and predicts one row at a time."""
    sim = pl.Simulator(scenario)
    truth = sim.run_truth()
    for seed in (0, 2**32, 2**64 + 3):
        for sigma, miss_prob in ((0.0, 0.0), (5.0, 0.1), (20.0, 1.0),
                                 (300.0, 0.3)):
            model = pl.DetectorNoiseModel(sigma, miss_prob, seed)
            assert sim.apply_detector(truth, model) \
                == ref.apply_detector(sim, truth, model)


def leading_rows(truth, n):
    """The fewest leading frames of ``truth`` that hold ``n`` rows the
    detector sees (active, with a box), any row after the n-th made
    inactive."""
    out = []
    for rec in truth:
        ues = []
        for u in rec.ues:
            if u.active and u.bbox is not None:
                if n:
                    n -= 1
                else:
                    u = dataclasses.replace(u, active=0)
            ues.append(u)
        out.append(dataclasses.replace(rec, ues=tuple(ues)))
        if not n:
            return out
    raise ValueError("truth has too few rows")


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_apply_detector_is_the_reference_on_the_shipped_truth(
        shipped_truth, seed, monkeypatch):
    """One frame, one row below ``LANE_CELLS``, exactly ``LANE_CELLS`` rows
    and all 300 frames are the one-row reference, bit for bit (``repr``
    shows the sign of a zero, which sigma 0 keeps). Below ``LANE_CELLS``
    every row is one ``noise_draws`` call; from it on, a seed below 2**64
    makes none."""
    sim, truth = shipped_truth
    calls = []
    draws = pl.noise_draws
    monkeypatch.setattr(pl, "noise_draws", lambda *key: (
        calls.append(key), draws(*key))[1])
    for part in (truth[:1], leading_rows(truth, pl.LANE_CELLS - 1),
                 leading_rows(truth, pl.LANE_CELLS), truth):
        rows = sum(bool(u.active and u.bbox) for rec in part for u in rec.ues)
        for sigma, miss_prob in ((0.0, 0.0), (2.0, 0.0), (20.0, 0.3)):
            model = pl.DetectorNoiseModel(sigma, miss_prob, seed)
            calls.clear()
            records = sim.apply_detector(part, model)
            want = ref.apply_detector(sim, part, model)
            assert records == want and repr(records) == repr(want)
            assert len(calls) == (rows if rows < pl.LANE_CELLS
                                  or seed >= 2**64 else 0)


def test_apply_detector_keeps_a_negative_zero_edge(minimal_scenario):
    """At sigma 0 a negative z draw jitters by -0.0, and an edge of -0.0
    stays -0.0 through the clip, as Python's ``max(-0.0, 0.0)`` keeps it:
    the dataset writes the sign."""
    sim = pl.Simulator(minimal_scenario)
    truth = sim.run_truth()[:1]
    model = pl.DetectorNoiseModel(seed=2)
    _, z_u, z_v = pl.noise_draws(2, 0, 0)
    assert z_u < 0.0 and z_v < 0.0
    box = BoundingBox(u_min=-5.0, v_min=-3.0, u_max=-0.0, v_max=-0.0,
                      visibility=0.5)
    truth = [dataclasses.replace(truth[0], ues=(dataclasses.replace(
        truth[0].ues[0], active=1, bbox=box),))]
    records = sim.apply_detector(truth, model)
    assert records == ref.apply_detector(sim, truth, model)
    det = records[0].ues[0].detection.bbox
    assert [math.copysign(1.0, x) for x in
            (det.u_min, det.v_min, det.u_max, det.v_max)] \
        == [1.0, 1.0, -1.0, -1.0]
    assert exported(records) == exported(ref.apply_detector(sim, truth,
                                                            model))
    # The truth box and its detection.
    assert exported(records).count('"u_max": -0.0') == 2


def test_apply_detector_with_no_row_to_detect(minimal_scenario):
    """No records, or no row that is both active and boxed: every
    detection field is None."""
    sim = pl.Simulator(minimal_scenario)
    model = pl.DetectorNoiseModel(2.0, 0.1, 3)
    assert sim.apply_detector([], model) == []
    truth = [dataclasses.replace(rec, ues=tuple(
        dataclasses.replace(u, active=0) if rec.frame % 2 else
        dataclasses.replace(u, bbox=None) for u in rec.ues))
        for rec in sim.run_truth()]
    records = sim.apply_detector(truth, model)
    assert records == truth
    assert all((u.detection, u.predicted_index, u.predicted_azimuth_deg)
               == (None, None, None) for rec in records for u in rec.ues)


def assert_sweep_is_apply_detector_and_evaluate(shipped_truth, seeds,
                                                miss_prob):
    sim, truth = shipped_truth
    sigmas = [0.0, 2.0, 7.5]
    accs = sim.sweep(truth, sigmas, seeds, miss_prob)
    assert accs == [[ds.evaluate(sim.apply_detector(
        truth, pl.DetectorNoiseModel(sigma, miss_prob, seed))).top1_accuracy
        for seed in seeds] for sigma in sigmas]
    assert len({acc for row in accs for acc in row}) > 1


@pytest.mark.parametrize("miss_prob", [0.0, 0.3])
def test_sweep_matches_apply_detector_and_evaluate(shipped_truth, miss_prob):
    assert_sweep_is_apply_detector_and_evaluate(shipped_truth, range(4),
                                                miss_prob)


@pytest.mark.parametrize("miss_prob", [0.0, 0.3])
def test_sweep_matches_apply_detector_at_multiword_seeds(shipped_truth,
                                                         miss_prob):
    """Seeds of one, two and three entropy words in one sweep."""
    assert_sweep_is_apply_detector_and_evaluate(
        shipped_truth, [2**32 - 1, 2**32, 2**64 + 3], miss_prob)


def test_sweep_without_eligible_rows_scores_zero(minimal_scenario):
    sim = pl.Simulator(minimal_scenario)
    assert sim.sweep(sim.run_truth(), [0.0, 4.0], range(2), 1.0) \
        == [[0.0, 0.0], [0.0, 0.0]]


def test_simulator_end_to_end_minimal(minimal_scenario):
    records = ref.run_simulation(minimal_scenario)
    assert len(records) == 10
    for i, rec in enumerate(records):
        assert rec.frame == i
        assert len(rec.ues) == 1
        u = rec.ues[0]
        assert u.active == 1
        assert u.bbox is not None
        assert not u.outage
        assert u.detection is not None
        assert u.predicted_index is not None
        # Noiseless, LOS-dominated: prediction is the oracle beam or, at
        # bin edges where the argmax boundary shifts, its neighbor.
        assert abs(u.predicted_index - u.optimal_index) <= 1
        assert u.beam_snrs_db[u.optimal_index] == max(u.beam_snrs_db)
    matches = sum(r.ues[0].predicted_index == r.ues[0].optimal_index
                  for r in records)
    assert matches >= 8


def test_simulator_truth_detector_split(minimal_scenario):
    sim = pl.Simulator(minimal_scenario)
    truth = sim.run_truth()
    r1 = sim.apply_detector(truth, pl.DetectorNoiseModel(pixel_sigma=2.0))
    r2 = sim.apply_detector(truth, pl.DetectorNoiseModel(pixel_sigma=2.0))
    assert r1 == r2
    # Truth fields are untouched by the detector stage.
    for t, r in zip(truth, r1):
        for tu, ru in zip(t.ues, r.ues):
            assert tu.paths == ru.paths
            assert tu.optimal_index == ru.optimal_index


def test_inactive_ue_is_gated(minimal_scenario):
    text = MINIMAL_SCENARIO.replace("keyframe = 0",
                                    "active = 5-9\nkeyframe = 0")
    records = ref.run_simulation(sc.parse_scenario(text))
    for rec in records:
        u = rec.ues[0]
        if rec.frame < 5:
            assert u.active == 0
            assert u.detection is None
            assert u.predicted_index is None
        else:
            assert u.active == 1
            assert u.predicted_index is not None


def test_synchronization_invariant(minimal_scenario):
    """Within a record the bbox and channel derive from one UE position."""
    sim = pl.Simulator(minimal_scenario)
    cam = sim.camera
    for rec in sim.run_truth():
        u = rec.ues[0]
        los = [p for p in u.paths if p.bounces == 0]
        if not los or u.bbox is None:
            continue
        # Recompute LOS AoD from the stored position.
        d = np.asarray(u.position) - np.asarray(sim.bs.position)
        az_pos = np.degrees(np.arctan2(d[1], d[0])) % 360.0
        assert az_pos == pytest.approx(los[0].aod_az_deg % 360.0, abs=1e-12)
        az_pix = pixel_to_azimuth(cam, ref.center_u(u.bbox))
        assert abs((az_pix - az_pos + 180.0) % 360.0 - 180.0) < 0.5


def test_outage_iff_empty_paths(shipped_truth):
    sim, truth = shipped_truth
    outages = 0
    for rec in truth:
        for u in rec.ues:
            if not u.active:
                continue
            assert u.outage == (len(u.paths) == 0)
            if u.outage:
                outages += 1
                assert u.optimal_index is None
                assert u.beam_snrs_db is None
    assert outages >= 1


def test_frame_truth_builds_no_mesh_after_the_first_frame(shipped_scenario,
                                                          monkeypatch):
    system = dataclasses.replace(shipped_scenario.system,
                                 frames=pl.TRUTH_BLOCK)
    sim = pl.Simulator(dataclasses.replace(shipped_scenario, system=system),
                       base_dir=REPO_ROOT)
    sim.frame_truth(0)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Mesh, "__init__", counting("Mesh", Mesh.__init__))
    monkeypatch.setattr(np, "unique", counting("unique", np.unique))
    monkeypatch.setattr(pl.Simulator, "frame_scene",
                        counting("frame_scene", pl.Simulator.frame_scene))
    for frame in (1, pl.TRUTH_BLOCK - 1):
        sim.frame_truth(frame)
    # One block of the run.
    assert len(sim.run_truth()) == pl.TRUTH_BLOCK
    # Frames and blocks move the UE rows of one table: they build no mesh,
    # no vertex set and no per-frame snapshot.
    assert calls == {}


def pair_counting(calls):
    """A ``geometry._hit_ts`` that checks the screen's call shape, one ray
    against one chunk per pair, given as a row of the kernel's v0, e1 and
    e2 arrays, and at most KERNEL_PAIRS pairs a call, and appends the pair
    count to ``calls``."""
    hit_ts = geo._hit_ts

    def counting(kernel, origins, directions):
        pairs = len(origins)
        assert origins.shape == directions.shape == (pairs, 1, 3)
        assert kernel.shape == (pairs, 3, CHUNK, 3)
        assert 0 < pairs <= KERNEL_PAIRS
        calls.append(pairs)
        return hit_ts(kernel, origins, directions)
    return counting


def slices(pairs):
    """The pair counts of the kernel calls of one occlusion pass that keeps
    ``pairs`` pairs: full slices of KERNEL_PAIRS, then the rest. A pass
    that keeps no pair makes no call."""
    full, rest = divmod(pairs, KERNEL_PAIRS)
    return [KERNEL_PAIRS] * full + [rest] * (rest > 0)


def test_occlusion_is_one_kernel_pass_per_trace_and_bbox(shipped_scenario,
                                                         monkeypatch):
    pairs, segments = [], []
    segments_occluded = TriangleSet.segments_occluded

    def counting_segments(tset, a, b, ignore, table):
        segments.append(len(a))
        return segments_occluded(tset, a, b, ignore, table)

    def per_segment(*args, **kwargs):
        raise AssertionError("occlusion tested one segment at a time")

    monkeypatch.setattr(geo, "_hit_ts", pair_counting(pairs))
    monkeypatch.setattr(TriangleSet, "segments_occluded", counting_segments)
    monkeypatch.setattr(ref, "segment_occluded", per_segment)
    sim = pl.Simulator(shipped_scenario, base_dir=REPO_ROOT)
    sysp = shipped_scenario.system
    bs = np.asarray(sim.bs.position, float)
    traces = traced = bbox_passes = 0
    for frame in range(0, sysp.frames, 20):
        scene, positions = sim.frame_scene(frame)
        tset = scene.tset
        one_receiver = 0
        for ue in shipped_scenario.ues:
            pairs.clear()
            segments.clear()
            ref.trace_paths(scene, bs, positions[ue.name],
                            sysp.max_reflections, sysp.carrier_ghz,
                            exclude=(ue.name,))
            # One occlusion pass per trace, its kept pairs (maybe none) in
            # slices.
            assert len(segments) == 1
            assert pairs == slices(sum(pairs))
            traces += 1
            traced += segments[0]
            one_receiver += sum(pairs)
            pairs.clear()
            mesh = Mesh(tset.tris[tset.owners == tset.names.index(ue.name)])
            ref.project_bbox(sim.camera, mesh, scene, exclude=(ue.name,))
            assert pairs == slices(sum(pairs))
            bbox_passes += len(pairs) > 0
            one_receiver += sum(pairs)
        pairs.clear()
        before = sim.stats["occlusion_pairs"]
        sim.frame_truth(frame)
        # Every UE's LOS, chain hops and vertex rays in one kernel pass,
        # whose pairs are the one-receiver calls' pairs and the count.
        assert pairs == slices(one_receiver)
        assert sim.stats["occlusion_pairs"] - before == one_receiver
    # The one pass per trace carries reflected hops too, not just LOS.
    assert traced > traces
    assert bbox_passes > 0


# Each frame's sha256 of ``export_records([frame_truth(f)])`` at
# max_reflections 4, as perfbench/pin.py pins all 300 of them
# (deep_order4_frame_sha256).
GOLDENS = REPO_ROOT / "perfbench" / "goldens.json"


def test_order4_frames_are_bit_identical(shipped_scenario):
    pinned = json.loads(GOLDENS.read_text(encoding="utf-8"))[
        "deep_order4_frame_sha256"]
    system = dataclasses.replace(shipped_scenario.system, max_reflections=4)
    sim = pl.Simulator(dataclasses.replace(shipped_scenario, system=system),
                       base_dir=REPO_ROOT)
    digests = {}
    for rec in sim.run_truth():
        buf = io.StringIO()
        ds.export_records([rec], buf)
        digests[str(rec.frame)] = hashlib.sha256(
            buf.getvalue().encode()).hexdigest()
    assert len(pinned) == shipped_scenario.system.frames
    assert digests == pinned
    assert sim.stats["paths_kept.b3"] > 0


# ---------------------------------------------------------------------------
# The frame pass against the one-receiver calls

def with_sections(text, *sections):
    return text + "".join("\n" + section for section in sections)


NO_REFLECTORS = with_sections(
    MINIMAL_SCENARIO.replace("""[reflector wall]
center = 0, 40, 5
size = 30, 1, 10
material = concrete
""", ""), """[ue van]
size = 5, 2, 2.5
keyframe = 0 : 8, 35, 1.25
keyframe = 9 : -8, 35, 1.25
""")
# Two UEs whose boxes overlap on every frame.
OVERLAPPING = with_sections(MINIMAL_SCENARIO, """[ue car2]
size = 6, 1, 3
keyframe = 0 : -10, 26, 1.5
keyframe = 9 : 10, 26, 1.5
""")
# A UE behind the camera, which looks along +y.
BEHIND = with_sections(MINIMAL_SCENARIO, """[ue behind]
size = 4, 2, 1.5
keyframe = 0 : -5, -20, 0.75
keyframe = 9 : 5, -20, 0.75
""")


@pytest.mark.parametrize("text", [NO_REFLECTORS, OVERLAPPING, BEHIND],
                         ids=["no_reflectors", "overlapping", "behind"])
def test_frame_pass_matches_one_receiver_calls(text):
    sim = pl.Simulator(sc.parse_scenario(text))
    for frame in range(sim.scenario.system.frames):
        assert_frame_pass_is_one_receiver_calls(sim, frame)
    assert sim.stats["receivers_traced"] == 10 * len(sim.scenario.ues)


def test_overlapping_boxes_each_ignore_only_their_own():
    sim = pl.Simulator(sc.parse_scenario(OVERLAPPING))
    alone = pl.Simulator(sc.parse_scenario(MINIMAL_SCENARIO))
    # The other body hides part of the car, and blocks some of its paths.
    recs = [sim.frame_truth(f).ues[0] for f in range(10)]
    solo = [alone.frame_truth(f).ues[0] for f in range(10)]
    assert [r.ue_name for r in recs] == ["car"] * 10
    assert any(r.bbox is None or r.bbox.visibility < s.bbox.visibility
               for r, s in zip(recs, solo))
    assert sum(len(r.paths) for r in recs) < sum(len(s.paths) for s in solo)


def test_ue_behind_the_camera_has_no_box_but_has_paths():
    sim = pl.Simulator(sc.parse_scenario(BEHIND))
    for frame in range(10):
        behind = sim.frame_truth(frame).ues[0]
        assert behind.ue_name == "behind"
        assert behind.bbox is None and behind.paths
    assert sim.stats["boxes_visible"] == 10


@pytest.mark.parametrize("order", [0, 3])
def test_frame_pass_matches_one_receiver_calls_at_order(shipped_scenario,
                                                       order):
    system = dataclasses.replace(shipped_scenario.system,
                                 max_reflections=order)
    sim = pl.Simulator(dataclasses.replace(shipped_scenario, system=system),
                       base_dir=REPO_ROOT)
    for frame in (0, 30, 150, 299):
        assert_frame_pass_is_one_receiver_calls(sim, frame)
    for key in ("pairs_tested", "chains_valid"):
        assert sorted(k for k in sim.stats if k.startswith(key)) \
            == [f"{key}.o{k}" for k in range(1, order + 1)]


def test_ue_at_the_bs_is_an_outage_row_next_to_traced_ues(shipped_scenario):
    # Sorted first by name, so the traced UEs are not the first rows.
    text = with_sections(sc.serialize_scenario(shipped_scenario), """\
[ue a_at_bs]
size = 0.5, 0.5, 0.5
keyframe = 0 : 0, 0, 6
keyframe = 100 : 0, 10, 6
""")
    sim = pl.Simulator(sc.parse_scenario(text), base_dir=REPO_ROOT)
    at_bs, *others = assert_frame_pass_is_one_receiver_calls(sim, 0).ues
    assert at_bs.ue_name == "a_at_bs"
    assert at_bs.outage and at_bs.paths == ()
    # Its body, around the BS and the camera, hides and blocks nothing.
    alone = pl.Simulator(shipped_scenario, base_dir=REPO_ROOT).frame_truth(0)
    assert tuple(others) == alone.ues
    # Away from the BS it is traced like the others.
    assert not assert_frame_pass_is_one_receiver_calls(sim, 100).ues[0].outage
    assert sim.stats["receivers_traced"] == 3 + 4


# ---------------------------------------------------------------------------
# Truth over blocks of frames

def test_run_truth_equals_frame_truth_on_the_shipped_scenario(shipped_truth):
    sim, truth = shipped_truth
    assert_blocks_are_frames(sim.scenario, truth, sim.stats)


@pytest.mark.parametrize("block", [3, 8, pl.TRUTH_BLOCK])
def test_run_truth_equals_frame_truth_when_blocks_do_not_divide_the_frames(
        monkeypatch, block):
    scenario = sc.parse_scenario(OVERLAPPING)
    assert scenario.system.frames % block
    monkeypatch.setattr(pl, "TRUTH_BLOCK", block)
    sim = pl.Simulator(scenario)
    assert_blocks_are_frames(scenario, sim.run_truth(), sim.stats)


def test_run_truth_equals_frame_truth_with_a_ue_at_the_bs_in_part_of_a_block(
        shipped_scenario):
    # At the BS on frames 0-2 only, then driving away from it.
    text = with_sections(sc.serialize_scenario(shipped_scenario), """\
[ue a_at_bs]
size = 0.5, 0.5, 0.5
keyframe = 0 : 0, 0, 6
keyframe = 2 : 0, 0, 6
keyframe = 12 : 0, 10, 6
""")
    scenario = sc.parse_scenario(text)
    system = dataclasses.replace(scenario.system,
                                 frames=2 * pl.TRUTH_BLOCK + 1)
    scenario = dataclasses.replace(scenario, system=system)
    sim = pl.Simulator(scenario, base_dir=REPO_ROOT)
    truth = sim.run_truth()
    assert [r.ues[0].outage for r in truth[:pl.TRUTH_BLOCK]] \
        == [True] * 3 + [False] * (pl.TRUTH_BLOCK - 3)
    assert_blocks_are_frames(scenario, truth, sim.stats)


def test_run_truth_is_one_kernel_pass_per_block(shipped_scenario,
                                                monkeypatch):
    calls, blocks = [], []
    segments_occluded = TriangleSet.segments_occluded

    def per_block(tables, *args):
        calls.clear()
        blocked, pairs = segments_occluded(tables, *args)
        blocks.append((pairs, list(calls)))
        return blocked, pairs

    monkeypatch.setattr(geo, "_hit_ts", pair_counting(calls))
    monkeypatch.setattr(TriangleSet, "segments_occluded", per_block)
    sim = pl.Simulator(shipped_scenario, base_dir=REPO_ROOT)
    frames = range(shipped_scenario.system.frames)
    sim.run_truth()
    # One occlusion pass per block, whose kept pairs go to the kernel in
    # ceil(kept / KERNEL_PAIRS) calls, and the stats count them all.
    assert len(blocks) == len(range(0, len(frames), pl.TRUTH_BLOCK))
    assert len(blocks) < len(frames)
    assert all(got == slices(kept) for kept, got in blocks)
    assert sum(kept for kept, _ in blocks) == sim.stats["occlusion_pairs"] > 0
    # The blocks' pairs do not fit one slice.
    assert max(len(got) for _, got in blocks) > 1


def test_run_truth_does_not_depend_on_how_the_work_is_cut(shipped_scenario,
                                                          monkeypatch):
    """Blocks of 1, 8 or 300 frames (the whole run) or the default, kernel
    slices of 1 pair, 7 pairs or the default: the same exported bytes and
    the same stats."""
    default, runs = (pl.TRUTH_BLOCK, KERNEL_PAIRS), {}
    assert shipped_scenario.system.frames == 300
    for block in (1, 8, pl.TRUTH_BLOCK, 300):
        for kernel_pairs in (1, 7, KERNEL_PAIRS):
            monkeypatch.setattr(pl, "TRUTH_BLOCK", block)
            monkeypatch.setattr(geo, "KERNEL_PAIRS", kernel_pairs)
            sim = pl.Simulator(shipped_scenario, base_dir=REPO_ROOT)
            out = io.StringIO()
            ds.export_records(sim.run_truth(), out)
            runs[block, kernel_pairs] = out.getvalue(), sim.stats
    assert all(run == runs[default] for run in runs.values())


def test_run_truth_working_set_is_bounded(shipped_scenario):
    """The shipped run's traced working set, its ``tracemalloc`` peak less
    the records it keeps, stays under 1 MB, as the kernel's share is capped
    by its slices. (8-frame blocks with one kernel call each took 0.66 MB;
    32-frame blocks with one call each took 2.5 MB.)"""
    sim = pl.Simulator(shipped_scenario, base_dir=REPO_ROOT)
    tracemalloc.start()
    try:
        truth = sim.run_truth()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(truth) == shipped_scenario.system.frames
    assert peak - retained < 1_000_000


@pytest.mark.parametrize("frame", [0, 150, 299])
def test_frame_scene_table_is_the_truth_pass_table(shipped_scenario, frame):
    """The one-frame table of ``frame_scene``, which the debug render draws,
    holds the kernel row and box of every chunk that the truth pass's stack
    keeps for that frame, as bytes, sign bits included; its triangles are
    the unmoved ones plus each UE's offset."""
    sim = pl.Simulator(shipped_scenario, base_dir=REPO_ROOT)
    tset = sim.frame_scene(frame)[0].tset
    unmoved = sim._scene.tset
    pos = sim._tracks.at([frame])
    stack = unmoved.moved(sim._first, pos)
    assert (tset.names, tset.materials) == (stack.names, stack.materials)
    assert tset.owners.tolist() == stack.owners.tolist()
    for got, want in ((tset.kernel[tset.rows], stack.kernel[stack.rows[0]]),
                      (tset.box[tset.rows], stack.box[stack.rows[0]]),
                      (tset.tris, ref.moved_tris(unmoved, sim._first,
                                                 pos)[0])):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert not tset.tris.flags.writeable


def test_chunked_kernel_equals_the_full_table_bit_for_bit(shipped_scenario,
                                                         monkeypatch):
    """Every hit distance of every (live segment, chunk) pair of the
    shipped run's blocks, kept by the screen or not, equals the distance of
    the segment against its whole frame table, compared with ==."""
    blocks, stacks = [], []
    segments_occluded = TriangleSet.segments_occluded
    moved = TriangleSet.moved

    def moving(tset, first, offsets):
        stack = moved(tset, first, offsets)
        stacks.append((stack, ref.moved_tris(tset, first, offsets)))
        return stack

    def capturing(tables, a, b, ignore, table):
        blocks.append((tables, a, b, table))
        return segments_occluded(tables, a, b, ignore, table)

    monkeypatch.setattr(TriangleSet, "moved", moving)
    monkeypatch.setattr(TriangleSet, "segments_occluded", capturing)
    pl.Simulator(shipped_scenario, base_dir=REPO_ROOT).run_truth()
    assert len(blocks) == len(range(0, shipped_scenario.system.frames,
                                    pl.TRUTH_BLOCK))
    cells = 0
    for tables, a, b, table in blocks:
        d = b - a
        length = norms(d)
        live = length > 2 * RAY_EPS
        a, table = a[live], table[live]
        directions = d[live] / length[live, None]
        # One row of the whole frame table per segment, its kernel arrays
        # taken triangle by triangle from the moved triangles.
        tris = next(t for stack, t in stacks if stack is tables)[table]
        whole = np.stack([tris[..., 0, :],
                          tris[..., 1, :] - tris[..., 0, :],
                          tris[..., 2, :] - tris[..., 0, :]], axis=1)
        want = geo._hit_ts(whole, a[:, None], directions[:, None])[:, 0]
        seg, chunk = np.divmod(np.arange(len(a) * len(tables.chunks)),
                               len(tables.chunks))
        got = geo._hit_ts(tables.kernel[tables.rows[table[seg], chunk]],
                          a[seg, None], directions[seg, None])[:, 0]
        assert np.array_equal(got, want[seg[:, None], tables.chunks[chunk]])
        cells += got.size
    # 9,681 segments by 72 triangles, less the few no longer than 2 RAY_EPS.
    assert cells > 600_000
