import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamcam import camera as cam
from beamcam import geometry as geo
from beamcam import render
from beamcam.raytrace import SceneGeometry
from beamcam.scenario import BsConfig, CameraConfig

import reference as ref


def scene_of(named_meshes):
    return SceneGeometry(named_meshes, [], {})


def make_camera(yaw=90.0, hfov=90.0, width=1280, height=720,
                position=(0.0, 0.0, 6.0), pitch=0.0):
    bs = BsConfig(
        name="bs", position=position, boresight_deg=90.0, array_ref="a",
        camera=CameraConfig(width_px=width, height_px=height, hfov_deg=hfov,
                            yaw_deg=yaw, pitch_deg=pitch),
    )
    return cam.CameraModel.from_bs(bs)


def test_focal_length_from_hfov():
    c = make_camera(hfov=90.0, width=1280)
    assert c.fx == pytest.approx(640.0)
    c2 = make_camera(hfov=60.0, width=1280)
    assert c2.fx == pytest.approx(640.0 / math.tan(math.radians(30.0)))


def test_point_on_axis_projects_to_principal_point():
    c = make_camera()
    uv = ref.project_point(c, (0.0, 20.0, 6.0))
    assert uv == pytest.approx((640.0, 360.0))


def test_half_fov_edge_maps_to_cx_plus_fx():
    c = make_camera(yaw=90.0, hfov=90.0)
    # 45 degrees counterclockwise of the optical axis.
    az = math.radians(135.0)
    uv = ref.project_point(c, (20 * math.cos(az), 20 * math.sin(az), 6.0))
    assert uv[0] == pytest.approx(640.0 + 640.0, abs=1e-9)
    assert cam.pixel_to_azimuth(c, 1280.0) == pytest.approx(135.0)


def test_pixel_to_azimuth_round_trip():
    c = make_camera()
    for az in np.linspace(46.0, 134.0, 97):
        p = (30 * math.cos(math.radians(az)),
             30 * math.sin(math.radians(az)), 6.0)
        u, _ = ref.project_point(c, p)
        assert cam.pixel_to_azimuth(c, u) % 360.0 == pytest.approx(
            az, abs=1e-9)


def test_points_behind_camera_are_rejected():
    c = make_camera()
    assert ref.project_point(c, (0.0, -10.0, 6.0)) is None


def test_u_grows_with_counterclockwise_azimuth():
    c = make_camera()
    us = []
    for az in (70.0, 90.0, 110.0):
        p = (30 * math.cos(math.radians(az)),
             30 * math.sin(math.radians(az)), 6.0)
        us.append(ref.project_point(c, p)[0])
    assert us[0] < us[1] < us[2]


def test_project_bbox_contains_projected_vertices():
    c = make_camera()
    mesh = geo.box_mesh((0.0, 25.0, 1.0), (4.0, 2.0, 1.5))
    scene = scene_of([("car", mesh)])
    box = ref.project_bbox(c, mesh, scene, exclude=("car",))
    assert box is not None
    assert box.visibility == pytest.approx(1.0)
    for v in ref.unique_rows(mesh):
        u, vv = ref.project_point(c, v)
        assert box.u_min - 1e-9 <= u <= box.u_max + 1e-9
        assert box.v_min - 1e-9 <= vv <= box.v_max + 1e-9


def test_project_bbox_occluded_is_none():
    c = make_camera()
    mesh = geo.box_mesh((0.0, 25.0, 1.0), (4.0, 2.0, 1.5))
    wall = geo.box_mesh((0.0, 15.0, 10.0), (40.0, 0.5, 20.0))
    scene = scene_of([("car", mesh), ("wall", wall)])
    assert ref.project_bbox(c, mesh, scene, exclude=("car",)) is None


def test_project_bbox_partial_visibility():
    c = make_camera()
    mesh = geo.box_mesh((0.0, 25.0, 1.0), (4.0, 2.0, 1.5))
    # Wall hides the left half of the car.
    wall = geo.box_mesh((-10.0, 15.0, 10.0), (20.0, 0.5, 20.0))
    scene = scene_of([("car", mesh), ("wall", wall)])
    box = ref.project_bbox(c, mesh, scene, exclude=("car",))
    assert box is not None
    assert 0.0 < box.visibility < 1.0


def test_bbox_center_azimuth_tracks_los_aod():
    """Vision and wireless agree: bbox-center azimuth ~ LOS departure az."""
    c = make_camera()
    for x in np.linspace(-20.0, 20.0, 21):
        center = (x, 30.0, 0.7)
        mesh = geo.box_mesh(center, (4.4, 1.8, 1.4))
        box = ref.project_bbox(c, mesh)
        az_pix = cam.pixel_to_azimuth(c, ref.center_u(box)) % 360.0
        az_los = geo.azimuth_deg(np.array(center) - np.array([0.0, 0.0, 6.0]))
        assert az_pix == pytest.approx(az_los, abs=0.5)


def test_behind_and_out_of_fov_returns_none():
    c = make_camera()
    behind = geo.box_mesh((0.0, -25.0, 1.0), (4.0, 2.0, 1.5))
    assert ref.project_bbox(c, behind) is None


def ppm(img) -> bytes:
    """What ``write_ppm`` writes of img."""
    out = io.BytesIO()
    render.write_ppm(img, out)
    return out.getvalue()


# Pixels of rays inside a 160 x 90 image, zeros of both signs included.
PIXEL_U = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 159.5)
PIXEL_V = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 89.5)


@st.composite
def vertex_rays(draw):
    """(rays, counts, blocked): VertexRays of 1-5 meshes of 1-6 vertices,
    some behind the camera, with drawn pixels for the rays inside the
    image and drawn verdicts, one mesh possibly blocked whole."""
    c = make_camera(width=160, height=90)
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    ahead = np.array(draw(st.lists(st.booleans(), min_size=sum(counts),
                                   max_size=sum(counts))))
    forward = c.axes[0]
    points = np.asarray(c.position) \
        + np.where(ahead, 10.0, -10.0)[:, None] * forward
    rays = cam.VertexRays(c, points, counts)
    assert rays.mesh.tolist() == np.repeat(np.arange(len(counts)),
                                           counts)[ahead].tolist()
    # Every ray inside projects to the image centre; give each its own
    # pixel, so that equal minima and maxima, +0.0 and -0.0 among them,
    # are common.
    rays._uv = np.array([(draw(PIXEL_U), draw(PIXEL_V))
                         for _ in rays.mesh]).reshape(-1, 2)
    blocked = np.array([draw(st.booleans()) for _ in rays.mesh], bool)
    if draw(st.booleans()):
        blocked[rays.mesh == draw(st.integers(0, len(counts) - 1))] = True
    return rays, counts, blocked


def assert_boxes_are_one_mesh_boxes(rays, counts, blocked):
    got = rays.boxes(blocked)
    want = [ref.vertex_box(rays._uv[(rays.mesh == m) & ~blocked].tolist(),
                           count, (160.0, 90.0))
            for m, count in enumerate(counts)]
    # repr tells -0.0 from 0.0, which == does not.
    assert [repr(b) for b in got] == [repr(b) for b in want]


@given(vertex_rays())
def test_vertex_ray_boxes_equal_the_one_mesh_reference(case):
    assert_boxes_are_one_mesh_boxes(*case)


def test_vertex_ray_boxes_keep_the_first_of_equal_zero_pixels():
    c = make_camera(width=160, height=90)
    points = np.asarray(c.position) + 10.0 * c.axes[0] + np.zeros((7, 3))
    rays = cam.VertexRays(c, points, [2, 2, 2, 1])
    rays._uv = np.array([(-0.0, 3.0), (0.0, 3.0), (0.0, 3.0), (-0.0, 3.0),
                         (-0.0, -0.0), (-0.0, 0.0), (5.0, 5.0)])
    blocked = np.array([False] * 6 + [True])
    boxes = rays.boxes(blocked)
    assert repr(boxes[0].u_max) == "-0.0" and repr(boxes[1].u_max) == "0.0"
    assert repr(boxes[0].u_min) == repr(boxes[2].v_min) == "0.0"
    assert repr(boxes[2].v_max) == "-0.0"
    assert boxes[3] is None
    assert_boxes_are_one_mesh_boxes(rays, [2, 2, 2, 1], blocked)


def test_render_deterministic_and_well_formed():
    c = make_camera(width=160, height=90)
    meshes = [geo.box_mesh((0.0, 20.0, 1.0), (4.0, 2.0, 1.5),
                           material="metal"),
              geo.box_mesh((-8.0, 30.0, 5.0), (6.0, 6.0, 10.0),
                           material="brick")]
    scene = scene_of([("a", meshes[0]), ("b", meshes[1])])
    box = ref.project_bbox(c, meshes[0], scene, exclude=("a",))
    img1 = render.render_debug_frame(c, scene.tset, [box])
    img2 = render.render_debug_frame(c, scene.tset, [box])
    assert img1.shape == (90, 160, 3)
    assert img1.dtype == np.uint8
    assert np.array_equal(img1, img2)
    ppm1 = ppm(img1)
    assert ppm1.startswith(b"P6\n160 90\n255\n")
    assert len(ppm1) == len(b"P6\n160 90\n255\n") + 160 * 90 * 3
    # Something other than background was drawn.
    assert (img1 != np.array(render.BACKGROUND_RGB, np.uint8)).any()


# ---------------------------------------------------------------------------
# The array-pass renderer against the per-triangle reference

# "wood" has no entry in MATERIAL_RGB, so it is drawn in the fallback color.
_RENDER_MATERIAL = st.sampled_from(["metal", "concrete", "brick", "wood"])
_CAM_POS = np.array([0.0, 0.0, 6.0])


def camera_point(c, z, a, b):
    """The world point at depth z along the camera's forward axis and
    offsets a and b along its u and v axes."""
    forward, u_axis, v_axis = c.axes
    return _CAM_POS + z * forward + a * u_axis + b * v_axis


@st.composite
def loose_triangles(draw, c):
    """One triangle of a kind that the rasterizer treats apart: anywhere
    around the camera (across the image edges, off the image, or with a
    vertex behind the camera plane), with a repeated vertex (zero normal),
    or flat at the camera's height (all three vertices on one image row
    when pitch is 0, so det is 0 while the normal is not)."""
    kind = draw(st.sampled_from(["any", "repeated", "flat"]))
    coord = st.floats(-30.0, 30.0)
    if kind == "flat":
        return np.array([[draw(coord), draw(coord), 6.0] for _ in range(3)])
    tri = np.array([camera_point(c, draw(st.floats(-3.0, 30.0)),
                                 draw(coord), draw(coord))
                    for _ in range(3)])
    if kind == "repeated":
        tri[2] = tri[0]
    return tri


@st.composite
def render_inputs(draw):
    """A small camera, and an occluder table of 0-3 boxes and 0-4 meshes of
    loose triangles, the last of them perhaps repeated in another material
    (equal depths, bit for bit), plus a bounding box or none."""
    c = make_camera(yaw=draw(st.sampled_from([0.0, 90.0])
                             | st.floats(-180.0, 180.0)),
                    pitch=draw(st.just(0.0) | st.floats(-30.0, 30.0)),
                    hfov=draw(st.floats(20.0, 150.0)),
                    width=draw(st.integers(1, 40)),
                    height=draw(st.integers(1, 30)))
    meshes = [geo.box_mesh(camera_point(c, draw(st.floats(-5.0, 40.0)),
                                        draw(st.floats(-20.0, 20.0)),
                                        draw(st.floats(-5.0, 5.0))),
                           draw(st.tuples(*[st.floats(0.5, 10.0)] * 3)),
                           draw(st.floats(0.0, 90.0)),
                           draw(_RENDER_MATERIAL))
              for _ in range(draw(st.integers(0, 3)))]
    meshes += [geo.Mesh(draw(st.lists(loose_triangles(c), min_size=1,
                                      max_size=3)),
                        draw(_RENDER_MATERIAL), check=False)
               for _ in range(draw(st.integers(0, 4)))]
    if meshes and draw(st.booleans()):
        meshes.append(geo.Mesh(meshes[-1].tris, draw(_RENDER_MATERIAL),
                               check=False))
    tset = geo.TriangleSet([(f"m{i}", m) for i, m in enumerate(meshes)])
    edge = st.floats(-5.0, 45.0)
    bboxes = []
    if draw(st.booleans()):
        (u0, u1), (v0, v1) = (sorted([draw(edge), draw(edge)])
                              for _ in range(2))
        bboxes.append(cam.BoundingBox(u0, v0, u1, v1, 1.0))
    return c, tset, bboxes


@given(render_inputs())
def test_render_equals_the_per_triangle_reference(inputs):
    assert ppm(render.render_debug_frame(*inputs)) \
        == ppm(ref.render_debug_frame(*inputs))


def test_render_of_an_empty_table_is_background_only():
    c = make_camera(width=24, height=16)
    tset = geo.TriangleSet([])
    img = render.render_debug_frame(c, tset)
    assert (img == np.array(render.BACKGROUND_RGB, np.uint8)).all()
    assert np.array_equal(img, ref.render_debug_frame(c, tset))


@pytest.mark.parametrize("rise", [0.0, 1e-13])
def test_render_skips_an_edge_on_triangle(rise):
    """A triangle flat at the camera's height, seen at pitch 0, projects
    onto the image row v = cy = 7.5, a row of pixel centres: its det is 0
    though its normal is not. Raising one vertex by 1e-13 m makes |det|
    about 7e-13, still below 1e-12. Either way it draws nothing."""
    c = make_camera(yaw=0.0, width=21, height=15)
    tri = np.array([[10.0, -3.0, 6.0], [10.0, 3.0, 6.0],
                    [10.0, 0.0, 6.0 + rise]])
    tset = geo.TriangleSet([("flat", geo.Mesh(tri, "metal", check=False))])
    img = render.render_debug_frame(c, tset)
    assert (img == np.array(render.BACKGROUND_RGB, np.uint8)).all()
    assert np.array_equal(img, ref.render_debug_frame(c, tset))


@pytest.mark.parametrize("order", [[2, 0, 1], [0, 2, 1], [0, 1, 2]])
def test_render_fills_pixel_centres_on_an_edge(order):
    """An edge in the camera's vertical plane through its axis projects
    onto the column u = cx = 10.5 exactly, where the barycentric coordinate
    of the opposite vertex (w0, w1 or w2, by vertex order) is exactly 0 on
    the pixel centres of rows 4-9 at least: the inside test is closed, so
    they are filled."""
    c = make_camera(yaw=0.0, width=21, height=15)
    tri = np.array([[10.0, 0.0, 3.0], [12.0, 0.0, 10.0],
                    [10.0, 5.0, 6.0]])[order]
    tset = geo.TriangleSet([("t", geo.Mesh(tri, "metal"))])
    img = render.render_debug_frame(c, tset)
    assert np.array_equal(img, ref.render_debug_frame(c, tset))
    filled = (img[:, 10] != render.BACKGROUND_RGB).any(axis=1)
    assert filled.tolist() == [False] * 4 + [True] * 7 + [False] * 4


@pytest.mark.parametrize("first, second", [("metal", "brick"),
                                           ("brick", "metal")])
def test_render_paints_equal_depth_triangles_in_table_order(first, second):
    """Two overlapping triangles in one plane facing a yaw-0 camera have
    the same mean depth bit for bit; the later one in table order is
    painted over the earlier."""
    c = make_camera(yaw=0.0, width=32, height=24)
    tri = np.array([[10.0, -6.0, 0.0], [10.0, 6.0, 0.0], [10.0, 0.0, 12.0]])
    later = ("b", geo.Mesh(tri + [0.0, 1.0, 0.0], second))
    tset = geo.TriangleSet([("a", geo.Mesh(tri, first)), later])
    img = render.render_debug_frame(c, tset)
    assert np.array_equal(img, ref.render_debug_frame(c, tset))
    alone = render.render_debug_frame(c, geo.TriangleSet([later]))
    assert (alone[12, 16] != render.BACKGROUND_RGB).any()
    assert (img[12, 16] == alone[12, 16]).all()
