import math

import numpy as np
import pytest

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
    for v in mesh.vertices():
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
    ppm1 = render.write_ppm(img1)
    assert ppm1.startswith(b"P6\n160 90\n255\n")
    assert len(ppm1) == len(b"P6\n160 90\n255\n") + 160 * 90 * 3
    # Something other than background was drawn.
    assert (img1 != np.array(render.BACKGROUND_RGB, np.uint8)).any()
