import pathlib

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st

from beamcam import scenario as sc
from beamcam.geometry import Mesh, same_point
from beamcam.pipeline import Simulator
from reference import project_bbox, trace_paths

# Property tests draw the same examples on every run and never time out on a
# slow host; the example cap keeps them to a few seconds of the suite. There
# is no shrink phase: shrinking a failing small-scenario example grew the
# process to gigabytes without finishing, so a failure reports the example
# as drawn.
settings.register_profile("beamcam", derandomize=True, deadline=None,
                          max_examples=40, database=None,
                          phases=(Phase.explicit, Phase.reuse,
                                  Phase.generate, Phase.target))
settings.load_profile("beamcam")

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED_SCENARIO = REPO_ROOT / "scenarios" / "urban_three_cars.txt"


MINIMAL_SCENARIO = """\
[system]
frames = 10
carrier_ghz = 28

[array a0]
elements_n = 8

[bs pole]
position = 0, 0, 6
boresight_deg = 90
array = a0

[reflector wall]
center = 0, 40, 5
size = 30, 1, 10
material = concrete

[ue car]
size = 4.4, 1.8, 1.4
keyframe = 0 : -10, 25, 0.7
keyframe = 9 : 10, 25, 0.7
"""


# Edits of ``MINIMAL_SCENARIO`` whose values pass their bounds, each size
# component > 0, but make a box face too thin for ``Mesh`` (1e-7 by 1e-7 m,
# or corners 15 m apart that round together at 1e20 m), and the violation
# each gives.
DEGENERATE_BOXES = {
    "ue": ("size = 4.4, 1.8, 1.4", "size = 1e-7, 1e-7, 1.4",
           "ue 'car': size 1e-07, 1e-07, 1.4 gives no valid box mesh: "
           "degenerate triangle (area <= 1e-12 m^2)"),
    "reflector": ("size = 30, 1, 10", "size = 30, 1e-7, 1e-7",
                  "reflector 'wall': center 0.0, 40.0, 5.0, size 30.0, "
                  "1e-07, 1e-07 and yaw_deg 0.0 give no valid box mesh: "
                  "degenerate triangle (area <= 1e-12 m^2)"),
    "far-reflector": ("center = 0, 40, 5", "center = -1e20, 40, 5",
                      "reflector 'wall': center -1e+20, 40.0, 5.0, size "
                      "30.0, 1.0, 10.0 and yaw_deg 0.0 give no valid box "
                      "mesh: degenerate triangle (area <= 1e-12 m^2)"),
}


_MATERIAL = st.sampled_from(["brick", "concrete", "metal"])
_SIZE = st.tuples(*[st.floats(0.5, 20.0)] * 3)
_BS_POSITION = (0.0, 0.0, 6.0)


@st.composite
def small_scenarios(draw):
    """Valid scenarios of 1-4 boxes, 1-3 UEs and 2-6 frames, at reflection
    orders 0-2 with random N and Q; a UE may sit at the BS."""
    frames = draw(st.integers(2, 6))
    boresight = draw(st.just(90.0) | st.floats(0.0, 359.0))
    reflectors = tuple(
        sc.ReflectorConfig(
            name=f"r{i}",
            center=draw(st.tuples(st.floats(-30.0, 30.0),
                                  st.floats(-10.0, 60.0),
                                  st.floats(0.0, 10.0))),
            size=draw(_SIZE), yaw_deg=draw(st.floats(0.0, 90.0)),
            material=draw(_MATERIAL))
        for i in range(draw(st.integers(1, 4))))
    point = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 60.0),
                      st.floats(0.0, 3.0))
    ues = []
    for i in range(draw(st.integers(1, 3))):
        kf_frames = sorted(draw(st.lists(st.integers(0, frames - 1),
                                         min_size=1, max_size=3, unique=True)))
        ranges = draw(st.lists(st.lists(st.integers(0, frames - 1),
                                        min_size=2, max_size=2), max_size=2))
        ues.append(sc.UeConfig(
            name=f"u{i}", size=draw(st.tuples(*[st.floats(0.5, 5.0)] * 3)),
            material=draw(_MATERIAL),
            active_ranges=tuple(tuple(sorted(r)) for r in ranges),
            keyframes=tuple((f, draw(st.just(_BS_POSITION) | point))
                            for f in kf_frames)))
    return sc.Scenario(
        system=sc.SystemParams(
            frames=frames, carrier_ghz=draw(st.floats(1.0, 100.0)),
            max_reflections=draw(st.integers(0, 2)),
            codebook_size_q=draw(st.integers(1, 32))),
        arrays=(sc.ArrayConfig(name="a0",
                               elements_n=draw(st.integers(1, 16))),),
        bss=(sc.BsConfig(name="bs", position=_BS_POSITION,
                         boresight_deg=boresight, array_ref="a0",
                         camera=sc.CameraConfig(yaw_deg=boresight)),),
        reflectors=reflectors, ues=tuple(ues))


@pytest.fixture(scope="session")
def shipped_scenario():
    return sc.parse_scenario(SHIPPED_SCENARIO.read_text())


@pytest.fixture(scope="session")
def shipped_truth(shipped_scenario):
    """One expensive physics pass over the shipped scenario, shared."""
    sim = Simulator(shipped_scenario, base_dir=REPO_ROOT)
    return sim, sim.run_truth()


@pytest.fixture()
def minimal_scenario():
    return sc.parse_scenario(MINIMAL_SCENARIO)


def assert_frame_pass_is_one_receiver_calls(sim, frame):
    """Each UE's record from the one pass of ``frame_truth`` equals what
    ``project_bbox`` and ``trace_paths`` give for that UE alone, with its
    own body and the bodies of UEs at the BS excluded (a UE at the BS gets
    no paths); returns the record."""
    rec = sim.frame_truth(frame)
    scene, positions = sim.frame_scene(frame)
    tset = scene.tset
    bs = np.asarray(sim.bs.position, float)
    system = sim.scenario.system
    at_bs = tuple(name for name, pos in positions.items()
                  if same_point(bs, pos))
    for ue, u in zip(sim.scenario.ues, rec.ues):
        mesh = Mesh(tset.tris[tset.owners == tset.names.index(ue.name)])
        exclude = (ue.name,) + at_bs
        assert u.bbox == project_bbox(sim.camera, mesh, scene, exclude=exclude)
        assert list(u.paths) == ([] if ue.name in at_bs else trace_paths(
            scene, bs, positions[ue.name], system.max_reflections,
            system.carrier_ghz, exclude=exclude))
    return rec


def assert_blocks_are_frames(scenario, truth, stats):
    """``truth`` and ``stats`` from ``run_truth``, which works in blocks of
    frames, equal ``frame_truth`` of each frame in turn on a new
    ``Simulator``, record for record and count for count."""
    sim = Simulator(scenario, base_dir=REPO_ROOT)
    assert len(truth) == scenario.system.frames
    for frame, rec in enumerate(truth):
        assert rec == sim.frame_truth(frame), f"frame {frame}"
    assert dict(stats) == dict(sim.stats)
