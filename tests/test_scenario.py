import pytest

from beamcam import scenario as sc

import reference as ref

from conftest import MINIMAL_SCENARIO, SHIPPED_SCENARIO

# Every key set to a value other than its parse default, so a serializer
# that drops a field breaks the round trip.
ALL_KEYS_SCENARIO = """\
[system]
frames = 12
carrier_ghz = 60
max_reflections = 1
codebook_size_q = 8
tx_power_dbm = 20
noise_power_dbm = -80

[materials]
glass = 0.3
metal = 0.9

[array a0]
elements_n = 4
spacing_wavelengths = 0.25

[bs pole]
position = 1, 2, 5
boresight_deg = 80
array = a0
camera_width_px = 640
camera_height_px = 480
camera_hfov_deg = 70
camera_offset = 0.5, 0, 0.25
camera_yaw_deg = 85
camera_pitch_deg = -5

[reflector wall]
center = 0, 40, 5
size = 30, 1, 10
yaw_deg = 15
material = glass
mesh_path = meshes/wall.stl

[ue car]
size = 4.4, 1.8, 1.4
material = concrete
active = 0-3, 6-11
keyframe = 0 : -10, 25, 0.7
keyframe = 11 : 10, 25, 0.7
"""


def test_minimal_parse_defaults(minimal_scenario):
    s = minimal_scenario
    assert s.system.frames == 10
    assert s.system.max_reflections == 2
    assert s.system.codebook_size_q == 16
    assert s.system.tx_power_dbm == 30.0
    assert s.system.noise_power_dbm == -90.0
    assert s.array("a0").spacing_wavelengths == 0.5
    bs = s.bs("pole")
    assert bs.position == (0.0, 0.0, 6.0)
    # Camera yaw defaults to the array boresight.
    assert bs.camera.yaw_deg == 90.0
    assert bs.camera.width_px == 1280
    refl = s.reflectors[0]
    assert refl.mesh_path is None
    assert refl.yaw_deg == 0.0
    ue = ref.ue(s, "car")
    assert ue.material == "metal"
    assert ue.active_ranges == ()
    assert ue.keyframes[0] == (0, (-10.0, 25.0, 0.7))


def test_serialize_parse_fixpoint(minimal_scenario):
    for s1 in (minimal_scenario, sc.parse_scenario(ALL_KEYS_SCENARIO)):
        text1 = sc.serialize_scenario(s1)
        s2 = sc.parse_scenario(text1)
        assert s2 == s1
        assert sc.serialize_scenario(s2) == text1


def test_shipped_scenario_fixpoint(shipped_scenario):
    text = sc.serialize_scenario(shipped_scenario)
    assert sc.parse_scenario(text) == shipped_scenario


def test_section_order_is_irrelevant():
    lines = MINIMAL_SCENARIO.split("\n\n")
    reordered = "\n\n".join(reversed(lines))
    assert sc.parse_scenario(reordered) == sc.parse_scenario(MINIMAL_SCENARIO)


def test_comments_and_blank_lines():
    text = MINIMAL_SCENARIO.replace(
        "[system]", "# leading comment\n\n[system]  # trailing"
    ).replace("frames = 10", "frames = 10   # ten frames")
    assert sc.parse_scenario(text) == sc.parse_scenario(MINIMAL_SCENARIO)


def test_materials_override():
    text = MINIMAL_SCENARIO + "\n[materials]\nglass = 0.3\nmetal = 0.9\n"
    s = sc.parse_scenario(text)
    table = s.material_table
    assert table["glass"] == 0.3
    assert table["metal"] == 0.9
    assert table["brick"] == 0.45


def test_active_ranges():
    text = MINIMAL_SCENARIO.replace(
        "keyframe = 0", "active = 0-3, 7-9\nkeyframe = 0"
    )
    ue = ref.ue(sc.parse_scenario(text), "car")
    assert ue.active_ranges == ((0, 3), (7, 9))


def test_syntax_error_has_location():
    bad = MINIMAL_SCENARIO.replace("frames = 10", "frames == 10")
    with pytest.raises(sc.ScenarioSyntaxError) as exc:
        sc.parse_scenario(bad)
    assert exc.value.line > 0
    assert exc.value.column > 0


@pytest.mark.parametrize("mutation", [
    ("frames = 10", "frames = ten"),          # non-integer value
    ("position = 0, 0, 6", "position = 0, 0"),  # short vector
    ("[system]", "[systems]"),                  # unknown section kind
    ("elements_n = 8", "elements_n = 8\nbogus_key = 1"),
    ("carrier_ghz = 28", "carrier_ghz = nan"),  # non-finite scalar
    ("boresight_deg = 90", "boresight_deg = -inf"),
    ("keyframe = 9 : 10, 25", "keyframe = 9 : 10, nan"),  # non-finite vec3
    ("keyframe = 0", "array = a0\nkeyframe = 0"),  # [ue] has no array key
    ("[array a0]", "[materials]\nglass = 0.3\nglass = 0.5\n[array a0]"),
    ("[array a0]", "[materials]\nglass = 0.3\n[materials]\nmetal = 0.9\n"
                   "[array a0]"),
])
def test_syntax_errors(mutation):
    old, new = mutation
    with pytest.raises(sc.ScenarioSyntaxError):
        sc.parse_scenario(MINIMAL_SCENARIO.replace(old, new))


def test_validation_collects_all_violations():
    bad = (MINIMAL_SCENARIO
           .replace("material = concrete", "material = glass")
           .replace("array = a0", "array = missing"))
    with pytest.raises(sc.ScenarioValidationError) as exc:
        sc.parse_scenario(bad)
    joined = "\n".join(exc.value.violations)
    assert "glass" in joined
    assert "missing" in joined
    assert len(exc.value.violations) >= 2


def test_duplicate_names_rejected():
    bad = MINIMAL_SCENARIO + "\n[ue car]\nsize = 1,1,1\nkeyframe = 0 : 0,5,0\n"
    with pytest.raises(sc.ScenarioValidationError) as exc:
        sc.parse_scenario(bad)
    assert any("car" in v for v in exc.value.violations)


def test_keyframe_out_of_range_rejected():
    bad = MINIMAL_SCENARIO.replace("keyframe = 9", "keyframe = 99")
    with pytest.raises(sc.ScenarioValidationError):
        sc.parse_scenario(bad)


@pytest.mark.parametrize("old, new, message", [
    ("frames = 10", "frames = 10\n  Frames = 10",
     "line 3, column 3: unknown key 'Frames' in section [system]"),
    ("carrier_ghz = 28\n", "",
     "line 1, column 1: missing required key 'carrier_ghz' in section [system]"),
    ("keyframe = 9 : 10, 25, 0.7\n",
     "keyframe = 9 : 10, 25, 0.7\n\n[system]\nframes = 5\n",
     "line 23, column 1: duplicate [system] section"),
    ("array = a0", "array = a0\n array = a0",
     "line 12, column 2: duplicate key 'array' in section [bs pole]"),
    ("position = 0, 0, 6", "position = 0, x , 6",
     "line 9, column 15: expected a number, got 'x'"),
    ("material = concrete", "yaw_deg =   ten\nmaterial = concrete",
     "line 16, column 13: expected a number, got 'ten'"),
    ("material = concrete\n", "",
     "line 13, column 1: missing required key 'material' in section "
     "[reflector wall]"),
    ("keyframe = 0", "\tmass = 1500\nkeyframe = 0",
     "line 20, column 2: unknown key 'mass' in section [ue car]"),
    ("keyframe = 9 : 10, 25, 0.7", "keyframe = 9, 10, 25, 0.7",
     "line 21, column 12: expected 'F : X, Y, Z', got '9, 10, 25, 0.7'"),
    ("keyframe = 9 :", "keyframe =  nine :",
     "line 21, column 13: expected an integer, got 'nine'"),
    ("keyframe = 9 : 10, 25", "keyframe = 9 : 10, y5",
     "line 21, column 20: expected a number, got 'y5'"),
    ("keyframe = 9 : 10, 25, 0.7", "keyframe = 9 :  10, 25",
     "line 21, column 17: expected 3 comma-separated numbers, got '10, 25'"),
    ("keyframe = 0", "active = 0-2, 5-x\nkeyframe = 0",
     "line 20, column 17: expected an integer, got 'x'"),
    ("keyframe = 0", "active = -1-5\nkeyframe = 0",
     "line 20, column 10: expected frame range 'A-B' of frames >= 0, "
     "got '-1-5'"),
    ("keyframe = 0", "active = 0-2,  4-\nkeyframe = 0",
     "line 20, column 16: expected frame range 'A-B' of frames >= 0, "
     "got '4-'"),
    ("[array a0]", "[materials]\nglass = 0.3\n  glass  = 0.5\n[array a0]",
     "line 7, column 3: duplicate key 'glass' in section [materials]"),
    ("[array a0]", "[materials]\nglass = 0.3x\n[array a0]",
     "line 6, column 9: expected a number, got '0.3x'"),
], ids=["unknown-key", "missing-system-key", "duplicate-system",
        "duplicate-key", "bad-vec3", "bad-scalar", "missing-key",
        "unknown-ue-key", "keyframe-without-colon", "bad-keyframe-frame",
        "bad-keyframe-position", "short-keyframe-position", "bad-range",
        "negative-range", "open-range",
        "duplicate-material", "bad-material"])
def test_error_locations(old, new, message):
    """A key error points at the key's first character, a value error at
    the first character of the bad value, or of its bad component (a
    keyframe's position counts from after its colon), and a missing key at
    its section's header; messages name the whole section."""
    text = MINIMAL_SCENARIO.replace(old, new)
    assert text != MINIMAL_SCENARIO
    with pytest.raises(sc.ScenarioSyntaxError) as exc:
        sc.parse_scenario(text)
    assert str(exc.value) == message
    assert f"line {exc.value.line}, column {exc.value.column}: " in message


def test_material_names_keep_their_case():
    text = (MINIMAL_SCENARIO.replace("material = concrete", "material = Glass")
            + "\n[materials]\nGlass = 0.3\n")
    s = sc.parse_scenario(text)
    assert s.reflectors[0].material == "Glass"
    assert s.material_table["Glass"] == 0.3
    assert "glass" not in s.material_table
    assert sc.parse_scenario(sc.serialize_scenario(s)) == s


@pytest.mark.parametrize("keyframes, violation", [
    ("", "at least one keyframe required"),
    ("keyframe = 4 : 0, 5, 0\nkeyframe = 4 : 1, 5, 0\n",
     "keyframe frames must strictly increase"),
    ("keyframe = 6 : 0, 5, 0\nkeyframe = 2 : 1, 5, 0\n",
     "keyframe frames must strictly increase"),
], ids=["none", "equal", "decreasing"])
def test_ue_keyframe_rules(keyframes, violation):
    text = MINIMAL_SCENARIO.replace(
        "keyframe = 0 : -10, 25, 0.7\nkeyframe = 9 : 10, 25, 0.7\n", keyframes)
    assert text != MINIMAL_SCENARIO
    with pytest.raises(sc.ScenarioValidationError) as exc:
        sc.parse_scenario(text)
    assert exc.value.violations == [f"ue 'car': {violation}"]


def test_shipped_scenario_parses():
    s = sc.parse_scenario(SHIPPED_SCENARIO.read_text())
    assert s.system.frames == 300
    assert len(s.ues) == 3
    assert len(s.reflectors) == 3
