import contextlib
import functools
import io
import re
import json

import pytest
from hypothesis import given, settings, strategies as st

from beamcam import cli
from beamcam import dataset as ds
from beamcam import pipeline as pl
from beamcam import scenario as sc
from beamcam.camera import BoundingBox

import reference as ref
from conftest import MINIMAL_SCENARIO


def make_row(ue="car", active=1, outage=False, snrs=None, optimal=0,
             predicted=0, detected=True, visible=True):
    bbox = None
    if visible:
        bbox = BoundingBox(100.0, 100.0, 200.0, 200.0, visibility=1.0)
    detection = None
    if detected and visible:
        detection = pl.Detection(bbox=bbox)
    if snrs is None and not outage:
        snrs = tuple(float(-i) for i in range(16))
    return pl.UeFrameRecord(
        ue_name=ue,
        position=(0.0, 25.0, 0.7),
        active=active,
        bbox=bbox,
        paths=(),
        beam_snrs_db=None if outage else snrs,
        optimal_index=None if outage else optimal,
        detection=detection,
        predicted_index=None if (outage or not detected) else predicted,
        predicted_azimuth_deg=None if outage else 90.0,
    )


def frame(f, rows):
    return pl.FrameRecord(frame=f, bs_name="bs1", ues=tuple(rows))


def test_export_header_and_row_count(minimal_scenario):
    records = ref.run_simulation(minimal_scenario)
    buf = io.StringIO()
    n = ds.export_records(records, buf, metadata={"seed": 4})
    lines = buf.getvalue().strip().split("\n")
    header = json.loads(lines[0])
    assert header["schema"] == ds.SCHEMA_NAME
    assert header["version"] == ds.SCHEMA_VERSION
    assert header["seed"] == 4
    assert n == len(lines) - 1 == 10


def test_roundtrip_value_equality(shipped_truth, tmp_path):
    sim, truth = shipped_truth
    records = sim.apply_detector(
        truth[:40], pl.DetectorNoiseModel(pixel_sigma=2.0, seed=1))
    path = tmp_path / "ds.jsonl"
    ds.export_records(records, path)
    header, back = ds.import_records(path)
    assert header["schema"] == ds.SCHEMA_NAME
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.frame == b.frame
        for ua, ub in zip(a.ues, b.ues):
            assert ua.ue_name == ub.ue_name
            assert ua.active == ub.active
            assert ua.outage == ub.outage
            assert ua.optimal_index == ub.optimal_index
            assert ua.predicted_index == ub.predicted_index
            assert len(ua.paths) == len(ub.paths)
            for pa, pb in zip(ua.paths, ub.paths):
                assert pa.bounces == pb.bounces
                assert pa.length_m == pytest.approx(pb.length_m, rel=1e-9)
                assert pa.gain_db == pytest.approx(pb.gain_db, rel=1e-9)
            if not ua.outage:
                for sa, sb in zip(ua.beam_snrs_db, ub.beam_snrs_db):
                    assert sa == pytest.approx(sb, rel=1e-12)


def test_outage_marker_in_rows():
    rows = list(ds.record_rows([frame(0, [make_row(outage=True)])]))
    assert rows[0]["optimal_index"] == ds.OUTAGE_MARKER
    assert rows[0]["beam_snr_db"] is None


def test_evaluate_counting_fixture():
    # Five eligible rows, three predicted correctly -> top-1 = 0.6.
    rows = [make_row(predicted=0 if i < 3 else 5) for i in range(5)]
    m = ds.evaluate([frame(i, [r]) for i, r in enumerate(rows)])
    assert m.top1_accuracy == pytest.approx(0.6)
    assert m.eligible_rows == 5
    assert m.detection_recall == pytest.approx(1.0)
    assert m.outage_rate == pytest.approx(0.0)


def test_evaluate_one_off_predictions_hit_top3():
    # Prediction one beam away from optimal everywhere.
    rows = [make_row(optimal=4, predicted=5, snrs=tuple(
        10.0 - abs(i - 4) for i in range(16))) for _ in range(4)]
    m = ds.evaluate([frame(i, [r]) for i, r in enumerate(rows)])
    assert m.top1_accuracy == 0.0
    assert m.topk_accuracy[3] == pytest.approx(1.0)


def test_topk_monotone_in_k(shipped_truth):
    sim, truth = shipped_truth
    records = sim.apply_detector(
        truth[:80], pl.DetectorNoiseModel(pixel_sigma=8.0, seed=2))
    m = ds.evaluate(records, ks=(1, 2, 3, 5))
    accs = [m.topk_accuracy[k] for k in (1, 2, 3, 5)]
    assert accs == sorted(accs)


def test_metrics_permutation_invariant(shipped_truth):
    sim, truth = shipped_truth
    records = sim.apply_detector(
        truth[:60], pl.DetectorNoiseModel(pixel_sigma=5.0, seed=3))
    m1 = ds.evaluate(records)
    m2 = ds.evaluate(list(reversed(records)))
    assert m1 == m2


def test_evaluate_roundtrip_equality(shipped_truth, tmp_path):
    sim, truth = shipped_truth
    records = sim.apply_detector(
        truth[:60], pl.DetectorNoiseModel(pixel_sigma=3.0, seed=5))
    path = tmp_path / "ds.jsonl"
    ds.export_records(records, path)
    _, back = ds.import_records(path)
    assert ds.evaluate(back) == ds.evaluate(records)


def test_inactive_and_outage_accounting():
    rows = [
        make_row(active=0),                    # not counted as active
        make_row(outage=True),                 # outage, not eligible
        make_row(predicted=0),                 # correct
        make_row(detected=False),              # not eligible (no detection)
    ]
    m = ds.evaluate([frame(i, [r]) for i, r in enumerate(rows)])
    assert m.total_rows == 4
    assert m.active_rows == 3
    assert m.eligible_rows == 1
    assert m.outage_rate == pytest.approx(1.0 / 3.0)
    assert m.top1_accuracy == pytest.approx(1.0)
    assert m.detection_recall == pytest.approx(2.0 / 3.0)


def test_import_errors(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("")
    with pytest.raises(ds.DatasetError):
        ds.import_records(p)
    p.write_text(json.dumps({"schema": "other", "version": 1}) + "\n")
    with pytest.raises(ds.DatasetError):
        ds.import_records(p)
    p.write_text(json.dumps({"schema": ds.SCHEMA_NAME, "version": 99}) + "\n")
    with pytest.raises(ds.DatasetError):
        ds.import_records(p)
    with pytest.raises(ds.DatasetError):
        ds.import_records(tmp_path / "missing.jsonl")


def _drop_snr_table(row):
    row["beam_snr_db"] = None


def _drop_paths_key(row):
    del row["paths"]


def _string_snr_entry(row):
    row["beam_snr_db"][2] = "x"


def _null_optimal_beam(row):
    row["beam_snr_db"][row["optimal_index"]] = None


def _string_activity(row):
    row["activity"] = "x"


def _string_bbox_u_min(row):
    row["bbox_px"]["u_min"] = "x"


def _huge_path_gain(row):
    row["paths"][0]["gain_db"] = 1e300


@pytest.mark.parametrize("edit", [
    _drop_snr_table, _drop_paths_key, _string_snr_entry, _null_optimal_beam,
    _string_activity, _string_bbox_u_min, _huge_path_gain])
def test_malformed_row_names_its_line(edit, minimal_scenario, tmp_path,
                                      capsys):
    path = tmp_path / "ds.jsonl"
    ds.export_records(ref.run_simulation(minimal_scenario), path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[3])
    assert isinstance(row["optimal_index"], int)
    edit(row)
    lines[3] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ds.DatasetError, match=r"^line 4: "):
        ds.import_records(path)
    assert cli.main(["evaluate", str(path)]) == 1
    assert "line 4: " in capsys.readouterr().err
    assert cli.main(["inspect", str(path)]) == 1
    assert "error: line 4: " in capsys.readouterr().err


@pytest.mark.parametrize("first_line", ["[1, 2]", '"x"', "not json"])
def test_header_must_be_a_json_object(first_line, tmp_path, capsys):
    path = tmp_path / "ds.jsonl"
    path.write_text(first_line + "\n")
    with pytest.raises(ds.DatasetError, match=r"^line 1: "):
        ds.import_records(path)
    for command in ("evaluate", "inspect"):
        assert cli.main([command, str(path)]) == 1
        assert "error: line 1: " in capsys.readouterr().err


def test_zero_gain_beam_is_written_as_null(tmp_path):
    snrs = (3.0, float("-inf"), *(float(-i) for i in range(2, 16)))
    records = [frame(0, [make_row(snrs=snrs)]),
               frame(1, [make_row(snrs=snrs, predicted=1)])]
    path = tmp_path / "ds.jsonl"
    ds.export_records(records, path)
    text = path.read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text.splitlines()[1])["beam_snr_db"][1] is None
    _, back = ds.import_records(path)
    assert [u.beam_snrs_db for rec in back for u in rec.ues] == [snrs, snrs]
    assert ds.evaluate(back) == ds.evaluate(records)


def test_written_rows_fit_the_declared_shape(shipped_truth):
    sim, truth = shipped_truth
    detected = sim.apply_detector(
        truth, pl.DetectorNoiseModel(pixel_sigma=2.0, miss_prob=0.2, seed=0))
    for records in (truth, detected):
        for row in ds.record_rows(records):
            ds._check(row, ds.ROW)
            assert list(row) == list(ds.ROW)


# A small dataset with eligible, undetected, inactive (frames 3-4) and
# outage (frame 5: the UE at the BS) rows.
MUTATION_SCENARIO = MINIMAL_SCENARIO.replace(
    "keyframe = 9", "active = 0-2, 5-9\nkeyframe = 5 : 0, 0, 6\nkeyframe = 9")
REPLACEMENTS = [None, True, 0, -1, 7, 1e300, "x", "outage", [], {}]
DELETE = object()


def _field_paths(value, path=()):
    """Key paths of every field inside a parsed row, at any depth."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, sub in items:
            yield path + (key,)
            yield from _field_paths(sub, path + (key,))


@functools.cache
def _mutation_base():
    """The dataset's lines, and (line index, key path) of every field."""
    records = ref.run_simulation(
        sc.parse_scenario(MUTATION_SCENARIO),
        pl.DetectorNoiseModel(pixel_sigma=2.0, miss_prob=0.4, seed=1))
    ues = [u for rec in records for u in rec.ues]
    assert any(u.outage for u in ues) and not all(u.active for u in ues)
    assert any(u.active and u.bbox and not u.detection for u in ues)
    buf = io.StringIO()
    ds.export_records(records, buf)
    lines = buf.getvalue().splitlines()
    targets = [(n, keys) for n in range(1, len(lines))
               for keys in _field_paths(json.loads(lines[n]))]
    return lines, targets


@given(data=st.data())
def test_one_field_edit_is_rejected_or_readable(tmp_path_factory, data):
    """Changing or deleting one field of a valid row, at any depth, either
    raises DatasetError on import or gives records that evaluate and
    inspect read without an exception."""
    lines, targets = _mutation_base()
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    lineno, keys = data.draw(st.sampled_from(targets))
    value = data.draw(st.sampled_from([DELETE, *REPLACEMENTS]))
    row = json.loads(lines[lineno])
    parent = row
    for key in keys[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    path.write_text("\n".join(
        [*lines[:lineno], json.dumps(row), *lines[lineno + 1:]]) + "\n")
    try:
        _, records = ds.import_records(path)
    except ds.DatasetError:
        return
    ds.evaluate(records, ks=(1, 3, 5))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["inspect", str(path)]) == 0


def test_evaluate_empty_raises():
    with pytest.raises(ds.DatasetError):
        ds.evaluate([])


def test_format_table_is_aligned():
    m = ds.evaluate([frame(0, [make_row()])])
    table = m.format_table()
    lines = table.split("\n")
    assert any(ln.startswith("top-1 accuracy") for ln in lines)
    # Values start at a common column.
    starts = {re.match(r"^(\S.*?\S)\s\s+", ln).end() for ln in lines}
    assert len(starts) == 1


def _topk_indices(snrs, k):
    """Reference top-k: a full sort, SNR descending, ties to lowest index."""
    order = sorted(range(len(snrs)), key=lambda i: (-snrs[i], i))
    return order[:k]


# Few distinct values, so tables are full of ties and -inf entries.
SNR_VALUES = st.one_of(
    st.sampled_from([float("-inf"), -12.5, 0.0, 3.0]),
    st.floats(-60.0, 60.0),
)


@settings(max_examples=200)
@given(st.lists(SNR_VALUES, min_size=1, max_size=32).flatmap(
    lambda snrs: st.tuples(st.just(tuple(snrs)),
                           st.integers(0, len(snrs) - 1))))
def test_topk_matches_sort_reference(table):
    snrs, predicted = table
    ks = tuple(range(1, len(snrs) + 2))
    row = make_row(snrs=snrs, optimal=snrs.index(max(snrs)),
                   predicted=predicted)
    m = ds.evaluate([frame(0, [row])], ks)
    for k in ks:
        assert m.topk_accuracy[k] == float(
            predicted in _topk_indices(snrs, k))
