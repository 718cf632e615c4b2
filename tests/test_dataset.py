import io
import re
import json

import pytest
from hypothesis import given, settings, strategies as st

from beamcam import cli
from beamcam import dataset as ds
from beamcam import pipeline as pl
from beamcam.camera import BoundingBox


def make_row(ue="car", active=1, outage=False, snrs=None, optimal=0,
             predicted=0, detected=True, visible=True):
    bbox = None
    if visible:
        bbox = BoundingBox(100.0, 100.0, 200.0, 200.0, ue_name=ue,
                           visibility=1.0)
    detection = None
    if detected and visible:
        detection = pl.Detection(ue_name=ue, bbox=bbox)
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
        optimal_snr_db=None if outage else snrs[optimal],
        outage=outage,
        detection=detection,
        predicted_index=None if (outage or not detected) else predicted,
        predicted_azimuth_deg=None if outage else 90.0,
    )


def frame(f, rows):
    return pl.FrameRecord(frame=f, bs_name="bs1", ues=tuple(rows))


def test_export_header_and_row_count(minimal_scenario):
    records = pl.run_simulation(minimal_scenario)
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


@pytest.mark.parametrize("edit", [_drop_snr_table, _drop_paths_key])
def test_malformed_row_names_its_line(edit, minimal_scenario, tmp_path,
                                      capsys):
    path = tmp_path / "ds.jsonl"
    ds.export_records(pl.run_simulation(minimal_scenario), path)
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
