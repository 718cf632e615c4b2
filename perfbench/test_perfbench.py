"""Tests of the benchmark itself: metric names and units, output checks,
and counts that must repeat exactly. Run: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

wl.import_beamcam()

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_and_units_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == [(n, run.unit_of(n)) for n in run.PER_LAYER]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_units():
    assert run.unit_of("camera.project_bbox_self_s") == "s"
    assert run.unit_of("raytrace.paths_kept.b3") == "count"
    assert run.unit_of("dataset.export_bytes") == "bytes"
    assert run.unit_of("raytrace.keep_ratio") == "frac"
    assert run.unit_of("truth_pairs_per_s") == "1/s"


def test_deep_frames_are_stratified_and_seeded():
    frames = wl.deep_frames(7, 300)
    assert frames == wl.deep_frames(7, 300)
    assert frames != wl.deep_frames(8, 300)
    assert [f * wl.DEEP_FRAMES // 300 for f in frames] \
        == list(range(wl.DEEP_FRAMES))


def test_generate_checks_pass_and_catch_changes(tmp_path):
    gen = wl.UrbanGenerate(0, tmp_path)
    gen.warm_up()
    result = gen.op()
    assert gen.check(result) == []
    assert wl.sha256(result["dataset"]) == \
        "c5393b2ba4ba994a8c1f5f146a8d8478cb2f38bd74136f394678319cc7f21830"

    bad = dict(result, dataset=result["dataset"].replace(b'"visibility": 1.0',
                                                         b'"visibility": 0.9',
                                                         1))
    errors = gen.check(bad)
    assert any("sha256" in e for e in errors)
    assert any("truth rows" in e for e in errors)

    renders = dict(result["renders"], **{"frame_000100.ppm": "0" * 64})
    assert gen.check(dict(result, renders=renders))

    metrics = dict(result["file_metrics"], top1_accuracy=0.0)
    assert gen.check(dict(result, file_metrics=metrics))


def test_unpinned_seed_still_checks_truth(tmp_path):
    gen = wl.UrbanGenerate(0, tmp_path)
    gen.seed = 10 ** 6
    gen.warm_up()
    result = gen.op()
    assert gen.check(result) == []
    rows = result["dataset"].splitlines()
    rows[1] = rows[1].replace(b'"activity": 1', b'"activity": 0')
    assert any("truth rows" in e
               for e in gen.check(dict(result, dataset=b"\n".join(rows))))


def test_sweep_checks_pass_and_catch_changes(tmp_path):
    sweep = wl.UrbanSweep(0, tmp_path)
    result = sweep.op()
    assert sweep.check(result) == []
    assert result["csv"].splitlines()[1:] == [
        "0,0.910198", "2,0.904795", "5,0.894825", "10,0.876104",
        "20,0.838356"]
    bad = result["csv"].replace("0.838356", "0.838357")
    assert len(sweep.check(dict(result, csv=bad))) == 2


def _shorten(deep):
    deep.sample = deep.sample[3:5]


def test_deep_checks_pass_and_catch_changes(tmp_path):
    deep = wl.DeepOrder4(5, tmp_path)
    _shorten(deep)
    deep.warm_up()
    result = deep.op()
    assert deep.check(result) == []

    rec = result["truth"][0]
    ue = next(u for u in rec.ues if u.paths)
    shorter = dataclasses.replace(ue.paths[0],
                                  length_m=ue.paths[0].length_m + 1e-9)
    ue_bad = dataclasses.replace(ue, paths=(shorter,) + ue.paths[1:])
    rec_bad = dataclasses.replace(
        rec, ues=tuple(ue_bad if u is ue else u for u in rec.ues))
    errors = deep.check(dict(result, truth=[rec_bad] + result["truth"][1:]))
    assert any("pinned digest" in e for e in errors)
    assert any("missing at order 4" in e for e in errors)


def _traced_run(name, workdir, shorten=None):
    r = run.Run(name, 0, 1, True, workdir)
    if shorten:
        shorten(r.workload)
    r.execute()
    assert not r.failed_ops, r.errors
    return r


@pytest.mark.parametrize("name,shorten", [("urban_generate", None),
                                          ("deep_order4", _shorten)])
def test_traced_counts_repeat_exactly(name, shorten, tmp_path):
    first = _traced_run(name, tmp_path, shorten)
    second = _traced_run(name, tmp_path, shorten)
    assert first.layer_counts[0] == second.layer_counts[0]
    metrics = first.per_layer()
    assert set(metrics) == set(run.PER_LAYER)
    counts = first.layer_counts[0]
    if name == "urban_generate":
        assert counts["pipeline.frame_truth_calls"] == 303
        assert counts["render.frames"] == 3
        assert counts["raytrace.paths_kept.b3"] == 0
        assert counts["dataset.export_bytes"] == 1_039_296
    else:
        assert counts["camera.project_bbox_calls"] == 6
        assert 0 < metrics["raytrace.keep_ratio"] <= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "urban_generate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
