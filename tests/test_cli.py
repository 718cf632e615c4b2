import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamcam import cli
from beamcam import dataset as ds
from beamcam import geometry as geo
from beamcam import pipeline as pl
from beamcam import scenario as sc

import reference as ref
from conftest import (MINIMAL_SCENARIO, REPO_ROOT, SHIPPED_SCENARIO,
                      assert_blocks_are_frames,
                      assert_frame_pass_is_one_receiver_calls,
                      small_scenarios)


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "scene.txt"
    p.write_text(MINIMAL_SCENARIO)
    return p


def run(argv):
    return cli.main([str(a) for a in argv])


def test_generate_and_evaluate(scenario_file, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scenario_file,
                "--out", out, "--seed", 3]) == 0
    assert out.exists()
    header = json.loads(out.read_text().splitlines()[0])
    assert header["seed"] == 3
    capsys.readouterr()
    assert run(["evaluate", out]) == 0
    text = capsys.readouterr().out
    assert "top-1 accuracy" in text
    assert run(["evaluate", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["top1_accuracy"] <= 1.0


def test_generate_with_renders(scenario_file, tmp_path):
    out = tmp_path / "ds.jsonl"
    rdir = tmp_path / "renders"
    assert run(["generate", "--scenario", scenario_file, "--out", out,
                "--render-every", 5, "--render-dir", rdir]) == 0
    ppms = sorted(rdir.glob("*.ppm"))
    assert [p.name for p in ppms] == ["frame_000000.ppm", "frame_000005.ppm"]
    for p in ppms:
        assert p.read_bytes().startswith(b"P6\n")


def test_generate_determinism(scenario_file, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["generate", "--scenario", scenario_file, "--seed", 7,
            "--pixel-sigma", 3]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


SEED0_SHA256 = \
    "c5393b2ba4ba994a8c1f5f146a8d8478cb2f38bd74136f394678319cc7f21830"


def test_shipped_generate_bytes_are_pinned(tmp_path):
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", SHIPPED_SCENARIO, "--seed", 0,
                "--pixel-sigma", 2, "--out", out]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SEED0_SHA256
    assert b"NaN" not in data and b"Infinity" not in data


def test_generate_stats_count_the_truth_pass(tmp_path):
    out, stats = tmp_path / "ds.jsonl", tmp_path / "stats.json"
    assert run(["generate", "--scenario", SHIPPED_SCENARIO, "--seed", 0,
                "--pixel-sigma", 2, "--out", out, "--stats", stats]) == 0
    # The dataset is the same with and without --stats.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED0_SHA256
    # The BS's prefix table keeps 7 and 19 rows (44 at order 2 without the
    # beam test). Of the 900 x 7 and 900 x 19 (receiver, prefix row) pairs,
    # the receiver-side screen leaves 3,321 and 3,888 to backtrack. 900 LOS
    # segments plus 755 valid chains before occlusion; 1,271 paths kept
    # after it. Of the 58,086 (segment, chunk) pairs, 9,681 segments by 6
    # one-box chunks, the bounding-box screen keeps 7,999, and of those the
    # segment-box test passes 4,755 to the kernel.
    counts = json.loads(stats.read_text())
    assert counts == {
        "boxes_projected": 900, "boxes_visible": 754,
        "prefix_rows.o1": 7, "prefix_rows.o2": 19,
        "receivers_traced": 900,
        "pairs_tested.o1": 3321, "pairs_tested.o2": 3888,
        "chains_valid.o1": 680, "chains_valid.o2": 75,
        "paths_kept.b0": 636, "paths_kept.b1": 604, "paths_kept.b2": 31,
        "segments_tested": 9681, "occlusion_pairs": 4755,
        "outage_rows": 139,
    }
    for k in (1, 2):
        assert counts[f"pairs_tested.o{k}"] >= counts[f"chains_valid.o{k}"]



def test_truth_pass_does_not_import_numpy_ma():
    """A fresh process that imports the CLI and runs one truth pass on the
    shipped scenario leaves ``numpy.ma`` unimported: it costs 14-16 ms to
    import, and nothing in the program needs it."""
    code = "\n".join([
        "import sys",
        "import beamcam.cli",
        "from beamcam import pipeline, scenario",
        f"text = open({str(SHIPPED_SCENARIO)!r}).read()",
        "pipeline.Simulator(scenario.parse_scenario(text)).run_truth()",
        "print('numpy.ma' in sys.modules)"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=REPO_ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

def timings_help(command: str) -> str:
    """The --timings help text of one subcommand."""
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action.choices, dict))
    return next(action.help for action in commands[command]._actions
                if action.dest == "timings")


@pytest.mark.parametrize("command, options, stages", [
    ("generate", ["--seed", 7, "--pixel-sigma", 3, "--render-every", 5],
     ["detector", "export", "render"]),
    ("sweep", ["--seeds", 2], ["sweep", "draws"]),
])
def test_timings_change_no_output(command, options, stages, scenario_file,
                                  tmp_path):
    """--timings writes the seconds of each stage, the truth stages first,
    and its help names every stage it writes; the dataset (or accuracy
    CSV), the renders and the --stats counts are the same bytes with and
    without it."""
    runs = []
    for name in ("plain", "timed"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        out, stats = out_dir / "out", out_dir / "stats.json"
        timings = ["--timings", out_dir / "timings.json"] * (name == "timed")
        assert run([command, "--scenario", scenario_file, "--out", out,
                    "--stats", stats, *options, *timings]) == 0
        runs.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                     if p.name != "timings.json"})
    assert runs[0] == runs[1]
    timings = json.loads((tmp_path / "timed" / "timings.json").read_text())
    assert list(timings) == [*pl.TRUTH_STAGES, *stages]
    assert set(timings) <= set(re.findall(r"\w+", timings_help(command)))
    # Every stage did some work, so a stage name that no code times shows.
    assert all(type(t) is float and t > 0.0 for t in timings.values())


@pytest.mark.parametrize("options", [[], ["--json"]], ids=["table", "json"])
def test_evaluate_timings_change_no_output(options, scenario_file, tmp_path,
                                           capsys):
    """evaluate --timings writes the seconds of the import and of evaluate;
    stdout is the same bytes with and without it, and a path that cannot
    be written fails the run."""
    data, path = tmp_path / "ds.jsonl", tmp_path / "timings.json"
    assert run(["generate", "--scenario", scenario_file, "--out", data,
                "--pixel-sigma", 3]) == 0
    capsys.readouterr()
    outputs = []
    for timings in ([], ["--timings", path]):
        assert run(["evaluate", data, *options, *timings]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    timings = json.loads(path.read_text())
    assert list(timings) == ["import", "evaluate"]
    assert all(type(t) is float and t > 0.0 for t in timings.values())
    assert run(["evaluate", data, *options, "--timings", tmp_path]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("options", [[], ["--json"]], ids=["table", "json"])
def test_inspect_timings_change_no_output(options, scenario_file, tmp_path,
                                          capsys):
    """inspect --timings writes the seconds of the import; stdout is the
    same bytes with and without it, and a path that cannot be written fails
    the run before any summary is printed."""
    data, path = tmp_path / "ds.jsonl", tmp_path / "timings.json"
    assert run(["generate", "--scenario", scenario_file, "--out", data,
                "--pixel-sigma", 3]) == 0
    capsys.readouterr()
    outputs = []
    for timings in ([], ["--timings", path]):
        assert run(["inspect", data, *options, *timings]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
    timings = json.loads(path.read_text())
    assert list(timings) == ["import"]
    assert all(type(t) is float and t > 0.0 for t in timings.values())
    assert run(["inspect", data, *options, "--timings", tmp_path]) == 1
    assert capsys.readouterr().out == ""


def test_order_0_runs_end_to_end(shipped_scenario, tmp_path):
    """At max_reflections 0 the shipped scenario keeps only its LOS paths,
    the same 636 as at order 2, counts no pair or chain, and its dataset
    goes through evaluate and inspect."""
    system = dataclasses.replace(shipped_scenario.system, max_reflections=0)
    scenario = dataclasses.replace(shipped_scenario, system=system)
    path, out, stats = (tmp_path / "scene.txt", tmp_path / "ds.jsonl",
                        tmp_path / "stats.json")
    path.write_text(sc.serialize_scenario(scenario))
    assert run(["generate", "--scenario", path, "--out", out,
                "--stats", stats]) == 0
    counts = json.loads(stats.read_text())
    assert not [k for k in counts
                if k.startswith(("chains_valid.", "pairs_tested."))]
    assert [k for k in counts if k.startswith("paths_kept.")] \
        == ["paths_kept.b0"]
    assert counts["paths_kept.b0"] == 636
    _, records = ds.import_records(out)
    assert {p.bounces for rec in records for u in rec.ues for p in u.paths} \
        == {0}
    assert run(["evaluate", out, "--json"]) == 0
    assert run(["inspect", out]) == 0


def test_sweep_stats_equal_generate_stats(scenario_file, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["generate", "--scenario", scenario_file,
                "--out", tmp_path / "ds.jsonl", "--stats", first]) == 0
    assert run(["sweep", "--scenario", scenario_file, "--seeds", 2,
                "--out", tmp_path / "sweep.csv", "--stats", second]) == 0
    assert first.read_text() == second.read_text()
    assert json.loads(first.read_text())["receivers_traced"] == 10


# ---------------------------------------------------------------------------
# Small valid scenarios, end to end

@given(small_scenarios())
def test_small_scenarios_run_end_to_end(tmp_path_factory, scenario):
    text = sc.serialize_scenario(scenario)
    assert sc.parse_scenario(text) == scenario
    assert sc.serialize_scenario(sc.parse_scenario(text)) == text
    work = tmp_path_factory.mktemp("scenario")
    path, out = work / "scene.txt", work / "ds.jsonl"
    path.write_text(text)
    assert run(["generate", "--scenario", path, "--out", out,
                "--pixel-sigma", 3, "--miss-prob", 0.2]) == 0
    _, records = ds.import_records(out)
    assert all(u.outage == (u.optimal_index is None)
               for rec in records for u in rec.ues)
    assert run(["evaluate", out, "--json"]) == 0
    assert run(["inspect", out]) == 0
    # Batching the frame's UEs into one pass couples no receivers.
    sim = pl.Simulator(scenario)
    for frame in range(scenario.system.frames):
        rec = assert_frame_pass_is_one_receiver_calls(sim, frame)
        assert all(u.outage == (u.optimal_index is None) for u in rec.ues)
    # Both prediction paths read one edge table, and it predicts what the
    # reference select_beam predicts.
    truth = sim.run_truth()
    sigmas, seeds = [0.0, 3.0, 40.0, 300.0], range(3)
    for miss_prob in (0.0, 0.2):
        accs = []
        for sigma in sigmas:
            accs.append([])
            for seed in seeds:
                records = sim.apply_detector(
                    truth, pl.DetectorNoiseModel(sigma, miss_prob, seed))
                accs[-1].append(ds.evaluate(records).top1_accuracy)
                for u in (u for rec in records for u in rec.ues):
                    if u.detection is not None:
                        assert (u.predicted_index, u.predicted_azimuth_deg) \
                            == ref.select_beam(
                                u.detection.bbox.u_min,
                                u.detection.bbox.u_max, sim.camera,
                                sim.codebook, sim.bs.boresight_deg)
        assert sim.sweep(truth, sigmas, seeds, miss_prob) == accs


@given(small_scenarios(), st.sampled_from([2, 3, pl.TRUTH_BLOCK]),
       st.sampled_from([1, 7, geo.KERNEL_PAIRS]))
def test_small_scenarios_run_truth_in_blocks_equals_frames(scenario, block,
                                                          kernel_pairs):
    # Blocks of 2-6 frames, in which a UE may be at the BS on some frames,
    # with the kernel fed 1, 7 or the default number of pairs a call.
    with mock.patch.object(pl, "TRUTH_BLOCK", block), \
            mock.patch.object(geo, "KERNEL_PAIRS", kernel_pairs):
        sim = pl.Simulator(scenario)
        truth = sim.run_truth()
    assert_blocks_are_frames(scenario, truth, sim.stats)


# sha256 of ``beamcam render --frame N`` on the shipped scenario, as pinned
# by perfbench/goldens.json (render_sha256).
RENDER_SHA256 = {
    0: "43bbbfa65ed2065e20d2387f133b0429a2e6768a824ceb4aef2c8613832ed56b",
    100: "71cabab335fa2a682b5fbf35628abeb2f764fe9b141d6e59762427427ac8eabc",
    200: "726d101508e522e9fc754cc315f816e676f0682dffd032c283b8720e48592a47",
}


@pytest.mark.parametrize("frame", sorted(RENDER_SHA256))
def test_render_command(tmp_path, frame):
    out = tmp_path / "f.ppm"
    assert run(["render", "--scenario", SHIPPED_SCENARIO,
                "--frame", frame, "--out", out]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n1280 720\n255\n")
    assert len(data) == len(b"P6\n1280 720\n255\n") + 1280 * 720 * 3
    assert hashlib.sha256(data).hexdigest() == RENDER_SHA256[frame]


def test_renders_of_every_tenth_shipped_frame_are_pinned(tmp_path):
    """The PPMs of frames 0, 10, ..., 290 of the shipped scenario, each with
    its truth boxes, concatenated in frame order."""
    sim = pl.Simulator(sc.parse_scenario(SHIPPED_SCENARIO.read_text()),
                       base_dir=SHIPPED_SCENARIO.parent)
    digest, out = hashlib.sha256(), tmp_path / "frame.ppm"
    for record in sim.run_truth()[::10]:
        cli._write_render(sim, record, out)
        digest.update(out.read_bytes())
    assert digest.hexdigest() == ("772212855ec1488befb60b3a90b94303"
                                  "f67847f4767259f114ca350226afab4e")


@pytest.mark.parametrize("frame", [0, 150])
def test_render_stats_count_the_rendered_frame(tmp_path, frame):
    """``render --stats`` writes the counts of the rendered frame's truth
    block, and the PPM is the same with and without it."""
    plain, out, stats = (tmp_path / n for n in ("a.ppm", "b.ppm", "s.json"))
    assert run(["render", "--scenario", SHIPPED_SCENARIO, "--frame", frame,
                "--out", plain]) == 0
    assert run(["render", "--scenario", SHIPPED_SCENARIO, "--frame", frame,
                "--out", out, "--stats", stats]) == 0
    assert out.read_bytes() == plain.read_bytes()
    sim = pl.Simulator(sc.parse_scenario(SHIPPED_SCENARIO.read_text()),
                       base_dir=SHIPPED_SCENARIO.parent)
    sim.frame_truth(frame)
    assert json.loads(stats.read_text()) == sim.stats
    assert sim.stats["receivers_traced"] == 3


def test_stl_reflector_runs_end_to_end(tmp_path):
    """A reflector read from an STL file of its own box gives the dataset
    rows and renders of the box reflector."""
    wall = sc.parse_scenario(MINIMAL_SCENARIO).reflectors[0]
    stl_dir, box_dir = tmp_path / "stl", tmp_path / "box"
    stl_dir.mkdir()
    (stl_dir / "wall.stl").write_bytes(ref.write_stl(geo.box_mesh(
        wall.center, wall.size, wall.yaw_deg, wall.material)))
    text = MINIMAL_SCENARIO.replace(
        "material = concrete", "material = concrete\nmesh_path = wall.stl")
    assert sc.parse_scenario(text).reflectors[0].mesh_path == "wall.stl"
    outputs = []
    for work, scenario_text in ((stl_dir, text), (box_dir, MINIMAL_SCENARIO)):
        box_dir.mkdir(exist_ok=True)
        (work / "scene.txt").write_text(scenario_text)
        assert run(["generate", "--scenario", work / "scene.txt",
                    "--out", work / "ds.jsonl", "--render-every", 5]) == 0
        renders = sorted(work.glob("*.ppm"))
        assert [p.name for p in renders] == ["frame_000000.ppm",
                                             "frame_000005.ppm"]
        outputs.append(((work / "ds.jsonl").read_text().splitlines()[1:],
                        [p.read_bytes() for p in renders]))
    assert outputs[0] == outputs[1]
    sim = pl.Simulator(sc.parse_scenario(text), base_dir=stl_dir)
    for frame in range(sim.scenario.system.frames):
        assert_frame_pass_is_one_receiver_calls(sim, frame)


def test_evaluate_json_writes_an_infinite_snr_loss_as_null(
        scenario_file, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scenario_file, "--out", out]) == 0
    header, *rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    # Predict a beam other than the optimal one, and give it zero gain.
    row = rows[0]
    p = 2 if row["optimal_index"] == 1 else 1
    row["beam_snr_db"][p] = None
    row["predicted_index"] = p
    out.write_text("".join(json.dumps(r) + "\n" for r in (header, *rows)))
    capsys.readouterr()
    assert run(["evaluate", out]) == 0
    assert "mean SNR loss (dB)  inf" in capsys.readouterr().out
    assert run(["evaluate", out, "--json"]) == 0
    text = capsys.readouterr().out
    assert "Infinity" not in text
    assert json.loads(text)["mean_snr_loss_db"] is None


def test_evaluate_rejects_topk_below_1(scenario_file, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scenario_file, "--out", out]) == 0
    capsys.readouterr()
    for ks in (["0"], ["3", "-2"]):
        assert run(["evaluate", out, "--topk", *ks]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "accuracy" not in captured.out


def test_inspect_command(scenario_file, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    run(["generate", "--scenario", scenario_file, "--out", out])
    capsys.readouterr()
    assert run(["inspect", out]) == 0
    text = capsys.readouterr().out
    assert "frame" in text.splitlines()[0]
    assert run(["inspect", out, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 10


def test_sweep_command(scenario_file, tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", scenario_file,
                "--sigmas", "0,4", "--seeds", 2, "--out", csv]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "pixel_sigma,mean_top1_accuracy"
    assert len(lines) == 3
    sigma0 = float(lines[1].split(",")[1])
    assert 0.0 <= sigma0 <= 1.0
    capsys.readouterr()
    assert run(["sweep", "--scenario", scenario_file,
                "--sigmas", "0,4", "--seeds", 2, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["pixel_sigma"] for row in payload] == [0.0, 4.0]


def test_sweep_csv_sigmas_read_back_exactly(scenario_file, capsys):
    """Each pixel_sigma of the CSV parses back to the sigma given: written
    as ``:g`` where that is exact, else as its ``repr``."""
    sigmas = ["0.1234567", "0.1234568", "1234567", "0", "2.5", "1e-07"]
    assert run(["sweep", "--scenario", scenario_file,
                "--sigmas", ",".join(sigmas), "--seeds", 1]) == 0
    written = [row.split(",")[0]
               for row in capsys.readouterr().out.splitlines()[1:]]
    assert list(map(float, written)) == list(map(float, sigmas))
    assert written == ["0.1234567", "0.1234568", "1234567.0", "0", "2.5",
                       "1e-07"]


def test_shipped_sweep_csv_is_pinned(capsys):
    assert run(["sweep", "--scenario", SHIPPED_SCENARIO, "--seed", 0]) == 0
    assert capsys.readouterr().out == (
        "pixel_sigma,mean_top1_accuracy\n0,0.910198\n2,0.904795\n"
        "5,0.894825\n10,0.876104\n20,0.838356\n")


def test_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run(["generate", "--scenario", missing,
                "--out", tmp_path / "x.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("[system]\nframes = ten\n")
    assert run(["generate", "--scenario", bad,
                "--out", tmp_path / "x.jsonl"]) == 1
    assert run(["evaluate", tmp_path / "missing.jsonl"]) == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--pixel-sigma", "nan"],
    ["generate", "--pixel-sigma", "inf"],
    ["sweep", "--sigmas", "0,nan", "--seeds", 2],
    ["sweep", "--seeds", 0],
    ["generate", "--render-every", "-1"],
    ["generate", "--seed", "-1", "--render-every", 5, "--render-dir", "r"],
    ["sweep", "--seed", "-1", "--out", "acc.csv"],
])
def test_bad_detector_settings_exit_1(argv, scenario_file, tmp_path,
                                      monkeypatch, capsys):
    """A bad detector setting fails the run before the truth pass, and the
    run creates no file or directory."""
    before = sorted(tmp_path.rglob("*"))
    truth_passes = []
    monkeypatch.setattr(pl.Simulator, "run_truth",
                        lambda sim: truth_passes.append(sim))
    monkeypatch.chdir(tmp_path)
    command, *options = argv
    if command == "generate":
        options += ["--out", "x.jsonl"]
    assert run([command, "--scenario", scenario_file, *options]) == 1
    assert "error:" in capsys.readouterr().err
    assert truth_passes == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "nodir/ds.jsonl"],
    ["generate", "--out", "afile/ds.jsonl"],
    ["generate", "--out", "adir"],
    ["generate", "--out", "ds.jsonl", "--stats", "nodir/s.json"],
    ["generate", "--out", "ds.jsonl", "--stats", "adir"],
    ["generate", "--out", "ds.jsonl", "--render-every", 5,
     "--render-dir", "afile/sub"],
    ["sweep", "--out", "nodir/acc.csv"],
    ["sweep", "--stats", "afile/s.json"],
    ["generate", "--out", "ds.jsonl", "--timings", "nodir/t.json"],
    ["sweep", "--timings", "adir"],
    ["generate", "--out", "ds.jsonl", "--render-every", 5,
     "--render-dir", "afile"],
])
def test_unwritable_outputs_fail_before_the_truth_pass(
        argv, scenario_file, tmp_path, monkeypatch, capsys):
    """An output path that cannot be written fails the run before the truth
    pass with an error that names it and why, and the run writes no
    file."""
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    truth_passes = []
    monkeypatch.setattr(pl.Simulator, "run_truth",
                        lambda sim: truth_passes.append(sim))
    monkeypatch.chdir(tmp_path)
    command, *options = argv
    assert run([command, "--scenario", scenario_file, *options]) == 1
    # The last option is the path at fault.
    path = options[-1]
    why = "it is" if path == "adir" else f"{path.split('/')[0]} is not"
    assert capsys.readouterr().err \
        == f"error: cannot write {path}: {why} a directory\n"
    assert truth_passes == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "x.jsonl"],
    ["sweep"],
    ["render", "--frame", 0, "--out", "f.ppm"],
])
def test_an_unknown_bs_exits_1(argv, scenario_file, tmp_path, monkeypatch,
                               capsys):
    """``--bs`` with no such BS names it in an error, not a traceback, and
    the run writes no file."""
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    command, *options = argv
    assert run([command, "--scenario", scenario_file, "--bs", "nosuch",
                *options]) == 1
    assert capsys.readouterr().err == "error: unknown bs 'nosuch'\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("old, new, message", [
    ("frames = 10\n", "frames = 10\nfps = 30\n",
     "line 3, column 1: unknown key 'fps' in section [system]"),
    ("material = concrete\n", "material = concrete\nshape = box\n",
     "line 17, column 1: unknown key 'shape' in section [reflector wall]"),
], ids=["fps", "shape"])
def test_a_dropped_scenario_key_exits_1(old, new, message, tmp_path,
                                        capsys):
    """``fps`` and ``[reflector] shape`` are no longer keys: a file that
    still sets one fails at parse with its line and column, and the run
    writes no dataset."""
    scene = tmp_path / "scene.txt"
    scene.write_text(MINIMAL_SCENARIO.replace(old, new))
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scene, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("data, message", [
    (b"\xff" + MINIMAL_SCENARIO.encode(),
     "line 1, column 1: byte 0xff is not UTF-8 (invalid start byte)"),
    (MINIMAL_SCENARIO.replace("\n", "\r\n").encode().replace(
        b"carrier_ghz = 28", b"carrier_ghz = 2\xe98"),
     "line 3, column 16: byte 0xe9 is not UTF-8 (invalid continuation "
     "byte)"),
], ids=["first-byte", "crlf-line-3"])
def test_a_non_utf8_scenario_names_its_byte(data, message, tmp_path,
                                            capsys):
    """A scenario file that is not UTF-8 fails as a ``ScenarioSyntaxError``
    at the line and column of its first bad byte."""
    scene = tmp_path / "scene.txt"
    scene.write_bytes(data)
    with pytest.raises(sc.ScenarioSyntaxError):
        cli._load_scenario(scene)
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scene, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "inspect"])
def test_a_non_utf8_dataset_names_its_line(command, scenario_file, tmp_path,
                                           capsys):
    """A dataset line that is not UTF-8 fails as a ``DatasetError`` that
    names the line."""
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scenario_file, "--out", out]) == 0
    lines = out.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2][1:]
    out.write_bytes(b"\n".join(lines))
    with pytest.raises(ds.DatasetError, match="^line 3: "):
        ds.import_records(out)
    capsys.readouterr()
    assert run([command, out]) == 1
    assert capsys.readouterr().err == \
        "error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("options, message", [
    (["--frame", 0, "--out", "nodir/f.ppm"], "cannot write"),
    (["--frame", 0, "--out", "afile/f.ppm"], "cannot write"),
    (["--frame", 0, "--out", "adir"], "cannot write"),
    (["--frame", 0, "--out", "f.ppm", "--stats", "nodir/s.json"],
     "cannot write"),
    (["--frame", -1, "--out", "f.ppm"], "outside"),
], ids=["missing-dir", "file-parent", "directory", "stats-missing-dir",
        "bad-frame"])
def test_render_fails_before_the_truth_block(options, message, scenario_file,
                                             tmp_path, monkeypatch, capsys):
    """A bad ``--out``, ``--stats`` or ``--frame`` fails ``render`` before
    it builds the simulator or traces the frame, and the run writes no
    file."""
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    calls = []
    init, block = pl.Simulator.__init__, pl.Simulator._truth_block
    monkeypatch.setattr(pl.Simulator, "__init__", lambda sim, *args: (
        calls.append("init"), init(sim, *args))[1])
    monkeypatch.setattr(pl.Simulator, "_truth_block", lambda sim, frames: (
        calls.append("truth"), block(sim, frames))[1])
    monkeypatch.chdir(tmp_path)
    assert run(["render", "--scenario", scenario_file, *options]) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("stl_bytes", [
    None,
    b"garbage",
    b"zero triangles".ljust(80, b"\0") + bytes(4),
    b"solid wall\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\n"
    b"vertex 1 0 nan\nvertex 0 1 0\nendloop\nendfacet\nendsolid wall\n",
], ids=["missing", "not-stl", "zero-triangles", "nan-vertex"])
def test_a_bad_mesh_file_names_its_reflector(stl_bytes, tmp_path, capsys):
    if stl_bytes is not None:
        (tmp_path / "wall.stl").write_bytes(stl_bytes)
    scene = tmp_path / "scene.txt"
    scene.write_text(MINIMAL_SCENARIO.replace(
        "material = concrete", "material = concrete\nmesh_path = wall.stl"))
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scene, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reflector 'wall': cannot load mesh "
                          "'wall.stl': ")
    assert not out.exists()


def test_help_runs():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_zero_channel_row_is_an_outage(scenario_file, tmp_path, monkeypatch):
    """Paths whose channel sums to zero leave no usable beam: an outage row
    that export, import, evaluate and inspect all read."""
    monkeypatch.setattr(pl, "build_channels",
                        lambda paths, n, *args: np.zeros((len(paths), n),
                                                         complex))
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scenario_file, "--out", out]) == 0
    _, records = ds.import_records(out)
    assert all(u.outage for rec in records for u in rec.ues)
    assert ds.evaluate(records).outage_rate == 1.0
    assert run(["evaluate", out]) == 0
    assert run(["inspect", out]) == 0

    u = pl.Simulator(sc.parse_scenario(MINIMAL_SCENARIO)).frame_truth(0).ues[0]
    assert u.paths
    assert u.outage
    assert u.beam_snrs_db is None
    assert u.optimal_index is None


def test_ue_at_the_bs_is_an_outage_row(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(MINIMAL_SCENARIO.replace(
        "keyframe = 9", "keyframe = 5 : 0, 0, 6\nkeyframe = 9"))
    out = tmp_path / "ds.jsonl"
    assert run(["generate", "--scenario", scene, "--out", out]) == 0
    _, records = ds.import_records(out)
    u = records[5].ues[0]
    assert u.position == (0.0, 0.0, 6.0)
    assert u.outage and u.paths == () and u.optimal_index is None
    assert not any(u.outage for rec in records if rec.frame != 5
                   for u in rec.ues)
    assert run(["evaluate", out]) == 0
    assert run(["inspect", out, "--json"]) == 0
    inspected = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [s["outages"] for s in inspected] == [0] * 5 + [1] + [0] * 4

    # Direct callers of the tracer still get the error.
    sim = pl.Simulator(sc.parse_scenario(scene.read_text()))
    bs = np.asarray(sim.bs.position, float)
    with pytest.raises(ValueError, match="tx and rx must differ"):
        ref.trace_paths(sim.frame_scene(5)[0], bs, bs, 2, 28.0)
