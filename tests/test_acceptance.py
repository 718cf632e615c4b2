"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line (visible even under pytest output
capture) and then asserts, so the suite doubles as a checklist. All
reference values are computed by independent in-test oracles, not by the
library code under test.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from beamcam import channel as ch
from beamcam import dataset as ds
from beamcam import geometry as geo
from beamcam import pipeline as pl
from beamcam import raytrace as rt
from beamcam import scenario as sc
from beamcam import stl
from beamcam.camera import CameraModel, pixel_to_azimuth

import reference as ref
from conftest import REPO_ROOT, SHIPPED_SCENARIO


def report(number, label, ok, detail="", capsys=None):
    line = (f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}"
            + (f" [{detail}]" if detail else ""))
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)


def test_criterion_1_physics_oracle(capsys):
    t0 = time.perf_counter()
    carrier = 28.0
    lam = rt.C_LIGHT / (carrier * 1e9)

    p10 = ref.compute_path_component(
        [ref.vec3(0, 0, 0), ref.vec3(10, 0, 0)], [], carrier)
    p20 = ref.compute_path_component(
        [ref.vec3(0, 0, 0), ref.vec3(20, 0, 0)], [], carrier)

    gain_expected = lam / (4 * math.pi * 10.0)
    gain_ok = abs(abs(p10.gain) - gain_expected) <= 1e-12 * gain_expected
    drop_db = p10.gain_db - p20.gain_db
    drop_ok = abs(drop_db - 6.0206) <= 1e-9 + 5e-5  # 6.0206 is 4 d.p.
    exact_drop_ok = abs(drop_db - 20 * math.log10(2.0)) <= 1e-9
    delay_ok = abs(p10.delay_s - 10.0 / 299792458.0) <= 1e-15
    elapsed = time.perf_counter() - t0

    ok = gain_ok and drop_ok and exact_drop_ok and delay_ok and elapsed < 1.0
    report(1, "physics oracle", ok,
           f"gain={abs(p10.gain):.6e} drop={drop_db:.6f} dB "
           f"delay={p10.delay_s:.3e} s {elapsed:.2f}s", capsys)
    assert gain_ok, f"LOS gain {abs(p10.gain)} vs {gain_expected}"
    assert drop_ok and exact_drop_ok, f"doubling drop {drop_db}"
    assert delay_ok, f"delay {p10.delay_s}"
    assert elapsed < 1.0


def test_criterion_2_image_method_vs_fermat(capsys):
    t0 = time.perf_counter()
    center, size = (0.0, 5.0, 5.0), (40.0, 0.5, 10.0)
    scene = rt.SceneGeometry(
        [("wall", geo.box_mesh(center, size, material="metal"))],
        [(center, size, 0.0, "metal")], {"metal": 0.95})
    tx = ref.vec3(-6.0, 0.5, 2.0)
    rx = ref.vec3(7.0, 1.5, 4.0)
    paths = ref.trace_with_points(scene, tx, rx, 1, 28.0)
    bounce, points = [pair for pair in paths if pair[0].bounces == 1][0]

    # Independent oracle: Fermat's principle by brute force. The bounce
    # point lies on the wall front plane y = 4.75; minimize the total
    # length over a 100x100 grid and refine by local search.
    y_pl = 4.75

    def total(xz):
        p = np.array([xz[0], y_pl, xz[1]])
        return np.linalg.norm(p - tx) + np.linalg.norm(rx - p)

    xs = np.linspace(-20.0, 20.0, 100)
    zs = np.linspace(0.0, 10.0, 100)
    grid = np.array([[total((x, z)) for z in zs] for x in xs])
    i, j = np.unravel_index(grid.argmin(), grid.shape)
    best = np.array([xs[i], zs[j]])
    try:
        from scipy.optimize import minimize
        res = minimize(total, best, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13})
        fermat = res.fun
    except ImportError:  # coordinate-descent fallback
        step = max(xs[1] - xs[0], zs[1] - zs[0])
        while step > 1e-9:
            moved = False
            for d in ((step, 0), (-step, 0), (0, step), (0, -step)):
                cand = best + d
                if total(cand) < total(best):
                    best, moved = cand, True
            if not moved:
                step /= 2.0
        fermat = total(best)

    len_ok = abs(bounce.length_m - fermat) <= 1e-6

    a, m, b = points
    n = np.array([0.0, -1.0, 0.0])
    d_in, d_out = ref.normalize(m - a), ref.normalize(b - m)
    ang_in = math.acos(np.clip((-d_in) @ n, -1, 1))
    ang_out = math.acos(np.clip(d_out @ n, -1, 1))
    law_ok = abs(ang_in - ang_out) <= 1e-9
    elapsed = time.perf_counter() - t0

    ok = len_ok and law_ok and elapsed < 5.0
    report(2, "image method vs Fermat", ok,
           f"len={bounce.length_m:.9f} fermat={fermat:.9f} "
           f"law_err={abs(ang_in - ang_out):.2e} rad {elapsed:.2f}s", capsys)
    assert len_ok, f"{bounce.length_m} vs {fermat}"
    assert law_ok, f"{ang_in} vs {ang_out}"
    assert elapsed < 5.0


def test_criterion_3_beam_sweep_equivalence(capsys):
    t0 = time.perf_counter()
    n, q = 8, 16
    cb = ch.generate_codebook(n, 0.5, q)
    rng = np.random.default_rng(12345)

    def oracle_scan(h):
        # Independent implementation: python loops, no shared helpers.
        best_i, best_g = None, -1.0
        for i in range(q):
            center = math.radians((i + 0.5) * 180.0 / q)
            acc = 0j
            for k in range(n):
                w_k = complex(math.cos(2 * math.pi * 0.5 * k
                                       * math.cos(center)),
                              math.sin(2 * math.pi * 0.5 * k
                                       * math.cos(center)))
                acc += w_k.conjugate() * h[k] / math.sqrt(n)
            g = abs(acc)
            if g > best_g + 1e-15:
                best_i, best_g = i, g
        return best_i

    mismatches = 0
    for trial in range(1000):
        n_paths = rng.integers(1, 4)
        paths = []
        for _ in range(n_paths):
            az = rng.uniform(0.0, 180.0)
            amp = 10.0 ** rng.uniform(-6, -3)
            phase = rng.uniform(0, 2 * math.pi)
            d = 10.0
            end = ref.vec3(d * math.cos(math.radians(az)),
                           d * math.sin(math.radians(az)), 0.0)
            p = ref.compute_path_component([ref.vec3(0, 0, 0), end], [], 28.0)
            # Re-scale to the random amplitude/phase.
            scale = amp * np.exp(1j * phase) / p.gain
            paths.append(rt.PathComponent(
                gain=p.gain * scale, delay_s=p.delay_s,
                aod_az_deg=p.aod_az_deg, aod_el_deg=p.aod_el_deg,
                aoa_az_deg=p.aoa_az_deg, aoa_el_deg=p.aoa_el_deg,
                bounces=0, length_m=p.length_m))
        h = ch.build_channels([paths], n, 0.5, 90.0)[0]
        idx = int(ch.beam_tables(h[None], cb, 30.0, -90.0)[1][0])
        if idx != oracle_scan(h):
            mismatches += 1

    # Tie case: a channel symmetric about broadside produces pairwise-equal
    # beam gains; both implementations must break ties to the lowest index.
    h_sym = np.ones(n, dtype=complex)
    snrs, best = ch.beam_tables(h_sym[None], cb, 30.0, -90.0)
    snrs, idx_sym = snrs[0].tolist(), int(best[0])
    tie_partner = q - 1 - idx_sym
    tie_ok = (snrs[idx_sym] == pytest.approx(snrs[tie_partner], abs=1e-9)
              and idx_sym < tie_partner
              and idx_sym == oracle_scan(h_sym))
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and tie_ok and elapsed < 5.0
    report(3, "beam sweep equivalence", ok,
           f"mismatches={mismatches}/1000 tie_ok={tie_ok} "
           f"{elapsed:.2f}s", capsys)
    assert mismatches == 0
    assert tie_ok
    assert elapsed < 5.0


@pytest.mark.parametrize("q", [4, 16, 64])
def test_criterion_4_quantizer_bin_match(q, capsys):
    t0 = time.perf_counter()
    n = 16
    cb = ch.generate_codebook(n, 0.5, q)
    width = 180.0 / q
    thetas = np.arange(0.0, 180.0, 0.1)
    margin = np.minimum(thetas % width, width - thetas % width)
    thetas = thetas[margin >= 0.5]

    mismatches = []
    for theta in thetas:
        az_world = ref.array_to_world_deg(theta, 90.0)
        d = 10.0
        end = ref.vec3(d * math.cos(math.radians(az_world)),
                       d * math.sin(math.radians(az_world)), 0.0)
        p = ref.compute_path_component([ref.vec3(0, 0, 0), end], [], 28.0)
        h = ch.build_channels([[p]], n, 0.5, 90.0)[0]
        idx = int(ch.beam_tables(h[None], cb, 30.0, -90.0)[1][0])
        if idx != cb.bin_index(theta):
            mismatches.append(float(theta))
    elapsed = time.perf_counter() - t0

    ok = not mismatches and elapsed < 30.0
    report(4, f"quantizer bin match Q={q}", ok,
           f"mismatches={len(mismatches)}/{len(thetas)} "
           f"{elapsed:.2f}s", capsys)
    assert not mismatches, (
        f"Q={q}: argmax beam disagrees with the angular bin at "
        f"{len(mismatches)} of {len(thetas)} angles (first few: "
        f"{mismatches[:5]}); the beam-gain decision boundaries sit at "
        f"midpoints in cosine space, not angle space, so near bin edges "
        f"the best beam is the angular neighbor")
    assert elapsed < 30.0


def test_criterion_5_projection_round_trip(capsys):
    t0 = time.perf_counter()
    cam = CameraModel.from_bs(sc.BsConfig(
        name="b", position=(0.0, 0.0, 6.0), boresight_deg=90.0,
        array_ref="a", camera=sc.CameraConfig(yaw_deg=90.0)))
    azimuths = np.linspace(45.0 + 1e-6, 135.0 - 1e-6, 1000)
    worst = 0.0
    for az in azimuths:
        p = (30 * math.cos(math.radians(az)),
             30 * math.sin(math.radians(az)), 6.0)
        u, _ = ref.project_point(cam, p)
        err = abs(pixel_to_azimuth(cam, u) % 360.0 - az)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 1.0
    report(5, "projection round trip", ok,
           f"worst={worst:.2e} deg {elapsed:.2f}s", capsys)
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_6_noiseless_end_to_end(capsys):
    t0 = time.perf_counter()
    scenario = sc.parse_scenario(SHIPPED_SCENARIO.read_text())
    sim = pl.Simulator(scenario, base_dir=REPO_ROOT)
    records = sim.apply_detector(sim.run_truth(), pl.DetectorNoiseModel())

    q = scenario.system.codebook_size_q
    width = 180.0 / q
    eligible = matches = outages = 0
    flag_consistent = True
    losses = []
    for rec in records:
        for u in rec.ues:
            if not u.active:
                continue
            flag_consistent &= (u.outage == (len(u.paths) == 0))
            if u.outage:
                outages += 1
                continue
            los = [p for p in u.paths if p.bounces == 0]
            if (u.bbox is None or u.bbox.visibility < 1.0 or not los
                    or u.detection is None or u.predicted_index is None):
                continue
            rel = ch.world_to_array_deg(los[0].aod_az_deg,
                                        sim.bs.boresight_deg)
            m = rel % width
            if min(m, width - m) < 0.5:
                continue
            eligible += 1
            if u.predicted_index == u.optimal_index:
                matches += 1
            losses.append(u.beam_snrs_db[u.optimal_index]
                          - u.beam_snrs_db[u.predicted_index])
    elapsed = time.perf_counter() - t0

    accuracy = matches / eligible if eligible else 0.0
    mean_loss = sum(losses) / len(losses) if losses else float("inf")
    ok = (eligible > 0 and accuracy >= 0.99 and mean_loss <= 0.5
          and outages >= 1 and flag_consistent and elapsed < 60.0)
    report(6, "noiseless end-to-end", ok,
           f"acc={accuracy:.4f} ({matches}/{eligible}) "
           f"loss={mean_loss:.4f} dB outages={outages} "
           f"{elapsed:.1f}s", capsys)
    assert eligible > 0
    assert accuracy >= 0.99
    assert mean_loss <= 0.5
    assert outages >= 1
    assert flag_consistent
    assert elapsed < 60.0


def test_criterion_7_noise_degradation(shipped_truth, capsys):
    t0 = time.perf_counter()
    sim, truth = shipped_truth
    sigmas = [0.0, 2.0, 5.0, 10.0, 20.0]
    seeds = 20
    means = []
    for sigma in sigmas:
        accs = []
        for seed in range(seeds):
            model = pl.DetectorNoiseModel(pixel_sigma=sigma, seed=seed)
            accs.append(ds.evaluate(
                sim.apply_detector(truth, model)).top1_accuracy)
        means.append(sum(accs) / len(accs))
    elapsed = time.perf_counter() - t0

    monotone = all(a >= b for a, b in zip(means, means[1:]))
    in_band = any(0.80 <= m <= 0.99 for m in means)
    ok = monotone and in_band and elapsed < 300.0
    report(7, "noise degradation", ok,
           "means=" + ",".join(f"{m:.4f}" for m in means)
           + f" {elapsed:.1f}s", capsys)
    assert monotone, means
    assert in_band, means
    assert elapsed < 300.0


def test_criterion_8_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    outputs = []
    # The child imports beamcam from this checkout, installed or not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for run in ("a", "b"):
        out = tmp_path / f"{run}.jsonl"
        rdir = tmp_path / f"renders_{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "beamcam.cli", "generate",
             "--scenario", str(SHIPPED_SCENARIO), "--out", str(out),
             "--seed", "42", "--pixel-sigma", "2.5",
             "--render-every", "100", "--render-dir", str(rdir)],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env)
        assert proc.returncode == 0, proc.stderr
        renders = {p.name: p.read_bytes() for p in sorted(rdir.glob("*.ppm"))}
        outputs.append((out.read_bytes(), renders))
    elapsed = time.perf_counter() - t0

    (ds_a, ren_a), (ds_b, ren_b) = outputs
    dataset_ok = ds_a == ds_b
    renders_ok = (ren_a.keys() == ren_b.keys() and len(ren_a) >= 1
                  and all(ren_a[k] == ren_b[k] for k in ren_a))
    ok = dataset_ok and renders_ok and elapsed < 60.0
    report(8, "determinism", ok,
           f"dataset={'identical' if dataset_ok else 'DIFFERS'} "
           f"renders={len(ren_a)} {'identical' if renders_ok else 'DIFFER'} "
           f"{elapsed:.1f}s", capsys)
    assert dataset_ok
    assert renders_ok
    assert elapsed < 60.0


def test_criterion_9_format_round_trips(shipped_truth, tmp_path, capsys):
    t0 = time.perf_counter()

    # STL: binary write -> read preserves the float32 vertex payload.
    rng = np.random.default_rng(99)
    tris = rng.standard_normal((25, 3, 3)).astype(np.float32).astype(float)
    mesh = geo.Mesh(tris, material="metal")
    back = stl.parse_stl(ref.write_stl(mesh))
    stl_ok = np.array_equal(np.asarray(back.tris, np.float32),
                            np.asarray(mesh.tris, np.float32))

    # Dataset: export -> import is value-equal under evaluation and
    # field-by-field on key values.
    sim, truth = shipped_truth
    records = sim.apply_detector(
        truth[:50], pl.DetectorNoiseModel(pixel_sigma=1.5, seed=3))
    path = tmp_path / "rt.jsonl"
    ds.export_records(records, path)
    _, back_records = ds.import_records(path)
    dataset_ok = (
        ds.evaluate(back_records) == ds.evaluate(records)
        and all(a.frame == b.frame
                and [u.optimal_index for u in a.ues]
                == [u.optimal_index for u in b.ues]
                and [u.predicted_index for u in a.ues]
                == [u.predicted_index for u in b.ues]
                for a, b in zip(records, back_records)))

    # Scenario: parse -> serialize -> parse is a fixpoint.
    s1 = sc.parse_scenario(SHIPPED_SCENARIO.read_text())
    text = sc.serialize_scenario(s1)
    s2 = sc.parse_scenario(text)
    scenario_ok = s1 == s2 and sc.serialize_scenario(s2) == text
    elapsed = time.perf_counter() - t0

    ok = stl_ok and dataset_ok and scenario_ok and elapsed < 5.0
    report(9, "format round trips", ok,
           f"stl={stl_ok} dataset={dataset_ok} scenario={scenario_ok} "
           f"{elapsed:.2f}s", capsys)
    assert stl_ok
    assert dataset_ok
    assert scenario_ok
    assert elapsed < 5.0
