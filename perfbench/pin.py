"""Regenerate ``goldens.json``, the digests the benchmark checks outputs against.

Run from the repository root, on a commit whose outputs are the reference:

    python3 perfbench/pin.py

It takes about ten minutes on two cores, most of it the order-4 truth of
all 300 frames. Tables keyed by seed cover seeds 0..255; other seeds are
still checked against the seed-independent digests (truth rows, renders,
the sigma-0 sweep row and every order-4 frame).
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import time
from pathlib import Path

import workloads as wl

PINNED_SEEDS = range(256)
#: sha256 of ``generate --seed 0 --pixel-sigma 2`` on the shipped scenario.
REFERENCE_SHA256 = \
    "c5393b2ba4ba994a8c1f5f146a8d8478cb2f38bd74136f394678319cc7f21830"
SWEEP_SIGMAS = (0.0, 2.0, 5.0, 10.0, 20.0)
SWEEP_SEEDS = 20


def _generate_bytes(sim, truth, seed: int) -> bytes:
    """What ``generate --seed seed --pixel-sigma 2`` writes, built in memory."""
    from beamcam import dataset as ds
    from beamcam.pipeline import DetectorNoiseModel
    model = DetectorNoiseModel(pixel_sigma=wl.GENERATE_SIGMA, seed=seed)
    metadata = {"seed": seed, "pixel_sigma": wl.GENERATE_SIGMA,
                "miss_prob": 0.0, "scenario": wl.SCENARIO.name,
                "bs": sim.bs.name}
    buf = io.StringIO()
    ds.export_records(sim.apply_detector(truth, model), buf, metadata)
    return buf.getvalue().encode("utf-8")


def _sweep_csvs(sim, truth, seeds) -> dict[int, str]:
    """What ``sweep --seed s`` writes for each s, from one table of rounds."""
    from beamcam import dataset as ds
    from beamcam.pipeline import DetectorNoiseModel
    last = max(seeds) + SWEEP_SEEDS
    acc = {
        (sigma, s): ds.evaluate(sim.apply_detector(
            truth, DetectorNoiseModel(pixel_sigma=sigma, seed=s))
        ).top1_accuracy
        for sigma in SWEEP_SIGMAS for s in range(last)
    }
    csvs = {}
    for first in seeds:
        lines = ["pixel_sigma,mean_top1_accuracy"]
        for sigma in SWEEP_SIGMAS:
            accs = [acc[sigma, s] for s in range(first, first + SWEEP_SEEDS)]
            lines.append(f"{sigma:g},{sum(accs) / len(accs):.6f}")
        csvs[first] = "\n".join(lines) + "\n"
    return csvs


def main() -> int:
    wl.import_beamcam()
    workdir = wl.ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        goldens = pin(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
    print(f"wrote {wl.GOLDENS}")
    return 0


def pin(workdir: Path) -> dict:
    from beamcam import dataset as ds
    from beamcam import pipeline, scenario
    text = wl.SCENARIO.read_text(encoding="utf-8")
    sim = pipeline.Simulator(scenario.parse_scenario(text), None,
                             wl.SCENARIO.parent)
    truth = sim.run_truth()
    goldens = {"truth_sha256": wl.truth_digest(ds.record_rows(truth))}

    goldens["generate_sha256"] = {
        str(s): wl.sha256(_generate_bytes(sim, truth, s))
        for s in PINNED_SEEDS
    }
    if goldens["generate_sha256"]["0"] != REFERENCE_SHA256:
        raise SystemExit("seed-0 dataset does not match the reference sha256")
    for seed in (0, 1):
        gen = wl.UrbanGenerate(seed, workdir)
        gen.goldens = {"generate_sha256": {}}
        result = gen.op()
        if wl.sha256(result["dataset"]) != goldens["generate_sha256"][str(seed)]:
            raise SystemExit(f"in-memory dataset differs from generate "
                             f"--seed {seed}")
        goldens["render_sha256"] = result["renders"]
    print("generate pinned", file=sys.stderr)

    csvs = _sweep_csvs(sim, truth, PINNED_SEEDS)
    for seed in (0, 1):
        result = wl.UrbanSweep(seed, workdir).op()
        if result["csv"] != csvs[seed]:
            raise SystemExit(f"derived CSV differs from sweep --seed {seed}")
    goldens["sweep_csv_sha256"] = {
        str(s): wl.sha256(csv.encode()) for s, csv in csvs.items()
    }
    goldens["sweep_csv_seed0"] = csvs[0]
    goldens["sweep_sigma0_row"] = csvs[0].splitlines()[1]
    print("sweep pinned", file=sys.stderr)

    deep = pipeline.Simulator(
        scenario.parse_scenario(wl.order4_text(text)), None,
        wl.SCENARIO.parent)
    frame_digests = {}
    for frame in range(deep.scenario.system.frames):
        start = time.perf_counter()
        rec = deep.frame_truth(frame)
        print(f"order-4 frame {frame}: {time.perf_counter() - start:.3f} s",
              file=sys.stderr)
        buf = io.StringIO()
        ds.export_records([rec], buf)
        frame_digests[str(frame)] = wl.sha256(buf.getvalue().encode())
    goldens["deep_order4_frame_sha256"] = frame_digests
    print("deep_order4 pinned", file=sys.stderr)
    return goldens


if __name__ == "__main__":
    sys.exit(main())
