"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload drives beamcam through the entry points its command line
uses (``parse_scenario`` -> ``Simulator`` -> ``run_truth`` /
``apply_detector`` -> ``export_records`` / ``import_records`` /
``evaluate``, plus the render path), in one process and one thread, one
operation after another (a closed loop with a single client).

- ``urban_generate``: the README quick start, ``generate --seed S
  --pixel-sigma 2 --render-every 100`` on the shipped scenario, then the
  dataset it wrote is read back and evaluated. Exercises occlusion, the
  order-2 tracer, export/import and the render path.
- ``urban_sweep``: ``sweep`` with its defaults from seed S. One truth pass
  is followed by 100 detector + evaluate rounds, so detector and evaluate
  costs show and the truth pass is diluted.
- ``deep_order4``: the shipped scenario re-serialized with
  ``max_reflections = 4``, truth on 8 frames chosen from the seed (one per
  equal stretch of the run), each followed by 10 detector + evaluate
  rounds on its records, then exported. Candidate enumeration dominates;
  the camera is about 1% of the time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
import shutil
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import Patches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "urban_three_cars.txt"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

#: Detector noise of the generate workload, as in the README quick start.
GENERATE_SIGMA = 2.0
RENDER_EVERY = 100
DEEP_ORDER = 4
DEEP_FRAMES = 8
DEEP_ROUNDS = 10


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def import_beamcam():
    """Import beamcam from the checkout's own ``src``, never from elsewhere."""
    init = SRC / "beamcam" / "__init__.py"
    if not init.is_file() or not SCENARIO.is_file():
        raise BenchError(f"no beamcam source tree under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import beamcam
    if Path(beamcam.__file__).resolve() != init.resolve():
        raise BenchError(f"beamcam imported from {beamcam.__file__}, "
                         f"not from {SRC}")
    return beamcam


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def truth_digest(rows) -> str:
    """Digest of dataset rows with every detector-dependent field cleared.

    The truth part of a dataset does not depend on the detector seed, so
    one pinned digest checks generate and sweep at any seed.
    """
    h = hashlib.sha256()
    for row in rows:
        row = dict(row, detection=None, predicted_index=None,
                   predicted_azimuth_deg=None)
        h.update(json.dumps(row).encode("utf-8") + b"\n")
    return h.hexdigest()


def deep_frames(seed: int, frames: int) -> list[int]:
    """One frame from each of DEEP_FRAMES equal stretches of the run.

    Per-frame cost changes slowly along the trajectories, so a stratified
    sample keeps the cost of a sample close across seeds.
    """
    rng = random.Random(seed)
    return [int((i + rng.random()) * frames / DEEP_FRAMES)
            for i in range(DEEP_FRAMES)]


def order4_text(text: str) -> str:
    """The scenario text re-serialized with max_reflections = DEEP_ORDER."""
    from beamcam import scenario
    sc = scenario.parse_scenario(text)
    sc = dataclasses.replace(
        sc, system=dataclasses.replace(sc.system,
                                       max_reflections=DEEP_ORDER))
    return scenario.serialize_scenario(sc)


class CallProbe:
    """Records calls of one method: total seconds, end and last result.

    Used on every run (traced or not); it costs two clock reads per call
    and is applied only to calls made once or a few times per operation.
    """

    def __init__(self, owner, name: str):
        self._owner, self._name = owner, name
        self._patches = Patches()
        self.seconds = 0.0
        self.end = None
        self.result = None

    def __enter__(self):
        def make(fn):
            def probe(instance, *args, **kwargs):
                start = perf_counter()
                result = fn(instance, *args, **kwargs)
                self.end = perf_counter()
                self.seconds += self.end - start
                self.result = result
                return result
            return probe
        self._patches.wrap(self._owner.__module__,
                           f"{self._owner.__name__}.{self._name}", make)
        return self

    def __exit__(self, *exc):
        self._patches.undo()


def _cli(argv: list[str]) -> None:
    from beamcam import cli
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"beamcam {argv[0]} exited with {code}")


class Workload:
    """One seed's inputs; ``op`` is the timed unit, ``check`` its outputs."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.goldens = (json.loads(GOLDENS.read_text(encoding="utf-8"))
                        if GOLDENS.is_file() else {})
        self.scenario_text = SCENARIO.read_text(encoding="utf-8")
        self.sim = None

    def setup(self):
        """Parse the scenario and build a Simulator: the set-up cost."""
        from beamcam import pipeline, scenario
        sc = scenario.parse_scenario(self.scenario_text)
        self.sim = pipeline.Simulator(sc, None, SCENARIO.parent)

    def warm_up(self):
        """Touch every code path once on one frame, so the first op is warm."""
        from beamcam import dataset as ds
        from beamcam.pipeline import DetectorNoiseModel
        self.setup()
        truth = [self.sim.frame_truth(0)]
        ds.export_records(truth, io.StringIO())
        ds.evaluate(self.sim.apply_detector(truth, DetectorNoiseModel()))

    def op(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> list[str]:
        raise NotImplementedError

    def _pinned(self, table: str):
        return self.goldens[table].get(str(self.seed))


class UrbanGenerate(Workload):
    name = "urban_generate"

    def op(self) -> dict:
        from beamcam import dataset as ds
        from beamcam.pipeline import Simulator
        out = self.workdir / "dataset.jsonl"
        renders = self.workdir / "renders"
        shutil.rmtree(renders, ignore_errors=True)
        out.unlink(missing_ok=True)
        argv = ["generate", "--scenario", str(SCENARIO), "--out", str(out),
                "--seed", str(self.seed),
                "--pixel-sigma", f"{GENERATE_SIGMA:g}",
                "--render-every", str(RENDER_EVERY),
                "--render-dir", str(renders)]
        with CallProbe(Simulator, "run_truth") as truth, \
                CallProbe(Simulator, "apply_detector") as detector:
            start = perf_counter()
            _cli(argv)
            _, records = ds.import_records(out)
            eval_start = perf_counter()
            metrics = ds.evaluate(records)
            end = perf_counter()
        return {
            "wall_s": end - start,
            "truth_s": truth.seconds,
            "pairs": sum(len(r.ues) for r in truth.result),
            "round_rates": [1.0 / (detector.seconds + end - eval_start)],
            "truth": truth.result,
            "records": detector.result,
            "file_metrics": metrics.as_dict(),
            "dataset": out.read_bytes(),
            "renders": {p.name: sha256(p.read_bytes())
                        for p in sorted(renders.glob("*.ppm"))},
        }

    def check(self, result: dict) -> list[str]:
        from beamcam import dataset as ds
        errors = []
        data = result["dataset"]
        digest = sha256(data)
        pinned = self._pinned("generate_sha256")
        if pinned is not None and digest != pinned:
            errors.append(f"dataset sha256 {digest} != pinned {pinned}")
        rows = [json.loads(line) for line in data.decode().splitlines()[1:]]
        if truth_digest(rows) != self.goldens["truth_sha256"]:
            errors.append("dataset truth rows differ from the pinned truth")
        if result["renders"] != self.goldens["render_sha256"]:
            errors.append(f"renders {result['renders']} differ from the "
                          f"pinned PPM digests")
        in_memory = ds.evaluate(result["records"]).as_dict()
        if in_memory != result["file_metrics"]:
            errors.append("metrics of the re-imported dataset differ from "
                          "in-memory evaluate")
        return errors


class UrbanSweep(Workload):
    name = "urban_sweep"

    def op(self) -> dict:
        from beamcam.pipeline import Simulator
        out = self.workdir / "sweep.csv"
        out.unlink(missing_ok=True)
        argv = ["sweep", "--scenario", str(SCENARIO),
                "--seed", str(self.seed), "--out", str(out)]
        with CallProbe(Simulator, "run_truth") as truth:
            start = perf_counter()
            _cli(argv)
            end = perf_counter()
        return {
            "wall_s": end - start,
            "truth_s": truth.seconds,
            "pairs": sum(len(r.ues) for r in truth.result),
            # The CLI defaults: 5 sigmas x 20 seeds.
            "round_rates": [100 / (end - truth.end)],
            "truth": truth.result,
            "csv": out.read_text(encoding="utf-8"),
        }

    def check(self, result: dict) -> list[str]:
        from beamcam import dataset as ds
        errors = []
        csv = result["csv"]
        pinned = self._pinned("sweep_csv_sha256")
        if pinned is not None and sha256(csv.encode()) != pinned:
            errors.append(f"sweep CSV differs from the pinned one: {csv!r}")
        if self.seed == 0 and csv != self.goldens["sweep_csv_seed0"]:
            errors.append(f"seed-0 sweep CSV {csv!r} differs from the "
                          f"reference")
        # With sigma 0 and no misses the detector ignores its seed.
        if csv.splitlines()[1:2] != [self.goldens["sweep_sigma0_row"]]:
            errors.append(f"sigma-0 row of {csv!r} is not "
                          f"{self.goldens['sweep_sigma0_row']!r}")
        if truth_digest(ds.record_rows(result["truth"])) \
                != self.goldens["truth_sha256"]:
            errors.append("sweep truth pass differs from the pinned truth")
        return errors


class DeepOrder4(Workload):
    name = "deep_order4"

    def __init__(self, seed: int, workdir: Path):
        from beamcam import scenario
        super().__init__(seed, workdir)
        self.order2_text = self.scenario_text
        self.scenario_text = order4_text(self.order2_text)
        frames = scenario.parse_scenario(self.order2_text).system.frames
        self.sample = deep_frames(seed, frames)
        self._order2_sim = None

    def warm_up(self):
        from beamcam import pipeline, scenario
        self.setup()
        self._order2_sim = pipeline.Simulator(
            scenario.parse_scenario(self.order2_text), None, SCENARIO.parent)
        self._order2_sim.frame_truth(self.sample[0])

    def op(self) -> dict:
        from beamcam import dataset as ds
        from beamcam.pipeline import DetectorNoiseModel
        sim = self.sim
        truth, truth_s, round_rates = [], 0.0, []
        start = perf_counter()
        # The detector rounds follow each frame, so they are spread over the
        # operation like the host-speed samples that normalize them.
        for frame in self.sample:
            t0 = perf_counter()
            truth.append(sim.frame_truth(frame))
            truth_s += perf_counter() - t0
            for k in range(DEEP_ROUNDS):
                model = DetectorNoiseModel(pixel_sigma=GENERATE_SIGMA,
                                           seed=self.seed + k)
                t0 = perf_counter()
                ds.evaluate(sim.apply_detector(truth[-1:], model))
                round_rates.append(1.0 / (perf_counter() - t0))
        ds.export_records(truth, io.StringIO())
        end = perf_counter()
        return {
            "wall_s": end - start,
            "truth_s": truth_s,
            "pairs": sum(len(r.ues) for r in truth),
            "round_rates": round_rates,
            "truth": truth,
        }

    def check(self, result: dict) -> list[str]:
        from beamcam import dataset as ds
        errors = []
        pinned = self.goldens["deep_order4_frame_sha256"]
        for rec in result["truth"]:
            buf = io.StringIO()
            ds.export_records([rec], buf)
            if sha256(buf.getvalue().encode()) != pinned[str(rec.frame)]:
                errors.append(f"order-4 truth rows of frame {rec.frame} "
                              f"differ from the pinned digest")
        errors += self.check_order2_contained(result["truth"])
        return errors

    def check_order2_contained(self, truth) -> list[str]:
        """Every order-2 path must appear among the order-4 paths.

        Raising the reflection order only adds candidate chains, so the
        paths of order <= 2 stay the same; they are matched by bounce count
        and length. Needs no golden file.
        """
        errors = []
        for rec in truth:
            low = self._order2_sim.frame_truth(rec.frame)
            for hi_ue, lo_ue in zip(rec.ues, low.ues):
                hi = Counter((p.bounces, p.length_m) for p in hi_ue.paths)
                lo = Counter((p.bounces, p.length_m) for p in lo_ue.paths)
                if lo - hi:
                    errors.append(
                        f"frame {rec.frame} {lo_ue.ue_name}: order-2 paths "
                        f"{sorted(lo - hi)} missing at order {DEEP_ORDER}")
        return errors


WORKLOADS = {w.name: w for w in (UrbanGenerate, UrbanSweep, DeepOrder4)}
