"""beamcam benchmark: run one workload at one seed and report its metrics.

    python3 perfbench/run.py --workload urban_generate --seed 0 \\
        --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another, each in a
fresh process. With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. Every output is checked; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads as wl
from tracer import UNMEASURED_NOTE, Tracer

#: Set-ups timed before each operation, interleaved with the operations.
SETUP_REPS = 25
#: No operation starts after this many seconds, whatever ``--seconds`` is.
HARD_STOP_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "truth_pairs_per_s": "1/s",
    "sweep_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "scenario.parse_s", "pipeline.simulator_init_s",
    "camera.project_bbox_s", "camera.project_bbox_self_s",
    "camera.project_bbox_calls", "camera.visible_frac",
    "geometry.segment_occluded_s", "geometry.segment_occluded_calls",
    "geometry.occluded_frac",
    "raytrace.trace_paths_s", "raytrace.trace_paths_self_s",
    "raytrace.trace_paths_calls", "raytrace.paths_kept",
    "raytrace.paths_kept.b0", "raytrace.paths_kept.b1",
    "raytrace.paths_kept.b2", "raytrace.paths_kept.b3",
    "raytrace.paths_kept.b4",
    "raytrace.trace_unoccluded_s", "raytrace.paths_unoccluded",
    "raytrace.keep_ratio",
    "channel.build_channel_s", "channel.optimal_beam_s",
    "channel.outage_rows",
    "pipeline.frame_scene_s", "pipeline.frame_truth_calls",
    "pipeline.apply_detector_s", "pipeline.apply_detector_calls",
    "dataset.export_s", "dataset.export_bytes", "dataset.import_s",
    "dataset.evaluate_s", "dataset.evaluate_calls",
    "render.render_debug_frame_s", "render.frames",
    "trace_overhead_frac",
]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine_context() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def tail(samples: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"{n} samples; no percentile has 10 samples beyond it"
    p = 100 * (n - 10) // n
    return f"{n} samples; p{p} = {sorted(samples)[n - 11]:.6g}"


class Run:
    """One workload at one seed for a fixed time: ops, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool,
                 workdir: Path):
        self.workload = wl.WORKLOADS[name](seed, workdir)
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.errors: list[str] = []
        self.failed_ops = set()
        # Normalized seconds of each set-up, and each batch's factor.
        self.setup_s: list[float] = []
        self.setup_scales: list[float] = []
        self.setup_layers: list[dict] = []
        self.ops = {False: [], True: []}
        self.layer_times: list[dict] = []
        self.layer_counts: list[dict] = []

    def fail(self, message: str):
        self.failed_ops.add(self.attempted)
        self.errors.append(f"op {self.attempted}: {message}")

    def execute(self):
        tracer = self.tracer
        if tracer:
            tracer.install()
        try:
            self.workload.warm_up()
            self._loop()
        finally:
            if tracer:
                tracer.uninstall()

    def _enough(self) -> bool:
        done = [bool(self.ops[False])]
        if self.tracer:
            done.append(bool(self.ops[True]))
        return all(done) or len(self.failed_ops) >= 2

    def _loop(self):
        tracer = self.tracer
        start = perf_counter()
        deadline = start + self.seconds
        while True:
            round_start = perf_counter()
            # Each batch and each operation starts from a collected heap, so
            # garbage collections fall at the same points in every one.
            gc.collect()
            if tracer:
                tracer.reset()
                tracer.enabled = True
            times = []
            with hostspeed.Sampler() as sampler:
                for _ in range(SETUP_REPS):
                    t0 = perf_counter()
                    self.workload.setup()
                    times.append(perf_counter() - t0)
            scale = sampler.factor()
            self.setup_scales.append(scale)
            self.setup_s += [t * scale for t in times]
            if tracer:
                tracer.enabled = False
                self.setup_layers.append(
                    {k: v * scale for k, v in tracer.setup_metrics().items()})
            # Traced runs alternate untraced and traced operations, so the
            # tracing overhead is measured under the same host conditions.
            traced = bool(tracer) and len(self.ops[True]) < len(self.ops[False])
            gc.collect()
            self._one_op(traced)
            now = perf_counter()
            if now - start > HARD_STOP_S:
                break
            # Start another round only if at least half of one more fits.
            if now + (now - round_start) / 2 > deadline and self._enough():
                break

    def _one_op(self, traced: bool):
        tracer = self.tracer
        self.attempted += 1
        if traced:
            tracer.reset()
            tracer.enabled = True
        try:
            with hostspeed.Sampler() as sampler:
                result = self.workload.op()
        except Exception as exc:  # an op that raises counts as failed
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        finally:
            if tracer:
                tracer.enabled = False
        try:
            problems = self.workload.check(result)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            self.fail(problem)
        scale = sampler.factor()
        self.ops[traced].append({
            "scale": scale,
            "wall_s": result["wall_s"],
            "truth_pairs_per_s": result["pairs"] / result["truth_s"],
            "round_rates": result["round_rates"],
        })
        if traced:
            tracer.trace_unoccluded()
            times, counts = tracer.layer_metrics()
            self.layer_times.append({k: v * scale if unit_of(k) == "s" else v
                                     for k, v in times.items()})
            if self.layer_counts and counts != self.layer_counts[0]:
                self.fail("deterministic counts differ between traced "
                          "operations")
            self.layer_counts.append(counts)

    def walls(self, traced: bool = False) -> list[float]:
        """Normalized wall time of each untraced (or traced) operation."""
        return [o["wall_s"] * o["scale"] for o in self.ops[traced]]

    def end_to_end(self) -> dict[str, float]:
        ops = self.ops[False]
        if not ops:
            return {}
        return {
            "wall_s": statistics.median(self.walls()),
            "setup_s": statistics.median(self.setup_s),
            "truth_pairs_per_s": statistics.median(
                o["truth_pairs_per_s"] / o["scale"] for o in ops),
            "sweep_rounds_per_s": statistics.median(
                rate / o["scale"] for o in ops for rate in o["round_rates"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        if not self.layer_times or not self.ops[False]:
            return {}
        metrics = {key: statistics.median(t[key] for t in self.layer_times)
                   for key in self.layer_times[0]}
        metrics.update(self.layer_counts[0])
        for key in self.setup_layers[0]:
            metrics[key] = statistics.median(s[key]
                                             for s in self.setup_layers)
        metrics["trace_overhead_frac"] = (statistics.median(self.walls(True))
                                          / statistics.median(self.walls())
                                          - 1.0)
        return metrics


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    wl.import_beamcam()
    context_start = machine_context()
    workdir = wl.ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, seed, seconds, trace, workdir)
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    metrics = run.per_layer() if trace else run.end_to_end()
    names = PER_LAYER if trace else list(END_TO_END)
    missing = [n for n in names if n not in metrics]
    failed = len(run.failed_ops)
    walls = run.walls()
    raw = [o["wall_s"] for o in run.ops[False]]

    print(f"perfbench {name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"context: {json.dumps(context_start)}")
    for n in names:
        if n in metrics:
            print(f"{n} = {metrics[n]:.6g} {unit_of(n)}")
    print(f"wall_s: {tail(walls)} (untraced operations); normalized "
          f"{json.dumps([round(w, 4) for w in walls])}; raw host seconds "
          f"{json.dumps([round(w, 4) for w in raw])}")
    print(f"host speed: normalizing factor of each operation "
          f"{json.dumps([round(o['scale'], 4) for o in run.ops[False]])}; "
          f"of each set-up batch "
          f"{json.dumps([round(x, 4) for x in run.setup_scales])}")
    print(f"setup_s: median of {len(run.setup_s)} set-ups")
    print(f"failed_frac = {failed / max(run.attempted, 1):.6g} "
          f"({failed} of {run.attempted} operations)")
    for error in run.errors[:20]:
        print(f"error: {error}")
    print(f"note: {UNMEASURED_NOTE}")
    if run.tracer and run.tracer.missing:
        print(f"note: patch points not found (reported as 0 calls): "
              f"{', '.join(run.tracer.missing)}")
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}")
    print(f"context at end: {json.dumps(machine_context())}")
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)}
                    for n in names if n in metrics},
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.workload == "all":
            wl.import_beamcam()
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except wl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
