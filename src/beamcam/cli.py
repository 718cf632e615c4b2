"""Command line interface.

Subcommands: generate, evaluate, render, inspect, sweep. Exit code 0 on
success, 1 with a message on stderr on any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataset as ds
from .pipeline import (TRUTH_STAGES, DetectorNoiseModel, FrameRecord,
                       Simulator)
from .render import render_debug_frame, write_ppm
from .scenario import (ScenarioError, ScenarioSyntaxError, decode_utf8,
                       parse_scenario)


def _load_scenario(path: str):
    return parse_scenario(decode_utf8(Path(path).read_bytes(),
                                      ScenarioSyntaxError))


def _render_frame_bytes(sim: Simulator, record: FrameRecord) -> bytes:
    """PPM of one frame's scene with the truth boxes already in its record."""
    scene, _ = sim.frame_scene(record.frame)
    bboxes = [u.bbox for u in record.ues if u.bbox is not None]
    img = render_debug_frame(sim.camera, scene.tset, bboxes)
    return write_ppm(img)


def _check_writable(*paths: str | None) -> None:
    """Fail before the truth pass, not after it, when an output path given
    cannot be written: its parent must be a directory and it must not be
    one."""
    for path in filter(None, paths):
        out = Path(path)
        if not out.parent.is_dir():
            raise ValueError(f"cannot write {path}: {out.parent} is not a "
                             f"directory")
        if out.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")


def _write_stats(sim: Simulator, path: str | None) -> None:
    """Write the counts of the truth pass as JSON, when asked to."""
    if path:
        Path(path).write_text(json.dumps(sim.stats, indent=2, sort_keys=True,
                                         allow_nan=False) + "\n",
                              encoding="utf-8")


def _write_timings(sim: Simulator, path: str | None, *stages: str) -> None:
    """Write the seconds spent in each truth stage and in ``stages`` as
    JSON, when asked to."""
    if path:
        Path(path).write_text(json.dumps(
            {stage: sim.timings[stage] for stage in (*TRUTH_STAGES, *stages)},
            indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _cmd_generate(args) -> int:
    if args.render_every < 0:
        raise ValueError(f"--render-every must be >= 0, got "
                         f"{args.render_every}")
    scenario = _load_scenario(args.scenario)
    base_dir = Path(args.scenario).parent
    model = DetectorNoiseModel(pixel_sigma=args.pixel_sigma,
                               miss_prob=args.miss_prob, seed=args.seed)
    _check_writable(args.out, args.stats, args.timings)
    sim = Simulator(scenario, args.bs, base_dir)
    if args.render_every:
        render_dir = Path(args.render_dir or Path(args.out).parent)
        render_dir.mkdir(parents=True, exist_ok=True)
    truth = sim.run_truth()
    with sim.timed("detector"):
        records = sim.apply_detector(truth, model)
    metadata = {
        "seed": args.seed,
        "pixel_sigma": args.pixel_sigma,
        "miss_prob": args.miss_prob,
        "scenario": Path(args.scenario).name,
        "bs": sim.bs.name,
    }
    with sim.timed("export"):
        count = ds.export_records(records, args.out, metadata)
    _write_stats(sim, args.stats)
    rendered = 0
    with sim.timed("render"):
        if args.render_every:
            for frame in range(0, scenario.system.frames, args.render_every):
                out = render_dir / f"frame_{frame:06d}.ppm"
                out.write_bytes(_render_frame_bytes(sim, records[frame]))
                rendered += 1
    _write_timings(sim, args.timings, "detector", "export", "render")
    print(f"wrote {count} records to {args.out}"
          + (f", {rendered} renders" if rendered else ""))
    return 0


def _cmd_evaluate(args) -> int:
    _, records = ds.import_records(args.dataset)
    ks = tuple(args.topk)
    metrics = ds.evaluate(records, ks)
    if args.json:
        print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True,
                         allow_nan=False))
    else:
        print(metrics.format_table())
    return 0


def _cmd_render(args) -> int:
    scenario = _load_scenario(args.scenario)
    if not 0 <= args.frame < scenario.system.frames:
        raise ValueError(f"frame {args.frame} outside "
                         f"[0, {scenario.system.frames})")
    _check_writable(args.out, args.stats)
    sim = Simulator(scenario, args.bs, Path(args.scenario).parent)
    Path(args.out).write_bytes(
        _render_frame_bytes(sim, sim.frame_truth(args.frame)))
    _write_stats(sim, args.stats)
    print(f"wrote {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    _, records = ds.import_records(args.dataset)
    summaries = []
    for rec in records:
        summaries.append({
            "frame": rec.frame,
            "bs": rec.bs_name,
            "active": sum(u.active for u in rec.ues),
            "visible": sum(u.bbox is not None for u in rec.ues),
            "detected": sum(u.detection is not None for u in rec.ues),
            "outages": sum(u.outage for u in rec.ues),
            "correct": sum(
                u.predicted_index is not None
                and u.predicted_index == u.optimal_index
                for u in rec.ues
            ),
        })
    if args.json:
        print(json.dumps(summaries, allow_nan=False))
    else:
        print(f"{'frame':>6} {'active':>6} {'visible':>7} "
              f"{'detected':>8} {'outages':>7} {'correct':>7}")
        for s in summaries:
            print(f"{s['frame']:>6} {s['active']:>6} {s['visible']:>7} "
                  f"{s['detected']:>8} {s['outages']:>7} {s['correct']:>7}")
    return 0


def _cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    # Every model is made before the truth pass, so a bad sigma fails fast.
    sigmas = [DetectorNoiseModel(pixel_sigma=float(sigma),
                                 miss_prob=args.miss_prob).pixel_sigma
              for sigma in args.sigmas.split(",")]
    scenario = _load_scenario(args.scenario)
    _check_writable(args.out, args.stats, args.timings)
    sim = Simulator(scenario, args.bs, Path(args.scenario).parent)
    truth = sim.run_truth()
    _write_stats(sim, args.stats)
    with sim.timed("sweep"):
        accs = sim.sweep(truth, sigmas,
                         range(args.seed, args.seed + args.seeds),
                         args.miss_prob)
    _write_timings(sim, args.timings, "sweep")
    rows = [(sigma, sum(a) / len(a)) for sigma, a in zip(sigmas, accs)]
    lines = ["pixel_sigma,mean_top1_accuracy"]
    lines += [f"{sigma:g},{acc:.6f}" for sigma, acc in rows]
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.out}")
    if args.json:
        print(json.dumps([{"pixel_sigma": s, "mean_top1_accuracy": a}
                          for s, a in rows], allow_nan=False))
    elif not args.out:
        print(csv_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamcam",
        description="Co-simulate synchronized visual and mmWave beam data "
                    "from a text scenario, and evaluate camera-assisted "
                    "beam selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="simulate a scenario into a JSON-lines dataset")
    gen.add_argument("--scenario", required=True, help="scenario file path")
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.add_argument("--seed", type=int, default=0, help="detector RNG seed")
    gen.add_argument("--pixel-sigma", type=float, default=0.0,
                     help="detector bbox-center jitter (pixels)")
    gen.add_argument("--miss-prob", type=float, default=0.0,
                     help="detector miss probability")
    gen.add_argument("--render-every", type=int, default=0, metavar="N",
                     help="write a PPM render every N frames")
    gen.add_argument("--render-dir", default=None,
                     help="directory for renders (default: alongside --out)")
    gen.add_argument("--bs", default=None, help="BS name (default: first)")
    gen.add_argument("--stats", default=None, metavar="FILE.json",
                     help="write the truth pass's counts (boxes, pairs "
                          "backtracked, chains, paths, segments, outages) "
                          "as JSON")
    gen.add_argument("--timings", default=None, metavar="FILE.json",
                     help="write the seconds spent in each stage (truth "
                          "stages, detector, export, render) as JSON")
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("evaluate", help="compute metrics from a dataset")
    ev.add_argument("dataset", help="dataset file from 'generate'")
    ev.add_argument("--json", action="store_true",
                    help="machine-readable output")
    ev.add_argument("--topk", type=int, nargs="+", default=[1, 3],
                    help="k values for top-k accuracy")
    ev.set_defaults(func=_cmd_evaluate)

    ren = sub.add_parser("render", help="render one frame to a PPM image")
    ren.add_argument("--scenario", required=True)
    ren.add_argument("--frame", type=int, required=True)
    ren.add_argument("--out", required=True)
    ren.add_argument("--bs", default=None)
    ren.add_argument("--stats", default=None, metavar="FILE.json",
                     help="write the rendered frame's truth counts as JSON")
    ren.set_defaults(func=_cmd_render)

    ins = sub.add_parser("inspect", help="per-frame dataset summary")
    ins.add_argument("dataset")
    ins.add_argument("--json", action="store_true")
    ins.set_defaults(func=_cmd_inspect)

    sw = sub.add_parser("sweep",
                        help="accuracy vs detector noise sigma (CSV)")
    sw.add_argument("--scenario", required=True)
    sw.add_argument("--sigmas", default="0,2,5,10,20",
                    help="comma-separated pixel sigmas")
    sw.add_argument("--seeds", type=int, default=20,
                    help="number of detector seeds per sigma")
    sw.add_argument("--seed", type=int, default=0, help="first seed")
    sw.add_argument("--miss-prob", type=float, default=0.0)
    sw.add_argument("--out", default=None, help="CSV output path")
    sw.add_argument("--json", action="store_true")
    sw.add_argument("--bs", default=None)
    sw.add_argument("--stats", default=None, metavar="FILE.json",
                    help="write the truth pass's counts as JSON")
    sw.add_argument("--timings", default=None, metavar="FILE.json",
                    help="write the seconds spent in each stage (truth "
                         "stages, sweep) as JSON")
    sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ds.DatasetError, ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
