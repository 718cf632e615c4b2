"""Per-layer tracing from outside the program.

Public beamcam functions are wrapped where their callers look them up
(for example ``beamcam.pipeline.trace_paths`` and
``TriangleSet.segment_occluded``). Each wrapped call is a span: its
duration is added to the layer's total, and its self time is the
duration minus the time covered by wrapped calls made inside it. Spans
and counters live in memory and are read out after each operation.

A patch point that no longer exists is skipped and its layer reports 0
calls, so a later refactor shows up as a count change, not a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

# (layer, module, attribute path). A layer may be looked up in more than
# one place; each place is wrapped and all of them feed the same layer.
PATCH_POINTS = [
    ("scenario.parse", "beamcam.scenario", "parse_scenario"),
    ("scenario.parse", "beamcam.cli", "parse_scenario"),
    ("pipeline.simulator_init", "beamcam.pipeline", "Simulator.__init__"),
    ("pipeline.frame_scene", "beamcam.pipeline", "Simulator.frame_scene"),
    ("pipeline.frame_truth", "beamcam.pipeline", "Simulator.frame_truth"),
    ("pipeline.apply_detector", "beamcam.pipeline",
     "Simulator.apply_detector"),
    ("camera.project_bbox", "beamcam.pipeline", "project_bbox"),
    ("geometry.segment_occluded", "beamcam.geometry",
     "TriangleSet.segment_occluded"),
    ("raytrace.trace_paths", "beamcam.pipeline", "trace_paths"),
    ("channel.build_channel", "beamcam.pipeline", "build_channel"),
    ("channel.optimal_beam", "beamcam.pipeline", "optimal_beam"),
    ("dataset.export", "beamcam.dataset", "export_records"),
    ("dataset.import", "beamcam.dataset", "import_records"),
    ("dataset.evaluate", "beamcam.dataset", "evaluate"),
    ("render.render_debug_frame", "beamcam.cli", "render_debug_frame"),
]

#: Highest bounce count reported as its own ``raytrace.paths_kept.bN``.
MAX_BOUNCES = 4

UNMEASURED_NOTE = ("beamcam.stl and beamcam.materials are not measured: "
                   "no shipped scenario loads a mesh")


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module_name: str, attr_path: str, make_wrapper) -> bool:
        where = _resolve(module_name, attr_path)
        if where is None:
            return False
        owner, leaf = where
        original = getattr(owner, leaf)
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(original))
        return True

    def undo(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


class Tracer:
    """Span timer and counters for the layers in PATCH_POINTS."""

    def __init__(self):
        self.enabled = False
        self.missing: list[str] = []
        self._patches = Patches()
        self._stack: list[list[float]] = []
        self._trace_paths = None
        self._trace_args: list[inspect.BoundArguments] = []
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._trace_args = []

    def install(self):
        for layer, module_name, attr_path in PATCH_POINTS:
            hook = getattr(self, "_on_" + layer.split(".")[1], None)
            ok = self._patches.wrap(
                module_name, attr_path,
                lambda fn, layer=layer, hook=hook: self._span(layer, fn, hook))
            if not ok:
                self.missing.append(f"{module_name}.{attr_path}")

    def uninstall(self):
        self._patches.undo()

    def _span(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                tracer.total[layer] += duration
                tracer.self_time[layer] += duration - children[0]
                tracer.calls[layer] += 1
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result
        return wrapper

    # Counters recorded at the same boundaries as the spans.

    def _on_project_bbox(self, fn, args, kwargs, result):
        self.counts["camera.visible"] += result is not None

    def _on_segment_occluded(self, fn, args, kwargs, result):
        self.counts["geometry.occluded"] += bool(result)

    def _on_optimal_beam(self, fn, args, kwargs, result):
        self.counts["channel.outage_rows"] += result[0] is None

    def _on_export(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        dest = bound.arguments.get("destination")
        if hasattr(dest, "getvalue"):
            size = len(dest.getvalue().encode("utf-8"))
        elif dest is not None and os.path.exists(dest):
            size = os.path.getsize(dest)
        else:
            size = 0
        self.counts["dataset.export_bytes"] += size

    def _on_trace_paths(self, fn, args, kwargs, result):
        self._trace_paths = fn
        self.counts["raytrace.paths_kept"] += len(result)
        for path in result:
            key = min(path.bounces, MAX_BOUNCES)
            self.counts[f"raytrace.paths_kept.b{key}"] += 1
        try:
            self._trace_args.append(inspect.signature(fn).bind(*args, **kwargs))
        except TypeError:
            pass

    def trace_unoccluded(self):
        """Re-run the recorded trace_paths calls with no occluder meshes.

        Runs untraced, after the operation, so it adds nothing to the
        operation's spans. It isolates candidate enumeration from
        occlusion: ``paths_kept / paths_unoccluded`` is the share of
        geometrically valid paths that occlusion lets through.
        """
        from beamcam.raytrace import SceneGeometry

        enabled, self.enabled = self.enabled, False
        snapshots = {}
        try:
            for bound in self._trace_args:
                scene = bound.arguments.get("scene")
                if scene is None:
                    continue
                bare = snapshots.get(id(scene))
                if bare is None:
                    bare = SceneGeometry([], scene.faces, scene.materials)
                    snapshots[id(scene)] = bare
                bound.arguments["scene"] = bare
                start = perf_counter()
                paths = self._trace_paths(*bound.args, **bound.kwargs)
                self.total["raytrace.trace_unoccluded"] += \
                    perf_counter() - start
                self.counts["raytrace.paths_unoccluded"] += len(paths)
        finally:
            self.enabled = enabled
            self._trace_args = []

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(times in seconds, deterministic counts) for one operation."""

        def ratio(num, den):
            return num / den if den else 0.0

        calls, counts = self.calls, self.counts
        times = {
            "camera.project_bbox_s": self.total["camera.project_bbox"],
            "camera.project_bbox_self_s":
                self.self_time["camera.project_bbox"],
            "geometry.segment_occluded_s":
                self.total["geometry.segment_occluded"],
            "raytrace.trace_paths_s": self.total["raytrace.trace_paths"],
            "raytrace.trace_paths_self_s":
                self.self_time["raytrace.trace_paths"],
            "raytrace.trace_unoccluded_s":
                self.total["raytrace.trace_unoccluded"],
            "channel.build_channel_s": self.total["channel.build_channel"],
            "channel.optimal_beam_s": self.total["channel.optimal_beam"],
            "pipeline.frame_scene_s": self.total["pipeline.frame_scene"],
            "pipeline.apply_detector_s":
                self.total["pipeline.apply_detector"],
            "dataset.export_s": self.total["dataset.export"],
            "dataset.import_s": self.total["dataset.import"],
            "dataset.evaluate_s": self.total["dataset.evaluate"],
            "render.render_debug_frame_s":
                self.total["render.render_debug_frame"],
        }
        counted = {
            "camera.project_bbox_calls": calls["camera.project_bbox"],
            "geometry.segment_occluded_calls":
                calls["geometry.segment_occluded"],
            "raytrace.trace_paths_calls": calls["raytrace.trace_paths"],
            "raytrace.paths_kept": counts["raytrace.paths_kept"],
            **{f"raytrace.paths_kept.b{n}":
               counts[f"raytrace.paths_kept.b{n}"]
               for n in range(MAX_BOUNCES + 1)},
            "raytrace.paths_unoccluded": counts["raytrace.paths_unoccluded"],
            "channel.outage_rows": counts["channel.outage_rows"],
            "pipeline.frame_truth_calls": calls["pipeline.frame_truth"],
            "pipeline.apply_detector_calls":
                calls["pipeline.apply_detector"],
            "dataset.export_bytes": counts["dataset.export_bytes"],
            "dataset.evaluate_calls": calls["dataset.evaluate"],
            "render.frames": calls["render.render_debug_frame"],
        }
        fracs = {
            "camera.visible_frac": ratio(counts["camera.visible"],
                                         calls["camera.project_bbox"]),
            "geometry.occluded_frac": ratio(
                counts["geometry.occluded"],
                calls["geometry.segment_occluded"]),
            "raytrace.keep_ratio": ratio(counts["raytrace.paths_kept"],
                                         counts["raytrace.paths_unoccluded"]),
        }
        return {**times, **fracs}, counted

    def setup_metrics(self) -> dict[str, float]:
        """Seconds per call of the two set-up layers."""
        return {
            "scenario.parse_s": self.total["scenario.parse"]
            / max(self.calls["scenario.parse"], 1),
            "pipeline.simulator_init_s":
                self.total["pipeline.simulator_init"]
            / max(self.calls["pipeline.simulator_init"], 1),
        }
