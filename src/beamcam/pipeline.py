"""Camera-to-beam prediction loop and frame-synchronized truth assembly.

Truth is made in blocks of frames. Each frame's UE positions are
interpolated once, and the same moved UE boxes feed both the camera
(bounding boxes) and the ray tracer (paths, per-beam SNR, optimal
index), so visual and wireless truth are synchronized by construction;
every box and path of every frame of a block comes from one occlusion
pass, each row against its own frame's occluder table. The prediction side
gates on activity, detects with a pluggable noise-parameterized oracle
detector, and reads the codebook bin of the bbox centre column
(``selection.column_index``) from its edge table, ``BeamEdges``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, defaultdict
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .camera import BoundingBox, CameraModel, VertexRays, pixel_to_azimuth
from .channel import beam_tables, build_channels, generate_codebook
from .geometry import Mesh, Tracks, box_mesh, same_point
from .raytrace import Candidates, PathComponent, SceneGeometry, prefix_table
from .scenario import Scenario, ScenarioError, UeConfig
from .selection import BeamEdges, center_columns, clip
from . import stl


@dataclass(frozen=True)
class DetectorNoiseModel:
    """Stand-in for a trained detector: Gaussian center jitter plus misses."""

    pixel_sigma: float = 0.0
    miss_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.pixel_sigma) and self.pixel_sigma >= 0):
            raise ValueError(f"pixel_sigma must be a finite number >= 0, "
                             f"got {self.pixel_sigma}")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must be in [0, 1]")
        _key(self.seed, "seed")


@dataclass(frozen=True)
class Detection:
    bbox: BoundingBox
    confidence: float = 1.0


@dataclass(frozen=True)
class UeFrameRecord:
    """Per-UE slice of a frame: truth plus pipeline outputs."""

    ue_name: str
    position: tuple[float, float, float]
    active: int
    bbox: BoundingBox | None
    paths: tuple[PathComponent, ...]
    beam_snrs_db: tuple[float, ...] | None
    optimal_index: int | None
    detection: Detection | None = None
    predicted_index: int | None = None
    predicted_azimuth_deg: float | None = None

    @property
    def outage(self) -> bool:
        """No beam has a usable SNR (see ``optimal_beam``)."""
        return self.optimal_index is None


@dataclass(frozen=True)
class FrameRecord:
    frame: int
    bs_name: str
    ues: tuple[UeFrameRecord, ...]


def activity_state(ue: UeConfig, frame: int) -> int:
    """1 iff the frame lies in any declared active range (default: all)."""
    if not ue.active_ranges:
        return 1
    return int(any(lo <= frame <= hi for lo, hi in ue.active_ranges))


_WORD = 0xFFFFFFFF


def _key(n, name: str = "each noise stream key") -> int:
    """``n`` as a noise stream key: an int >= 0, else ``ValueError``. A
    float is refused, not truncated."""
    try:
        key = operator.index(n)
    except TypeError:
        key = -1
    if key < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {n!r}")
    return key


def _words(n: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` reads one: its little-endian
    32-bit words, and [0] for 0."""
    words = [n & _WORD]
    while n > _WORD:
        n >>= 32
        words.append(n & _WORD)
    return words


def noise_draws(seed: int, frame: int, ue_index: int
                ) -> tuple[float, float, float]:
    """The detector's draws for one (seed, frame, UE index): (miss, z_u, z_v).

    The definition of a detector RNG stream: one stream per (seed, frame,
    UE index), so the draws do not depend on evaluation order, and they do
    not depend on sigma, whose jitter is ``z * sigma``. The stream is
    ``default_rng([seed, frame, ue_index])``, seeded with the uint32 words
    that ``SeedSequence`` makes of that list, which skips its per-call
    coercion of the list. ``sweep_draws`` is its batched form.
    """
    rng = np.random.default_rng(np.array(
        [*_words(_key(seed)), *_words(_key(frame)), *_words(_key(ue_index))],
        np.uint32))
    miss = rng.random()
    z_u, z_v = rng.standard_normal(2).tolist()
    return miss, z_u, z_v


# ``SeedSequence``'s constants (``numpy.random.bit_generator``). The hash
# constant before each hash call and after the last is ``init * mult**k``
# mod 2**32, whatever the data: 16 calls mix a pool of 4 entropy words, 8
# make ``generate_state(4, np.uint64)``.
_HASH_A = [0x43B0D7E5 * 0x931E8875**k & _WORD for k in range(17)]
_HASH_B = [0x8B51F9DD * 0x58F38DED**k & _WORD for k in range(9)]
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, consts: list[int], k: int) -> np.ndarray:
    value = (value ^ consts[k]) * consts[k + 1] & _WORD
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (x * _MIX_L - y * _MIX_R) & _WORD
    return value ^ value >> 16


def _seed_states(*lanes: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` of entropy lists
    of at most 4 uint32 words, in one pass: 4 uint64 word lanes that
    broadcast against each other give states of shape (..., 4). A word past
    the end of a list is 0, which is what ``SeedSequence`` hashes there.
    Every product is of two values below 2**32, so it is exact in uint64
    and is masked back to 32 bits.
    """
    pool = [_hashmix(lane, _HASH_A, i) for i, lane in enumerate(lanes)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, k))
                k += 1
    state = [_hashmix(pool[i % 4], _HASH_B, i) for i in range(8)]
    return np.stack([state[2 * i] | state[2 * i + 1] << 32
                     for i in range(4)], axis=-1)


class _SeedState(ISeedSequence):
    """The state words of a ``SeedSequence``, already made: what a
    ``PCG64`` asks its seed sequence for, ``generate_state(4, np.uint64)``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def sweep_draws(seeds: list[int], keys: list[tuple[int, int]]
                ) -> np.ndarray:
    """(miss, z_u) of ``noise_draws(seed, frame, ue_index)`` for every seed
    and every (frame, UE index) key: a (seeds, keys, 2) array.

    The batched form of ``noise_draws``, with the same streams. A seed
    below 2**64 with a frame and UE index below 2**32 makes an entropy
    list of at most 4 words: ``[seed, frame, ue, 0]`` for a one-word seed,
    ``[seed & 0xFFFFFFFF, seed >> 32, frame, ue]`` for a two-word one. The
    ``SeedSequence`` state of every such stream is hashed in one array pass
    over the (seeds, keys) grid (``_seed_states``); each stream's ``PCG64``
    is then seeded with its words, and numpy's own ``Generator`` draws from
    it. A scalar ``standard_normal()`` is the first value of
    ``standard_normal(2)``. Any other cell is drawn by ``noise_draws``.
    """
    seeds = [_key(n) for n in seeds]
    keys = [(_key(frame), _key(ue)) for frame, ue in keys]
    # Cells of longer entropy lists hash garbage words here; they are
    # drawn again below.
    seed = np.array([n & (1 << 64) - 1 for n in seeds], np.uint64)[:, None]
    frame = np.array([frame & _WORD for frame, _ in keys], np.uint64)
    ue = np.array([ue & _WORD for _, ue in keys], np.uint64)
    one = seed >> 32 == 0
    out = []
    for words in _seed_states(
            seed & _WORD, np.where(one, frame, seed >> 32),
            np.where(one, ue, frame), np.where(one, 0, ue)).reshape(-1, 4):
        rng = np.random.Generator(np.random.PCG64(_SeedState(words)))
        out += rng.random(), rng.standard_normal()
    draws = np.reshape(out, (len(seeds), len(keys), 2))
    wide = (np.array([n >> 64 > 0 for n in seeds], bool)[:, None]
            | np.array([max(key) > _WORD for key in keys], bool))
    for i, j in np.argwhere(wide).tolist():
        draws[i, j] = noise_draws(seeds[i], *keys[j])[:2]
    return draws


def detect(ue_index: int, bbox: BoundingBox, model: DetectorNoiseModel,
           frame: int, width_px: int, height_px: int) -> Detection | None:
    """Noise-parameterized oracle detector: the detection of the truth box
    of the scenario's UE ``ue_index``, or None for a miss.

    The noise is drawn once per (seed, frame, UE index) by ``noise_draws``
    and scaled by sigma, so outputs are deterministic and independent of
    evaluation order, and every sigma shares the same draws for a fixed
    seed: the jitter at 2 sigma is exactly twice the jitter at sigma. Each
    edge of the jittered box is clipped to the image.
    """
    miss, z_u, z_v = noise_draws(model.seed, frame, ue_index)
    if miss < model.miss_prob:
        return None
    du, dv = z_u * model.pixel_sigma, z_v * model.pixel_sigma
    return Detection(BoundingBox(
        u_min=clip(bbox.u_min + du, width_px),
        v_min=clip(bbox.v_min + dv, height_px),
        u_max=clip(bbox.u_max + du, width_px),
        v_max=clip(bbox.v_max + dv, height_px),
        visibility=bbox.visibility,
    ))


#: Frames per block of ``run_truth``: larger blocks pay less per-call
#: overhead but hold more occlusion rows (frames x rows x triangles) at
#: once; chosen from measured time and peak memory.
TRUTH_BLOCK = 8

#: The stages of ``_truth_block`` that add their time to
#: ``Simulator.timings``.
TRUTH_STAGES = ("candidates", "occlusion", "paths", "channel", "boxes")

#: Most (sigma, seed, row) centre columns ``Simulator.sweep`` forms at once,
#: 128 KB an array whatever the number of seeds. The shipped scenario's
#: default sweep takes 5 blocks of 4 seeds, with a peak of 0.86 MB traced
#: by ``tracemalloc``; as one block of 65,700 it peaked at 3.0 MB.
SWEEP_CELLS = 1 << 14


class Simulator:
    """Per-BS simulation state: static geometry, codebook, camera."""

    def __init__(self, scenario: Scenario, bs_name: str | None = None,
                 base_dir: str | Path | None = None):
        self.scenario = scenario
        self.bs = scenario.bs(bs_name) if bs_name else scenario.bss[0]
        array = scenario.array(self.bs.array_ref)
        self.array = array
        sysp = scenario.system
        self.codebook = generate_codebook(
            array.elements_n, array.spacing_wavelengths, sysp.codebook_size_q
        )
        self.camera = CameraModel.from_bs(self.bs)
        base_dir = Path(base_dir) if base_dir is not None else Path.cwd()

        #: Reflector meshes, then each UE's box at the origin: UE i is
        #: occluder ``first + i`` of every frame's table.
        self._meshes: list[tuple[str, Mesh]] = []
        for refl in scenario.reflectors:
            if refl.mesh_path is not None:
                try:
                    mesh = stl.parse_stl(
                        (base_dir / refl.mesh_path).read_bytes(),
                        refl.material)
                except (OSError, ValueError) as exc:
                    raise ScenarioError(
                        f"reflector {refl.name!r}: cannot load mesh "
                        f"{refl.mesh_path!r}: {exc}") from exc
            else:
                mesh = box_mesh(refl.center, refl.size, refl.yaw_deg,
                                refl.material)
            self._meshes.append((refl.name, mesh))
        self._first = len(self._meshes)
        self._meshes += [
            (ue.name, box_mesh((0.0, 0.0, 0.0), ue.size, material=ue.material))
            for ue in scenario.ues
        ]
        #: Counts of the truth passes so far: boxes projected and visible,
        #: receivers traced, (receiver, prefix row) pairs backtracked and
        #: geometrically valid chains per reflection order, paths kept per
        #: bounce count, occlusion segments tested and outage rows.
        self.stats: Counter[str] = Counter()
        #: Seconds spent in each stage so far (``timed``). Unlike ``stats``
        #: they differ from run to run, so they never enter a dataset.
        self.timings: defaultdict[str, float] = defaultdict(float)

    @contextmanager
    def timed(self, stage: str):
        """Add the ``perf_counter`` time of the block it wraps to
        ``timings[stage]``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.timings[stage] += perf_counter() - start

    @cached_property
    def _scene(self) -> SceneGeometry:
        """The one scene every frame moves its UEs in: the occluder table,
        and the reflector faces whose arrays every frame shares; built on
        first use, not at set-up. Specular bounces always come from the
        box parameters, even for a reflector whose occluder is a mesh."""
        return SceneGeometry(
            self._meshes, [(r.center, r.size, r.yaw_deg, r.material)
                           for r in self.scenario.reflectors],
            self.scenario.material_table)

    @cached_property
    def _prefixes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The image-source table of the BS (``prefix_table``), which every
        frame's candidate chains extend; built on first use."""
        return prefix_table(self._scene.reflectors,
                            np.asarray(self.bs.position, float),
                            self.scenario.system.max_reflections)

    @cached_property
    def _beam_edges(self) -> BeamEdges:
        """The BS's predicted index as a step function of the centre
        column, which ``apply_detector`` and ``sweep`` both read; built on
        first prediction."""
        return BeamEdges(self.camera, self.codebook, self.bs.boresight_deg)

    @cached_property
    def _tracks(self) -> Tracks:
        """Every UE's keyframes as arrays; built on first use."""
        return Tracks([ue.keyframes for ue in self.scenario.ues])

    def frame_scene(self, frame: int
                    ) -> tuple[SceneGeometry, dict[str, np.ndarray]]:
        """Immutable snapshot of all geometry at one frame: the scene with
        each UE's box moved to its position."""
        pos = self._tracks.at([frame])[0]
        scene = self._scene.moved(self._first, pos)
        return scene, {ue.name: p for ue, p in zip(self.scenario.ues, pos)}

    def frame_truth(self, frame: int) -> FrameRecord:
        """Truth-only record (no detection / prediction fields) of one
        frame: a block of one frame (see ``_truth_block``)."""
        return self._truth_block([frame])[0]

    def run_truth(self) -> list[FrameRecord]:
        """Truth records of every frame, made TRUTH_BLOCK frames at a time;
        equal to ``frame_truth`` of each frame in turn, ``stats`` too."""
        frames = range(self.scenario.system.frames)
        return [rec for lo in range(0, len(frames), TRUTH_BLOCK)
                for rec in self._truth_block(frames[lo:lo + TRUTH_BLOCK])]

    def _truth_block(self, frames) -> list[FrameRecord]:
        """Truth records of several frames from one pass over all of them.

        One array pass gives every (frame, UE) position, and one candidate
        pass (``Candidates``) backtracks every traced receiver of every
        frame at every reflection order in one loop. Its chains and the
        vertex rays of every UE box of every frame share one occlusion
        pass, in which each row is tested against its own frame's occluder
        table and ignores its own UE's body (occluder ``first + i`` for UE
        i) and the body of any UE at the BS in that frame. One
        ``build_channels`` call gives every record's channel, and one
        ``beam_tables`` call every SNR table and optimal index. Each stage's
        time is added to ``timings``.
        """
        sysp = self.scenario.system
        ues = self.scenario.ues
        n = len(ues)
        pos = self._tracks.at(frames)  # (frame, UE, 3)
        bs_pos = np.asarray(self.bs.position, float)
        # A UE at the BS itself has no path to trace: an outage row. Its
        # body blocks no row, as the BS sits inside it.
        at_bs = same_point(bs_pos, pos)
        # Record k of the block is frame k // n, UE k % n.
        traced = np.flatnonzero(~at_bs.ravel())
        with self.timed("candidates"):
            cand = Candidates(self._scene.reflectors, bs_pos,
                              pos.reshape(-1, 3)[traced], self._prefixes)
        with self.timed("boxes"):
            verts = [mesh.vertices()
                     for _, mesh in self._meshes[self._first:]]
            rays = VertexRays(self.camera, [v + p for row in pos
                                            for v, p in zip(verts, row)])
        with self.timed("occlusion"):
            starts, ends, rec = cand.segments()
            row = np.concatenate([traced[rec], rays.mesh])
            row_frame = row // n
            # One occluder table per frame of the block.
            tables = self._scene.tset.moved(self._first, pos)
            owners = tables.owners
            body_at_bs = np.zeros((len(pos), len(tables.names)), dtype=bool)
            body_at_bs[:, self._first:] = at_bs
            ignore = ((owners == self._first + row[:, None] % n)
                      | body_at_bs[:, owners][row_frame])
            blocked = tables.segments_occluded(
                np.concatenate([starts, rays.starts]),
                np.concatenate([ends, rays.ends]), ignore, row_frame)
        with self.timed("paths"):
            paths: list[list[PathComponent]] = [[] for _ in range(at_bs.size)]
            for k, p in zip(traced.tolist(), cand.paths(
                    blocked[:len(starts)], sysp.carrier_ghz)):
                paths[k] = p
        with self.timed("boxes"):
            bboxes = rays.boxes(blocked[len(starts):])
        positions = pos.reshape(-1, 3).tolist()
        with self.timed("channel"):
            snrs, best = beam_tables(
                build_channels(paths, self.array.elements_n,
                               self.array.spacing_wavelengths,
                               self.bs.boresight_deg),
                self.codebook, sysp.tx_power_dbm, sysp.noise_power_dbm)
            snrs, best = snrs.tolist(), best.tolist()
        records = [UeFrameRecord(
            ue_name=ue.name,
            position=tuple(positions[k]),
            active=activity_state(ue, frames[k // n]),
            bbox=bbox,
            paths=tuple(paths[k]),
            beam_snrs_db=None if best[k] < 0 else tuple(snrs[k]),
            optimal_index=None if best[k] < 0 else best[k],
        ) for k, (ue, bbox) in enumerate(zip(ues * len(pos), bboxes))]
        self._count(cand, bboxes, len(row), records)
        return [FrameRecord(frame=frame, bs_name=self.bs.name,
                            ues=tuple(records[i * n:(i + 1) * n]))
                for i, frame in enumerate(frames)]

    def _count(self, cand: Candidates, bboxes: list[BoundingBox | None],
               segments: int, records: list[UeFrameRecord]) -> None:
        """Add one block's counts to ``stats``."""
        kept = Counter(p.bounces for r in records for p in r.paths)
        self.stats.update({
            "boxes_projected": len(bboxes),
            "boxes_visible": sum(b is not None for b in bboxes),
            "receivers_traced": len(cand.rxs),
            **{f"pairs_tested.o{k}": n
               for k, n in enumerate(cand.tested, 1)},
            **{f"chains_valid.o{k}": len(rec)
               for k, (rec, _, _) in enumerate(cand.chains) if k},
            **{f"paths_kept.b{k}": kept[k] for k in range(len(cand.chains))},
            "segments_tested": segments,
            "outage_rows": sum(r.outage for r in records),
        })

    def apply_detector(self, truth: list[FrameRecord],
                       model: DetectorNoiseModel) -> list[FrameRecord]:
        """Attach detections and beam predictions to truth records.

        Cheap relative to run_truth, so one truth pass serves any number
        of detector models. Each active row with a box gets ``detect``'s
        one detection or miss; a detection's centre column is the midpoint
        of its edges, which ``detect`` has clipped, and its predicted index
        is read from the edge table that ``sweep`` reads.
        """
        ue_index = {ue.name: i for i, ue in enumerate(self.scenario.ues)}
        cam = self.camera
        out = []
        for rec in truth:
            ues = []
            for u in rec.ues:
                det = pred_index = pred_az = None
                if u.active and u.bbox is not None:
                    det = detect(ue_index[u.ue_name], u.bbox, model,
                                 rec.frame, cam.width_px, cam.height_px)
                if det is not None:
                    center = (det.bbox.u_min + det.bbox.u_max) / 2.0
                    pred_index = self._beam_edges.index(center)
                    pred_az = pixel_to_azimuth(cam, center)
                ues.append(replace(u, detection=det,
                                   predicted_index=pred_index,
                                   predicted_azimuth_deg=pred_az))
            out.append(replace(rec, ues=tuple(ues)))
        return out

    def sweep(self, truth: list[FrameRecord], sigmas: Iterable[float],
              seeds: Iterable[int], miss_prob: float = 0.0
              ) -> list[list[float]]:
        """Top-1 accuracy at each (sigma, seed): one list per sigma, in the
        order of ``seeds``.

        Each value equals ``evaluate(apply_detector(truth, model))
        .top1_accuracy`` for ``DetectorNoiseModel(sigma, miss_prob, seed)``,
        but no record is built. The noise is drawn once per (seed, frame,
        UE), from the stream of ``noise_draws``, and shared by every sigma:
        ``sweep_draws`` seeds the streams of a block of seeds in one array
        pass. Only rows the detector sees (active, with a bbox) that are not
        outages can count, so only those are drawn. Every (sigma, seed, row)
        centre column is formed in one array pass, with the float operations
        of ``detect`` and ``apply_detector``, and read from ``BeamEdges`` at
        once, up to ``SWEEP_CELLS`` of them at a time. A hit is a predicted
        index equal to the optimal one: that is ``evaluate``'s rank 0, since
        ``optimal_beam`` picks the first argmax of the SNR table and rank 0
        is the first argmax.
        """
        miss_prob = DetectorNoiseModel(miss_prob=miss_prob).miss_prob
        sigmas = np.array([DetectorNoiseModel(float(s)).pixel_sigma
                           for s in sigmas])
        seeds = [DetectorNoiseModel(seed=seed).seed for seed in seeds]
        ue_index = {ue.name: i for i, ue in enumerate(self.scenario.ues)}
        rows = [(rec.frame, ue_index[u.ue_name], u)
                for rec in truth for u in rec.ues
                if u.active and u.bbox is not None and not u.outage]
        u_min = np.array([u.bbox.u_min for _, _, u in rows])
        u_max = np.array([u.bbox.u_max for _, _, u in rows])
        optimal = np.array([u.optimal_index for _, _, u in rows], dtype=int)
        keys = [(frame, ue) for frame, ue, _ in rows]
        width = float(self.camera.width_px)
        block = max(1, SWEEP_CELLS // max(len(sigmas) * len(rows), 1))
        accs = np.empty((len(sigmas), len(seeds)))
        for lo in range(0, len(seeds), block):
            part = seeds[lo:lo + block]
            draws = sweep_draws(part, keys)
            seen = draws[..., 0] >= miss_prob  # (seed, row)
            center = center_columns(
                u_min, u_max, np.multiply.outer(sigmas, draws[..., 1]), width)
            hits = ((self._beam_edges.lookup(center) == optimal) & seen
                    ).sum(axis=2)
            eligible = seen.sum(axis=1)
            accs[:, lo:lo + block] = np.where(
                eligible > 0, hits / np.maximum(eligible, 1), 0.0)
        return accs.tolist()
