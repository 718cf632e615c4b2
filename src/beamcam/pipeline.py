"""Camera-to-beam prediction loop and frame-synchronized truth assembly.

Truth is made in blocks of frames. Each frame's UE positions are
interpolated once, and the same moved UE boxes feed both the camera
(bounding boxes) and the ray tracer (paths, per-beam SNR, optimal
index), so visual and wireless truth are synchronized by construction;
every box and path of every frame of a block comes from one occlusion
pass, each row against its own frame's occluder table. The prediction side
gates on activity and detects with a pluggable noise-parameterized oracle
detector: ``noise_draws`` defines each row's draws, ``sweep_draws`` draws
many rows' in one uint64 lane pass (``sweep``'s always, ``apply_detector``'s
from ``LANE_CELLS`` rows on, fewer row by row), and one
``selection.detected_boxes`` pass jitters, clips and takes the centre column
of every detected box, for ``apply_detector`` and ``sweep`` alike. The
codebook bin of that column (``selection.column_index``) is read from its
edge table, ``BeamEdges``.
"""

from __future__ import annotations

import copy
import math
import operator
from collections import Counter, defaultdict
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

from .camera import BoundingBox, CameraModel, VertexRays, pixel_to_azimuth
from .channel import beam_tables, build_channels, generate_codebook
from .geometry import Mesh, Tracks, TriangleSet, box_corners, same_point
from .raytrace import (Candidates, PathComponent, PrefixTable, SceneGeometry,
                       prefix_table)
from .scenario import Scenario, ScenarioError, UeConfig
from .selection import BeamEdges, detected_boxes
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
        """No beam has a usable SNR (see ``beam_tables``)."""
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


# PCG64's 128-bit LCG multiplier (O'Neill 2014), as 64-bit halves.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = divmod(_MULT, 1 << 64)


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of uint64 ``a`` times a 64-bit constant ``b``,
    from 32-bit halves: every partial product is exact in uint64."""
    a0, a1, b0, b1 = a & _WORD, a >> 32, b & _WORD, b >> 32
    low, mid_a, mid_b = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (mid_a & _WORD) + (mid_b & _WORD)
    return a1 * b1 + (mid_a >> 32) + (mid_b >> 32) + (mid >> 32)


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of PCG64's LCG, ``state * _MULT + inc`` mod 2**128, on
    (hi, lo) uint64 lanes."""
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = (_mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


def _pcg_output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of a state: ``hi ^ lo`` rotated right by the
    top 6 bits of ``hi``."""
    rot, x = hi >> 58, hi ^ lo
    return x >> rot | x << (64 - rot & 63)


def _numpy_normal(rng, state: int, inc: int, n: int) -> np.ndarray:
    """numpy's own ``standard_normal(n)`` from the ``PCG64`` LCG at (state,
    inc), drawn by ``rng``, a ``Generator`` over a ``PCG64`` whose state
    this sets."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}
    return rng.standard_normal(n)


def _ziggurat_tables(rng) -> tuple[np.ndarray, np.ndarray]:
    """(wi, kb) of numpy's ziggurat ``standard_normal``, read by probing
    ``rng``, a ``Generator`` over a ``PCG64`` (``_numpy_normal``).

    A draw takes one 64-bit output r: ``idx = r & 0xFF``, the sign is bit 8
    and ``rabs`` bits 9 to 60. It returns ``±rabs * wi[idx]`` at once when
    ``rabs`` is below the layer's threshold; else it takes more outputs
    (the tail at idx 0, the wedge test elsewhere). The probe sets the
    LCG so that its next output is a chosen r, with a zero high word, so no
    rotation. ``rabs = 1`` gives ``wi[idx]``. ``kb`` is a threshold at or
    below numpy's: 2 under ``2**52 * x[i - 1] / x[i]`` (x = ``2**52 * wi``,
    the layer edges), confirmed by one draw at ``kb - 1`` that must take
    one output and return ``(kb - 1) * wi[idx]``, else 0. idx 0 and 1 get
    0: the tail, and numpy's threshold 0 at idx 1.
    """
    inverse = pow(_MULT, -1, 1 << 128)

    def draw(r: int) -> tuple[float, bool]:
        # One step from this state with inc 1 lands on state r.
        z, = _numpy_normal(rng, (r - 1) * inverse % (1 << 128), 1, 1)
        return z, rng.bit_generator.state["state"]["state"] == r

    wi = np.array([draw(1 << 9 | idx)[0] for idx in range(256)])
    x = wi * 2.0**52
    kb = np.zeros(256, np.uint64)
    for idx in range(2, 256):
        k = int(2.0**52 * x[idx - 1] / x[idx]) - 2
        if 0 < k <= 1 << 52 and draw((k - 1) << 9 | idx) \
                == ((k - 1) * wi[idx], True):
            kb[idx] = k
    return wi, kb


def _pcg_draws(words: np.ndarray, wi: np.ndarray, kb: np.ndarray,
               normals: int
               ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(miss, z_u), or (miss, z_u, z_v) for two ``normals``, of the
    ``PCG64`` stream that each row of (n, 4) state words seeds, as an (n,
    1 + normals) array; a bool per row that is false where a normal draw is
    off the ziggurat's one-output path, so that its normals are not the
    stream's; and the uint64 lanes (hi, lo, inc_hi, inc_lo) of each
    stream's LCG after its miss draw, where ``standard_normal(normals)``
    starts. ``wi`` and ``kb`` are ``_ziggurat_tables``.

    Seeding follows ``pcg64_set_seed``: initstate = w0:w1, inc = 2 * w2:w3
    + 1; state 0, one step, add initstate, one step. ``random()`` is the
    top 53 bits of one output, and each normal on the one-output path one
    more output r, so z_v's r is one LCG step after z_u's.
    """
    w0, w1, w2, w3 = words.T
    inc = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = inc[1] + w1
    state = _pcg_step(inc[0] + w0 + (lo < w1), lo, *inc)
    state = _pcg_step(*state, *inc)
    draws = [(_pcg_output(*state) >> 11) * 2.0**-53]
    fast = True
    step = state
    for _ in range(normals):
        step = _pcg_step(*step, *inc)
        r = _pcg_output(*step)
        idx = (r & 0xFF).astype(np.intp)
        rabs = r >> 9 & (1 << 52) - 1
        z = rabs * wi[idx]
        draws.append(np.where(r & 0x100, -z, z))
        fast = fast & (rabs < kb[idx])
    return np.stack(draws, axis=-1), fast, (*state, *inc)


#: The ``Generator`` that ``_numpy_normal`` draws with, and the
#: ``_ziggurat_tables`` of this process's numpy probed with it, on first use.
_ZIGGURAT: list[tuple] = []


class SweepKeys:
    """(frame, UE index) stream keys, checked and packed once for any
    number of ``sweep_draws`` calls: the keys as ints (``keys``), the low
    32-bit word of each frame and UE index as uint64 arrays, and whether
    either needs a second word (``wide``)."""

    def __init__(self, keys: Iterable[tuple[int, int]]):
        self.keys = [(_key(frame), _key(ue)) for frame, ue in keys]
        self.frame = np.array([frame & _WORD for frame, _ in self.keys],
                              np.uint64)
        self.ue = np.array([ue & _WORD for _, ue in self.keys], np.uint64)
        self.wide = np.array([max(key) > _WORD for key in self.keys], bool)


def sweep_draws(seeds: list[int], keys: list[tuple[int, int]] | SweepKeys,
                normals: int = 1) -> np.ndarray:
    """(miss, z_u) of ``noise_draws(seed, frame, ue_index)``, or (miss,
    z_u, z_v) for two ``normals``, for every seed and every (frame, UE
    index) key: a (seeds, keys, 1 + normals) array. ``keys`` may come
    packed as ``SweepKeys``, which a caller drawing several blocks of seeds
    over the same keys makes once.

    The batched form of ``noise_draws``, with the same streams, bit for
    bit. A seed below 2**64 with a frame and UE index below 2**32 makes an
    entropy list of at most 4 words: ``[seed, frame, ue, 0]`` for a
    one-word seed, ``[seed & 0xFFFFFFFF, seed >> 32, frame, ue]`` for a
    two-word one. The ``SeedSequence`` state of every such stream is hashed
    in one array pass over the (seeds, keys) grid (``_seed_states``), and
    the same pass seeds each stream's ``PCG64`` and draws from it in uint64
    lanes (``_pcg_draws``). A cell with a normal draw off the ziggurat's
    one-output path (about 2% with one normal, 4% with two) has its normals
    drawn again by numpy's own ``standard_normal(normals)`` from its LCG
    state in the lanes (``_numpy_normal``); the first value of
    ``standard_normal(2)`` is a scalar ``standard_normal()``. Any other
    cell is drawn by ``noise_draws``.
    """
    seeds = [_key(n) for n in seeds]
    if not isinstance(keys, SweepKeys):
        keys = SweepKeys(keys)
    if not _ZIGGURAT:
        rng = np.random.Generator(np.random.PCG64(0))
        _ZIGGURAT.append((rng, *_ziggurat_tables(rng)))
    rng, wi, kb = _ZIGGURAT[0]
    # Cells of longer entropy lists hash garbage words here; they are
    # drawn again below.
    seed = np.array([n & (1 << 64) - 1 for n in seeds], np.uint64)[:, None]
    frame, ue = keys.frame, keys.ue
    one = seed >> 32 == 0
    words = _seed_states(
        seed & _WORD, np.where(one, frame, seed >> 32),
        np.where(one, ue, frame), np.where(one, 0, ue)).reshape(-1, 4)
    draws, fast, lanes = _pcg_draws(words, wi, kb, normals)
    wide = (np.array([n >> 64 > 0 for n in seeds], bool)[:, None]
            | keys.wide).ravel()
    off = np.flatnonzero(~fast & ~wide)
    for i, hi, lo, inc_hi, inc_lo in zip(
            off.tolist(), *(lane[off].tolist() for lane in lanes)):
        draws[i, 1:] = _numpy_normal(rng, hi << 64 | lo,
                                     inc_hi << 64 | inc_lo, normals)
    draws = draws.reshape(len(seeds), len(keys.keys), 1 + normals)
    for i, j in np.argwhere(wide.reshape(draws.shape[:2])).tolist():
        draws[i, j] = noise_draws(seeds[i], *keys.keys[j])[:1 + normals]
    return draws


#: Fewest rows for which ``Simulator.apply_detector`` draws its streams in
#: ``sweep_draws``' lanes rather than one ``noise_draws`` call a row. The
#: lane pass costs about the same whatever its row count up to 64 rows, and
#: a row of ``noise_draws`` a fixed sum: on a 2-core Xeon (in process, min
#: of 41 sets of 20 calls, two interleaved runs) ``noise_draws`` took
#: 10.9-13.0 us a stream and ``sweep_draws`` of one seed with two normals
#: 290-323 us for 16 to 32 streams, so the two meet at 26 streams; 754
#: streams took 8.5 ms by row and 0.79 ms in lanes.
LANE_CELLS = 26

#: Frames per block of ``run_truth``: larger blocks pay less per-call
#: overhead but hold more candidates, screen rows and moved chunk rows at
#: once; the kernel's share is capped by ``geometry.KERNEL_PAIRS``, and a
#: stack of occluder tables stores only its moved chunks per frame. On the
#: shipped scenario (2-core Xeon, in-process, min of 15 runs, two
#: interleaved sets; both occlusion screens, 256-pair kernel slices)
#: blocks of 8, 16, 32, 64 and 128 frames took 65-69, 45-50, 35-39, 30-33
#: and 28-31 ms, with a working set (``tracemalloc`` peak less the records
#: kept) of 0.21, 0.35, 0.67, 0.89 and 1.57 MB (0.81 MB for 64 frames in
#: a fresh process). 64 frames is the largest block under 1 MB. With
#: 128-pair slices, 64-frame blocks took 34-36 ms and 0.78 MB; with
#: 512-pair slices, 1.40 MB.
TRUTH_BLOCK = 64

#: The stages of ``_truth_block`` that add their time to
#: ``Simulator.timings``.
TRUTH_STAGES = ("positions", "candidates", "occlusion", "paths", "channel",
                "boxes", "records")

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
                mesh = refl.box
            self._meshes.append((refl.name, mesh))
        self._first = len(self._meshes)
        self._meshes += [(ue.name, ue.box) for ue in scenario.ues]
        #: Counts of the truth passes so far: boxes projected and visible,
        #: the BS's prefix-table rows per reflection order (added once, when
        #: the table is built), receivers traced, (receiver, prefix row)
        #: pairs backtracked and geometrically valid chains per reflection
        #: order, paths kept per bounce count, occlusion segments tested,
        #: (segment, chunk) pairs the occlusion screens passed to the
        #: kernel (those whose segment meets the chunk's grown box, and so
        #: its bounding box too) and outage rows.
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
    def _prefixes(self) -> PrefixTable:
        """The image-source table of the BS (``prefix_table``), which every
        frame's candidate chains extend, and so its backtracking rows
        (``PrefixTable.rows``); built on first use, when its rows per order
        are added to ``stats``."""
        table = prefix_table(self._scene.reflectors,
                             np.asarray(self.bs.position, float),
                             self.scenario.system.max_reflections)
        self.stats.update({f"prefix_rows.o{k}": len(seqs)
                           for k, (seqs, _) in enumerate(table, 1)})
        return table

    @cached_property
    def _beam_edges(self) -> BeamEdges:
        """The BS's predicted index as a step function of the centre
        column, which ``apply_detector`` and ``sweep`` both read; built on
        first prediction."""
        return BeamEdges(self.camera, self.codebook, self.bs.boresight_deg)

    @cached_property
    def _ue_vertices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every UE box's vertices at the origin, its corners in
        ``box_corners``' order, one box after another, shape (V, 3), the UE
        of each vertex and each UE's vertex count; built on first use."""
        verts = [box_corners((0.0, 0.0, 0.0), ue.size)
                 for ue in self.scenario.ues]
        counts = np.array([len(v) for v in verts], dtype=int)
        return (np.concatenate([np.empty((0, 3))] + verts),
                np.repeat(np.arange(len(verts)), counts), counts)

    @cached_property
    def _tracks(self) -> Tracks:
        """Every UE's keyframes as arrays; built on first use."""
        return Tracks([ue.keyframes for ue in self.scenario.ues])

    def frame_scene(self, frame: int
                    ) -> tuple[SceneGeometry, dict[str, np.ndarray]]:
        """Immutable snapshot of all geometry at one frame: the scene's
        reflectors, and an occluder table of its own with each UE's box
        moved to its position, each triangle ``tri + offset`` as in
        ``TriangleSet.moved``."""
        pos = self._tracks.at([frame])[0]
        scene = copy.copy(self._scene)
        scene.tset = TriangleSet(self._meshes[:self._first] + [
            (name, Mesh(mesh.tris + p, mesh.material, check=False))
            for (name, mesh), p in zip(self._meshes[self._first:], pos)])
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
        vertex rays of every UE box of every frame, whose vertices come
        from one broadcast add, share one occlusion pass, in which each
        row is tested against its own frame's occluder table and ignores
        its own UE's body (occluder ``first + i`` for UE i) and the body of
        any UE at the BS in that frame. One
        ``build_channels`` call gives every record's channel, and one
        ``beam_tables`` call every SNR table and optimal index. Each stage's
        time is added to ``timings``.
        """
        sysp = self.scenario.system
        ues = self.scenario.ues
        n = len(ues)
        bs_pos = np.asarray(self.bs.position, float)
        with self.timed("positions"):
            pos = self._tracks.at(frames)  # (frame, UE, 3)
            # A UE at the BS itself has no path to trace: an outage row. Its
            # body blocks no row, as the BS sits inside it.
            at_bs = same_point(bs_pos, pos)
        # Record k of the block is frame k // n, UE k % n.
        traced = np.flatnonzero(~at_bs.ravel())
        with self.timed("candidates"):
            cand = Candidates(self._scene.reflectors, bs_pos,
                              pos.reshape(-1, 3)[traced], self._prefixes)
        with self.timed("boxes"):
            verts, owner, counts = self._ue_vertices
            rays = VertexRays(self.camera,
                              (verts + pos[:, owner]).reshape(-1, 3),
                              np.tile(counts, len(pos)))
        with self.timed("occlusion"):
            starts, ends, rec = cand.segments()
            row = np.concatenate([traced[rec], rays.mesh])
            row_frame = row // n
            # One occluder table per frame of the block.
            tables = self._scene.tset.moved(self._first, pos)
            body_at_bs = np.zeros((len(pos), len(tables.names)), dtype=bool)
            body_at_bs[:, self._first:] = at_bs
            ignore = ((np.arange(len(tables.names))
                       == self._first + row[:, None] % n)
                      | body_at_bs[row_frame])
            blocked, pairs = tables.segments_occluded(
                np.concatenate([starts, rays.starts]),
                np.concatenate([ends, rays.ends]), ignore, row_frame)
        with self.timed("paths"):
            paths: list[list[PathComponent]] = [[] for _ in range(at_bs.size)]
            for k, p in zip(traced.tolist(), cand.paths(
                    blocked[:len(starts)], sysp.carrier_ghz)):
                paths[k] = p
        with self.timed("boxes"):
            bboxes = rays.boxes(blocked[len(starts):])
        with self.timed("channel"):
            snrs, best = beam_tables(
                build_channels(paths, self.array.elements_n,
                               self.array.spacing_wavelengths,
                               self.bs.boresight_deg),
                self.codebook, sysp.tx_power_dbm, sysp.noise_power_dbm)
            snrs, best = snrs.tolist(), best.tolist()
        with self.timed("records"):
            positions = pos.reshape(-1, 3).tolist()
            records = [UeFrameRecord(
                ue_name=ue.name,
                position=tuple(positions[k]),
                active=activity_state(ue, frames[k // n]),
                bbox=bbox,
                paths=tuple(paths[k]),
                beam_snrs_db=None if best[k] < 0 else tuple(snrs[k]),
                optimal_index=None if best[k] < 0 else best[k],
            ) for k, (ue, bbox) in enumerate(zip(ues * len(pos), bboxes))]
            self._count(cand, bboxes, len(row), pairs, records)
            return [FrameRecord(frame=frame, bs_name=self.bs.name,
                                ues=tuple(records[i * n:(i + 1) * n]))
                    for i, frame in enumerate(frames)]

    def _count(self, cand: Candidates, bboxes: list[BoundingBox | None],
               segments: int, pairs: int,
               records: list[UeFrameRecord]) -> None:
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
            "occlusion_pairs": pairs,
            "outage_rows": sum(r.outage for r in records),
        })

    def apply_detector(self, truth: list[FrameRecord],
                       model: DetectorNoiseModel) -> list[FrameRecord]:
        """Attach detections and beam predictions to truth records.

        Cheap relative to run_truth, so one truth pass serves any number
        of detector models. Each active row with a box is the detector's to
        see or miss. Its draws come from its own ``noise_draws`` stream, so
        they do not depend on evaluation order, and every sigma shares them:
        the jitter at 2 sigma is exactly twice the jitter at sigma. From
        ``LANE_CELLS`` rows on, one ``sweep_draws`` call with two normals
        draws every row's stream, bit for bit; fewer rows are drawn one
        ``noise_draws`` call each, which costs less there. A row is
        missed when its miss draw is below ``miss_prob``; every other row's
        box is detected by one ``detected_boxes`` pass over all of them, and
        its predicted index is read from the edge table that ``sweep`` reads.
        """
        ue_index = {ue.name: i for i, ue in enumerate(self.scenario.ues)}
        cam = self.camera
        rows = [(i, j) for i, rec in enumerate(truth)
                for j, u in enumerate(rec.ues)
                if u.active and u.bbox is not None]
        boxes = [truth[i].ues[j].bbox for i, j in rows]
        keys = [(truth[i].frame, ue_index[truth[i].ues[j].ue_name])
                for i, j in rows]
        if len(keys) < LANE_CELLS:
            draws = np.array([noise_draws(model.seed, frame, ue)
                              for frame, ue in keys]).reshape(-1, 3)
        else:
            draws = sweep_draws([model.seed], keys, normals=2)[0]
        edges, center = detected_boxes(
            np.array([(b.u_min, b.v_min, b.u_max, b.v_max)
                      for b in boxes]).reshape(-1, 2, 2),
            draws[:, 1:] * model.pixel_sigma, (cam.width_px, cam.height_px))
        found = {
            row: (Detection(BoundingBox(*lo, *hi, visibility=b.visibility)),
                  None if index < 0 else index, pixel_to_azimuth(cam, c))
            for row, b, seen, (lo, hi), c, index in zip(
                rows, boxes, (draws[:, 0] >= model.miss_prob).tolist(),
                edges.tolist(), center.tolist(),
                self._beam_edges.lookup(center).tolist())
            if seen}
        return [FrameRecord(rec.frame, rec.bs_name, tuple(UeFrameRecord(
            u.ue_name, u.position, u.active, u.bbox, u.paths, u.beam_snrs_db,
            u.optimal_index, *found.get((i, j), (None, None, None)))
            for j, u in enumerate(rec.ues))) for i, rec in enumerate(truth)]

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
        pass, over keys packed once (``SweepKeys``). Only rows the detector
        sees (active, with a bbox) that are not outages can count, so only
        those are drawn. Every (sigma, seed, row) centre column is formed
        by ``detected_boxes``, the pass of ``apply_detector``, on the u
        edges alone, and read from ``BeamEdges`` at once, up to
        ``SWEEP_CELLS`` of them at a time. A hit is a
        predicted index equal to the optimal one: that is ``evaluate``'s
        rank 0, since ``beam_tables`` picks the first argmax of the SNR
        table and rank 0 is the first argmax.
        """
        miss_prob = DetectorNoiseModel(miss_prob=miss_prob).miss_prob
        sigmas = np.array([DetectorNoiseModel(float(s)).pixel_sigma
                           for s in sigmas])
        seeds = [DetectorNoiseModel(seed=seed).seed for seed in seeds]
        ue_index = {ue.name: i for i, ue in enumerate(self.scenario.ues)}
        rows = [(rec.frame, ue_index[u.ue_name], u)
                for rec in truth for u in rec.ues
                if u.active and u.bbox is not None and not u.outage]
        u_edges = np.array([(u.bbox.u_min, u.bbox.u_max)
                            for _, _, u in rows]).reshape(-1, 2, 1)
        optimal = np.array([u.optimal_index for _, _, u in rows], dtype=int)
        with self.timed("draws"):
            keys = SweepKeys((frame, ue) for frame, ue, _ in rows)
        block = max(1, SWEEP_CELLS // max(len(sigmas) * len(rows), 1))
        accs = np.empty((len(sigmas), len(seeds)))
        for lo in range(0, len(seeds), block):
            part = seeds[lo:lo + block]
            with self.timed("draws"):
                draws = sweep_draws(part, keys)
            seen = draws[..., 0] >= miss_prob  # (seed, row)
            _, center = detected_boxes(
                u_edges, np.multiply.outer(sigmas, draws[..., 1:]),
                (self.camera.width_px,))
            hits = ((self._beam_edges.lookup(center) == optimal) & seen
                    ).sum(axis=2)
            eligible = seen.sum(axis=1)
            accs[:, lo:lo + block] = np.where(
                eligible > 0, hits / np.maximum(eligible, 1), 0.0)
        return accs.tolist()
