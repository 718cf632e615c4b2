"""Dataset serialization (JSON lines) and evaluation metrics.

A schema-version header line, then one JSON object per (frame, UE).
``ROW`` is the one declaration of that object: each key, in file order,
with its JSON kind, down to the bbox, detection and path objects. The
bbox/path codecs iterate its keys, and ``import_records`` checks every
field of every row against it (and a few cross-field rules): by one
predicate compiled from it when the module loads (``_row_fits``), and by
the walk ``_check``, which names the fault, for a row the predicate
refuses. A file that imports is one ``evaluate`` and ``inspect`` can
read. The output is standard JSON: outage is the marker string
``"outage"`` with a null SNR table, and a single zero-gain beam
(``OUTAGE_SNR_DB``) is written as null. Evaluation works purely off the
stored per-beam SNR tables so it never depends on physics code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .camera import BoundingBox
from .channel import OUTAGE_SNR_DB
from .pipeline import Detection, FrameRecord, UeFrameRecord
from .raytrace import PathComponent
from .scenario import decode_utf8

SCHEMA_NAME = "beamcam-records"
SCHEMA_VERSION = 1
OUTAGE_MARKER = "outage"

# JSON kinds: int, str, float (a finite number, integers included, never
# a bool), None (null), [kind] (a list of kind), {key: kind, ...} (an
# object with exactly these keys) and (kind, kind) (either of them).
_BBOX = {"u_min": float, "v_min": float, "u_max": float, "v_max": float,
         "visibility": float}
# After delay_ns the keys follow PathComponent's fields (_path_from_json).
_PATH = {"gain_db": float, "phase_deg": float, "delay_ns": float,
         "aod_az_deg": float, "aod_el_deg": float, "aoa_az_deg": float,
         "aoa_el_deg": float, "bounces": int, "length_m": float}
_DETECTION = {"bbox_px": _BBOX, "confidence": float}
ROW = {
    "frame": int, "bs": str, "ue": str, "position_m": [float],
    "activity": int, "bbox_px": (_BBOX, None),
    "detection": (_DETECTION, None), "paths": [_PATH],
    "beam_snr_db": ([(float, None)], None),
    "optimal_index": (int, str), "predicted_index": (int, None),
    "predicted_azimuth_deg": (float, None),
}
_KIND_NAMES = {int: "an integer", str: "a string", float: "a number",
               type(None): "null", list: "a list", dict: "an object"}


class DatasetError(Exception):
    pass


def _bbox_to_json(bbox: BoundingBox | None):
    return None if bbox is None else {k: getattr(bbox, k) for k in _BBOX}


def _bbox_from_json(obj) -> BoundingBox | None:
    return None if obj is None else BoundingBox(**obj)


def _path_to_json(p: PathComponent):
    return {key: getattr(p, key) for key in _PATH}


def _path_from_json(obj) -> PathComponent:
    gain_db, phase_deg, delay_ns, *fields = map(obj.__getitem__, _PATH)
    phase = math.radians(phase_deg)
    return PathComponent(
        10.0 ** (gain_db / 20.0) * complex(math.cos(phase), math.sin(phase)),
        delay_ns * 1e-9, *fields)


def record_rows(records: list[FrameRecord]):
    """Flatten FrameRecords into one JSON-ready dict per (frame, UE), its
    values in the order of the keys of ``ROW``."""
    for rec in records:
        for u in rec.ues:
            det, snrs = u.detection, u.beam_snrs_db
            yield dict(zip(ROW, (
                rec.frame, rec.bs_name, u.ue_name, list(u.position), u.active,
                _bbox_to_json(u.bbox),
                None if det is None else dict(zip(_DETECTION, (
                    _bbox_to_json(det.bbox), det.confidence), strict=True)),
                [_path_to_json(p) for p in u.paths],
                None if snrs is None
                else [None if s == OUTAGE_SNR_DB else s for s in snrs],
                OUTAGE_MARKER if u.outage else u.optimal_index,
                u.predicted_index, u.predicted_azimuth_deg), strict=True))


def export_records(records: list[FrameRecord], destination,
                   metadata: dict | None = None) -> int:
    """Write records as JSON lines; returns the number of data rows."""
    header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
              **(metadata or {})}
    encode = json.JSONEncoder(allow_nan=False).encode
    rows = [encode(row) for row in record_rows(records)]
    payload = "\n".join(
        [json.dumps(header, sort_keys=True, allow_nan=False), *rows]) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        try:
            Path(destination).write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise DatasetError(f"cannot write dataset to "
                               f"'{destination}': {exc}") from exc
    return len(rows)


def _type(kind) -> type:
    """The Python type of a JSON value of kind, as json.loads gives it."""
    return kind if kind in (int, str, float) else type(kind)


def _check(value, kind, where: str = "") -> None:
    """DatasetError naming the first part of value that is not of kind."""
    alternatives = kind if type(kind) is tuple else (kind,)
    for kind in alternatives:
        if kind is float:  # json.loads reads NaN and Infinity as floats
            if type(value) in (int, float) and math.isfinite(value):
                return
        elif type(value) is _type(kind):
            break
    else:
        names = " or ".join(_KIND_NAMES[_type(k)] for k in alternatives)
        raise DatasetError(f"{where or 'a row'} must be {names}")
    if type(kind) is list:
        item_kind = kind[0]
        nullable = item_kind == (float, None)
        numbers = nullable or item_kind is float
        for i, item in enumerate(value):
            # Position and SNR entries are most of a row's values: a good
            # one passes here, and only a bad one recurses, to raise.
            if numbers and (type(item) in (int, float) and math.isfinite(item)
                            or nullable and item is None):
                continue
            _check(item, item_kind, f"{where}[{i}]")
    elif type(kind) is dict:
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in kind:
                raise DatasetError(f"unknown key {prefix}{key}")
        for key, sub in kind.items():
            if key not in value:
                raise DatasetError(f"missing key {prefix}{key}")
            _check(value[key], sub, prefix + key)


def _fits(kind, value: str, depth: int = 0) -> str:
    """Python source of a test that the value of the expression ``value``
    is of kind: one boolean expression, with the items of a list at depth
    d named ``x{d}``. It holds only if ``_check(value, kind)`` passes, and
    asks more: an object's keys must come in kind's order, and a float
    field must hold a float, not an integer. A value it refuses may still
    be valid; ``_check`` decides, and names what is wrong."""
    if type(kind) is tuple:
        return "(" + " or ".join(_fits(k, value, depth) for k in kind) + ")"
    if kind is None:
        return f"{value} is None"
    if kind is float:
        return f"(type({value}) is float and isfinite({value}))"
    if kind in (int, str):
        return f"type({value}) is {kind.__name__}"
    if type(kind) is list:
        item = f"x{depth}"
        return (f"(type({value}) is list and all("
                f"{_fits(kind[0], item, depth + 1)} for {item} in {value}))")
    return "(" + " and ".join(
        [f"type({value}) is dict", f"tuple({value}) == {tuple(kind)!r}",
         *(_fits(sub, f"{value}[{key!r}]", depth)
           for key, sub in kind.items())]) + ")"


#: ``ROW`` compiled once into one flat predicate (``_fits``): a row that
#: passes it needs no ``_check`` walk.
_row_fits = eval("lambda row: " + _fits(ROW, "row"),
                 {"isfinite": math.isfinite})


def _ue_record(row) -> tuple[int, str, UeFrameRecord]:
    """One data row as (frame, bs, UeFrameRecord); DatasetError if it does
    not fit ``ROW`` or its beam fields disagree (``evaluate`` indexes the
    SNR table with both indices)."""
    if not _row_fits(row):
        _check(row, ROW)
    (frame, bs, ue, position, active, bbox, det, paths, snrs, optimal,
     predicted, predicted_az) = map(row.__getitem__, ROW)
    if len(position) != 3:
        raise DatasetError("position_m must have 3 entries")
    if active not in (0, 1):
        raise DatasetError("activity must be 0 or 1")
    outage = optimal == OUTAGE_MARKER
    if outage != (snrs is None):
        raise DatasetError("optimal_index must be 'outage' exactly when "
                           "beam_snr_db is null")
    if not outage:
        if not (type(optimal) is int and 0 <= optimal < len(snrs)
                and snrs[optimal] is not None):
            raise DatasetError("optimal_index must be 'outage' or the index "
                               "of a non-null beam_snr_db entry")
        if predicted is not None and not 0 <= predicted < len(snrs):
            raise DatasetError("predicted_index must be null or an index "
                               "into beam_snr_db")
        snrs = tuple(OUTAGE_SNR_DB if s is None else s for s in snrs)
    if det is not None:
        det_bbox, confidence = map(det.__getitem__, _DETECTION)
        det = Detection(_bbox_from_json(det_bbox), confidence)
    return frame, bs, UeFrameRecord(
        ue_name=ue, position=tuple(position), active=active,
        bbox=_bbox_from_json(bbox),
        paths=tuple(map(_path_from_json, paths)), beam_snrs_db=snrs,
        optimal_index=None if outage else optimal,
        detection=det, predicted_index=predicted,
        predicted_azimuth_deg=predicted_az)


def _header(obj) -> dict:
    if type(obj) is not dict:
        raise DatasetError("the header must be a JSON object")
    for key, known in (("schema", SCHEMA_NAME), ("version", SCHEMA_VERSION)):
        if obj.get(key) != known:
            raise DatasetError(f"unsupported {key} {obj.get(key)!r}")
    return obj


def import_records(source) -> tuple[dict, list[FrameRecord]]:
    """Read the JSON-lines dataset file ``source`` back into (header,
    FrameRecords). A malformed or non-UTF-8 line raises DatasetError naming
    its line number."""
    try:
        data = Path(source).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset from "
                           f"'{source}': {exc}") from exc
    text = decode_utf8(data, lambda message, line, _: DatasetError(
        f"line {line}: {message}"))
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise DatasetError("empty dataset file")
    header = None
    frames: dict[tuple[int, str], list[UeFrameRecord]] = {}
    for lineno, ln in lines:
        try:
            obj = json.loads(ln)
            if header is None:
                header = _header(obj)
                continue
            frame, bs, record = _ue_record(obj)
            frames.setdefault((frame, bs), []).append(record)
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise DatasetError(f"line {lineno}: malformed line "
                               f"({type(exc).__name__}: {exc})") from exc
    return header, [FrameRecord(frame=frame, bs_name=bs, ues=tuple(ues))
                    for (frame, bs), ues in sorted(frames.items())]


# ---------------------------------------------------------------------------
# Metrics

@dataclass(frozen=True)
class Metrics:
    """Evaluation summary over eligible (active, detected, non-outage) rows."""

    top1_accuracy: float
    topk_accuracy: dict[int, float]
    mean_snr_loss_db: float
    outage_rate: float
    detection_recall: float
    eligible_rows: int
    active_rows: int
    total_rows: int

    def as_dict(self) -> dict:
        """JSON-ready: a non-finite value (an infinite SNR loss, when a
        prediction lands on a zero-gain beam) is None."""
        out = {k: None if type(v) is float and not math.isfinite(v) else v
               for k, v in asdict(self).items()}
        out["topk_accuracy"] = {
            str(k): v for k, v in self.topk_accuracy.items()}
        return out

    def format_table(self) -> str:
        rows = [("top-1 accuracy", f"{self.top1_accuracy:.4f}")]
        for k in sorted(self.topk_accuracy):
            if k != 1:
                rows.append((f"top-{k} accuracy",
                             f"{self.topk_accuracy[k]:.4f}"))
        rows += [
            ("mean SNR loss (dB)", f"{self.mean_snr_loss_db:.4f}"),
            ("outage rate", f"{self.outage_rate:.4f}"),
            ("detection recall", f"{self.detection_recall:.4f}"),
            ("eligible rows", str(self.eligible_rows)),
            ("active rows", str(self.active_rows)),
            ("total rows", str(self.total_rows)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def evaluate(records: list[FrameRecord], ks: tuple[int, ...] = (1, 3)
             ) -> Metrics:
    """Compute metrics from stored records; deterministic, order-invariant."""
    if not records:
        raise DatasetError("cannot evaluate an empty record list")
    if any(k < 1 for k in ks):
        raise ValueError(f"top-k values must be >= 1, got {sorted(ks)}")
    ks = tuple(sorted(set(ks) | {1}))
    total = 0
    active = 0
    outages = 0
    detected = 0
    visible_active = 0
    eligible = 0
    hits = {k: 0 for k in ks}
    snr_losses = []
    for rec in records:
        for u in rec.ues:
            total += 1
            if not u.active:
                continue
            active += 1
            if u.outage:
                outages += 1
            if u.bbox is not None:
                visible_active += 1
                if u.detection is not None:
                    detected += 1
            if u.detection is None or u.outage:
                continue
            eligible += 1
            p = u.predicted_index
            if p is None:
                continue
            # Rank of beam p with SNR descending, ties to the lowest index.
            snrs = u.beam_snrs_db
            rank = sum(s > snrs[p] for s in snrs) + snrs[:p].count(snrs[p])
            for k in ks:
                hits[k] += rank < k
            snr_losses.append(snrs[u.optimal_index] - snrs[p])
    topk = {k: (hits[k] / eligible if eligible else 0.0) for k in ks}
    return Metrics(
        top1_accuracy=topk[1],
        topk_accuracy=topk,
        mean_snr_loss_db=(math.fsum(sorted(snr_losses)) / len(snr_losses)
                          if snr_losses else 0.0),
        outage_rate=outages / active if active else 0.0,
        detection_recall=(detected / visible_active
                          if visible_active else 0.0),
        eligible_rows=eligible,
        active_rows=active,
        total_rows=total,
    )
