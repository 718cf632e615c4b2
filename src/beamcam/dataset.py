"""Dataset serialization (JSON lines) and evaluation metrics.

One JSON object per (frame, UE) entry, preceded by a schema-version
header line. Outage is an explicit marker string, never a float
sentinel. Evaluation works purely off the stored per-beam SNR tables so
it never depends on physics code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .camera import BoundingBox
from .pipeline import Detection, FrameRecord, UeFrameRecord
from .raytrace import PathComponent

SCHEMA_NAME = "beamcam-records"
SCHEMA_VERSION = 1
OUTAGE_MARKER = "outage"


class DatasetError(Exception):
    pass


def _bbox_to_json(bbox: BoundingBox | None):
    if bbox is None:
        return None
    return {
        "u_min": bbox.u_min, "v_min": bbox.v_min,
        "u_max": bbox.u_max, "v_max": bbox.v_max,
        "visibility": bbox.visibility,
    }


def _bbox_from_json(obj, ue_name: str) -> BoundingBox | None:
    if obj is None:
        return None
    return BoundingBox(u_min=obj["u_min"], v_min=obj["v_min"],
                       u_max=obj["u_max"], v_max=obj["v_max"],
                       ue_name=ue_name, visibility=obj["visibility"])


def _path_to_json(p: PathComponent):
    return {
        "gain_db": p.gain_db,
        "phase_deg": p.phase_deg,
        "delay_ns": p.delay_s * 1e9,
        "aod_az_deg": p.aod_az_deg,
        "aod_el_deg": p.aod_el_deg,
        "aoa_az_deg": p.aoa_az_deg,
        "aoa_el_deg": p.aoa_el_deg,
        "bounces": p.bounces,
        "length_m": p.length_m,
    }


def _path_from_json(obj) -> PathComponent:
    amp = 10.0 ** (obj["gain_db"] / 20.0)
    phase = math.radians(obj["phase_deg"])
    return PathComponent(
        gain=amp * complex(math.cos(phase), math.sin(phase)),
        delay_s=obj["delay_ns"] * 1e-9,
        aod_az_deg=obj["aod_az_deg"],
        aod_el_deg=obj["aod_el_deg"],
        aoa_az_deg=obj["aoa_az_deg"],
        aoa_el_deg=obj["aoa_el_deg"],
        bounces=obj["bounces"],
        length_m=obj["length_m"],
        points=(),
    )


def record_rows(records: list[FrameRecord]):
    """Flatten FrameRecords into one JSON-ready dict per (frame, UE)."""
    for rec in records:
        for u in rec.ues:
            det = u.detection
            yield {
                "frame": rec.frame,
                "bs": rec.bs_name,
                "ue": u.ue_name,
                "position_m": list(u.position),
                "activity": u.active,
                "bbox_px": _bbox_to_json(u.bbox),
                "detection": None if det is None else {
                    "bbox_px": _bbox_to_json(det.bbox),
                    "confidence": det.confidence,
                },
                "paths": [_path_to_json(p) for p in u.paths],
                "beam_snr_db": None if u.beam_snrs_db is None
                else list(u.beam_snrs_db),
                "optimal_index": OUTAGE_MARKER if u.outage
                else u.optimal_index,
                "predicted_index": u.predicted_index,
                "predicted_azimuth_deg": u.predicted_azimuth_deg,
            }


def export_records(records: list[FrameRecord], destination,
                   metadata: dict | None = None) -> int:
    """Write records as JSON lines; returns the number of data rows."""
    header = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        **(metadata or {}),
    }
    lines = [json.dumps(header, sort_keys=True)]
    count = 0
    for row in record_rows(records):
        lines.append(json.dumps(row))
        count += 1
    payload = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        try:
            Path(destination).write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise DatasetError(f"cannot write dataset to "
                               f"'{destination}': {exc}") from exc
    return count


_ROW_KEYS = frozenset((
    "frame", "bs", "ue", "position_m", "activity", "bbox_px", "detection",
    "paths", "beam_snr_db", "optimal_index", "predicted_index",
    "predicted_azimuth_deg",
))


def _beam_index(value, snrs) -> bool:
    """True iff value is an int index into the SNR list snrs."""
    return (type(value) is int and isinstance(snrs, list)
            and 0 <= value < len(snrs))


def _ue_record(row: dict) -> UeFrameRecord:
    """One data row as a UeFrameRecord.

    DatasetError for a missing key or for beam fields that disagree
    (``evaluate`` indexes the SNR table with both indices).
    """
    missing = _ROW_KEYS.difference(row)
    if missing:
        raise DatasetError(f"missing key(s) {', '.join(sorted(missing))}")
    if type(row["frame"]) is not int or not isinstance(row["bs"], str):
        raise DatasetError("frame must be an integer and bs a string")
    snrs = row["beam_snr_db"]
    outage = row["optimal_index"] == OUTAGE_MARKER
    if outage:
        if snrs is not None:
            raise DatasetError("an outage row must have beam_snr_db null")
        optimal_index = optimal_snr = None
    else:
        optimal_index = row["optimal_index"]
        if not _beam_index(optimal_index, snrs):
            raise DatasetError("optimal_index must be 'outage' or an index "
                               "into beam_snr_db")
        if not (row["predicted_index"] is None
                or _beam_index(row["predicted_index"], snrs)):
            raise DatasetError("predicted_index must be null or an index "
                               "into beam_snr_db")
        optimal_snr = snrs[optimal_index]
    det = row["detection"]
    return UeFrameRecord(
        ue_name=row["ue"],
        position=tuple(row["position_m"]),
        active=row["activity"],
        bbox=_bbox_from_json(row["bbox_px"], row["ue"]),
        paths=tuple(_path_from_json(p) for p in row["paths"]),
        beam_snrs_db=None if snrs is None else tuple(snrs),
        optimal_index=optimal_index,
        optimal_snr_db=optimal_snr,
        outage=outage,
        detection=None if det is None else Detection(
            ue_name=row["ue"],
            bbox=_bbox_from_json(det["bbox_px"], row["ue"]),
            confidence=det["confidence"],
        ),
        predicted_index=row["predicted_index"],
        predicted_azimuth_deg=row["predicted_azimuth_deg"],
    )


def import_records(source) -> tuple[dict, list[FrameRecord]]:
    """Read a JSON-lines dataset back into (header, FrameRecords).

    A malformed row raises DatasetError naming its line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise DatasetError(f"cannot read dataset from "
                               f"'{source}': {exc}") from exc
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise DatasetError("empty dataset file")
    header = json.loads(lines[0][1])
    if header.get("schema") != SCHEMA_NAME:
        raise DatasetError(f"unexpected schema {header.get('schema')!r}")
    if header.get("version") != SCHEMA_VERSION:
        raise DatasetError(f"unsupported schema version "
                           f"{header.get('version')!r}")
    frames: dict[tuple[int, str], list[UeFrameRecord]] = {}
    for lineno, ln in lines[1:]:
        try:
            row = json.loads(ln)
            record = _ue_record(row)
            frames.setdefault((row["frame"], row["bs"]), []).append(record)
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        except (LookupError, TypeError, ValueError) as exc:
            raise DatasetError(f"line {lineno}: malformed row "
                               f"({type(exc).__name__}: {exc})") from exc
    records = [
        FrameRecord(frame=frame, bs_name=bs, ues=tuple(ues))
        for (frame, bs), ues in sorted(frames.items())
    ]
    return header, records


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
        return {**asdict(self), "topk_accuracy": {
            str(k): v for k, v in self.topk_accuracy.items()}}

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
