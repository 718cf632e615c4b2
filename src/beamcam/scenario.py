"""Scenario file parsing, validation and serialization.

The format is line oriented: ``[section]`` or ``[section name]`` headers,
``key = value`` pairs, comma-separated numeric tuples and ``#`` comments.
See docs/scenario_format.md for the grammar and a fully commented example.
Each file key is declared once, by a ``_spec`` on its config dataclass
field, the repeatable ``keyframe = FRAME : X, Y, Z`` too; the field default
is the parse default. Parse, validate and serialize walk those specs.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property
from typing import Any, Callable, NamedTuple

from .geometry import Mesh, box_mesh
from .materials import DEFAULT_MATERIALS

Vec3 = tuple[float, float, float]


class ScenarioError(Exception):
    """Base class for scenario file problems."""


class ScenarioSyntaxError(ScenarioError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScenarioValidationError(ScenarioError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def decode_utf8(data: bytes, error: Callable[..., Exception]) -> str:
    """data as UTF-8 text, else ``error(message, line, column)`` at its
    first bad byte, its lines counted as ``str.splitlines`` counts them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # An "x" for the bad byte: a line break just before it starts a line.
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise error(f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                    f"({exc.reason})", len(lines), len(lines[-1])) from None


# ---------------------------------------------------------------------------
# Value kinds and bounds

# float() and int() ignore the blanks around a number, as str.strip() does,
# so only the messages strip them.
def _parse_float(raw: str, line: int, col: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioSyntaxError(f"expected a number, got '{raw.strip()}'", line, col)
    if not math.isfinite(value):
        raise ScenarioSyntaxError(
            f"expected a finite number, got '{raw.strip()}'", line, col)
    return value


def _parse_int(raw: str, line: int, col: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioSyntaxError(f"expected an integer, got '{raw.strip()}'",
                                  line, col)


def _split(raw: str, sep: str, col: int, maxsplit: int = -1
           ) -> list[tuple[str, int]]:
    """raw split at sep, each part with the column of its first non-blank
    character (or of its end, when it is all blank)."""
    parts = []
    for part in raw.split(sep, maxsplit):
        parts.append((part, col + len(part) - len(part.lstrip())))
        col += len(part) + len(sep)
    return parts


def _parse_vec3(raw: str, line: int, col: int) -> Vec3:
    parts = _split(raw, ",", col)
    if len(parts) != 3:
        raise ScenarioSyntaxError(
            f"expected 3 comma-separated numbers, got '{raw.strip()}'", line,
            parts[0][1])
    x, y, z = [_parse_float(p, line, c) for p, c in parts]
    return (x, y, z)


def _parse_ranges(raw: str, line: int, col: int) -> tuple[tuple[int, int], ...]:
    ranges = []
    for chunk, c in _split(raw, ",", col):
        chunk = chunk.strip()
        bounds = _split(chunk, "-", c)
        # Frames are integers >= 0, so a range has exactly one '-'.
        if len(bounds) != 2 or not all(b.strip() for b, _ in bounds):
            raise ScenarioSyntaxError(
                f"expected frame range 'A-B' of frames >= 0, got '{chunk}'",
                line, c)
        (lo, c_lo), (hi, c_hi) = bounds
        ranges.append((_parse_int(lo, line, c_lo),
                       _parse_int(hi, line, c_hi)))
    return tuple(ranges)


def _parse_keyframe(raw: str, line: int, col: int) -> tuple[int, Vec3]:
    frame, colon, position = raw.partition(":")
    if not colon:
        raise ScenarioSyntaxError(f"expected 'F : X, Y, Z', got '{raw}'", line, col)
    return (_parse_int(frame, line, col),
            _parse_vec3(position, line, col + len(frame) + 1))


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v: Vec3) -> str:
    return ", ".join(_fmt_float(c) for c in v)


class _Kind(NamedTuple):
    """How one value is read from (raw, line, col) and written as text. The
    key of a kind that ``repeats`` may appear on several lines; its field
    holds one parsed value per line, in file order."""

    parse: Callable[[str, int, int], Any]
    format: Callable[[Any], str]
    repeats: bool = False


_INT = _Kind(_parse_int, str)
_FLOAT = _Kind(_parse_float, _fmt_float)
_VEC3 = _Kind(_parse_vec3, _fmt_vec)
_NAME = _Kind(lambda raw, line, col: raw, str)
_RANGES = _Kind(_parse_ranges, lambda rs: ", ".join(f"{lo}-{hi}" for lo, hi in rs))
_FRAME_VEC3 = _Kind(_parse_keyframe, lambda kf: f"{kf[0]} : {_fmt_vec(kf[1])}",
                    repeats=True)


class _Bound(NamedTuple):
    """A constraint on a parsed value, and how messages state it."""

    text: str
    holds: Callable[[Any], bool]


_AT_LEAST_0 = _Bound(">= 0", lambda v: v >= 0)
_AT_LEAST_1 = _Bound(">= 1", lambda v: v >= 1)
_POSITIVE = _Bound("> 0", lambda v: v > 0)
_POSITIVE_EACH = _Bound("> 0 in each component", lambda v: all(c > 0 for c in v))
_AZIMUTH = _Bound("in [0, 360)", lambda v: 0.0 <= v < 360.0)
_FOV = _Bound("in (0, 180)", lambda v: 0.0 < v < 180.0)


def _spec(kind: _Kind, default: Any = MISSING, *, key: str | None = None,
          bound: _Bound | None = None):
    """A file-backed field; ``key`` defaults to the field name."""
    return field(default=default,
                 metadata={"kind": kind, "key": key, "bound": bound})


# ---------------------------------------------------------------------------
# Config dataclasses

@dataclass(frozen=True, kw_only=True)
class SystemParams:
    frames: int = _spec(_INT, bound=_AT_LEAST_1)
    carrier_ghz: float = _spec(_FLOAT, bound=_POSITIVE)
    max_reflections: int = _spec(_INT, 2, bound=_AT_LEAST_0)
    codebook_size_q: int = _spec(_INT, 16, bound=_AT_LEAST_1)
    tx_power_dbm: float = _spec(_FLOAT, 30.0)
    noise_power_dbm: float = _spec(_FLOAT, -90.0)


@dataclass(frozen=True, kw_only=True)
class ArrayConfig:
    name: str
    elements_n: int = _spec(_INT, bound=_AT_LEAST_1)
    spacing_wavelengths: float = _spec(_FLOAT, 0.5, bound=_POSITIVE)


@dataclass(frozen=True, kw_only=True)
class CameraConfig:
    width_px: int = _spec(_INT, 1280, key="camera_width_px", bound=_AT_LEAST_1)
    height_px: int = _spec(_INT, 720, key="camera_height_px", bound=_AT_LEAST_1)
    hfov_deg: float = _spec(_FLOAT, 90.0, key="camera_hfov_deg", bound=_FOV)
    position_offset: Vec3 = _spec(_VEC3, (0.0, 0.0, 0.0), key="camera_offset")
    # A parsed [bs] section defaults this to its boresight_deg.
    yaw_deg: float = _spec(_FLOAT, 0.0, key="camera_yaw_deg")
    pitch_deg: float = _spec(_FLOAT, 0.0, key="camera_pitch_deg")


@dataclass(frozen=True, kw_only=True)
class BsConfig:
    name: str
    position: Vec3 = _spec(_VEC3)
    boresight_deg: float = _spec(_FLOAT, bound=_AZIMUTH)
    array_ref: str = _spec(_NAME, key="array")
    # Read from the camera keys of the same [bs] section.
    camera: CameraConfig = field(metadata={"nested": True})


@dataclass(frozen=True, kw_only=True)
class ReflectorConfig:
    name: str
    center: Vec3 = _spec(_VEC3)
    size: Vec3 = _spec(_VEC3, bound=_POSITIVE_EACH)
    yaw_deg: float = _spec(_FLOAT, 0.0)
    material: str = _spec(_NAME)
    mesh_path: str | None = _spec(_NAME, None)

    @cached_property
    def box(self) -> Mesh:
        """The box of this reflector's center, size and yaw: its occluder
        when it has no ``mesh_path``. Built on first use, which is
        ``validate_scenario``'s for a parsed scenario."""
        return box_mesh(self.center, self.size, self.yaw_deg, self.material)


@dataclass(frozen=True, kw_only=True)
class UeConfig:
    name: str
    size: Vec3 = _spec(_VEC3, bound=_POSITIVE_EACH)
    material: str = _spec(_NAME, "metal")
    # Empty tuple means "active for all frames".
    active_ranges: tuple[tuple[int, int], ...] = _spec(_RANGES, (), key="active")
    keyframes: tuple[tuple[int, Vec3], ...] = _spec(_FRAME_VEC3, (), key="keyframe")

    @cached_property
    def box(self) -> Mesh:
        """This UE's box at the origin with yaw 0, which each frame moves to
        the UE's position. Built on first use, which is
        ``validate_scenario``'s for a parsed scenario."""
        return box_mesh((0.0, 0.0, 0.0), self.size, material=self.material)


@dataclass(frozen=True)
class Scenario:
    system: SystemParams
    arrays: tuple[ArrayConfig, ...] = ()
    bss: tuple[BsConfig, ...] = ()
    reflectors: tuple[ReflectorConfig, ...] = ()
    ues: tuple[UeConfig, ...] = ()
    materials: tuple[tuple[str, float], ...] = tuple(sorted(DEFAULT_MATERIALS.items()))

    @property
    def material_table(self) -> dict[str, float]:
        return dict(self.materials)

    def array(self, name: str) -> ArrayConfig:
        return _by_name(self.arrays, name, "array")

    def bs(self, name: str) -> BsConfig:
        return _by_name(self.bss, name, "bs")


def _by_name(items, name, kind):
    for item in items:
        if item.name == name:
            return item
    raise ScenarioError(f"unknown {kind} '{name}'")


# Named section kind -> (Scenario attribute, config class).
_NAMED_SECTIONS = {
    "array": ("arrays", ArrayConfig),
    "bs": ("bss", BsConfig),
    "reflector": ("reflectors", ReflectorConfig),
    "ue": ("ues", UeConfig),
}
_SECTION_KINDS = {"system", "materials", *_NAMED_SECTIONS}


class _Spec(NamedTuple):
    name: str
    key: str
    kind: _Kind | None  # None for a nested config read from the same section
    bound: _Bound | None
    required: bool


@cache
def _specs(cls) -> tuple[_Spec, ...]:
    """The file-backed fields of a config class, in declaration order."""
    return tuple(
        _Spec(f.name, f.metadata.get("key") or f.name, f.metadata.get("kind"),
              f.metadata.get("bound"), f.default is MISSING)
        for f in fields(cls) if f.metadata
    )


# ---------------------------------------------------------------------------
# Parsing

class _Section:
    """A section's header and its pair table: each key, as written, maps to
    every (value, line, value column, key column) given for it."""

    def __init__(self, kind: str, name: str | None, line: int):
        self.kind = kind
        self.name = name
        self.line = line
        self.label = f"[{kind} {name}]" if name else f"[{kind}]"
        self.pairs: dict[str, list[tuple[str, int, int, int]]] = {}

    def once(self, key: str, items: list) -> tuple[str, int, int]:
        """The value, line and value column of a key that may appear once."""
        if len(items) > 1:
            _, line, _, col = items[1]
            raise ScenarioSyntaxError(
                f"duplicate key '{key}' in section {self.label}", line, col)
        value, line, col, _ = items[0]
        return value, line, col


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        # Only blanks precede stripped[0], so its first occurrence is its column.
        col = line.find(stripped[0]) + 1
        if stripped[0] == "[":
            if stripped[-1] != "]":
                raise ScenarioSyntaxError("unterminated section header", lineno, col)
            parts = stripped[1:-1].split(None, 1)
            if not parts:
                raise ScenarioSyntaxError("empty section header", lineno, col)
            kind = parts[0].lower()
            name = parts[1].strip() if len(parts) > 1 else None
            if kind not in _SECTION_KINDS:
                raise ScenarioSyntaxError(f"unknown section '{kind}'", lineno, col)
            if (name is None) != (kind in ("system", "materials")):
                need = "does not take" if name else "requires"
                raise ScenarioSyntaxError(f"section '{kind}' {need} a name",
                                          lineno, col)
            current = _Section(kind, name, lineno)
            # The unnamed kinds, [system] and [materials], appear at most once.
            if name is None and any(s.kind == kind for s in sections):
                raise ScenarioSyntaxError(f"duplicate {current.label} section",
                                          lineno, col)
            sections.append(current)
            continue
        if current is None:
            raise ScenarioSyntaxError("content outside any section", lineno, col)
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ScenarioSyntaxError(f"expected 'key = value', got '{stripped}'",
                                      lineno, col)
        value = value.lstrip()
        current.pairs.setdefault(key.rstrip(), []).append(
            (value, lineno, col + len(stripped) - len(value), col))
    return sections


def _read(cls, section: _Section, **defaults) -> dict:
    """Pop and parse cls's keys; ``defaults`` override field defaults."""
    kwargs = dict(defaults)
    for name, key, kind, _, required in _specs(cls):
        if kind is None:
            continue
        items = section.pairs.pop(key, None)
        if items is None:
            if required:
                raise ScenarioSyntaxError(
                    f"missing required key '{key}' in section {section.label}",
                    section.line)
        elif kind.repeats:
            kwargs[name] = tuple(kind.parse(value, line, col)
                                 for value, line, col, _ in items)
        else:
            kwargs[name] = kind.parse(*section.once(key, items))
    return kwargs


def _parse_config(cls, section: _Section):
    """One config object from the keys of its section."""
    kwargs = _read(cls, section)
    if cls is BsConfig:
        kwargs["camera"] = CameraConfig(**_read(
            CameraConfig, section, yaw_deg=kwargs["boresight_deg"]))
    for key, [(_, line, _, col), *_] in section.pairs.items():
        raise ScenarioSyntaxError(
            f"unknown key '{key}' in section {section.label}", line, col)
    if section.name is not None:
        kwargs["name"] = section.name
    return cls(**kwargs)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on any problem."""
    system: SystemParams | None = None
    materials = dict(DEFAULT_MATERIALS)
    named: dict[str, list] = {attr: [] for attr, _ in _NAMED_SECTIONS.values()}
    for section in _split_sections(text):
        if section.kind == "system":
            system = _parse_config(SystemParams, section)
        elif section.kind == "materials":
            materials.update((key, _parse_float(*section.once(key, items)))
                             for key, items in section.pairs.items())
        else:
            attr, cls = _NAMED_SECTIONS[section.kind]
            named[attr].append(_parse_config(cls, section))
    if system is None:
        raise ScenarioSyntaxError("missing [system] section", 1)
    scenario = Scenario(
        system=system,
        materials=tuple(sorted(materials.items())),
        **{attr: tuple(sorted(items, key=lambda c: c.name))
           for attr, items in named.items()},
    )
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


# ---------------------------------------------------------------------------
# Validation

def _check_bounds(obj, label: str, out: list[str]) -> None:
    for name, key, kind, bound, _ in _specs(type(obj)):
        if kind is None:
            _check_bounds(getattr(obj, name), label, out)
        elif bound and not bound.holds(value := getattr(obj, name)):
            out.append(f"{label}{key} must be {bound.text}, got {kind.format(value)}")


def validate_scenario(s: Scenario) -> list[str]:
    """Return every invariant violation; an empty list means valid."""
    out: list[str] = []
    sysp = s.system
    _check_bounds(sysp, "", out)
    if not sysp.noise_power_dbm < sysp.tx_power_dbm:
        out.append("noise_power_dbm must be below tx_power_dbm")

    for mat, amp in s.materials:
        if not 0.0 < amp <= 1.0:
            out.append(f"material '{mat}' amplitude {amp} outside (0, 1]")

    for kind, (attr, _) in _NAMED_SECTIONS.items():
        if kind in ("bs", "ue") and not getattr(s, attr):
            out.append(f"scenario requires at least one {kind}")
        seen: set[str] = set()
        for item in getattr(s, attr):
            if item.name in seen:
                out.append(f"duplicate {kind} name '{item.name}'")
            seen.add(item.name)
            _check_bounds(item, f"{kind} '{item.name}': ", out)

    array_names = {a.name for a in s.arrays}
    for bs in s.bss:
        if bs.array_ref not in array_names:
            out.append(f"bs '{bs.name}': unresolved array reference '{bs.array_ref}'")

    table = s.material_table
    for item in s.reflectors + s.ues:
        if item.material not in table:
            out.append(f"unknown material '{item.material}'")

    # The box meshes ``Simulator`` builds; values that pass their bounds can
    # still make a face too thin for ``Mesh``, such as a size of 1e-7 m or
    # a center so far out that the corners round together.
    boxed = [r for r in s.reflectors if r.mesh_path is None] + list(s.ues)
    for item in boxed:
        if _POSITIVE_EACH.holds(item.size):
            try:
                item.box
            except ValueError as exc:
                given = (
                    f"ue '{item.name}': size {_fmt_vec(item.size)} gives"
                    if isinstance(item, UeConfig) else
                    f"reflector '{item.name}': center {_fmt_vec(item.center)}"
                    f", size {_fmt_vec(item.size)} and yaw_deg "
                    f"{_fmt_float(item.yaw_deg)} give")
                out.append(f"{given} no valid box mesh: {exc}")

    frames = sysp.frames
    for ue in s.ues:
        label = f"ue '{ue.name}': "
        kf_frames = [fidx for fidx, _ in ue.keyframes]
        if not kf_frames:
            out.append(f"{label}at least one keyframe required")
        if any(b <= a for a, b in zip(kf_frames, kf_frames[1:])):
            out.append(f"{label}keyframe frames must strictly increase")
        for fidx in kf_frames:
            if not 0 <= fidx < frames:
                out.append(f"{label}keyframe frame {fidx} outside [0, {frames})")
        for lo, hi in ue.active_ranges:
            if lo > hi or lo < 0 or hi >= frames:
                out.append(f"{label}active range {lo}-{hi} outside [0, {frames})")
    return out


# ---------------------------------------------------------------------------
# Serialization

def _format(obj) -> list[str]:
    """``key = value`` lines for obj's set fields; None and () are unset."""
    lines = []
    for name, key, kind, _, _ in _specs(type(obj)):
        value = getattr(obj, name)
        if kind is None:
            lines += _format(value)
        elif kind.repeats:
            lines += [f"{key} = {kind.format(v)}" for v in value]
        elif value is not None and value != ():
            lines.append(f"{key} = {kind.format(value)}")
    return lines


def serialize_scenario(s: Scenario) -> str:
    """Render a Scenario back to the text format; parse(serialize(s)) == s."""
    lines = ["[system]", *_format(s.system), "", "[materials]"]
    lines += [f"{name} = {_fmt_float(amp)}" for name, amp in s.materials]
    for kind, (attr, _) in _NAMED_SECTIONS.items():
        for item in getattr(s, attr):
            lines += ["", f"[{kind} {item.name}]", *_format(item)]
    return "\n".join(lines) + "\n"
