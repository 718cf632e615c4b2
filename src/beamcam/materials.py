"""Propagation material table.

Reflection amplitudes are frequency-independent scalars in (0, 1] applied
per specular bounce. The table is closed: unknown material names are
validation errors, never silent defaults. Scenario files may override the
amplitudes through a ``[materials]`` section.
"""

from __future__ import annotations

DEFAULT_MATERIALS: dict[str, float] = {
    "metal": 0.95,
    "concrete": 0.60,
    "brick": 0.45,
}

