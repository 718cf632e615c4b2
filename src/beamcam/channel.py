"""Geometric channel construction, ULA steering, codebook and beam sweep.

The base station uses a uniform linear array in the horizontal plane; the
UE side is modeled single-antenna, so beam selection happens only at the
BS. Angles are azimuth-only: the codebook covers the array half-space
[0, 180) degrees measured from the array axis, split into Q equal bins
(pi/Q radians apart), each beam steered at its bin midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .raytrace import PathComponent

#: SNR reported for a zero (outage) channel.
OUTAGE_SNR_DB = float("-inf")


def array_response(n_elements: int, spacing_wavelengths: float,
                   az_deg: float) -> np.ndarray:
    """ULA steering vector: element k has phase 2*pi*d*k*cos(az)."""
    phase = (2.0 * math.pi * spacing_wavelengths
             * math.cos(math.radians(az_deg)))
    return np.exp(1j * phase * np.arange(n_elements))


def world_to_array_deg(az_world_deg: float, boresight_deg: float) -> float:
    """World azimuth -> angle from the array axis, in [0, 360).

    The array line is perpendicular to the boresight; a source exactly at
    boresight maps to 90 degrees (broadside). Values in [0, 180) are the
    front half-space covered by the codebook.
    """
    return (az_world_deg - boresight_deg + 90.0) % 360.0


@dataclass(frozen=True, eq=False)
class Codebook:
    """Q beams as the unit-norm rows of ``matrix`` (Q, N); beam i is
    steered at the centre (i + 0.5) * 180 / Q of its bin."""

    matrix: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return len(self.matrix)

    def bin_index(self, az_array_deg: float) -> int | None:
        """Codebook bin containing an array-relative azimuth, else None."""
        if not 0.0 <= az_array_deg < 180.0:
            return None
        return min(int(az_array_deg * self.q / 180.0), self.q - 1)


def generate_codebook(n_elements: int, spacing_wavelengths: float,
                      q: int) -> Codebook:
    """Q beams of identical pi/Q angular separation tiling [0, 180)."""
    if q < 1:
        raise ValueError("codebook size must be >= 1")
    width = 180.0 / q
    rows = np.empty((q, n_elements), dtype=complex)
    for i in range(q):
        rows[i] = (array_response(n_elements, spacing_wavelengths,
                                  (i + 0.5) * width)
                   / math.sqrt(n_elements))
    return Codebook(matrix=rows)


def build_channel(paths: list[PathComponent], n_elements: int,
                  spacing_wavelengths: float,
                  boresight_deg: float) -> np.ndarray:
    """Sum of complex path gains times steering vectors at their AoDs."""
    h = np.zeros(n_elements, dtype=complex)
    for path in paths:
        az = world_to_array_deg(path.aod_az_deg, boresight_deg)
        h += path.gain * array_response(n_elements, spacing_wavelengths, az)
    return h


def sweep_snrs(h: np.ndarray, codebook: Codebook, tx_power_dbm: float,
               noise_power_dbm: float) -> list[float]:
    """Per-beam SNR table, one entry per row of ``codebook.matrix``."""
    g = np.abs(codebook.matrix.conj() @ h)
    out = np.full(codebook.q, OUTAGE_SNR_DB)
    nz = g > 0.0
    out[nz] = tx_power_dbm + 20.0 * np.log10(g[nz]) - noise_power_dbm
    return [float(x) for x in out]


def optimal_beam(h: np.ndarray, codebook: Codebook, tx_power_dbm: float,
                 noise_power_dbm: float
                 ) -> tuple[int | None, float | None, list[float]]:
    """Beam-sweep oracle: argmax of per-beam SNR, ties to the lowest index.

    Returns (index, snr_db, per-beam snrs). Outage, with index and snr_db
    None, is decided here and only here: no beam has a usable SNR (every
    beam is at ``OUTAGE_SNR_DB``).
    """
    snrs = sweep_snrs(h, codebook, tx_power_dbm, noise_power_dbm)
    best = max(range(len(snrs)), key=snrs.__getitem__)
    if snrs[best] == OUTAGE_SNR_DB:
        return None, None, snrs
    return best, snrs[best], snrs
