"""Geometric channel construction, ULA steering, codebook and beam sweep.

The base station uses a uniform linear array in the horizontal plane; the
UE side is modeled single-antenna, so beam selection happens only at the
BS. Angles are azimuth-only: the codebook covers the array half-space
[0, 180) degrees measured from the array axis, split into Q equal bins
(pi/Q radians apart), each beam steered at its bin midpoint.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .raytrace import PathComponent

#: SNR reported for a zero (outage) channel.
OUTAGE_SNR_DB = float("-inf")


def array_response(n_elements: int, spacing_wavelengths: float,
                   az_deg: Iterable[float]) -> np.ndarray:
    """ULA steering vectors, one row per azimuth: element k of a row has
    phase 2*pi*d*k*cos(az). Each phase comes from the scalar ``math``
    functions, so a row does not depend on the other azimuths."""
    scale = 2.0 * math.pi * spacing_wavelengths
    phase = np.array([scale * math.cos(math.radians(az)) for az in az_deg])
    return np.exp((1j * phase)[:, None] * np.arange(n_elements))


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
    rows = (array_response(n_elements, spacing_wavelengths,
                           [(i + 0.5) * width for i in range(q)])
            / math.sqrt(n_elements))
    return Codebook(matrix=rows)


def build_channels(paths: Sequence[Sequence[PathComponent]],
                   n_elements: int, spacing_wavelengths: float,
                   boresight_deg: float) -> np.ndarray:
    """The channel of each record of a block, as the rows of an (R, N)
    array: row r sums, from zero and in path order, the complex gain of
    each of record r's paths times its steering vector at its AoD. One
    ``array_response`` call steers every path of the block."""
    flat = [p for record in paths for p in record]
    steer = array_response(
        n_elements, spacing_wavelengths,
        [world_to_array_deg(p.aod_az_deg, boresight_deg) for p in flat])
    h = np.zeros((len(paths), n_elements), dtype=complex)
    np.add.at(h, np.repeat(np.arange(len(paths)), [len(r) for r in paths]),
              np.array([p.gain for p in flat], complex)[:, None] * steer)
    return h


def build_channel(paths: list[PathComponent], n_elements: int,
                  spacing_wavelengths: float,
                  boresight_deg: float) -> np.ndarray:
    """Sum of complex path gains times steering vectors at their AoDs: a
    block of one record of ``build_channels``."""
    return build_channels([paths], n_elements, spacing_wavelengths,
                          boresight_deg)[0]


def beam_tables(h: np.ndarray, codebook: Codebook, tx_power_dbm: float,
                noise_power_dbm: float) -> tuple[np.ndarray, np.ndarray]:
    """Beam-sweep oracle over a stack of channels ``h`` (R, N): the (R, Q)
    per-beam SNR tables and each row's optimal index, the first argmax of
    its table (ties to the lowest index).

    Outage, with index -1, is decided here and only here: no beam has a
    usable SNR (every beam is at ``OUTAGE_SNR_DB``). The gains are one
    stack of the matrix-vector products ``codebook.matrix.conj() @ h[r]``.
    """
    g = np.abs(np.matmul(codebook.matrix.conj(), h[..., None])[..., 0])
    snrs = np.full(g.shape, OUTAGE_SNR_DB)
    nz = g > 0.0
    snrs[nz] = tx_power_dbm + 20.0 * np.log10(g[nz]) - noise_power_dbm
    best = snrs.argmax(axis=1)
    best[~nz.any(axis=1)] = -1
    return snrs, best


def sweep_snrs(h: np.ndarray, codebook: Codebook, tx_power_dbm: float,
               noise_power_dbm: float) -> list[float]:
    """Per-beam SNR table of one channel, one entry per row of
    ``codebook.matrix``: ``beam_tables`` of a stack of one."""
    snrs, _ = beam_tables(h[None], codebook, tx_power_dbm, noise_power_dbm)
    return snrs[0].tolist()


def optimal_beam(h: np.ndarray, codebook: Codebook, tx_power_dbm: float,
                 noise_power_dbm: float
                 ) -> tuple[int | None, float | None, list[float]]:
    """(index, snr_db, per-beam snrs) of one channel: ``beam_tables`` of a
    stack of one, with index and snr_db None for an outage."""
    snrs, best = beam_tables(h[None], codebook, tx_power_dbm,
                             noise_power_dbm)
    snrs, best = snrs[0].tolist(), int(best[0])
    if best < 0:
        return None, None, snrs
    return best, snrs[best], snrs
