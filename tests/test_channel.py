import math

import numpy as np
import pytest

from beamcam import channel as ch
from beamcam import raytrace as rt

import reference as ref


def single_path(az_deg, gain=1e-4, carrier=28.0):
    """A synthetic single-component path arriving from az_deg (world)."""
    d = 10.0
    end = ref.vec3(d * math.cos(math.radians(az_deg)),
                   d * math.sin(math.radians(az_deg)), 0.0)
    p = ref.compute_path_component([ref.vec3(0, 0, 0), end], [], carrier)
    return p


def test_array_response_broadside_is_ones():
    a = ch.array_response(8, 0.5, 90.0)
    assert np.allclose(a, np.ones(8))


def test_array_response_phase_progression():
    a = ch.array_response(4, 0.5, 60.0)
    step = np.exp(1j * 2 * math.pi * 0.5 * math.cos(math.radians(60.0)))
    assert np.allclose(a[1:] / a[:-1], step)
    assert np.allclose(np.abs(a), 1.0)


def test_world_array_angle_conversion():
    # Boresight maps to broadside (90 degrees array-relative).
    assert ch.world_to_array_deg(90.0, 90.0) == pytest.approx(90.0)
    assert ch.world_to_array_deg(135.0, 90.0) == pytest.approx(135.0)
    assert ch.world_to_array_deg(350.0, 0.0) == pytest.approx(80.0)
    for az in (3.0, 91.5, 179.0):
        back = ref.array_to_world_deg(ch.world_to_array_deg(az, 37.0), 37.0)
        assert back % 360.0 == pytest.approx(az, abs=1e-12)


def test_codebook_centers_and_bins():
    cb = ch.generate_codebook(8, 0.5, 4)
    assert cb.q == 4
    # Row i is steered at its bin centre (i + 0.5) * 180 / Q.
    assert np.array_equal(cb.matrix, [
        ch.array_response(8, 0.5, az) / math.sqrt(8)
        for az in (22.5, 67.5, 112.5, 157.5)])
    # Unit-norm beamforming vectors.
    assert np.allclose(np.linalg.norm(cb.matrix, axis=1), 1.0)
    # Half-open bins tile [0, 180).
    assert cb.bin_index(0.0) == 0
    assert cb.bin_index(44.999999) == 0
    assert cb.bin_index(45.0) == 1
    assert cb.bin_index(179.999) == 3
    assert cb.bin_index(180.0) is None
    assert cb.bin_index(-1.0) is None


def test_bins_partition_exactly():
    cb = ch.generate_codebook(16, 0.5, 16)
    for i in range(16):
        width = 180.0 / 16
        assert cb.bin_index(i * width) == i
        assert cb.bin_index((i + 1) * width - 1e-9) == i


def test_build_channel_superposition():
    p1 = single_path(90.0)
    p2 = single_path(45.0)
    h12 = ch.build_channel([p1, p2], 8, 0.5, 90.0)
    h1 = ch.build_channel([p1], 8, 0.5, 90.0)
    h2 = ch.build_channel([p2], 8, 0.5, 90.0)
    assert np.allclose(h12, h1 + h2)
    assert ch.build_channel([], 8, 0.5, 90.0).tolist() == [0.0] * 8


def test_beam_snr_matched_filter_value():
    # Single LOS path at boresight, matched beam: SNR has a closed form
    # P_tx + 20 log10(|g| sqrt(N)) - P_noise.
    p = single_path(90.0)
    n = 16
    h = ch.build_channel([p], n, 0.5, 90.0)
    w = ch.array_response(n, 0.5, 90.0) / math.sqrt(n)
    snr = ref.beam_snr(h, w, 30.0, -90.0)
    expected = 30.0 + 20 * math.log10(abs(p.gain) * math.sqrt(n)) + 90.0
    assert snr == pytest.approx(expected, abs=1e-9)


def test_beam_snr_errors_and_outage():
    with pytest.raises(ValueError):
        ref.beam_snr(np.ones(4, complex), np.ones(8, complex), 30.0, -90.0)
    assert ref.beam_snr(np.zeros(8, complex), np.ones(8, complex) / 8,
                       30.0, -90.0) == ch.OUTAGE_SNR_DB


def test_sweep_matches_per_beam_snr():
    rng = np.random.default_rng(3)
    cb = ch.generate_codebook(8, 0.5, 16)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    snrs = ch.sweep_snrs(h, cb, 30.0, -90.0)
    for i, w in enumerate(cb.matrix):
        assert snrs[i] == pytest.approx(ref.beam_snr(h, w, 30.0, -90.0),
                                        abs=1e-9)


def test_optimal_beam_lowest_index_tiebreak():
    cb = ch.generate_codebook(8, 0.5, 16)
    idx, snr, snrs = ch.optimal_beam(np.zeros(8, complex), cb, 30.0, -90.0)
    # All-outage channel: no usable beam.
    assert idx is None and snr is None
    assert all(s == ch.OUTAGE_SNR_DB for s in snrs)


def test_optimal_beam_scaling_invariance():
    rng = np.random.default_rng(11)
    cb = ch.generate_codebook(8, 0.5, 16)
    for _ in range(100):
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        i1, _, _ = ch.optimal_beam(h, cb, 30.0, -90.0)
        i2, _, _ = ch.optimal_beam(3.7 * h * np.exp(1j * 0.4), cb,
                                   30.0, -90.0)
        assert i1 == i2


def test_single_path_at_bin_center_wins_own_beam():
    cb = ch.generate_codebook(16, 0.5, 16)
    for i in range(cb.q):
        az_world = ref.array_to_world_deg((i + 0.5) * (180.0 / cb.q), 90.0)
        p = single_path(az_world)
        h = ch.build_channel([p], 16, 0.5, 90.0)
        idx, _, _ = ch.optimal_beam(h, cb, 30.0, -90.0)
        assert idx == i


def test_destructive_two_path_lowers_snr():
    p = single_path(90.0)
    lam = rt.C_LIGHT / 28e9
    # Same direction, half-wavelength longer: perfectly destructive.
    d = 10.0 + lam / 2
    anti = ref.compute_path_component(
        [ref.vec3(0, 0, 0), ref.vec3(0.0, d, 0.0)], [], 28.0)
    n = 8
    h2 = ch.build_channel([p, anti], n, 0.5, 90.0)
    h1 = ch.build_channel([p], n, 0.5, 90.0)
    cb = ch.generate_codebook(n, 0.5, 16)
    _, s2, _ = ch.optimal_beam(h2, cb, 30.0, -90.0)
    _, s1, _ = ch.optimal_beam(h1, cb, 30.0, -90.0)
    assert s2 < s1 - 20.0  # deep fade
