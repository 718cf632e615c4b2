import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    a = ch.array_response(8, 0.5, [90.0])[0]
    assert np.allclose(a, np.ones(8))


def test_array_response_phase_progression():
    a = ch.array_response(4, 0.5, [60.0])[0]
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
        ch.array_response(8, 0.5, [az])[0] / math.sqrt(8)
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
    h12, h1, h2, h0 = ch.build_channels([[p1, p2], [p1], [p2], []],
                                        8, 0.5, 90.0)
    assert np.allclose(h12, h1 + h2)
    assert h0.tolist() == [0.0] * 8


def test_beam_snr_matched_filter_value():
    # Single LOS path at boresight, matched beam: SNR has a closed form
    # P_tx + 20 log10(|g| sqrt(N)) - P_noise.
    p = single_path(90.0)
    n = 16
    h = ch.build_channels([[p]], n, 0.5, 90.0)[0]
    w = ch.array_response(n, 0.5, [90.0])[0] / math.sqrt(n)
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
    snrs = ch.beam_tables(h[None], cb, 30.0, -90.0)[0][0]
    for i, w in enumerate(cb.matrix):
        assert snrs[i] == pytest.approx(ref.beam_snr(h, w, 30.0, -90.0),
                                        abs=1e-9)


def test_optimal_beam_lowest_index_tiebreak():
    cb = ch.generate_codebook(8, 0.5, 16)
    snrs, best = ch.beam_tables(np.zeros((1, 8), complex), cb, 30.0, -90.0)
    # All-outage channel: no usable beam.
    assert best.tolist() == [-1]
    assert all(s == ch.OUTAGE_SNR_DB for s in snrs[0])


def test_optimal_beam_scaling_invariance():
    rng = np.random.default_rng(11)
    cb = ch.generate_codebook(8, 0.5, 16)
    for _ in range(100):
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        _, (i1, i2) = ch.beam_tables(
            np.stack([h, 3.7 * h * np.exp(1j * 0.4)]), cb, 30.0, -90.0)
        assert i1 == i2


def test_single_path_at_bin_center_wins_own_beam():
    cb = ch.generate_codebook(16, 0.5, 16)
    for i in range(cb.q):
        az_world = ref.array_to_world_deg((i + 0.5) * (180.0 / cb.q), 90.0)
        p = single_path(az_world)
        h = ch.build_channels([[p]], 16, 0.5, 90.0)
        _, best = ch.beam_tables(h, cb, 30.0, -90.0)
        assert best.tolist() == [i]


def test_destructive_two_path_lowers_snr():
    p = single_path(90.0)
    lam = rt.C_LIGHT / 28e9
    # Same direction, half-wavelength longer: perfectly destructive.
    d = 10.0 + lam / 2
    anti = ref.compute_path_component(
        [ref.vec3(0, 0, 0), ref.vec3(0.0, d, 0.0)], [], 28.0)
    n = 8
    h = ch.build_channels([[p, anti], [p]], n, 0.5, 90.0)
    cb = ch.generate_codebook(n, 0.5, 16)
    snrs, _ = ch.beam_tables(h, cb, 30.0, -90.0)
    s2, s1 = snrs.max(axis=1)
    assert s2 < s1 - 20.0  # deep fade


_GAIN = st.floats(-1e-3, 1e-3, allow_subnormal=False)
_PATH = st.builds(
    lambda az, re, im: rt.PathComponent(complex(re, im), 1e-7, az, 0.0,
                                        0.0, 0.0, 0, 30.0),
    st.floats(-360.0, 720.0), _GAIN, _GAIN)
# No path (outage), one or many paths, or a path and its negation, whose
# contributions cancel exactly: a zero channel.
_RECORD = st.one_of(
    st.lists(_PATH, max_size=12),
    _PATH.map(lambda p: [p, dataclasses.replace(p, gain=-p.gain)]))


@pytest.mark.parametrize("size", [1, 24])
@given(data=st.data())
def test_block_channels_and_beam_tables_equal_one_record_at_a_time(
        size, data):
    """``build_channels`` and ``beam_tables`` of a block give every
    record's channel, SNR table and optimal index bit for bit as the
    one-record reference forms do."""
    n = data.draw(st.integers(1, 16))
    q = data.draw(st.integers(1, 64))
    spacing = data.draw(st.floats(0.1, 2.0))
    boresight = data.draw(st.floats(0.0, 360.0))
    block = data.draw(st.lists(_RECORD, min_size=size, max_size=size))
    cb = ch.generate_codebook(n, spacing, q)
    h = ch.build_channels(block, n, spacing, boresight)
    snrs, best = ch.beam_tables(h, cb, 30.0, -90.0)
    assert h.shape == (size, n) and snrs.shape == (size, q)
    for r, paths in enumerate(block):
        h_ref = ref.record_channel(paths, n, spacing, boresight)
        snrs_ref, index_ref = ref.record_beam_table(h_ref, cb, 30.0, -90.0)
        assert h[r].tolist() == h_ref.tolist()
        assert snrs[r].tolist() == snrs_ref
        assert best[r] == (-1 if index_ref is None else index_ref)


def test_block_outage_and_exact_ties():
    """A record with no path, or whose paths cancel exactly, is an outage
    (index -1, every beam at ``OUTAGE_SNR_DB``); a channel symmetric about
    broadside ties two beams exactly, and the first wins."""
    p = single_path(60.0)
    anti = dataclasses.replace(p, gain=-p.gain)
    cb = ch.generate_codebook(16, 0.5, 64)
    h = ch.build_channels([[], [p, anti], [p]], 16, 0.5, 90.0)
    assert h[:2].tolist() == [[0.0] * 16] * 2
    snrs, best = ch.beam_tables(np.vstack([h, np.ones(16)]), cb, 30.0, -90.0)
    assert best[:2].tolist() == [-1, -1]
    assert (snrs[:2] == ch.OUTAGE_SNR_DB).all()
    assert best[2] >= 0
    assert snrs[3, 31] == snrs[3, 32] == snrs[3].max()
    assert best[3] == 31
    assert ch.beam_tables(np.ones((1, 16)), cb, 30.0, -90.0)[1].tolist() \
        == [31]
