"""Noise synthesis: amplitude scaling, statistics, spectrum, determinism."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.exceptions import ConfigError
from kljnsim import harness
from kljnsim.noise import johnson_rms_voltage, synth_band_limited_gaussian

T_EFF = 7.25e16
BW = 250.0


def test_johnson_rms_matches_direct_arithmetic():
    # oracle: the defining formula evaluated inline
    expected = math.sqrt(4.0 * 1.380649e-23 * T_EFF * 1000.0 * BW)
    value = johnson_rms_voltage(1000.0, T_EFF, BW)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(1.0002, abs=1.5e-3)


def test_johnson_rms_nine_kiloohm_is_three_times_one_kiloohm():
    v1 = johnson_rms_voltage(1000.0, T_EFF, BW)
    v9 = johnson_rms_voltage(9000.0, T_EFF, BW)
    assert v9 == pytest.approx(3.0 * v1, rel=1e-12)
    assert v9 == pytest.approx(3.0007, abs=1.5e-3)


def test_johnson_rms_vanishes_at_zero_temperature_limit():
    assert johnson_rms_voltage(1.0, 1e-30, BW) < 1e-12


@pytest.mark.parametrize("args", [(-1, T_EFF, BW), (1000, 0, BW), (1000, T_EFF, -5)])
def test_johnson_rms_rejects_non_positive_arguments(args):
    with pytest.raises(ValueError):
        johnson_rms_voltage(*args)


def _synth(target_rms=1.0, duration_s=10.0, seed=42, fs=2000.0, bw=BW):
    """One synthesized row."""
    return synth_band_limited_gaussian([seed], target_rms, round(duration_s * fs), fs, bw)[0]


def test_batched_synthesis_matches_one_row_reference():
    """Each row equals its own default_rng + irfft, whatever its neighbours and scale."""
    n, fs, bw = 200, 2000.0, 250.0
    seeds = np.array([3, 2**63 + 5, 7, 3], dtype=np.uint64)
    target = [1.0, 2.5e-5, 3.0, 1e-3]
    rows = synth_band_limited_gaussian(seeds, target, n, fs, bw)
    freqs = np.arange(n // 2 + 1) * (fs / n)
    mask = (freqs > 0) & (freqs <= bw)
    n_bins = int(mask.sum())
    for row, seed, rms_v in zip(rows, seeds.tolist(), target):
        rng = np.random.default_rng(seed)
        z = np.zeros(mask.size, dtype=np.complex128)
        z[mask] = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        expected = np.fft.irfft(z * (rms_v * n / (2.0 * math.sqrt(n_bins))), n)
        assert np.array_equal(row, expected)
    assert np.array_equal(synth_band_limited_gaussian(seeds[:1], 1.0, n, fs, bw)[0], rows[0])


def test_one_row_of_scales_per_level_equals_one_call_per_level():
    """Scales of shape (L, k) or (L, 1) give (L, k, n): level l equals a call with its row alone."""
    n, fs, bw = 200, 2000.0, 250.0
    seeds = np.array([11, 2**64 - 1, 12], dtype=np.uint64)
    for scales in ([[1.0], [2.5e-5], [3.0]], [[1.0, 2.0, 3.0], [1e-3, 1e-4, 1e-5]]):
        rows = synth_band_limited_gaussian(seeds, scales, n, fs, bw)
        assert rows.shape == (len(scales), len(seeds), n)
        for got, level in zip(rows, scales):
            want = synth_band_limited_gaussian(seeds, level if len(level) > 1 else level[0], n, fs, bw)
            assert np.array_equal(got, want)


def test_synth_rms_and_moments_at_long_duration():
    x = _synth()
    assert 0.98 <= math.sqrt(np.mean(x**2)) <= 1.02
    # independent moment estimates
    m2 = np.mean(x**2)
    skew = np.mean(x**3) / m2**1.5
    ex_kurt = np.mean(x**4) / m2**2 - 3.0
    assert abs(skew) < 0.1
    assert abs(ex_kurt) < 0.1
    assert abs(np.mean(x)) < 0.01


def test_synth_deterministic_given_seed():
    a = _synth()
    b = _synth()
    assert np.array_equal(a, b)
    c = _synth(seed=43)
    assert not np.array_equal(a, c)


def test_synth_scaling_linearity():
    base = _synth(target_rms=0.5, duration_s=1.0)
    scaled = _synth(target_rms=1.7, duration_s=1.0)
    np.testing.assert_allclose(scaled, (1.7 / 0.5) * base, rtol=1e-12)


def test_synth_rejects_bad_specs():
    # the band must hold at least one FFT bin; the config checks the rest
    with pytest.raises(ConfigError, match="no FFT bin"):
        synth_band_limited_gaussian([1], 1.0, 4, 2000.0, 250.0)
    with pytest.raises(ConfigError):
        harness.SimConfig(sample_rate_hz=900.0)  # below 4x bandwidth
    with pytest.raises(ConfigError):
        harness.SimConfig(tau_s=0.10001)  # non-integer sample count
    with pytest.raises(ConfigError):
        harness.SimConfig(tau_s=-1.0)


def test_independent_seeds_have_small_cross_correlation():
    duration = 10.0
    bound = 4.0 / math.sqrt(2.0 * BW * duration)
    for seed in (7, 8, 9, 10):
        a, b = synth_band_limited_gaussian([seed, seed + 1000], 1.0, 20000, 2000.0, BW)
        rho = np.mean(a * b) / (np.std(a) * np.std(b))
        assert abs(rho) < bound


def test_psd_flat_in_band_and_attenuated_above():
    scipy_signal = pytest.importorskip("scipy.signal")
    freqs, psd = scipy_signal.welch(_synth(duration_s=100.0, seed=5), fs=2000.0, nperseg=1024)
    res = freqs[1] - freqs[0]
    in_band = (freqs > 2 * res) & (freqs < BW - 2 * res)
    ref = np.median(psd[in_band])
    ripple_db = 10.0 * np.log10(psd[in_band] / ref)
    assert np.all(np.abs(ripple_db) <= 1.0)
    at_double = (freqs > 2 * BW - 10) & (freqs < 2 * BW + 10)
    atten_db = 10.0 * np.log10(psd[at_double] / ref)
    assert np.all(atten_db <= -40.0)


def test_expected_mean_square_is_analytic_not_renormalized():
    # many short segments: per-segment RMS fluctuates, the average mean square
    # converges on the target, which per-segment renormalization would destroy
    msqs = np.mean(synth_band_limited_gaussian(range(300), 1.0, 200, 2000.0, BW) ** 2, axis=-1)
    spread = np.std(msqs)
    assert spread > 0.05  # natural chi-square fluctuation is present
    assert np.mean(msqs) == pytest.approx(1.0, abs=5 * spread / math.sqrt(300))


@given(scale=st.floats(0.1, 50.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_synth_rms_scales_exactly(scale, seed):
    a = _synth(target_rms=1.0, duration_s=0.5, seed=seed)
    b = _synth(target_rms=scale, duration_s=0.5, seed=seed)
    np.testing.assert_allclose(b, scale * a, rtol=1e-9, atol=1e-12 * scale)
