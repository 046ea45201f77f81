"""Band-limited Gaussian noise synthesis with thermal-noise amplitude scaling.

Every signal in the simulator (generator voltages, injected current) is a row
of samples produced here, a whole batch of rows per call. Synthesis works in
the frequency domain: independent complex Gaussian amplitudes on every FFT bin
inside the band, zero outside, inverse transform, analytic scaling to the
requested RMS. That gives an exact brick-wall band limit and bit-for-bit
reproducibility from each row's seed.
"""
from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError
from .seeds import pcg64_state_ints

K_BOLTZMANN = 1.380649e-23  # J/K


def johnson_rms_voltage(resistance: float, t_eff: float, bandwidth_hz: float) -> float:
    """RMS of the thermal-noise voltage generator for a resistor.

    sqrt(4 k T R B) with k the Boltzmann constant; T is the publicly agreed
    effective temperature, far above any physical one.
    """
    if resistance <= 0 or t_eff <= 0 or bandwidth_hz <= 0:
        raise ValueError("resistance, t_eff and bandwidth_hz must all be positive")
    return math.sqrt(4.0 * K_BOLTZMANN * t_eff * resistance * bandwidth_hz)


def _band_bin_mask(n: int, sample_rate_hz: float, bandwidth_hz: float) -> np.ndarray:
    freqs = np.arange(n // 2 + 1) * (sample_rate_hz / n)
    return (freqs > 0) & (freqs <= bandwidth_hz)


def synth_band_limited_gaussian(
    seeds, target_rms, n: int, sample_rate_hz: float, bandwidth_hz: float
) -> np.ndarray:
    """Zero-mean Gaussian rows of n samples, flat from DC to the band edge, shape (k, n).

    Row j draws its bin amplitudes as `default_rng(seeds[j])` would, real
    parts first, and is scaled to `target_rms` (a scalar or one value per
    row). The scale factor is analytic (expected mean square equals
    target_rms**2), so short rows keep their natural statistical RMS
    fluctuation instead of being renormalized per row. One inverse FFT
    transforms all rows.

    The spectra are built in place: the amplitudes are drawn into one
    (k, 2, n_bins) block, copied into the real and imaginary parts of the
    in-band bins 1 .. n_bins, and scaled there.

    A 2-D `target_rms`, one row of scales per level, shape (L, k) or (L, 1),
    gives L scaled copies of the rows, shape (L, k, n): the amplitudes are
    drawn once, each level is scaled into one shared scratch spectrum, and
    each level takes the one inverse FFT it would take alone.

    The rows share one PCG64 of this call, set to each row's seeded state
    in turn (`pcg64_state_ints`) through one state dict of the call; neither
    is shared across calls, so concurrent calls stay independent.
    """
    mask = _band_bin_mask(n, sample_rate_hz, bandwidth_hz)
    n_bins = int(mask.sum())
    if n_bins == 0:
        raise ConfigError(
            "no FFT bin falls inside the band: n / sample_rate_hz x bandwidth_hz must be >= 1"
        )
    states, incs = pcg64_state_ints(seeds)
    parts = np.empty((len(states), 2, n_bins))  # each row's real parts, then imaginary parts
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    seeded = {"state": 0, "inc": 0}  # one state dict, refilled per row
    state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    for row, s, inc in zip(parts, states, incs):
        seeded["state"], seeded["inc"] = s, inc
        bit_generator.state = state
        rng.standard_normal(out=row)
    z = np.zeros((len(states), mask.size), dtype=np.complex128)
    z.real[:, 1 : n_bins + 1] = parts[:, 0]  # the in-band bins are 1 .. n_bins
    z.imag[:, 1 : n_bins + 1] = parts[:, 1]
    # var(x_j) = 4 s^2 n_bins / n^2 for unit-variance bin parts scaled by s
    scale = np.asarray(target_rms, dtype=np.float64) * n / (2.0 * math.sqrt(n_bins))
    if scale.ndim < 2:
        z *= np.reshape(scale, (-1, 1))
        return np.fft.irfft(z, n)
    rows = np.empty((len(scale), len(states), n))
    scaled = np.empty_like(z)
    for out, level in zip(rows, scale):
        out[:] = np.fft.irfft(np.multiply(z, np.reshape(level, (-1, 1)), out=scaled), n)
    return rows
