"""Detection of the injection attack by instantaneous current comparison.

Ideal wire: the two end currents are one and the same loop current, so any
difference is injected. Practical cable: the capacitive leak makes the ends
differ naturally, so the parties instead feed the publicly exchanged end
voltages into their model of the cable, a wire variant like the channel's,
and compare the simulated end currents with the measured ones; a residual
above a pre-agreed threshold discards the bit.

`detect` works on arrays: residual rows of shape (..., n_traces, t), a whole
chunk of pairs, arms and ends at once, give each leading index its first
firing sample (-1 if none) and its peak |residual|, with no per-bit objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Ideal, Variant, loop_system, solve_systems
from .exceptions import ConfigError


@dataclass(frozen=True)
class DetectionConfig:
    threshold: float
    consecutive_samples: int = 1

    def __post_init__(self):
        if self.threshold <= 0:
            raise ConfigError("threshold must be positive")
        if self.consecutive_samples < 1:
            raise ConfigError("consecutive_samples must be >= 1")


def detect(residuals: np.ndarray, cfg: DetectionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Threshold test on residual rows of shape (..., n_traces, t), one verdict per leading index.

    A trace fires at the sample that completes `cfg.consecutive_samples`
    consecutive samples with |residual| strictly above the threshold. Returns
    each row's first firing sample, the earliest over its traces (-1 if none
    fires), and its peak |residual| over all traces, both of shape (...).
    """
    run, t = cfg.consecutive_samples, residuals.shape[-1]
    # + 0.0 turns a peak of -0.0 (all-zero traces) into 0.0
    peak = np.maximum(residuals.max(axis=-1), -residuals.min(axis=-1)).max(axis=-1) + 0.0
    if run > t:  # no trace is long enough to fire
        return np.full(peak.shape, -1), peak
    # sign tests rather than np.abs: no float copy of the rows
    above = residuals > cfg.threshold
    above |= residuals < -cfg.threshold
    # fires[..., j]: the `width` samples from j on are all above the threshold. Each
    # pass widens the window by up to its width, so reaching `run` takes log2(run)
    # passes, each with one boolean temporary.
    fires, width = above, 1
    while width < run:
        step = min(width, run - width)
        fires = fires[..., :-step] & fires[..., step:]
        width += step
    end = np.where(fires.any(axis=-1), fires.argmax(axis=-1) + run - 1, t).min(axis=-1)
    return np.where(end < t, end, -1), peak


def residual_rows(measured: np.ndarray, wire: Variant, fs: float) -> np.ndarray:
    """Measured minus expected end currents, the expected ones on the parties' `wire`.

    `measured` holds (i_cha, i_chb, u_cha, u_chb) rows in the Loop
    convention, shape (..., B, 4, t); the result holds Alice's and Bob's
    residual rows, shape (..., B, 2, t). Ideal wire: both ends carry one
    loop current, so Alice's residual is i_cha - i_chb (the injected current)
    and Bob's is zero. Cable: each end's measured current minus the in-site
    simulation, driven by the measured end voltages, of all rows as the
    columns of one system's scan, shape (N, 2, t): the simulation does not
    depend on the terminations.
    """
    shape = measured.shape[:-2] + (2, measured.shape[-1])
    if isinstance(wire, Ideal):
        residuals = np.zeros(shape)
        residuals[..., 0, :] = measured[..., 0, :] - measured[..., 1, :]
        return residuals
    system = loop_system(wire, None, 1.0 / fs)
    expected = solve_systems(system, measured[..., 2:, :].reshape(-1, 2, shape[-1])).reshape(shape)
    return np.subtract(measured[..., :2, :], expected, out=expected)


# Calibrated thresholds never drop below this fraction of the channel current:
# an exact defense model leaves only solver roundoff (~1e-16 relative) in the
# no-attack residuals, and a threshold keyed to that noise would ride its
# spiky tail. 1e-9 sits orders above accumulated roundoff yet six orders
# below the smallest injection level of interest.
NUMERICAL_FLOOR_FRACTION = 1e-9


def calibrate_threshold(
    no_attack_residuals: np.ndarray,
    multiplier: float = 5.0,
    consecutive_samples: int = 1,
    reference_rms: float | None = None,
) -> DetectionConfig:
    """Threshold from the pooled RMS of no-attack residual rows, of any shape, times a safety
    multiplier.

    `reference_rms` (the clean channel current RMS) enables the numerical
    noise-floor guard. An all-zero pool without a reference yields the
    smallest positive float, i.e. a threshold of essentially zero that any
    real injection exceeds.
    """
    if multiplier <= 0:
        raise ConfigError("multiplier must be positive")
    if np.size(no_attack_residuals) == 0:
        raise ValueError("calibration requires at least one residual sample")
    # one flat pool in row order, so the sum's pairwise rounding does not depend on the shape
    pooled = np.ravel(no_attack_residuals)
    residual_rms = math.sqrt(float(np.mean(np.square(pooled))))
    threshold = multiplier * residual_rms
    if reference_rms is not None:
        threshold = max(threshold, NUMERICAL_FLOOR_FRACTION * reference_rms)
    if threshold == 0.0:
        threshold = np.finfo(np.float64).tiny
    return DetectionConfig(threshold=threshold, consecutive_samples=consecutive_samples)
