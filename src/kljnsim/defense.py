"""Detection of the injection attack by instantaneous current comparison.

Ideal wire: the two end currents are one and the same loop current, so any
difference is injected. Practical cable: the capacitive leak makes the ends
differ naturally, so the parties instead feed the publicly exchanged end
voltages into an accurate cable model and compare the simulated end currents
with the measured ones; a residual above a pre-agreed threshold discards the
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CableModel,
    ChannelSignals,
    Ideal,
    LoopConfig,
    SignConvention,
    model_for_variant,
    transient_solver,
)
from .exceptions import ConfigError
from .noise import Waveform


@dataclass(frozen=True)
class DetectionConfig:
    threshold: float
    consecutive_samples: int = 1
    calibration_rms: float | None = None

    def __post_init__(self):
        if self.threshold <= 0:
            raise ConfigError("threshold must be positive")
        if self.consecutive_samples < 1:
            raise ConfigError("consecutive_samples must be >= 1")


@dataclass
class DetectionVerdict:
    attacked: bool
    first_detection_sample: int | None
    max_residual: float
    residual_trace: Waveform

    def __post_init__(self):
        if self.attacked != (self.first_detection_sample is not None):
            raise ValueError("attacked verdict must match detection index presence")

    @property
    def latency_fraction(self) -> float | None:
        """First firing sample as a fraction of the period (None if clean)."""
        if self.first_detection_sample is None:
            return None
        return self.first_detection_sample / len(self.residual_trace)


def _first_run_end(above: np.ndarray, run: int) -> int | None:
    """Index at which `run` consecutive True values complete, or None."""
    total = np.concatenate(([0], np.cumsum(above, dtype=np.int64)))
    hits = np.flatnonzero(total[run:] - total[:-run] == run)
    return int(hits[0]) + run - 1 if hits.size else None


def detect_residuals(
    residuals: list[np.ndarray], cfg: DetectionConfig, fs: float
) -> DetectionVerdict:
    """Threshold test over one or more residual traces; earliest firing wins."""
    first = None
    max_res = 0.0
    for r in residuals:
        max_res = max(max_res, float(np.max(np.abs(r))))
        idx = _first_run_end(np.abs(r) > cfg.threshold, cfg.consecutive_samples)
        if idx is not None and (first is None or idx < first):
            first = idx
    return DetectionVerdict(
        attacked=first is not None,
        first_detection_sample=first,
        max_residual=max_res,
        residual_trace=Waveform(residuals[0], fs),
    )


def compare_instantaneous_ideal(
    i_cha: Waveform, i_chb: Waveform, cfg: DetectionConfig
) -> DetectionVerdict:
    """Ideal-system check: the residual i_cha - i_chb is the injected current.

    Inputs must be in the Loop convention, where the unattacked ends agree
    exactly.
    """
    i_cha.require_compatible(i_chb)
    residual = i_cha.samples - i_chb.samples
    return detect_residuals([residual], cfg, i_cha.sample_rate_hz)


def simulate_expected_currents(
    model: CableModel,
    cfg: LoopConfig,
    u_cha: Waveform,
    u_chb: Waveform,
) -> tuple[Waveform, Waveform]:
    """Currents the cable alone would draw given the measured end voltages.

    This is the in-site cable simulation: the channel's own ladder assembly,
    driven by the exchanged voltage data, with no injection source. Returned
    in the Loop convention, directly comparable with the measured currents.
    """
    if isinstance(cfg.variant, Ideal):
        raise ConfigError("the ideal variant has no cable model to simulate")
    u_cha.require_compatible(u_chb)
    fs = u_cha.sample_rate_hz
    solver = transient_solver(model, None, 1.0 / fs)
    y = solver.solve(np.vstack([u_cha.samples, u_chb.samples])[None])[0]
    return Waveform(y[0], fs), Waveform(y[1], fs)


def residual_rows(
    measured: np.ndarray,
    cfg: LoopConfig,
    fs: float,
    model: CableModel | None = None,
) -> np.ndarray:
    """Measured minus expected end currents for a batch sharing one loop configuration.

    `measured` holds (i_cha, i_chb, u_cha, u_chb) rows in the Loop
    convention, shape (B, 4, t); the result holds Alice's and Bob's residual
    rows, shape (B, 2, t). Ideal wire: both ends carry one loop current, so
    Alice's residual is i_cha - i_chb (the injected current) and Bob's is
    zero. Cable: each end's measured current minus the in-site simulation of
    all B rows at once, driven by the measured end voltages; `model` is the
    parties' cable model (default: the channel's).
    """
    if isinstance(cfg.variant, Ideal):
        residuals = np.zeros((measured.shape[0], 2, measured.shape[2]))
        residuals[:, 0] = measured[:, 0] - measured[:, 1]
        return residuals
    if model is None:
        model = model_for_variant(cfg.variant)
    expected = transient_solver(model, None, 1.0 / fs).solve(measured[:, 2:])
    return measured[:, :2] - expected


def end_residuals(
    measured: ChannelSignals,
    cfg: LoopConfig,
    model: CableModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's residual for one exchange: `residual_rows` on a batch of one."""
    m = measured.to_convention(SignConvention.LOOP)
    rows = np.stack([w.samples for w in (m.i_cha, m.i_chb, m.u_cha, m.u_chb)])
    res_a, res_b = residual_rows(rows[None], cfg, m.i_cha.sample_rate_hz, model)[0]
    return res_a, res_b


# Calibrated thresholds never drop below this fraction of the channel current:
# an exact defense model leaves only solver roundoff (~1e-16 relative) in the
# no-attack residuals, and a threshold keyed to that noise would ride its
# spiky tail. 1e-9 sits orders above accumulated roundoff yet six orders
# below the smallest injection level of interest.
NUMERICAL_FLOOR_FRACTION = 1e-9


def calibrate_threshold(
    no_attack_residuals: list[Waveform] | list[np.ndarray],
    multiplier: float = 5.0,
    consecutive_samples: int = 1,
    reference_rms: float | None = None,
) -> DetectionConfig:
    """Threshold from pooled no-attack residual RMS times a safety multiplier.

    `reference_rms` (the clean channel current RMS) enables the numerical
    noise-floor guard. An all-zero pool without a reference yields the
    smallest positive float, i.e. a threshold of essentially zero that any
    real injection exceeds.
    """
    if multiplier <= 0:
        raise ConfigError("multiplier must be positive")
    if len(no_attack_residuals) == 0:
        raise ValueError("calibration requires at least one residual trace")
    pooled = np.concatenate(
        [r.samples if isinstance(r, Waveform) else np.asarray(r) for r in no_attack_residuals]
    )
    residual_rms = math.sqrt(float(np.mean(np.square(pooled))))
    threshold = multiplier * residual_rms
    if reference_rms is not None:
        threshold = max(threshold, NUMERICAL_FLOOR_FRACTION * reference_rms)
    if threshold == 0.0:
        threshold = np.finfo(np.float64).tiny
    return DetectionConfig(
        threshold=threshold,
        consecutive_samples=consecutive_samples,
        calibration_rms=residual_rms,
    )
