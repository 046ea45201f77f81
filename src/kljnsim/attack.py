"""Eve's current-injection attack.

Eve injects a known band-limited Gaussian current into the wire and
cross-correlates it with the currents she taps at the two ends: the current
divider sends the larger share of her injection toward the lower resistor, so
the end with the larger correlation holds it. The per-bit statistic is the
difference of the two raw product averages; its sign is her guess.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ShapeMismatchError
from .noise import K_BOLTZMANN


@dataclass(frozen=True)
class InjectionSpec:
    """Injected-current recipe: level as a fraction of the rms loop current.

    The experiments draw Eve's noise from each exchange's own stream, not
    from `seed`.
    """

    level_fraction: float
    bandwidth_hz: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.level_fraction < 1.0:
            raise ConfigError("level_fraction must lie strictly between 0 and 1")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")


def reference_rms_channel_current(
    r_l: float, r_h: float, t_eff: float, bandwidth_hz: float
) -> float:
    """RMS loop current of the secure (mixed-pair) state.

    This is the analytic reference the injection level is a fraction of, so a
    given percentage means the same current in every experiment cell.
    """
    if min(r_l, r_h, t_eff, bandwidth_hz) <= 0:
        raise ValueError("all arguments must be positive")
    return math.sqrt(4.0 * K_BOLTZMANN * t_eff * bandwidth_hz / (r_l + r_h))


def correlate(i_inj: np.ndarray, i_ch_end: np.ndarray) -> np.ndarray:
    """Raw product average of the injected current and one end current, per row.

    Both are sample rows of one period each, shape (k, t); returns (k,). The
    end current must be read from the injection node outward (Alice's end as
    solved, Bob's end negated) so that the injected share enters with
    positive sign at both ends.
    """
    if i_inj.shape != i_ch_end.shape:
        raise ShapeMismatchError(f"sample rows differ: {i_inj.shape} vs {i_ch_end.shape}")
    return np.mean(i_inj * i_ch_end, axis=-1)


def eve_decide(rho_a: np.ndarray, rho_b: np.ndarray, tie_coin) -> np.ndarray:
    """Eve's key bit per row from the correlator difference.

    Positive difference: more of the injection flowed toward Alice, i.e.
    Alice holds the low resistor (LH, key bit 0); negative: HL, key bit 1.
    Zero differences take `tie_coin(rows)`, which gets the array of those
    rows, is called only if there are any, and returns a fair 0/1 draw per
    row.
    """
    rho = rho_a - rho_b
    bits = (rho < 0).astype(np.uint8)
    ties = np.flatnonzero(rho == 0)
    if ties.size:
        bits[ties] = tie_coin(ties)
    return bits


def success_probability(q: np.ndarray) -> tuple[float, float]:
    """Mean of the per-bit success indicators and its binomial standard error."""
    q = np.asarray(q, dtype=np.float64)
    if q.size == 0:
        raise ValueError("success probability over zero bits is undefined")
    p = float(q.mean())
    return p, math.sqrt(p * (1.0 - p) / q.size)


def analytic_ideal_success_probability(
    level_fraction: float,
    r_l: float,
    r_h: float,
    bandwidth_hz: float,
    tau_s: float,
) -> float:
    """Closed-form success probability for the ideal wire, validated by Monte Carlo.

    Derivation sketch: in the divider convention the correlator difference has
    expectation d * eps^2 * s^2 with d = (r_h - r_l)/(r_h + r_l), eps the
    injection fraction and s the rms loop current. Its fluctuation is
    dominated by the cross term between the injection and the loop noise
    current, which averages 2*B*tau independent products of variance
    (eps*s^2)^2 each, entering once per end. The success probability is then
    Phi(d * eps * sqrt(2*B*tau) / 2), accurate for eps well below 1.
    """
    if not 0.0 <= level_fraction < 1.0:
        raise ValueError("level_fraction must lie in [0, 1)")
    if min(r_l, r_h, bandwidth_hz, tau_s) <= 0:
        raise ValueError("resistances, bandwidth and tau must be positive")
    d = (r_h - r_l) / (r_h + r_l)
    z = d * level_fraction * math.sqrt(2.0 * bandwidth_hz * tau_s) / 2.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
