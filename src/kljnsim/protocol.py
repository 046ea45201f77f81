"""Alice's and Bob's side of the key exchange.

Each bit-exchange period: both parties pick a resistor at random, attach the
matching thermal-noise generator, measure the channel voltage and current at
their own end, and work out which resistor the partner connected from the
known noise temperature. Mixed pairs (one low, one high) are the secure ones;
matching pairs are discarded.

Resistor identification combines the mean-square current and mean-square
voltage in a two-hypothesis likelihood test. Either measurement alone
identifies the loop, but at small time-bandwidth product the current is only
informative to the party holding the low resistor and the voltage to the one
holding the high resistor, so using both keeps the bit error rate negligible
at the default period of 25 band cycles.

Exchanges are simulated k at a time as arrays: `choices` holds each
exchange's (Alice, Bob) resistances, shape (k, 2), as `harness` drew them,
and every signal is a (k, ..., t) array of sample rows: the generator rows,
Eve's injected rows and the parties' decisions on the solved rows' mean
squares. How a chunk's rows become the columns of the cable scans is
`harness`'s layout (`_pair_rows`).
"""
from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

import numpy as np

from .attack import reference_rms_channel_current
from .exceptions import InferenceError
from .noise import K_BOLTZMANN, johnson_rms_voltage, synth_band_limited_gaussian

if TYPE_CHECKING:  # pragma: no cover
    from .harness import SimConfig


class BitClass(enum.Enum):
    """A secure exchange's (Alice, Bob) resistors, low-high or high-low: key bit 0 or 1."""

    SECURE_LH = "secure_lh"
    SECURE_HL = "secure_hl"


def likelihood_scales(four_ktb: float, own_r: float, cand: float) -> tuple[float, float]:
    """Expected mean-square end current and voltage when `own_r` faces `cand`."""
    return four_ktb / (own_r + cand), four_ktb * (own_r * cand / (own_r + cand))


def decide_remote_resistor(
    msq_u: np.ndarray,
    msq_i: np.ndarray,
    own_r: np.ndarray,
    r_l: float,
    r_h: float,
    t_eff: float,
    bandwidth_hz: float,
) -> np.ndarray:
    """Pick each row's partner resistor by joint likelihood over both measurements.

    The mean-square voltage and current are independent chi-square statistics
    whose expected levels under each candidate follow from the loop (series)
    and parallel resistance of the hypothesised pair. The log-likelihood of a
    scaled chi-square reduces to -(m/s + ln s) per measurement up to common
    factors, so scoring both and taking the larger sum is the exact
    two-hypothesis test; Low wins unless High scores strictly higher.
    `msq_u` and `msq_i` are one end's mean-square voltage and current per
    row, shape (..., k) (`mean_squares`), and `own_r` that end's
    resistances, shape (k,); returns the (..., k) remote resistances.
    """
    if np.any(msq_i <= 0.0) or np.any(msq_u <= 0.0):
        raise InferenceError("degenerate channel measurement")
    four_ktb = 4.0 * K_BOLTZMANN * t_eff * bandwidth_hz
    own_r = np.broadcast_to(own_r, msq_u.shape)
    remote = np.empty(msq_u.shape)
    for own in set(own_r.ravel().tolist()):
        rows = own_r == own
        # math.log on the scalar scales: np.log may round them differently
        low, high = (
            -(msq_i[rows] / s_i + math.log(s_i)) - (msq_u[rows] / s_u + math.log(s_u))
            for s_i, s_u in (likelihood_scales(four_ktb, own, cand) for cand in (r_l, r_h))
        )
        remote[rows] = np.where(high > low, r_h, r_l)
    return remote


def mean_squares(y: np.ndarray) -> np.ndarray:
    """Mean square of each solved row over its samples: (..., 4, t) rows give (..., 4).

    One signal at a time, so that the squares take a quarter of `y`'s memory.
    """
    msq = [np.mean(np.square(y[..., r, :]), axis=-1) for r in range(y.shape[-2])]
    return np.stack(msq, axis=-1)


def generator_rows(cfg: "SimConfig", choices: np.ndarray, noise_seeds: np.ndarray) -> np.ndarray:
    """Alice's and Bob's generator rows of k exchanges, shape (k, 2, t).

    Each party's generator is scaled to the thermal RMS of its resistor; one
    synthesis call makes all 2k rows from the first two noise seeds of each
    exchange.
    """
    k, t = len(choices), cfg.samples_per_bit
    fs, bw = cfg.sample_rate_hz, cfg.bandwidth_hz
    flat = choices.ravel().tolist()
    rms = {r: johnson_rms_voltage(r, cfg.t_eff, bw) for r in set(flat)}
    return synth_band_limited_gaussian(
        noise_seeds[:, :2].ravel(), [rms[r] for r in flat], t, fs, bw
    ).reshape(k, 2, t)


def injection_rows(cfg: "SimConfig", eve_seeds: np.ndarray, levels) -> np.ndarray:
    """Eve's injected current at L levels for k exchanges from their noise seeds, shape (L, k, t).

    `levels` holds each level's RMS as a fraction of the nominal secure-state
    loop current, and one synthesis call makes the rows of every level in the
    channel's band.
    """
    ref = reference_rms_channel_current(cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz)
    return synth_band_limited_gaussian(
        eve_seeds, [[level * ref] for level in levels], cfg.samples_per_bit,
        cfg.sample_rate_hz, cfg.bandwidth_hz,
    )

