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
and every signal is a (k, ..., t) array of sample rows.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import circuit
from .attack import reference_rms_channel_current
from .exceptions import InferenceError
from .noise import K_BOLTZMANN, johnson_rms_voltage, synth_band_limited_gaussian

if TYPE_CHECKING:  # pragma: no cover
    from .attack import InjectionSpec
    from .harness import SimConfig


class BitClass(enum.Enum):
    """A secure exchange's (Alice, Bob) resistors, low-high or high-low: key bit 0 or 1."""

    SECURE_LH = "secure_lh"
    SECURE_HL = "secure_hl"


@dataclass
class Exchanges:
    """k simulated exchange periods as arrays, in the order they were given."""

    index: np.ndarray  # exchange indices, shape (k,)
    choices: np.ndarray  # (Alice, Bob) resistances, shape (k, 2)
    u: np.ndarray  # drive rows (u_a, u_b, i_inj), shape (k, 3, t)
    y: np.ndarray  # solved rows (i_cha, i_chb, u_cha, u_chb), Loop convention, shape (k, 4, t)
    inferred: np.ndarray  # remote resistance inferred by (Alice, Bob), shape (k, 2)


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


def exchange_drives(
    cfg: "SimConfig",
    choices: np.ndarray,
    noise_seeds: np.ndarray,
    attack: "InjectionSpec | None" = None,
) -> np.ndarray:
    """Drive rows (u_a, u_b, i_inj) of k exchanges, shape (k, 3, t).

    `noise_seeds` holds each exchange's (Alice, Bob, Eve) noise seeds, shape
    (k, 3), or (k, 2) without an attack. The generator rows come from
    `generator_rows` and the injected current from `injection_rows`; without
    an attack those rows are zero.
    """
    u = np.zeros((len(choices), 3, cfg.samples_per_bit))
    u[:, :2] = generator_rows(cfg, choices, noise_seeds)
    if attack is not None:
        u[:, 2] = injection_rows(cfg, noise_seeds[:, 2], [attack])[0]
    return u


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


def injection_rows(
    cfg: "SimConfig", eve_seeds: np.ndarray, attacks: "list[InjectionSpec]"
) -> np.ndarray:
    """Eve's injected current at L levels for k exchanges from their noise seeds, shape (L, k, t).

    `attacks` holds one injection per level, all of one bandwidth. Each
    level's RMS is its fraction of the nominal secure-state loop current, and
    one synthesis call makes the rows of every level.
    """
    ref = reference_rms_channel_current(cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz)
    return synth_band_limited_gaussian(
        eve_seeds, [[a.level_fraction * ref] for a in attacks], cfg.samples_per_bit,
        cfg.sample_rate_hz, attacks[0].bandwidth_hz,
    )


# Rows per loop batch. A row's samples depend on how many rows share its
# (B, m) @ (m, m) step products, so this fixes every row's rounding. Solves
# stack whole batches (a grid's levels and ladder variants, a defense chunk's
# batches of equal size) and scan them in time blocks, so memory does not
# grow with it; one-state rows step elementwise, whatever their batch.
BATCH = 16

# Exchange indices per batch window: no loop batch holds exchanges of two
# windows, so the window, with BATCH, fixes every row's rounding, however many
# windows an array pass runs.
WINDOW = 128


def loop_batches(cfg: "SimConfig", index: np.ndarray, choices: np.ndarray, size: int = BATCH):
    """Positions of the exchanges that share a window and a loop configuration, at most `size`
    at a time.

    `index` holds the exchanges' indices, ascending. Yields (loop_cfg,
    positions) with (window, Alice, Bob) keys in order of first appearance
    and positions ascending within each.
    """
    groups: dict[tuple[int, float, float], list[int]] = {}
    for pos, key in enumerate(zip((np.asarray(index) // WINDOW).tolist(), *choices.T.tolist())):
        groups.setdefault(key, []).append(pos)
    for (_, r_a, r_b), positions in groups.items():
        loop_cfg = circuit.LoopConfig(r_a, r_b, cfg.variant, cfg.injection_position)
        for start in range(0, len(positions), size):
            yield loop_cfg, positions[start : start + size]


def run_exchanges(
    cfg: "SimConfig",
    index: np.ndarray,
    choices: np.ndarray,
    noise_seeds: np.ndarray,
    attack: "InjectionSpec | None" = None,
) -> Exchanges:
    """Simulate k exchange periods and both parties' inferences.

    The drive rows come from `exchange_drives`. The ideal wire solves them
    all at once, each row with its own terminations; a cable solves one
    `loop_batches` batch at a time. Each party decides on its own end's rows.
    """
    u = exchange_drives(cfg, choices, noise_seeds, attack)
    if isinstance(cfg.variant, circuit.Ideal):
        y = circuit.ideal_rows(u[:, 0], u[:, 1], u[:, 2], choices[:, :1], choices[:, 1:])
    else:
        y = np.empty((len(u), 4, cfg.samples_per_bit))
        for loop_cfg, positions in loop_batches(cfg, index, choices):
            y[positions] = circuit.solve_rows(u[positions], loop_cfg, 1.0 / cfg.sample_rate_hz)
    params = (cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz)
    msq = mean_squares(y)
    inferred = np.stack(
        [
            decide_remote_resistor(msq[:, 2], msq[:, 0], choices[:, 0], *params),
            decide_remote_resistor(msq[:, 3], msq[:, 1], choices[:, 1], *params),
        ],
        axis=1,
    )
    return Exchanges(index, choices, u, y, inferred)
