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
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import circuit
from .exceptions import ConfigError, InferenceError
from .noise import (
    K_BOLTZMANN,
    NoiseSpec,
    Waveform,
    johnson_rms_voltage,
    synth_band_limited_gaussian,
)

if TYPE_CHECKING:  # pragma: no cover
    from .attack import InjectionSpec
    from .harness import SimConfig


class BitLevel(enum.Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class ResistorChoice:
    level: BitLevel
    resistance: float

    def __post_init__(self):
        if self.resistance <= 0:
            raise ConfigError("resistance must be positive")


class BitClass(enum.Enum):
    SECURE_LH = "secure_lh"
    SECURE_HL = "secure_hl"
    DISCARD_HH = "discard_hh"
    DISCARD_LL = "discard_ll"

    @property
    def is_secure(self) -> bool:
        return self in (BitClass.SECURE_LH, BitClass.SECURE_HL)

    @property
    def key_bit(self) -> int:
        """Shared key bit for a secure exchange: LH -> 0, HL -> 1."""
        if not self.is_secure:
            raise ValueError(f"{self} carries no key bit")
        return 0 if self is BitClass.SECURE_LH else 1


@dataclass
class BitStreams:
    """Independent random streams owned by one exchange period."""

    alice_choice: np.random.Generator
    bob_choice: np.random.Generator
    alice_noise_seed: int
    bob_noise_seed: int
    eve_noise_seed: int
    eve_coin: np.random.Generator


@dataclass
class BitExchangeRecord:
    index: int
    alice_choice: ResistorChoice
    bob_choice: ResistorChoice
    loop_cfg: circuit.LoopConfig
    u_a: Waveform
    u_b: Waveform
    signals: circuit.ChannelSignals
    injected: Waveform | None
    classification: BitClass
    alice_inferred_remote: float
    bob_inferred_remote: float


def select_bit(rng: np.random.Generator, r_l: float, r_h: float) -> ResistorChoice:
    """Draw Low or High with equal probability from the caller's stream."""
    if rng.integers(0, 2) == 0:
        return ResistorChoice(BitLevel.LOW, r_l)
    return ResistorChoice(BitLevel.HIGH, r_h)


def classify_bit_pair(alice: ResistorChoice, bob: ResistorChoice) -> BitClass:
    if alice.level is BitLevel.LOW:
        return BitClass.SECURE_LH if bob.level is BitLevel.HIGH else BitClass.DISCARD_LL
    return BitClass.DISCARD_HH if bob.level is BitLevel.HIGH else BitClass.SECURE_HL


def _mean_square(w: Waveform) -> float:
    return float(np.mean(np.square(w.samples)))


def decide_remote_resistor(
    u_ch: Waveform,
    i_ch: Waveform,
    own_r: float,
    r_l: float,
    r_h: float,
    t_eff: float,
    bandwidth_hz: float,
) -> ResistorChoice:
    """Pick the partner's resistor by joint likelihood over both measurements.

    The mean-square voltage and current are independent chi-square statistics
    whose expected levels under each candidate follow from the loop (series)
    and parallel resistance of the hypothesised pair. The log-likelihood of a
    scaled chi-square reduces to -(m/s + ln s) per measurement up to common
    factors, so scoring both and taking the larger sum is the exact
    two-hypothesis test.
    """
    msq_u = _mean_square(u_ch)
    msq_i = _mean_square(i_ch)
    if msq_i <= 0.0 or msq_u <= 0.0:
        raise InferenceError("degenerate channel measurement")
    four_ktb = 4.0 * K_BOLTZMANN * t_eff * bandwidth_hz
    best_level, best_score = None, -math.inf
    for level, cand in ((BitLevel.LOW, r_l), (BitLevel.HIGH, r_h)):
        s_i = four_ktb / (own_r + cand)
        s_u = four_ktb * (own_r * cand / (own_r + cand))
        score = -(msq_i / s_i + math.log(s_i)) - (msq_u / s_u + math.log(s_u))
        if score > best_score:
            best_level, best_score = level, score
    return ResistorChoice(best_level, r_l if best_level is BitLevel.LOW else r_h)


def choices_for_bit(cfg: "SimConfig", streams: BitStreams):
    """Both parties' resistor picks for one exchange (draws two stream values)."""
    if cfg.selection_mode == "fixed_lh":
        return (
            ResistorChoice(BitLevel.LOW, cfg.r_l),
            ResistorChoice(BitLevel.HIGH, cfg.r_h),
        )
    return (
        select_bit(streams.alice_choice, cfg.r_l, cfg.r_h),
        select_bit(streams.bob_choice, cfg.r_l, cfg.r_h),
    )


def _generator(cfg: "SimConfig", choice: ResistorChoice, seed: int) -> Waveform:
    """Thermal-noise voltage of one party's chosen resistor over the period."""
    return synth_band_limited_gaussian(
        NoiseSpec(
            bandwidth_hz=cfg.bandwidth_hz,
            sample_rate_hz=cfg.sample_rate_hz,
            duration_s=cfg.tau_s,
            target_rms=johnson_rms_voltage(choice.resistance, cfg.t_eff, cfg.bandwidth_hz),
            seed=seed,
        )
    )


def exchange_drive(
    cfg: "SimConfig",
    streams: BitStreams,
    choices: tuple[ResistorChoice, ResistorChoice],
    attack: "InjectionSpec | None" = None,
) -> tuple[circuit.LoopConfig, Waveform, Waveform, Waveform | None]:
    """Loop configuration and drive waveforms (u_a, u_b, i_inj) of one exchange.

    `choices` is the (alice, bob) pair the caller drew from `streams` with
    `choices_for_bit`. Each party's generator is scaled to the thermal RMS of
    its resistor and synthesized from the bit's own noise seed, Alice's
    first. The optional injected current is synthesized last, at the
    requested fraction of the nominal secure-state loop current.
    """
    from .attack import reference_rms_channel_current, synth_injection

    alice, bob = choices
    u_a = _generator(cfg, alice, streams.alice_noise_seed)
    u_b = _generator(cfg, bob, streams.bob_noise_seed)
    injected = None
    if attack is not None:
        ref = reference_rms_channel_current(
            cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz
        )
        injected = synth_injection(
            attack,
            ref,
            cfg.sample_rate_hz,
            cfg.tau_s,
            seed_override=streams.eve_noise_seed,
        )
    loop_cfg = circuit.LoopConfig(
        r_alice=alice.resistance,
        r_bob=bob.resistance,
        variant=cfg.variant,
        injection_position=cfg.injection_position,
    )
    return loop_cfg, u_a, u_b, injected


# Rows per batched loop solve. A solve holds its (t, BATCH, m) state
# trajectory at once, so this bounds its memory.
BATCH = 16


def loop_batches(loop_cfgs: list[circuit.LoopConfig], size: int = BATCH):
    """Positions of the exchanges that share a loop configuration, at most `size` at a time.

    Yields (loop_cfg, positions) with configurations in order of first
    appearance and positions ascending within each.
    """
    groups: dict[circuit.LoopConfig, list[int]] = {}
    for pos, loop_cfg in enumerate(loop_cfgs):
        groups.setdefault(loop_cfg, []).append(pos)
    for loop_cfg, positions in groups.items():
        for start in range(0, len(positions), size):
            yield loop_cfg, positions[start : start + size]


def run_exchanges(
    cfg: "SimConfig",
    exchanges: list[tuple[int, BitStreams, tuple[ResistorChoice, ResistorChoice]]],
    attack: "InjectionSpec | None" = None,
) -> list[BitExchangeRecord]:
    """Simulate exchange periods and both parties' inferences, one record each.

    `exchanges` holds (bit_index, streams, choices) per exchange. The drive
    waveforms are synthesized exchange by exchange (`exchange_drive`); the
    loop is then solved in batches of equal loop configuration
    (`loop_batches`), and each party decides on its own end's signals.
    """
    drives = [exchange_drive(cfg, streams, choices, attack) for _, streams, choices in exchanges]
    fs = cfg.sample_rate_hz
    signals = [None] * len(drives)
    for loop_cfg, positions in loop_batches([d[0] for d in drives]):
        u = np.stack([circuit.input_rows(*drives[pos][1:]) for pos in positions])
        for pos, y in zip(positions, circuit.solve_rows(u, loop_cfg, 1.0 / fs)):
            signals[pos] = circuit.ChannelSignals.from_rows(y, fs)
    records = []
    for (index, _, (alice, bob)), (loop_cfg, u_a, u_b, injected), sig in zip(
        exchanges, drives, signals
    ):
        alice_guess = decide_remote_resistor(
            sig.u_cha, sig.i_cha, alice.resistance,
            cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz,
        )
        bob_guess = decide_remote_resistor(
            sig.u_chb, sig.i_chb, bob.resistance,
            cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz,
        )
        records.append(
            BitExchangeRecord(
                index=index,
                alice_choice=alice,
                bob_choice=bob,
                loop_cfg=loop_cfg,
                u_a=u_a,
                u_b=u_b,
                signals=sig,
                injected=injected,
                classification=classify_bit_pair(alice, bob),
                alice_inferred_remote=alice_guess.resistance,
                bob_inferred_remote=bob_guess.resistance,
            )
        )
    return records


def run_bit_exchange(
    cfg: "SimConfig",
    bit_index: int,
    streams: BitStreams,
    choices: tuple[ResistorChoice, ResistorChoice],
    attack: "InjectionSpec | None" = None,
) -> BitExchangeRecord:
    """Simulate one full exchange period: `run_exchanges` on a batch of one."""
    return run_exchanges(cfg, [(bit_index, streams, choices)], attack)[0]
