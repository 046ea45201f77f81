"""Honest-party protocol: selection, classification, resistance inference."""

import numpy as np
import pytest
from dataclasses import replace

from kljnsim import harness, protocol
from kljnsim.exceptions import ConfigError, InferenceError
from kljnsim.noise import K_BOLTZMANN
from kljnsim.protocol import (
    BitClass,
    BitLevel,
    ResistorChoice,
    classify_bit_pair,
    decide_remote_resistor,
    select_bit,
)

T_EFF = 7.25e16
BW = 250.0
R_L, R_H = 1000.0, 9000.0


def test_select_bit_is_balanced():
    rng = np.random.default_rng(100)
    draws = np.array(
        [select_bit(rng, R_L, R_H).level is BitLevel.LOW for _ in range(100_000)]
    )
    # binomial oracle: 3 sigma ~ 0.0047 at this count
    assert 0.49 <= draws.mean() <= 0.51


def test_select_bit_reproducible():
    a = [select_bit(np.random.default_rng(7), R_L, R_H).level for _ in range(1)]
    b = [select_bit(np.random.default_rng(7), R_L, R_H).level for _ in range(1)]
    assert a == b
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    seq1 = [select_bit(rng1, R_L, R_H).level for _ in range(200)]
    seq2 = [select_bit(rng2, R_L, R_H).level for _ in range(200)]
    assert seq1 == seq2


def test_select_bit_streams_uncorrelated():
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(12)
    n = 100_000
    a = np.array([select_bit(rng_a, R_L, R_H).level is BitLevel.LOW for _ in range(n)])
    b = np.array([select_bit(rng_b, R_L, R_H).level is BitLevel.LOW for _ in range(n)])
    x, y = 2.0 * a - 1.0, 2.0 * b - 1.0
    assert abs(np.mean(x * y)) < 0.01


@pytest.mark.parametrize(
    "a_level,b_level,expected",
    [
        (BitLevel.LOW, BitLevel.HIGH, BitClass.SECURE_LH),
        (BitLevel.HIGH, BitLevel.LOW, BitClass.SECURE_HL),
        (BitLevel.LOW, BitLevel.LOW, BitClass.DISCARD_LL),
        (BitLevel.HIGH, BitLevel.HIGH, BitClass.DISCARD_HH),
    ],
)
def test_classify_bit_pair(a_level, b_level, expected):
    a = ResistorChoice(a_level, R_L if a_level is BitLevel.LOW else R_H)
    b = ResistorChoice(b_level, R_L if b_level is BitLevel.LOW else R_H)
    assert classify_bit_pair(a, b) is expected


def test_key_bit_mapping():
    assert BitClass.SECURE_LH.key_bit == 0
    assert BitClass.SECURE_HL.key_bit == 1
    with pytest.raises(ValueError):
        _ = BitClass.DISCARD_HH.key_bit


def _run(cfg, i, attack=None):
    streams = harness.derive_bit_streams(cfg.master_seed, i)
    exchange = (i, streams, protocol.choices_for_bit(cfg, streams))
    return protocol.run_exchanges(cfg, [exchange], attack)[0]


def test_full_bit_inference_snaps_to_true_partner():
    cfg = harness.SimConfig(n_bits=10, selection_mode="fixed_lh", master_seed=901)
    records = [_run(cfg, i) for i in range(4000)]
    # literal snap of the current-only estimate from the low side:
    # <i^2> = 4kTB / (R_L + R_remote), so R_remote = 4kTB / <i^2> - R_L
    four_ktb = 4.0 * K_BOLTZMANN * T_EFF * BW
    low_side_ok = 0
    both_ok = 0
    for rec in records:
        est = four_ktb / float(np.mean(np.square(rec.y[0]))) - R_L  # Alice's end current
        if abs(est - R_H) < abs(est - R_L):
            low_side_ok += 1
        if rec.alice_inferred_remote == R_H and rec.bob_inferred_remote == R_L:
            both_ok += 1
    assert low_side_ok / len(records) >= 0.99
    assert both_ok / len(records) >= 0.99


def test_inference_robust_under_attack():
    from kljnsim.attack import InjectionSpec

    cfg = harness.SimConfig(n_bits=10, selection_mode="fixed_lh", master_seed=902)
    spec = InjectionSpec(0.1, BW, cfg.master_seed)
    errors_clean = errors_attacked = 0
    n = 2000
    for i in range(n):
        clean = _run(cfg, i)
        attacked = _run(cfg, i, spec)
        errors_clean += clean.alice_inferred_remote != R_H or clean.bob_inferred_remote != R_L
        errors_attacked += (
            attacked.alice_inferred_remote != R_H or attacked.bob_inferred_remote != R_L
        )
    assert abs(errors_attacked - errors_clean) / n < 0.01


def test_zero_duration_is_a_config_error():
    with pytest.raises(ConfigError):
        harness.SimConfig(tau_s=0.0)


def test_discard_rate_near_half():
    cfg = harness.SimConfig()
    n = 10_000
    discards = 0
    for i in range(n):
        streams = harness.derive_bit_streams(cfg.master_seed, i)
        alice, bob = protocol.choices_for_bit(cfg, streams)
        discards += not classify_bit_pair(alice, bob).is_secure
    assert 0.485 <= discards / n <= 0.515


def test_fixed_mode_pins_arrangement():
    cfg = harness.SimConfig(selection_mode="fixed_lh")
    for i in range(20):
        streams = harness.derive_bit_streams(cfg.master_seed, i)
        alice, bob = protocol.choices_for_bit(cfg, streams)
        assert alice.level is BitLevel.LOW and bob.level is BitLevel.HIGH


def test_decide_remote_resistor_rejects_degenerate():
    with pytest.raises(InferenceError):
        decide_remote_resistor(np.zeros(200), np.zeros(200), 1000.0, R_L, R_H, T_EFF, BW)
