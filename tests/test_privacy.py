"""XOR-pair privacy amplification: compression rules and leak reduction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.exceptions import ShapeMismatchError
from kljnsim.privacy import (
    KeyBits,
    eve_success_after_amplification,
    predicted_leak_after_xor,
    xor_compress,
)


def test_xor_compress_examples():
    out = xor_compress(KeyBits(np.array([1, 0, 1, 1])))
    assert list(out.bits) == [1, 0]
    zeros = xor_compress(KeyBits(np.zeros(64, dtype=np.uint8)))
    assert not np.any(zeros.bits)
    odd = xor_compress(KeyBits(np.array([1, 1, 0, 1, 1])))
    assert list(odd.bits) == [0, 1]  # fifth bit dropped


def test_xor_compress_needs_two_bits():
    with pytest.raises(ValueError):
        xor_compress(KeyBits(np.array([1])))


def test_keybits_validation():
    with pytest.raises(ValueError):
        KeyBits(np.array([]))
    with pytest.raises(ValueError):
        KeyBits(np.array([0, 2]))
    with pytest.raises(ValueError):
        KeyBits(np.array([[0, 1]]))


@given(st.lists(st.integers(0, 1), min_size=2, max_size=400))
@settings(max_examples=60, deadline=None)
def test_xor_compress_length_and_content(bits):
    key = KeyBits(np.array(bits, dtype=np.uint8))
    out = xor_compress(key)
    assert len(out) == len(bits) // 2
    # oracle: pairwise xor via explicit python loop
    expected = [bits[2 * j] ^ bits[2 * j + 1] for j in range(len(bits) // 2)]
    assert list(out.bits) == expected


def test_quarter_length_after_two_passes():
    key = KeyBits(np.ones(10000, dtype=np.uint8))
    once = xor_compress(key)
    twice = xor_compress(once)
    assert len(once) == 5000 and len(twice) == 2500


def _leak_oracle(p):
    # enumeration over the four outcomes of two independent guesses
    total = 0.0
    for a_ok in (0, 1):
        for b_ok in (0, 1):
            prob = (p if a_ok else 1 - p) * (p if b_ok else 1 - p)
            # xor of eve's bits equals xor of true bits iff both or neither wrong
            total += prob * (a_ok == b_ok)
    return total


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.613, 0.75, 1.0])
def test_predicted_leak_matches_enumeration_oracle(p):
    assert predicted_leak_after_xor(p) == pytest.approx(_leak_oracle(p), rel=1e-14)


def test_predicted_leak_reference_chain():
    first = predicted_leak_after_xor(0.613)
    assert first == pytest.approx(0.5256, abs=2e-4)
    second = predicted_leak_after_xor(first)
    assert second == pytest.approx(0.5013, abs=2e-4)


def test_predicted_leak_fixed_points_and_range():
    assert predicted_leak_after_xor(0.5) == 0.5
    assert predicted_leak_after_xor(1.0) == 1.0
    with pytest.raises(ValueError):
        predicted_leak_after_xor(1.2)


@given(st.floats(0.5001, 0.9999))
@settings(max_examples=80, deadline=None)
def test_monotone_contraction_toward_half(p):
    p_next = predicted_leak_after_xor(p)
    assert 0.5 < p_next < p


def test_repeated_application_converges_to_half():
    p = 0.9
    for _ in range(50):
        p = predicted_leak_after_xor(p)
    assert abs(p - 0.5) < 1e-6


def test_eve_success_equal_keys():
    key = KeyBits(np.random.default_rng(1).integers(0, 2, 4096))
    eve = KeyBits(key.bits.copy())
    for passes in (0, 1, 2):
        assert eve_success_after_amplification(key, eve, passes) == 1.0


def test_eve_success_independent_keys():
    rng = np.random.default_rng(2)
    n = 20000
    true = KeyBits(rng.integers(0, 2, n))
    eve = KeyBits(rng.integers(0, 2, n))
    p1 = eve_success_after_amplification(true, eve, 1)
    assert abs(p1 - 0.5) <= 0.015  # 3 sigma at the compressed length of 10^4


def test_eve_success_rejects_mismatched_lengths():
    with pytest.raises(ShapeMismatchError):
        eve_success_after_amplification(
            KeyBits(np.zeros(8, dtype=np.uint8)), KeyBits(np.zeros(6, dtype=np.uint8)), 1
        )
    with pytest.raises(ValueError):
        eve_success_after_amplification(
            KeyBits(np.zeros(8, dtype=np.uint8)), KeyBits(np.zeros(8, dtype=np.uint8)), -1
        )


def test_empirical_pass_matches_closed_form_on_grid():
    rng = np.random.default_rng(3)
    n = 1_000_000
    for p in np.arange(0.0, 1.01, 0.1):
        true = rng.integers(0, 2, n).astype(np.uint8)
        wrong = rng.random(n) >= p  # eve errs with probability 1-p
        eve = true ^ wrong.astype(np.uint8)
        t1 = xor_compress(KeyBits(true))
        e1 = xor_compress(KeyBits(eve))
        empirical = float(np.mean(t1.bits == e1.bits))
        expected = predicted_leak_after_xor(float(p))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / (n // 2))
        assert abs(empirical - expected) <= max(3 * sigma, 1e-9)
