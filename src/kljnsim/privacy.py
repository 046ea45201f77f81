"""XOR-pair privacy amplification.

XOR-ing adjacent key bits halves the key and pushes an eavesdropper's per-bit
success probability toward 1/2: her compressed bit is right only when both
underlying guesses are right or both wrong, p' = p^2 + (1-p)^2 for
independent errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeMismatchError


@dataclass
class KeyBits:
    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size == 0:
            raise ValueError("a key must be a non-empty 1-d bit sequence")
        if np.any(self.bits > 1):
            raise ValueError("key bits must be 0 or 1")

    def __len__(self) -> int:
        return self.bits.size


def xor_compress(key: KeyBits) -> KeyBits:
    """XOR subsequent bit pairs; output has floor(n/2) bits, odd tail dropped."""
    n = len(key)
    if n < 2:
        raise ValueError("xor compression needs at least two bits")
    m = n // 2
    out = key.bits[: 2 * m : 2] ^ key.bits[1 : 2 * m : 2]
    return KeyBits(out)


def predicted_leak_after_xor(p: float) -> float:
    """Success probability after one XOR pass, assuming independent per-bit errors."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return p * p + (1.0 - p) * (1.0 - p)


def eve_success_after_amplification(
    true_key: KeyBits, eve_key: KeyBits, passes: int
) -> float:
    """Fraction of agreeing positions after compressing both keys `passes` times."""
    if len(true_key) != len(eve_key):
        raise ShapeMismatchError(
            f"key lengths differ: {len(true_key)} vs {len(eve_key)}"
        )
    if passes < 0:
        raise ValueError("passes must be non-negative")
    a, b = true_key, eve_key
    for _ in range(passes):
        a = xor_compress(a)
        b = xor_compress(b)
    return float(np.mean(a.bits == b.bits))
