"""numpy's SeedSequence and PCG64 seeding as integer arithmetic over arrays of rows.

The seed scheme is numpy's own: stream s of exchange i is
`default_rng(SeedSequence(entropy=(master_seed, i, s)))`, and each noise row
draws from `default_rng(seed)`. Building one SeedSequence and one generator
per stream costs about 15 us; the hashing behind them is a fixed sequence of
uint32 multiplies, xors and shifts, so this module runs it over whole arrays
of rows at once, a few array operations per call, and returns the same words
numpy would:

- `stream_seeds`: `SeedSequence(...).generate_state(1, np.uint64)`;
- `stream_bits`: `default_rng(SeedSequence(...)).integers(0, 2)`;
- `pcg64_state_ints`: the (state, inc) that `PCG64(seed)` starts from.

It follows numpy's `SeedSequence.mix_entropy` and `generate_state`
(pool size 4) and PCG64's `pcg_setseq_128_srandom_r` and XSL-RR output.
Each entropy value is coerced as SeedSequence does, to its little-endian
uint32 words (one word for 0), so rows are grouped by their word count.
SeedSequence's pool is one (4, k) uint32 array, and PCG64's 128-bit values
are (high, low) pairs of uint64 arrays, whose wraparound is mod 2**64.
tests/test_seeds.py checks every function against numpy itself.
"""
from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MULT_HIGH, _MULT_LOW = np.uint64(2549297995355413924), np.uint64(4865540595714422341)

_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)
_MULT_LOW0, _MULT_LOW1 = _MULT_LOW & _LOW32, _MULT_LOW >> _U32


def _int_words(value: int) -> list[int]:
    """A non-negative integer's uint32 words, least significant first, as SeedSequence
    coerces it."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"expected an integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _grouped_words(values):
    """Group non-negative integers by their uint32 word count.

    Yields (rows, words): the positions of the values with L words and
    those words, shape (L, len(rows)), least significant first.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu" and values.dtype.itemsize <= 8:
        if values.dtype.kind == "i" and np.any(values < 0):
            raise ValueError("expected non-negative integer")
        v = values.astype(np.uint64).ravel()
        low, high = (v & _LOW32).astype(np.uint32), (v >> _U32).astype(np.uint32)
        wide = high != 0
        for n_words, rows in ((1, np.flatnonzero(~wide)), (2, np.flatnonzero(wide))):
            if rows.size:
                yield rows, np.stack([low[rows], high[rows]][:n_words])
        return
    groups: dict[int, list[int]] = {}
    words = [_int_words(v) for v in values.ravel().tolist()]
    for row, w in enumerate(words):
        groups.setdefault(len(w), []).append(row)
    for rows in groups.values():
        yield np.array(rows), np.array([words[r] for r in rows], dtype=np.uint32).T


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """A hash constant's first n values, read-only. Hash call j xors value j and
    multiplies by value j + 1."""
    h = np.empty(n, dtype=np.uint32)
    for j in range(n):
        h[j], init = init, (init * mult) & _MASK32
    h.flags.writeable = False
    return h


# enough for entropy of up to 16 words and for generate_state of up to 64 words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * 16 + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 64 + 1)
# the pool words that each source word mixes into, in order
_OTHERS = tuple(np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE))


def _hashmix(value: np.ndarray, h: np.ndarray, j: int, n: int) -> np.ndarray:
    """Hash calls j .. j + n - 1, one per row of the result, on value (k,) or (n, k)."""
    value = value ^ h[j : j + n, None]
    value *= h[j + 1 : j + n + 1, None]
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's entropy pool of each row: entropy (L, k) uint32 words -> (4, k)."""
    n_calls = _POOL_SIZE * max(len(entropy), _POOL_SIZE)
    h = _HASH_A if n_calls < len(_HASH_A) else _hash_constants(_INIT_A, _MULT_A, n_calls + 1)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, h, 0, _POOL_SIZE)
    j = _POOL_SIZE
    for src, others in enumerate(_OTHERS):  # one source word's three mixes are independent
        pool[others] = _mix(pool[others], _hashmix(pool[src], h, j, _POOL_SIZE - 1))
        j += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, h, j, _POOL_SIZE))
        j += _POOL_SIZE
    return pool


def generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(entropy=row).generate_state(n_words)` per row, shape (n_words, k) uint32.

    `entropy` holds k rows of L uint32 words each, shape (L, k). Two uint32
    words (2j, 2j + 1) form uint64 word j, low word first.
    """
    pool = _pool(np.asarray(entropy, dtype=np.uint32))
    h = _HASH_B if n_words < len(_HASH_B) else _hash_constants(_INIT_B, _MULT_B, n_words + 1)
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], h, 0, n_words)


def stream_words(master_seed: int, index, streams, n_words: int) -> np.ndarray:
    """generate_state(n_words) of SeedSequence(entropy=(master_seed, i, s)) for each index i
    and stream id s (each below 2**32), shape (n_words, len(index), len(streams)) uint32."""
    master = _int_words(master_seed)
    out = np.empty((n_words, len(index), len(streams)), dtype=np.uint32)
    for rows, words in _grouped_words(index):
        entropy = np.empty((len(master) + len(words) + 1, len(rows), len(streams)), np.uint32)
        entropy[: len(master)] = np.array(master, dtype=np.uint32)[:, None, None]
        entropy[len(master) : -1] = words[:, :, None]
        entropy[-1] = np.array(streams, dtype=np.uint32)
        out[:, rows] = generate_state(entropy.reshape(len(entropy), -1), n_words).reshape(
            n_words, len(rows), len(streams)
        )
    return out


def stream_seeds(master_seed: int, index, streams) -> np.ndarray:
    """`SeedSequence(entropy=(master_seed, i, s)).generate_state(1, np.uint64)[0]`, shape (k, S)."""
    low, high = stream_words(master_seed, index, streams, 2).astype(np.uint64)
    return low | (high << _U32)


# --- PCG64 --------------------------------------------------------------------
# 128-bit values are (high, low) pairs of uint64 arrays.


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _mul128_mult(a):
    """a x PCG64's multiplier, mod 2**128."""
    high, low = a
    # the high word of low x _MULT_LOW, from 32-bit limbs
    low0, low1 = low & _LOW32, low >> _U32
    p00, p01, p10 = low0 * _MULT_LOW0, low0 * _MULT_LOW1, low1 * _MULT_LOW0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = low1 * _MULT_LOW1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return carry + high * _MULT_LOW + low * _MULT_HIGH, low * _MULT_LOW


def _pcg64_seeded(words: np.ndarray):
    """PCG64's (state, inc) after seeding from generate_state(4, np.uint64), as 128-bit pairs.

    words: (8, k) uint32, uint64 word j = (words[2j], words[2j + 1]), low
    first. seed = (word 0, word 1) and inc seed = (word 2, word 3), high
    word first.
    """
    w = words.astype(np.uint64)
    w = w[0::2] | (w[1::2] << _U32)
    one = np.uint64(1)
    inc = ((w[2] << one) | (w[3] >> np.uint64(63)), (w[3] << one) | one)
    # srandom: state = 0; step; state += initstate; step
    state = _add128(_mul128_mult(_add128(inc, (w[0], w[1]))), inc)
    return state, inc


def stream_bits(master_seed: int, index, streams) -> np.ndarray:
    """`default_rng(SeedSequence(entropy=(master_seed, i, s))).integers(0, 2)`, shape (k, S) uint8.

    integers(0, 2) is the top bit of the low 32-bit half of PCG64's first
    output: Lemire's bounded draw on range 2 with a zero rejection threshold.
    """
    words = stream_words(master_seed, index, streams, 8)
    state, inc = _pcg64_seeded(words.reshape(8, -1))
    high, low = _add128(_mul128_mult(state), inc)  # step, then the XSL-RR output of the new state
    # bit 31 of (high ^ low) rotated right by the top six bits of high
    shift = ((high >> np.uint64(58)) + np.uint64(31)) & np.uint64(63)
    bits = ((high ^ low) >> shift) & np.uint64(1)
    return bits.astype(np.uint8).reshape(words.shape[1:])


def _as_ints(value) -> list[int]:
    """A 128-bit (high, low) pair -> one Python int per row."""
    return [(h << 64) | lo for h, lo in zip(value[0].tolist(), value[1].tolist())]


def pcg64_state_ints(seeds) -> tuple[list[int], list[int]]:
    """The 128-bit state and increment that `PCG64(seed)` starts from, for each seed, as two
    lists of Python ints."""
    seeds = np.asarray(seeds)
    out = np.empty((4, seeds.size), dtype=np.uint64)  # state high, low, inc high, low
    for rows, words in _grouped_words(seeds):
        state, inc = _pcg64_seeded(generate_state(words, 8))
        out[:, rows] = state + inc
    return _as_ints(out[:2]), _as_ints(out[2:])

