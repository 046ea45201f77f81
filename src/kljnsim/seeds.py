"""numpy's SeedSequence and PCG64 seeding as uint32 arithmetic over arrays of rows.

The seed scheme is numpy's own: stream s of exchange i is
`default_rng(SeedSequence(entropy=(master_seed, i, s)))`, and each noise row
draws from `default_rng(seed)`. Building one SeedSequence and one generator
per stream costs about 15 us; the hashing behind them is a fixed sequence of
uint32 multiplies, xors and shifts, so this module runs it over whole arrays
of rows at once and returns the same words numpy would:

- `stream_seeds`: `SeedSequence(...).generate_state(1, np.uint64)`;
- `stream_bits`: `default_rng(SeedSequence(...)).integers(0, 2)`;
- `pcg64_states`: the (state, inc) that `PCG64(seed)` starts from.

It follows numpy's `SeedSequence.mix_entropy` and `generate_state`
(pool size 4) and PCG64's `pcg_setseq_128_srandom_r` and XSL-RR output.
Each entropy value is coerced as SeedSequence does, to its little-endian
uint32 words (one word for 0), so rows are grouped by their word count.
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
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341

_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)


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


def _hashmix_constants():
    """(xor, multiplier) of each successive hashmix call: the hash constant's sequence."""
    h = _INIT_A
    while True:
        x, h = h, (h * _MULT_A) & _MASK32
        yield np.uint32(x), np.uint32(h)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's entropy pool of each row: entropy (L, k) uint32 words -> 4 (k,) arrays."""
    constants = _hashmix_constants()

    def hashmix(value):
        x, m = next(constants)
        value = (value ^ x) * m
        return value ^ (value >> _XSHIFT)

    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(entropy=row).generate_state(n_words)` per row, shape (n_words, k) uint32.

    `entropy` holds k rows of L uint32 words each, shape (L, k). Two uint32
    words (2j, 2j + 1) form uint64 word j, low word first.
    """
    pool = _pool(np.asarray(entropy, dtype=np.uint32))
    out = np.empty((n_words, entropy.shape[1]), dtype=np.uint32)
    h = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        value *= np.uint32(h)
        out[i] = value ^ (value >> _XSHIFT)
    return out


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
# 128-bit values are lists of four uint64 arrays, each holding one 32-bit limb,
# least significant first.


def _add128(a, b):
    out, carry = [], 0
    for x, y in zip(a, b):
        s = x + y + carry
        out.append(s & _LOW32)
        carry = s >> _U32
    return out


_MULT_LIMBS = [np.uint64((_PCG64_MULT >> (32 * j)) & _MASK32) for j in range(4)]


def _mul128_mult(a):
    """a x PCG64's multiplier, mod 2**128."""
    out, carry = [], 0
    for k in range(4):
        acc = carry
        for i in range(k + 1):
            acc = acc + ((a[i] * _MULT_LIMBS[k - i]) & _LOW32)
        for i in range(k):  # high halves of the products one limb down
            acc = acc + ((a[i] * _MULT_LIMBS[k - 1 - i]) >> _U32)
        out.append(acc & _LOW32)
        carry = acc >> _U32
    return out


def _pcg64_seeded(words: np.ndarray):
    """PCG64's (state, inc) after seeding from generate_state(4, np.uint64), as 128-bit limbs.

    words: (8, k) uint32. seed = (w0..w3), inc seed = (w4..w7); each 128-bit
    value is uint64 word 0 as its high half and uint64 word 1 as its low one.
    """
    w = list(words.astype(np.uint64))
    initstate = [w[2], w[3], w[0], w[1]]
    one = np.uint64(1)
    inc = [
        ((w[6] << one) | one) & _LOW32,
        ((w[7] << one) | (w[6] >> np.uint64(31))) & _LOW32,
        ((w[4] << one) | (w[7] >> np.uint64(31))) & _LOW32,
        ((w[5] << one) | (w[4] >> np.uint64(31))) & _LOW32,
    ]
    # srandom: state = 0; step; state += initstate; step
    state = _add128(_mul128_mult(_add128(inc, initstate)), inc)
    return state, inc


def stream_bits(master_seed: int, index, streams) -> np.ndarray:
    """`default_rng(SeedSequence(entropy=(master_seed, i, s))).integers(0, 2)`, shape (k, S) uint8.

    integers(0, 2) is the top bit of the low 32-bit half of PCG64's first
    output: Lemire's bounded draw on range 2 with a zero rejection threshold.
    """
    words = stream_words(master_seed, index, streams, 8)
    state, inc = _pcg64_seeded(words.reshape(8, -1))
    s = _add128(_mul128_mult(state), inc)  # step, then the XSL-RR output of the new state
    xored = (s[0] ^ s[2]) | ((s[1] ^ s[3]) << _U32)
    rot = s[3] >> np.uint64(26)
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return ((out >> np.uint64(31)) & np.uint64(1)).astype(np.uint8).reshape(words.shape[1:])


def _as_ints(limbs) -> list[int]:
    """128-bit limbs -> one Python int per row."""
    high = (limbs[2] | (limbs[3] << _U32)).tolist()
    low = (limbs[0] | (limbs[1] << _U32)).tolist()
    return [(h << 64) | lo for h, lo in zip(high, low)]


def pcg64_states(seeds) -> list[dict]:
    """The bit generator state of `PCG64(seed)` for each seed, as `PCG64.state` dicts."""
    seeds = np.asarray(seeds)
    states = [None] * seeds.size
    for rows, words in _grouped_words(seeds):
        state, inc = (_as_ints(x) for x in _pcg64_seeded(generate_state(words, 8)))
        for row, s, i in zip(rows.tolist(), state, inc):
            states[row] = {
                "bit_generator": "PCG64",
                "state": {"state": s, "inc": i},
                "has_uint32": 0,
                "uinteger": 0,
            }
    return states
