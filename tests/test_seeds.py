"""The vectorized seed hashing against numpy's own SeedSequence and PCG64."""
import sys
import threading

import numpy as np
import pytest

from kljnsim import seeds
from kljnsim.noise import synth_band_limited_gaussian

MASTER_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**33 + 5, 2**64 + 3)
STREAMS = tuple(range(6))
# index arrays as the runs pass them (int64), with mixed word counts, uint64 up to 2**64 - 1,
# and Python ints past 64 bits: 6 master seeds x 6 streams x 567 indices = 20 412 triples
INDEX_ARRAYS = (
    np.arange(550),
    np.array([5, 2**32 + 1, 7, 2**32 - 1, 2**32], dtype=np.int64),
    np.array([2**32 - 2, 2**32 + 2, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
    np.array([2**64, 3, 2**64 + 1, 2**96, 2**64 - 1, 0, 2**32], dtype=object),
)
ROW_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1] + np.random.default_rng(9).integers(
    0, 2**64, 40, dtype=np.uint64, endpoint=False
).tolist()


def _seq(master_seed, index, stream):
    return np.random.SeedSequence(entropy=(master_seed, index, stream))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_stream_seeds_and_bits_match_numpy(master_seed):
    n_triples = 0
    for index in INDEX_ARRAYS:
        got_seeds = seeds.stream_seeds(master_seed, index, STREAMS)
        got_bits = seeds.stream_bits(master_seed, index, STREAMS)
        assert got_seeds.dtype == np.uint64 and got_seeds.shape == (len(index), len(STREAMS))
        assert got_bits.dtype == np.uint8 and got_bits.shape == got_seeds.shape
        want_seeds, want_bits = np.empty_like(got_seeds), np.empty_like(got_bits)
        for row, i in enumerate(index.tolist()):
            for col, stream in enumerate(STREAMS):
                seq = _seq(master_seed, i, stream)
                want_seeds[row, col] = seq.generate_state(1, np.uint64)[0]
                want_bits[row, col] = np.random.default_rng(seq).integers(0, 2)
        assert np.array_equal(got_seeds, want_seeds)
        assert np.array_equal(got_bits, want_bits)
        n_triples += want_bits.size
    assert n_triples * len(MASTER_SEEDS) >= 20_000


def test_generate_state_matches_numpy_for_every_entropy_length():
    """Entropy shorter than, equal to and longer than the pool of four words."""
    rng = np.random.default_rng(4)
    for n_words in range(1, 9):
        entropy = rng.integers(0, 2**32, (n_words, 30), dtype=np.uint32)
        got = seeds.generate_state(entropy, 9)
        for row, column in zip(got.T, entropy.T):
            want = np.random.SeedSequence(entropy=[int(w) for w in column]).generate_state(9)
            assert np.array_equal(row, want)


def test_generate_state_matches_numpy_past_the_pool_and_the_constant_tables():
    """Every entropy length up to 12 words, then past the precomputed hash constants (16
    entropy words, 64 output words), where they are computed per call."""
    rng = np.random.default_rng(5)
    for n_words, n_out in [(n, 9) for n in range(1, 13)] + [(16, 64), (17, 65), (24, 70)]:
        entropy = rng.integers(0, 2**32, (n_words, 12), dtype=np.uint32)
        got = seeds.generate_state(entropy, n_out)
        assert got.dtype == np.uint32 and got.shape == (n_out, 12)
        for row, column in zip(got.T, entropy.T):
            want = np.random.SeedSequence(entropy=[int(w) for w in column]).generate_state(n_out)
            assert np.array_equal(row, want)


def _pair128(values):
    """Python ints below 2**128 as a (high, low) pair of uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & (2**64 - 1) for v in values], dtype=np.uint64),
    )


def test_128_bit_add_and_multiply_match_python_ints():
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1]
    # carry chains: a low word that overflows into a high word of all ones, and back to zero
    edges += [2**128 - 2**64, 2**64 + 2**32 - 1, 2**96 - 1, 2**127, 2**127 + 2**63]
    words = np.random.default_rng(12).integers(0, 2**64, (1000, 2), dtype=np.uint64)
    randoms = [(int(h) << 64) | int(lo) for h, lo in words]
    a = [x for x in edges for _ in edges] + randoms
    b = [y for _ in edges for y in edges] + randoms[::-1]
    got = seeds._as_ints(seeds._add128(_pair128(a), _pair128(b)))
    assert got == [(x + y) % 2**128 for x, y in zip(a, b)]
    mult = (int(seeds._MULT_HIGH) << 64) | int(seeds._MULT_LOW)
    assert mult == 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
    assert seeds._as_ints(seeds._mul128_mult(_pair128(a))) == [x * mult % 2**128 for x in a]


def test_single_values_and_empty_index_arrays():
    assert seeds.stream_bits(12345, [7], (0, 1))[0].tolist() == [
        np.random.default_rng(_seq(12345, 7, s)).integers(0, 2) for s in (0, 1)
    ]
    assert seeds.stream_seeds(3, np.arange(0), (2, 3)).shape == (0, 2)
    assert seeds.stream_bits(3, np.arange(0), (5,)).shape == (0, 1)


def test_negative_entropy_is_rejected_like_numpy():
    for master, index in ((-1, np.arange(3)), (0, np.array([4, -2])), (0, np.array([-(2**70)]))):
        with pytest.raises(ValueError, match="non-negative"):
            seeds.stream_seeds(master, index, (2,))


def pcg64_states(seeds_) -> list[dict]:
    """The bit generator state of `PCG64(seed)` for each seed, as `PCG64.state` dicts."""
    return [
        {"bit_generator": "PCG64", "state": {"state": s, "inc": i}, "has_uint32": 0, "uinteger": 0}
        for s, i in zip(*seeds.pcg64_state_ints(seeds_))
    ]


def test_pcg64_states_and_normals_match_default_rng():
    for dtype in (np.uint64, object):
        states = pcg64_states(np.array(ROW_SEEDS, dtype=dtype))
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for seed, state in zip(ROW_SEEDS, states):
            reference = np.random.default_rng(seed)
            assert state == reference.bit_generator.state
            bit_generator.state = state
            assert np.array_equal(rng.standard_normal(25), reference.standard_normal(25))
    assert pcg64_states([2**70])[0] == np.random.PCG64(2**70).state


def _rows_the_plain_way(seeds_, scale, n, fs, bw):
    """Each row's spectrum as re + 1j * im on the band mask, then z * scale, one row at a time."""
    mask = np.arange(n // 2 + 1) * (fs / n)
    mask = (mask > 0) & (mask <= bw)
    n_bins = int(mask.sum())
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (len(seeds_),))
    rows = []
    for seed, s in zip(seeds_, scale):
        rng = np.random.default_rng(seed)
        z = np.zeros(mask.size, dtype=np.complex128)
        z[mask] = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        rows.append(np.fft.irfft(z * (s * n / (2.0 * np.sqrt(n_bins))), n))
    return np.array(rows)


def test_synthesis_rows_match_default_rng_rows():
    n, fs, bw = 100, 2000.0, 250.0
    rows = synth_band_limited_gaussian(np.array(ROW_SEEDS, dtype=np.uint64), 1.0, n, fs, bw)
    assert np.array_equal(rows, _rows_the_plain_way(ROW_SEEDS, 1.0, n, fs, bw))
    # the experiments' rows: t = 200 at 2 kHz in a 250 Hz band, per-row and per-level scales
    n = 200
    row_seeds = ROW_SEEDS + np.random.default_rng(10).integers(
        0, 2**64, 500, dtype=np.uint64, endpoint=False
    ).tolist()
    scales = np.random.default_rng(11).uniform(1e-9, 10.0, len(row_seeds))
    scales[:3] = (1.0, 3e-5, 2.5e-12)
    got = synth_band_limited_gaussian(np.array(row_seeds, dtype=np.uint64), scales, n, fs, bw)
    assert np.array_equal(got, _rows_the_plain_way(row_seeds, scales, n, fs, bw))
    levels = [[1e-3], [1e-2], [0.1]]
    got = synth_band_limited_gaussian(np.array(row_seeds, dtype=np.uint64), levels, n, fs, bw)
    assert got.shape == (len(levels), len(row_seeds), n)
    for rows, (level,) in zip(got, levels):
        assert np.array_equal(rows, _rows_the_plain_way(row_seeds, level, n, fs, bw))


def test_concurrent_synthesis_calls_match_sequential_ones():
    """Each call owns its generator: threads interleaving their rows do not mix streams."""
    n, fs, bw = 200, 2000.0, 250.0
    batches = [np.arange(k, k + 300, dtype=np.uint64) * np.uint64(2**33 + 1) for k in range(4)]
    sequential = [synth_band_limited_gaussian(b, 1.0, n, fs, bw) for b in batches]
    for _ in range(5):  # interleavings vary; a shared generator fails most rounds, not all
        results = [None] * len(batches)
        start = threading.Barrier(len(batches))

        def run(j):
            start.wait(timeout=60)
            results[j] = synth_band_limited_gaussian(batches[j], 1.0, n, fs, bw)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, sequential):
            assert np.array_equal(got, want)
