"""Honest-party protocol: selection, classification, resistance inference."""

import math

import numpy as np
import pytest

from kljnsim import harness, protocol, seeds
from kljnsim.exceptions import ConfigError, InferenceError
from kljnsim.noise import K_BOLTZMANN
from kljnsim.protocol import decide_remote_resistor

T_EFF = 7.25e16
BW = 250.0
R_L, R_H = 1000.0, 9000.0
CHUNK = harness._CHUNK  # exchanges per array pass, each classified by one call


def _draw(master_seed, index, stream):
    """One 0/1 draw of the documented seed scheme, computed here independently."""
    seq = np.random.SeedSequence(entropy=(master_seed, index, stream))
    return int(np.random.default_rng(seq).integers(0, 2))


def _recount(master_seed, n):
    """Alice's and Bob's draws (1 holds r_h) at exchanges 0..n-1, from streams 0 and 1, shape (n, 2)."""
    return np.array([[_draw(master_seed, i, s) for s in (0, 1)] for i in range(n)])


def _classify(cfg, n_chunks):
    """`_classify_chunk` over the first n_chunks chunks: which exchanges are secure, and the
    secure arrays concatenated."""
    parts = [harness._classify_chunk(cfg, start) for start in range(0, n_chunks * CHUNK, CHUNK)]
    index, key_bits, choices = (np.concatenate(col) for col in zip(*parts))
    return np.isin(np.arange(n_chunks * CHUNK), index), index, key_bits, choices


@pytest.fixture(scope="module")
def choice_draws():
    """The choice draws at master seed 12345 over exchanges 0..99 999, shape (100 000, 2).

    Drawn as the runs draw them, one array call.
    """
    return harness._holds_r_h(harness.SimConfig(master_seed=12345), np.arange(100_000)).astype(int)


def test_select_bit_is_balanced(choice_draws):
    # binomial oracle: 3 sigma ~ 0.0047 at this count
    for stream in (0, 1):
        assert 0.49 <= np.mean(choice_draws[:, stream] == 0) <= 0.51


def test_select_bit_reproducible():
    a = [tuple(seeds.stream_bits(7, [i], (0, 1))[0].tolist()) for i in range(200)]
    b = [tuple(seeds.stream_bits(7, [i], (0, 1))[0].tolist()) for i in range(200)]
    assert a == b
    assert a == [(_draw(7, i, 0), _draw(7, i, 1)) for i in range(200)]
    assert {type(bit) for pair in a for bit in pair} == {int}


def test_select_bit_streams_uncorrelated(choice_draws):
    x, y = 2.0 * choice_draws[:, 0] - 1.0, 2.0 * choice_draws[:, 1] - 1.0
    assert abs(np.mean(x * y)) < 0.01


CLASSES = {"secure_lh": (0, 1), "secure_hl": (1, 0), "discard_ll": (0, 0), "discard_hh": (1, 1)}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_classify_chunk_per_class(name):
    cfg = harness.SimConfig(master_seed=604)
    draws = _recount(cfg.master_seed, 4 * CHUNK)
    secure, index, key_bits, choices = _classify(cfg, 4)
    alice_high, bob_high = CLASSES[name]
    members = np.flatnonzero((draws[:, 0] == alice_high) & (draws[:, 1] == bob_high))
    assert members.size > 0
    assert np.all(secure[members] == (alice_high != bob_high))
    rows = np.isin(index, members)
    if alice_high == bob_high:
        assert not rows.any()
    else:
        assert index[rows].tolist() == members.tolist()
        assert key_bits[rows].tolist() == [alice_high] * members.size
        resistance = {0: R_L, 1: R_H}
        assert choices[rows].tolist() == [[resistance[alice_high], resistance[bob_high]]] * members.size


def test_key_bit_mapping():
    cfg = harness.SimConfig(master_seed=605)
    draws = _recount(cfg.master_seed, 2 * CHUNK)
    secure, index, key_bits, choices = _classify(cfg, 2)
    assert secure.tolist() == (draws[:, 0] != draws[:, 1]).tolist()
    assert np.all(np.diff(index) > 0)
    # LH -> 0, HL -> 1: the key bit is 1 when Alice holds r_h
    assert key_bits.dtype == np.uint8
    assert key_bits.tolist() == draws[index, 0].tolist()
    assert key_bits.tolist() == (choices[:, 0] == R_H).tolist()
    assert set(map(tuple, choices.tolist())) == {(R_L, R_H), (R_H, R_L)}


def _run(cfg, n, attack=None):
    """Exchanges 0..n-1 at the fixed LH arrangement, as one batch."""
    index = np.arange(n)
    choices = np.tile([cfg.r_l, cfg.r_h], (n, 1))
    return protocol.run_exchanges(
        cfg, index, choices, harness._noise_seeds(cfg.master_seed, index), attack
    )


def test_full_bit_inference_snaps_to_true_partner():
    cfg = harness.SimConfig(n_bits=10, selection_mode="fixed_lh", master_seed=901)
    ex = _run(cfg, 4000)
    # literal snap of the current-only estimate from the low side:
    # <i^2> = 4kTB / (R_L + R_remote), so R_remote = 4kTB / <i^2> - R_L
    four_ktb = 4.0 * K_BOLTZMANN * T_EFF * BW
    est = four_ktb / np.mean(np.square(ex.y[:, 0]), axis=1) - R_L  # Alice's end current
    low_side_ok = np.count_nonzero(np.abs(est - R_H) < np.abs(est - R_L))
    both_ok = np.count_nonzero((ex.inferred[:, 0] == R_H) & (ex.inferred[:, 1] == R_L))
    assert low_side_ok / len(est) >= 0.99
    assert both_ok / len(est) >= 0.99


def test_inference_robust_under_attack():
    from kljnsim.attack import InjectionSpec

    cfg = harness.SimConfig(n_bits=10, selection_mode="fixed_lh", master_seed=902)
    spec = InjectionSpec(0.1, BW, cfg.master_seed)
    n = 2000
    errors_clean, errors_attacked = (
        np.count_nonzero((ex.inferred[:, 0] != R_H) | (ex.inferred[:, 1] != R_L))
        for ex in (_run(cfg, n), _run(cfg, n, spec))
    )
    assert abs(errors_attacked - errors_clean) / n < 0.01


def test_zero_duration_is_a_config_error():
    with pytest.raises(ConfigError):
        harness.SimConfig(tau_s=0.0)


def test_discard_rate_near_half():
    cfg = harness.SimConfig()
    n = 10_000
    secure = _classify(cfg, -(-n // CHUNK))[0][:n]
    draws = _recount(cfg.master_seed, n)
    assert secure.tolist() == (draws[:, 0] != draws[:, 1]).tolist()
    assert 0.485 <= 1.0 - np.mean(secure) <= 0.515


def test_fixed_mode_pins_arrangement(monkeypatch):
    def no_draws(*args):
        raise AssertionError("fixed_lh draws no choice streams")

    monkeypatch.setattr(seeds, "stream_bits", no_draws)
    cfg = harness.SimConfig(selection_mode="fixed_lh")
    for start in (0, CHUNK):
        index, key_bits, choices = harness._classify_chunk(cfg, start)
        assert index.tolist() == list(range(start, start + CHUNK))
        assert key_bits.tolist() == [0] * CHUNK
        assert choices.tolist() == [[R_L, R_H]] * CHUNK


def test_decide_remote_resistor_rejects_degenerate():
    msq = np.ones(3)
    msq[1] = 0.0
    for msq_u, msq_i in ((msq, np.ones(3)), (np.ones(3), msq)):
        with pytest.raises(InferenceError):
            decide_remote_resistor(msq_u, msq_i, np.full(3, R_L), R_L, R_H, T_EFF, BW)


def _reference_scores(u_ch, i_ch, own_r, candidates, t_eff, bandwidth_hz):
    """Likelihood score of each candidate for one row, in plain float arithmetic."""
    msq_u = float(np.mean(np.square(u_ch)))
    msq_i = float(np.mean(np.square(i_ch)))
    four_ktb = 4.0 * K_BOLTZMANN * t_eff * bandwidth_hz
    scores = []
    for cand in candidates:
        s_i = four_ktb / (own_r + cand)
        s_u = four_ktb * (own_r * cand / (own_r + cand))
        scores.append(-(msq_i / s_i + math.log(s_i)) - (msq_u / s_u + math.log(s_u)))
    return scores


def _decide_reference(u_ch, i_ch, own_r, r_l, r_h, t_eff, bandwidth_hz):
    """One row's remote resistor: the first candidate with the strictly highest score."""
    best, best_score = None, -math.inf
    scores = _reference_scores(u_ch, i_ch, own_r, (r_l, r_h), t_eff, bandwidth_hz)
    for cand, score in zip((r_l, r_h), scores):
        if score > best_score:
            best, best_score = cand, score
    return best


def test_decide_remote_resistor_matches_scalar_reference():
    rng = np.random.default_rng(31)
    four_ktb = 4.0 * K_BOLTZMANN * T_EFF * BW
    own = rng.choice([R_L, R_H], size=300)
    remote = rng.choice([R_L, R_H], size=300)
    # rows at each hypothesis' expected levels, so that both answers occur
    i_ch = rng.standard_normal((300, 200)) * np.sqrt(four_ktb / (own + remote))[:, None]
    s_u = four_ktb * own * remote / (own + remote)
    u_ch = rng.standard_normal((300, 200)) * np.sqrt(s_u)[:, None]
    msq_u, msq_i = (np.mean(np.square(rows), axis=-1) for rows in (u_ch, i_ch))
    got = decide_remote_resistor(msq_u, msq_i, own, R_L, R_H, T_EFF, BW)
    expected = [_decide_reference(*row, R_L, R_H, T_EFF, BW) for row in zip(u_ch, i_ch, own)]
    assert got.tolist() == expected
    assert set(expected) == {R_L, R_H}


def test_decide_remote_resistor_tie_goes_to_low():
    # At own_r = 2**60 the candidates 1 and 2 share one current scale (own_r + 1 and
    # own_r + 2 both round to own_r), so stepping the voltage level by ulps finds
    # a row whose two scores are exactly equal.
    own, r_l, r_h = 2.0**60, 1.0, 2.0
    four_ktb = 4.0 * K_BOLTZMANN * T_EFF * BW
    i_row = np.array([math.sqrt(four_ktb) * 2.0**-30])  # at the shared current scale
    level = math.sqrt(four_ktb * 2.0 * math.log(2.0))  # where the two voltage terms balance
    for k in range(-2000, 2000):
        u_row = np.array([level * (1.0 + k * 2.0**-52)])
        low, high = _reference_scores(u_row, i_row, own, (r_l, r_h), T_EFF, BW)
        if low == high:
            break
    else:
        pytest.fail("no exact tie found")
    assert _decide_reference(u_row, i_row, own, r_l, r_h, T_EFF, BW) == r_l
    msq_u, msq_i = (np.mean(np.square(row), axis=-1, keepdims=True) for row in (u_row, i_row))
    got = decide_remote_resistor(msq_u, msq_i, np.array([own]), r_l, r_h, T_EFF, BW)
    assert got.tolist() == [r_l]
