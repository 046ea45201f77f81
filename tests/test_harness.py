"""Harness: config parsing, reports, determinism, worker equivalence."""
import collections
import filecmp
import itertools
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kljnsim import attack, circuit, harness, protocol, seeds
from kljnsim.defense import DetectionConfig
from kljnsim.exceptions import ConfigError


def test_empty_config_gives_reference_defaults():
    cfg = harness.parse_config_text("")
    assert cfg == harness.SimConfig()
    assert cfg.r_l == 1000.0
    assert cfg.r_h == 9000.0
    assert cfg.t_eff == 7.25e16
    assert cfg.bandwidth_hz == 250.0
    assert cfg.tau_s == 0.1
    assert cfg.n_bits == 10000
    assert isinstance(cfg.variant, circuit.Ideal)
    assert cfg.injection is None


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="frobnicate"):
        harness.parse_config_text("frobnicate = 3\n")


def test_malformed_value_is_named():
    with pytest.raises(ConfigError, match="n_bits"):
        harness.parse_config_text("n_bits = lots\n")
    # non-finite floats parse in Python but must not reach the simulation
    for key, raw in (
        ("injection_level", "nan"),
        ("r_l", "nan"),
        ("r_h", "inf"),
        ("t_eff", "nan"),
        ("sample_rate_hz", "inf"),
        ("tau_s", "-inf"),
    ):
        with pytest.raises(ConfigError, match=key):
            harness.parse_config_text(f"{key} = {raw}\n")
    # and a config built in code meets the same check
    nan, inf = float("nan"), float("inf")
    for key, value in (
        ("r_l", nan),
        ("r_h", nan),
        ("t_eff", nan),
        ("bandwidth_hz", nan),
        ("detection_multiplier", nan),
        ("r_h", inf),
        ("t_eff", inf),
        ("detection_multiplier", inf),
        ("tau_s", nan),
        ("tau_s", inf),
        ("sample_rate_hz", nan),
        ("detection_threshold", nan),
        ("detection_threshold", inf),
        ("tau_s", 0.002),  # t = 4 at 2 kHz: its bins lie at 0, 500 and 1000 Hz, none in 250 Hz
    ):
        with pytest.raises(ConfigError, match=key):
            harness.SimConfig(**{key: value})


def test_negative_bit_count_is_named():
    with pytest.raises(ConfigError, match="n_bits"):
        harness.parse_config_text("n_bits = -1\n")


def test_comments_and_blank_lines_ignored():
    cfg = harness.parse_config_text(
        "# comment line\n\nn_bits = 17  # trailing comment\n"
    )
    assert cfg.n_bits == 17


def test_variant_parsing():
    cfg = harness.parse_config_text(
        "variant = cable\ncable_length_m = 100\nn_segments = 12\n"
    )
    assert cfg.variant == circuit.Cable(100.0, 12)
    cfg = harness.parse_config_text("variant = cable_killer\n")
    assert cfg.variant == circuit.CableWithKiller(1000.0, 10)
    with pytest.raises(ConfigError, match="variant"):
        harness.parse_config_text("variant = coax\n")


def test_injection_level_zero_means_no_attack():
    cfg = harness.parse_config_text("injection_level = 0\n")
    assert cfg.injection is None
    cfg = harness.parse_config_text("injection_level = 0.1\n")
    assert cfg.injection == attack.InjectionSpec(0.1, 250.0)
    with pytest.raises(ConfigError, match="injection_level"):
        harness.parse_config_text("injection_level = 1.5\n")


def test_config_round_trip(tmp_path):
    cfg = harness.parse_config_text(
        "variant = cable\ncable_length_m = 250\ninjection_level = 0.01\n"
        "n_bits = 123\nmaster_seed = 777\ndetection_threshold = 1e-6\n"
    )
    path = tmp_path / "roundtrip.cfg"
    path.write_text(harness.config_to_text(cfg))
    assert harness.parse_config(str(path)) == cfg


def test_default_round_trip():
    assert harness.parse_config_text(harness.config_to_text(harness.SimConfig())) == harness.SimConfig()


def test_config_echo_writes_the_cable_keys_only_for_a_cable():
    """The ideal wire has no length or segments: its echo leaves out the cable keys that its
    config file set, and still round-trips."""
    cfg = harness.parse_config_text("cable_length_m = 500\nn_segments = 3\n")
    text = harness.config_to_text(cfg)
    assert "variant = ideal\n" in text
    assert "cable_length_m" not in text and "n_segments" not in text
    assert harness.parse_config_text(text) == cfg
    for variant in (circuit.Cable(500.0, 3), circuit.CableWithKiller(500.0, 3)):
        text = harness.config_to_text(replace(cfg, variant=variant))
        assert "\ncable_length_m = 500.0\nn_segments = 3\n" in text
        assert harness.parse_config_text(text).variant == variant


def test_detection_threshold_key():
    cfg = harness.parse_config_text("detection_threshold = 2e-6\ndetection_consecutive = 3\n")
    assert (cfg.detection_threshold, cfg.detection_consecutive) == (2e-6, 3)
    for raw in ("0", "-1e-6", "None"):  # an absent key calibrates; there is no None
        with pytest.raises(ConfigError, match="detection_threshold"):
            harness.parse_config_text(f"detection_threshold = {raw}\n")


def test_a_fixed_threshold_is_run_and_echoed_with_its_consecutive_samples(tmp_path):
    """A config holds the detection setting once: a fixed threshold detects with the configured
    consecutive samples, the echo and its round trip keep them, and the summary does not call
    the threshold calibrated."""
    cfg = harness.SimConfig(
        n_bits=24, variant=circuit.Cable(1000.0, 10), detection_threshold=2e-6,
        detection_consecutive=3,
    )
    text = harness.config_to_text(cfg)
    assert text.endswith("detection_consecutive = 3\nselection_mode = randomized\n"
                         "master_seed = 12345\nworkers = 1\ndetection_threshold = 2e-06\n")
    assert harness.parse_config_text(text) == cfg
    report = harness.ExperimentReport(config=cfg)
    report.defense_result = harness.run_defense_experiment(cfg, n_calibration=10)
    assert report.defense_result.detection == DetectionConfig(2e-6, 3)
    harness.write_report(report, str(tmp_path))
    summary = (tmp_path / "summary.txt").read_text()
    assert "\n  detection_consecutive = 3\n" in summary
    assert " threshold 2.000e-06 A\n" in summary


def test_config_rejects_injection_bandwidth_mismatch():
    with pytest.raises(ConfigError):
        harness.SimConfig(injection=attack.InjectionSpec(0.1, 125.0))


def _cell_config(cfg, variant, level):
    """`cfg` on `variant`, injecting at `level` (0: no injection)."""
    injection = attack.InjectionSpec(level, cfg.bandwidth_hz) if level > 0 else None
    return replace(cfg, variant=variant, injection=injection)


def _tiny_cfg(**kw):
    base = dict(n_bits=40, master_seed=4242)
    base.update(kw)
    return harness.SimConfig(**base)


def test_seed_prefix_stability():
    for variant in (circuit.Ideal(), circuit.Cable(1000.0, 10)):
        big = harness.run_attack_cell(_cell_config(_tiny_cfg(n_bits=80), variant, 0.1))
        small = harness.run_attack_cell(_cell_config(_tiny_cfg(n_bits=50), variant, 0.1))
        assert np.array_equal(big.q[:50], small.q)
        assert np.array_equal(big.rho_a[:50], small.rho_a)


def test_worker_count_does_not_change_results():
    cfg = _tiny_cfg(n_bits=60, variant=circuit.Cable(100.0, 10))
    seq = harness.run_attack_cell(_cell_config(cfg, cfg.variant, 0.01))
    par = harness.run_attack_cell(_cell_config(replace(cfg, workers=3), cfg.variant, 0.01))
    assert np.array_equal(seq.q, par.q)
    assert np.array_equal(seq.rho_a, par.rho_a)
    assert np.array_equal(seq.rho_b, par.rho_b)


HALF = harness._CHUNK // 2  # the exchanges of one synthetic mask, two to a chunk


def _synthetic_mask(half):
    """Masks of half a chunk whose secure exchanges sit first, mid-half, last, on both sides of
    the middle of a chunk, and after an all-discard half and chunk."""
    mask = np.zeros(HALF, dtype=bool)
    if half == 0:
        mask[[0, 5, 6, 64, 127]] = True
    elif half == 4:
        mask[-1] = True
    elif half == 5:
        mask[0] = True
    elif half == 6:
        mask[:] = True
    elif half not in (1, 2, 3):  # halves 1 to 3, chunk 1 among them, are all discards
        mask = np.random.default_rng(half).integers(0, 2, HALF).astype(bool)
    return mask


def _consume_loop(n_secure):
    """The per-exchange loop `_consume_chunks` replaced: walk each mask to the n-th secure one.

    Returns the number of exchanges consumed and of halves read.
    """
    consumed = found = 0
    for half in itertools.count():
        for secure in _synthetic_mask(half).tolist():
            consumed += 1
            found += secure
            if found == n_secure:
                return consumed, half + 1


@pytest.mark.parametrize("workers", [1, 3])
def test_consume_chunks_matches_the_per_exchange_loop(monkeypatch, workers):
    """Over synthetic masks, with Alice or Bob at random holding r_h on a secure exchange, the
    chunks run are the ones up to the n-th secure exchange, each classified once and in
    order, the empty chunks skipped, and their rows are exactly the first n secure
    exchanges: the last chunk is trimmed to the run's bits."""
    classified, ran = [], []

    def holds_r_h(cfg, indices):
        halves = range(indices[0] // HALF, indices[-1] // HALF + 1)
        classified.extend(halves)
        mask = np.concatenate([_synthetic_mask(h) for h in halves])
        rngs = [np.random.default_rng(1000 + h) for h in halves]
        alice = np.concatenate([rng.integers(0, 2, HALF) for rng in rngs]).astype(bool)
        return np.stack([mask & alice, mask & ~alice], axis=1)

    def chunk_worker(cfg, chunk):
        ran.append(int(chunk[0][0]) // harness._CHUNK)
        return chunk

    monkeypatch.setattr(harness, "_holds_r_h", holds_r_h)
    cfg = _tiny_cfg(workers=workers)
    for n_secure in range(1, 200):
        classified.clear(), ran.clear()
        consumed, n_halves = _consume_loop(n_secure)
        n_chunks = -(-n_halves // 2)
        chunks = list(harness._consume_chunks(cfg, chunk_worker, n_secure, harness._CHUNK))
        assert classified == list(range(2 * n_chunks)), n_secure
        secure = [HALF * h + np.flatnonzero(_synthetic_mask(h)) for h in classified]
        by_chunk = [np.concatenate(secure[2 * k : 2 * k + 2]) for k in range(n_chunks)]
        assert sorted(ran) == [k for k, rows in enumerate(by_chunk) if len(rows)]
        assert [int(c[0][0]) // harness._CHUNK for c in chunks] == sorted(ran)
        index, key_bits, choices = (np.concatenate(col) for col in zip(*chunks))
        assert index.tolist() == np.concatenate(secure)[:n_secure].tolist()
        assert index[-1] + 1 == consumed
        assert (key_bits == (choices[:, 0] == cfg.r_h)).all()
        assert (choices[:, 0] != choices[:, 1]).all()


def _write_table1(out_dir, cfg):
    report = harness.ExperimentReport(config=cfg)
    report.table = harness.run_table1(
        cfg, levels=(0.1,), variants=[circuit.Ideal(), circuit.Cable(100.0, 10)]
    )
    return harness.write_report(report, out_dir)


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = _tiny_cfg()
    _write_table1(str(tmp_path / "a"), cfg)
    _write_table1(str(tmp_path / "b"), cfg)
    assert filecmp.cmp(tmp_path / "a" / "table1.csv", tmp_path / "b" / "table1.csv", shallow=False)


def test_csv_headers_and_shapes(tmp_path):
    cfg = _tiny_cfg(n_bits=24, variant=circuit.Cable(1000.0, 10))
    report = harness.ExperimentReport(config=cfg)
    report.table = harness.run_table1(cfg, levels=(0.1,), variants=[circuit.Ideal()])
    report.defense_result = harness.run_defense_experiment(cfg, n_calibration=10)
    report.privacy_result = harness.run_privacy_experiment(replace(cfg, n_bits=64))
    report.single_bit = harness.run_single_bit(cfg)
    paths = harness.write_report(report, str(tmp_path))
    names = {os.path.basename(p) for p in paths}
    assert names == {
        "table1.csv",
        "defense.csv",
        "residual_trace_attacked.csv",
        "residual_trace_clean.csv",
        "privacy.csv",
        "single_bit.csv",
        "summary.txt",
    }
    with open(tmp_path / "table1.csv") as fh:
        assert fh.readline().strip() == "variant,level,p_e,stderr,n"
    with open(tmp_path / "defense.csv") as fh:
        assert fh.readline().strip() == "bit,attacked,detected,latency_fraction,max_residual"
    with open(tmp_path / "privacy.csv") as fh:
        assert fh.readline().strip() == "stage,p_e,stderr,key_length"
        rows = fh.read().splitlines()
        assert len(rows) == 3  # stages 0..2
    with open(tmp_path / "residual_trace_attacked.csv") as fh:
        assert fh.readline().strip() == "time_s,residual_A"
        assert len(fh.read().splitlines()) == cfg.samples_per_bit


def test_privacy_key_lengths_follow_halving():
    res = harness.run_privacy_experiment(harness.SimConfig(n_bits=64, master_seed=5))
    assert [s.key_length for s in res.stages] == [64, 32, 16]
    # pipeline agreement at stage 0 equals the cell success probability
    assert res.stages[0].p_e == res.cell.p_e


def test_privacy_stderr_is_the_binomial_formula_at_every_stage():
    """Every stage's stderr is sqrt(p (1 - p) / n), also where Eve guesses every bit: at 90 %
    injection on 8 bits p_e is 1 at each stage, and the stderr 0, not a floored 1e-151."""
    cfg = harness.SimConfig(n_bits=8, master_seed=1, injection=attack.InjectionSpec(0.9, 250.0))
    assert [(s.p_e, s.stderr) for s in harness.run_privacy_experiment(cfg).stages] == [
        (1.0, 0.0)
    ] * 3
    for s in harness.run_privacy_experiment(harness.SimConfig(n_bits=64, master_seed=5)).stages:
        assert s.stderr == math.sqrt(s.p_e * (1.0 - s.p_e) / s.key_length)


def test_defense_experiment_requires_headroom():
    with pytest.raises(ConfigError):
        harness.run_defense_experiment(harness.SimConfig(n_bits=10), n_calibration=20)


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg: harness.run_table1(cfg, levels=()),
        lambda cfg: harness.run_table1(cfg, variants=[]),
        lambda cfg: harness.run_defense_experiment(cfg, n_calibration=0),
        lambda cfg: harness.run_defense_experiment(cfg, n_calibration=-1),
        lambda cfg: harness.run_defense_experiment(
            replace(cfg, detection_threshold=1e-6), n_calibration=-1
        ),
        lambda cfg: harness.run_privacy_experiment(cfg, passes=-1),
    ],
    ids=[
        "no_levels", "no_variants", "no_calibration", "negative_calibration",
        "negative_calibration_fixed_threshold", "negative_passes",
    ],
)
def test_degenerate_entry_point_arguments_are_config_errors(monkeypatch, run):
    """Each is rejected before a chunk runs."""

    def fail(*args, **kwargs):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(harness, "_grid_chunk", fail)
    monkeypatch.setattr(harness, "_defense_chunk", fail)
    with pytest.raises(ConfigError):
        run(harness.SimConfig(n_bits=30))


def test_a_fixed_threshold_runs_without_calibration_pairs():
    cfg = harness.SimConfig(n_bits=30, detection_threshold=1e-6)
    result = harness.run_defense_experiment(cfg, n_calibration=0)
    assert result.n_bits == 30 and result.detection.threshold == 1e-6


def test_variant_labels():
    assert harness.variant_label(circuit.Ideal()) == "ideal"
    assert harness.variant_label(circuit.Cable(100.0, 10)) == "cable_100m"
    assert harness.variant_label(circuit.CableWithKiller(1000.0, 10)) == "cable_1000m_killer"


def test_fixed_selection_mode_has_no_discards():
    cfg = harness.SimConfig(n_bits=30, selection_mode="fixed_lh")
    cell = harness.run_attack_cell(_cell_config(cfg, circuit.Ideal(), 0.1))
    assert cell.n_discarded == 0
    assert cell.n_exchanges == 30


def _draw(master_seed, index, stream):
    """One 0/1 draw of the documented seed scheme, computed here independently."""
    seq = np.random.SeedSequence(entropy=(master_seed, index, stream))
    return int(np.random.default_rng(seq).integers(0, 2))


def _is_secure(master_seed, index):
    return _draw(master_seed, index, 0) != _draw(master_seed, index, 1)


def _count_pipeline_calls(monkeypatch):
    """Count stream derivations per (exchange index, stream id) where `seeds` derives them,
    and synthesis calls and rows."""
    derived = collections.Counter()
    synths = {"calls": 0, "rows": 0}
    stream_words = seeds.stream_words

    def counting_words(master_seed, index, streams, n_words):
        derived.update(itertools.product(np.asarray(index).tolist(), streams))
        return stream_words(master_seed, index, streams, n_words)

    def counting_synth(seeds, *args):
        synths["calls"] += 1
        synths["rows"] += len(seeds)
        return synth(seeds, *args)

    synth = protocol.synth_band_limited_gaussian
    monkeypatch.setattr(seeds, "stream_words", counting_words)
    monkeypatch.setattr(protocol, "synth_band_limited_gaussian", counting_synth)
    return derived, synths


def _solved_rows(cfg, n_secure):
    """Indices of the secure exchanges a run of n_secure bits solves: the first n_secure."""
    index = harness._classify_chunk(cfg, 0, 4 * n_secure + 64)[0]
    assert len(index) >= n_secure
    return index[:n_secure].tolist()


@pytest.mark.parametrize(
    "run,level,per_secure",
    [
        (harness.run_attack_cell, 0.1, 3),
        (harness.run_attack_cell, 0.0, 2),
        (harness.run_defense_experiment, 0.1, 3),
    ],
)
def test_each_exchange_is_derived_and_synthesized_once(monkeypatch, run, level, per_secure):
    """A discard derives streams 0 and 1 only. A secure exchange that the run solves also
    derives 2 and 3, and 4 when an injection is configured; the coin (stream 5) is derived
    only on a correlator tie, which zero injection always is. The last chunk solves only
    the run's bits, so its other secure exchanges derive and synthesize nothing more."""
    derived, synths = _count_pipeline_calls(monkeypatch)
    cfg = _cell_config(_tiny_cfg(n_bits=30), circuit.Cable(100.0, 10), level)
    run(cfg)
    indices = sorted({index for index, _ in derived})
    assert indices == list(range(len(indices))) and len(indices) % harness._CHUNK == 0
    assert set(derived.values()) == {1}
    solved = _solved_rows(cfg, cfg.n_bits)
    assert cfg.n_bits == len(solved) < len([i for i in indices if _is_secure(cfg.master_seed, i)])
    coin = solved if run is harness.run_attack_cell and level == 0.0 else []
    noise = {2, 3, 4} if level > 0 else {2, 3}
    for i in indices:
        expected = {0, 1} | (noise if i in solved else set()) | ({5} if i in coin else set())
        assert {stream for index, stream in derived if index == i} == expected, i
    assert synths["rows"] == per_secure * len(solved)
    assert synths["calls"] <= 2 * len(indices) // harness._CHUNK


def test_single_bit_derives_its_streams_once(monkeypatch):
    derived, synths = _count_pipeline_calls(monkeypatch)
    cfg = _cell_config(_tiny_cfg(), circuit.Ideal(), 0.1)
    harness.run_single_bit(cfg, 3)
    assert derived == {(3, stream): 1 for stream in range(5)}
    assert synths == {"calls": 2, "rows": 3}


@pytest.mark.parametrize("level", [0.1, 0.0])
def test_attack_cell_builds_at_most_one_seed_sequence_per_synthesis_call(monkeypatch, level):
    """No SeedSequence per exchange or per noise row: counted where the package can ask numpy
    for one, directly or through a PCG64 or default_rng."""
    built = collections.Counter()

    def counting(name, make):
        def build(*args, **kwargs):
            built[name] += 1
            return make(*args, **kwargs)

        return build

    for name in ("SeedSequence", "PCG64", "default_rng"):
        monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
    _, synths = _count_pipeline_calls(monkeypatch)
    cfg = _cell_config(_tiny_cfg(n_bits=150), circuit.Ideal(), level)
    cell = harness.run_attack_cell(cfg)
    assert cell.n == 150 and synths["rows"] >= 2 * 150
    assert 0 < sum(built.values()) <= synths["calls"]


def test_zero_injection_coin_is_stream_5_of_each_secure_exchange():
    cfg = _cell_config(_tiny_cfg(n_bits=150), circuit.Ideal(), 0.0)
    cell = harness.run_attack_cell(cfg)
    secure = [i for i in range(cell.n_exchanges) if _is_secure(cfg.master_seed, i)]
    assert len(secure) == cell.n
    coins = [_draw(cfg.master_seed, i, 5) for i in secure]
    assert cell.eve_bits.tolist() == coins


@pytest.mark.parametrize("levels", [(-0.1, 0.1), (0.1, 1.0), (float("nan"),)])
def test_table1_rejects_levels_outside_the_unit_interval(levels):
    with pytest.raises(ConfigError, match="injection level"):
        harness.run_table1(harness.SimConfig(n_bits=8), levels=levels, variants=[circuit.Ideal()])


_CELL_ARRAYS = ("q", "rho_a", "rho_b", "key_bits", "eve_bits", "msq_u_a", "msq_i_a")
_CELL_SCALARS = (
    "variant_lbl", "level", "n", "p_e", "stderr", "honest_error_rate", "n_exchanges", "n_discarded"
)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("mode", harness.SELECTION_MODES)
def test_grid_cells_equal_single_cells_bit_for_bit(mode, workers):
    """150 bits span two chunks (fixed_lh) or three (randomized); level 0 makes every bit a tie."""
    cfg = _tiny_cfg(n_bits=150, selection_mode=mode, workers=workers)
    levels = (0.0, 0.01, 0.1)
    table = harness.run_table1(cfg, levels=levels)
    variants = harness.default_table1_variants()
    assert [(c.variant_lbl, c.level) for c in table.cells] == [
        (harness.variant_label(v), level) for v in variants for level in levels
    ]
    for grid_cell, (variant, level) in zip(table.cells, itertools.product(variants, levels)):
        cell = harness.run_attack_cell(_cell_config(cfg, variant, level))
        for name in _CELL_SCALARS:
            assert getattr(grid_cell, name) == getattr(cell, name), name
        for name in _CELL_ARRAYS:
            got, want = getattr(grid_cell, name), getattr(cell, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert grid_cell.classifications == cell.classifications


def test_table1_derives_each_stream_and_synthesizes_each_row_once_per_pass(monkeypatch):
    """All cells share each exchange: its streams are derived once per pass, its generator
    rows synthesized once, and Eve's rows of all injecting levels in one call per chunk;
    level 0 ties every bit, so each solved secure exchange also derives its coin, once."""
    derived, synths = _count_pipeline_calls(monkeypatch)
    cfg = _tiny_cfg(n_bits=150)
    levels = (0.0, 0.01, 0.1)
    table = harness.run_table1(cfg, levels=levels)
    indices = sorted({index for index, _ in derived})
    assert len(indices) == 2 * harness._CHUNK and indices == list(range(len(indices)))
    assert set(derived.values()) == {1}
    solved = set(_solved_rows(cfg, cfg.n_bits))
    for i in indices:
        expected = {0, 1, 2, 3, 4, 5} if i in solved else {0, 1}
        assert {stream for index, stream in derived if index == i} == expected, i
    assert table.cells[0].n_exchanges <= len(indices)
    assert synths == {"calls": 2 * 2, "rows": 3 * len(solved)}


def test_defense_chunk_memory_is_bounded_by_its_shapes():
    """One defense chunk on Cable(1000, 10) holds, at its peak, its generator, injected, drive
    and residual rows (at most 14 rows per pair), a slab's solved rows and its in-site
    simulation's with their temporaries (less than 3 SLAB_BYTES), and the two scans' block
    arrays (less than 3 SCAN_BLOCK_BYTES). An unblocked (S, t, m, N) trajectory would add
    19 rows per solved row, two per pair."""
    cfg = harness.SimConfig(
        variant=circuit.Cable(1000.0, 10), injection=attack.InjectionSpec(0.1, 250.0, 12345)
    )
    chunk = harness._classify_chunk(cfg, 0)
    harness._defense_chunk(cfg, chunk)  # discretize the systems outside the measurement
    tracemalloc.start()
    try:
        payload = harness._defense_chunk(cfg, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, t = len(payload["index"]), cfg.samples_per_bit
    assert payload["index"][-1] >= HALF and k > 80
    assert peak < 8 * t * 14 * k + 3 * circuit.SLAB_BYTES + 3 * circuit.SCAN_BLOCK_BYTES


def _grid_chunk_peak():
    """The tracemalloc peak of one table1 chunk of 256 secure exchanges (fixed_lh), and the
    chunk's exchanges, samples per bit and levels."""
    cfg = harness.SimConfig(selection_mode="fixed_lh")
    levels = harness.TABLE1_LEVELS
    variants = harness.default_table1_variants()
    chunk = harness._classify_chunk(cfg, 0)
    # discretize the systems outside the measurement
    harness._grid_chunk(cfg, chunk, variants, levels)
    tracemalloc.start()
    try:
        harness._grid_chunk(cfg, chunk, variants, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(chunk[0])
    assert k == harness._CHUNK
    return peak, k, cfg.samples_per_bit, len(levels)


def test_grid_chunk_memory_is_bounded_by_its_shapes():
    """One table1 chunk holds, at its peak, its generator, injected and drive rows (2 rows per
    exchange and 4 per exchange and level), and then a slab's solved rows (SLAB_BYTES) and
    the scan's block arrays (less than 2 SCAN_BLOCK_BYTES). Holding all of the canceller's
    outputs at once would add 4 rows per exchange and level."""
    peak, k, t, n_levels = _grid_chunk_peak()
    rows = 2 * k + 4 * n_levels * k
    assert peak < 8 * t * rows + circuit.SLAB_BYTES + 2 * circuit.SCAN_BLOCK_BYTES


def test_scan_bytes_bound_a_grid_chunks_peak():
    """The peak above stays below the chunk's rows, plus every array that `circuit.scan_bytes`
    reports for the chunk's two scans of its one resistor pair's columns: the canceller's,
    and the ladder pair's."""
    peak, k, t, n_levels = _grid_chunk_peak()
    m = circuit.Cable(100.0, 10).n_states
    u_shape = (1, n_levels * k, 3, t)
    scans = [((1, 1, 1, 1), u_shape, 4), ((2, 1, m, m), u_shape, 4)]
    planned = sum(sum(circuit.scan_bytes(*scan).values()) for scan in scans)
    assert peak < 8 * t * (2 * k + 4 * n_levels * k) + planned


def test_no_scanned_column_belongs_to_another_pair(monkeypatch):
    """Each cable scan is handed the rows of one resistor pair, its exchanges at every level,
    and no other: over a randomized chunk whose two pairs differ in size, the scans of each
    state count, the ladder pair's and the canceller's, take L x k columns between them."""
    cfg = harness.SimConfig()
    levels = harness.TABLE1_LEVELS
    chunk = harness._classify_chunk(cfg, 0)
    sizes = np.unique(chunk[2], axis=0, return_counts=True)[1]
    assert len(sizes) == 2 and sizes[0] != sizes[1]
    columns, solve = collections.Counter(), circuit.solve_slabs

    def recorded(system, u):
        columns[system.n_states] += math.prod(u.shape[:-2])
        return solve(system, u)

    monkeypatch.setattr(circuit, "solve_slabs", recorded)
    harness._grid_chunk(cfg, chunk, harness.default_table1_variants(), levels)
    assert columns == {m: len(levels) * len(chunk[0]) for m in (1, 19)}


@pytest.mark.parametrize("t", [2, 200, 20_000, 2_000_000])
@pytest.mark.parametrize("m", [1, 19, 999, 11_585, 39_999])
def test_an_in_site_scan_is_no_larger_than_its_channel_scan(m, t):
    """The defense's in-site scan runs on one slab of its channel scan's columns, so the size
    budget sizes only the channel scan: for each slab width of a channel scan of 1 to 512
    columns, every array of the in-site scan past SLAB_BYTES is at most the channel scan's
    largest."""
    for n_cols in (1, 7, 8, 40, 129, 256, 384, 512):
        channel = max(circuit.scan_bytes((1, m, m), (n_cols, 3, t), 4).values())
        width, _ = circuit._layout(1, m, 4, n_cols, t)
        for w in {min(width, n_cols), n_cols % width} - {0}:
            in_site = circuit.scan_bytes((m, m), (w, 2, t), 2)
            large = [size for size in in_site.values() if size > circuit.SLAB_BYTES]
            assert all(size <= channel for size in large), (n_cols, w, in_site, channel)


def test_trimmed_last_chunks_give_the_prefix_of_a_longer_run(monkeypatch):
    """A run of n_bits secure bits seeds, synthesizes and solves exactly those, wherever its
    last chunk ends, and its outputs equal the first n_bits of a longer run: every cell of
    a grid with the ideal wire, a ladder and the canceller, and the defense's rows,
    threshold and traces."""
    derived, synths = _count_pipeline_calls(monkeypatch)
    variants = [circuit.Ideal(), circuit.Cable(1000.0, 10), circuit.CableWithKiller(1000.0, 10)]
    levels = (0.0, 0.1)
    cfg = _tiny_cfg(n_bits=300)
    longer = harness.run_table1(cfg, levels=levels, variants=variants)
    for n in (1, 7, 63, 64, 65, 129, 200):
        derived.clear(), synths.update(calls=0, rows=0)
        table = harness.run_table1(replace(cfg, n_bits=n), levels=levels, variants=variants)
        solved = _solved_rows(cfg, n)
        assert sorted(i for i, stream in derived if stream == 2) == solved
        assert synths["rows"] == 3 * n
        for cell, full in zip(table.cells, longer.cells):
            assert cell.n == n and cell.n_exchanges == solved[n - 1] + 1
            for name in _CELL_ARRAYS:
                got, want = getattr(cell, name), getattr(full, name)[:n]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, name)

    cfg = replace(
        cfg, variant=circuit.Cable(1000.0, 10), injection=attack.InjectionSpec(0.1, 250.0)
    )
    longer = harness.run_defense_experiment(cfg)
    for n in (21, 40, 77, 150):
        derived.clear(), synths.update(calls=0, rows=0)
        result = harness.run_defense_experiment(replace(cfg, n_bits=n))
        assert sorted(i for i, stream in derived if stream == 2) == _solved_rows(cfg, n)
        assert synths["rows"] == 3 * n
        assert result.rows == longer.rows[: 2 * (n - 20)], n
        assert result.detection == longer.detection
        for got, want in ((result.trace_attacked, longer.trace_attacked),
                          (result.trace_clean, longer.trace_clean)):
            assert got[1].tobytes() == want[1].tobytes()


def test_ideal_runs_solve_exactly_their_bits(monkeypatch):
    """Ideal-wire rows are elementwise, so a run on that wire alone seeds and synthesizes its
    n_bits secure exchanges and no more, wherever its last chunk ends, and its outputs equal
    the first n_bits of a longer run."""
    derived, synths = _count_pipeline_calls(monkeypatch)
    levels = (0.0, 0.1)
    cfg = _tiny_cfg(n_bits=300)
    ideal = [circuit.Ideal()]
    longer = harness.run_table1(cfg, levels=levels, variants=ideal)
    for n in (1, 2, 63, 64, 65, 127, 200, 299):
        derived.clear(), synths.update(calls=0, rows=0)
        table = harness.run_table1(replace(cfg, n_bits=n), levels=levels, variants=ideal)
        solved = sorted(i for i, stream in derived if stream == 2)
        assert len(solved) == n and synths["rows"] == 3 * n
        for cell, full in zip(table.cells, longer.cells):
            assert cell.n_exchanges == solved[-1] + 1
            for name in _CELL_ARRAYS:
                got, want = getattr(cell, name), getattr(full, name)[:n]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, name)


def _concatenated(payloads, axis):
    return {name: np.concatenate([p[name] for p in payloads], axis=axis) for name in payloads[0]}


@pytest.mark.parametrize("mode", harness.SELECTION_MODES)
def test_a_chunk_gives_the_payloads_of_its_windows_bit_for_bit(mode):
    """A row's bits do not depend on the rows it is solved with, so a chunk gives bit for bit
    what its two halves give run alone: the grid's payload at every level of every wire
    variant, and the defense's on each cable."""
    cfg = _tiny_cfg(selection_mode=mode)
    chunk = harness._classify_chunk(cfg, 0)
    halves = [harness._classify_chunk(cfg, start, HALF) for start in (0, HALF)]
    for got, want in zip(chunk, zip(*halves)):
        assert got.tobytes() == np.concatenate(want).tobytes()
    levels = (0.0, 0.01, 0.1)
    variants = harness.default_table1_variants()
    got = harness._grid_chunk(cfg, chunk, variants, levels)
    want = _concatenated([harness._grid_chunk(cfg, h, variants, levels) for h in halves], -1)
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert value.dtype == want[name].dtype and value.tobytes() == want[name].tobytes(), name
    for variant in harness.default_table1_variants()[1:]:
        cfg = _cell_config(cfg, variant, 0.1)
        got = harness._defense_chunk(cfg, chunk)
        want = _concatenated([harness._defense_chunk(cfg, h) for h in halves], 0)
        assert got.keys() == want.keys()
        for name, value in got.items():
            assert value.tobytes() == want[name].tobytes(), (variant, name)


# SLAB_BYTES = 1 gives every scan slabs of 8 columns, the least: each pair's columns span
# many slabs, and the smaller pair's, 3 x 54 in the grid's first chunk and 2 x 54 in the
# defense's, end mid-slab
@pytest.mark.parametrize(
    ("chunk", "slab_bytes"),
    [(64, circuit.SLAB_BYTES), (256, circuit.SLAB_BYTES), (256, 1)],
    ids=["64", "256", "8-column-slabs"],
)
def test_runs_do_not_depend_on_the_chunk_size(monkeypatch, chunk, slab_bytes):
    """Chunks of 64 and of 256 exchanges, and slabs of 8 columns, group a run's rows
    differently, and give the same cells of a grid of all four variants and the same
    defense rows, bit for bit."""
    cfg = _tiny_cfg(n_bits=150)
    levels = (0.0, 0.01, 0.1)
    table = harness.run_table1(cfg, levels=levels)
    defense_cfg = replace(cfg, variant=circuit.Cable(1000.0, 10))
    result = harness.run_defense_experiment(defense_cfg)
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    monkeypatch.setattr(circuit, "SLAB_BYTES", slab_bytes)
    widths, scan = set(), circuit.ladder_scan
    monkeypatch.setattr(circuit, "ladder_scan", lambda p, x: widths.add(x.shape[-1]) or scan(p, x))
    regrouped = harness.run_table1(cfg, levels=levels)
    for cell, other in zip(table.cells, regrouped.cells):
        for name in _CELL_ARRAYS:
            assert getattr(cell, name).tobytes() == getattr(other, name).tobytes(), name
        for name in _CELL_SCALARS:
            assert getattr(cell, name) == getattr(other, name), name
    other = harness.run_defense_experiment(defense_cfg)
    assert other.rows == result.rows and other.detection == result.detection
    assert other.trace_attacked[1].tobytes() == result.trace_attacked[1].tobytes()
    assert max(widths) == 8 if slab_bytes == 1 else max(widths) > 8


def test_single_bit_equals_its_grid_cell():
    """`single-bit` solves its exchange as a column of its own: its correlators and mean
    squares equal the grid's for the same exchange, bit for bit, on the 1000 m cable at
    10 % injection."""
    cfg = harness.SimConfig(n_bits=30, master_seed=12345)
    cfg = _cell_config(cfg, circuit.Cable(1000.0, 10), 0.1)
    cell = harness.run_attack_cell(cfg)
    index = [i for i in range(cell.n_exchanges) if _is_secure(cfg.master_seed, i)]
    for i, bit in zip(index[:10], range(10)):
        dump = harness.run_single_bit(cfg, i)
        assert (dump.rho_a, dump.rho_b) == (cell.rho_a[bit], cell.rho_b[bit]), i
        msq = protocol.mean_squares(dump.y[None])[0]
        assert (msq[2], msq[0]) == (cell.msq_u_a[bit], cell.msq_i_a[bit]), i


def test_a_chunk_falls_back_to_one_window_past_the_array_budget(monkeypatch):
    """At t = 100 000 a 256-exchange chunk's drive rows would exceed the array budget and a
    128-exchange chunk's do not: the config is accepted and its runs classify and solve
    half a chunk, 128 exchanges, at a time."""
    assert harness.SimConfig().check_array_budget(1) == harness._CHUNK
    cfg = harness.SimConfig(tau_s=50.0, n_bits=300, selection_mode="fixed_lh")
    assert cfg.check_array_budget(1) == HALF
    assert cfg.check_array_budget(3, harness.default_table1_variants()) == HALF

    class Ran(Exception):
        pass

    def chunk(cfg, chunk, **kwargs):
        raise Ran(chunk[0].tolist())

    runs = {"_grid_chunk": harness.run_table1, "_defense_chunk": harness.run_defense_experiment}
    for name, run in runs.items():
        monkeypatch.setattr(harness, name, chunk)
        with pytest.raises(Ran) as ran:
            run(cfg)
        assert ran.value.args[0] == list(range(HALF)), name
