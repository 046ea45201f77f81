"""Harness: config parsing, reports, determinism, worker equivalence."""
import collections
import filecmp
import itertools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kljnsim import attack, circuit, harness, seeds
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
    assert cfg.injection == attack.InjectionSpec(0.1, 250.0, cfg.master_seed)
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


def test_detection_threshold_key():
    cfg = harness.parse_config_text("detection_threshold = 2e-6\ndetection_consecutive = 3\n")
    assert cfg.detection == DetectionConfig(2e-6, 3)


def test_config_rejects_injection_bandwidth_mismatch():
    with pytest.raises(ConfigError):
        harness.SimConfig(injection=attack.InjectionSpec(0.1, 125.0))


def _tiny_cfg(**kw):
    base = dict(n_bits=40, master_seed=4242)
    base.update(kw)
    return harness.SimConfig(**base)


def test_seed_prefix_stability():
    for variant in (circuit.Ideal(), circuit.Cable(1000.0, 10)):
        big = harness.run_attack_cell(harness._cell_config(_tiny_cfg(n_bits=80), variant, 0.1))
        small = harness.run_attack_cell(harness._cell_config(_tiny_cfg(n_bits=50), variant, 0.1))
        assert np.array_equal(big.q[:50], small.q)
        assert np.array_equal(big.rho_a[:50], small.rho_a)


def test_worker_count_does_not_change_results():
    cfg = _tiny_cfg(n_bits=60, variant=circuit.Cable(100.0, 10))
    seq = harness.run_attack_cell(harness._cell_config(cfg, cfg.variant, 0.01))
    par = harness.run_attack_cell(
        harness._cell_config(replace(cfg, workers=3), cfg.variant, 0.01)
    )
    assert np.array_equal(seq.q, par.q)
    assert np.array_equal(seq.rho_a, par.rho_a)
    assert np.array_equal(seq.rho_b, par.rho_b)


def _synthetic_mask(chunk):
    """Chunk masks whose secure exchanges sit first, mid-chunk, last and after an all-discard chunk."""
    mask = np.zeros(128, dtype=bool)
    if chunk == 0:
        mask[[0, 5, 6, 64, 127]] = True
    elif chunk == 2:
        mask[-1] = True
    elif chunk == 3:
        mask[0] = True
    elif chunk == 4:
        mask[:] = True
    elif chunk != 1:  # chunk 1 is all discards
        mask = np.random.default_rng(chunk).integers(0, 2, 128).astype(bool)
    return mask


def _consume_loop(n_secure):
    """The per-exchange loop `_consume_chunks` replaced: walk each mask to the n-th secure one.

    Returns the number of exchanges consumed and of chunks read.
    """
    consumed = found = 0
    for chunk in itertools.count():
        for secure in _synthetic_mask(chunk).tolist():
            consumed += 1
            found += secure
            if found == n_secure:
                return consumed, chunk + 1


@pytest.mark.parametrize("workers", [1, 3])
def test_consume_chunks_matches_the_per_exchange_loop(workers):
    def chunk_worker(cfg, start):
        return _synthetic_mask(start // 128), start

    cfg = _tiny_cfg(workers=workers)
    for n_secure in range(1, 200):
        consumed, n_chunks = _consume_loop(n_secure)
        got = harness._consume_chunks(cfg, chunk_worker, n_secure)
        assert got == (consumed, list(range(0, 128 * n_chunks, 128))), n_secure


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


def test_defense_experiment_requires_headroom():
    with pytest.raises(ConfigError):
        harness.run_defense_experiment(harness.SimConfig(n_bits=10), n_calibration=20)


def test_variant_labels():
    assert harness.variant_label(circuit.Ideal()) == "ideal"
    assert harness.variant_label(circuit.Cable(100.0, 10)) == "cable_100m"
    assert harness.variant_label(circuit.CableWithKiller(1000.0, 10)) == "cable_1000m_killer"


def test_fixed_selection_mode_has_no_discards():
    cfg = harness.SimConfig(n_bits=30, selection_mode="fixed_lh")
    cell = harness.run_attack_cell(harness._cell_config(cfg, circuit.Ideal(), 0.1))
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
    from kljnsim import protocol

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


@pytest.mark.parametrize(
    "run,level,per_secure",
    [
        (harness.run_attack_cell, 0.1, 3),
        (harness.run_attack_cell, 0.0, 2),
        (harness.run_defense_experiment, 0.1, 3),
    ],
)
def test_each_exchange_is_derived_and_synthesized_once(monkeypatch, run, level, per_secure):
    """A discard derives streams 0 and 1 only, a secure exchange also 2 and 3, and 4 when
    an injection is configured; the coin (stream 5) is derived only on a correlator tie,
    which zero injection always is."""
    derived, synths = _count_pipeline_calls(monkeypatch)
    cfg = harness._cell_config(_tiny_cfg(n_bits=30), circuit.Cable(100.0, 10), level)
    run(cfg)
    indices = sorted({index for index, _ in derived})
    assert indices == list(range(len(indices))) and len(indices) % 128 == 0
    assert set(derived.values()) == {1}
    secure = [i for i in indices if _is_secure(cfg.master_seed, i)]
    coin = secure if run is harness.run_attack_cell and level == 0.0 else []
    noise = {2, 3, 4} if level > 0 else {2, 3}
    for i in indices:
        expected = {0, 1} | (noise if i in secure else set()) | ({5} if i in coin else set())
        assert {stream for index, stream in derived if index == i} == expected, i
    assert synths["rows"] == per_secure * len(secure)
    assert synths["calls"] <= 2 * len(indices) // 128


def test_single_bit_derives_its_streams_once(monkeypatch):
    derived, synths = _count_pipeline_calls(monkeypatch)
    cfg = harness._cell_config(_tiny_cfg(), circuit.Ideal(), 0.1)
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
    cfg = harness._cell_config(_tiny_cfg(n_bits=150), circuit.Ideal(), level)
    cell = harness.run_attack_cell(cfg)
    assert cell.n == 150 and synths["rows"] >= 2 * 150
    assert 0 < sum(built.values()) <= synths["calls"]


def test_zero_injection_coin_is_stream_5_of_each_secure_exchange():
    cfg = harness._cell_config(_tiny_cfg(n_bits=150), circuit.Ideal(), 0.0)
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
        cell = harness.run_attack_cell(harness._cell_config(cfg, variant, level))
        for name in _CELL_SCALARS:
            assert getattr(grid_cell, name) == getattr(cell, name), name
        for name in _CELL_ARRAYS:
            got, want = getattr(grid_cell, name), getattr(cell, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert grid_cell.classifications == cell.classifications


def test_table1_derives_each_stream_and_synthesizes_each_row_once_per_pass(monkeypatch):
    """All cells share each exchange: its streams are derived once per pass, its generator
    rows synthesized once and Eve's once per injecting level; level 0 ties every bit, so
    each secure exchange also derives its coin, once."""
    derived, synths = _count_pipeline_calls(monkeypatch)
    cfg = _tiny_cfg(n_bits=150)
    levels = (0.0, 0.01, 0.1)
    table = harness.run_table1(cfg, levels=levels)
    indices = sorted({index for index, _ in derived})
    assert len(indices) == 3 * 128 and indices == list(range(len(indices)))
    assert set(derived.values()) == {1}
    secure = {i for i in indices if _is_secure(cfg.master_seed, i)}
    for i in indices:
        expected = {0, 1, 2, 3, 4, 5} if i in secure else {0, 1}
        assert {stream for index, stream in derived if index == i} == expected, i
    assert table.cells[0].n_exchanges <= len(indices)
    injecting = sum(level > 0 for level in levels)
    assert synths == {"calls": 3 * (1 + injecting), "rows": (2 + injecting) * len(secure)}


def test_defense_chunk_memory_is_bounded_by_its_shapes():
    """One defense chunk on Cable(1000, 10) holds, at its peak, its drive and residual rows
    (7 rows per pair), one group's inputs, solved rows and residuals (9 rows per solved
    row, at most 2 solved rows per pair), the scan's stepping buffer and drive scratch
    (SCAN_BLOCK_BYTES each) and a block's map temporaries (less than either). An unblocked
    (S, t, B, m) trajectory would add 19 rows per solved row."""
    cfg = harness.SimConfig(
        variant=circuit.Cable(1000.0, 10), injection=attack.InjectionSpec(0.1, 250.0, 12345)
    )
    harness._defense_chunk(cfg, 0)  # discretize the systems outside the measurement
    tracemalloc.start()
    try:
        _, payload = harness._defense_chunk(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, t = len(payload["index"]), cfg.samples_per_bit
    assert k > 40
    assert peak < 8 * t * (7 * k + 9 * 2 * k) + 3 * circuit.SCAN_BLOCK_BYTES
