"""Command-line interface: verbs, outputs, exit codes."""
import csv
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim import circuit, cli, harness
from kljnsim.exceptions import ConfigError

TINY = "n_bits = 30\nmaster_seed = 11\n"


def _cfg_file(tmp_path, text=TINY, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_table1_verb_writes_outputs(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "out")
    code = cli.main(["table1", "--config", cfg, "--out", out, "--bits", "10"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "table1.csv"))
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert "table1.csv" in capsys.readouterr().out


def test_defense_verb_defaults_to_long_cable(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(["defense", "--out", out, "--bits", "25", "--seed", "3"])
    assert code == 0
    with open(os.path.join(out, "summary.txt")) as fh:
        text = fh.read()
    assert "variant = cable" in text
    assert os.path.exists(os.path.join(out, "residual_trace_attacked.csv"))


def test_privacy_verb(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(["privacy", "--out", out, "--bits", "40"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "privacy.csv"))


def _summary_config(out):
    with open(os.path.join(out, "summary.txt")) as fh:
        text = fh.read()
    block = text.split("config:\n", 1)[1].split("\n\n", 1)[0]
    return harness.parse_config_text("\n".join(line.strip() for line in block.splitlines()))


def test_summary_lists_the_config_that_ran(tmp_path):
    """privacy and defense fill in a 10 % injection when none is set, and privacy then runs
    the ideal wire whatever the variant: the summary shows that config, not the given one."""
    out = str(tmp_path / "privacy")
    assert cli.main(["privacy", "--out", out, "--bits", "30"]) == 0
    ran = _summary_config(out)
    assert ran.injection.level_fraction == 0.1 and isinstance(ran.variant, circuit.Ideal)

    cfg = _cfg_file(tmp_path, TINY + "variant = cable\n")
    out = str(tmp_path / "privacy_cable")
    assert cli.main(["privacy", "--config", cfg, "--out", out]) == 0
    ran = _summary_config(out)
    assert ran.injection.level_fraction == 0.1 and isinstance(ran.variant, circuit.Ideal)
    assert (ran.master_seed, ran.n_bits) == (11, 30)

    out = str(tmp_path / "defense")
    assert cli.main(["defense", "--out", out, "--bits", "30"]) == 0
    ran = _summary_config(out)
    assert ran.injection.level_fraction == 0.1 and ran.variant == circuit.Cable(1000.0, 10)

    out = str(tmp_path / "table1")  # table1 runs the config as given
    assert cli.main(["table1", "--config", cfg, "--out", out, "--bits", "10"]) == 0
    assert _summary_config(out) == replace(harness.parse_config(cfg), n_bits=10)


def test_single_bit_verb(tmp_path):
    cfg = _cfg_file(tmp_path, TINY + "variant = cable\ninjection_level = 0.1\n")
    out = str(tmp_path / "out")
    code = cli.main(["single-bit", "--config", cfg, "--out", out])
    assert code == 0
    with open(os.path.join(out, "single_bit.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["time_s", "u_alice_gen_V", "u_bob_gen_V", "i_injected_A"]
    assert "residual_a_A" in header


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "nonsense_key = 5\n")
    assert cli.main(["table1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    for text in ("injection_level = nan\n", "r_h = inf\n", "sample_rate_hz = inf\n"):
        cfg = _cfg_file(tmp_path, TINY + text)
        assert cli.main(["privacy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # finite values whose derived signal scales overflow or underflow
    for text in (
        "r_h = 1e30\nt_eff = 1e300\n",  # generator rms overflows
        "r_l = 1e-300\nr_h = 1e-299\n",  # likelihood scale r_l r_h / (r_l + r_h) underflows
        "t_eff = 1e-300\n",  # reference loop current underflows
        "r_l = 1\nr_h = 1e40\n",  # the low side's current rounds to zero
        # the defense's cable-alone current overflows; the ladder does not discretize
        "variant = cable_killer\ncable_length_m = 1e-250\nt_eff = 1e150\n",
        "variant = cable\ncable_length_m = 1e-300\n",
        # segment RC corner (4.36 MHz) below 100 x the configured band
        "variant = cable\ncable_length_m = 1000\nbandwidth_hz = 1e5\nsample_rate_hz = 4e5\n",
        # predicted arrays past the size budget, rejected before anything is allocated
        "variant = cable\nn_segments = 100000\n",
        "tau_s = 1e7\n",
        # a period shorter than one band cycle: no FFT bin in the band to synthesize from
        "tau_s = 0.002\n",
    ):
        cfg = _cfg_file(tmp_path, TINY + text)
        assert cli.main(["table1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["single-bit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # the privacy chain's two XOR passes need 4 bits
    assert cli.main(["privacy", "--bits", "3", "--out", str(tmp_path / "o")]) == 2
    # a cable so short that the defense's in-site simulation cannot resolve its current
    cfg = _cfg_file(tmp_path, "variant = cable_killer\ncable_length_m = 1e-9\nn_bits = 60\n")
    assert cli.main(["defense", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # negative seeds and bit indices are config errors that name their field
    for args, field in (
        (["table1", "--config", _cfg_file(tmp_path, "master_seed = -1\n")], "master_seed"),
        (["privacy", "--seed", "-3"], "master_seed"),
        (["single-bit", "--bit-index", "-1"], "bit_index"),
    ):
        capsys.readouterr()
        assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err


def _no_chunk_runs(monkeypatch):
    """Make a grid or defense chunk fail if one runs: a size guard must reject the run before."""

    def fail(*args, **kwargs):
        raise AssertionError("a chunk ran past the size guard")

    monkeypatch.setattr(harness, "_grid_chunk", fail)
    monkeypatch.setattr(harness, "_defense_chunk", fail)


def test_grid_past_the_array_budget_exits_2_before_a_chunk_runs(tmp_path, capsys, monkeypatch):
    """The table1 grid's drive rows, shape (3 levels x 128, 3, t), are the largest array at
    t = 120 000 (1.1e9 bytes); every array of one variant's run, the config's own check, stays
    below 2**30 bytes."""
    _no_chunk_runs(monkeypatch)
    cfg = _cfg_file(tmp_path, TINY + "tau_s = 60\n")
    capsys.readouterr()
    assert cli.main(["table1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "(384, 3, t) drive rows" in capsys.readouterr().err


def test_grid_whose_shared_ladder_stack_passes_the_budget_is_rejected(monkeypatch):
    """220 three-state ladders share each resistor pair's scan, a stack of 220 systems whose
    slabs take at least 8 columns: at t = 20 000 a slab's outputs would take
    8 x 220 x 8 x 4 x 20 000 = 1.13e9 bytes. 110 of them, 5.6e8 bytes, fit."""
    _no_chunk_runs(monkeypatch)
    cfg = harness.SimConfig(n_bits=4, tau_s=10.0)  # t = 20 000 samples
    ladders = [circuit.Cable(100.0 + k, 2) for k in range(220)]
    with pytest.raises(ConfigError, match="slab outputs"):
        harness.run_table1(cfg, levels=(0.1,), variants=ladders)
    cfg.check_array_budget(1, ladders[:110])


def test_grid_whose_restacked_ladder_matrices_pass_the_budget_is_rejected(monkeypatch):
    """Two 8399-state ladders share each resistor pair's scan, which restacks their step
    matrices, one per ladder, into one (2, 8399, 8399) array of 8 x 2 x 8399**2 = 1.13e9
    bytes; one ladder's scan steps with half of that."""
    _no_chunk_runs(monkeypatch)
    cfg = harness.SimConfig(n_bits=4, tau_s=0.005)  # t = 10 samples
    ladders = [circuit.Cable(100.0, 4200), circuit.Cable(1000.0, 4200)]
    with pytest.raises(ConfigError, match="step matrices"):
        harness.run_table1(cfg, levels=(0.1,), variants=ladders)
    cfg.check_array_budget(1, ladders[:1])


# A 30 km cable in 3 km segments: its per-segment RC corner, 4.84 kHz, lies above
# 100 x 10 Hz but below 100 x 250 Hz.
LOW_BAND_CABLE = "variant = cable\ncable_length_m = 30000\nn_segments = 10\n"
LOW_BAND = LOW_BAND_CABLE + "bandwidth_hz = 10\nsample_rate_hz = 40\ntau_s = 2.5\n"


def _assert_finite_csv(path, blank=()):
    """Every field of the CSV at `path` is a finite number; the columns in `blank` may be empty."""
    with open(path) as fh:
        header, *rows = csv.reader(fh)
    assert rows
    for row in rows:
        for name, field in zip(header, row, strict=True):
            if field or name not in blank:
                assert math.isfinite(float(field)), (path, name, field)


def test_cable_segmentation_is_checked_at_the_configured_bandwidth(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, LOW_BAND)
    out = tmp_path / "out"
    assert cli.main(["single-bit", "--config", cfg, "--out", str(out / "s")]) == 0
    assert cli.main(["defense", "--config", cfg, "--bits", "30", "--out", str(out / "d")]) == 0
    _assert_finite_csv(out / "s" / "single_bit.csv")
    _assert_finite_csv(out / "d" / "defense.csv", blank=("latency_fraction",))
    for name in ("residual_trace_attacked.csv", "residual_trace_clean.csv"):
        _assert_finite_csv(out / "d" / name)
    # the same cable at the default 250 Hz band is rejected when the config is parsed
    cfg = _cfg_file(tmp_path, LOW_BAND_CABLE, name="default_band.cfg")
    with pytest.raises(ConfigError, match="RC corner"):
        harness.parse_config(cfg)
    capsys.readouterr()
    assert cli.main(["single-bit", "--config", cfg, "--out", str(out / "x")]) == 2
    assert cli.main(["defense", "--config", cfg, "--bits", "30", "--out", str(out / "x")]) == 2
    assert "RC corner" in capsys.readouterr().err
    assert not (out / "x").exists()


def test_a_channel_past_the_array_budget_is_rejected_by_its_config():
    """Each resistor pair's channel scan steps with its one system's step matrix.
    Cable(1000, 20000) is a 39 999-state system whose step matrix alone would take
    8 x 39 999**2 = 1.28e10 bytes, and Cable(1000, 5800) one of 11 599 states and
    1.08e9 bytes: the config refuses both as the channel, before anything is assembled.
    Cable(1000, 5000), 9999 states and 8.0e8 bytes, fits."""
    cfg = harness.SimConfig(n_bits=30, variant=circuit.Cable(1000.0, 10))
    for fine in (circuit.Cable(1000.0, 20000), circuit.Cable(1000.0, 5800)):
        with pytest.raises(ConfigError, match="byte budget"):
            replace(cfg, variant=fine)
    replace(cfg, variant=circuit.Cable(1000.0, 5000))


def test_seed_and_bit_index_of_2_to_the_64_run(tmp_path):
    """Values past 64 bits coerce to three SeedSequence entropy words, not two."""
    big = str(2**64)
    assert cli.main(["privacy", "--seed", big, "--bits", "8", "--out", str(tmp_path / "p")]) == 0
    cfg = _cfg_file(tmp_path, TINY + "variant = cable\ninjection_level = 0.1\n")
    out = tmp_path / "s"
    args = ["single-bit", "--config", cfg, "--seed", big, "--bit-index", big, "--out", str(out)]
    assert cli.main(args) == 0
    assert "residual_a_A" in (out / "single_bit.csv").read_text().splitlines()[0]


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_defense_memory_does_not_grow_with_the_bit_count(tmp_path):
    """The defense detects on each chunk as it arrives and drops its residual rows, so a run of
    600 pairs (about ten chunks) peaks within two chunks' residual rows (128 pairs x 2 arms x 2
    ends x t samples each) of a run of 150 pairs (three chunks); holding every pair's rows
    would add 450 pairs' worth."""
    args = ["defense", "--seed", "3", "--out", str(tmp_path / "o"), "--bits"]
    _traced_peak(args + ["25"])  # discretize the systems outside the measurement
    short, long = (_traced_peak(args + [str(n)]) for n in (150, 600))
    chunk_residuals = 8 * 128 * 2 * 2 * 200
    assert long - short < 2 * chunk_residuals


def test_defense_on_a_1m_cable_keeps_clean_residuals_below_1e6(tmp_path):
    for variant in ("cable", "cable_killer"):
        cfg = _cfg_file(tmp_path, f"variant = {variant}\ncable_length_m = 1\nn_bits = 60\n")
        out = tmp_path / variant
        assert cli.main(["defense", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        ratio = summary.split("worst clean residual rms / channel rms: ")[1].split()[0]
        assert float(ratio) <= 1e-6


def test_defense_run_longer_than_the_period_never_fires(tmp_path):
    cfg = _cfg_file(tmp_path, "n_bits = 24\ndetection_consecutive = 201\n")  # t = 200
    out = tmp_path / "out"
    assert cli.main(["defense", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "defense.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 4
    assert all(row.split(",")[2:4] == ["0", ""] for row in rows)


def test_missing_config_file_exits_3(tmp_path):
    code = cli.main(["table1", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == 3


def test_unwritable_output_exits_3(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = cli.main(["privacy", "--bits", "16", "--out", str(target)])
    assert code == 3


def test_console_entry_point_subprocess(tmp_path):
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "kljnsim.cli", "privacy", "--bits", "16", "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "privacy.csv"))


# log-uniform magnitudes from 1e-300 to 1e300
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_ANY_FLOAT = st.one_of(
    _MAGNITUDE, _MAGNITUDE.map(lambda x: -x), st.sampled_from([0.0, math.nan, math.inf, -math.inf])
)


def _mostly(draw, valid):
    """Seven draws in eight from `valid`, else any magnitude of either sign or a non-finite value."""
    return draw(valid if draw(st.integers(0, 7)) else _ANY_FLOAT)


@st.composite
def _config_texts(draw):
    """Config text with extreme float values but small sizes: at most 400 samples per bit,
    40 segments and 4 bits, one worker."""
    values = {
        key: _mostly(draw, _MAGNITUDE)
        for key in ("r_l", "t_eff", "cable_length_m", "detection_multiplier")
    }
    values["r_h"] = values["r_l"] * _mostly(draw, st.floats(0.01, 26.0).map(lambda e: 10.0**e))
    values["injection_position"] = _mostly(draw, st.floats(0.0, 1.0))
    values["injection_level"] = _mostly(draw, st.floats(0.0, 1.0, exclude_max=True))
    fs = values["sample_rate_hz"] = _mostly(draw, _MAGNITUDE)
    if math.isfinite(fs) and fs != 0.0:
        # an integer sample count of at most 400, and a band that fits it
        n = draw(st.integers(1, 400))
        values["tau_s"] = n / fs
        values["bandwidth_hz"] = _mostly(draw, st.floats(1e-3, 0.25).map(lambda f: f * fs))
    lines = [f"{key} = {value!r}" for key, value in values.items()]
    lines.append("variant = " + draw(st.sampled_from(["ideal", "cable", "cable_killer"])))
    lines.append(f"n_segments = {draw(st.integers(1, 40))}")
    lines.append(f"n_bits = {draw(st.integers(1, 4))}")  # privacy's two passes need 4
    lines.append("workers = 1")
    return "".join(line + "\n" for line in lines)


@given(text=_config_texts(), verb=st.sampled_from(["single-bit", "privacy"]))
@settings(max_examples=500, deadline=None)
def test_config_fuzz_exits_0_or_2_with_finite_outputs(text, verb):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        code = cli.main([verb, "--config", cfg, "--out", out])
        assert code in (0, 2), text
        if code == 0:
            for name in os.listdir(out):
                if name.endswith(".csv"):
                    with open(os.path.join(out, name)) as fh:
                        next(fh)  # header
                        values = [float(v) for line in fh for v in line.strip().split(",")]
                    assert all(math.isfinite(v) for v in values), (name, text)
