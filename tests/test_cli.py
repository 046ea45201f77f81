"""Command-line interface: verbs, outputs, exit codes."""
import os
import subprocess
import sys

import pytest

from kljnsim import cli

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


def test_single_bit_verb(tmp_path):
    cfg = _cfg_file(tmp_path, TINY + "variant = cable\ninjection_level = 0.1\n")
    out = str(tmp_path / "out")
    code = cli.main(["single-bit", "--config", cfg, "--out", out])
    assert code == 0
    with open(os.path.join(out, "single_bit.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["time_s", "u_alice_gen_V", "u_bob_gen_V", "i_injected_A"]
    assert "residual_a_A" in header


def test_bad_config_key_exits_2(tmp_path):
    cfg = _cfg_file(tmp_path, "nonsense_key = 5\n")
    assert cli.main(["table1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    for text in ("injection_level = nan\n", "r_h = inf\n", "sample_rate_hz = inf\n"):
        cfg = _cfg_file(tmp_path, TINY + text)
        assert cli.main(["privacy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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
