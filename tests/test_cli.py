"""Command-line interface: verbs, outputs, exit codes."""
import math
import os
import subprocess
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

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
    # finite values whose derived signal scales overflow or underflow
    for text in (
        "r_h = 1e30\nt_eff = 1e300\n",  # generator rms overflows
        "r_l = 1e-300\nr_h = 1e-299\n",  # likelihood scale r_l r_h / (r_l + r_h) underflows
        "t_eff = 1e-300\n",  # reference loop current underflows
        "r_l = 1\nr_h = 1e40\n",  # the low side's current rounds to zero
        # the defense's cable-alone current overflows; the ladder does not discretize
        "variant = cable_killer\ncable_length_m = 1e-250\nt_eff = 1e150\n",
        "variant = cable\ncable_length_m = 1e-300\n",
    ):
        cfg = _cfg_file(tmp_path, TINY + text)
        assert cli.main(["table1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["single-bit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # the privacy chain's two XOR passes need 4 bits
    assert cli.main(["privacy", "--bits", "3", "--out", str(tmp_path / "o")]) == 2


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
