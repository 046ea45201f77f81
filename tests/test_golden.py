"""Golden-output guard: small runs at master seed 12345 write pinned CSV bytes.

Refactors must leave every experiment's output byte-identical. These digests
change only in a change that documents a last-ulp move in its notes and shows
that every per-cell p_e of `table1` is unchanged; it then re-pins them here.
"""
import hashlib

import pytest

from kljnsim import attack, circuit, harness

CABLE = circuit.Cable(1000.0, 10)
INJECTION = attack.InjectionSpec(0.1, 250.0, 12345)

# case -> (config, ExperimentReport field, entry point, SHA-256 of the csv); a case is
# named after its csv, with a suffix when one csv has several cases
CASES = {
    "table1.csv": (
        harness.SimConfig(n_bits=24, master_seed=12345),
        "table",
        harness.run_table1,
        "d64b352e80167914a5708d9d3636d5245b64fb58db184efc1d9babcaa2eada13",
    ),
    # 347 exchanges: three chunks, so every cell joins payloads across chunks
    "table1.csv-3chunks": (
        harness.SimConfig(n_bits=150, master_seed=12345),
        "table",
        harness.run_table1,
        "32d2f4f31065f7482dee84511429d8170f803d397d81c691e33efef5cd95973d",
    ),
    # the canceller alone, its one-state scans over three chunks
    "table1.csv-killer": (
        harness.SimConfig(n_bits=150, master_seed=12345),
        "table",
        lambda cfg: harness.run_table1(cfg, variants=[circuit.CableWithKiller(1000.0, 10)]),
        "d4afe5e3a24c879e5d25285df75fb95417fa14cd484fd2b5aecc072b14cac1fc",
    ),
    # two ladders of one state count, which share their scans
    "table1.csv-ladders": (
        harness.SimConfig(n_bits=150, master_seed=12345),
        "table",
        lambda cfg: harness.run_table1(
            cfg, levels=(0.0, 0.05), variants=[circuit.Cable(100.0, 10), CABLE]
        ),
        "d704ba2fa1fcda2f832b28853692dd937dae52db3915514dfa4e7464b4e12134",
    ),
    "privacy.csv": (
        harness.SimConfig(n_bits=200, master_seed=12345),
        "privacy_result",
        harness.run_privacy_experiment,
        "0b2c64db72b92d5c64976efdea6452904bcbd268a889bdf6f59314c7713b47cb",
    ),
    "defense.csv": (
        harness.SimConfig(n_bits=40, variant=CABLE, master_seed=12345),
        "defense_result",
        harness.run_defense_experiment,
        "ccf463a4bb83230231634d5fa2a2df5bd1c59717690f13598a54e388e48a17ea",
    ),
    # the ideal wire's closed form, whose residual is the end currents' difference
    "defense.csv-ideal": (
        harness.SimConfig(n_bits=40, master_seed=12345),
        "defense_result",
        harness.run_defense_experiment,
        "8ca140b0014616bd750856db6f032e2da27b4e791fe60e20c163a94a5598b52e",
    ),
    # 347 exchanges: three chunks, each with both resistor pairs
    "defense.csv-3chunks": (
        harness.SimConfig(n_bits=150, variant=CABLE, master_seed=12345),
        "defense_result",
        harness.run_defense_experiment,
        "0c60f5528dd0b37400bdf71adf6e3d7168f83d1d7f4bd1838b993bca3a0594fa",
    ),
    # the canceller's one-state system
    "defense.csv-killer": (
        harness.SimConfig(n_bits=40, variant=circuit.CableWithKiller(1000.0, 10), master_seed=12345),
        "defense_result",
        harness.run_defense_experiment,
        "b0a74d04568130fa7f1c504b0f9d336b9cd7eeeb5013f134587ee5134692151b",
    ),
    "single_bit.csv": (
        harness.SimConfig(variant=CABLE, injection=INJECTION, master_seed=12345),
        "single_bit",
        harness.run_single_bit,
        "35d3442908eb5ca2a03cf2d9c00fbbd438c44fc9f055eed74ce018ed79d69d2b",
    ),
    # exchange 0 above is an HH discard, exchange 2 an LL discard, exchange 3 secure (HL)
    "single_bit.csv-ll": (
        harness.SimConfig(variant=CABLE, injection=INJECTION, master_seed=12345),
        "single_bit",
        lambda cfg: harness.run_single_bit(cfg, 2),
        "d609ffbd8c16dcb5652c6c07d6d42861dc8f56fe0b6b2d2acf62c0213e259ebf",
    ),
    "single_bit.csv-ideal": (
        harness.SimConfig(injection=INJECTION, master_seed=12345),
        "single_bit",
        lambda cfg: harness.run_single_bit(cfg, 3),
        "468eb74c218da0d70038cb20dbe04781168602ddb8da8a43ade9c478f27946a6",
    ),
    # the same exchange on the ideal wire without injection: Eve's row is zero
    "single_bit.csv-clean": (
        harness.SimConfig(master_seed=12345),
        "single_bit",
        lambda cfg: harness.run_single_bit(cfg, 3),
        "49a08a098dd4bbbf1c8befdf049c98fc010d1aea678932259472fcd632b799a4",
    ),
    "single_bit.csv-killer": (
        harness.SimConfig(
            variant=circuit.CableWithKiller(1000.0, 10), injection=INJECTION, master_seed=12345
        ),
        "single_bit",
        lambda cfg: harness.run_single_bit(cfg, 3),
        "bb2c0b1e9c326937272df709ded26759445c91f9d8e194b6d1364b104cb7a76c",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_are_pinned(name, tmp_path):
    cfg, field, run, digest = CASES[name]
    harness.write_report(harness.ExperimentReport(config=cfg, **{field: run(cfg)}), str(tmp_path))
    csv = tmp_path / name.split("-")[0]
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest
