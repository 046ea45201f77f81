"""Acceptance gate: the quantitative exit criteria, one test per criterion.

Every tolerance is pinned here. Heavy Monte Carlo runs are shared through
module-scoped fixtures; the full module reproduces the headline experiment
(N = 10000 secure bits per cell) and prints one PASS/FAIL line per criterion
(run with -s to see them live).
"""
import filecmp
import math
from dataclasses import replace

import numpy as np
import pytest

from kljnsim import attack, circuit, defense, harness, protocol
from kljnsim.circuit import Cable, CableWithKiller, Ideal, LoopConfig
from kljnsim.noise import synth_band_limited_gaussian

N_FULL = 10_000
IDEAL_TARGETS = {0.001: 0.503, 0.01: 0.513, 0.1: 0.613}
KM_TARGETS = {0.001: 0.501, 0.01: 0.510, 0.1: 0.608}
TOL_CELL = 0.02


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def base_cfg():
    return harness.SimConfig(n_bits=N_FULL)


@pytest.fixture(scope="module")
def table1(base_cfg):
    return harness.run_table1(base_cfg)


@pytest.fixture(scope="module")
def zero_injection_cells(base_cfg):
    table = harness.run_table1(base_cfg, levels=(0.0,))
    return {cell.variant_lbl: cell for cell in table.cells}


@pytest.fixture(scope="module")
def defense_run(base_cfg):
    cfg = replace(base_cfg, n_bits=1020, variant=Cable(1000.0, 10))
    return harness.run_defense_experiment(cfg, n_calibration=20)


@pytest.fixture(scope="module")
def privacy_run(base_cfg):
    return harness.run_privacy_experiment(base_cfg)


def test_criterion_1_success_probability_grid(table1):
    checks = []
    for level, target in IDEAL_TARGETS.items():
        p = table1.cell("ideal", level).p_e
        checks.append(abs(p - target) <= TOL_CELL)
    ideal_measured = {lvl: table1.cell("ideal", lvl).p_e for lvl in table1.levels}
    for variant_lbl in ("cable_100m", "cable_1000m_killer"):
        for level in table1.levels:
            p = table1.cell(variant_lbl, level).p_e
            checks.append(abs(p - ideal_measured[level]) <= TOL_CELL)
    for level, target in KM_TARGETS.items():
        p = table1.cell("cable_1000m", level).p_e
        checks.append(abs(p - target) <= TOL_CELL)
    runtime_ok = table1.elapsed_s < 600.0
    checks.append(runtime_ok)
    detail = (
        "ideal="
        + "/".join(f"{ideal_measured[l]:.3f}" for l in table1.levels)
        + f" 1000m="
        + "/".join(f"{table1.cell('cable_1000m', l).p_e:.3f}" for l in table1.levels)
        + f" grid {table1.elapsed_s:.0f}s"
    )
    ok = _report(1, "success-probability grid", all(checks), detail)
    assert ok, detail


def test_criterion_2_perfect_security_baseline(zero_injection_cells):
    values = {lbl: c.p_e for lbl, c in zero_injection_cells.items()}
    ok = all(0.485 <= p <= 0.515 for p in values.values())
    detail = " ".join(f"{k}={v:.4f}" for k, v in values.items())
    assert _report(2, "zero-injection baseline", ok, detail), values


def test_criterion_3_privacy_amplification_chain(privacy_run):
    stages = privacy_run.stages
    checks = [
        abs(stages[1].p_e - 0.530) <= 0.02,
        abs(stages[2].p_e - 0.502) <= 0.015,
        stages[1].key_length == N_FULL // 2,
        stages[2].key_length == N_FULL // 4,
    ]
    # pipeline and closed form must agree within 3 binomial sigma
    for stage, predicted in zip(stages[1:], privacy_run.closed_form):
        sigma = math.sqrt(max(predicted * (1 - predicted), 1e-12) / stage.key_length)
        checks.append(abs(stage.p_e - predicted) <= 3.0 * sigma)
    detail = (
        f"chain {stages[0].p_e:.4f} -> {stages[1].p_e:.4f} -> {stages[2].p_e:.4f}, "
        f"closed form -> {privacy_run.closed_form[0]:.4f} -> {privacy_run.closed_form[1]:.4f}"
    )
    assert _report(3, "privacy amplification", all(checks), detail), detail


def test_criterion_4_defense_efficacy(defense_run, base_cfg):
    d = defense_run
    checks = [
        d.detection_rate >= 0.99,
        d.median_latency_fraction is not None and d.median_latency_fraction <= 0.01,
        d.false_positive_rate < 0.01,
    ]
    # ideal variant: every injection exceeding the threshold caught at first crossing
    ideal_cfg = replace(base_cfg, n_bits=220, variant=Ideal())
    ideal_run = harness.run_defense_experiment(ideal_cfg, n_calibration=20)
    checks.append(ideal_run.detection_rate == 1.0)
    first_crossing_ok = True
    spec = attack.InjectionSpec(0.1, base_cfg.bandwidth_hz, base_cfg.master_seed)
    ideal_lh = replace(base_cfg, variant=Ideal(), selection_mode="fixed_lh", injection=spec)
    for k in range(5):
        dump = harness.run_single_bit(ideal_lh, k)
        i_inj = dump.u[2]
        thr = math.sqrt(float(np.mean(np.square(i_inj))))
        # ideal wire: the residual is the instantaneous comparison i_cha - i_chb
        residuals = defense.residual_rows(dump.y[None], Ideal(), ideal_lh.sample_rate_hz)[0]
        first, _ = defense.detect(residuals, defense.DetectionConfig(thr))
        expected = int(np.flatnonzero(np.abs(i_inj) > thr)[0])
        first_crossing_ok &= int(first) == expected
    checks.append(first_crossing_ok)
    detail = (
        f"rate={d.detection_rate:.4f} fp={d.false_positive_rate:.4f} "
        f"median latency={d.median_latency_fraction:.4f} of tau, ideal rate="
        f"{ideal_run.detection_rate:.3f}"
    )
    assert _report(4, "defense efficacy", all(checks), detail), detail


def test_criterion_5_model_self_consistency(defense_run):
    ratio = defense_run.clean_residual_ratio
    ok = ratio <= 1e-6
    assert _report(5, "model self-consistency", ok, f"worst residual/channel rms = {ratio:.3e}"), ratio


def test_criterion_6_physics_property_suite(zero_injection_cells, table1):
    scipy_stats = pytest.importorskip("scipy.stats")
    scipy_signal = pytest.importorskip("scipy.signal")
    checks = {}

    # superposition of the cable solver to 1e-10 relative
    fs, bw = 2000.0, 250.0
    u_a, u_b, inj = synth_band_limited_gaussian([301, 302, 303], [1.0, 3.0, 3e-5], 200, fs, bw)
    zero = np.zeros(len(u_a))
    loop_cfg = LoopConfig(1000.0, 9000.0)
    # one batch: full drive, the two generators alone, the injection alone
    u = np.array([[u_a, u_b, inj], [u_a, u_b, zero], [zero, zero, inj]])
    full, sources, injection = circuit.solve_rows(u, Cable(1000.0, 10), loop_cfg, 1.0 / fs)
    sup_err = max(
        np.max(np.abs(f - s - i)) / np.max(np.abs(f))
        for f, s, i in zip(full, sources, injection)  # each of the four end rows
    )
    checks["superposition<=1e-10"] = sup_err <= 1e-10

    # divider fractions for the reference pair: a node-injected current splits r_b : r_a
    # toward the ends, 0.9 toward Alice's and 0.1 toward Bob's (negative in the Loop convention)
    alone = circuit.solve_rows(u[2:], Ideal(), loop_cfg, 1.0 / fs)[0]
    checks["divider(0.9,0.1)"] = np.allclose(alone[0], 0.9 * inj, rtol=1e-12) and np.allclose(
        alone[1], -0.1 * inj, rtol=1e-12
    )

    # killer variant end-current mismatch over a 10 s run
    big_a, big_b = synth_band_limited_gaussian([304, 305], [1.0, 3.0], 20000, fs, bw)
    big_u = np.array([[big_a, big_b, np.zeros(len(big_a))]])
    killer_out = circuit.solve_rows(big_u, CableWithKiller(1000.0, 10), loop_cfg, 1.0 / fs)[0]
    mismatch = np.max(np.abs(killer_out[0] - killer_out[1]))
    i_rms = math.sqrt(float(np.mean(np.square(killer_out[0]))))
    checks["killer mismatch<=1e-6*rms"] = mismatch <= 1e-6 * i_rms

    # noise generator contracts: moments and spectrum
    x = synth_band_limited_gaussian([306], 1.0, 200000, fs, bw)[0]
    m2 = np.mean(x**2)
    checks["noise rms in 2%"] = 0.98 <= math.sqrt(m2) <= 1.02
    checks["noise skew/kurt"] = (
        abs(np.mean(x**3) / m2**1.5) < 0.1 and abs(np.mean(x**4) / m2**2 - 3) < 0.1
    )
    freqs, psd = scipy_signal.welch(x, fs=fs, nperseg=1024)
    res = freqs[1] - freqs[0]
    in_band = (freqs > 2 * res) & (freqs < bw - 2 * res)
    ref = np.median(psd[in_band])
    flat = np.all(np.abs(10 * np.log10(psd[in_band] / ref)) <= 1.0)
    above = (freqs > 2 * bw - 10) & (freqs < 2 * bw + 10)
    attenuated = np.all(10 * np.log10(psd[above] / ref) <= -40.0)
    checks["noise spectrum"] = bool(flat and attenuated)

    # honest inference on kept bits, clean and under the strongest attack
    for lbl, cell in zero_injection_cells.items():
        checks[f"honest>=99% {lbl}"] = cell.honest_error_rate <= 0.01
    checks["honest>=99% ideal@10%"] = table1.cell("ideal", 0.1).honest_error_rate <= 0.01

    # indistinguishability of LH vs HL measurement statistics without attack
    cell = zero_injection_cells["ideal"]
    is_lh = np.array([c is protocol.BitClass.SECURE_LH for c in cell.classifications])
    for name, values in (("u", cell.msq_u_a), ("i", cell.msq_i_a)):
        stat = scipy_stats.ks_2samp(values[is_lh], values[~is_lh])
        checks[f"KS {name} p>0.01"] = stat.pvalue > 0.01

    failed = [k for k, v in checks.items() if not v]
    assert _report(6, "physics property suite", not failed, f"failed: {failed}" if failed else "all properties hold"), failed


def test_criterion_7_determinism(tmp_path):
    cfg = harness.SimConfig(n_bits=60, master_seed=321, variant=Cable(100.0, 10))

    def produce(out_dir, workers):
        c = replace(cfg, workers=workers)
        report = harness.ExperimentReport(config=c)
        report.table = harness.run_table1(
            c, levels=(0.1,), variants=[Ideal(), Cable(100.0, 10)]
        )
        report.privacy_result = harness.run_privacy_experiment(replace(c, n_bits=64))
        return harness.write_report(report, str(out_dir))

    produce(tmp_path / "a", workers=1)
    produce(tmp_path / "b", workers=1)
    produce(tmp_path / "c", workers=4)
    same = []
    for name in ("table1.csv", "privacy.csv"):
        same.append(filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False))
        same.append(filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name, shallow=False))
    ok = all(same)
    assert _report(7, "determinism", ok, "byte-identical across repeats and worker counts"), same
