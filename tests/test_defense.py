"""Detection defenses: ideal comparison, model-based residuals, calibration."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import circuit, harness, protocol
from kljnsim.attack import InjectionSpec, reference_rms_channel_current
from kljnsim.circuit import Cable, CableWithKiller, LoopConfig
from kljnsim.defense import (
    DetectionConfig,
    DetectionVerdict,
    calibrate_threshold,
    detect_residuals,
    _first_run_end,
    residual_rows,
)
from kljnsim.exceptions import ConfigError
from kljnsim.noise import NoiseSpec, synth_band_limited_gaussian

T_EFF = 7.25e16
BW = 250.0
FS = 2000.0
R_L, R_H = 1000.0, 9000.0


def _noise(rms_v, seed, duration=0.1):
    return synth_band_limited_gaussian(NoiseSpec(BW, FS, duration, rms_v, seed)).samples


def _johnson(r):
    return math.sqrt(4 * 1.380649e-23 * T_EFF * r * BW)


def _ideal_signals(seed, level=0.0):
    """Solved rows (i_cha, i_chb, u_cha, u_chb) of one ideal-wire exchange, and the injection."""
    u = np.zeros((3, int(0.1 * FS)))
    u[0], u[1] = _noise(_johnson(R_L), seed), _noise(_johnson(R_H), seed + 1)
    if level > 0:
        ref = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
        u[2] = _noise(level * ref, seed + 2)
    return circuit.solve_rows(u[None], LoopConfig(R_L, R_H), 1.0 / FS)[0], u[2]


def _residuals(y, loop_cfg):
    """Alice's and Bob's residual rows of one exchange: `residual_rows` on a batch of one."""
    return residual_rows(y[None], loop_cfg, FS)[0]


def _verdict(y, loop_cfg, det):
    return detect_residuals(list(_residuals(y, loop_cfg)), det)


def test_ideal_comparison_clean_loop_is_silent():
    out, _ = _ideal_signals(60)
    cfg = DetectionConfig(threshold=1e-12)
    verdict = _verdict(out, LoopConfig(R_L, R_H), cfg)
    assert not verdict.attacked
    assert verdict.first_detection_sample is None
    assert verdict.max_residual < 1e-16


def test_ideal_comparison_residual_is_the_injected_current():
    out, inj = _ideal_signals(61, level=0.1)
    cfg = DetectionConfig(threshold=float(np.sqrt(np.mean(inj**2))))
    res_a, res_b = _residuals(out, LoopConfig(R_L, R_H))
    np.testing.assert_allclose(res_a, inj, rtol=0, atol=1e-16)
    assert np.all(res_b == 0.0)
    verdict = detect_residuals([res_a, res_b], cfg)
    assert np.array_equal(verdict.residual_trace, res_a)
    # oracle: first sample where the injected current magnitude crosses
    expected_first = int(np.flatnonzero(np.abs(inj) > cfg.threshold)[0])
    assert verdict.attacked
    assert verdict.first_detection_sample == expected_first


def test_ideal_comparison_miss_when_threshold_above_peak():
    out, inj = _ideal_signals(62, level=0.1)
    cfg = DetectionConfig(threshold=2.0 * float(np.max(np.abs(inj))))
    verdict = _verdict(out, LoopConfig(R_L, R_H), cfg)
    assert not verdict.attacked


def test_detection_config_validation():
    with pytest.raises(ConfigError):
        DetectionConfig(threshold=0.0)
    with pytest.raises(ConfigError):
        DetectionConfig(threshold=1.0, consecutive_samples=0)


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        DetectionVerdict(
            attacked=True,
            first_detection_sample=None,
            max_residual=0.0,
            residual_trace=np.zeros(4),
        )


def _cable_records(seed, level, variant=Cable(1000.0, 10)):
    cfg = harness.SimConfig(
        n_bits=4, variant=variant, selection_mode="fixed_lh", master_seed=seed
    )
    inj = InjectionSpec(level, BW, seed) if level > 0 else None
    streams = harness.derive_bit_streams(cfg.master_seed, 0)
    exchange = (0, streams, protocol.choices_for_bit(cfg, streams))
    return cfg, protocol.run_exchanges(cfg, [exchange], inj)[0]


def test_model_self_consistency_on_clean_run():
    cfg, rec = _cable_records(70, 0.0)
    i_rms = float(np.sqrt(np.mean(rec.y[0] ** 2)))
    res_a, res_b = _residuals(rec.y, rec.loop_cfg)
    assert math.sqrt(np.mean(res_a**2)) <= 1e-6 * i_rms
    assert math.sqrt(np.mean(res_b**2)) <= 1e-6 * i_rms


@pytest.mark.parametrize("n_segments", [2, 3, 10])
@pytest.mark.parametrize("variant_type", [Cable, CableWithKiller])
def test_in_site_simulation_reproduces_clean_channel(variant_type, n_segments):
    """Guard on the shared assembly: the defense's cable is the channel's cable.

    Checked on one noise pair and on a batch of 16 pairs solved together.
    """
    variant = variant_type(1000.0, n_segments)
    loop_cfg = LoopConfig(R_L, R_H, variant)
    for batch in (1, 16):
        u = np.zeros((batch, 3, int(0.1 * FS)))
        for k in range(batch):
            u[k, 0] = _noise(_johnson(R_L), 80 + 2 * k)
            u[k, 1] = _noise(_johnson(R_H), 81 + 2 * k)
        measured = circuit.solve_rows(u, loop_cfg, 1.0 / FS)
        for y, residuals in zip(measured, residual_rows(measured, loop_cfg, FS)):
            i_rms = float(np.sqrt(np.mean(y[0] ** 2)))
            assert np.max(np.abs(residuals)) <= 1e-12 * i_rms


def test_model_residual_visible_under_attack():
    cfg, rec = _cable_records(71, 0.1)
    res_a, _ = _residuals(rec.y, rec.loop_cfg)
    inj_rms = float(np.sqrt(np.mean(rec.u[2] ** 2)))
    assert math.sqrt(np.mean(res_a**2)) > 0.2 * inj_rms


def test_residual_sum_reconstructs_injected_current():
    # the two end residuals are the injection split by the cable alone;
    # their difference in the loop convention recovers the injected waveform
    cfg, rec = _cable_records(72, 0.1)
    res_a, res_b = _residuals(rec.y, rec.loop_cfg)
    recon = res_a - res_b
    err = np.sqrt(np.mean((recon - rec.u[2]) ** 2))
    assert err <= 0.05 * np.sqrt(np.mean(rec.u[2] ** 2))


def test_in_site_simulation_zero_in_zero_out():
    loop_cfg = LoopConfig(R_L, R_H, Cable(1000.0, 10))
    # zero end voltages: the in-site simulation draws zero current
    assert np.all(residual_rows(np.zeros((1, 4, 100)), loop_cfg, FS) == 0.0)


def test_model_based_detect_trivial_equality():
    # measured currents that are exactly the in-site simulation leave zero
    # residual; Eve's reading (Bob's end negated) does not
    cfg, rec = _cable_records(73, 0.0)
    model = circuit.model_for_variant(cfg.variant)
    measured = rec.y.copy()
    measured[:2] = circuit.transient_solver(model, None, 1.0 / FS).solve(rec.y[None, 2:])[0]
    verdict = _verdict(measured, rec.loop_cfg, DetectionConfig(threshold=1e-9))
    assert not verdict.attacked
    assert verdict.max_residual == 0.0
    measured[1] = -measured[1]
    assert _verdict(measured, rec.loop_cfg, DetectionConfig(threshold=1e-9)).attacked


def test_model_based_detect_fires_fast_under_attack():
    cfg, rec = _cable_records(74, 0.1)
    verdict = _verdict(rec.y, rec.loop_cfg, DetectionConfig(threshold=3.2e-13))
    assert verdict.attacked
    assert verdict.latency_fraction <= 0.01


def test_detection_power_ordering_at_fixed_threshold():
    det = DetectionConfig(threshold=2e-5)  # between the 1% and 10% residual scales
    rates = []
    for level in (0.1, 0.01, 0.001):
        detected = 0
        n = 20
        for k in range(n):
            cfg, rec = _cable_records(200 + k, level)
            detected += _verdict(rec.y, rec.loop_cfg, det).attacked
        rates.append(detected / n)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > rates[2]


def test_calibrate_threshold_contract():
    with pytest.raises(ConfigError):
        calibrate_threshold([np.zeros(10)], multiplier=0.0)
    with pytest.raises(ValueError):
        calibrate_threshold([])
    # zero residuals (ideal system): threshold is an epsilon above zero
    det = calibrate_threshold([np.zeros(100) for _ in range(10)])
    assert 0.0 < det.threshold < 1e-300
    # with a channel reference the numerical floor engages
    det = calibrate_threshold(
        [np.zeros(100) for _ in range(10)], reference_rms=3.16e-4
    )
    assert det.threshold == pytest.approx(1e-9 * 3.16e-4, rel=1e-12)
    # a genuinely noisy pool dominates the floor
    rng = np.random.default_rng(0)
    noisy = [rng.standard_normal(100) * 1e-6 for _ in range(10)]
    det = calibrate_threshold(noisy, multiplier=5.0, reference_rms=3.16e-4)
    pooled = np.concatenate(noisy)
    assert det.threshold == pytest.approx(5.0 * np.sqrt(np.mean(pooled**2)), rel=1e-12)


def test_consecutive_sample_requirement():
    residual = np.zeros(50)
    residual[10] = 1.0  # isolated spike
    residual[20:23] = 1.0  # sustained crossing
    det1 = detect_residuals([residual], DetectionConfig(0.5, 1))
    det3 = detect_residuals([residual], DetectionConfig(0.5, 3))
    assert det1.first_detection_sample == 10
    assert det3.first_detection_sample == 22


def _first_run_end_loop(above, run):
    """The per-sample loop that `_first_run_end` replaced: the oracle."""
    count = 0
    for i, flag in enumerate(above):
        count = count + 1 if flag else 0
        if count >= run:
            return i
    return None


@given(above=st.lists(st.booleans(), max_size=64), run=st.integers(1, 72))
@example(above=[], run=1)
@example(above=[False] * 20, run=1)
@example(above=[False] * 20, run=4)
@example(above=[True] * 20, run=1)
@example(above=[True] * 20, run=20)
@example(above=[True] * 20, run=21)
@settings(max_examples=300, deadline=None)
def test_first_run_end_matches_loop(above, run):
    assert _first_run_end(np.array(above, dtype=bool), run) == _first_run_end_loop(above, run)
