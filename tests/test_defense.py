"""Detection defenses: ideal comparison, model-based residuals, calibration."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import circuit, harness
from kljnsim.attack import InjectionSpec, reference_rms_channel_current
from kljnsim.circuit import Cable, CableWithKiller, Ideal, LoopConfig, SignConvention
from kljnsim.defense import (
    DetectionConfig,
    DetectionVerdict,
    calibrate_threshold,
    detect_residuals,
    _first_run_end,
    end_residuals,
    residual_rows,
    simulate_expected_currents,
)
from kljnsim.exceptions import ConfigError, ShapeMismatchError
from kljnsim.noise import NoiseSpec, Waveform, synth_band_limited_gaussian

T_EFF = 7.25e16
BW = 250.0
FS = 2000.0
R_L, R_H = 1000.0, 9000.0


def _noise(rms_v, seed, duration=0.1):
    return synth_band_limited_gaussian(NoiseSpec(BW, FS, duration, rms_v, seed))


def _johnson(r):
    return math.sqrt(4 * 1.380649e-23 * T_EFF * r * BW)


def _ideal_signals(seed, level=0.0):
    u_a, u_b = _noise(_johnson(R_L), seed), _noise(_johnson(R_H), seed + 1)
    inj = None
    if level > 0:
        ref = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
        inj = _noise(level * ref, seed + 2)
    out = circuit.solve_ideal_loop(u_a, u_b, LoopConfig(R_L, R_H), inj)
    return out, inj


def _verdict(signals, loop_cfg, det):
    return detect_residuals(list(end_residuals(signals, loop_cfg)), det, FS)


def test_ideal_comparison_clean_loop_is_silent():
    out, _ = _ideal_signals(60)
    cfg = DetectionConfig(threshold=1e-12)
    verdict = _verdict(out, LoopConfig(R_L, R_H), cfg)
    assert not verdict.attacked
    assert verdict.first_detection_sample is None
    assert verdict.max_residual < 1e-16


def test_ideal_comparison_residual_is_the_injected_current():
    out, inj = _ideal_signals(61, level=0.1)
    cfg = DetectionConfig(threshold=float(np.sqrt(np.mean(inj.samples**2))))
    res_a, res_b = end_residuals(out, LoopConfig(R_L, R_H))
    np.testing.assert_allclose(res_a, inj.samples, rtol=0, atol=1e-16)
    assert np.all(res_b == 0.0)
    verdict = detect_residuals([res_a, res_b], cfg, FS)
    assert np.array_equal(verdict.residual_trace.samples, res_a)
    # oracle: first sample where the injected current magnitude crosses
    expected_first = int(np.flatnonzero(np.abs(inj.samples) > cfg.threshold)[0])
    assert verdict.attacked
    assert verdict.first_detection_sample == expected_first


def test_ideal_comparison_miss_when_threshold_above_peak():
    out, inj = _ideal_signals(62, level=0.1)
    cfg = DetectionConfig(threshold=2.0 * float(np.max(np.abs(inj.samples))))
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
            residual_trace=Waveform(np.zeros(4), FS),
        )


def _cable_records(seed, level, variant=Cable(1000.0, 10)):
    cfg = harness.SimConfig(
        n_bits=4, variant=variant, selection_mode="fixed_lh", master_seed=seed
    )
    inj = InjectionSpec(level, BW, seed) if level > 0 else None
    from kljnsim import protocol

    streams = harness.derive_bit_streams(cfg.master_seed, 0)
    rec = protocol.run_bit_exchange(cfg, 0, streams, protocol.choices_for_bit(cfg, streams), inj)
    return cfg, rec


def test_model_self_consistency_on_clean_run():
    cfg, rec = _cable_records(70, 0.0)
    i_rms = float(np.sqrt(np.mean(rec.signals.i_cha.samples**2)))
    res_a, res_b = end_residuals(rec.signals, rec.loop_cfg)
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
        u = np.stack(
            [
                circuit.input_rows(
                    _noise(_johnson(R_L), 80 + 2 * k), _noise(_johnson(R_H), 81 + 2 * k)
                )
                for k in range(batch)
            ]
        )
        measured = circuit.solve_rows(u, loop_cfg, 1.0 / FS)
        for y, residuals in zip(measured, residual_rows(measured, loop_cfg, FS)):
            i_rms = float(np.sqrt(np.mean(y[0] ** 2)))
            assert np.max(np.abs(residuals)) <= 1e-12 * i_rms


def test_model_residual_visible_under_attack():
    cfg, rec = _cable_records(71, 0.1)
    res_a, _ = end_residuals(rec.signals, rec.loop_cfg)
    inj_rms = float(np.sqrt(np.mean(rec.injected.samples**2)))
    assert math.sqrt(np.mean(res_a**2)) > 0.2 * inj_rms


def test_residual_sum_reconstructs_injected_current():
    # the two end residuals are the injection split by the cable alone;
    # their difference in the loop convention recovers the injected waveform
    cfg, rec = _cable_records(72, 0.1)
    res_a, res_b = end_residuals(rec.signals, rec.loop_cfg)
    recon = res_a - res_b
    err = np.sqrt(np.mean((recon - rec.injected.samples) ** 2))
    assert err <= 0.05 * np.sqrt(np.mean(rec.injected.samples**2))


def test_simulate_expected_currents_zero_in_zero_out():
    model = circuit.build_cable_model(1000.0, 10)
    loop_cfg = LoopConfig(R_L, R_H, Cable(1000.0, 10))
    zero = Waveform(np.zeros(100), FS)
    star_a, star_b = simulate_expected_currents(model, loop_cfg, zero, zero)
    assert np.all(star_a.samples == 0.0)
    assert np.all(star_b.samples == 0.0)


def test_simulate_expected_currents_rejects_ideal():
    model = circuit.build_cable_model(1000.0, 10)
    zero = Waveform(np.zeros(8), FS)
    with pytest.raises(ConfigError):
        simulate_expected_currents(model, LoopConfig(R_L, R_H, Ideal()), zero, zero)


def test_model_based_detect_trivial_equality():
    # measured currents that are exactly the in-site simulation leave zero
    # residual, in either sign convention
    cfg, rec = _cable_records(73, 0.0)
    model = circuit.model_for_variant(cfg.variant)
    u_cha, u_chb = rec.signals.u_cha, rec.signals.u_chb
    star_a, star_b = simulate_expected_currents(model, rec.loop_cfg, u_cha, u_chb)
    measured = circuit.ChannelSignals(star_a, star_b, u_cha, u_chb)
    for signals in (measured, measured.to_convention(SignConvention.DIVIDER_FROM_INJECTION)):
        verdict = _verdict(signals, rec.loop_cfg, DetectionConfig(threshold=1e-9))
        assert not verdict.attacked
        assert verdict.max_residual == 0.0


def test_model_based_detect_fires_fast_under_attack():
    cfg, rec = _cable_records(74, 0.1)
    verdict = _verdict(rec.signals, rec.loop_cfg, DetectionConfig(threshold=3.2e-13))
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
            detected += _verdict(rec.signals, rec.loop_cfg, det).attacked
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
    det1 = detect_residuals([residual], DetectionConfig(0.5, 1), FS)
    det3 = detect_residuals([residual], DetectionConfig(0.5, 3), FS)
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
