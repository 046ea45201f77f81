"""Detection defenses: ideal comparison, model-based residuals, calibration."""
import itertools
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import circuit, harness
from kljnsim.attack import InjectionSpec, reference_rms_channel_current
from kljnsim.circuit import Cable, CableWithKiller, Ideal, LoopConfig
from kljnsim.defense import (
    NUMERICAL_FLOOR_FRACTION,
    DetectionConfig,
    calibrate_threshold,
    detect,
    residual_rows,
)
from kljnsim.exceptions import ConfigError
from kljnsim.noise import synth_band_limited_gaussian

T_EFF = 7.25e16
BW = 250.0
FS = 2000.0
R_L, R_H = 1000.0, 9000.0


def _noise(rms_v, seed, duration=0.1):
    return synth_band_limited_gaussian([seed], rms_v, round(duration * FS), FS, BW)[0]


def _johnson(r):
    return math.sqrt(4 * 1.380649e-23 * T_EFF * r * BW)


def _ideal_signals(seed, level=0.0):
    """Solved rows (i_cha, i_chb, u_cha, u_chb) of one ideal-wire exchange, and the injection."""
    u = np.zeros((3, int(0.1 * FS)))
    u[0], u[1] = _noise(_johnson(R_L), seed), _noise(_johnson(R_H), seed + 1)
    if level > 0:
        ref = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
        u[2] = _noise(level * ref, seed + 2)
    return circuit.solve_rows(u[None], Ideal(), LoopConfig(R_L, R_H), 1.0 / FS)[0], u[2]


def _residuals(y, wire):
    """Alice's and Bob's residual rows of one exchange: `residual_rows` on a batch of one."""
    return residual_rows(y[None], wire, FS)[0]


def _verdict(y, wire, det):
    """First firing sample (-1 if none) and peak |residual| of one exchange's two residual rows."""
    first, peak = detect(_residuals(y, wire), det)
    return int(first), float(peak)


def test_ideal_comparison_clean_loop_is_silent():
    out, _ = _ideal_signals(60)
    cfg = DetectionConfig(threshold=1e-12)
    first, peak = _verdict(out, Ideal(), cfg)
    assert first == -1
    assert peak < 1e-16


def test_ideal_comparison_residual_is_the_injected_current():
    out, inj = _ideal_signals(61, level=0.1)
    cfg = DetectionConfig(threshold=float(np.sqrt(np.mean(inj**2))))
    res_a, res_b = _residuals(out, Ideal())
    np.testing.assert_allclose(res_a, inj, rtol=0, atol=1e-16)
    assert np.all(res_b == 0.0)
    first, _ = detect(np.stack([res_a, res_b]), cfg)
    # oracle: first sample where the injected current magnitude crosses
    expected_first = int(np.flatnonzero(np.abs(inj) > cfg.threshold)[0])
    assert first == expected_first


def test_ideal_comparison_miss_when_threshold_above_peak():
    out, inj = _ideal_signals(62, level=0.1)
    cfg = DetectionConfig(threshold=2.0 * float(np.max(np.abs(inj))))
    first, _ = _verdict(out, Ideal(), cfg)
    assert first == -1


def test_detection_config_validation():
    with pytest.raises(ConfigError):
        DetectionConfig(threshold=0.0)
    with pytest.raises(ConfigError):
        DetectionConfig(threshold=1.0, consecutive_samples=0)


_Record = namedtuple("_Record", "u y wire")  # one exchange's drive and solved rows


def _cable_records(seed, level, variant=Cable(1000.0, 10)):
    inj = InjectionSpec(level, BW, seed) if level > 0 else None
    cfg = harness.SimConfig(
        n_bits=4, variant=variant, selection_mode="fixed_lh", master_seed=seed, injection=inj
    )
    dump = harness.run_single_bit(cfg)
    return cfg, _Record(dump.u, dump.y, variant)


def test_model_self_consistency_on_clean_run():
    cfg, rec = _cable_records(70, 0.0)
    i_rms = float(np.sqrt(np.mean(rec.y[0] ** 2)))
    res_a, res_b = _residuals(rec.y, rec.wire)
    assert math.sqrt(np.mean(res_a**2)) <= 1e-6 * i_rms
    assert math.sqrt(np.mean(res_b**2)) <= 1e-6 * i_rms


@pytest.mark.parametrize("n_segments", [2, 3, 10])
@pytest.mark.parametrize("variant_type", [Cable, CableWithKiller])
def test_in_site_simulation_reproduces_clean_channel(variant_type, n_segments):
    """Guard on the shared assembly: the defense's cable is the channel's cable.

    Checked on one noise pair and on a batch of 16 pairs solved together.
    """
    variant = variant_type(1000.0, n_segments)
    for batch in (1, 16):
        u = np.zeros((batch, 3, int(0.1 * FS)))
        for k in range(batch):
            u[k, 0] = _noise(_johnson(R_L), 80 + 2 * k)
            u[k, 1] = _noise(_johnson(R_H), 81 + 2 * k)
        measured = circuit.solve_rows(u, variant, LoopConfig(R_L, R_H), 1.0 / FS)
        for y, residuals in zip(measured, residual_rows(measured, variant, FS)):
            i_rms = float(np.sqrt(np.mean(y[0] ** 2)))
            assert np.max(np.abs(residuals)) <= 1e-12 * i_rms


def test_model_residual_visible_under_attack():
    cfg, rec = _cable_records(71, 0.1)
    res_a, _ = _residuals(rec.y, rec.wire)
    inj_rms = float(np.sqrt(np.mean(rec.u[2] ** 2)))
    assert math.sqrt(np.mean(res_a**2)) > 0.2 * inj_rms


def test_residual_sum_reconstructs_injected_current():
    # the two end residuals are the injection split by the cable alone;
    # their difference in the loop convention recovers the injected waveform
    cfg, rec = _cable_records(72, 0.1)
    res_a, res_b = _residuals(rec.y, rec.wire)
    recon = res_a - res_b
    err = np.sqrt(np.mean((recon - rec.u[2]) ** 2))
    assert err <= 0.05 * np.sqrt(np.mean(rec.u[2] ** 2))


def test_in_site_simulation_zero_in_zero_out():
    # zero end voltages: the in-site simulation draws zero current
    assert np.all(residual_rows(np.zeros((1, 4, 100)), Cable(1000.0, 10), FS) == 0.0)


def test_model_based_detect_trivial_equality():
    # measured currents that are exactly the in-site simulation leave zero
    # residual; Eve's reading (Bob's end negated) does not
    cfg, rec = _cable_records(73, 0.0)
    measured = rec.y.copy()
    system = circuit.loop_system(cfg.variant, None, 1.0 / FS)
    measured[:2] = circuit.solve_systems(system, rec.y[None, 2:])[0]
    first, peak = _verdict(measured, rec.wire, DetectionConfig(threshold=1e-9))
    assert first == -1
    assert peak == 0.0
    measured[1] = -measured[1]
    assert _verdict(measured, rec.wire, DetectionConfig(threshold=1e-9))[0] >= 0


def test_model_based_detect_fires_fast_under_attack():
    cfg, rec = _cable_records(74, 0.1)
    first, _ = _verdict(rec.y, rec.wire, DetectionConfig(threshold=3.2e-13))
    assert first >= 0
    assert first / rec.y.shape[-1] <= 0.01


def test_detection_power_ordering_at_fixed_threshold():
    det = DetectionConfig(threshold=2e-5)  # between the 1% and 10% residual scales
    rates = []
    for level in (0.1, 0.01, 0.001):
        detected = 0
        n = 20
        for k in range(n):
            cfg, rec = _cable_records(200 + k, level)
            detected += _verdict(rec.y, rec.wire, det)[0] >= 0
        rates.append(detected / n)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > rates[2]


def test_calibrate_threshold_contract():
    with pytest.raises(ConfigError):
        calibrate_threshold(np.zeros(10), multiplier=0.0)
    with pytest.raises(ValueError):
        calibrate_threshold(np.zeros((0, 100)))
    # zero residuals (ideal system): threshold is an epsilon above zero
    det = calibrate_threshold(np.zeros((10, 100)))
    assert 0.0 < det.threshold < 1e-300
    # with a channel reference the numerical floor engages
    det = calibrate_threshold(np.zeros((10, 100)), reference_rms=3.16e-4)
    assert det.threshold == pytest.approx(1e-9 * 3.16e-4, rel=1e-12)
    # a genuinely noisy pool dominates the floor
    rng = np.random.default_rng(0)
    noisy = rng.standard_normal((10, 100)) * 1e-6
    det = calibrate_threshold(noisy, multiplier=5.0, reference_rms=3.16e-4)
    assert det.threshold == pytest.approx(5.0 * np.sqrt(np.mean(noisy**2)), rel=1e-12)


@pytest.mark.parametrize(
    "variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10), circuit.Ideal()]
)
def test_calibration_over_two_chunks_matches_a_list_reference(variant):
    """150 calibration pairs span two chunks. The threshold and the traced pair equal, bit for
    bit, a reference that pools the clean rows as a list of rows joined by np.concatenate."""
    n_cal = 150
    cfg = harness.SimConfig(
        n_bits=300, master_seed=7, variant=variant, injection=InjectionSpec(0.1, BW)
    )
    result = harness.run_defense_experiment(cfg, n_calibration=n_cal)
    chunks = harness._used_chunks(cfg, cfg.n_bits, harness._CHUNK)
    payloads = [harness._defense_chunk(cfg, chunk) for chunk in itertools.islice(chunks, 2)]
    assert len(payloads[0]["index"]) < n_cal + 1 <= sum(len(p["index"]) for p in payloads)
    pairs = [pair for p in payloads for pair in p["residuals"]]  # (arm, end, t) each
    pool = [row for pair in pairs[:n_cal] for row in pair[0]]  # clean arm: Alice's, Bob's row
    rms = math.sqrt(float(np.mean(np.square(np.concatenate(pool)))))
    channel_rms = np.concatenate([p["channel_rms"] for p in payloads])[:n_cal]
    threshold = max(5.0 * rms, NUMERICAL_FLOOR_FRACTION * float(np.mean(channel_rms)))
    assert result.detection == DetectionConfig(threshold, 1)
    assert result.trace_clean[1].tobytes() == pairs[n_cal][0, 0].tobytes()
    assert result.trace_attacked[1].tobytes() == pairs[n_cal][1, 0].tobytes()


def test_consecutive_sample_requirement():
    residual = np.zeros(50)
    residual[10] = 1.0  # isolated spike
    residual[20:23] = 1.0  # sustained crossing
    first1, _ = detect(residual[None], DetectionConfig(0.5, 1))
    first3, _ = detect(residual[None], DetectionConfig(0.5, 3))
    assert first1 == 10
    assert first3 == 22


def _first_run_end_loop(above, run):
    """The per-sample loop that the detector's run test replaced: the oracle."""
    count = 0
    for i, flag in enumerate(above):
        count = count + 1 if flag else 0
        if count >= run:
            return i
    return None


@st.composite
def _residual_cases(draw):
    """Residual rows of shape (k, n_traces, t) around a threshold of 1, and a run length."""
    k, n, t = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 24))
    # +-1.0 sit exactly on the threshold, which the strict test does not count
    values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    flat = draw(st.lists(values, min_size=k * n * t, max_size=k * n * t))
    return np.array(flat).reshape(k, n, t), draw(st.integers(1, t + 8))


@given(case=_residual_cases())
@example(case=(np.array([[[0.5, 1.0, -1.0, 0.0]]]), 1))  # on the threshold: never fires
@example(case=(np.zeros((2, 2, 5)), 1))  # never fires, peak 0.0
@example(case=(np.full((1, 2, 4), -0.0), 1))  # peak 0.0, not -0.0
@example(  # traces that fire at different samples, the later one first
    case=(np.array([[[0, 0, 0, 2, 2], [0, -2, -2, 0, 0]], [[2, 0, 0, 0, 0], [0, 0, 0, 0, 2]]]), 1)
)
@example(
    case=(np.array([[[0, 0, 0, 2, 2], [0, -2, -2, 0, 0]], [[2, 0, 0, 0, 0], [0, 0, 0, 0, 2]]]), 2)
)
@example(case=(np.full((2, 2, 3), 2.0), 3))  # the run fills the trace
@example(case=(np.full((2, 2, 3), 2.0), 4))  # a run longer than the trace never fires
@example(case=(np.full((1, 1, 1), 2.0), 9))
@settings(max_examples=300, deadline=None)
def test_detect_matches_loop(case):
    residuals, run = case
    first, peak = detect(residuals, DetectionConfig(1.0, run))
    assert first.shape == peak.shape == residuals.shape[:1]
    for row, row_first, row_peak in zip(residuals, first.tolist(), peak.tolist()):
        ends = [_first_run_end_loop(np.abs(trace) > 1.0, run) for trace in row]
        fired = [end for end in ends if end is not None]
        assert row_first == (min(fired) if fired else -1)
        assert row_peak == max(float(np.max(np.abs(trace))) for trace in row)
    assert not np.signbit(peak).any()
