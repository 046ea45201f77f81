"""Eve's correlators, decision rule and the validated closed-form oracle."""
import math
from dataclasses import replace

import numpy as np
import pytest

from kljnsim import circuit, harness, protocol
from kljnsim.attack import (
    InjectionSpec,
    analytic_ideal_success_probability,
    correlate,
    eve_decide,
    reference_rms_channel_current,
    success_probability,
)
from kljnsim.exceptions import ConfigError, ShapeMismatchError
from kljnsim.noise import synth_band_limited_gaussian

from solve import solve_rows

T_EFF = 7.25e16
BW = 250.0
R_L, R_H = 1000.0, 9000.0


def test_reference_rms_channel_current_value():
    # oracle: generator mean square 4kT(R_L+R_H)B over the loop resistance squared
    expected = math.sqrt(4.0 * 1.380649e-23 * T_EFF * BW / 10_000.0)
    got = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(3.16e-4, abs=5e-7)


def test_reference_rms_scaling_and_limit():
    base = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
    assert reference_rms_channel_current(R_L, R_H, 2 * T_EFF, BW) == pytest.approx(
        base * math.sqrt(2.0), rel=1e-12
    )
    assert reference_rms_channel_current(1e30, 1e30, T_EFF, BW) < 1e-12
    with pytest.raises(ValueError):
        reference_rms_channel_current(-1.0, R_H, T_EFF, BW)


def test_injection_spec_validation():
    with pytest.raises(ConfigError):
        InjectionSpec(0.0, BW)
    with pytest.raises(ConfigError):
        InjectionSpec(1.0, BW)
    with pytest.raises(ConfigError):
        InjectionSpec(0.1, -1.0)


def _noise(rms_v, seeds, duration=0.1):
    """One 2 kHz row per seed, shape (k, t)."""
    return synth_band_limited_gaussian(seeds, rms_v, round(duration * 2000.0), 2000.0, BW)


def test_correlate_self_is_mean_square():
    w = _noise(2.5e-5, [17])
    assert correlate(w, w)[0] == pytest.approx(float(np.mean(w**2)), rel=1e-14)


def test_correlate_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        correlate(_noise(1e-5, [1]), _noise(1e-5, [2], duration=0.2))


def test_correlate_independent_inputs_within_variance_bound():
    tau = 0.1
    trials = 200
    a = _noise(1.0, range(3000, 3000 + trials))
    rho = correlate(a, _noise(1.0, range(9000, 9000 + trials)))
    bound = 4.0 / math.sqrt(2.0 * BW * tau)
    assert np.count_nonzero(np.abs(rho) < bound) >= 0.95 * trials


def test_correlate_mixed_signal_expectation():
    # i_ch = 0.9 * i_inj + independent noise; expectation 0.9 * <i_inj^2>
    sigma = 3e-5
    inj = _noise(sigma, range(100_000, 101_000))
    other = _noise(sigma, range(500_000, 501_000))
    vals = correlate(inj, 0.9 * inj + other)
    expected = 0.9 * sigma**2
    sem = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - expected) <= 3.0 * sem


def _no_coin(rows):
    raise AssertionError(f"coin consulted for rows {rows}")


def test_eve_decide_rule_and_ties():
    # key bits: LH -> 0, HL -> 1
    assert eve_decide(np.array([0.9]), np.array([0.1]), _no_coin).tolist() == [0]
    assert eve_decide(np.array([0.1]), np.array([0.9]), _no_coin).tolist() == [1]
    rng = np.random.default_rng(5)
    flips = eve_decide(
        np.full(2000, 0.5), np.full(2000, 0.5), lambda rows: rng.integers(0, 2, len(rows))
    )
    assert 0.45 <= np.mean(flips == 0) <= 0.55


def test_eve_decide_consults_its_coin_only_on_zero_differences():
    rho_a = np.array([0.9, 0.5, -0.0, 1e-300, 0.0, 2.0])
    rho_b = np.array([0.1, 0.5, 0.0, 0.0, 1e-300, 2.0])
    asked = []

    def coin(rows):
        asked.append(rows.tolist())
        return np.ones(len(rows), dtype=np.uint8)

    bits = eve_decide(rho_a, rho_b, coin)
    assert asked == [[1, 2, 5]]
    assert bits.tolist() == [0, 1, 1, 0, 1, 1]


def test_success_probability_trivials():
    p, se = success_probability(np.ones(10))
    assert p == 1.0 and se == 0.0
    p, se = success_probability(np.array([1, 0, 1, 0]))
    assert p == 0.5
    assert se == pytest.approx(math.sqrt(0.25 / 4), rel=1e-12)
    with pytest.raises(ValueError):
        success_probability(np.array([]))


def test_synth_injection_level_scaling():
    ref = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
    cfg = harness.SimConfig(tau_s=10.0)
    i_inj = protocol.injection_rows(cfg, np.array([4]), [0.1])
    measured = math.sqrt(float(np.mean(i_inj[0, 0] ** 2)))
    assert measured == pytest.approx(0.1 * ref, rel=0.03)


def _run_fixed_arrangement(r_a, r_b, level, n_bits, master):
    """Direct mini-pipeline over the ideal loop at a pinned arrangement."""
    ref = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
    from kljnsim.noise import johnson_rms_voltage

    seeds = harness._noise_seeds(master, np.arange(n_bits))
    u = np.stack(
        [
            _noise(johnson_rms_voltage(r_a, T_EFF, BW), seeds[:, 0]),
            _noise(johnson_rms_voltage(r_b, T_EFF, BW), seeds[:, 1]),
            _noise(level * ref, seeds[:, 2]),
        ],
        axis=1,
    )
    y = solve_rows(u, circuit.Ideal(), circuit.LoopConfig(r_a, r_b), 1.0 / 2000.0)
    # Eve's view: Alice's end as solved, Bob's end negated
    return correlate(u[:, 2], y[:, 0]) - correlate(u[:, 2], -y[:, 1])


def test_side_symmetry_of_correlator_difference():
    n = 400
    rho_lh = _run_fixed_arrangement(R_L, R_H, 0.1, n, master=42)
    rho_hl = _run_fixed_arrangement(R_H, R_L, 0.1, n, master=42)
    sigma = reference_rms_channel_current(R_L, R_H, T_EFF, BW)
    expected = 0.8 * (0.1 * sigma) ** 2  # divider asymmetry times injected power
    sem = np.std(rho_lh) / math.sqrt(n)
    assert np.mean(rho_lh) == pytest.approx(expected, abs=3 * sem)
    assert np.mean(rho_hl) == pytest.approx(-expected, abs=3 * sem)


def test_closed_form_against_normal_cdf_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    for level in (0.001, 0.01, 0.1):
        z = 0.8 * level * math.sqrt(2 * BW * 0.1) / 2.0
        assert analytic_ideal_success_probability(
            level, R_L, R_H, BW, 0.1
        ) == pytest.approx(float(scipy_stats.norm.cdf(z)), rel=1e-12)
    # frozen values from the derivation
    assert analytic_ideal_success_probability(0.001, R_L, R_H, BW, 0.1) == pytest.approx(0.50113, abs=1e-4)
    assert analytic_ideal_success_probability(0.01, R_L, R_H, BW, 0.1) == pytest.approx(0.51128, abs=1e-4)
    assert analytic_ideal_success_probability(0.1, R_L, R_H, BW, 0.1) == pytest.approx(0.61135, abs=1e-4)


def _cell_config(cfg, variant, level):
    """`cfg` on `variant`, injecting at `level` (0: no injection)."""
    injection = InjectionSpec(level, cfg.bandwidth_hz) if level > 0 else None
    return replace(cfg, variant=variant, injection=injection)


def test_closed_form_matches_monte_carlo():
    cfg = harness.SimConfig(n_bits=4000, master_seed=77)
    cell = harness.run_attack_cell(_cell_config(cfg, circuit.Ideal(), 0.1))
    predicted = analytic_ideal_success_probability(0.1, R_L, R_H, BW, 0.1)
    assert abs(cell.p_e - predicted) <= 3.0 * math.sqrt(predicted * (1 - predicted) / cell.n)


def test_success_monotone_in_level():
    cfg = harness.SimConfig(n_bits=2500, master_seed=88)
    grid = harness.run_table1(cfg, levels=(0.01, 0.1), variants=[circuit.Ideal()])
    p_small, p_large = (cell.p_e for cell in grid.cells)
    assert p_large - p_small > 0.06


def test_zero_injection_is_a_coin_flip():
    cfg = harness.SimConfig(n_bits=2000, master_seed=99)
    cell = harness.run_attack_cell(_cell_config(cfg, circuit.Ideal(), 0.0))
    assert abs(cell.p_e - 0.5) <= 3.0 * math.sqrt(0.25 / cell.n)
    assert np.all(cell.rho_a == 0.0) and np.all(cell.rho_b == 0.0)
