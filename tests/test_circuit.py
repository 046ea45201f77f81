"""Circuit solver: ideal loop arithmetic, ladder physics, conventions."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim import circuit, harness
from kljnsim.circuit import (
    Cable,
    CableWithKiller,
    Ideal,
    LoopConfig,
    check_segmentation,
    injection_node_index,
    loop_system,
    solve_systems,
)
from kljnsim.exceptions import ConfigError, ShapeMismatchError
from kljnsim.noise import synth_band_limited_gaussian

from reference import reference_steps
from solve import solve_rows

FS = 2000.0


def _const(value, n=32):
    return np.full(n, float(value))


def _noise(rms_v, seed, duration=0.1, fs=FS, bw=250.0):
    return synth_band_limited_gaussian([seed], rms_v, round(duration * fs), fs, bw)[0]


def _drive(u_a, u_b, inj=None):
    """Drive rows (u_a, u_b, i_inj), shape (3, t); no injection is a zero row."""
    return np.vstack([u_a, u_b, np.zeros(len(u_a)) if inj is None else inj])


def _solve(wire, cfg, u_a, u_b, inj=None):
    """One exchange through `solve.solve_rows`: rows (i_cha, i_chb, u_cha, u_chb), shape (4, t)."""
    return solve_rows(_drive(u_a, u_b, inj)[None], wire, cfg, 1.0 / FS)[0]


def _single_row_solve(system, u):
    """The one-row solve in column form: the row and seven zero rows as 8 columns, each map one
    product over all samples and one (m, m) @ (m, 8) product per sample step.

    `u` has shape (n_inputs, t); returns the outputs, shape (t, n_outputs). A
    batch of one must reproduce it bit for bit.
    """
    n_in, t = u.shape
    cols = np.zeros((n_in, t, 8))
    cols[..., 0] = u
    x = np.empty((t, system.n_states, 8))
    x[0] = system.dc_gain @ cols[:, 0]
    drive = system.q_next @ cols[:, 1:].reshape(n_in, -1)
    drive += system.q_prev @ cols[:, :-1].reshape(n_in, -1)
    drive = drive.reshape(system.n_states, t - 1, 8)
    for k in range(1, t):
        x[k] = system.p @ x[k - 1] + drive[:, k - 1]
    y = (system.d_out @ cols.reshape(n_in, -1)).reshape(-1, t, 8)
    y += (system.c_out @ x).swapaxes(0, 1)
    return y[..., 0].T


def test_ladder_scan_matches_reference_loop():
    rng = np.random.default_rng(3)
    m, t = 19, 200
    p = rng.standard_normal((m, m))
    p *= 0.95 / np.max(np.abs(np.linalg.eigvals(p)))  # keep the recurrence stable
    qu = rng.standard_normal((t - 1, 1, m))
    x0 = rng.standard_normal((1, m))
    x = np.empty((1, t, m, 1))
    x[0, 0] = x0.T
    got = circuit.ladder_scan(p[None], x, qu.transpose(2, 0, 1)[None])
    assert got.shape == (1, t, m, 1)
    expected = np.empty((t, m))
    expected[0] = x = x0[0]
    for k in range(1, t):
        x = p @ x + qu[k - 1, 0]
        expected[k] = x
    assert np.array_equal(got[0, :, :, 0], expected)


@pytest.mark.parametrize("batch", [1, 3, 17])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_batched_solve_matches_reference_steps(variant, batch):
    system = loop_system(variant, LoopConfig(1000.0, 9000.0), 1.0 / FS)
    u = np.stack(
        [
            _drive(_noise(1.0, 3 * k), _noise(3.0, 3 * k + 1), _noise(3e-5, 3 * k + 2))
            for k in range(batch)
        ]
    )
    y = solve_systems(system, u)
    assert y.shape == (batch, 4, u.shape[2])
    for row, out in zip(u, y):
        _, ref = reference_steps(system, row, system.dc_gain @ row[:, 0])
        np.testing.assert_allclose(out.T, ref, rtol=1e-10, atol=1e-18)
    if batch == 1:
        assert np.array_equal(y[0].T, _single_row_solve(system, u[0]))


def divider_fractions(r_a: float, r_b: float) -> tuple[float, float]:
    """Share of a node-injected current flowing toward each termination."""
    if r_a <= 0 or r_b <= 0:
        raise ValueError("resistances must be positive")
    total = r_a + r_b
    return r_b / total, r_a / total


def test_divider_fractions_reference_pair():
    f_a, f_b = divider_fractions(1000.0, 9000.0)
    assert f_a == pytest.approx(0.9, rel=1e-15)
    assert f_b == pytest.approx(0.1, rel=1e-15)


def test_divider_fractions_swap_antisymmetry():
    assert divider_fractions(1000.0, 9000.0) == divider_fractions(9000.0, 1000.0)[::-1]


@given(r=st.floats(1e-3, 1e9))
@settings(max_examples=50, deadline=None)
def test_divider_fractions_equal_resistors(r):
    f_a, f_b = divider_fractions(r, r)
    assert f_a == pytest.approx(0.5)
    assert f_a + f_b == pytest.approx(1.0)


def test_divider_fractions_rejects_non_positive():
    with pytest.raises(ValueError):
        divider_fractions(0.0, 100.0)


def test_ideal_loop_dc_drive():
    cfg = LoopConfig(1000.0, 9000.0)
    y = _solve(Ideal(), cfg, _const(1.0), _const(0.0))
    # Ohm's law oracle: 1 V across 10 kOhm, node at 0.9 V
    np.testing.assert_allclose(np.abs(y[0]), 1e-4, rtol=1e-12)
    np.testing.assert_allclose(y[2], 0.9, rtol=1e-12)
    np.testing.assert_allclose(y[3], 0.9, rtol=1e-12)
    np.testing.assert_allclose(y[0], y[1], rtol=1e-12)


def test_ideal_loop_injection_divider():
    # oracle: one-node nodal analysis, u = i * (ra || rb), shares rb/(ra+rb);
    # Eve's view is Alice's end as solved and Bob's end negated
    cfg = LoopConfig(1000.0, 9000.0)
    y = _solve(Ideal(), cfg, _const(0.0), _const(0.0), inj=_const(1e-3))
    np.testing.assert_allclose(y[0], 0.9e-3, rtol=1e-12)
    np.testing.assert_allclose(-y[1], 0.1e-3, rtol=1e-12)


def test_ideal_loop_injection_divider_swapped():
    cfg = LoopConfig(9000.0, 1000.0)
    y = _solve(Ideal(), cfg, _const(0.0), _const(0.0), inj=_const(1e-3))
    np.testing.assert_allclose(y[0], 0.1e-3, rtol=1e-12)
    np.testing.assert_allclose(-y[1], 0.9e-3, rtol=1e-12)


def test_ideal_loop_current_difference_equals_injection():
    cfg = LoopConfig(1000.0, 9000.0)
    u_a, u_b, inj = _noise(1.0, 1), _noise(3.0, 2), _noise(1e-4, 3)
    y = _solve(Ideal(), cfg, u_a, u_b, inj=inj)
    np.testing.assert_allclose(y[0] - y[1], inj, rtol=0, atol=1e-16)


@pytest.mark.parametrize("variant", [Ideal(), Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_solve_rows_rejects_non_finite_drive(variant):
    """A non-finite generator sample makes a chunk's solve raise, on every wire."""
    gen = np.stack([np.stack([_noise(1.0, 7), _noise(3.0, 8)]) for _ in range(3)])
    gen[1, 0, 5] = np.nan
    eve = np.zeros((1,) + gen[:, 0].shape)
    choices = np.tile([1000.0, 9000.0], (3, 1))
    slabs = harness._solved_slabs(harness.SimConfig(), choices, gen, eve, [variant])
    with pytest.raises(ShapeMismatchError):
        list(slabs)


def test_cable_totals():
    cable = Cable(1000.0, 10)
    assert cable.C_PER_M * cable.length_m == pytest.approx(100e-9, rel=1e-12)
    assert cable.total_series_resistance == pytest.approx(36.5, rel=1e-12)
    assert CableWithKiller(1000.0, 10).total_series_resistance == cable.total_series_resistance
    assert (Ideal().n_states, cable.n_states, CableWithKiller(1000.0, 10).n_states) == (0, 19, 1)


def test_cable_rejects_bad_segmentation():
    for wire in (Cable, CableWithKiller):
        with pytest.raises(ConfigError, match="n_segments"):
            wire(1000.0, 1)
        with pytest.raises(ConfigError, match="length_m"):
            wire(0.0, 10)
    with pytest.raises(ConfigError, match="RC corner"):
        # a long RG58 cable in two segments: the segment corner lies below 100x bandwidth
        check_segmentation(Cable(1e6, 2), 250.0)


def test_check_segmentation_uses_the_given_bandwidth():
    # 3 km segments: RC corner 4.84 kHz, above 100 x 10 Hz but below 100 x 250 Hz
    cable = Cable(30000.0, 10)
    check_segmentation(cable, 10.0)
    with pytest.raises(ConfigError, match="RC corner"):
        check_segmentation(cable, 250.0)
    # no shunt capacitance to lump: the ideal wire and the canceller always pass
    check_segmentation(Ideal(), 1e9)
    check_segmentation(CableWithKiller(30000.0, 2), 1e9)


def test_loop_systems_are_built_once_per_key():
    cfg = LoopConfig(1000.0, 9000.0)
    system = loop_system(Cable(1000.0, 10), cfg, 1.0 / FS)
    assert loop_system(Cable(1000.0, 10), replace(cfg), 1.0 / FS) is system
    assert loop_system(CableWithKiller(1000.0, 10), cfg, 1.0 / FS) is not system


@pytest.mark.parametrize(
    "variant", [Ideal(), Cable(100.0, 10), Cable(1000.0, 10), CableWithKiller(1000.0, 10)]
)
def test_each_output_reads_at_most_one_state(variant):
    """solve_systems multiplies the states by a contiguous copy of c_out, which rounds like
    the strided view only while each output is a single product."""
    if isinstance(variant, Ideal):  # solved in closed form, it has no system
        with pytest.raises(ConfigError, match="no transient state"):
            loop_system(variant, LoopConfig(1000.0, 9000.0), 1.0 / FS)
        return
    systems = [loop_system(variant, None, 1.0 / FS)]  # the defense's in-site simulation
    for r_a, r_b in ((1000.0, 9000.0), (9000.0, 1000.0), (1000.0, 1000.0), (9000.0, 9000.0)):
        for position in (0.0, 0.5, 1.0):
            cfg = LoopConfig(r_a, r_b, injection_position=position)
            systems.append(loop_system(variant, cfg, 1.0 / FS))
    for system in systems:
        assert system.c_out.shape[-1] == variant.n_states
        assert np.count_nonzero(system.c_out, axis=-1).max() <= 1


def test_injection_node_index_midpoint_and_clamping():
    v = Cable(1000.0, 10)
    assert injection_node_index(v, 0.5) == 5
    assert injection_node_index(v, 0.0) == 1
    assert injection_node_index(v, 1.0) == 9


def _run(variant, u_a, u_b, inj=None, r_a=1000.0, r_h=9000.0):
    return _solve(variant, LoopConfig(r_a, r_h), u_a, u_b, inj)


@pytest.mark.parametrize("position", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_segments", [2, 3, 4, 10])
@pytest.mark.parametrize("wire", [Cable, CableWithKiller])
def test_injection_reaches_the_loop_at_every_segment_count(wire, n_segments, position):
    """At DC steady state no shunt element carries current, so the end currents differ by
    exactly Eve's injected current, wherever she injects along any segmentation."""
    cable = wire(1000.0, n_segments)
    y = _solve(cable, LoopConfig(1000.0, 9000.0, position), _const(1.0), _const(0.0), _const(1e-3))
    np.testing.assert_allclose(y[0] - y[1], 1e-3, rtol=1e-9)


def test_killer_cable_matches_ideal_loop_closely():
    # series R (36.5 ohm of 10 kOhm loop) is the only deviation: ~0.4%
    u_a, u_b, inj = _noise(1.0, 11), _noise(3.0, 12), _noise(3e-5, 13)
    ideal = _run(Ideal(), u_a, u_b, inj)
    killer = _run(CableWithKiller(1000.0, 10), u_a, u_b, inj)
    for a, b in zip(ideal[:2], killer[:2]):  # i_cha, i_chb
        rel = np.sqrt(np.mean((a - b) ** 2) / np.mean(a**2))
        assert rel < 5e-3


def test_killer_cable_end_currents_match_without_attack():
    u_a = _noise(1.0, 21, duration=10.0)
    u_b = _noise(3.0, 22, duration=10.0)
    y = _run(CableWithKiller(1000.0, 10), u_a, u_b)
    mismatch = np.max(np.abs(y[0] - y[1]))
    i_rms = np.sqrt(np.mean(y[0] ** 2))
    assert mismatch <= 1e-6 * i_rms


def test_cable_superposition():
    variant = Cable(1000.0, 10)
    u_a, u_b, inj = _noise(1.0, 31), _noise(3.0, 32), _noise(3e-5, 33)
    zero = np.zeros(len(u_a))
    full = _run(variant, u_a, u_b, inj)
    sources = _run(variant, u_a, u_b)
    injection = _run(variant, zero, zero, inj)
    for got, summed in zip(full, sources + injection):  # each of the four end rows
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got - summed)) <= 1e-10 * scale


def test_cable_leak_charge_bookkeeping():
    """End-current mismatch equals the total shunt branch current, step by step."""
    cable = Cable(1000.0, 10)
    system = loop_system(cable, LoopConfig(1000.0, 9000.0), 1.0 / FS)
    u_a, u_b = _noise(1.0, 41), _noise(3.0, 42)
    n_caps = cable.n_segments - 1
    c_node = cable.C_PER_M * cable.length_m / n_caps
    u = _drive(u_a, u_b)
    states, outs = reference_steps(system, u, system.dc_gain @ u[:, 0])
    caps, inds = states[:, :n_caps], states[:, n_caps:]
    dt = 1.0 / FS
    for k in range(1, len(u_a)):
        # trapezoid-consistent bookkeeping: C dw/dt equals the average of the
        # net branch inflow (i_1 - i_n summed over nodes) at both interval ends
        shunt = np.sum(c_node * (caps[k] - caps[k - 1]) / dt)
        inflow_prev = inds[k - 1, 0] - inds[k - 1, -1]
        inflow_now = inds[k, 0] - inds[k, -1]
        assert shunt == pytest.approx((inflow_prev + inflow_now) / 2.0, abs=1e-9)
        # and the reported end-current mismatch is exactly that net inflow
        i_cha, i_chb = outs[k, 0], outs[k, 1]
        assert (i_cha - i_chb) == pytest.approx(-inflow_now, abs=1e-18)


def test_transient_zero_drive_stays_zero():
    system = loop_system(Cable(1000.0, 10), LoopConfig(1000.0, 9000.0), 1.0 / FS)
    assert np.all(solve_systems(system, np.zeros((1, 3, 50))) == 0.0)
    _, outs = reference_steps(system, np.zeros((3, 50)), np.zeros(system.n_states))
    assert np.all(outs == 0.0)


def test_transient_dc_steady_state():
    cable = Cable(1000.0, 10)
    system = loop_system(cable, LoopConfig(1000.0, 9000.0), 1.0 / FS)
    # oracle: resistive chain
    i_expected = 1.0 / (1000.0 + 9000.0 + cable.total_series_resistance)
    drive = _drive(np.ones(400), np.zeros(400))
    y = solve_systems(system, drive[None])[0]
    np.testing.assert_allclose(np.abs(y[0]), i_expected, rtol=1e-10)
    # the inconsistent zero start excites a zero-mean alternating mode; the
    # signed tail average still converges on the DC value
    _, outs = reference_steps(system, drive, np.zeros(system.n_states))
    tail = outs[-200:, 0]
    assert abs(abs(np.mean(tail)) - i_expected) / i_expected < 1e-3


class _LosslessCable(Cable):
    """RG58's inductance and capacitance without its series resistance."""

    R_PER_M = 0.0


def test_lossless_cable_energy_balance():
    """Delivered port energy (midpoint quadrature) equals stored LC energy."""
    cable = _LosslessCable(1000.0, 10)
    system = loop_system(cable, LoopConfig(1000.0, 9000.0, injection_position=0.5), 1.0 / FS)
    u_a, u_b, inj = _noise(1.0, 51), _noise(3.0, 52), _noise(3e-5, 53)
    dt = 1.0 / FS
    n_caps = cable.n_segments - 1
    c_node = cable.C_PER_M * cable.length_m / n_caps
    l_br = cable.L_PER_M * cable.length_m / cable.n_segments
    inj_node = injection_node_index(cable, 0.5)
    u = _drive(u_a, u_b, inj)
    u[:, 0] = 0.0  # zero initial state pairs with zero initial drive
    states, outs = reference_steps(system, u, np.zeros(system.n_states))
    caps, inds = states[:, :n_caps], states[:, n_caps:]
    v0 = outs[:, 2]  # u_cha is the terminal voltage
    vn = outs[:, 3]
    i1 = -outs[:, 0]  # loop convention: i_cha = -i_1
    i_n = -outs[:, 1]
    w_inj = caps[:, inj_node - 1]

    def midsum(a, b):
        return np.sum(dt * 0.5 * (a[1:] + a[:-1]) * 0.5 * (b[1:] + b[:-1]))

    delivered = midsum(v0, i1) - midsum(vn, i_n) + midsum(w_inj, u[2])
    stored = 0.5 * c_node * np.sum(caps[-1] ** 2) + 0.5 * l_br * np.sum(inds[-1] ** 2)
    assert delivered == pytest.approx(stored, rel=1e-3)


def test_segment_count_convergence():
    u_a, u_b, inj = _noise(1.0, 61), _noise(3.0, 62), _noise(3e-5, 63)
    coarse = _run(Cable(1000.0, 10), u_a, u_b, inj)
    fine = _run(Cable(1000.0, 20), u_a, u_b, inj)
    for a, b in zip(coarse[:2], fine[:2]):  # i_cha, i_chb
        rel = math.sqrt(np.mean((a - b) ** 2) / np.mean(a**2))
        assert rel < 1e-3


def test_run_matches_repeated_steps():
    system = loop_system(Cable(1000.0, 10), LoopConfig(1000.0, 9000.0), 1.0 / FS)
    u_a, u_b, inj = _noise(1.0, 71), _noise(3.0, 72), _noise(3e-5, 73)
    u = _drive(u_a, u_b, inj)
    y = solve_systems(system, u[None])[0]
    _, outs = reference_steps(system, u, system.dc_gain @ u[:, 0])
    for idx in range(4):  # i_cha, i_chb, u_cha, u_chb
        np.testing.assert_allclose(y[idx], outs[:, idx], rtol=1e-10, atol=1e-18)


@pytest.mark.parametrize("length_m", [1e-300, 1e-320])
def test_loop_system_rejects_unrepresentable_cable(length_m):
    # element values whose inverses overflow, or underflow to zero
    for cfg in (LoopConfig(1000.0, 9000.0), None):
        with pytest.raises(ConfigError):
            loop_system(Cable(length_m, 10), cfg, 1.0 / FS)


def test_loop_config_validation():
    with pytest.raises(ConfigError):
        LoopConfig(-1.0, 9000.0)
    with pytest.raises(ConfigError):
        LoopConfig(1000.0, 9000.0, injection_position=1.5)
