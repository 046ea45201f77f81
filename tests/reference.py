"""An independent reference run of single exchanges.

Each exchange runs alone, from its streams as numpy itself derives them: stream s of
exchange i is `SeedSequence(entropy=(master_seed, i, s))`. A party's choice is
`default_rng` of its stream's `integers(0, 2)`, and each noise row is drawn from
`default_rng` of its stream's first uint64 state word, one row per generator, with its
spectrum built and inverse-transformed alone. The ideal wire is solved by its node
equation; a cable by stepping its discretized system (`circuit.loop_system`) one
sample at a time from the DC-consistent state. Decisions follow the paper's rules as
written here: the parties' two-hypothesis likelihood test, the sign of Eve's correlator
difference (her coin, stream 5, on a tie), and the defense's threshold on the residuals.

Every decision also returns its margin, its distance from the threshold relative to the
quantities compared, so that a caller can leave out decisions that roundoff may flip.
"""
import math

import numpy as np

from kljnsim import circuit

K_BOLTZMANN = 1.380649e-23  # J/K
ALICE_CHOICE, BOB_CHOICE, ALICE_NOISE, BOB_NOISE, EVE_NOISE, EVE_COIN = range(6)
NUMERICAL_FLOOR_FRACTION = 1e-9  # calibrated thresholds never drop below this x channel RMS


def _sequence(cfg, index, stream):
    return np.random.SeedSequence(entropy=(cfg.master_seed, int(index), stream))


def draw_bit(cfg, index, stream) -> int:
    return int(np.random.default_rng(_sequence(cfg, index, stream)).integers(0, 2))


def choices(cfg, index) -> tuple[float, float]:
    """Alice's and Bob's resistances at exchange `index`."""
    if cfg.selection_mode == "fixed_lh":
        return cfg.r_l, cfg.r_h
    return tuple(cfg.r_h if draw_bit(cfg, index, s) else cfg.r_l for s in (ALICE_CHOICE, BOB_CHOICE))


def noise_row(cfg, index, stream, rms) -> np.ndarray:
    """One band-limited Gaussian row of the stream's noise, scaled to `rms`: its in-band bins
    1 .. n_bins take the standard normal draws, real parts first, of the stream's seed."""
    t = cfg.samples_per_bit
    n_bins = math.floor(cfg.bandwidth_hz * t / cfg.sample_rate_hz)
    seed = _sequence(cfg, index, stream).generate_state(1, np.uint64)[0]
    real, imag = np.random.default_rng(seed).standard_normal((2, n_bins))
    spectrum = np.zeros(t // 2 + 1, dtype=complex)
    spectrum[1 : n_bins + 1] = real + 1j * imag
    # each sample's variance is 4 s^2 n_bins / t^2 for bins of unit-variance parts scaled by s
    return np.fft.irfft(spectrum * (rms * t / (2.0 * math.sqrt(n_bins))), t)


def drive(cfg, index, level) -> tuple[tuple[float, float], np.ndarray]:
    """Exchange `index`'s resistances and its drive rows (u_a, u_b, i_inj), shape (3, t), with
    Eve injecting `level` times the secure state's RMS loop current."""
    r = choices(cfg, index)
    four_ktb = 4.0 * K_BOLTZMANN * cfg.t_eff * cfg.bandwidth_hz
    u = np.zeros((3, cfg.samples_per_bit))
    for row, (stream, resistance) in enumerate(zip((ALICE_NOISE, BOB_NOISE), r)):
        u[row] = noise_row(cfg, index, stream, math.sqrt(four_ktb * resistance))
    if level > 0:
        u[2] = noise_row(cfg, index, EVE_NOISE, level * math.sqrt(four_ktb / (cfg.r_l + cfg.r_h)))
    return r, u


def reference_steps(system, u, x0):
    """Plain per-sample trapezoid stepping from x0.

    `u` holds the input rows, shape (n_inputs, t). Returns the states, shape
    (t, n_states), and the outputs, shape (t, n_outputs).
    """
    states = [x0]
    for k in range(1, u.shape[1]):
        states.append(
            system.p @ states[-1] + system.q_next @ u[:, k] + system.q_prev @ u[:, k - 1]
        )
    outs = [system.c_out @ x + system.d_out @ u[:, k] for k, x in enumerate(states)]
    return np.array(states), np.array(outs)


def solve(cfg, wire, r, u) -> np.ndarray:
    """The loop's (i_cha, i_chb, u_cha, u_chb) rows in the Loop convention, shape (4, t)."""
    r_a, r_b = r
    if isinstance(wire, circuit.Ideal):
        # node equation: (u_a - v) / r_a + (u_b - v) / r_b + i_inj = 0
        v = (u[0] * r_b + u[1] * r_a + u[2] * r_a * r_b) / (r_a + r_b)
        return np.stack([(v - u[0]) / r_a, (u[1] - v) / r_b, v, v])
    loop_cfg = circuit.LoopConfig(r_a, r_b, cfg.injection_position)
    system = circuit.loop_system(wire, loop_cfg, 1.0 / cfg.sample_rate_hz)
    return reference_steps(system, u, system.dc_gain @ u[:, 0])[1].T


def honest(cfg, r, y):
    """Alice's and Bob's inferred remote resistance, each with its margin: the two hypotheses'
    log-likelihood difference over their magnitudes."""
    four_ktb = 4.0 * K_BOLTZMANN * cfg.t_eff * cfg.bandwidth_hz
    msq = np.mean(y**2, axis=1)
    decided = []
    for own, msq_i, msq_u in ((r[0], msq[0], msq[2]), (r[1], msq[1], msq[3])):
        scores = []
        for cand in (cfg.r_l, cfg.r_h):
            s_i, s_u = four_ktb / (own + cand), four_ktb * own * cand / (own + cand)
            scores.append(-(msq_i / s_i + math.log(s_i)) - (msq_u / s_u + math.log(s_u)))
        low, high = scores
        margin = abs(high - low) / (abs(high) + abs(low))
        decided.append((cfg.r_h if high > low else cfg.r_l, margin))
    return decided


def eve(cfg, index, level, u, y):
    """Eve's key bit and its margin: 1 if more of her current flows toward Bob's end, her
    coin on a tie; without injection she reads nothing, and her coin decides exactly."""
    if level == 0:
        return draw_bit(cfg, index, EVE_COIN), math.inf
    # her node's view: Alice's end as solved, Bob's end negated
    rho_a, rho_b = np.mean(u[2] * y[0]), np.mean(u[2] * -y[1])
    if rho_a == rho_b:
        return draw_bit(cfg, index, EVE_COIN), 0.0
    return int(rho_a < rho_b), abs(rho_a - rho_b) / (abs(rho_a) + abs(rho_b))


def residuals(cfg, parties, y) -> np.ndarray:
    """Alice's and Bob's measured minus expected end currents, shape (2, t): the expected ones
    from the parties' wire driven by the measured end voltages."""
    if isinstance(parties, circuit.Ideal):
        return np.stack([y[0] - y[1], np.zeros(y.shape[1])])
    system = circuit.loop_system(parties, None, 1.0 / cfg.sample_rate_hz)
    expected = reference_steps(system, y[2:], system.dc_gain @ y[2:, 0])[1].T
    return y[:2] - expected


def threshold(cfg, clean_residuals, channel_rms, multiplier) -> float:
    """The calibrated threshold: `multiplier` x the pooled RMS of the clean residual rows,
    floored at NUMERICAL_FLOOR_FRACTION x the mean channel RMS."""
    pooled = math.sqrt(np.mean(np.square(clean_residuals)))
    return max(multiplier * pooled, NUMERICAL_FLOOR_FRACTION * float(np.mean(channel_rms)))


def detected(res, threshold_a):
    """Whether any residual sample's magnitude exceeds the threshold, and the margin: the
    peak's distance from the threshold relative to it."""
    peak = float(np.max(np.abs(res)))
    return peak > threshold_a, abs(peak - threshold_a) / threshold_a
