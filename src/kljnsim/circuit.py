"""Loop and cable electrical models for the key-exchange wire.

Four variants: an ideal single-node wire, a lumped RLC ladder for a practical
coaxial run (defaults match RG58 datasheet values) at any length, and the
ladder with the shunt-capacitance canceller ("capacitor killer", modeled as
the shunt capacitance removed while series R and L stay).

The ladder is n_segments series (R, L) branches with the shunt capacitance
lumped at the n_segments - 1 interior junctions. Keeping the terminal nodes
free of shunt elements lets a voltage-driven copy of the cable reproduce the
terminal currents exactly, which the model-based defense relies on.

Integration is trapezoidal (A-stable, second order, the SPICE default) with
each run starting from the DC-consistent state for the first input sample, so
no artificial start-up transient leaks into the statistics.

Sign convention
---------------
Every solve reports the Loop convention: positive current at both ends points
along the cable from Bob's end toward Alice's end; without injection the two
end currents are identical, and an ideal-wire injection makes i_cha - i_chb
equal the injected current. Eve reads the ends from the injection node
outward, so that her current enters both with positive sign: her view is
Alice's end as solved and Bob's end negated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import ConfigError, ShapeMismatchError

# RG58 coaxial per-unit defaults (datasheet-typical; configurable)
RG58_R_PER_M = 0.0365  # ohm/m
RG58_L_PER_M = 250e-9  # H/m
RG58_C_PER_M = 100e-12  # F/m
RG58_G_PER_M = 0.0  # S/m


@dataclass(frozen=True)
class Ideal:
    """Zero-length wire: the whole channel is one node."""


@dataclass(frozen=True)
class Cable:
    length_m: float
    n_segments: int = 10


@dataclass(frozen=True)
class CableWithKiller:
    length_m: float
    n_segments: int = 10


Variant = Ideal | Cable | CableWithKiller


@dataclass(frozen=True)
class LoopConfig:
    """Terminations and wire variant for one loop solve."""

    r_alice: float
    r_bob: float
    variant: Variant = Ideal()
    injection_position: float = 0.5

    def __post_init__(self):
        if self.r_alice <= 0 or self.r_bob <= 0:
            raise ConfigError("termination resistances must be positive")
        if not 0.0 <= self.injection_position <= 1.0:
            raise ConfigError("injection_position must lie in [0, 1]")


@dataclass(frozen=True)
class CableModel:
    """Lumped description of the practical cable."""

    r_per_m: float
    l_per_m: float
    c_per_m: float
    g_per_m: float
    length_m: float
    n_segments: int
    killer_enabled: bool

    @property
    def total_series_resistance(self) -> float:
        return self.r_per_m * self.length_m

    @property
    def total_series_inductance(self) -> float:
        return self.l_per_m * self.length_m

    @property
    def total_shunt_capacitance(self) -> float:
        return self.c_per_m * self.length_m


def build_cable_model(
    length_m: float,
    n_segments: int = 10,
    killer: bool = False,
    *,
    r_per_m: float = RG58_R_PER_M,
    l_per_m: float = RG58_L_PER_M,
    c_per_m: float = RG58_C_PER_M,
    g_per_m: float = RG58_G_PER_M,
    signal_bandwidth_hz: float = 250.0,
) -> CableModel:
    """Build a ladder model, checking that the segmentation is adequate.

    The per-segment RC corner must sit at least 100x above the signal
    bandwidth, otherwise the lumping would be too coarse for the band.
    """
    if length_m <= 0:
        raise ConfigError("length_m must be positive")
    if n_segments < 2:
        raise ConfigError("n_segments must be >= 2")
    if l_per_m <= 0:
        raise ConfigError("l_per_m must be positive")
    if r_per_m < 0 or g_per_m < 0:
        raise ConfigError("per-unit resistance and conductance cannot be negative")
    if killer:
        if g_per_m != 0.0:
            raise ConfigError("killer variant assumes zero shunt conductance")
    else:
        if c_per_m <= 0:
            raise ConfigError(
                "c_per_m must be positive for a plain cable; use killer=True "
                "for the cancelled-capacitance variant"
            )
        r_seg = r_per_m * length_m / n_segments
        c_seg = c_per_m * length_m / n_segments
        if r_seg * c_seg > 0:
            corner_hz = 1.0 / (2.0 * math.pi * r_seg * c_seg)
            if corner_hz < 100.0 * signal_bandwidth_hz:
                raise ConfigError(
                    f"per-segment RC corner {corner_hz:.3g} Hz is below "
                    f"100 x bandwidth ({100.0 * signal_bandwidth_hz:.3g} Hz); "
                    "increase n_segments"
                )
    return CableModel(
        r_per_m=r_per_m,
        l_per_m=l_per_m,
        c_per_m=c_per_m,
        g_per_m=g_per_m,
        length_m=length_m,
        n_segments=n_segments,
        killer_enabled=killer,
    )


def model_for_variant(variant: Variant) -> CableModel | None:
    """Default cable model for a loop variant (None for the ideal wire)."""
    if isinstance(variant, Ideal):
        return None
    return build_cable_model(
        variant.length_m, variant.n_segments, killer=isinstance(variant, CableWithKiller)
    )


def divider_fractions(r_a: float, r_b: float) -> tuple[float, float]:
    """Share of a node-injected current flowing toward each termination."""
    if r_a <= 0 or r_b <= 0:
        raise ValueError("resistances must be positive")
    total = r_a + r_b
    return r_b / total, r_a / total


def _ideal_rows(u: np.ndarray, cfg: LoopConfig) -> np.ndarray:
    """Closed form of the single-node loop, row-wise: inputs (B, 3, t), outputs (B, 4, t)."""
    g_a, g_b = 1.0 / cfg.r_alice, 1.0 / cfg.r_bob
    r_par = 1.0 / (g_a + g_b)
    u_a, u_b = u[:, 0], u[:, 1]
    u_ch = (u_a * g_a + u_b * g_b + u[:, 2]) * r_par
    y = np.empty((u.shape[0], 4, u.shape[2]))
    y[:, 0] = -((u_a - u_ch) * g_a)  # source -> node current, negated
    y[:, 1] = (u_b - u_ch) * g_b
    y[:, 2] = u_ch
    y[:, 3] = u_ch
    return y


@dataclass(frozen=True)
class _DiscreteSystem:
    """Trapezoid-discretized x' = A x + B u + B_d u'; y = C x + D u."""

    p: np.ndarray
    q_next: np.ndarray
    q_prev: np.ndarray
    c_out: np.ndarray
    d_out: np.ndarray
    dc_gain: np.ndarray  # x_dc = dc_gain @ u for frozen inputs
    dt: float

    @property
    def n_states(self) -> int:
        return self.p.shape[0]


def _discretize(a, b, b_deriv, c, d, dt) -> _DiscreteSystem:
    m = a.shape[0]
    h = dt / 2.0
    lhs = np.eye(m) - h * a
    p = np.linalg.solve(lhs, np.eye(m) + h * a)
    q_next = np.linalg.solve(lhs, h * b + b_deriv)
    q_prev = np.linalg.solve(lhs, h * b - b_deriv)
    dc_gain = np.linalg.solve(a, -b)
    return _DiscreteSystem(p, q_next, q_prev, c, d, dc_gain, dt)


def _assemble_ladder(model: CableModel, r_a: float, r_b: float, inj_node: int):
    """Forward system: inputs (u_a, u_b, i_inj), outputs loop-convention signals."""
    n = model.n_segments
    n_caps = n - 1
    r_br = model.r_per_m * model.length_m / n
    l_br = model.l_per_m * model.length_m / n
    c_node = model.c_per_m * model.length_m / n_caps
    g_node = model.g_per_m * model.length_m / n_caps
    m = n_caps + n
    a = np.zeros((m, m))
    b = np.zeros((m, 3))
    # cap rows: C dw_k/dt = i_k - i_{k+1} - G w_k + [k == inj] i_inj
    for k in range(1, n):
        row = k - 1
        a[row, n_caps + k - 1] += 1.0 / c_node
        a[row, n_caps + k] -= 1.0 / c_node
        a[row, row] -= g_node / c_node
        if k == inj_node:
            b[row, 2] += 1.0 / c_node
    # branch rows: L di_k/dt = w_{k-1} - w_k - R_k i_k, terminations folded in
    for k in range(1, n + 1):
        row = n_caps + k - 1
        r_k = r_br
        if k == 1:
            r_k += r_a
            b[row, 0] += 1.0 / l_br
        else:
            a[row, k - 2] += 1.0 / l_br
        if k == n:
            r_k += r_b
            b[row, 1] -= 1.0 / l_br
        else:
            a[row, k - 1] -= 1.0 / l_br
        a[row, row] -= r_k / l_br
    c = np.zeros((4, m))
    d = np.zeros((4, 3))
    c[0, n_caps] = -1.0  # i_cha (loop) = -i_1
    c[1, m - 1] = -1.0  # i_chb (loop) = -i_n
    c[2, n_caps] = -r_a  # u_cha = u_a - r_a i_1
    d[2, 0] = 1.0
    c[3, m - 1] = r_b  # u_chb = u_b + r_b i_n
    d[3, 1] = 1.0
    return a, b, np.zeros((m, 3)), c, d


def _assemble_killer(model: CableModel, r_a: float, r_b: float, inj_node: int):
    """Killer variant collapsed to two series RL halves split at the injection node.

    Single state: the current in the Alice-side half. The Bob-side half carries
    state + i_inj, whose time derivative enters through the right-half
    inductance; that term is handled exactly by the discretization.
    """
    n = model.n_segments
    left = inj_node / n
    r_tot = model.total_series_resistance
    l_tot = model.total_series_inductance
    r_right = r_tot * (1.0 - left)
    l_right = l_tot * (1.0 - left)
    r_loop = r_a + r_b + r_tot
    a = np.array([[-r_loop / l_tot]])
    b = np.array([[1.0, -1.0, -(r_right + r_b)]]) / l_tot
    b_deriv = np.array([[0.0, 0.0, -l_right / l_tot]])
    c = np.array([[-1.0], [-1.0], [-r_a], [r_b]])
    d = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, r_b],
        ]
    )
    return a, b, b_deriv, c, d


def injection_node_index(variant: Variant, injection_position: float) -> int:
    """Interior junction closest to the requested fraction of cable length."""
    if isinstance(variant, Ideal):
        return 0
    n = variant.n_segments
    return int(min(max(round(injection_position * n), 1), n - 1))


def ladder_scan(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Run the state recurrence x[k] = p @ x[k-1] + qu[k-1] in place, for a batch of rows.

    `x` is time-major, shape (t, B, m): on entry x[0] holds the B start
    states and x[k] the drive term qu[k-1]; on return it holds the state
    trajectory. Each sample step advances all B states with one
    (B, m) @ (m, m) product. Returns `x`.
    """
    p_t = np.asarray(p, dtype=np.float64).T
    for k in range(1, x.shape[0]):
        x[k] += x[k - 1] @ p_t
    return x


class TransientSolver:
    """Trapezoidal solver for the cable between its two end drives.

    With a LoopConfig the system is the whole loop: inputs (u_a, u_b, i_inj)
    are the generator voltages and the injected current, outputs are
    (i_cha, i_chb, u_cha, u_chb). With `cfg=None` it is the cable alone driven
    by its end voltages, the defense's in-site simulation: the same assembly
    with zero termination resistance and no injection, inputs (u_cha, u_chb),
    outputs (i_cha, i_chb). Both report the Loop convention.
    """

    def __init__(self, model: CableModel, cfg: LoopConfig | None, dt: float):
        if cfg is not None and isinstance(cfg.variant, Ideal):
            raise ConfigError("the ideal variant has no transient state")
        if dt <= 0:
            raise ConfigError("dt must be positive")
        assemble = _assemble_killer if model.killer_enabled else _assemble_ladder
        try:
            with np.errstate(all="ignore"):  # overflow shows up as non-finite matrices below
                if cfg is None:
                    # any interior injection node: its input column is dropped
                    a, b, b_deriv, c, d = assemble(model, 0.0, 0.0, 1)
                    b, b_deriv, c, d = b[:, :2], b_deriv[:, :2], c[:2], d[:2, :2]
                else:
                    inj = injection_node_index(cfg.variant, cfg.injection_position)
                    a, b, b_deriv, c, d = assemble(model, cfg.r_alice, cfg.r_bob, inj)
                system = _discretize(a, b, b_deriv, c, d, dt)
        except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
            raise ConfigError(f"cable system cannot be discretized: {exc}") from exc
        if not all(np.isfinite(v).all() for v in vars(system).values()):
            raise ConfigError("cable system is not representable in floating point at this dt")
        self.model = model
        self.cfg = cfg
        self.system = system

    def solve(self, u: np.ndarray) -> np.ndarray:
        """Outputs, shape (B, n_outputs, t), for a batch of inputs u of shape (B, n_inputs, t).

        Each row starts from the DC-consistent state for its first input
        sample. The input and output maps are each one 2-D product over all
        t * B time-major samples; the state recurrence runs in `ladder_scan`.
        """
        sys = self.system
        n_rows, n_in, t = u.shape
        m, n_out = sys.n_states, sys.c_out.shape[0]
        flat = u.transpose(2, 0, 1).reshape(t * n_rows, n_in)
        x = np.empty((t, n_rows, m))
        x[0] = u[:, :, 0] @ sys.dc_gain.T
        drive = x[1:].reshape((t - 1) * n_rows, m)
        np.matmul(flat[n_rows:], sys.q_next.T, out=drive)
        drive += flat[:-n_rows] @ sys.q_prev.T
        x = ladder_scan(sys.p, x).reshape(t * n_rows, m)
        y = x @ sys.c_out.T + flat @ sys.d_out.T
        return np.ascontiguousarray(y.reshape(t, n_rows, n_out).transpose(1, 2, 0))


@lru_cache(maxsize=128)
def transient_solver(model: CableModel, cfg: LoopConfig | None, dt: float) -> TransientSolver:
    return TransientSolver(model, cfg, dt)


def solve_rows(
    u: np.ndarray, cfg: LoopConfig, dt: float, model: CableModel | None = None
) -> np.ndarray:
    """Solve a batch of exchanges that share one loop configuration.

    Inputs (B, 3, t) are (u_a, u_b, i_inj) rows; outputs (B, 4, t) are
    (i_cha, i_chb, u_cha, u_chb) rows in the Loop convention. Closed form for
    the ideal wire, ladder otherwise (default model: the variant's). Raises
    ShapeMismatchError if any solved sample is not finite.
    """
    if isinstance(cfg.variant, Ideal):
        y = _ideal_rows(u, cfg)
    else:
        y = transient_solver(model or model_for_variant(cfg.variant), cfg, dt).solve(u)
    if not np.isfinite(y).all():
        raise ShapeMismatchError("solved loop samples must all be finite")
    return y
