"""Loop and cable electrical models for the key-exchange wire.

Three variants: an ideal single-node wire, a lumped RLC ladder for a practical
coaxial run of RG58 (datasheet-typical per-unit values) at any length, and the
cable with the shunt-capacitance canceller ("capacitor killer", modeled as
the shunt capacitance removed while series R and L stay). The variant is the
whole description of a wire: the channel's solve and the parties' in-site
simulation both assemble it, so the two cannot drift apart.

The ladder is n_segments series (R, L) branches with the shunt capacitance
lumped at the n_segments - 1 interior junctions. Keeping the terminal nodes
free of shunt elements lets a voltage-driven copy of the cable reproduce the
terminal currents exactly, which the model-based defense relies on.

Integration is trapezoidal (A-stable, second order, the SPICE default) with
each run starting from the DC-consistent state for the first input sample, so
no artificial start-up transient leaks into the statistics.

The ideal wire has no state: `ideal_rows` solves it in closed form, elementwise.
Each cable's discretized system of a loop is built once (`loop_system`). One
solve path, `solve_slabs`, scans a stack of S systems of one state count m,
each with its rows of inputs: the wire variants of one state count under
each resistor pair's terminations (`loop_slabs`), or the in-site system
shared by all rows. The states are columns, one per row: every sample step
advances all S x N of them with one stacked (S, m, m) @ (S, m, N) product,
m = 1 (the canceller) included. A column of such a product, and of the
input and output maps, has the same bits for any N that is a multiple of 8
and at any column offset, so the scan pads its columns to a multiple of 8
and a row's outputs do not depend on the rows it is solved with.

One function, `_layout`, sizes a scan: its column slabs, whose outputs
SLAB_BYTES bounds and which the solve hands out one at a time, and each
slab's time blocks, which SCAN_BLOCK_BYTES bounds. The solve allocates from
it, and `scan_bytes` reports its bytes for the scan's shapes, so that a
caller can check a run's arrays against a budget before it allocates them.

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
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .exceptions import ConfigError


@dataclass(frozen=True)
class Ideal:
    """Zero-length wire: the whole channel is one node, solved in closed form."""

    n_states = 0
    total_series_resistance = 0.0


@dataclass(frozen=True)
class Cable:
    """A practical coaxial run of RG58 (datasheet-typical per-unit values): a ladder of
    n_segments series (R, L) branches with the shunt capacitance at the junctions."""

    length_m: float
    n_segments: int = 10

    R_PER_M = 0.0365  # ohm/m
    L_PER_M = 250e-9  # H/m
    C_PER_M = 100e-12  # F/m

    def __post_init__(self):
        if self.length_m <= 0:
            raise ConfigError("length_m must be positive")
        if self.n_segments < 2:
            raise ConfigError("n_segments must be >= 2")

    @property
    def total_series_resistance(self) -> float:
        return self.R_PER_M * self.length_m

    @property
    def n_states(self) -> int:
        """State count of the loop system: n_segments branch currents and n_segments - 1
        junction voltages."""
        return 2 * self.n_segments - 1


@dataclass(frozen=True)
class CableWithKiller(Cable):
    """The cable with its shunt capacitance cancelled: one series RL loop, one state."""

    n_states = 1


Variant = Ideal | Cable | CableWithKiller


@dataclass(frozen=True)
class LoopConfig:
    """Terminations and Eve's injection position for one loop solve."""

    r_alice: float
    r_bob: float
    injection_position: float = 0.5

    def __post_init__(self):
        if self.r_alice <= 0 or self.r_bob <= 0:
            raise ConfigError("termination resistances must be positive")
        if not 0.0 <= self.injection_position <= 1.0:
            raise ConfigError("injection_position must lie in [0, 1]")


def check_segmentation(wire: Variant, bandwidth_hz: float) -> None:
    """Reject a plain cable whose per-segment RC corner lies less than 100x above the band,
    where the lumping is too coarse; the ideal wire and the canceller pass."""
    if wire.n_states <= 1:
        return
    r_seg = wire.R_PER_M * wire.length_m / wire.n_segments
    c_seg = wire.C_PER_M * wire.length_m / wire.n_segments
    corner_hz = 1.0 / (2.0 * math.pi * r_seg * c_seg) if r_seg * c_seg > 0 else math.inf
    if corner_hz < 100.0 * bandwidth_hz:
        raise ConfigError(
            f"per-segment RC corner {corner_hz:.3g} Hz is below "
            f"100 x bandwidth ({100.0 * bandwidth_hz:.3g} Hz); increase n_segments"
        )


def ideal_rows(u_a: np.ndarray, u_b: np.ndarray, i_inj: np.ndarray, r_a, r_b) -> np.ndarray:
    """Closed form of the single-node loop: input rows (..., B, t) each, outputs (..., B, 4, t).

    The generator voltages, the injected current and the terminations
    broadcast against each other; the terminations are scalars or one per
    row, shape (B, 1). Every operation is elementwise, so a row's samples do
    not depend on the batch it is solved in.
    """
    g_a, g_b = 1.0 / r_a, 1.0 / r_b
    r_par = 1.0 / (g_a + g_b)
    u_ch = (u_a * g_a + u_b * g_b + i_inj) * r_par
    y = np.empty(u_ch.shape[:-1] + (4, u_ch.shape[-1]))
    y[..., 0, :] = -((u_a - u_ch) * g_a)  # source -> node current, negated
    y[..., 1, :] = (u_b - u_ch) * g_b
    y[..., 2, :] = u_ch
    y[..., 3, :] = u_ch
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
        return self.p.shape[-1]


def stack_systems(systems) -> _DiscreteSystem:
    """Discretized systems of equal shapes as one: `systems` is a sequence of them, or a nested
    sequence, whose axes lead each matrix."""
    grid = np.empty(np.shape(systems), dtype=object)
    grid[...] = systems
    stacked = (
        np.stack([getattr(s, f.name) for s in grid.flat]) for f in fields(_DiscreteSystem)
        if f.name != "dt"
    )
    shaped = (a.reshape(grid.shape + a.shape[1:]) for a in stacked)
    return _DiscreteSystem(*shaped, dt=grid.flat[0].dt)


def _discretize(a, b, b_deriv, c, d, dt) -> _DiscreteSystem:
    m = a.shape[0]
    h = dt / 2.0
    lhs = np.eye(m) - h * a
    p = np.linalg.solve(lhs, np.eye(m) + h * a)
    q_next = np.linalg.solve(lhs, h * b + b_deriv)
    q_prev = np.linalg.solve(lhs, h * b - b_deriv)
    dc_gain = np.linalg.solve(a, -b)
    return _DiscreteSystem(p, q_next, q_prev, c, d, dc_gain, dt)


def _assemble_ladder(cable: Cable, r_a: float, r_b: float, inj_node: int):
    """Forward system: inputs (u_a, u_b, i_inj), outputs loop-convention signals."""
    n = cable.n_segments
    n_caps = n - 1
    r_br = cable.R_PER_M * cable.length_m / n
    l_br = cable.L_PER_M * cable.length_m / n
    c_node = cable.C_PER_M * cable.length_m / n_caps
    m = n_caps + n
    a = np.zeros((m, m))
    b = np.zeros((m, 3))
    # cap rows: C dw_k/dt = i_k - i_{k+1} + [k == inj] i_inj
    for k in range(1, n):
        row = k - 1
        a[row, n_caps + k - 1] += 1.0 / c_node
        a[row, n_caps + k] -= 1.0 / c_node
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


def _assemble_killer(cable: CableWithKiller, r_a: float, r_b: float, inj_node: int):
    """Killer variant collapsed to two series RL halves split at the injection node.

    Single state: the current in the Alice-side half. The Bob-side half carries
    state + i_inj, whose time derivative enters through the right-half
    inductance; that term is handled exactly by the discretization.
    """
    left = inj_node / cable.n_segments
    r_tot = cable.total_series_resistance
    l_tot = cable.L_PER_M * cable.length_m
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


def injection_node_index(cable: Cable, injection_position: float) -> int:
    """Interior junction closest to the requested fraction of cable length."""
    n = cable.n_segments
    return int(min(max(round(injection_position * n), 1), n - 1))


# Byte budgets of a scan: SLAB_BYTES bounds the outputs of a column slab, which the solve
# hands out before it scans the next, and SCAN_BLOCK_BYTES a time block's stepping buffer
# (or its output map's arrays, if they are larger). Neither changes a column's bits.
SLAB_BYTES = 2**19
SCAN_BLOCK_BYTES = 2**18


def ladder_scan(p: np.ndarray, x: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Run the state recurrence x[k] = p @ x[k-1] + drive[k-1] in place, for S stacked systems.

    `p` holds one (m, m) matrix per system, shape (S, m, m), or one shared by
    all. `x` is the stepping buffer, shape (S, n + 1, m, N): on entry x[:, 0]
    holds each system's N start states as columns; on return x[:, k] holds
    the states of sample k. `drive` holds the drive terms, shape (S, m, n,
    N). Each step advances all S x N states with one stacked
    (S, m, m) @ (S, m, N) product. Returns `x`.
    """
    steps = list(x.swapaxes(0, 1))  # views: steps[k] is sample k of every system
    for prev, cur, term in zip(steps, steps[1:], drive.transpose(2, 0, 1, 3)):
        np.add(p @ prev, term, out=cur)
    return x


def _layout(n_sys: int, m: int, n_out: int, n_cols: int, t: int) -> tuple[int, int]:
    """The scan of n_cols columns of S stacked m-state systems: (columns per slab, a multiple
    of 8; steps per time block).

    A column's products have the same bits at any multiple of 8 columns and at any
    offset (tests/test_kernels.py checks it on the running machine), so the slabs and
    blocks that bound the scan's memory do not change its outputs.
    """
    pad = -(-n_cols // 8) * 8
    width = min(pad, max(8, SLAB_BYTES // (8 * n_sys * n_out * t) // 8 * 8))
    block = SCAN_BLOCK_BYTES // (8 * n_sys * max(m, n_out) * width) - 1
    return width, min(max(1, block), max(1, t - 1))


def _lead(p_shape, u_shape) -> tuple[int, ...]:
    """The stack shape of a scan: one system's rows are all its columns."""
    return () if len(p_shape) == 2 else np.broadcast_shapes(p_shape[:-2], u_shape[:-3])


def scan_bytes(p_shape, u_shape, n_out: int) -> dict[str, int]:
    """The bytes of the arrays that `solve_slabs` scans inputs of shape `u_shape` with, by name,
    for systems whose step matrices p have shape `p_shape` and n_out outputs.

    The scan holds a slab's outputs, the stepping buffer of one of its time blocks and
    its step matrices p.
    """
    lead, m, t = _lead(p_shape, u_shape), p_shape[-1], u_shape[-1]
    n_sys = math.prod(lead)
    n_cols = u_shape[-3] if lead else math.prod(u_shape[:-2])
    width, block = _layout(n_sys, m, n_out, n_cols, t)
    return {
        f"a {m}-state scan's slab outputs": 8 * n_sys * min(width, n_cols) * n_out * t,
        f"a {m}-state scan's stepping buffer": 8 * n_sys * (block + 1) * m * width,
        f"a {m}-state scan's step matrices p": 8 * n_sys * m * m,
    }


def solve_slabs(system: _DiscreteSystem, u: np.ndarray):
    """Yield the outputs of u's rows a column slab at a time, as (cols, y).

    `system` is one discretized system, whose rows are all the rows of u,
    shape (..., N, n_inputs, t), or systems stacked by `stack_systems`, each
    with the rows u[s], shape (S..., N, n_inputs, t); u's stack axes
    broadcast against the systems', so that systems may share their rows.
    Each row is a column of its system's scan and starts from the
    DC-consistent state for its first input sample. `cols` is a slice of
    the N columns (of the flattened rows for one system), and `y` holds
    their outputs, shape (S..., len(cols), n_outputs, t).

    Per time block, each input map is one product per system over the
    block's samples, `ladder_scan` advances the states, the output maps
    write the block's output samples, and the last state carries into the
    next block. Each slab is padded with zero columns to a multiple of 8
    (`_layout`), so a row's outputs do not depend on the rows it is solved
    with.
    """
    m, n_in, t = system.n_states, u.shape[-2], u.shape[-1]
    if system.p.ndim == 2:
        u = u.reshape((-1, n_in, t))
    lead = _lead(system.p.shape, u.shape)
    n_sys, n_cols, n_out = math.prod(lead), u.shape[-3], system.c_out.shape[-2]
    p, c_out = (np.broadcast_to(a, lead + a.shape[-2:]).reshape((n_sys,) + a.shape[-2:])
                for a in (system.p, system.c_out))
    width, block = _layout(n_sys, m, n_out, n_cols, t)
    u_lead = u.shape[:-3]
    k = len(u_lead)
    columns_last = (*range(k), k + 1, k + 2, k)  # (..., N, n_inputs, t) -> (..., n_inputs, t, N)
    # one allocation each, whose leading part every slab takes, so that a slab's arrays are
    # contiguous however wide it is
    buf_x, buf_drive = (np.empty(n_sys * (block + 1) * m * width) for _ in range(2))
    buf_in = np.empty(math.prod(u_lead) * n_in * (block + 1) * width)

    def mapped(a, inputs, out=None):  # one product per system over the block's input columns
        return np.matmul(a, inputs.reshape(inputs.shape[:-2] + (-1,)), out=out)

    for c0 in range(0, n_cols, width):
        rows = u[..., c0 : c0 + width, :, :]
        w = rows.shape[-3]
        pad = -(-w // 8) * 8
        x = buf_x[: n_sys * (block + 1) * m * pad].reshape(n_sys, block + 1, m, pad)
        inputs = buf_in[: buf_in.size // width * pad].reshape(u_lead + (n_in, block + 1, pad))
        inputs[..., w:] = 0.0  # the padding columns
        y = np.empty((n_sys, w, n_out, t))
        first = 0  # 1 once the state at sample k0, x[:, 0], is written out
        for k0 in range(0, max(t - 1, 1), block):  # n steps on from sample k0, none at t = 1
            n = min(block, t - 1 - k0)
            flat = inputs[..., : n + 1, :]
            flat[..., :w] = rows[..., k0 : k0 + n + 1].transpose(columns_last)
            if k0 == 0:
                x[:, 0] = mapped(system.dc_gain, flat[..., :1, :]).reshape(n_sys, m, pad)
            if n:
                drive = buf_drive[: n_sys * m * n * pad].reshape(lead + (m, n * pad))
                mapped(system.q_next, flat[..., 1:, :], out=drive)
                # the states to come hold the second map's terms until the scan writes them
                terms = x[:, 1 : n + 1].reshape(n_sys, -1).reshape(drive.shape)
                drive += mapped(system.q_prev, flat[..., :-1, :], out=terms)
                ladder_scan(p, x[:, : n + 1], drive.reshape(n_sys, m, n, pad))
            # the outputs' input terms, (S, n_out, samples, N), plus their state terms, one
            # (n_out, m) @ (m, N) product per system and sample, (S, samples, n_out, N)
            out = mapped(system.d_out, flat[..., first:, :]).reshape(n_sys, n_out, -1, pad)
            out += (c_out[:, None] @ x[:, first : n + 1]).swapaxes(1, 2)
            y[..., k0 + first : k0 + n + 1] = out[..., :w].transpose(0, 3, 1, 2)
            del out
            x[:, 0] = x[:, n]
            first = 1
        yield slice(c0, c0 + w), y.reshape(lead + y.shape[1:])
        del y  # before the next slab's outputs are allocated


def solve_systems(system: _DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Outputs, shape (..., N, n_outputs, t), for inputs u of shape (..., N, n_inputs, t): the
    slabs of `solve_slabs` joined."""
    n_out = system.c_out.shape[-2]
    if system.p.ndim == 2:
        y = np.empty(u.shape[:-2] + (n_out, u.shape[-1]))
        joined = y.reshape(-1, n_out, u.shape[-1])
    else:
        joined = y = np.empty(_lead(system.p.shape, u.shape) + (u.shape[-3], n_out, u.shape[-1]))
    for cols, slab in solve_slabs(system, u):
        joined[..., cols, :, :] = slab
    return y


@lru_cache(maxsize=128)
def loop_system(cable: Cable, cfg: LoopConfig | None, dt: float) -> _DiscreteSystem:
    """The discretized system of `cable` between its two end drives, built once per key.

    With a LoopConfig the system is the whole loop: inputs (u_a, u_b, i_inj)
    are the generator voltages and the injected current, outputs are
    (i_cha, i_chb, u_cha, u_chb). With `cfg=None` it is the cable alone driven
    by its end voltages, the defense's in-site simulation: the same assembly
    with zero termination resistance and no injection, inputs (u_cha, u_chb),
    outputs (i_cha, i_chb). Both report the Loop convention.
    """
    if isinstance(cable, Ideal):
        raise ConfigError("the ideal variant has no transient state")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    assemble = _assemble_killer if isinstance(cable, CableWithKiller) else _assemble_ladder
    try:
        with np.errstate(all="ignore"):  # overflow shows up as non-finite matrices below
            if cfg is None:
                # any interior injection node: its input column is dropped
                a, b, b_deriv, c, d = assemble(cable, 0.0, 0.0, 1)
                b, b_deriv, c, d = b[:, :2], b_deriv[:, :2], c[:2], d[:2, :2]
            else:
                inj = injection_node_index(cable, cfg.injection_position)
                a, b, b_deriv, c, d = assemble(cable, cfg.r_alice, cfg.r_bob, inj)
            system = _discretize(a, b, b_deriv, c, d, dt)
    except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"cable system cannot be discretized: {exc}") from exc
    if not all(np.isfinite(v).all() for v in vars(system).values()):
        raise ConfigError("cable system is not representable in floating point at this dt")
    return system


def loop_slabs(u: np.ndarray, wires: Sequence[Cable], cfgs: Sequence[LoopConfig], dt: float):
    """Yield (cols, y): the loops of u's rows on V cables of one state count under P loop
    configurations, a column slab at a time.

    Inputs u, shape (P, N, 3, t), hold (u_a, u_b, i_inj) rows, u[p] under
    cfgs[p] on every wire; y holds the slab's (i_cha, i_chb, u_cha, u_chb)
    rows in the Loop convention, shape (V, P, len(cols), 4, t): the cables'
    loop systems, all V x P of them in one `solve_slabs` scan.
    """
    systems = stack_systems([[loop_system(wire, c, dt) for c in cfgs] for wire in wires])
    yield from solve_slabs(systems, u)
