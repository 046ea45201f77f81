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

Each cable's discretized system of a loop is built once (`loop_system`). One
solve path, `solve_jobs`, takes several (system, inputs) jobs and groups
them by state count. Jobs of one state count m > 1 share one row count B and
run as one stack of S systems: S levels of one or more loops of that m (a
grid's ladder variants at all levels), or a chunk's loop batches of equal
size, each with its own terminations. Every sample step advances all S x B
states with one stacked product whose rows equal the S separate products bit
for bit. One-state jobs (the canceller) of any B advance together in one
elementwise recurrence, each row with its own p, since a one-state step
product is a single term. Each job keeps its own input-map, start-state and
output-map products, so its outputs equal those of its own solve;
`solve_systems` is the solve of one job.

One function, `_layout`, sizes a group's scan: its time blocks, which
SCAN_BLOCK_BYTES bounds, and the shapes of its stepping array and step
matrices. The solves allocate from it, and `scan_bytes` reports its bytes
for job shapes, so that a caller can check a run's arrays against a budget
before it allocates them.

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

from .exceptions import ConfigError, ShapeMismatchError


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


def divider_fractions(r_a: float, r_b: float) -> tuple[float, float]:
    """Share of a node-injected current flowing toward each termination."""
    if r_a <= 0 or r_b <= 0:
        raise ValueError("resistances must be positive")
    total = r_a + r_b
    return r_b / total, r_a / total


def _finite(y: np.ndarray) -> np.ndarray:
    if not np.isfinite(y).all():
        raise ShapeMismatchError("solved loop samples must all be finite")
    return y


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
    return _finite(y)


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
    """S discretized systems of equal shapes as one, each matrix with a leading (S,) axis."""
    matrices = (
        np.stack([getattr(s, f.name) for s in systems])
        for f in fields(_DiscreteSystem)
        if f.name != "dt"
    )
    return _DiscreteSystem(*matrices, dt=systems[0].dt)


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


# Byte budget of a time block: a stacked solve's stepping buffer, and a one-state
# solve's block of its state trajectory. `_layout` sizes both from it.
SCAN_BLOCK_BYTES = 2**19


def ladder_scan(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Run the state recurrence x[k] = p @ x[k-1] + qu[k-1] in place, for S stacked systems.

    `p` is one (m, m) matrix shared by the stack, or one per system, shape
    (S, m, m). `x` is the stepping buffer, shape (S, n + 1, B, m), or
    (n + 1, B, m) for one system: on entry x[..., 0, :, :] holds the B start
    states of each system and x[..., k, :, :] the drive term qu[k-1]; on
    return it holds the state trajectory. Each step advances all S x B states
    with one stacked (S, B, m) @ (S, m, m) product, whose rows equal the S
    separate (B, m) @ (m, m) products bit for bit. At m = 1 each product is a
    single term, so the step is the elementwise x[k] += x[k-1] * p, and `p`
    may then hold one value per row, shape (S, B, 1). Returns `x`.
    """
    steps = list(x.swapaxes(0, -3))  # views: steps[k] is sample k of every system
    if p.shape[-1] == 1:
        for prev, cur in zip(steps, steps[1:]):
            cur += prev * p
        return x
    p_t = np.swapaxes(p, -1, -2)
    for prev, cur in zip(steps, steps[1:]):
        cur += prev @ p_t
    return x


def _time_blocks(t: int, block: int):
    """(k0, n) per time block: n steps on from sample k0, at most `block` unless a one-step
    remainder joins the last block; a single block of no steps when t = 1."""
    k0 = 0
    while True:
        n = min(block, t - 1 - k0)
        n += t - 1 - k0 - n == 1
        yield k0, n
        k0 += n
        if k0 >= t - 1:
            return


class _Job:
    """One (system, u) pair of a solve: inputs as (S, B, n_inputs, t) and the system's maps
    transposed to multiply rows from the right."""

    def __init__(self, system: _DiscreteSystem, u: np.ndarray):
        self.p = system.p
        self.given = u  # jobs given the same array share its blocks' time-major copies
        self.u = u.reshape((-1,) + u.shape[-3:])
        self.n_sys, self.n_rows, self.n_in, self.t = self.u.shape
        self.out_shape = u.shape[:-2] + (system.c_out.shape[-2], self.t)
        # The input and output maps multiply contiguous copies, which is faster over a
        # block's rows. A contiguous c_out changes how a dense product rounds, but each
        # row of c_out has one nonzero (tests/test_circuit.py checks it), so each output
        # is one product. dc_gain stays a view: at B = 1 its product is a matrix-vector
        # one, whose rounding a contiguous operand changes.
        self.q_next, self.q_prev, self.c_out, self.d_out = (
            np.ascontiguousarray(np.swapaxes(a, -1, -2))
            for a in (system.q_next, system.q_prev, system.c_out, system.d_out)
        )
        self.dc_gain = np.swapaxes(system.dc_gain, -1, -2)

    def start(self) -> np.ndarray:
        """The DC-consistent state for each row's first input sample, shape (S, B, m)."""
        return self.u[..., 0] @ self.dc_gain

    def inputs(self, k0: int, n: int) -> np.ndarray:
        """The inputs of samples k0 .. k0 + n time-major, shape (S, (n + 1) B, n_inputs)."""
        return self.u[..., k0 : k0 + n + 1].transpose(0, 3, 1, 2).reshape(self.n_sys, -1, self.n_in)

    def drive(self, flat: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write the drive terms of a block's samples but its first into `out`, shape
        (S, n B, m), from its `inputs`; `scratch` of that shape takes the second product."""
        np.matmul(flat[:, self.n_rows :], self.q_next, out=out)
        out += np.matmul(flat[:, : -self.n_rows], self.q_prev, out=scratch)

    def output(self, y: np.ndarray, k0: int, first: int, states: np.ndarray, flat: np.ndarray):
        """Write the outputs of a block's samples from k0 + first on into y, shape
        (S, B, n_outputs, t), from their states, shape (S, N B, m), and the block's `inputs`."""
        out = states @ self.c_out
        out += flat[:, first * self.n_rows :] @ self.d_out
        out = out.reshape(self.n_sys, -1, self.n_rows, out.shape[-1]).transpose(0, 2, 3, 1)
        y[..., k0 + first : k0 + first + out.shape[-1]] = out


def _spans(sizes):
    bounds = np.cumsum([0, *sizes]).tolist()
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _layout(shapes):
    """The scan of jobs of one state count m, each given by its (p shape, u shape) as
    `solve_jobs` takes them: (steps per time block, samples per system of the stepping
    array, shape of the stepping array, shape of the step matrices p).

    A stacked scan (m > 1) holds its stepping buffer of all S x B states and, after it
    in one allocation, the scratch of one job's input map: with glibc's malloc, one
    larger block left the solve's other arrays fewer fresh pages to fault in than two
    smaller ones. It steps with a lone job's p, or restacks one p per system. A
    one-state scan holds the (t, R) trajectory of all R rows and one p per row.
    """
    m, t = shapes[0][0][-1], shapes[0][1][-1]
    stacks = [(math.prod(u[:-3]), u[-3]) for _, u in shapes]  # (S, B) per job
    n_sys, n_rows = sum(s for s, _ in stacks), stacks[0][1]
    rows = sum(s * b for s, b in stacks)
    # As many steps as fit SCAN_BLOCK_BYTES, less two slots for the carried state and a
    # one-step remainder. Each block but the last spans a multiple of 8 product rows,
    # whatever a one-state job's B, so a row's samples do not depend on where blocks
    # end: a matrix-vector product (m = 1, B = 1) rounds its last partial group of rows
    # differently.
    unit = 8 if m == 1 else 8 // math.gcd(n_rows, 8)
    block = max(2, unit, (SCAN_BLOCK_BYTES // (8 * rows * m) - 2) // unit * unit)
    if m == 1:
        return block, t, (t, rows), (1, rows, 1)
    slots = min(block + 2, t)
    x = (n_sys * slots + max(s for s, _ in stacks) * (slots - 1), n_rows, m)
    return block, slots, x, shapes[0][0] if len(shapes) == 1 else (n_sys, m, m)


def scan_bytes(jobs) -> dict[str, int]:
    """The bytes of the arrays that `solve_jobs` scans jobs of these shapes with, by name.

    `jobs` holds each job's (p shape, u shape): (m, m) for one system, or
    (S, m, m) for S stacked ones, and its inputs' shape. Per state count m,
    the scan holds its stepping array and the step matrices p.
    """
    sizes = {}
    for m in dict.fromkeys(p[-1] for p, _ in jobs):
        _, _, x, p = _layout([job for job in jobs if job[0][-1] == m])
        scan = "a one-state scan's" if m == 1 else f"a {m}-state scan's"
        sizes[scan + (" state trajectory" if m == 1 else " stepping buffer")] = 8 * math.prod(x)
        sizes[scan + " step matrices p"] = 8 * math.prod(p)
    return sizes


def _stacked_solves(jobs: list[_Job]):
    """Yield the outputs of jobs of one state count m > 1 and one row count B, solved as one
    stack: one (S, B, m) @ (S, m, m) product per step for all their systems.

    The stepping buffer holds a time block of every system, so each block's outputs are
    written out before the next, and every job's outputs are held until the last block.
    """
    m, n_rows, t = jobs[0].p.shape[-1], jobs[0].n_rows, jobs[0].t
    spans = _spans(job.n_sys for job in jobs)
    n_sys = spans[-1].stop
    block, slots, buf_shape, p_shape = _layout([(job.p.shape, job.u.shape) for job in jobs])
    p = jobs[0].p  # a lone job's system, or systems, as they are
    if len(jobs) > 1:
        p = np.empty(p_shape)  # C-contiguous, like each system's own p
        for job, span in zip(jobs, spans):
            p[span] = job.p
    buf = np.empty(buf_shape)  # the stepping buffer x, then the input map's scratch
    x = buf[: n_sys * slots].reshape(n_sys, slots, n_rows, m)
    scratch = buf[n_sys * slots :].reshape(-1, (slots - 1) * n_rows, m)
    ys = [np.empty((job.n_sys, n_rows) + job.out_shape[-2:]) for job in jobs]
    for job, span in zip(jobs, spans):
        x[span, 0] = job.start()
    first = 0  # 1 once the state at sample k0, x[:, 0], is written out
    for k0, n in _time_blocks(t, block):
        inputs = {}  # jobs given one input array share its block's inputs
        for job in jobs:
            if id(job.given) not in inputs:
                inputs[id(job.given)] = job.inputs(k0, n)
        flats = [inputs[id(job.given)] for job in jobs]
        for job, span, flat in zip(jobs, spans, flats):
            drive = x[span, 1 : n + 1].reshape(job.n_sys, -1, m)
            job.drive(flat, drive, scratch[: job.n_sys, : n * n_rows])
        ladder_scan(p, x[:, : n + 1])
        for job, span, y, flat in zip(jobs, spans, ys, flats):
            job.output(y, k0, first, x[span, first : n + 1].reshape(job.n_sys, -1, m), flat)
        x[:, 0] = x[:, n]
        first = 1
    del buf, x, scratch, drive, inputs, flats  # free them before the outputs are consumed
    ys.reverse()
    while ys:  # pop, so that a yielded job's outputs are not kept alive here
        yield ys.pop()


def _one_state_solves(jobs: list[_Job]):
    """Yield the outputs of one-state jobs of any row counts, whose rows advance together in
    one elementwise recurrence, each with its own p.

    The R rows of all jobs sit side by side in one (t, R) state trajectory. Its time
    blocks (`_layout`) bound the input maps' temporaries. The whole trajectory is held
    (at m = 1 a quarter of the rows' outputs), so each job's outputs are formed only
    when the job is yielded.
    """
    block, t, traj_shape, p_shape = _layout([(job.p.shape, job.u.shape) for job in jobs])
    spans = _spans(job.n_sys * job.n_rows for job in jobs)
    p = np.empty(p_shape)  # each row's p, shaped like a step of the scan
    for job, span in zip(jobs, spans):
        p[0, span].reshape(job.n_sys, job.n_rows)[...] = job.p.reshape(-1, 1)
    traj = np.empty(traj_shape)
    blocks = list(_time_blocks(t, block))
    for job, span in zip(jobs, spans):
        traj[0, span] = job.start().ravel()
    for k0, n in blocks:
        for job, span in zip(jobs, spans):
            drive = np.empty((2, job.n_sys, n * job.n_rows, 1))
            job.drive(job.inputs(k0, n), drive[0], drive[1])
            rows = traj[k0 + 1 : k0 + n + 1, span].reshape(n, job.n_sys, job.n_rows)
            rows[...] = drive[0].reshape(job.n_sys, n, job.n_rows).transpose(1, 0, 2)
            del drive, rows
        ladder_scan(p, traj[None, k0 : k0 + n + 1, :, None])

    def outputs(job, span):
        y = np.empty((job.n_sys, job.n_rows) + job.out_shape[-2:])
        c_out = job.c_out.reshape(-1, 1, y.shape[-2], 1)
        first = 0
        for k0, n in blocks:
            samples = slice(k0 + first, k0 + n + 1)
            out = job.inputs(k0, n)[:, first * job.n_rows :] @ job.d_out
            out = out.reshape(job.n_sys, -1, job.n_rows, y.shape[-2])
            y[..., samples] = out.transpose(0, 2, 3, 1)
            del out
            # c_out has one column, so a state's share of an output is a single product,
            # added to the input's share as `_Job.output` adds them
            states = traj[samples, span].reshape(-1, job.n_sys, job.n_rows).transpose(1, 2, 0)
            y[..., samples] += states[:, :, None] * c_out
            first = 1
        return y

    for job, span in zip(jobs, spans):
        yield outputs(job, span)  # unnamed here, so the consumer alone holds it


def solve_jobs(jobs):
    """Outputs of several (system, u) jobs, yielded one job at a time in the jobs' order.

    A job is what `solve_systems` takes: one system, or S stacked by
    `stack_systems`, and its inputs of shape (..., B, n_inputs, t). All jobs
    share one t. Jobs of one state count m > 1 are solved as one stack, one
    (S, B, m) @ (S, m, m) product per sample step, so they must share one row
    count B: jobs of unequal B raise ShapeMismatchError rather than split
    into several scans. One-state jobs of any B advance in one elementwise
    step per sample. Either way each job keeps its own input-map, start-state
    and output-map products, so its outputs equal the ones it would get alone,
    bit for bit. A group is solved when its first job is reached.
    """
    jobs = [_Job(system, u) for system, u in jobs]
    if len({job.t for job in jobs}) > 1:
        raise ShapeMismatchError("the jobs of one solve must share one sample count")
    if len({job.n_rows for job in jobs if job.p.shape[-1] > 1}) > 1:
        raise ShapeMismatchError("jobs with more than one state must share one row count")
    solves = {}
    for job in jobs:
        m = job.p.shape[-1]
        if m not in solves:
            group = [other for other in jobs if other.p.shape[-1] == m]
            solves[m] = (_one_state_solves if m == 1 else _stacked_solves)(group)
        yield next(solves[m]).reshape(job.out_shape)


def solve_systems(system: _DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Outputs, shape (..., B, n_outputs, t), for inputs u of shape (..., B, n_inputs, t).

    `system` is one discretized system shared by every stack of B rows, or S
    systems of equal shapes stacked by `stack_systems`, one per stack of u of
    shape (S, B, n_inputs, t). Each row starts from the DC-consistent state
    for its first input sample. Per time block (`_layout`), the input map is
    one stacked product over the block's time-major samples, `ladder_scan`
    advances the states, the output map writes the block's output columns,
    and the last state carries into the next block. A row's samples do not
    depend on the blocking. The one job of `solve_jobs`.
    """
    return next(solve_jobs([(system, u)]))


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


def solve_rows(
    u: np.ndarray, wire: Variant, cfg: LoopConfig | Sequence[LoopConfig], dt: float
) -> np.ndarray:
    """Solve batches of exchanges on `wire`, each batch sharing one loop configuration.

    Inputs (..., B, 3, t) are (u_a, u_b, i_inj) rows; outputs (..., B, 4, t)
    are (i_cha, i_chb, u_cha, u_chb) rows in the Loop convention. `cfg` is
    one loop configuration for all rows, with an optional leading stack axis,
    or S configurations, one per batch of inputs of shape (S, B, 3, t).
    Closed form for the ideal wire, the cable's loop systems otherwise, all
    batches in one `solve_systems` scan. Raises ShapeMismatchError if any
    solved sample is not finite.
    """
    cfgs = [cfg] if isinstance(cfg, LoopConfig) else list(cfg)
    if isinstance(wire, Ideal):
        # per-batch terminations broadcast over the batch's rows and samples
        shape = () if isinstance(cfg, LoopConfig) else (-1, 1, 1)
        r_a = np.reshape([c.r_alice for c in cfgs], shape)
        r_b = np.reshape([c.r_bob for c in cfgs], shape)
        return ideal_rows(u[..., 0, :], u[..., 1, :], u[..., 2, :], r_a, r_b)
    if isinstance(cfg, LoopConfig):
        system = loop_system(wire, cfg, dt)
    else:
        system = stack_systems([loop_system(wire, c, dt) for c in cfgs])
    return _finite(solve_systems(system, u))
