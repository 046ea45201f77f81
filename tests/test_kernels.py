"""The cable recurrence `circuit.ladder_scan` and the column-major, slabbed and time-blocked
solve against plain loops."""
import functools

import numpy as np
import pytest

from kljnsim import attack, circuit, harness
from kljnsim.circuit import Cable, CableWithKiller, LoopConfig

FS = 2000.0


def _problem(m, t, batch, seed=3, levels=1):
    """A stable (m, m) step matrix, drive terms (levels, m, t - 1, batch) and start states
    (levels, m, batch): `batch` columns per level, drawn as rows (t - 1, batch, m) and
    (batch, m)."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, m))
    p *= 0.95 / np.max(np.abs(np.linalg.eigvals(p)))  # keep the recurrence stable
    drive = rng.standard_normal((levels, t - 1, batch, m)).transpose(0, 3, 1, 2)
    x0 = rng.standard_normal((levels, batch, m)).swapaxes(1, 2)
    return p, drive, x0


def _scan(p, drive, x0):
    """`ladder_scan` on a fresh step-major (t, S, m, N) buffer holding x0 and the drive terms;
    checks it works in place."""
    x = np.empty((drive.shape[2] + 1,) + x0.shape)
    x[0] = x0
    x[1:] = drive.transpose(2, 0, 1, 3)
    out = circuit.ladder_scan(p, x)
    assert out is x
    return out


def _row_steps(p, drive, x0):
    """The plain recurrence of one system in row form, one (N, m) @ (m, m) product per step:
    states (t, m, N)."""
    states = [x0.T]
    for k in range(drive.shape[1]):
        states.append(states[-1] @ p.T + drive[:, k].T)
    return np.array(states).swapaxes(1, 2)


def test_python_scan_matches_reference_loop():
    p, drive, x0 = _problem(m=4, t=30, batch=1)
    got = _scan(p[None], drive, x0)
    assert np.array_equal(got[0, 0], x0[0])
    x = x0[0, :, 0]
    for k in range(1, 30):
        x = p @ x + drive[0, :, k - 1, 0]
        np.testing.assert_allclose(got[k, 0, :, 0], x, rtol=1e-13)


def test_ladder_scan_shape_and_determinism():
    p, drive, x0 = _problem(m=7, t=64, batch=3)
    a = _scan(p, drive, x0)
    b = _scan(p, drive, x0)
    assert a.shape == (64, 1, 7, 3)
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], x0)


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("m", [1, 3, 19])
def test_level_stacked_scan_equals_separate_scans(m, batch, levels):
    """A (t, L, m, N) buffer with one shared p gives each level's own scan bit for bit, and
    the plain loop in row form."""
    t = 40
    p, drive, x0 = _problem(m, t, batch, seed=m + 7 * batch, levels=levels)
    got = _scan(p, drive, x0)
    assert got.shape == (t, levels, m, batch)
    for lvl in range(levels):
        alone = _scan(p, drive[lvl : lvl + 1], x0[lvl : lvl + 1])[:, 0]
        assert np.array_equal(got[:, lvl], alone)
        np.testing.assert_allclose(got[:, lvl], _row_steps(p, drive[lvl], x0[lvl]), rtol=1e-13)


def _column_solve(system, u):
    """The column-form solve, shape (N, n_in, t) -> (N, n_out, t): the rows as columns padded
    with zeros to a multiple of 8, each map one product over all samples and one
    (m, m) @ (m, N) product per sample step. What `solve_systems` must reproduce, whatever
    the slabs, time blocks and other rows it solves a row with."""
    n_rows, n_in, t = u.shape
    pad = -(-n_rows // 8) * 8
    cols = np.zeros((n_in, t, pad))
    cols[..., :n_rows] = u.transpose(1, 2, 0)
    x = np.empty((t, system.n_states, pad))
    x[0] = system.dc_gain @ cols[:, 0]
    drive = system.q_next @ cols[:, 1:].reshape(n_in, -1)
    drive += system.q_prev @ cols[:, :-1].reshape(n_in, -1)
    drive = drive.reshape(system.n_states, t - 1, pad)
    for k in range(1, t):
        x[k] = system.p @ x[k - 1] + drive[:, k - 1]
    y = (system.d_out @ cols.reshape(n_in, -1)).reshape(-1, t, pad)
    y += (system.c_out @ x).swapaxes(0, 1)
    return y[..., :n_rows].transpose(2, 0, 1)


def _rows(shape, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape)
    if shape[-2] == 3:
        u[..., 2, :] *= 3e-5  # an injected current's scale
    return u


@pytest.mark.parametrize("batch", [1, 7, 16])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_level_stacked_solve_equals_separate_solves(variant, batch):
    """One system's rows at 3 levels scan as a stack of 3 copies of it: each level equals its own
    solve, and the column-form reference, bit for bit."""
    system = circuit.loop_system(variant, LoopConfig(1000.0, 9000.0), 1.0 / FS)
    u = _rows((3, batch, 3, 200), seed=batch)
    y = circuit.solve_systems(system, u)
    assert y.shape == (3, batch, 4, 200)
    for u_lvl, y_lvl in zip(u, y):
        assert np.array_equal(y_lvl, circuit.solve_systems(system, u_lvl))
        assert np.array_equal(y_lvl, _column_solve(system, u_lvl))


@pytest.mark.parametrize("batch", [1, 16, 32])
def test_in_site_solver_is_unchanged(batch):
    """The defense's cable-alone solver (cfg=None): two end voltages in, two currents out."""
    system = circuit.loop_system(Cable(1000.0, 10), None, 1.0 / FS)
    u = _rows((batch, 2, 200), seed=100 + batch)
    y = circuit.solve_systems(system, u)
    assert y.shape == (batch, 2, 200) and y.flags.c_contiguous
    assert np.array_equal(y, _column_solve(system, u))


def _loop_systems(variant):
    """A cable's low-high and high-low loop systems and the defense's in-site system."""
    cfgs = (LoopConfig(1000.0, 9000.0), LoopConfig(9000.0, 1000.0), None)
    return [circuit.loop_system(variant, cfg, 1.0 / FS) for cfg in cfgs]


@pytest.mark.parametrize("n_sys", [1, 3, 8])
@pytest.mark.parametrize("batch", [1, 5, 13, 16])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_system_stacked_scan_equals_separate_scans(variant, batch, n_sys):
    """S stacked loop and in-site systems give each system's own scan bit for bit, and the
    plain loop in row form."""
    systems = _loop_systems(variant)
    p = np.stack([systems[s % 3].p for s in range(n_sys)])
    t, m = 40, p.shape[-1]
    rng = np.random.default_rng(batch + 17 * n_sys)
    drive = rng.standard_normal((n_sys, t - 1, batch, m)).transpose(0, 3, 1, 2)
    x0 = rng.standard_normal((n_sys, batch, m)).swapaxes(1, 2)
    got = _scan(p, drive, x0)
    for s in range(n_sys):
        assert np.array_equal(got[:, s], _scan(p[s], drive[s : s + 1], x0[s : s + 1])[:, 0])
        np.testing.assert_allclose(got[:, s], _row_steps(p[s], drive[s], x0[s]), rtol=1e-13)


@pytest.mark.parametrize("n_sys", [1, 3, 8])
@pytest.mark.parametrize("batch", [1, 5, 13, 16])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_system_stacked_solve_equals_separate_solves(variant, batch, n_sys):
    """A stack of alternating low-high and high-low loops solves each system's rows as its
    own solve would; the in-site system shared by a stack equals S stacked copies of it."""
    lh, hl, in_site = _loop_systems(variant)
    loops = [(lh, hl)[s % 2] for s in range(n_sys)]
    u = _rows((n_sys, batch, 3, 200), seed=batch + 17 * n_sys)
    y = circuit.solve_systems(circuit.stack_systems(loops), u)
    assert y.shape == (n_sys, batch, 4, 200)
    for system, u_s, y_s in zip(loops, u, y):
        assert np.array_equal(y_s, _column_solve(system, u_s))
    ends = y[:, :, 2:]  # end voltages, as the defense feeds them back
    shared = circuit.solve_systems(in_site, ends)
    copies = circuit.stack_systems([in_site] * n_sys)
    assert np.array_equal(shared, circuit.solve_systems(copies, ends))
    for v_s, y_s in zip(ends, shared):
        assert np.array_equal(y_s, _column_solve(in_site, v_s))


def _random_system(m, n_in, n_out, seed):
    """A stable discretized system with random matrices of order one."""
    p, _, _ = _problem(m, 2, 1, seed=seed)
    rng = np.random.default_rng(seed)
    shapes = ((m, n_in), (m, n_in), (n_out, m), (n_out, n_in), (m, n_in))
    return circuit._DiscreteSystem(p, *(rng.standard_normal(shape) for shape in shapes), dt=1.0)


def _reference_solve(system, u):
    """The plain recurrence for one row: inputs (n_in, t) -> outputs (n_out, t)."""
    x = system.dc_gain @ u[:, 0]
    out = [system.c_out @ x + system.d_out @ u[:, 0]]
    for k in range(1, u.shape[1]):
        x = system.p @ x + system.q_next @ u[:, k] + system.q_prev @ u[:, k - 1]
        out.append(system.c_out @ x + system.d_out @ u[:, k])
    return np.array(out).T


def _counted_scan(monkeypatch, record):
    """Patch `circuit.ladder_scan` to call `record(p, x, drive)` first, with the drive terms
    `drive` = x[1:] that the step-major buffer holds on entry."""
    scan = circuit.ladder_scan

    def counted(p, x):
        record(p, x, x[1:])
        return scan(p, x)

    monkeypatch.setattr(circuit, "ladder_scan", counted)


# 199 steps in blocks of `block` steps, the last one shorter unless `block` divides 199
@pytest.mark.parametrize("block", [2, 3, 7, 50, 99, 198])
@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("m", [1, 19])
def test_time_blocked_solve_equals_one_block(monkeypatch, m, batch, block):
    systems = [_random_system(m, 3, 4, seed=m + s) for s in range(2)]
    if m == 19:
        systems += _loop_systems(Cable(1000.0, 10))[:2]
    stack = circuit.stack_systems(systems)
    u = _rows((len(systems), batch, 3, 200), seed=block)
    monkeypatch.setattr(circuit, "SCAN_BLOCK_BYTES", 2**40)
    one_block = circuit.solve_systems(stack, u)
    # `block` steps and one more slot, the carried state, of a block's states or its four
    # outputs, whichever take more
    pad = -(-batch // 8) * 8
    budget = (block + 1) * 8 * len(systems) * max(m, 4) * pad
    monkeypatch.setattr(circuit, "SCAN_BLOCK_BYTES", budget)
    steps = []
    _counted_scan(monkeypatch, lambda p, x, drive: steps.append(x.shape[0] - 1))
    assert np.array_equal(circuit.solve_systems(stack, u), one_block)
    *full, last = steps
    assert sum(steps) == 199 and set(full) <= {block} and 1 <= last <= block
    # outputs are sums of order-one terms, so near-zero samples are held to the row's scale
    for system, u_s, y_s in zip(systems[:2], u, one_block):
        for row, out in zip(u_s, y_s):
            ref = _reference_solve(system, row)
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def _one_state_systems():
    """The canceller's loop systems and random one-state systems, a (2, 3) stack, and rows
    (3, 45, 3, 202) that the stack's rows share."""
    lh, hl, _ = _loop_systems(CableWithKiller(1000.0, 10))
    randoms = [_random_system(1, 3, 4, seed=s) for s in range(4)]
    return [[lh, hl, randoms[0]], randoms[1:]], _rows((3, 45, 3, 202), seed=5)


# a slab budget of `asked` columns gives slabs of `width` columns, a multiple of 8, at least 8
@pytest.mark.parametrize(("asked", "width"), [(3, 8), (27, 24)])
def test_one_state_jobs_share_one_elementwise_scan(monkeypatch, asked, width):
    """One-state systems, whose step product is one term per column, stack like any others:
    a (2, 3) stack of canceller and random systems over shared rows scans them in slabs of
    `width` columns, and each system's outputs equal its own solve bit for bit, and the
    plain loop."""
    grid, u = _one_state_systems()
    stack = circuit.stack_systems(grid)
    monkeypatch.setattr(circuit, "SLAB_BYTES", asked * 8 * 6 * 4 * 202)
    widths = []
    _counted_scan(monkeypatch, lambda p, x, drive: widths.append(x.shape[-1]))
    y = circuit.solve_systems(stack, u)
    assert y.shape == (2, 3, 45, 4, 202)
    assert set(widths) == {width, -(-(45 % width) // 8) * 8} - {0}
    for row, systems in enumerate(grid):
        for col, system in enumerate(systems):
            assert np.array_equal(y[row, col], circuit.solve_systems(system, u[col]))
            for u_r, y_r in zip(u[col], y[row, col]):
                ref = _reference_solve(system, u_r)
                np.testing.assert_allclose(y_r, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_slab_width_does_not_change_outputs(monkeypatch, variant):
    """Slabs of 8 to 256 columns, and one slab of all 450, give the same outputs."""
    systems = circuit.stack_systems(_loop_systems(variant)[:2])
    u = _rows((2, 450, 3, 200), seed=9)
    whole = circuit.solve_systems(systems, u)
    for width in (8, 16, 32, 64, 256):
        monkeypatch.setattr(circuit, "SLAB_BYTES", width * 8 * 2 * 4 * 200)
        slabs = list(circuit.solve_slabs(systems, u))
        assert slabs[0][1].shape == (2, width, 4, 200)
        for cols, y in slabs:
            assert np.array_equal(y, whole[:, cols])


@pytest.mark.parametrize("batch", [1, 5, 16])
def test_ladder_pair_shares_one_stacked_scan(monkeypatch, batch):
    """The 100 m and 1000 m ladders, given one pair's drive rows at 3 levels, are solved as
    one stack of 2 systems whose outputs equal each ladder's own scan bit for bit."""
    ladders = [Cable(100.0, 10), Cable(1000.0, 10)]
    cfg = LoopConfig(9000.0, 1000.0)
    u = _rows((3 * batch, 3, 200), seed=batch)
    alone = [circuit.solve_systems(circuit.loop_system(v, cfg, 1.0 / FS), u) for v in ladders]
    stacks = []
    _counted_scan(monkeypatch, lambda p, x, drive: stacks.append(x.shape[1]))
    shared = np.concatenate([y for _, y in circuit.loop_slabs(u, ladders, cfg, 1.0 / FS)], axis=1)
    assert stacks and set(stacks) == {2}
    for y, y_alone in zip(shared, alone):
        assert np.array_equal(y, y_alone)


# Production-shaped systems: the canceller (m = 1) and ladders of 10, 20 and 40 segments,
# their loops with three inputs and their in-site simulations with two
_SYSTEMS = {1: CableWithKiller(1000.0, 10), 19: Cable(1000.0, 10), 39: Cable(1000.0, 20)}
_SYSTEMS[79] = Cable(1000.0, 40)


@functools.lru_cache(maxsize=1)
def _widest_map():
    """The most columns that one map product of a default table1 grid chunk or defense chunk
    multiplies: a time block's samples times a slab's columns, (steps + 1) x width, over
    the layouts that `circuit._layout` gives the two chunks' scans."""
    layout, layouts = circuit._layout, []

    def recorded(*shape):
        layouts.append(layout(*shape))
        return layouts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit, "_layout", recorded)
        cfg = harness.SimConfig()
        chunk = harness._classify_chunk(cfg, 0)
        harness._grid_chunk(cfg, chunk, harness.default_table1_variants(), harness.TABLE1_LEVELS)
        injection = attack.InjectionSpec(0.1, 250.0, 12345)
        cfg = harness.SimConfig(variant=Cable(1000.0, 10), injection=injection)
        harness._defense_chunk(cfg, harness._classify_chunk(cfg, 0))
    assert layouts
    return max((block + 1) * width for width, block in layouts)


@pytest.mark.parametrize("n_in", [2, 3])
@pytest.mark.parametrize("m", sorted(_SYSTEMS))
def test_column_products_do_not_depend_on_width_or_offset(m, n_in):
    """On the running machine's BLAS, each column of the scan's products has the same bits
    at any multiple of 8 columns and at any column offset, from a contiguous operand or a
    view with a longer row stride: the step product, the input maps and the start state's,
    and the output maps. Every output of the solves rests on this. The widths reach the
    widest map product of the default grid's and defense's chunks."""
    loop_cfg = LoopConfig(1000.0, 9000.0) if n_in == 3 else None
    system = circuit.loop_system(_SYSTEMS[m], loop_cfg, 1.0 / FS)
    maps = [(system.p, m), (system.c_out, m)]
    maps += [(a, n_in) for a in (system.q_next, system.q_prev, system.dc_gain, system.d_out)]
    widest = _widest_map()
    widths = [n for n in (8, 16, 40, 64, 136, 256, 512, 1024, 2048) if n < widest] + [widest]
    rng = np.random.default_rng(m + n_in)
    for a, rows in maps:
        operand = rng.standard_normal((rows, widest + 88))
        full = a @ operand[:, :widest]
        for n in widths:
            for offset in {0, 8, 24, widest - n}:
                if offset + n > widest:
                    continue
                view = operand[:, offset : offset + n]
                assert np.array_equal(a @ view, full[:, offset : offset + n]), (a.shape, n, offset)
                assert np.array_equal(a @ np.ascontiguousarray(view), full[:, offset : offset + n])
        stacked = np.stack([a, 2.0 * a]) @ np.stack([operand[:, :64], operand[:, 64:128]])
        assert np.array_equal(stacked[0], full[:, :64])
        assert np.array_equal(stacked[1], (2.0 * a) @ operand[:, 64:128])


# t = 5 is one time block of each slab; t = 300 takes several. `rows` are u's leading axes,
# its N columns last; `stacks` the systems' stack shape, none for one system.
@pytest.mark.parametrize("t", [5, 300])
@pytest.mark.parametrize(
    ("m", "rows", "stacks"),
    [
        (19, [3, 16], [3]),  # 3 systems, 16 columns each
        (19, [2, 40], [2, 2]),  # variants x pairs, the rows shared by the variants
        (79, [15], [2]),  # both systems share all rows
        (79, [5, 30], []),  # one system, a stack of 5 copies of it with 30 columns each
        (79, [2, 1, 48], [1, 2, 3]),
        (1, [2, 280], [2]),
    ],
)
def test_scan_bytes_are_the_bytes_the_solve_allocates(monkeypatch, m, rows, stacks, t):
    """`circuit.scan_bytes` reports, for the scan's shapes, the bytes of the slab outputs, the
    stepping buffer and the step matrices that the scan holds."""
    monkeypatch.setattr(circuit, "SLAB_BYTES", 2**16)
    systems = np.empty(stacks, dtype=object)
    for i in np.ndindex(*stacks):
        systems[i] = _random_system(m, 3, 4, seed=sum(i))
    system = systems[()] if not stacks else circuit.stack_systems(systems.tolist())
    u = _rows(tuple(rows) + (3, t), seed=m)
    plan = circuit.scan_bytes(system.p.shape, u.shape, 4)
    held = set()
    _counted_scan(monkeypatch, lambda p, x, drive: held.add((x.base.nbytes, p.nbytes)))
    slabs = [y.nbytes for _, y in circuit.solve_slabs(system, u)]
    outputs, stepping, matrices = plan
    assert "slab outputs" in outputs and "stepping buffer" in stepping
    assert "step matrices" in matrices
    assert max(slabs) == plan[outputs]
    assert held == {(plan[stepping], plan[matrices])}
