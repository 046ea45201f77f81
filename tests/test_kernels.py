"""The cable recurrence `circuit.ladder_scan` and the stacked, time-blocked solve against plain
loops."""
import numpy as np
import pytest

from kljnsim import circuit
from kljnsim.circuit import Cable, CableWithKiller, LoopConfig
from kljnsim.exceptions import ShapeMismatchError

FS = 2000.0


def _problem(m, t, batch, seed=3, levels=None):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, m))
    p *= 0.95 / np.max(np.abs(np.linalg.eigvals(p)))  # keep the recurrence stable
    lead = () if levels is None else (levels,)
    qu = rng.standard_normal(lead + (t - 1, batch, m))
    x0 = rng.standard_normal(lead + (batch, m))
    return p, qu, x0


def _scan(p, qu, x0):
    """`ladder_scan` on a fresh buffer holding x0 then the drive terms; checks it works in place."""
    x = np.concatenate([x0[..., None, :, :], qu], axis=-3)
    out = circuit.ladder_scan(p, x)
    assert out is x
    return out


def test_python_scan_matches_reference_loop():
    p, qu, x0 = _problem(m=4, t=30, batch=1)
    got = _scan(p, qu, x0)
    assert np.array_equal(got[0], x0)
    for row in range(x0.shape[0]):
        x = x0[row].copy()
        for k in range(1, 30):
            x = p @ x + qu[k - 1, row]
            np.testing.assert_allclose(got[k, row], x, rtol=1e-13)


def test_ladder_scan_shape_and_determinism():
    p, qu, x0 = _problem(m=7, t=64, batch=3)
    a = _scan(p, qu, x0)
    b = _scan(p, qu, x0)
    assert a.shape == (64, 3, 7)
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], x0)


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("m", [1, 3, 19])
def test_level_stacked_scan_equals_separate_scans(m, batch, levels):
    """A (L, t, B, m) buffer gives each level's (t, B, m) scan bit for bit, and the plain loop."""
    t = 40
    p, qu, x0 = _problem(m, t, batch, seed=m + 7 * batch, levels=levels)
    got = _scan(p, qu, x0)
    assert got.shape == (levels, t, batch, m)
    for lvl in range(levels):
        assert np.array_equal(got[lvl], _scan(p, qu[lvl], x0[lvl]))
        x = x0[lvl].T
        for k in range(1, t):
            x = p @ x + qu[lvl, k - 1].T
            np.testing.assert_allclose(got[lvl, k], x.T, rtol=1e-13)


def _unstacked_solve(system, u):
    """The single-level batched solve, shape (B, n_in, t) -> (B, n_out, t), one (B, m) @ (m, m)
    product per sample step: what `solve_systems` must reproduce at every level."""
    n_rows, n_in, t = u.shape
    m = system.n_states
    flat = u.transpose(2, 0, 1).reshape(t * n_rows, n_in)
    x = np.empty((t, n_rows, m))
    x[0] = u[:, :, 0] @ system.dc_gain.T
    drive = x[1:].reshape((t - 1) * n_rows, m)
    np.matmul(flat[n_rows:], system.q_next.T, out=drive)
    drive += flat[:-n_rows] @ system.q_prev.T
    for k in range(1, t):
        x[k] += x[k - 1] @ system.p.T
    y = x.reshape(t * n_rows, m) @ system.c_out.T + flat @ system.d_out.T
    return y.reshape(t, n_rows, -1).transpose(1, 2, 0)


def _rows(shape, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape)
    if shape[-2] == 3:
        u[..., 2, :] *= 3e-5  # an injected current's scale
    return u


@pytest.mark.parametrize("batch", [1, 7, 16])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_level_stacked_solve_equals_separate_solves(variant, batch):
    system = circuit.loop_system(variant, LoopConfig(1000.0, 9000.0), 1.0 / FS)
    u = _rows((3, batch, 3, 200), seed=batch)
    y = circuit.solve_systems(system, u)
    assert y.shape == (3, batch, 4, 200)
    for u_lvl, y_lvl in zip(u, y):
        assert np.array_equal(y_lvl, circuit.solve_systems(system, u_lvl))
        assert np.array_equal(y_lvl, _unstacked_solve(system, u_lvl))


@pytest.mark.parametrize("batch", [1, 16, 32])
def test_in_site_solver_is_unchanged(batch):
    """The defense's cable-alone solver (cfg=None): two end voltages in, two currents out."""
    system = circuit.loop_system(Cable(1000.0, 10), None, 1.0 / FS)
    u = _rows((batch, 2, 200), seed=100 + batch)
    y = circuit.solve_systems(system, u)
    assert y.shape == (batch, 2, 200) and y.flags.c_contiguous
    assert np.array_equal(y, _unstacked_solve(system, u))


def _loop_systems(variant):
    """A cable's low-high and high-low loop systems and the defense's in-site system."""
    cfgs = (LoopConfig(1000.0, 9000.0), LoopConfig(9000.0, 1000.0), None)
    return [circuit.loop_system(variant, cfg, 1.0 / FS) for cfg in cfgs]


@pytest.mark.parametrize("n_sys", [1, 3, 8])
@pytest.mark.parametrize("batch", [1, 5, 13, 16])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_system_stacked_scan_equals_separate_scans(variant, batch, n_sys):
    """S stacked loop and in-site systems give each system's own scan bit for bit, and the
    plain loop."""
    systems = _loop_systems(variant)
    p = np.stack([systems[s % 3].p for s in range(n_sys)])
    t, m = 40, p.shape[-1]
    rng = np.random.default_rng(batch + 17 * n_sys)
    qu = rng.standard_normal((n_sys, t - 1, batch, m))
    x0 = rng.standard_normal((n_sys, batch, m))
    got = _scan(p, qu, x0)
    for s in range(n_sys):
        assert np.array_equal(got[s], _scan(p[s], qu[s], x0[s]))
        x = x0[s].T
        for k in range(1, t):
            x = p[s] @ x + qu[s, k - 1].T
            np.testing.assert_allclose(got[s, k], x.T, rtol=1e-13)


@pytest.mark.parametrize("n_sys", [1, 3, 8])
@pytest.mark.parametrize("batch", [1, 5, 13, 16])
@pytest.mark.parametrize("variant", [Cable(1000.0, 10), CableWithKiller(1000.0, 10)])
def test_system_stacked_solve_equals_separate_solves(variant, batch, n_sys):
    """A stack of alternating low-high and high-low loops solves each batch as its own
    system would; the in-site system shared by a stack equals S stacked copies of it."""
    lh, hl, in_site = _loop_systems(variant)
    loops = [(lh, hl)[s % 2] for s in range(n_sys)]
    u = _rows((n_sys, batch, 3, 200), seed=batch + 17 * n_sys)
    y = circuit.solve_systems(circuit.stack_systems(loops), u)
    assert y.shape == (n_sys, batch, 4, 200)
    for system, u_s, y_s in zip(loops, u, y):
        assert np.array_equal(y_s, _unstacked_solve(system, u_s))
    ends = y[:, :, 2:]  # end voltages, as the defense feeds them back
    shared = circuit.solve_systems(in_site, ends)
    copies = circuit.stack_systems([in_site] * n_sys)
    assert np.array_equal(shared, circuit.solve_systems(copies, ends))
    for v_s, y_s in zip(ends, shared):
        assert np.array_equal(y_s, _unstacked_solve(in_site, v_s))


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


# 199 steps, in blocks of at most `block` steps (rounded so that a block spans a multiple
# of 8 rows): a one-step remainder joins the last block, others make it ragged
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
    # `block` steps and two more slots: the carried state and a one-step remainder
    monkeypatch.setattr(circuit, "SCAN_BLOCK_BYTES", (block + 2) * 8 * len(systems) * batch * m)
    scan, steps = circuit.ladder_scan, []

    def counted_scan(p, x):
        steps.append(x.shape[1] - 1)
        return scan(p, x)

    monkeypatch.setattr(circuit, "ladder_scan", counted_scan)
    assert np.array_equal(circuit.solve_systems(stack, u), one_block)
    *full, last = steps
    assert sum(steps) == 199 and last >= 2 and len(set(full)) <= 1
    assert all(n <= max(block, 8) and n * batch % 8 == 0 for n in full)
    if block < 99:
        assert len(steps) > 1
    # outputs are sums of order-one terms, so near-zero samples are held to the row's scale
    for system, u_s, y_s in zip(systems[:2], u, one_block):
        for row, out in zip(u_s, y_s):
            ref = _reference_solve(system, row)
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def _one_state_jobs():
    """One-state jobs of B = 1, 2, 5, 13, 16 rows and S = 1 or 3 systems, each with its own
    inputs, and each job's systems: the canceller's loop systems, random one-state systems
    and the canceller's in-site system (two inputs, two outputs)."""
    lh, hl, in_site = _loop_systems(CableWithKiller(1000.0, 10))
    jobs = []
    for b, batch in enumerate((1, 2, 5, 13, 16)):
        randoms = [_random_system(1, 3, 4, seed=10 * b + s) for s in range(3)]
        for systems, shape in (
            ([lh], (batch, 3, 202)),
            ([hl, randoms[0], lh], (3, batch, 3, 202)),
            ([randoms[1]], (1, batch, 3, 202)),
            (randoms, (3, batch, 3, 202)),
            ([in_site], (batch, 2, 202)),
        ):
            system = systems[0] if len(shape) == 3 else circuit.stack_systems(systems)
            jobs.append((system, _rows(shape, seed=len(jobs)), systems))
    return jobs


# a budget of `asked` steps for the jobs' 333 rows gives blocks of `block` steps, a multiple
# of 8 and at least 8; 201 steps leave 9 for the last block
@pytest.mark.parametrize(("asked", "block"), [(3, 8), (27, 24)])
def test_one_state_jobs_share_one_elementwise_scan(monkeypatch, asked, block):
    """One-state jobs of any B and S advance in one scan whose blocks span multiples of 8 steps
    but the last; each job's outputs equal its own solve bit for bit, and the plain loop."""
    jobs = _one_state_jobs()
    alone = [circuit.solve_systems(system, u) for system, u, _ in jobs]
    n_rows = sum(u.size // (u.shape[-2] * u.shape[-1]) for _, u, _ in jobs)
    monkeypatch.setattr(circuit, "SCAN_BLOCK_BYTES", (asked + 2) * 8 * n_rows)
    scan, steps = circuit.ladder_scan, []

    def counted_scan(p, x):
        assert x.shape == (1, x.shape[1], n_rows, 1) and p.shape == (1, n_rows, 1)
        steps.append(x.shape[1] - 1)
        return scan(p, x)

    monkeypatch.setattr(circuit, "ladder_scan", counted_scan)
    together = list(circuit.solve_jobs([(system, u) for system, u, _ in jobs]))
    *full, last = steps
    assert sum(steps) == 201 and full and set(full) == {block} and last == 9
    for (_, u, systems), y, y_alone in zip(jobs, together, alone):
        assert y.shape == y_alone.shape and np.array_equal(y, y_alone)
        rows = u.reshape((len(systems), -1) + u.shape[-2:])
        outs = y.reshape((len(systems), -1) + y.shape[-2:])
        for system, u_s, y_s in zip(systems, rows, outs):
            for row, out in zip(u_s, y_s):
                ref = _reference_solve(system, row)
                np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("batch", [1, 5, 16])
def test_ladder_pair_shares_one_stacked_scan(monkeypatch, batch):
    """The 100 m and 1000 m ladders, given one batch's drive rows at 3 levels, are solved as
    one stack of 6 systems whose outputs equal each ladder's own scan bit for bit."""
    systems = [
        circuit.loop_system(v, LoopConfig(9000.0, 1000.0), 1.0 / FS)
        for v in (Cable(100.0, 10), Cable(1000.0, 10))
    ]
    u = _rows((3, batch, 3, 200), seed=batch)
    alone = [circuit.solve_systems(system, u) for system in systems]
    scan, stacks = circuit.ladder_scan, []

    def counted_scan(p, x):
        stacks.append(x.shape[0])
        return scan(p, x)

    monkeypatch.setattr(circuit, "ladder_scan", counted_scan)
    shared = list(circuit.solve_jobs([(system, u) for system in systems]))
    assert stacks and set(stacks) == {6}
    for y, y_alone in zip(shared, alone):
        assert np.array_equal(y, y_alone)


def test_multi_state_jobs_of_unequal_row_counts_raise():
    """Ladder jobs of 16 and 13 rows would need two scans; the solve refuses them, while a
    one-state job of another B joins freely."""
    lh, hl, _ = _loop_systems(Cable(1000.0, 10))
    killer, _, _ = _loop_systems(CableWithKiller(1000.0, 10))
    jobs = [(lh, _rows((3, 16, 3, 50), seed=1)), (hl, _rows((3, 13, 3, 50), seed=2))]
    with pytest.raises(ShapeMismatchError, match="row count"):
        list(circuit.solve_jobs(jobs))
    mixed = [jobs[0], (killer, _rows((3, 13, 3, 50), seed=3))]
    for (system, u), y in zip(mixed, circuit.solve_jobs(mixed)):
        assert np.array_equal(y, circuit.solve_systems(system, u))


def _plan_jobs(m, rows, stacks, t):
    """Jobs of m states, B = `rows` rows each (one B per job at m = 1), of t samples: a job
    per entry of `stacks`, S stacks sharing one system, or S stacked systems when negative."""
    jobs = []
    for j, (n_sys, batch) in enumerate(zip(stacks, rows)):
        systems = [_random_system(m, 3, 4, seed=10 * j + s) for s in range(abs(n_sys))]
        system = systems[0] if n_sys > 0 else circuit.stack_systems(systems)
        jobs.append((system, _rows((abs(n_sys), batch, 3, t), seed=j)))
    return jobs


# t = 5 is one time block of each group of jobs; t = 300 takes several
@pytest.mark.parametrize("t", [5, 300])
@pytest.mark.parametrize(
    ("m", "rows", "stacks"),
    [
        (19, [16], [3]),  # one job of S levels
        (19, [16, 16], [3, -4]),  # two jobs share one scan, one of stacked systems
        (79, [15], [-2]),
        (79, [15, 15], [2, 3]),
        (79, [16, 16, 16], [1, 2, 2]),
        (1, [1, 5, 13, 16], [20, -3, 9, -8]),  # one-state jobs of unequal B, 280 rows
    ],
)
def test_scan_bytes_are_the_bytes_the_solve_allocates(monkeypatch, m, rows, stacks, t):
    """`circuit.scan_bytes` reports, for the jobs' shapes, the bytes of the stepping array
    and the step matrices that the scan of those jobs holds."""
    jobs = _plan_jobs(m, rows, stacks, t)
    plan = circuit.scan_bytes([(system.p.shape, u.shape) for system, u in jobs])
    scan, held = circuit.ladder_scan, []

    def recorded_scan(p, x):
        held.append((x.base.nbytes, p.nbytes))  # x is a view of the stepping array
        return scan(p, x)

    monkeypatch.setattr(circuit, "ladder_scan", recorded_scan)
    for y, (_, u) in zip(circuit.solve_jobs(jobs), jobs):
        assert y.shape == u.shape[:-2] + (4, t)
    assert set(held) == {tuple(plan.values())} and (len(held) > 1) == (t > 5)
    stepping, matrices = plan
    assert ("trajectory" if m == 1 else "stepping buffer") in stepping
    assert "step matrices" in matrices
