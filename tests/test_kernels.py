"""The cable recurrence `circuit.ladder_scan` and the stacked, time-blocked solve against plain
loops."""
import numpy as np
import pytest

from kljnsim import circuit
from kljnsim.circuit import Cable, CableWithKiller, LoopConfig

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
    system = circuit.loop_system(
        circuit.model_for_variant(variant), LoopConfig(1000.0, 9000.0, variant), 1.0 / FS
    )
    u = _rows((3, batch, 3, 200), seed=batch)
    y = circuit.solve_systems(system, u)
    assert y.shape == (3, batch, 4, 200)
    for u_lvl, y_lvl in zip(u, y):
        assert np.array_equal(y_lvl, circuit.solve_systems(system, u_lvl))
        assert np.array_equal(y_lvl, _unstacked_solve(system, u_lvl))


@pytest.mark.parametrize("batch", [1, 16, 32])
def test_in_site_solver_is_unchanged(batch):
    """The defense's cable-alone solver (cfg=None): two end voltages in, two currents out."""
    system = circuit.loop_system(circuit.model_for_variant(Cable(1000.0, 10)), None, 1.0 / FS)
    u = _rows((batch, 2, 200), seed=100 + batch)
    y = circuit.solve_systems(system, u)
    assert y.shape == (batch, 2, 200) and y.flags.c_contiguous
    assert np.array_equal(y, _unstacked_solve(system, u))


def _loop_systems(variant):
    """A cable's low-high and high-low loop systems and the defense's in-site system."""
    model = circuit.model_for_variant(variant)
    cfgs = (LoopConfig(1000.0, 9000.0, variant), LoopConfig(9000.0, 1000.0, variant), None)
    return [circuit.loop_system(model, cfg, 1.0 / FS) for cfg in cfgs]


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
