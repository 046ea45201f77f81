"""The cable recurrence `circuit.ladder_scan` and the level-stacked solve against plain loops."""
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
    product per sample step: what `TransientSolver.solve` must reproduce at every level."""
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
    solver = circuit.TransientSolver(
        circuit.model_for_variant(variant), LoopConfig(1000.0, 9000.0, variant), 1.0 / FS
    )
    u = _rows((3, batch, 3, 200), seed=batch)
    y = solver.solve(u)
    assert y.shape == (3, batch, 4, 200)
    for u_lvl, y_lvl in zip(u, y):
        assert np.array_equal(y_lvl, solver.solve(u_lvl))
        assert np.array_equal(y_lvl, _unstacked_solve(solver.system, u_lvl))


@pytest.mark.parametrize("batch", [1, 16, 32])
def test_in_site_solver_is_unchanged(batch):
    """The defense's cable-alone solver (cfg=None): two end voltages in, two currents out."""
    solver = circuit.transient_solver(circuit.model_for_variant(Cable(1000.0, 10)), None, 1.0 / FS)
    u = _rows((batch, 2, 200), seed=100 + batch)
    y = solver.solve(u)
    assert y.shape == (batch, 2, 200) and y.flags.c_contiguous
    assert np.array_equal(y, _unstacked_solve(solver.system, u))
