"""The cable recurrence `circuit.ladder_scan` against a plain loop."""
import numpy as np

from kljnsim import circuit


def _problem(m, t, batch, seed=3):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, m))
    p *= 0.95 / np.max(np.abs(np.linalg.eigvals(p)))  # keep the recurrence stable
    qu = rng.standard_normal((t - 1, batch, m))
    x0 = rng.standard_normal((batch, m))
    return p, qu, x0


def _scan(p, qu, x0):
    """`ladder_scan` on a fresh buffer holding x0 then the drive terms; checks it works in place."""
    x = np.concatenate([x0[None], qu])
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
