"""The cable recurrence `circuit.ladder_scan` against a plain loop."""
import numpy as np

from kljnsim import circuit


def _problem(m, t, seed=3):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, m))
    p *= 0.95 / np.max(np.abs(np.linalg.eigvals(p)))  # keep the recurrence stable
    qu = rng.standard_normal((t - 1, m))
    x0 = rng.standard_normal(m)
    return p, qu, x0


def test_python_scan_matches_reference_loop():
    p, qu, x0 = _problem(m=4, t=30)
    got = circuit.ladder_scan(p, qu, x0)
    x = x0.copy()
    assert np.array_equal(got[0], x0)
    for k in range(1, 30):
        x = p @ x + qu[k - 1]
        np.testing.assert_allclose(got[k], x, rtol=1e-13)


def test_ladder_scan_shape_and_determinism():
    p, qu, x0 = _problem(m=7, t=64)
    a = circuit.ladder_scan(p, qu, x0)
    b = circuit.ladder_scan(p, qu, x0)
    assert a.shape == (64, 7)
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], x0)
