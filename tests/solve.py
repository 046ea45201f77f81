"""The package's solve of one loop's drive rows, as the tests call it."""
import numpy as np

from kljnsim import circuit


def solve_rows(u, wire, cfg, dt):
    """Solve drive rows (u_a, u_b, i_inj), shape (..., B, 3, t), on `wire` under one loop
    configuration `cfg`: the (i_cha, i_chb, u_cha, u_chb) rows in the Loop convention, shape
    (..., B, 4, t). The ideal wire in closed form, a cable in one `circuit.loop_slabs` scan of
    all rows."""
    if not wire.n_states:
        return circuit.ideal_rows(u[..., 0, :], u[..., 1, :], u[..., 2, :], cfg.r_alice, cfg.r_bob)
    slabs = circuit.loop_slabs(u.reshape((1, -1) + u.shape[-2:]), [wire], [cfg], dt)
    y = np.concatenate([y[0, 0] for _, y in slabs])
    return y.reshape(u.shape[:-2] + y.shape[-2:])
