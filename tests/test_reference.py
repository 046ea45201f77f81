"""The package's array pipeline against `reference`, which runs each exchange alone.

Key bits must match exactly. Eve's bits, the parties' decisions and the defense's
detections must match too, except a decision whose margin (`reference`) lies below
MARGIN: roundoff may flip it, so it is reported, not compared.
"""
import functools
from dataclasses import replace

import numpy as np
import pytest

import reference
from kljnsim import attack, circuit, harness

# The two runs draw the same noise rows bit for bit, and their solves differ by about 1e-15
# of their outputs: MARGIN leaves seven orders of room
MARGIN = 1e-8
CFG = harness.SimConfig(master_seed=12345)
CABLE = circuit.Cable(1000.0, 10)
KILLER = circuit.CableWithKiller(1000.0, 10)


class Decisions:
    """Compares decisions, and keeps those too close to their threshold to compare."""

    def __init__(self):
        self.compared, self.reported = 0, []

    def check(self, label, got, want, margin):
        if margin < MARGIN:
            self.reported.append((label, margin))
            return
        self.compared += 1
        assert got == want, label

    def done(self, at_least):
        if self.reported:
            print("decisions within roundoff of their threshold, not compared:", self.reported)
        assert self.compared >= at_least and len(self.reported) <= self.compared // 100


def _secure(cfg, n):
    """The first n secure exchanges as the reference classifies them: their indices."""
    found, index = [], 0
    while len(found) < n:
        r_a, r_b = reference.choices(cfg, index)
        if r_a != r_b:
            found.append(index)
        index += 1
    return found


def _check_grid(cfg, size):
    """A grid run of cfg.n_bits secure bits in chunks of `size` exchanges, at least three and
    the last one trimmed, on the ideal wire, both ladders, which share their scans, and the
    canceller at levels 0, 0.01 and 0.1, against the reference."""
    variants = [circuit.Ideal(), circuit.Cable(100.0, 10), CABLE, KILLER]
    levels = (0.0, 0.01, 0.1)
    worker = functools.partial(harness._grid_chunk, variants=variants, levels=levels)
    payloads = list(harness._consume_chunks(cfg, worker, cfg.n_bits, size))
    last = payloads[-1]["index"]
    assert len(payloads) >= 3
    assert len(last) < len(harness._classify_chunk(cfg, last[0] // size * size, size)[0])
    secure = _secure(cfg, cfg.n_bits)
    decisions = Decisions()
    for payload in payloads:
        for j, index in enumerate(payload["index"].tolist()):
            assert index == secure.pop(0)
            for level_at, level in enumerate(levels):
                r, u = reference.drive(cfg, index, level)
                assert payload["key_bits"][j] == (r[0] == cfg.r_h)
                for v, wire in enumerate(variants):
                    y = reference.solve(cfg, wire, r, u)
                    label = (index, harness.variant_label(wire), level)
                    bit, margin = reference.eve(cfg, index, level, u, y)
                    decisions.check(label + ("eve",), payload["eve_bits"][v, level_at, j], bit, margin)
                    (alice, m_a), (bob, m_b) = reference.honest(cfg, r, y)
                    ok = payload["honest_ok"][v, level_at, j]
                    decisions.check(label + ("honest",), ok, alice == r[1] and bob == r[0], min(m_a, m_b))
    assert not secure
    decisions.done(at_least=len(variants) * len(levels) * cfg.n_bits * 2 * 99 // 100)


def test_grid_decisions_equal_the_reference():
    """100 secure bits, both resistor pairs' columns, in four chunks of 64 exchanges."""
    _check_grid(replace(CFG, n_bits=100), 64)


def test_fixed_lh_grid_decisions_equal_the_reference():
    """40 secure bits, one resistor pair's columns, in chunks of 16, 16 and 8 exchanges."""
    _check_grid(replace(CFG, n_bits=40, selection_mode="fixed_lh"), 16)


@pytest.mark.parametrize("wire", [CABLE, KILLER], ids=["cable_1000m", "cable_1000m_killer"])
def test_defense_detections_equal_the_reference(wire):
    """40 pairs, the first 20 of which calibrate: the threshold, and every evaluated pair's
    detection on both arms."""
    cfg = harness.SimConfig(
        n_bits=40, variant=wire, master_seed=12345, injection=attack.InjectionSpec(0.1, 250.0)
    )
    n_cal = 20
    result = harness.run_defense_experiment(cfg, n_calibration=n_cal)
    arms = []  # per pair: the clean arm's and the attacked arm's residual rows, and channel RMS
    for index in _secure(cfg, cfg.n_bits):
        pair = []
        for level in (0.0, cfg.injection.level_fraction):
            r, u = reference.drive(cfg, index, level)
            y = reference.solve(cfg, wire, r, u)
            pair.append((reference.residuals(cfg, wire, y), float(np.sqrt(np.mean(y[0] ** 2)))))
        arms.append((index, pair))
    clean = [pair[0] for _, pair in arms[:n_cal]]
    threshold = reference.threshold(
        cfg, [res for res, _ in clean], [rms for _, rms in clean], cfg.detection_multiplier
    )
    assert result.detection.threshold == pytest.approx(threshold, rel=1e-9)
    decisions = Decisions()
    rows = iter(result.rows)
    for index, pair in arms[n_cal:]:
        for attacked, (res, _) in zip((False, True), pair):
            row = next(rows)
            assert (row.bit, row.attacked) == (index, attacked)
            hit, margin = reference.detected(res, threshold)
            decisions.check((index, attacked), row.detected, hit, margin)
    decisions.done(at_least=2 * (cfg.n_bits - n_cal))


@pytest.mark.parametrize(
    "index,kind", [(0, "HH"), (2, "LL"), (3, "HL")], ids=["discard_hh", "discard_ll", "secure"]
)
def test_single_bit_decisions_equal_the_reference(index, kind):
    """One exchange of each class on the 1000 m cable at 10 % injection."""
    cfg = harness.SimConfig(variant=CABLE, master_seed=12345, injection=attack.InjectionSpec(0.1, 250.0))
    dump = harness.run_single_bit(cfg, index)
    r, u = reference.drive(cfg, index, 0.1)
    assert "".join("H" if x == cfg.r_h else "L" for x in r) == kind
    assert tuple(dump.choices.tolist()) == r
    y = reference.solve(cfg, CABLE, r, u)
    decisions = Decisions()
    for got, (want, margin) in zip(dump.inferred.tolist(), reference.honest(cfg, r, y)):
        decisions.check((index, "honest"), got, want, margin)
    bit, margin = reference.eve(cfg, index, 0.1, u, y)
    decisions.check((index, "eve"), dump.eve_guess, bit, margin)
    decisions.done(at_least=3)
