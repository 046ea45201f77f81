"""The benchmark's three workloads: configs, public entry points and output checks.

A pass runs one public harness entry point plus `harness.write_report` at a
fixed master seed and size, with workers=1. `Workload.check` verifies a
pass's outputs against invariants that hold at any seed, including an
independent recount of the documented per-exchange seed scheme;
`Workload.pinned` extracts the values that `pinned.json` holds for the
default seed, taken from the seed commit.

Sizes are 64 k + 32 secure bits with k <= 3. Getting N secure bits takes
2 N +- sqrt(2 N) exchanges, so the last 128-exchange chunk then ends near its
middle, at least three standard deviations from either end: the number of
chunks, hence the work per bit, does not change with the seed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np

from kljnsim import attack, circuit, harness

PIN_SEED = 12345  # SimConfig's default master_seed
# set-up passes run at PIN_SEED with the 54 secure bits of the first
# 128-exchange chunk, so they cost one chunk per cell
PROBE_BITS = 54
DEFENSE_CALIBRATION_BITS = 20  # run_defense_experiment's default
HONEST_ERROR_RATE = 0.01  # the spec asks honest inference to be right on >= 99 % of bits
CLASS_NAMES = ("secure_lh", "secure_hl", "discard_ll", "discard_hh")


class SeedScheme:
    """Bit classes recomputed from the seed scheme documented in `harness`.

    Exchange i draws Alice's and Bob's choice from
    default_rng(SeedSequence(entropy=(master_seed, i, stream))) with streams
    0 and 1; integers(0, 2) == 0 picks the low resistor.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._classes: list[str] = []

    def _low(self, index: int, stream: int) -> bool:
        seq = np.random.SeedSequence(entropy=(self.master_seed, index, stream))
        return np.random.default_rng(seq).integers(0, 2) == 0

    def classes(self, n_exchanges: int) -> list[str]:
        for i in range(len(self._classes), n_exchanges):
            a_low, b_low = self._low(i, 0), self._low(i, 1)
            if a_low:
                self._classes.append("secure_lh" if not b_low else "discard_ll")
            else:
                self._classes.append("discard_hh" if not b_low else "secure_hl")
        return self._classes[:n_exchanges]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _class_counts(classes: list[str]) -> dict[str, int]:
    return {name: classes.count(name) for name in CLASS_NAMES}


def _check_csv(path, header, rows, errors) -> None:
    """`rows` are tuples of expected values; strings compare as text, numbers as parsed."""
    got_header, got_rows = _read_csv(path)
    name = path.rsplit("/", 1)[-1]
    if got_header != header:
        errors.append(f"{name}: header {got_header}")
        return
    if len(got_rows) != len(rows):
        errors.append(f"{name}: {len(got_rows)} rows, expected {len(rows)}")
        return
    for got, want in zip(got_rows, rows):
        for g, w in zip(got, want):
            if w is None:
                ok = g == ""
            elif isinstance(w, str):
                ok = g == w
            elif isinstance(w, (bool, np.bool_)):
                ok = g == ("1" if w else "0")
            else:
                ok = g != "" and float(g) == float(w)
            if not ok:
                errors.append(f"{name}: read back {got}, expected {list(want)}")
                return


def _check_cell(cell, cfg, level, scheme, errors) -> None:
    """One attack cell against the seed scheme, its own arrays and the closed form."""
    tag = f"{cell.variant_lbl}@{level:g}"
    if cell.n != cfg.n_bits or cell.level != level:
        errors.append(f"{tag}: n={cell.n} level={cell.level}")
        return
    if cell.n_exchanges != cell.n + cell.n_discarded:
        errors.append(f"{tag}: exchanges != secure + discarded")
    classes = scheme.classes(cell.n_exchanges)
    secure = [c for c in classes if c.startswith("secure")]
    if [c.value for c in cell.classifications] != secure or not classes[-1].startswith("secure"):
        errors.append(f"{tag}: secure bits differ from the seed scheme")
        return
    key = np.array([0 if c == "secure_lh" else 1 for c in secure], dtype=np.uint8)
    if not np.array_equal(cell.key_bits, key):
        errors.append(f"{tag}: key bits differ from the bit classes")
    if not np.array_equal(cell.q, (cell.eve_bits == cell.key_bits).astype(np.int8)):
        errors.append(f"{tag}: success indicators differ from Eve's bits")
    p = float(np.mean(cell.q))
    if cell.p_e != p or cell.stderr != math.sqrt(p * (1.0 - p) / cell.n):
        errors.append(f"{tag}: p_e/stderr differ from the success indicators")
    target = attack.analytic_ideal_success_probability(
        level, cfg.r_l, cfg.r_h, cfg.bandwidth_hz, cfg.tau_s
    )
    if abs(p - target) > 5.0 * math.sqrt(target * (1.0 - target) / cell.n) + 0.02:
        errors.append(f"{tag}: p_e={p} is far from the closed form {target:.4f}")
    _check_honest(cell, errors)


def _check_honest(cell, errors) -> None:
    """Honest inference is consistent with the spec's >= 99 % on this cell.

    One-sided binomial test at a 1 % error rate: the cell fails when its
    count of wrong inferences is that large with probability below 1e-6.
    A plain rate check is unsound on a small cell, where a single error
    already reads 1.04 % of 96 bits. Pooling over a grid's cells does not
    help either: the cells of a pass share each exchange's noise, so one
    hard exchange is wrong in all twelve of them.
    """
    wrong = round(cell.honest_error_rate * cell.n)
    tail = sum(
        math.comb(cell.n, k) * HONEST_ERROR_RATE**k * (1.0 - HONEST_ERROR_RATE) ** (cell.n - k)
        for k in range(wrong, cell.n + 1)
    )
    if tail < 1e-6:
        errors.append(
            f"{cell.variant_lbl}@{cell.level:g}: honest inference wrong on {wrong} of {cell.n} bits"
        )


def _cell_counters(cells, scheme) -> dict:
    out = dict.fromkeys(CLASS_NAMES, 0)
    out.update(exchanges=0, honest_errors=0, tie_breaks=0)
    for c in cells:
        for name, k in _class_counts(scheme.classes(c.n_exchanges)).items():
            out[name] += k
        out["exchanges"] += c.n_exchanges
        out["honest_errors"] += round(c.honest_error_rate * c.n)
        out["tie_breaks"] += int(np.count_nonzero(c.rho_a == c.rho_b))
    out["detector_firings"] = None
    return out


class Workload:
    name: str
    n_bits: int  # secure bits (pairs for the defense) of a timed pass
    csv_digests: tuple[str, ...] = ()

    def config(self, master_seed: int, n_bits: int) -> harness.SimConfig:
        return harness.SimConfig(n_bits=n_bits, master_seed=master_seed, workers=1)

    def run(self, cfg: harness.SimConfig) -> harness.ExperimentReport:
        raise NotImplementedError

    def secure_bits(self, report) -> int:
        raise NotImplementedError

    def check(self, report, paths, scheme) -> list[str]:
        raise NotImplementedError

    def counters(self, report, scheme, tracer=None) -> dict:
        raise NotImplementedError

    def pinned(self, report) -> dict:
        raise NotImplementedError

    def digests(self, paths) -> dict:
        return {p.rsplit("/", 1)[-1]: sha256(p) for p in paths if p.endswith(self.csv_digests)}


class PrivacyIdeal(Workload):
    """`kljn privacy`: ideal wire, 10 % injection, two XOR passes."""

    name = "privacy-ideal"
    n_bits = 224
    csv_digests = ("privacy.csv",)

    def run(self, cfg):
        return harness.ExperimentReport(
            config=cfg, privacy_result=harness.run_privacy_experiment(cfg)
        )

    def secure_bits(self, report):
        return report.privacy_result.stages[0].key_length

    def check(self, report, paths, scheme):
        errors = []
        p = report.privacy_result
        n = report.config.n_bits
        cell = p.cell
        if cell.variant_lbl != "ideal":
            errors.append(f"privacy ran on {cell.variant_lbl}")
        _check_cell(cell, report.config, 0.1, scheme, errors)
        if len(p.stages) != 3:
            errors.append(f"{len(p.stages)} privacy stages, expected 3")
        # fold both keys here rather than through privacy.xor_compress, as a reference
        true_bits, eve_bits = cell.key_bits, cell.eve_bits
        predicted = cell.p_e
        for k, stage in enumerate(p.stages):
            length = n // 2**k
            p_k = float(np.mean(true_bits == eve_bits))
            if (stage.stage, stage.key_length, stage.p_e) != (k, length, p_k):
                errors.append(f"stage {k}: {stage} (expected length {length}, p_e {p_k})")
            if k > 0:
                predicted = predicted**2 + (1.0 - predicted) ** 2
                if p.closed_form[k - 1] != predicted:
                    errors.append(f"stage {k}: closed form {p.closed_form[k - 1]} != {predicted}")
                if abs(p_k - predicted) > 5.0 * math.sqrt(0.25 / length) + 0.01:
                    errors.append(f"stage {k}: p_e={p_k} is far from the closed form {predicted}")
            m = true_bits.size // 2
            true_bits = true_bits[: 2 * m : 2] ^ true_bits[1 : 2 * m : 2]
            eve_bits = eve_bits[: 2 * m : 2] ^ eve_bits[1 : 2 * m : 2]
        csv = next(x for x in paths if x.endswith("privacy.csv"))
        _check_csv(
            csv,
            ["stage", "p_e", "stderr", "key_length"],
            [(s.stage, s.p_e, s.stderr, s.key_length) for s in p.stages],
            errors,
        )
        return errors

    def counters(self, report, scheme, tracer=None):
        return _cell_counters([report.privacy_result.cell], scheme)

    def pinned(self, report):
        p = report.privacy_result
        return {
            "stages": [[s.stage, s.p_e, s.key_length] for s in p.stages],
            "exchanges": p.cell.n_exchanges,
            "discards": p.cell.n_discarded,
        }


class Table1Grid(Workload):
    """`kljn table1`: 4 wire variants x 3 injection levels."""

    name = "table1-grid"
    n_bits = 96
    csv_digests = ("table1.csv",)

    def run(self, cfg):
        return harness.ExperimentReport(config=cfg, table=harness.run_table1(cfg))

    def secure_bits(self, report):
        return sum(c.n for c in report.table.cells)

    def check(self, report, paths, scheme):
        errors = []
        cells = report.table.cells
        expected = [
            (harness.variant_label(v), level)
            for v in harness.default_table1_variants()
            for level in harness.TABLE1_LEVELS
        ]
        if [(c.variant_lbl, c.level) for c in cells] != expected:
            errors.append(f"grid cells {[(c.variant_lbl, c.level) for c in cells]}")
            return errors
        for c in cells:
            _check_cell(c, report.config, c.level, scheme, errors)
        csv = next(x for x in paths if x.endswith("table1.csv"))
        _check_csv(
            csv,
            ["variant", "level", "p_e", "stderr", "n"],
            [(c.variant_lbl, c.level, c.p_e, c.stderr, c.n) for c in cells],
            errors,
        )
        return errors

    def counters(self, report, scheme, tracer=None):
        return _cell_counters(report.table.cells, scheme)

    def pinned(self, report):
        return {
            "cells": [
                [c.variant_lbl, c.level, c.n, c.p_e, c.n_exchanges, c.n_discarded]
                for c in report.table.cells
            ]
        }


class Defense1000m(Workload):
    """`kljn defense`: paired attacked/clean bits on Cable(1000, 10), calibrated threshold."""

    name = "defense-1000m"
    n_bits = 224

    def config(self, master_seed, n_bits):
        return replace(super().config(master_seed, n_bits), variant=circuit.Cable(1000.0, 10))

    def run(self, cfg):
        return harness.ExperimentReport(
            config=cfg, defense_result=harness.run_defense_experiment(cfg)
        )

    def secure_bits(self, report):
        return report.config.n_bits

    @staticmethod
    def _consumed(report) -> int:
        return report.defense_result.rows[-1].bit + 1

    def check(self, report, paths, scheme):
        errors = []
        d = report.defense_result
        n_eval = report.config.n_bits - DEFENSE_CALIBRATION_BITS
        rows = d.rows
        if d.n_bits != n_eval or len(rows) != 2 * n_eval:
            return [f"defense: n_bits={d.n_bits}, {len(rows)} rows for {n_eval} pairs"]
        clean, attacked = rows[0::2], rows[1::2]
        if any(r.attacked for r in clean) or not all(r.attacked for r in attacked):
            errors.append("defense: rows do not alternate clean/attacked")
        bits = [r.bit for r in clean]
        if bits != [r.bit for r in attacked]:
            errors.append("defense: clean and attacked arms cover different bits")
        classes = scheme.classes(self._consumed(report))
        secure = [i for i, c in enumerate(classes) if c.startswith("secure")]
        if secure[DEFENSE_CALIBRATION_BITS:] != bits or len(secure) != report.config.n_bits:
            errors.append("defense: evaluated bits differ from the seed scheme's secure bits")
        detected = sum(r.detected for r in attacked)
        false_pos = sum(r.detected for r in clean)
        if d.detection_rate != detected / n_eval or d.false_positive_rate != false_pos / n_eval:
            errors.append("defense: rates differ from the rows")
        latencies = [r.latency_fraction for r in attacked if r.detected]
        if any(r.detected != (r.latency_fraction is not None) for r in rows):
            errors.append("defense: latency present without detection or vice versa")
        if d.median_latency_fraction != (float(np.median(latencies)) if latencies else None):
            errors.append("defense: median latency differs from the rows")
        # acceptance criteria 4 and 5
        if d.detection_rate < 0.99 or d.false_positive_rate >= 0.01:
            errors.append(f"defense: detection {d.detection_rate}, false positives {d.false_positive_rate}")
        if d.median_latency_fraction is None or d.median_latency_fraction > 0.01:
            errors.append(f"defense: median latency {d.median_latency_fraction}")
        if not d.clean_residual_ratio <= 1e-6:
            errors.append(f"defense: clean residual ratio {d.clean_residual_ratio}")
        by_name = {x.rsplit("/", 1)[-1]: x for x in paths}
        _check_csv(
            by_name["defense.csv"],
            ["bit", "attacked", "detected", "latency_fraction", "max_residual"],
            [(r.bit, r.attacked, r.detected, r.latency_fraction, r.max_residual) for r in rows],
            errors,
        )
        for name, trace in (
            ("residual_trace_attacked.csv", d.trace_attacked),
            ("residual_trace_clean.csv", d.trace_clean),
        ):
            if len(trace[1]) != report.config.samples_per_bit:
                errors.append(f"{name}: {len(trace[1])} samples")
            _check_csv(by_name[name], ["time_s", "residual_A"], list(zip(*trace)), errors)
        return errors

    def counters(self, report, scheme, tracer=None):
        d = report.defense_result
        consumed = self._consumed(report)
        out = _class_counts(scheme.classes(consumed))
        out["exchanges"] = consumed
        out["honest_errors"] = None
        if tracer is not None and tracer.exchange_records:
            out["honest_errors"] = sum(
                not ok for index, ok in tracer.exchange_records if index < consumed
            )
        out["detector_firings"] = sum(r.detected for r in d.rows)
        out["tie_breaks"] = None
        return out

    def pinned(self, report):
        d = report.defense_result
        return {
            "n_eval": d.n_bits,
            "detections": sum(r.detected for r in d.rows if r.attacked),
            "false_positives": sum(r.detected for r in d.rows if not r.attacked),
            "median_latency_fraction": d.median_latency_fraction,
        }


WORKLOADS = {w.name: w for w in (PrivacyIdeal(), Table1Grid(), Defense1000m())}
