"""Tests of the benchmark itself: patching, span accounting, counters and gates."""
import dataclasses
import importlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402

SMALL_BITS = 21  # one chunk per cell; the defense needs more than its 20 calibration bits


def _targets():
    out = {}
    for paths in (*tracing.LAYERS.values(), *tracing.GROUPS.values()):
        for path in paths:
            module_name, attr = path.split(".")
            module = importlib.import_module(f"kljnsim.{module_name}")
            if hasattr(module, attr):
                out[path] = (module, attr, getattr(module, attr))
    return out


def _traced_pass(workload, tmp_path, seed=7):
    tracer = tracing.Tracer()
    cfg = workload.config(seed, SMALL_BITS)
    with tracer.patched():
        report, paths, wall = run.run_pass(workload, cfg, str(tmp_path))
    tracer.close_segment()
    return tracer, report, paths, wall


def test_patched_restores_every_attribute(tmp_path):
    before = _targets()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            for module, attr, original in before.values():
                assert getattr(module, attr) is not original
            raise RuntimeError("leave the block early")
    for module, attr, original in before.values():
        assert getattr(module, attr) is original
    assert len(before) + len(tracer.missing) == sum(
        len(paths) for paths in (*tracing.LAYERS.values(), *tracing.GROUPS.values())
    )


@pytest.mark.parametrize("name", ["privacy-ideal", "defense-1000m"])
def test_self_times_are_non_negative_and_within_wall(name, tmp_path):
    tracer, _, _, wall = _traced_pass(workloads.WORKLOADS[name], tmp_path)
    for stats in tracer.stats.values():
        assert stats.self_s >= -1e-9
        assert stats.self_s <= stats.total_s + 1e-9
    assert 0.0 < tracer.layer_self_s() <= wall
    assert tracer.stats["harness.write_report"].calls == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_reconcile(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer, report, paths, _ = _traced_pass(workload, tmp_path)
    scheme = workloads.SeedScheme(report.config.master_seed)
    assert workload.check(report, paths, scheme) == []
    c = workload.counters(report, scheme, tracer)
    assert c["exchanges"] == sum(c[k] for k in workloads.CLASS_NAMES)
    cells = report.table.cells if name == "table1-grid" else [None]
    assert c["secure_lh"] + c["secure_hl"] == workload.secure_bits(report) == SMALL_BITS * len(cells)
    assert c["honest_errors"] in (0, None)
    if tracer.attempted_exchanges:  # derive_bit_streams is still called once per exchange
        assert 0 <= tracer.attempted_exchanges - c["exchanges"] < 128 * len(cells)
    if name == "defense-1000m":
        rows = report.defense_result.rows
        assert c["detector_firings"] == sum(r.detected for r in rows)
        assert len(rows) == 2 * (SMALL_BITS - workloads.DEFENSE_CALIBRATION_BITS)


def test_check_reports_a_corrupted_output(tmp_path):
    workload = workloads.WORKLOADS["privacy-ideal"]
    _, report, paths, _ = _traced_pass(workload, tmp_path)
    scheme = workloads.SeedScheme(report.config.master_seed)
    assert workload.check(report, paths, scheme) == []
    stage = report.privacy_result.stages[1]
    report.privacy_result.stages[1] = dataclasses.replace(stage, p_e=stage.p_e + 0.125)
    assert any("stage 1" in e for e in workload.check(report, paths, scheme))


def test_wrong_pinned_value_fails_the_gate():
    workload = workloads.WORKLOADS["privacy-ideal"]
    with open(os.path.join(run.HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[workload.name]
    os.makedirs(run.OUT_BASE, exist_ok=True)

    ops = run.Operations()
    run.probe_setup(workload, 1, ops, pinned)
    assert (ops.attempted, ops.failed) == (1, 0), ops.errors

    wrong = json.loads(json.dumps(pinned))
    wrong["pinned"]["exchanges"] += 1
    ops = run.Operations()
    walls, _ = run.probe_setup(workload, 1, ops, wrong)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "pinned values differ" in ops.errors[0]
    assert len(walls) == 1 and walls[0] > 0


@pytest.mark.parametrize("wrong, fails", [(0, False), (1, False), (8, False), (9, True), (48, True)])
def test_honest_check_is_a_binomial_test(wrong, fails):
    cell = dataclasses.make_dataclass("Cell", ["variant_lbl", "level", "n", "honest_error_rate"])(
        "cable_1000m", 0.1, 96, wrong / 96
    )
    errors = []
    workloads._check_honest(cell, errors)
    assert bool(errors) == fails
