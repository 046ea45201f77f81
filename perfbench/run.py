#!/usr/bin/env python3
"""Pipeline benchmark for kljnsim: one workload per process, workers=1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): privacy-ideal, table1-grid, defense-1000m.
`--seed` N gives the run's inputs: the master seeds 8 N .. 8 N + 7. Only
the public entry points are timed: run_privacy_experiment, run_table1 or
run_defense_experiment, followed by write_report.

A run first starts fresh set-up probes (setup_probe.py), each of which
imports kljnsim and runs a small pass at the default seed, checked against
pinned.json. It then runs one traced warm-up pass on the first input, which
gives the exact counters, and then timed passes that cycle through the
inputs for S seconds. Every pass is one operation; a pass whose outputs fail
a check counts as failed.

--trace 0 reports the end-to-end metrics: ms_per_secure_bit (median over the
passes), setup_s (median probe wall time) and peak_rss_mb. --trace 1
alternates untraced and traced passes and reports the per-layer split (see
tracing.py). The last line of standard output is the result JSON; the line
before it, prefixed "detail", holds the counters, digests, per-pass samples
and machine facts.
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_BASE = os.path.join(ROOT, ".perfbench_out")
PROBES = 5  # set-up probes per --trace 0 run; setup_s is their median
INPUTS = 8  # master seeds per run
WORKERS2_REPEATS = 3
WORKERS2_BITS = 96

VARIANTS = ("ideal", "cable_100m", "cable_1000m", "cable_1000m_killer")
# layers reported as self time per secure bit ("per pair" for the defense layers)
TIMED_LAYERS = (
    "harness.derive_bit_streams",
    "protocol.run_bit_exchange",
    "noise.synth",
    "circuit.solve_loop",
    "circuit.ladder_scan",
    "protocol.decide_remote_resistor",
    "attack.correlate",
    "defense.simulate_expected_currents",
    "defense.detect_residuals",
)
COUNTER_METRICS = {
    "harness.exchanges": "exchanges",
    "protocol.secure_lh": "secure_lh",
    "protocol.secure_hl": "secure_hl",
    "protocol.discard_ll": "discard_ll",
    "protocol.discard_hh": "discard_hh",
    "protocol.honest_errors": "honest_errors",
    "defense.detector_firings": "detector_firings",
    "attack.tie_breaks": "tie_breaks",
    "harness.overshoot_exchanges": "overshoot_exchanges",
}


def run_pass(workload, cfg, out_dir):
    """One timed operation: the workload's entry point plus write_report."""
    from kljnsim import harness

    t0 = time.perf_counter()
    report = workload.run(cfg)
    paths = harness.write_report(report, out_dir)
    return report, paths, time.perf_counter() - t0


class Operations:
    """Counts attempted and failed operations and keeps the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors[:5])


def probe_setup(workload, n_probes, ops, pinned):
    """Wall times of fresh set-up processes; each probe is a checked operation."""
    walls, details = [], []
    out_dir = tempfile.mkdtemp(prefix="probe-", dir=OUT_BASE)
    try:
        for k in range(n_probes):
            cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                   "--workload", workload.name, "--out", out_dir]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                ops.record(f"probe {k}", [f"exit {proc.returncode}: {tail[0]}"])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            errors = list(result["errors"])
            if result["pinned"] != pinned["pinned"]:
                errors.append(f"pinned values differ: {result['pinned']}")
            ops.record(f"probe {k}", errors)
            details.append({key: result[key] for key in ("digests", "import_s", "pass_s")})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return walls, details


def measure_workers2(master_seed):
    """t(workers=1) / t(workers=2) for the cable_1000m cell at 10 % injection."""
    from kljnsim import attack, circuit, harness

    if "workers" not in {f.name for f in dataclasses.fields(harness.SimConfig)}:
        return None, []
    base = harness.SimConfig(
        n_bits=WORKERS2_BITS,
        master_seed=master_seed,
        variant=circuit.Cable(1000.0, 10),
        injection=attack.InjectionSpec(0.1, harness.SimConfig.bandwidth_hz, master_seed),
    )
    times, results = {1: [], 2: []}, {}
    for rep in range(WORKERS2_REPEATS):
        for workers in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            cell = harness.run_attack_cell(dataclasses.replace(base, workers=workers))
            times[workers].append(time.perf_counter() - t0)
            results.setdefault(workers, (cell.p_e, cell.n_exchanges, cell.key_bits.tobytes()))
    errors = [] if results[1] == results[2] else ["workers=2 changed the cell's outputs"]
    return statistics.median(times[1]) / statistics.median(times[2]), errors


def _blas_threads(numpy):
    import ctypes

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_facts():
    import numpy

    import kljnsim

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    git_rev = "absent"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_rev = proc.stdout.strip() or "absent"
        except OSError:
            pass
    backend = getattr(kljnsim, "active_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "git_rev": git_rev,
        "kljnsim_backend": backend() if backend is not None else "absent",
    }


def warm_up(workload, cfg, scheme, out_dir, ops):
    """Traced pass on the first input: fills caches and gives the exact counters."""
    tracer = tracing.Tracer()
    with tracer.patched():
        report, paths, _ = run_pass(workload, cfg, out_dir)
    tracer.close_segment()
    ops.record("warm-up", workload.check(report, paths, scheme))
    counters = workload.counters(report, scheme, tracer)
    secure = workload.secure_bits(report)
    counters["attempted_exchanges"] = tracer.attempted_exchanges
    counters["overshoot_exchanges"] = tracer.attempted_exchanges - counters["exchanges"]
    counters["secure_bits"] = secure
    counters["calls"] = {name: s.calls for name, s in tracer.stats.items()}
    counters["bytes_written"] = sum(os.path.getsize(p) for p in paths)
    counters["missing_targets"] = tracer.missing
    return counters, workload.digests(paths)


def timed_passes(workload, schemes, digests, out_dir, seconds, ops, tracer=None):
    """Passes until `seconds` have gone by and every input has run at least once.

    The inputs are the master seeds that key `schemes`; the passes cycle
    through them. With a tracer each input runs twice in a row, untraced and
    then traced. The first pass on an input records its CSV digests in
    `digests`; later passes must match them. Returns the untraced and traced
    ms per secure bit, the traced walls and the traced secure bits.
    """
    seeds = list(schemes)
    per_input = 1 if tracer is None else 2
    plain, traced, traced_walls, traced_bits = [], [], [], 0
    start = time.perf_counter()
    k = 0
    while k < per_input * len(seeds) or time.perf_counter() - start < seconds:
        seed = seeds[(k // per_input) % len(seeds)]
        use_tracer = tracer is not None and k % 2 == 1
        cfg = workload.config(seed, workload.n_bits)
        k += 1
        try:
            if use_tracer:
                with tracer.patched():
                    report, paths, wall = run_pass(workload, cfg, out_dir)
                tracer.close_segment()
            else:
                report, paths, wall = run_pass(workload, cfg, out_dir)
            errors = workload.check(report, paths, schemes[seed])
            if digests.setdefault(seed, workload.digests(paths)) != workload.digests(paths):
                errors.append(f"CSV digests changed between passes on master seed {seed}")
            secure = workload.secure_bits(report)
        except Exception as exc:  # noqa: BLE001 - a crashing pass is a failed operation
            ops.record(f"pass {k}", [repr(exc)])
            continue
        ops.record(f"pass {k}", errors)
        (traced if use_tracer else plain).append(wall * 1e3 / secure)
        if use_tracer:
            traced_walls.append(wall)
            traced_bits += secure
    return plain, traced, traced_walls, traced_bits


def layer_metrics(tracer, counters, plain, traced, traced_walls, traced_bits, workers2):
    import numpy as np

    stats = tracer.stats
    n_traced = len(traced_walls)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    calls = counters["calls"]
    put("harness.derive_bit_streams.calls_per_exchange",
        calls["harness.derive_bit_streams"] / counters["exchanges"], "calls/exchange")
    put("noise.synth.calls_per_secure_bit",
        calls["noise.synth"] / counters["secure_bits"], "calls/bit")
    for name in TIMED_LAYERS:
        value = stats[name].self_s * 1e3 / traced_bits
        if name.startswith("defense."):
            put(f"{name}.self_ms_per_pair", value, "ms/pair")
        else:
            put(f"{name}.self_ms_per_secure_bit", value, "ms/bit")
    per_variant = {v: [0.0, 0] for v in VARIANTS}
    for variant, seconds, bits in tracer.cells:
        if variant in per_variant:
            per_variant[variant][0] += seconds
            per_variant[variant][1] += bits
    for variant, (seconds, bits) in per_variant.items():
        put(f"harness.run_attack_cell.{variant}.ms_per_secure_bit",
            seconds * 1e3 / bits if bits else 0.0, "ms/bit")
    samples = np.array(tracer.samples["protocol.run_bit_exchange"]) * 1e6
    for q in (50, 99):
        put(f"protocol.run_bit_exchange.p{q}_us",
            np.percentile(samples, q) if samples.size else 0.0, "us")
    put("privacy.amplify.self_ms", stats["privacy.amplify"].self_s * 1e3 / n_traced, "ms")
    put("harness.write_report.self_ms", stats["harness.write_report"].self_s * 1e3 / n_traced, "ms")
    put("harness.write_report.bytes_written", counters["bytes_written"], "bytes")
    put("harness.orchestration.self_ms_per_secure_bit",
        (sum(traced_walls) - tracer.layer_self_s()) * 1e3 / traced_bits, "ms/bit")
    for metric, key in COUNTER_METRICS.items():
        put(metric, counters[key] or 0, "count")
    put("trace.overhead_frac", statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    put("harness.workers2_speedup", workers2 if workers2 is not None else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kljnsim", "__init__.py")):
        print(f"perfbench: no kljnsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kljnsim

    if not os.path.abspath(kljnsim.__file__).startswith(SRC + os.sep):
        print(f"perfbench: kljnsim imported from {kljnsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[workload.name]
    # the inputs: INPUTS master seeds derived from --seed, so that the work per
    # secure bit of a run averages over several key sequences
    master_seeds = [(args.seed % 2**32) * INPUTS + j for j in range(INPUTS)]

    os.makedirs(OUT_BASE, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_BASE)
    ops = Operations()
    try:
        setup_walls, probe_details = probe_setup(
            workload, PROBES if args.trace == 0 else 1, ops, pinned
        )
        schemes = {seed: workloads.SeedScheme(seed) for seed in master_seeds}
        counters, first_digests = warm_up(
            workload, workload.config(master_seeds[0], workload.n_bits),
            schemes[master_seeds[0]], out_dir, ops,
        )
        digests = {master_seeds[0]: first_digests}
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, traced_walls, traced_bits = timed_passes(
            workload, schemes, digests, out_dir, args.seconds, ops, tracer
        )
        workers2 = None
        if args.trace:
            workers2, errors = measure_workers2(master_seeds[0])
            ops.record("workers2", errors)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace == 0:
        metrics = {
            "ms_per_secure_bit": {"value": statistics.median(plain), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "unit": "MB",
            },
        }
    else:
        metrics = layer_metrics(tracer, counters, plain, traced, traced_walls, traced_bits, workers2)

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "master_seeds": master_seeds,
        "n_bits": workload.n_bits,
        "counters": counters,
        "csv_sha256": {str(seed): d for seed, d in digests.items()},
        "pinned_csv_sha256_match": all(p["digests"] == pinned["digests"] for p in probe_details),
        "ms_per_secure_bit_passes": plain,
        "traced_ms_per_secure_bit_passes": traced,
        "setup_s_probes": setup_walls,
        "probes": probe_details,
        "workers2_speedup": workers2 if args.trace else "not measured (--trace 0)",
        "errors": ops.errors[:20],
        "machine": machine_facts(),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
