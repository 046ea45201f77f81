"""Spans around kljnsim's public functions, patched in from outside the package.

Each traced function is replaced, on the module object where its callers look
it up, by a wrapper that records a span; `Tracer.patched()` puts every
original back on exit. A span's self time is its duration minus the durations
of the spans it directly encloses, so the self times of all layer spans never
add up to more than the wall time of the traced call. Group spans (the attack
cell) are timed inclusively and are not a layer: their self time is
orchestration.

A target that no longer exists is skipped and listed in `Tracer.missing`; its
layer then reads zero calls and its time lands in orchestration.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time

# layer name -> "module.attribute" paths the callers look the function up in
LAYERS = {
    "harness.derive_bit_streams": ("harness.derive_bit_streams",),
    "protocol.run_bit_exchange": ("protocol.run_bit_exchange",),
    "noise.synth": (
        "protocol.synth_band_limited_gaussian",
        "attack.synth_band_limited_gaussian",
    ),
    "circuit.solve_loop": ("circuit.solve_loop",),
    "circuit.ladder_scan": ("circuit.ladder_scan",),
    "protocol.decide_remote_resistor": ("protocol.decide_remote_resistor",),
    "attack.correlate": ("attack.correlate",),
    "defense.simulate_expected_currents": ("defense.simulate_expected_currents",),
    "defense.detect_residuals": ("defense.detect_residuals",),
    "privacy.amplify": ("privacy.eve_success_after_amplification",),
    "harness.write_report": ("harness.write_report",),
}
GROUPS = {"harness.run_attack_cell": ("harness.run_attack_cell",)}
# layers whose per-call durations are kept for percentiles
SAMPLED = ("protocol.run_bit_exchange",)


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects span statistics and the counters read off traced calls."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in (*LAYERS, *GROUPS)}
        self.samples = {name: [] for name in SAMPLED}
        self.missing: list[str] = []
        self.cells: list[tuple[str, float, int]] = []  # (variant, seconds, secure bits)
        self.exchange_records: list[tuple[int, bool]] = []  # (index, honest inference ok)
        self.attempted_exchanges = 0
        self._segment: set = set()
        self._stack: list[list[float]] = []

    def layer_self_s(self) -> float:
        return sum(self.stats[name].self_s for name in LAYERS)

    def close_segment(self) -> None:
        """Count the distinct exchanges simulated since the last cell or pass ended."""
        self.attempted_exchanges += len(self._segment)
        self._segment = set()

    def _observe(self, name, args, result, duration):
        if name == "harness.derive_bit_streams":
            self._segment.add(args[:2])
        elif name == "protocol.run_bit_exchange":
            ok = (
                result.alice_inferred_remote == result.bob_choice.resistance
                and result.bob_inferred_remote == result.alice_choice.resistance
            )
            self.exchange_records.append((result.index, ok))
        elif name == "harness.run_attack_cell":
            self.cells.append((result.variant_lbl, duration, result.n))
            self.close_segment()

    def _wrap(self, name, fn):
        stats = self.stats[name]
        samples = self.samples.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if samples is not None:
                    samples.append(duration)
            self._observe(name, args, result, duration)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore every patched attribute on exit."""
        saved = []
        try:
            for name, paths in (*LAYERS.items(), *GROUPS.items()):
                for path in paths:
                    module_name, attr = path.split(".")
                    module = importlib.import_module(f"kljnsim.{module_name}")
                    if not hasattr(module, attr):
                        self.missing.append(path)
                        continue
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
