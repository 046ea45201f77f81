"""Experiment orchestration: seeded Monte Carlo over bit exchanges.

Seed scheme: every exchange period owns six independent streams derived
statelessly as SeedSequence(entropy=(master_seed, exchange_index, stream_id))
with stream ids 0..5 for Alice's choice, Bob's choice, Alice's noise, Bob's
noise, Eve's injection and Eve's tie-break coin. Outcomes therefore depend
only on (master_seed, exchange_index): changing the requested bit count never
changes earlier bits, and any partition of the index range across workers
reproduces the sequential result exactly.

A stream is derived only when it is drawn: every exchange derives its two
choice streams, a secure exchange that the run solves also the parties'
noise seeds and, when an injection is configured, Eve's, and Eve's coin is
derived only for a correlator tie. No SeedSequence is built per stream:
`seeds` computes numpy's SeedSequence hashing and PCG64 seeding over whole
index arrays, with the same results. Exchanges run in chunks of 256
consecutive indices, each one array pass from the seeds to the decisions.
A chunk is two batch windows of `protocol.WINDOW` = 128 indices, and no loop
batch spans two windows, so a row's bits do not depend on the chunk size:
the window fixes its rounding. A run whose arrays would exceed the size
budget at two windows per chunk runs one. The harness classifies a chunk
before it runs it: one `seeds` call draws the chunk's (256, 2) array of
which party holds r_h, and the mixed rows are its secure exchanges. A run
ends at the n-th secure exchange, so the harness knows how many of the last
chunk's secure exchanges it uses, and hands that chunk over with only the
loop batches that hold one of them (`_used_chunks`), or on the ideal wire
only those rows. Every chunk then derives its solved rows' noise seeds in
one `seeds` call, and Eve's coins on its ties in one more.

An attack run is a grid of wire variants x injection levels (`run_table1`;
`run_attack_cell` is a grid of one cell), and all its cells consume the same
exchanges. So the grid is one pass over the chunks: each chunk is seeded
and its generator rows synthesized once, and Eve's rows of every level in
one more synthesis call. The cable variants share one array of drive rows
in loop-batch order, so a batch's rows are one view. Grouped by state
count, not by variant: all one-state rows of the chunk, every batch at
every level, advance in one elementwise recurrence, and the variants with
more states solve each batch at all levels in one stacked scan of S =
variants x levels systems. Each job's solved rows are reduced to mean
squares and correlators as they come; each party decides once per chunk
for every cell and bit. A tie takes its exchange's coin, drawn once for
all cells.

The defense experiment solves each secure exchange with and without Eve's
current. A chunk groups its loop batches by row count, and each group takes
two stacked scans: the channel, each batch with its own loop system, and the
parties' in-site simulations. The run calibrates on its first pairs, then
detects on each chunk as it arrives and drops its residual rows.
"""
from __future__ import annotations

import collections
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import attack, circuit, defense, noise, privacy, protocol, seeds
from .exceptions import ConfigError, ShapeMismatchError

# Exchanges per array pass: two batch windows. The windows, not the chunk, fix every row's
# rounding, so a run's bits are the same at one window per chunk (the size budget's fallback).
_CHUNK = 2 * protocol.WINDOW

# Largest single array a run may allocate. The size check in SimConfig
# predicts it from the shapes, so a config past it exits before allocating.
MAX_ARRAY_BYTES = 2**30

# Largest clean residual RMS, relative to the channel current RMS, that the
# defense's in-site simulation must reach (acceptance criterion 5).
MAX_CLEAN_RESIDUAL_RATIO = 1e-6

_STREAM_IDS = {
    "alice_choice": 0,
    "bob_choice": 1,
    "alice_noise": 2,
    "bob_noise": 3,
    "eve_noise": 4,
    "eve_coin": 5,
}

SELECTION_MODES = ("randomized", "fixed_lh")


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description; defaults reproduce the reference setup."""

    r_l: float = 1000.0
    r_h: float = 9000.0
    t_eff: float = 7.25e16
    bandwidth_hz: float = 250.0
    tau_s: float = 0.1
    sample_rate_hz: float = 2000.0
    n_bits: int = 10000
    variant: circuit.Variant = circuit.Ideal()
    injection_position: float = 0.5
    injection: attack.InjectionSpec | None = None
    detection: defense.DetectionConfig | None = None
    detection_multiplier: float = 5.0
    detection_consecutive: int = 1
    selection_mode: str = "randomized"
    master_seed: int = 12345
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.r_l <= 0 or self.r_h <= 0:
            raise ConfigError("r_l and r_h must be positive")
        if self.r_l >= self.r_h:
            raise ConfigError("r_l must be strictly below r_h")
        if self.t_eff <= 0:
            raise ConfigError("t_eff must be positive")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")
        if self.tau_s <= 0:
            raise ConfigError("tau_s must be positive")
        if self.sample_rate_hz < 4.0 * self.bandwidth_hz:
            raise ConfigError("sample_rate_hz must be >= 4 x bandwidth_hz")
        n = self.tau_s * self.sample_rate_hz
        if abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ConfigError("tau_s x sample_rate_hz must be an integer >= 2")
        if self.n_bits < 1:
            raise ConfigError("n_bits must be >= 1")
        if not 0.0 <= self.injection_position <= 1.0:
            raise ConfigError("injection_position must lie in [0, 1]")
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(
                f"selection_mode must be one of {SELECTION_MODES}"
            )
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.detection_multiplier <= 0:
            raise ConfigError("detection_multiplier must be positive")
        if self.detection_consecutive < 1:
            raise ConfigError("detection_consecutive must be >= 1")
        if self.injection is not None and self.injection.bandwidth_hz != self.bandwidth_hz:
            raise ConfigError("injection bandwidth must equal the channel bandwidth")
        if self.r_h > 1e24 * self.r_l:
            # the low side's current is a difference of node voltages whose relative
            # rounding error is about 1e-16 * sqrt(r_h / r_l)
            raise ConfigError("r_h / r_l must not exceed 1e24")
        # Finite inputs can still overflow or underflow the signal scales. Every
        # expected mean square of a period's samples must keep its squares and
        # sums well inside the float range.
        r_l, r_h, t_eff, bw = self.r_l, self.r_h, self.t_eff, self.bandwidth_hz
        four_ktb = 4.0 * noise.K_BOLTZMANN * t_eff * bw
        derived = {}
        for r in (r_l, r_h):
            rms = noise.johnson_rms_voltage(r, t_eff, bw)
            derived[f"generator mean square at {r!r} ohm"] = rms * rms
        model = circuit.model_for_variant(self.variant)
        circuit.check_segmentation(model, bw)
        r_cable = 0.0 if model is None else model.total_series_resistance
        if r_cable > 0:  # the in-site simulation drives the cable alone
            derived["mean-square current of r_h's generator across the cable"] = (
                four_ktb * r_h / r_cable / r_cable
            )
        for own, cand in ((r_l, r_l), (r_l, r_h), (r_h, r_h)):
            pair, loop = f"{own!r} + {cand!r} ohm", own + cand + r_cable
            # the likelihood scales; for (r_l, r_h) the current one is the reference current squared
            s_i, s_u = protocol.likelihood_scales(four_ktb, own, cand)
            derived[f"mean-square current for {pair}"] = s_i
            derived[f"mean-square voltage for {pair}"] = s_u
            derived[f"mean-square current for {pair} and the cable"] = (
                four_ktb / loop * ((own + cand) / loop)
            )
        for name, value in derived.items():
            if not 1e-300 <= value <= 1e300:
                raise ConfigError(f"derived {name} is {value!r}, outside 1e-300 .. 1e300")
        self.check_array_budget(1)

    def check_array_budget(self, n_levels: int, variants=None) -> int:
        """The exchanges per chunk of a run of `variants` (default: this config's) over
        `n_levels` injection levels: two batch windows (_CHUNK), or one if an array of a
        two-window chunk would exceed MAX_ARRAY_BYTES, predicted from the shapes. Raises
        ConfigError if an array of a one-window chunk would.

        The grid solves a loop batch (BATCH rows) at all levels: the variants
        of each state count m > 1 in one stack of (variants) x n_levels x BATCH
        rows, and all one-state rows of a chunk, at most (variants) x n_levels
        x chunk, in one state trajectory. The defense solves all batches of
        one size in a chunk together (two rows per exchange, at most 2 x chunk
        rows, and at most 2 x chunk / BATCH loop systems).
        """
        models = [circuit.model_for_variant(v) for v in variants or [self.variant]]
        counts = collections.Counter(model.n_states for model in models if model is not None)
        t, L = self.samples_per_bit, n_levels
        for chunk in (_CHUNK, protocol.WINDOW):
            rows = max(L * protocol.BATCH, 2 * chunk)
            n_systems = 2 * chunk // protocol.BATCH
            sizes = {
                f"a solve's ({rows} rows, 4, t) outputs": 8 * rows * 4 * t,
                f"a chunk's ({chunk}, 7, t) drive and solved rows": 8 * chunk * 7 * t,
                f"a chunk's ({L}, {chunk}, t) injected rows": 8 * L * chunk * t,
            }
            if counts:
                sizes[f"the grid's ({L}, {chunk}, 3, t) cable drive rows"] = 8 * L * chunk * 3 * t
            for m, count in counts.items():
                sizes[f"the defense's stack of {n_systems} ({m}, {m}) system matrices"] = (
                    8 * n_systems * m * m
                )
                if m == 1:
                    rows = max(count * L, 2) * chunk
                    sizes[f"a one-state solve's (t, {rows} rows) state trajectory"] = 8 * rows * t
                    continue
                rows = max(count * L * protocol.BATCH, 2 * chunk)
                step = 8 * rows * m  # bytes per sample of the scan
                name = f"a stacked solve's ({rows} rows, {m} states) stepping buffer and scratch"
                # SCAN_BLOCK_BYTES each, but at least 10 samples (a block of 8 and two slots)
                sizes[name] = step * (2 * min(t, max(10, circuit.SCAN_BLOCK_BYTES // step)) - 1)
            over = [(name, size) for name, size in sizes.items() if size > MAX_ARRAY_BYTES]
            if not over:
                return chunk
        name, size = over[0]
        raise ConfigError(
            f"{name} would take {size:.3g} bytes, above the {MAX_ARRAY_BYTES} byte budget "
            f"(t = {t} samples per bit)"
        )

    @property
    def samples_per_bit(self) -> int:
        return int(round(self.tau_s * self.sample_rate_hz))


def variant_label(variant: circuit.Variant) -> str:
    if isinstance(variant, circuit.Ideal):
        return "ideal"
    suffix = "_killer" if isinstance(variant, circuit.CableWithKiller) else ""
    return f"cable_{variant.length_m:g}m{suffix}"


def default_table1_variants() -> list[circuit.Variant]:
    return [
        circuit.Ideal(),
        circuit.Cable(100.0, 10),
        circuit.Cable(1000.0, 10),
        circuit.CableWithKiller(1000.0, 10),
    ]


TABLE1_LEVELS = (0.001, 0.01, 0.1)


def _noise_seeds(master_seed: int, index: np.ndarray, eve: bool = True) -> np.ndarray:
    """Alice's, Bob's and, if `eve`, Eve's noise seed of each exchange index, shape (k, 2 + eve)."""
    ids = [_STREAM_IDS[name] for name in ("alice_noise", "bob_noise", "eve_noise")[: 2 + eve]]
    return seeds.stream_seeds(master_seed, index, ids)


def _holds_r_h(cfg: SimConfig, indices) -> np.ndarray:
    """Whether Alice and Bob hold r_h at each of k exchanges, shape (k, 2).

    `fixed_lh` draws nothing: Alice holds r_l and Bob r_h.
    """
    if cfg.selection_mode == "fixed_lh":
        return np.tile([False, True], (len(indices), 1))
    ids = (_STREAM_IDS["alice_choice"], _STREAM_IDS["bob_choice"])
    return seeds.stream_bits(cfg.master_seed, indices, ids).astype(bool)


def _correlators(i_inj: np.ndarray, y: np.ndarray):
    """Eve's two correlators per row, from her rows (..., k, t) and the solved rows (..., k, 4, t)."""
    # Eve reads from her node outward: Alice's end as solved, Bob's end negated
    return attack.correlate(i_inj, y[..., 0, :]), attack.correlate(i_inj, -y[..., 1, :])


def _eve_bits(cfg: SimConfig, index: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray):
    """Eve's key bits from her correlators, shape (..., k) over the exchanges `index`.

    A tie takes its exchange's coin (stream 5), derived once per exchange
    however many cells of the grid tie on it.
    """

    def coin(ties):
        rows, inverse = np.unique(ties % len(index), return_inverse=True)
        bits = seeds.stream_bits(cfg.master_seed, index[rows], (_STREAM_IDS["eve_coin"],))
        return bits[inverse, 0]

    return attack.eve_decide(rho_a.ravel(), rho_b.ravel(), coin).reshape(rho_a.shape)


def _classify_chunk(cfg: SimConfig, start: int, size: int = _CHUNK):
    """The secure exchanges of the `size` exchanges from `start`, in index order.

    Returns their indices, their key bits (1 when Alice holds r_h) and their
    (Alice, Bob) resistances, shape (k, 2).
    """
    high = _holds_r_h(cfg, np.arange(start, start + size))
    secure = high[:, 0] != high[:, 1]
    index = start + np.flatnonzero(secure)
    return index, high[secure, 0].astype(np.uint8), np.where(high[secure], cfg.r_h, cfg.r_l)


def _used_chunks(cfg: SimConfig, n_secure: int, batch: int, size: int):
    """The chunks' secure exchanges that a run of n_secure secure bits solves, in index order.

    Yields each chunk's (index, key_bits, choices) from `_classify_chunk` over
    `size` exchanges, and skips chunks without a secure exchange. Every chunk
    is used in full but the last, the one that holds the n_secure-th secure
    exchange: it keeps only its `protocol.loop_batches` batches of `batch`
    rows that hold at least one of the secure exchanges up to that one, so
    the rows it yields start with those. A batch is kept or dropped whole,
    because a (B, m) @ (m, m) product's rows can change in the last ulp with
    B: a kept row keeps its batch, its slice of a stacked solve and its time
    blocks (a one-state row's blocks move with the chunk's row count, but
    span multiples of 8 steps, which its bits do not depend on), and so the
    bits it gives, whatever n_secure is. A dropped batch is never seeded,
    synthesized or solved.
    """
    found = 0
    for start in itertools.count(0, size):
        index, key_bits, choices = _classify_chunk(cfg, start, size)
        n_used = n_secure - found
        if len(index) >= n_used:
            kept = sorted(
                pos
                for _, positions in protocol.loop_batches(cfg, index, choices, batch)
                if positions[0] < n_used
                for pos in positions
            )
            yield index[kept], key_bits[kept], choices[kept]
            return
        found += len(index)
        if len(index):
            yield index, key_bits, choices


def _consume_chunks(cfg: SimConfig, chunk_worker, n_secure: int, batch: int, size: int):
    """Yield `chunk_worker(cfg, chunk)` for each chunk of `_used_chunks`, in index order.

    The harness classifies each chunk before it runs it, so it submits
    exactly the chunks a run uses. With several workers the chunks are
    evaluated concurrently, at most workers + 1 ahead of the consumer, but
    yielded in order, so the result is identical to the sequential one.
    """
    chunks = _used_chunks(cfg, n_secure, batch, size)
    if cfg.workers == 1:
        for chunk in chunks:
            yield chunk_worker(cfg, chunk)
        return
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = collections.deque()
        for chunk in chunks:
            futures.append(pool.submit(chunk_worker, cfg, chunk))
            if len(futures) > cfg.workers:
                yield futures.popleft().result()
        while futures:
            yield futures.popleft().result()


def _grid_chunk(cfg: SimConfig, chunk, cell_cfgs) -> dict:
    """One chunk of the grid: the key bits and Eve's and the parties' statistics per cell and
    secure exchange.

    `chunk` is (index, key_bits, choices) from `_used_chunks`, and
    `cell_cfgs` holds each cell's config, one row of levels per variant. The
    chunk is seeded and its generator rows synthesized once, and Eve's rows
    in one more call for all levels. The ideal wire takes all rows of a level
    at once. The cables solve every loop batch at all levels from one array
    of the chunk's drive rows in batch order, which the variants share: all
    one-state rows of the chunk in one `circuit.solve_jobs` call, then each
    batch's multi-state variants in one call, a stack of S = variants x
    levels systems. Each job's solved rows are reduced to their mean squares
    and Eve's correlators as they come, so no chunk-sized array of solved
    rows is held. Each party then decides for every (variant, level,
    exchange) at once. Statistics have shape (variants, levels, k).
    """
    index, key_bits, choices = chunk
    attacks = [c.injection for c in cell_cfgs[0]]
    attacked = np.array([a is not None for a in attacks])
    noise_seeds = _noise_seeds(cfg.master_seed, index, attacked.any())
    gen = protocol.generator_rows(cfg, choices, noise_seeds)
    t = cfg.samples_per_bit
    eve = np.zeros((len(attacks), len(index), t))
    if attacked.any():
        specs = [a for a in attacks if a is not None]
        eve[attacked] = protocol.injection_rows(cfg, noise_seeds[:, 2], specs)
    shape = (len(cell_cfgs), len(attacks), len(index))
    msq = np.empty(shape + (4,))
    rho_a, rho_b = np.empty(shape), np.empty(shape)

    def reduce(v, levels, positions, y, i_inj):
        msq[v, levels][:, positions] = protocol.mean_squares(y)
        rho = _correlators(i_inj, y)
        rho_a[v, levels][:, positions], rho_b[v, levels][:, positions] = rho

    variants = [row[0].variant for row in cell_cfgs]
    models = [circuit.model_for_variant(variant) for variant in variants]
    r_a, r_b = choices[:, :1], choices[:, 1:]
    for v in (v for v, model in enumerate(models) if model is None):
        for lvl in range(len(attacks)):  # elementwise, each row with its own terminations
            levels = slice(lvl, lvl + 1)
            y = circuit.ideal_rows(gen[:, 0], gen[:, 1], eve[levels], r_a, r_b)
            reduce(v, levels, slice(None), y, eve[levels])
            del y
    if any(model is not None for model in models):
        # every row's (u_a, u_b, i_inj) at every level, in batch order, so that each loop
        # batch's drive rows are one view that its variants share
        drive = np.empty((len(attacks), len(index), 3, t))
        batches = list(protocol.loop_batches(cfg, index, choices))
        ends = np.cumsum([len(positions) for _, positions in batches]).tolist()
        for b, ((loop_cfg, positions), end) in enumerate(zip(batches, ends)):
            u = drive[:, end - len(positions) : end]
            u[:, :, :2] = gen[positions]
            u[:, :, 2] = eve[:, positions]
            batches[b] = loop_cfg, positions, u
        del gen, eve, u
        # the one-state variants solve every batch in one call, the others each batch in one
        one_state = [v for v, model in enumerate(models) if model and model.n_states == 1]
        several = [v for v, model in enumerate(models) if model and model.n_states > 1]
        calls = [[(v, batch) for batch in batches for v in one_state]]
        calls += [[(v, batch) for v in several] for batch in batches]

        def system(v, loop_cfg):  # variant v's loop system with the batch's terminations
            # a new LoopConfig, not `replace`, which costs more than the lookup
            loop = circuit.LoopConfig(
                loop_cfg.r_alice, loop_cfg.r_bob, variants[v], cfg.injection_position
            )
            return circuit.loop_system(models[v], loop, 1.0 / cfg.sample_rate_hz)

        for call in filter(None, calls):
            jobs = [(system(v, loop_cfg), u) for v, (loop_cfg, _, u) in call]
            for (v, (_, positions, u)), y in zip(call, circuit.solve_jobs(jobs)):
                reduce(v, slice(None), positions, y, u[:, :, 2])
                del y  # free the solved rows before the next job's are formed
    if not np.isfinite(msq).all():  # a non-finite solved sample makes its row's mean square so
        raise ShapeMismatchError("solved loop samples must all be finite")
    params = (cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz)
    alice = protocol.decide_remote_resistor(msq[..., 2], msq[..., 0], choices[:, 0], *params)
    bob = protocol.decide_remote_resistor(msq[..., 3], msq[..., 1], choices[:, 1], *params)
    # Eve's correlators read 0 at a level without injection
    rho_a, rho_b = (np.where(attacked[:, None], rho, 0.0) for rho in (rho_a, rho_b))
    return {
        "index": index,
        "key_bits": key_bits,
        "rho_a": rho_a,
        "rho_b": rho_b,
        "eve_bits": _eve_bits(cfg, index, rho_a, rho_b),
        "honest_ok": (alice == choices[:, 1]) & (bob == choices[:, 0]),
        "msq_u_a": msq[..., 2],
        "msq_i_a": msq[..., 0],
    }


@dataclass
class CellResult:
    """One experiment cell: a variant at one injection level."""

    variant_lbl: str
    level: float
    n: int
    p_e: float
    stderr: float
    honest_error_rate: float
    n_exchanges: int
    n_discarded: int
    q: np.ndarray
    rho_a: np.ndarray
    rho_b: np.ndarray
    key_bits: np.ndarray
    eve_bits: np.ndarray
    classifications: list[protocol.BitClass]
    msq_u_a: np.ndarray
    msq_i_a: np.ndarray


def _run_grid(cfg: SimConfig, variants, levels) -> list[CellResult]:
    """The cells of the variant x level grid, in that order, in one pass over the exchanges.

    Every cell consumes the same exchanges, since an exchange's class and
    noise depend only on (master_seed, index); `_grid_chunk` does each
    chunk's shared work once for all cells.
    """
    cell_cfgs = [[_cell_config(cfg, variant, level) for level in levels] for variant in variants]
    size = cfg.check_array_budget(len(levels), variants)
    # ideal-wire rows are elementwise, so a run on that wire alone trims its last chunk by rows
    batch = 1 if all(isinstance(v, circuit.Ideal) for v in variants) else protocol.BATCH

    def chunk_worker(c, chunk):
        return _grid_chunk(c, chunk, cell_cfgs)

    payloads = list(_consume_chunks(cfg, chunk_worker, cfg.n_bits, batch, size))
    cols = {
        name: np.concatenate([p[name] for p in payloads], axis=-1)[..., : cfg.n_bits]
        for name in payloads[0]
    }
    n_exchanges = int(cols.pop("index")[-1]) + 1  # up to and including the last secure one
    key_bits = cols.pop("key_bits")
    n = len(key_bits)
    classes = (protocol.BitClass.SECURE_LH, protocol.BitClass.SECURE_HL)
    classifications = [classes[bit] for bit in key_bits.tolist()]
    cells = []
    for v, row in enumerate(cell_cfgs):
        for lvl, cell_cfg in enumerate(row):
            col = {name: value[v, lvl] for name, value in cols.items()}
            honest_ok = col.pop("honest_ok")
            q = (col["eve_bits"] == key_bits).astype(np.int8)
            p_e, stderr = attack.success_probability(q)
            cells.append(
                CellResult(
                    variant_lbl=variant_label(cell_cfg.variant),
                    level=cell_cfg.injection.level_fraction if cell_cfg.injection else 0.0,
                    n=n,
                    p_e=p_e,
                    stderr=stderr,
                    honest_error_rate=1.0 - np.mean(honest_ok),
                    n_exchanges=n_exchanges,
                    n_discarded=n_exchanges - n,
                    q=q,
                    key_bits=key_bits,
                    classifications=list(classifications),
                    **col,  # rho_a, rho_b, eve_bits, msq_u_a, msq_i_a
                )
            )
    return cells


def run_attack_cell(cfg: SimConfig) -> CellResult:
    """Accumulate cfg.n_bits secure exchanges and Eve's statistics over them: a grid of one cell."""
    level = cfg.injection.level_fraction if cfg.injection else 0.0
    return _run_grid(cfg, [cfg.variant], (level,))[0]


def _cell_config(cfg: SimConfig, variant: circuit.Variant, level: float) -> SimConfig:
    if not 0.0 <= level < 1.0:
        raise ConfigError(f"injection level must lie in [0, 1), got {level!r}")
    inj = None
    if level > 0:
        inj = attack.InjectionSpec(
            level_fraction=level, bandwidth_hz=cfg.bandwidth_hz, seed=cfg.master_seed
        )
    return replace(cfg, variant=variant, injection=inj)


@dataclass
class Table1Result:
    cells: list[CellResult]
    levels: tuple[float, ...]
    elapsed_s: float

    def cell(self, variant_lbl: str, level: float) -> CellResult:
        for c in self.cells:
            if c.variant_lbl == variant_lbl and c.level == level:
                return c
        raise KeyError((variant_lbl, level))


def run_table1(
    cfg: SimConfig,
    levels: tuple[float, ...] = TABLE1_LEVELS,
    variants: list[circuit.Variant] | None = None,
) -> Table1Result:
    """Eve's success probability over the variant x injection-level grid, in one pass."""
    if variants is None:
        variants = default_table1_variants()
    t0 = time.monotonic()
    cells = _run_grid(cfg, variants, tuple(levels))
    return Table1Result(cells=cells, levels=tuple(levels), elapsed_s=time.monotonic() - t0)


# --- defense experiment -----------------------------------------------------


# Exchanges per defense loop batch: each holds two solved rows, its clean and attacked arm
_DEFENSE_BATCH = protocol.BATCH // 2


def _defense_chunk(cfg: SimConfig, chunk, defense_model=None) -> dict:
    """One chunk of defense pairs: each secure exchange solved with and without Eve's current.

    `chunk` is (index, key_bits, choices) from `_used_chunks`. Each batch of
    equal loop configuration holds its clean and attacked rows. All batches
    with the same number of rows are solved in one stacked scan, each with
    its own loop system, and their residuals in one more: the in-site
    simulation. Per pair the payload holds the index, the residual rows,
    shape (2 arms, 2 ends, t) with the clean arm first, the clean channel
    current RMS and the clean residual RMS over it.
    """
    index, _, choices = chunk
    noise_seeds = _noise_seeds(cfg.master_seed, index, cfg.injection is not None)
    drives = protocol.exchange_drives(cfg, choices, noise_seeds, cfg.injection)
    fs = cfg.sample_rate_hz
    residuals = np.empty((len(index), 2, 2, cfg.samples_per_bit))
    channel_rms = np.empty(len(index))
    clean_ratio = np.empty(len(index))
    groups = collections.defaultdict(list)
    for loop_cfg, positions in protocol.loop_batches(cfg, index, choices, _DEFENSE_BATCH):
        groups[len(positions)].append((loop_cfg, positions))
    for group in groups.values():
        loop_cfgs, positions = zip(*group)
        positions = np.array(positions)
        n_sys, n = positions.shape
        # filled in place: np.concatenate's temporaries raised the peak RSS
        u = np.empty((n_sys, 2 * n) + drives.shape[1:])
        u[:, n:] = drives[positions]
        u[:, :n, :2] = u[:, n:, :2]
        u[:, :n, 2] = 0.0  # the first n rows of each batch are the clean arm
        measured = circuit.solve_rows(u, loop_cfgs, 1.0 / fs)
        del u  # free the drive rows before the in-site scan
        arms = defense.residual_rows(measured, loop_cfgs[0], fs, defense_model)
        arms = arms.reshape(n_sys, 2, n, 2, -1)
        residuals[positions] = arms.swapaxes(1, 2)
        channel_rms[positions] = np.sqrt(np.mean(np.square(measured[:, :n, 0]), axis=-1))
        clean_rms = np.sqrt(np.mean(np.square(arms[:, 0].reshape(n_sys, n, -1)), axis=-1))
        clean_ratio[positions] = clean_rms / channel_rms[positions]
    return {
        "index": index,
        "residuals": residuals,
        "channel_rms": channel_rms,
        "clean_ratio": clean_ratio,
    }


@dataclass
class DefenseBitRow:
    bit: int
    attacked: bool
    detected: bool
    latency_fraction: float | None
    max_residual: float


@dataclass
class DefenseResult:
    rows: list[DefenseBitRow]
    detection: defense.DetectionConfig
    n_bits: int
    n_calibration: int
    detection_rate: float
    false_positive_rate: float
    median_latency_fraction: float | None
    clean_residual_ratio: float
    trace_attacked: tuple[np.ndarray, np.ndarray]
    trace_clean: tuple[np.ndarray, np.ndarray]
    elapsed_s: float
    config: SimConfig  # as run, with the default injection filled in


def _calibrate_defense(cfg: SimConfig, held, n_calibration: int):
    """The detection config and the traced pair, from the first n_calibration + 1 pairs of the
    `held` chunks' payloads.

    The first n_calibration pairs' clean rows set the threshold, unless the
    config fixes it. Returns it and a copy of the next pair's residual rows
    at Alice's end, shape (2 arms, t), so no view keeps the held rows alive.
    """
    # residual rows (arm, end, t) of the first n_calibration + 1 pairs: calibration, then the trace
    pairs = itertools.chain.from_iterable(p["residuals"] for p in held)
    *calibration, traced = itertools.islice(pairs, n_calibration + 1)
    det = cfg.detection
    if det is None:
        pool = [row for pair in calibration for row in pair[0]]  # Alice's, then Bob's clean row
        channel_rms = np.concatenate([p["channel_rms"] for p in held])
        det = defense.calibrate_threshold(
            pool,
            cfg.detection_multiplier,
            cfg.detection_consecutive,
            reference_rms=float(np.mean(channel_rms[:n_calibration])),
        )
    return det, traced[:, 0].copy()


def run_defense_experiment(
    cfg: SimConfig,
    n_calibration: int = 20,
    defense_model: circuit.CableModel | None = None,
) -> DefenseResult:
    """Paired attacked/unattacked bits through the model-based comparison.

    The first `n_calibration` clean bits set the threshold (multiplier x
    pooled residual RMS, floored at the numerical noise level); detection
    statistics are computed over the remaining bits of both arms.
    `defense_model` perturbs the parties' cable model away from the channel
    truth to study robustness; by default they coincide.

    The run streams: it holds chunks only until the calibration pairs and
    the traced pair are in, then detects on each chunk as it arrives and
    drops its residual rows, so memory does not grow with n_bits.
    """
    t0 = time.monotonic()
    if cfg.injection is None:
        cfg = replace(
            cfg,
            injection=attack.InjectionSpec(0.1, cfg.bandwidth_hz, cfg.master_seed),
        )
    if cfg.n_bits <= n_calibration:
        raise ConfigError(
            f"defense experiment needs more than {n_calibration} bits for calibration"
        )
    t = cfg.samples_per_bit
    if not isinstance(cfg.variant, circuit.Ideal):
        if defense_model is not None:  # SimConfig checked the channel's model
            circuit.check_segmentation(defense_model, cfg.bandwidth_hz)
        # The in-site simulation takes a cable current as a voltage difference over a
        # branch's resistance, so its roundoff is about eps x r_h's generator voltage over
        # that resistance. Over the reference loop current that reads eps x
        # sqrt(r_h (r_l + r_h)) / R_branch; a sweep of length, segments and resistor pairs
        # measured at most 4.7 times this, hence the margin of 8.
        model = defense_model or circuit.model_for_variant(cfg.variant)
        r_branch = model.total_series_resistance / (1 if model.killer_enabled else model.n_segments)
        floor = 8 * np.finfo(float).eps * math.sqrt(cfg.r_h * (cfg.r_l + cfg.r_h)) / r_branch
        if floor > MAX_CLEAN_RESIDUAL_RATIO:
            raise ConfigError(
                f"the defense's clean residuals would read up to {floor:.3g} of the channel "
                f"current, above {MAX_CLEAN_RESIDUAL_RATIO:g}: the cable's branch resistance of "
                f"{r_branch:.3g} ohm is too small for the in-site simulation's roundoff"
            )

    def chunk_worker(c, chunk):
        return _defense_chunk(c, chunk, defense_model)

    size = cfg.check_array_budget(1)
    stream = _consume_chunks(cfg, chunk_worker, cfg.n_bits, _DEFENSE_BATCH, size)
    # n_bits > n_calibration, so the stream holds the first n_calibration + 1 pairs
    held = []
    while sum(len(p["index"]) for p in held) <= n_calibration:
        held.append(next(stream))
    det, (trace_clean, trace_attacked) = _calibrate_defense(cfg, held, n_calibration)
    cols = collections.defaultdict(list)
    for payload in itertools.chain(held, stream):
        # each pair's first firing sample and peak |residual|, shape (k, 2 arms); popping the
        # residual rows frees them, held chunks' too
        first, peak = defense.detect(payload.pop("residuals"), det)
        for name, value in (("first", first), ("peak", peak), *payload.items()):
            cols[name].append(value)
    first, peak, index, clean_ratio = (
        np.concatenate(cols[name])[n_calibration : cfg.n_bits]
        for name in ("first", "peak", "index", "clean_ratio")
    )
    rows = [
        DefenseBitRow(bit, attacked, f >= 0, f / t if f >= 0 else None, p)
        for bit, firsts, peaks in zip(index.tolist(), first.tolist(), peak.tolist())
        for attacked, f, p in zip((False, True), firsts, peaks)
    ]
    n_eval, attacked_first = len(first), first[:, 1]
    latencies = attacked_first[attacked_first >= 0] / t
    trace_t = np.arange(t) / cfg.sample_rate_hz
    return DefenseResult(
        rows=rows,
        detection=det,
        n_bits=n_eval,
        n_calibration=n_calibration,
        detection_rate=latencies.size / n_eval,
        false_positive_rate=int(np.count_nonzero(first[:, 0] >= 0)) / n_eval,
        median_latency_fraction=float(np.median(latencies)) if latencies.size else None,
        clean_residual_ratio=float(np.max(clean_ratio)),
        trace_attacked=(trace_t, trace_attacked),
        trace_clean=(trace_t, trace_clean),
        elapsed_s=time.monotonic() - t0,
        config=cfg,
    )


# --- privacy amplification experiment ---------------------------------------


@dataclass
class PrivacyStage:
    stage: int
    p_e: float
    stderr: float
    key_length: int


@dataclass
class PrivacyResult:
    stages: list[PrivacyStage]
    closed_form: list[float]
    cell: CellResult
    elapsed_s: float
    config: SimConfig  # as run, with the default wire and injection filled in


def run_privacy_experiment(cfg: SimConfig, passes: int = 2) -> PrivacyResult:
    """Eve's success before and after repeated XOR compression.

    Defaults to the strongest attack cell (ideal wire, 10 % injection) when
    the config does not pin an injection itself.
    """
    t0 = time.monotonic()
    if cfg.n_bits < 2**passes:
        raise ConfigError(f"privacy experiment needs at least {2**passes} bits for {passes} passes")
    if cfg.injection is None:
        cfg = replace(
            cfg,
            variant=circuit.Ideal(),
            injection=attack.InjectionSpec(0.1, cfg.bandwidth_hz, cfg.master_seed),
        )
    cell = run_attack_cell(cfg)
    true_key = privacy.KeyBits(cell.key_bits)
    eve_key = privacy.KeyBits(cell.eve_bits)
    stages = [PrivacyStage(0, cell.p_e, cell.stderr, cell.n)]
    for k in range(1, passes + 1):
        p_k = privacy.eve_success_after_amplification(true_key, eve_key, k)
        length = cell.n // (2**k)
        stages.append(
            PrivacyStage(k, p_k, math.sqrt(max(p_k * (1 - p_k), 1e-300) / length), length)
        )
    closed = []
    p = cell.p_e
    for _ in range(passes):
        p = privacy.predicted_leak_after_xor(p)
        closed.append(p)
    return PrivacyResult(
        stages=stages,
        closed_form=closed,
        cell=cell,
        elapsed_s=time.monotonic() - t0,
        config=cfg,
    )


# --- single-bit debug dump ---------------------------------------------------


@dataclass
class SingleBitDump:
    record: protocol.Exchanges  # one row
    residuals: tuple[np.ndarray, np.ndarray] | None
    rho_a: float
    rho_b: float
    eve_guess: protocol.BitClass


def run_single_bit(cfg: SimConfig, bit_index: int = 0) -> SingleBitDump:
    """Simulate one exchange, `run_exchanges` on a batch of one, and keep every row."""
    if bit_index < 0:
        raise ConfigError(f"bit_index must be non-negative, got {bit_index}")
    index = np.array([bit_index])
    choices = np.where(_holds_r_h(cfg, index), cfg.r_h, cfg.r_l)
    noise_seeds = _noise_seeds(cfg.master_seed, index, cfg.injection is not None)
    rec = protocol.run_exchanges(cfg, index, choices, noise_seeds, cfg.injection)
    rho_a = rho_b = np.zeros(1)
    if cfg.injection is not None:
        rho_a, rho_b = _correlators(rec.u[:, 2], rec.y)
    eve_bits = _eve_bits(cfg, index, rho_a, rho_b)
    residuals = None
    if not isinstance(cfg.variant, circuit.Ideal):
        loop_cfg, _ = next(protocol.loop_batches(cfg, index, choices))
        residuals = tuple(defense.residual_rows(rec.y, loop_cfg, cfg.sample_rate_hz)[0])
    return SingleBitDump(
        record=rec,
        residuals=residuals,
        rho_a=float(rho_a[0]),
        rho_b=float(rho_b[0]),
        eve_guess=protocol.BitClass.SECURE_HL if eve_bits[0] else protocol.BitClass.SECURE_LH,
    )


# --- config file parsing ------------------------------------------------------

_VARIANTS = {
    "ideal": circuit.Ideal,
    "cable": circuit.Cable,
    "cable_killer": circuit.CableWithKiller,
}


def _parse_value(key: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"config key '{key}': must be finite, got {raw!r}")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': cannot parse {raw!r}") from exc


# SimConfig's scalar fields are config keys as they stand; its variant, injection
# and detection objects are written as these five keys.
_COMPOSITE_KEYS = {
    "variant": str,
    "cable_length_m": float,
    "n_segments": int,
    "injection_level": float,
    "detection_threshold": float,
}
_CONFIG_SCHEMA = {
    f.name: {"float": float, "int": int, "str": str}[f.type]
    for f in fields(SimConfig)
    if f.type in ("float", "int", "str")
} | _COMPOSITE_KEYS


def parse_config_text(text: str) -> SimConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _parse_value(key, raw, _CONFIG_SCHEMA[key])

    variant_name = values.pop("variant", "ideal")
    if variant_name not in _VARIANTS:
        raise ConfigError(
            f"config key 'variant': must be one of {tuple(_VARIANTS)}, got {variant_name!r}"
        )
    cable = values.pop("cable_length_m", 1000.0), values.pop("n_segments", 10)
    variant = circuit.Ideal() if variant_name == "ideal" else _VARIANTS[variant_name](*cable)

    level = values.pop("injection_level", 0.0)
    if level < 0 or level >= 1:
        raise ConfigError("config key 'injection_level': must lie in [0, 1)")
    threshold = values.pop("detection_threshold", None)
    consecutive = values.get("detection_consecutive", 1)

    try:
        cfg = SimConfig(variant=variant, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if level > 0:
        cfg = replace(cfg, injection=attack.InjectionSpec(level, cfg.bandwidth_hz, cfg.master_seed))
    if threshold is not None:
        cfg = replace(cfg, detection=defense.DetectionConfig(threshold, consecutive))
    return cfg


def parse_config(path: str) -> SimConfig:
    """Read a flat `key = value` config file (see README for the key list)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: SimConfig) -> str:
    """Serialize a config so that parse_config_text round-trips it.

    Keys follow SimConfig's fields, each object's composite keys in its
    field's place, except detection_threshold: last, and only when set.
    """
    kind = {cls: name for name, cls in _VARIANTS.items()}[type(cfg.variant)]
    composite = {
        "variant": {
            "variant": kind,
            "cable_length_m": getattr(cfg.variant, "length_m", 1000.0),
            "n_segments": getattr(cfg.variant, "n_segments", 10),
        },
        "injection": {"injection_level": cfg.injection.level_fraction if cfg.injection else 0.0},
        "detection": {},
    }
    values = {}
    for f in fields(SimConfig):
        values.update(composite.get(f.name, {f.name: getattr(cfg, f.name)}))
    if cfg.detection is not None:
        values["detection_threshold"] = cfg.detection.threshold
    return "".join(
        f"{key} = {repr(value) if _CONFIG_SCHEMA[key] is float else value}\n"
        for key, value in values.items()
    )


# --- report writing -----------------------------------------------------------


@dataclass
class ExperimentReport:
    config: SimConfig
    table: Table1Result | None = None
    defense_result: DefenseResult | None = None
    privacy_result: PrivacyResult | None = None
    single_bit: SingleBitDump | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_report(report: ExperimentReport, out_dir: str) -> list[str]:
    """Write the machine-readable CSVs plus a human summary; returns the paths.

    The summary lists the config that ran: the defense and privacy
    experiments fill in a default injection (and privacy the ideal wire), so
    their results carry their own config.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    config = report.config
    for result in (report.defense_result, report.privacy_result):
        if result is not None:
            config = result.config
    summary = [
        "kljnsim experiment report",
        "",
        "config:",
    ]
    summary += ["  " + line for line in config_to_text(config).splitlines()]
    summary.append("")

    if report.table is not None:
        path = os.path.join(out_dir, "table1.csv")
        _write_csv(
            path,
            ["variant", "level", "p_e", "stderr", "n"],
            [(c.variant_lbl, c.level, c.p_e, c.stderr, c.n) for c in report.table.cells],
        )
        written.append(path)
        summary.append(f"eavesdropper success probability ({report.table.elapsed_s:.1f} s):")
        for c in report.table.cells:
            summary.append(
                f"  {c.variant_lbl:>22s} @ {100 * c.level:5.1f}%: "
                f"p_E = {c.p_e:.4f} +/- {c.stderr:.4f} (n={c.n}, "
                f"honest bit errors {100 * c.honest_error_rate:.2f}%)"
            )
        summary.append("")

    if report.defense_result is not None:
        d = report.defense_result
        path = os.path.join(out_dir, "defense.csv")
        _write_csv(
            path,
            ["bit", "attacked", "detected", "latency_fraction", "max_residual"],
            [(r.bit, r.attacked, r.detected, r.latency_fraction, r.max_residual) for r in d.rows],
        )
        written.append(path)
        for name, trace in (
            ("residual_trace_attacked.csv", d.trace_attacked),
            ("residual_trace_clean.csv", d.trace_clean),
        ):
            path = os.path.join(out_dir, name)
            _write_csv(path, ["time_s", "residual_A"], zip(*trace))
            written.append(path)
        lat = "n/a" if d.median_latency_fraction is None else f"{100 * d.median_latency_fraction:.2f}% of tau"
        summary += [
            f"defense experiment ({d.elapsed_s:.1f} s): threshold {d.detection.threshold:.3e} A "
            f"(calibrated on {d.n_calibration} clean bits)",
            f"  detection rate: {100 * d.detection_rate:.2f}% of {d.n_bits} attacked bits",
            f"  false positives: {100 * d.false_positive_rate:.2f}% of {d.n_bits} clean bits",
            f"  median latency: {lat}",
            f"  worst clean residual rms / channel rms: {d.clean_residual_ratio:.3e}",
            "",
        ]

    if report.privacy_result is not None:
        p = report.privacy_result
        path = os.path.join(out_dir, "privacy.csv")
        _write_csv(
            path,
            ["stage", "p_e", "stderr", "key_length"],
            [(s.stage, s.p_e, s.stderr, s.key_length) for s in p.stages],
        )
        written.append(path)
        summary.append(f"privacy amplification ({p.elapsed_s:.1f} s):")
        for s in p.stages:
            summary.append(
                f"  stage {s.stage}: p_E = {s.p_e:.4f} +/- {s.stderr:.4f} "
                f"(key length {s.key_length})"
            )
        chain = " -> ".join(f"{v:.4f}" for v in p.closed_form)
        summary.append(f"  closed-form prediction from stage 0: {chain}")
        summary.append("")

    if report.single_bit is not None:
        s = report.single_bit
        rec = s.record
        path = os.path.join(out_dir, "single_bit.csv")
        u, y = rec.u[0], rec.y[0]  # y in the Loop convention, as solved
        t = np.arange(y.shape[1]) / report.config.sample_rate_hz
        header = [
            "time_s", "u_alice_gen_V", "u_bob_gen_V", "i_injected_A",
            "u_cha_V", "u_chb_V", "i_cha_A", "i_chb_A",
        ]
        cols = [t, u[0], u[1], u[2], y[2], y[3], y[0], y[1]]
        if s.residuals is not None:
            header += ["residual_a_A", "residual_b_A"]
            cols += [s.residuals[0], s.residuals[1]]
        _write_csv(path, header, zip(*cols))
        written.append(path)
        r_a, r_b = rec.choices[0].tolist()
        a, b = ("low" if r == report.config.r_l else "high" for r in (r_a, r_b))
        kind = "discard" if a == b else "secure"
        summary += [
            "single bit dump:",
            f"  alice {a} ({r_a:g} ohm), bob {b} ({r_b:g} ohm) -> {kind}_{a[0]}{b[0]}",
            f"  alice inferred remote: {rec.inferred[0, 0]:g} ohm; "
            f"bob inferred remote: {rec.inferred[0, 1]:g} ohm",
            f"  eve: rho_a = {s.rho_a:.4e}, rho_b = {s.rho_b:.4e}, guess {s.eve_guess.value}",
            "",
        ]

    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    written.append(path)
    return written
