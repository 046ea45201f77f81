"""Experiment orchestration: seeded Monte Carlo over bit exchanges.

Seed scheme: every exchange period owns six independent streams derived
statelessly as SeedSequence(entropy=(master_seed, exchange_index, stream_id))
with stream ids 0..5 for Alice's choice, Bob's choice, Alice's noise, Bob's
noise, Eve's injection and Eve's tie-break coin. Outcomes therefore depend
only on (master_seed, exchange_index): changing the requested bit count never
changes earlier bits, and any partition of the index range across workers
reproduces the sequential result exactly. A stream is derived only when it
is drawn, and `seeds` hashes whole index arrays with numpy's results.

Exchanges run in chunks of 256 consecutive indices, each one array pass
from the seeds to the decisions. A chunk is classified before it runs: one
`seeds` call draws which party holds r_h, and the mixed rows are its secure
exchanges. A run ends at the n-th secure exchange, so its last chunk is
trimmed to the secure exchanges up to that one (`_used_chunks`): a row's
bits do not depend on the rows it is solved with (`circuit`), so neither the
chunk nor the trim changes them. Before any chunk runs,
`SimConfig.check_array_budget` sizes the chunk's largest arrays, the scans'
from `circuit.scan_bytes`, and falls back to half a chunk, or rejects the
run, past the budget. Chunk workers are module functions of (cfg, chunk),
bound by `functools.partial` to the values they read.

Every experiment runs its chunks through one pipeline. `_drive_rows` seeds and
synthesizes a chunk's rows once: the generators', and Eve's at every injection level
in one more call. `_solved_slabs` solves them a slab at a time: the ideal wire in
closed form, a level at a time, on the rows as synthesized; a cable's rows as the
columns of their (Alice, Bob) resistor pair (`_pair_rows`), the variants of each
state count in one scan of variants x pairs systems. The experiments reduce its slabs.
An attack run is a grid of wire variants x injection levels (`run_table1`;
`run_attack_cell` is a grid of one cell), reduced to mean squares and correlators;
each party decides once per chunk for every cell. The defense is a grid of its
channel's wire at levels (0, the injection's), its clean and attacked arms, whose
slabs one more scan reduces to residuals: the parties' in-site simulations on their
model of the wire, a variant like the channel's (by default the channel's own). It
calibrates on its first pairs' clean rows, unless the config fixes the threshold, then
detects on each chunk as it arrives and drops its residual rows. The single-bit dump
is a grid of one exchange, of any class, that keeps its rows.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import attack, circuit, defense, noise, privacy, protocol, seeds
from .exceptions import ConfigError, ShapeMismatchError

# Exchanges per array pass. A row's bits do not depend on its chunk, so a run's bits are the
# same at half of it (the size budget's fallback).
_CHUNK = 256

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
    detection_multiplier: float = 5.0
    detection_consecutive: int = 1
    selection_mode: str = "randomized"
    master_seed: int = 12345
    workers: int = 1
    detection_threshold: float | None = None  # absolute, A; None calibrates it

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
        if self.detection_threshold is not None and not 0 < self.detection_threshold < math.inf:
            raise ConfigError("detection_threshold must be positive and finite")
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
        circuit.check_segmentation(self.variant, bw)
        r_cable = self.variant.total_series_resistance
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

    def check_array_budget(self, n_levels: int, variants=None, parties=None) -> int:
        """The exchanges per chunk of a run of `variants` (default: this config's) over
        `n_levels` injection levels: _CHUNK, or half of it if an array of a whole chunk would
        exceed MAX_ARRAY_BYTES (`_chunk_array_bytes`). Raises ConfigError if an array of a
        half chunk would. The defense's in-site scan is sized on the `parties`' wire, by
        default on each variant."""
        counts = collections.Counter(v.n_states for v in variants or [self.variant])
        in_site = (set(counts) if parties is None else {parties.n_states}) - {0}
        t, key = self.samples_per_bit, (tuple(sorted(counts.items())), tuple(sorted(in_site)))
        for chunk in (_CHUNK, _CHUNK // 2):
            sizes = _chunk_array_bytes(t, n_levels, chunk, *key)
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


@functools.lru_cache(maxsize=64)
def _chunk_array_bytes(t: int, n_levels: int, chunk: int, counts, in_site) -> dict[str, int]:
    """The bytes of the largest arrays of a chunk, by name, for a run over `n_levels`
    levels of variants with these (state count, variant count) pairs, whose defense
    simulates the parties' wire at the `in_site` state counts; cached, since every
    SimConfig checks its own.

    The harness sizes its own rows: a chunk's columns are its secure exchanges at every
    level, the defense's a grid of two levels, its clean and attacked arms; the ideal
    wire's rows of one level are the size of the residual rows. `circuit.scan_bytes`
    sizes the scans of both resistor pairs' columns: the cables' of each state count, a
    stack of both pairs per variant, and the defense's in-site scans.
    """
    L, C = n_levels, chunk
    columns = max(L, 2) * C  # a config's own check, at L = 1, sizes its defense's too
    sizes = {
        f"a chunk's ({columns}, 3, t) drive rows": 8 * columns * 3 * t,
        f"a chunk's ({L}, {C}, t) injected rows": 8 * L * C * t,
        f"a chunk's ({C}, 2, 2, t) residual rows": 8 * C * 4 * t,
    }
    scans = [((m, m), (2, 2 * C, 2, t), 2) for m in in_site]
    scans += [((count, 2, m, m), (2, L * C, 3, t), 4) for m, count in counts if m]
    for scan in scans:
        for name, size in circuit.scan_bytes(*scan).items():
            sizes[name] = max(size, sizes.get(name, 0))
    return sizes


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
    """Eve's two correlators per row, from her rows, which broadcast against the solved rows
    (..., k, 4, t) to (..., k, t)."""
    i_inj = np.broadcast_to(i_inj, y.shape[:-2] + y.shape[-1:])
    # Eve reads from her node outward: Alice's end as solved, Bob's end negated
    return attack.correlate(i_inj, y[..., 0, :]), attack.correlate(i_inj, -y[..., 1, :])


def _decide(cfg: SimConfig, msq: np.ndarray, choices: np.ndarray):
    """Alice's and Bob's inferred remote resistances, shape (..., k), from the mean squares of
    the solved rows (..., k, 4) and their own resistances `choices`, shape (k, 2)."""
    params = (cfg.r_l, cfg.r_h, cfg.t_eff, cfg.bandwidth_hz)
    return [  # each end's voltage, then its current
        protocol.decide_remote_resistor(msq[..., 2 + end], msq[..., end], choices[:, end], *params)
        for end in (0, 1)
    ]


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


def _used_chunks(cfg: SimConfig, n_secure: int, size: int):
    """The chunks' secure exchanges that a run of n_secure secure bits solves, in index order.

    Yields each chunk's (index, key_bits, choices) from `_classify_chunk` over
    `size` exchanges, skipping chunks without a secure exchange. The last
    chunk, the one with the n_secure-th secure exchange, is trimmed to the
    secure exchanges up to that one: a row's bits do not depend on the rows
    it is solved with, and the dropped ones are never seeded, synthesized or
    solved.
    """
    found = 0
    for start in itertools.count(0, size):
        index, key_bits, choices = _classify_chunk(cfg, start, size)
        n_used = n_secure - found
        if len(index) >= n_used:
            yield index[:n_used], key_bits[:n_used], choices[:n_used]
            return
        found += len(index)
        if len(index):
            yield index, key_bits, choices


def _consume_chunks(cfg: SimConfig, chunk_worker, n_secure: int, size: int):
    """Yield `chunk_worker(cfg, chunk)` for each chunk of `_used_chunks`, in index order.

    The harness classifies each chunk before it runs it, so it submits
    exactly the chunks a run uses. With several workers the chunks are
    evaluated concurrently, at most workers + 1 ahead of the consumer, but
    yielded in order, so the result is identical to the sequential one.
    """
    chunks = _used_chunks(cfg, n_secure, size)
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


def _drive_rows(cfg: SimConfig, index: np.ndarray, choices: np.ndarray, levels):
    """The generator rows of the exchanges `index`, shape (k, 2, t), and Eve's rows at each of
    the injection `levels`, shape (L, k, t), zero at level 0: one synthesis call for the
    generators and one for every injecting level."""
    attacked = np.array(levels) > 0
    noise_seeds = _noise_seeds(cfg.master_seed, index, attacked.any())
    gen = protocol.generator_rows(cfg, choices, noise_seeds)
    eve = np.zeros((len(levels), len(index), cfg.samples_per_bit))
    if attacked.any():
        eve[attacked] = protocol.injection_rows(cfg, noise_seeds[:, 2], np.compress(attacked, levels))
    return gen, eve


def _pair_rows(cfg: SimConfig, choices: np.ndarray, gen: np.ndarray, injected: np.ndarray):
    """The loop rows of k secure exchanges at each of the C rows of Eve's current `injected`,
    shape (C, k, t): their (u_a, u_b, i_inj) grouped by (Alice, Bob) resistor pair
    (`protocol.resistor_pairs`), each pair's C x k_p rows in one run, copy-major. Returns
    the pairs' loop configurations and positions, and the rows as the (P, N, 3, t) view of
    `protocol.pair_view`."""
    loop_cfgs, positions = protocol.resistor_pairs(cfg, choices)
    copies, t = injected.shape[0], injected.shape[-1]
    counts = [copies * len(pos) for pos in positions]
    flat = np.empty((sum(counts), 3, t))
    for pos, rows in zip(positions, np.split(flat, np.cumsum(counts)[:-1])):
        rows = rows.reshape(copies, len(pos), 3, t)
        for lo in range(0, len(pos), 32):  # 32 exchanges at a time, so each gather is small
            some = slice(lo, lo + 32)
            rows[:, some, :2] = gen[pos[some]]
            rows[:, some, 2] = injected[:, pos[some]]
    return loop_cfgs, positions, protocol.pair_view(flat, counts)


def _slab_columns(cols: slice, positions, copies: int):
    """For each resistor pair p, the columns of a slab `cols` of `_pair_rows`' (P, N) rows that
    are p's own: p, their indices in the slab, and each one's copy and exchange position."""
    for p, pos in enumerate(positions):
        own = np.arange(cols.start, min(cols.stop, copies * len(pos)))
        copy, row = np.divmod(own, len(pos))
        yield p, own - cols.start, copy, pos[row]


def _solved_slabs(cfg: SimConfig, choices: np.ndarray, gen: np.ndarray, eve: np.ndarray, variants):
    """Yield the solved rows of a chunk's exchanges with `choices`, shape (k, 2), on each wire
    of `variants` at each of Eve's rows `eve`, a slab at a time.

    `gen` and `eve` are `_drive_rows`' rows. Each slab is (group, y, msq, i_inj,
    columns): y holds the (i_cha, i_chb, u_cha, u_chb) rows of the variants `group`, one
    state count's, shape (V, P, N, 4, t) with V = 1 if they share them, msq their mean
    squares (`protocol.mean_squares`), i_inj Eve's rows of the slab's (P, N) columns, and
    `columns` yields each pair p's columns as `_slab_columns` does. The ideal wire is solved
    in closed form a level at a time, on the rows as synthesized: one slab of one pair
    whose columns are the level's k exchanges. Cables solve every level's rows as columns
    of their resistor pair (`_pair_rows`), gathered once, in one `circuit.loop_slabs` scan
    per state count. A caller holds neither `gen` nor `eve` nor a slab past its turn, so
    that each slab's rows are freed before the next's are formed.
    """
    k, copies, t = len(choices), len(eve), cfg.samples_per_bit
    u = None
    # the ideal wire first: it reads gen and eve, which the cables' gather releases
    for m in sorted({variant.n_states for variant in variants}):
        group = np.flatnonzero([variant.n_states == m for variant in variants])
        if not m:
            positions, injected = [np.arange(k)], eve.reshape(1, copies * k, t)
            r_a, r_b = choices[:, :1], choices[:, 1:]
            slabs = (
                (slice(c * k, c * k + k),
                 circuit.ideal_rows(gen[:, 0], gen[:, 1], eve[c], r_a, r_b)[None, None])
                for c in range(copies)
            )
        else:
            if u is None:
                loop_cfgs, positions, u = _pair_rows(cfg, choices, gen, eve)
                del gen, eve
                injected = u[..., 2, :]
            wires = [variants[v] for v in group]
            slabs = circuit.loop_slabs(u, wires, loop_cfgs, 1.0 / cfg.sample_rate_hz)
        for cols, y in slabs:
            msq = protocol.mean_squares(y)
            if not np.isfinite(msq).all():  # so is the mean square of a non-finite sample's row
                raise ShapeMismatchError("solved loop samples must all be finite")
            yield group, y, msq, injected[:, cols], _slab_columns(cols, positions, copies)
            del y  # before the next slab's rows are formed


def _grid_chunk(cfg: SimConfig, chunk, variants, levels) -> dict:
    """One chunk of the grid: the key bits and Eve's and the parties' statistics per cell and
    secure exchange, shape (variants, levels, k).

    `chunk` is (index, key_bits, choices) from `_used_chunks`, and the cells are the wire
    `variants` x the injection `levels`, each a fraction of the reference loop current
    (0: no injection). Each of `_solved_slabs`' slabs is reduced to mean squares and
    correlators as it comes, so no chunk of solved rows is held.
    """
    index, key_bits, choices = chunk
    shape = (len(variants), len(levels), len(index))
    msq = np.empty(shape + (4,))
    rho_a, rho_b = np.empty(shape), np.empty(shape)
    slabs = _solved_slabs(cfg, choices, *_drive_rows(cfg, index, choices, levels), variants)
    for group, y, slab_msq, i_inj, columns in slabs:
        stats = (slab_msq, *_correlators(i_inj, y))
        del y, i_inj  # free the solved rows before the next slab's are formed
        for p, own, lvl, pos in columns:
            for out, stat in zip((msq, rho_a, rho_b), stats):
                out[group[:, None], lvl, pos] = stat[:, p, own]
    alice, bob = _decide(cfg, msq, choices)
    # Eve's correlators read 0 at a level without injection
    attacked = np.array(levels)[:, None] > 0
    rho_a, rho_b = (np.where(attacked, rho, 0.0) for rho in (rho_a, rho_b))
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
    msq_u_a: np.ndarray
    msq_i_a: np.ndarray

    @property
    def classifications(self) -> list[protocol.BitClass]:
        """Each secure exchange's class, from its key bit."""
        classes = (protocol.BitClass.SECURE_LH, protocol.BitClass.SECURE_HL)
        return [classes[bit] for bit in self.key_bits.tolist()]


def run_attack_cell(cfg: SimConfig) -> CellResult:
    """Accumulate cfg.n_bits secure exchanges and Eve's statistics over them: a grid of one cell."""
    level = cfg.injection.level_fraction if cfg.injection else 0.0
    return run_table1(cfg, (level,), [cfg.variant]).cells[0]


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
    """Eve's success probability over the variant x injection-level grid, cells in that order.

    One pass over the exchanges: every cell consumes the same ones, since an
    exchange's class and noise depend only on (master_seed, index), and
    `_grid_chunk` does each chunk's shared work once for all cells.
    """
    t0 = time.monotonic()
    levels = tuple(levels)
    if variants is None:
        variants = default_table1_variants()
    if not levels or not variants:
        raise ConfigError("a grid needs at least one injection level and one wire variant")
    for level in levels:
        if not 0.0 <= level < 1.0:
            raise ConfigError(f"injection level must lie in [0, 1), got {level!r}")
    for variant in variants:  # SimConfig checks each variant's cable and signal scales
        replace(cfg, variant=variant)
    size = cfg.check_array_budget(len(levels), variants)
    chunk_worker = functools.partial(_grid_chunk, variants=variants, levels=levels)
    payloads = list(_consume_chunks(cfg, chunk_worker, cfg.n_bits, size))
    cols = {name: np.concatenate([p[name] for p in payloads], axis=-1) for name in payloads[0]}
    n_exchanges = int(cols.pop("index")[-1]) + 1  # up to and including the last secure one
    key_bits = cols.pop("key_bits")
    n = len(key_bits)
    cells = []
    for (v, variant), (lvl, level) in itertools.product(enumerate(variants), enumerate(levels)):
        col = {name: value[v, lvl] for name, value in cols.items()}
        honest_ok = col.pop("honest_ok")
        q = (col["eve_bits"] == key_bits).astype(np.int8)
        p_e, stderr = attack.success_probability(q)
        cells.append(
            CellResult(
                variant_lbl=variant_label(variant),
                level=float(level),
                n=n,
                p_e=p_e,
                stderr=stderr,
                honest_error_rate=1.0 - np.mean(honest_ok),
                n_exchanges=n_exchanges,
                n_discarded=n_exchanges - n,
                q=q,
                key_bits=key_bits,
                **col,  # rho_a, rho_b, eve_bits, msq_u_a, msq_i_a
            )
        )
    return Table1Result(cells=cells, levels=levels, elapsed_s=time.monotonic() - t0)


# --- defense experiment -----------------------------------------------------


def _defense_chunk(cfg: SimConfig, chunk, parties: circuit.Variant | None = None) -> dict:
    """One chunk of defense pairs: each secure exchange solved with and without Eve's current.

    `chunk` is (index, key_bits, choices) from `_used_chunks`, and `cfg.injection`
    is set. The channel is a grid of its own wire at levels (0, the injection's), the
    clean and the attacked arm (`_solved_slabs`). Each slab's residuals are then
    simulated at once: the in-site simulation on the `parties`' wire (default: the
    channel's). Per pair the payload holds the index, the residual rows, shape (2 arms,
    2 ends, t) with the clean arm first, the clean channel current RMS and the clean
    residual RMS over it.
    """
    index, _, choices = chunk
    levels = (0.0, cfg.injection.level_fraction)
    residuals = np.empty((len(index), 2, 2, cfg.samples_per_bit))
    channel_rms, clean_ratio = np.empty((2, len(index)))
    slabs = _solved_slabs(cfg, choices, *_drive_rows(cfg, index, choices, levels), [cfg.variant])
    for _, measured, msq, _, columns in slabs:
        arms = defense.residual_rows(measured[0], parties or cfg.variant, cfg.sample_rate_hz)
        del measured  # free the solved rows before the next slab's are formed
        rms = np.sqrt(msq[0, ..., 0])
        arm_rms = np.sqrt(np.mean(np.square(arms.reshape(arms.shape[:-2] + (-1,))), axis=-1))
        for p, own, arm, pos in columns:
            residuals[pos, arm] = arms[p, own]
            clean, at = own[arm == 0], pos[arm == 0]
            channel_rms[at] = rms[p, clean]
            clean_ratio[at] = arm_rms[p, clean] / rms[p, clean]
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


def run_defense_experiment(
    cfg: SimConfig,
    n_calibration: int = 20,
    defense_model: circuit.Variant | None = None,
) -> DefenseResult:
    """Paired attacked/unattacked bits through the model-based comparison.

    The first `n_calibration` clean bits set the threshold (multiplier x
    pooled residual RMS, floored at the numerical noise level), unless the
    config fixes it; detection statistics are computed over the remaining
    bits of both arms.
    `defense_model` is the parties' model of the wire, a variant like
    `cfg.variant`; a cable of another length or segmentation studies the
    defense's robustness to a model that misses the channel. By default
    the parties simulate the channel's own wire.

    The run streams: it holds chunks only until the calibration pairs and
    the traced pair are in, then detects on each chunk as it arrives and
    drops its residual rows, so memory does not grow with n_bits.
    """
    t0 = time.monotonic()
    if cfg.injection is None:
        cfg = replace(
            cfg,
            injection=attack.InjectionSpec(0.1, cfg.bandwidth_hz),
        )
    if n_calibration < 0 or (n_calibration == 0 and cfg.detection_threshold is None):
        raise ConfigError(
            f"n_calibration must be >= 1, or 0 with a fixed detection_threshold; got {n_calibration}"
        )
    if cfg.n_bits <= n_calibration:
        raise ConfigError(
            f"defense experiment needs more than {n_calibration} bits for calibration"
        )
    t = cfg.samples_per_bit
    parties = cfg.variant if defense_model is None else defense_model
    circuit.check_segmentation(parties, cfg.bandwidth_hz)
    if parties.n_states:
        # The in-site simulation takes a cable current as a voltage difference over a
        # branch's resistance, so its roundoff is about eps x r_h's generator voltage over
        # that resistance. Over the reference loop current that reads eps x
        # sqrt(r_h (r_l + r_h)) / R_branch; a sweep of length, segments and resistor pairs
        # measured at most 4.7 times this, hence the margin of 8.
        n_branches = 1 if isinstance(parties, circuit.CableWithKiller) else parties.n_segments
        r_branch = parties.total_series_resistance / n_branches
        floor = 8 * np.finfo(float).eps * math.sqrt(cfg.r_h * (cfg.r_l + cfg.r_h)) / r_branch
        if floor > MAX_CLEAN_RESIDUAL_RATIO:
            raise ConfigError(
                f"the defense's clean residuals would read up to {floor:.3g} of the channel "
                f"current, above {MAX_CLEAN_RESIDUAL_RATIO:g}: the cable's branch resistance of "
                f"{r_branch:.3g} ohm is too small for the in-site simulation's roundoff"
            )

    chunk_worker = functools.partial(_defense_chunk, parties=parties)
    size = cfg.check_array_budget(2, parties=parties)
    stream = _consume_chunks(cfg, chunk_worker, cfg.n_bits, size)
    # n_bits > n_calibration, so the stream holds the first n_calibration + 1 pairs
    held = []
    while sum(len(p["index"]) for p in held) <= n_calibration:
        held.append(next(stream))
    # their residual rows (arm, end, t): the first n_calibration pairs calibrate, the next is traced
    pairs = np.concatenate([p["residuals"] for p in held])[: n_calibration + 1]
    if cfg.detection_threshold is None:
        channel_rms = np.concatenate([p["channel_rms"] for p in held])
        det = defense.calibrate_threshold(
            pairs[:n_calibration, 0],  # the clean arm's rows, Alice's then Bob's
            cfg.detection_multiplier,
            cfg.detection_consecutive,
            reference_rms=float(np.mean(channel_rms[:n_calibration])),
        )
    else:
        det = defense.DetectionConfig(cfg.detection_threshold, cfg.detection_consecutive)
    # Alice's end; copied, so that no view keeps the pairs alive
    trace_clean, trace_attacked = pairs[n_calibration, :, 0].copy()
    del pairs
    cols = collections.defaultdict(list)
    for payload in itertools.chain(held, stream):
        # each pair's first firing sample and peak |residual|, shape (k, 2 arms); popping the
        # residual rows frees them, held chunks' too
        first, peak = defense.detect(payload.pop("residuals"), det)
        for name, value in (("first", first), ("peak", peak), *payload.items()):
            cols[name].append(value)
    first, peak, index, clean_ratio = (
        np.concatenate(cols[name])[n_calibration:]
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
    if passes < 0:
        raise ConfigError(f"passes must be >= 0, got {passes}")
    if cfg.n_bits < 2**passes:
        raise ConfigError(f"privacy experiment needs at least {2**passes} bits for {passes} passes")
    if cfg.injection is None:
        cfg = replace(
            cfg,
            variant=circuit.Ideal(),
            injection=attack.InjectionSpec(0.1, cfg.bandwidth_hz),
        )
    cell = run_attack_cell(cfg)
    true_key = privacy.KeyBits(cell.key_bits)
    eve_key = privacy.KeyBits(cell.eve_bits)
    stages = [PrivacyStage(0, cell.p_e, cell.stderr, cell.n)]
    for k in range(1, passes + 1):
        p_k = privacy.eve_success_after_amplification(true_key, eve_key, k)
        length = cell.n // (2**k)
        stages.append(
            PrivacyStage(k, p_k, math.sqrt(p_k * (1.0 - p_k) / length), length)
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
    """One exchange's rows: its drive rows (u_a, u_b, i_inj), shape (3, t), its solved rows
    (i_cha, i_chb, u_cha, u_chb) in the Loop convention, shape (4, t), its (Alice, Bob)
    resistances and the remote resistance each inferred, shape (2,), and Eve's key bit."""

    u: np.ndarray
    y: np.ndarray
    choices: np.ndarray
    inferred: np.ndarray
    residuals: tuple[np.ndarray, np.ndarray] | None
    rho_a: float
    rho_b: float
    eve_guess: int


def run_single_bit(cfg: SimConfig, bit_index: int = 0) -> SingleBitDump:
    """Simulate one exchange of any class, a grid of one cell and one exchange, and keep every
    row."""
    if bit_index < 0:
        raise ConfigError(f"bit_index must be non-negative, got {bit_index}")
    index = np.array([bit_index])
    choices = np.where(_holds_r_h(cfg, index), cfg.r_h, cfg.r_l)
    level = cfg.injection.level_fraction if cfg.injection is not None else 0.0
    gen, eve = _drive_rows(cfg, index, choices, (level,))
    [(_, y, msq, i_inj, _)] = _solved_slabs(cfg, choices, gen, eve, [cfg.variant])
    y, msq = y.reshape(1, 4, -1), msq.reshape(1, 4)
    alice, bob = _decide(cfg, msq, choices)
    # Eve's correlators read 0 without injection
    rho_a, rho_b = (np.where(level > 0, rho, 0.0) for rho in _correlators(i_inj[0], y))
    residuals = None
    if not isinstance(cfg.variant, circuit.Ideal):
        residuals = tuple(defense.residual_rows(y, cfg.variant, cfg.sample_rate_hz)[0])
    return SingleBitDump(
        u=np.concatenate([gen[0], eve[:, 0]]),
        y=y[0],
        choices=choices[0],
        inferred=np.concatenate([alice, bob]),
        residuals=residuals,
        rho_a=float(rho_a[0]),
        rho_b=float(rho_b[0]),
        eve_guess=int(_eve_bits(cfg, index, rho_a, rho_b)[0]),
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


# SimConfig's scalar fields are config keys as they stand; its variant and
# injection objects are written as these four keys.
_COMPOSITE_KEYS = {
    "variant": str,
    "cable_length_m": float,
    "n_segments": int,
    "injection_level": float,
}
_SCALAR_TYPES = {"float": float, "float | None": float, "int": int, "str": str}
_CONFIG_SCHEMA = {
    f.name: _SCALAR_TYPES[f.type] for f in fields(SimConfig) if f.type in _SCALAR_TYPES
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

    try:
        cfg = SimConfig(variant=variant, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if level > 0:
        cfg = replace(cfg, injection=attack.InjectionSpec(level, cfg.bandwidth_hz))
    return cfg


def parse_config(path: str) -> SimConfig:
    """Read a flat `key = value` config file (see README for the key list)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: SimConfig) -> str:
    """Serialize a config so that parse_config_text round-trips it.

    Keys follow SimConfig's fields, each object's composite keys in its
    field's place; the cable keys only for a cable, detection_threshold only
    when set.
    """
    variant = {"variant": {cls: name for name, cls in _VARIANTS.items()}[type(cfg.variant)]}
    if isinstance(cfg.variant, circuit.Cable):  # the canceller too
        variant |= {"cable_length_m": cfg.variant.length_m, "n_segments": cfg.variant.n_segments}
    composite = {
        "variant": variant,
        "injection": {"injection_level": cfg.injection.level_fraction if cfg.injection else 0.0},
    }
    values = {}
    for f in fields(SimConfig):
        values.update(composite.get(f.name, {f.name: getattr(cfg, f.name)}))
    return "".join(
        f"{key} = {repr(value) if _CONFIG_SCHEMA[key] is float else value}\n"
        for key, value in values.items()
        if value is not None
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
        calibrated = f" (calibrated on {d.n_calibration} clean bits)"
        summary += [
            f"defense experiment ({d.elapsed_s:.1f} s): threshold {d.detection.threshold:.3e} A"
            + (calibrated if d.config.detection_threshold is None else ""),
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
        path = os.path.join(out_dir, "single_bit.csv")
        u, y = s.u, s.y  # y in the Loop convention, as solved
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
        r_a, r_b = s.choices.tolist()
        a, b = ("low" if r == report.config.r_l else "high" for r in (r_a, r_b))
        kind = "discard" if a == b else "secure"
        summary += [
            "single bit dump:",
            f"  alice {a} ({r_a:g} ohm), bob {b} ({r_b:g} ohm) -> {kind}_{a[0]}{b[0]}",
            f"  alice inferred remote: {s.inferred[0]:g} ohm; "
            f"bob inferred remote: {s.inferred[1]:g} ohm",
            f"  eve: rho_a = {s.rho_a:.4e}, rho_b = {s.rho_b:.4e}, "
            f"guess secure_{('lh', 'hl')[s.eve_guess]}",
            "",
        ]

    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    written.append(path)
    return written
