"""Experiment orchestration: seeded Monte Carlo over bit exchanges.

Seed scheme: every exchange period owns six independent streams derived
statelessly as SeedSequence(entropy=(master_seed, exchange_index, stream_id))
with stream ids 0..5 for Alice's choice, Bob's choice, Alice's noise, Bob's
noise, Eve's injection and Eve's tie-break coin. Outcomes therefore depend
only on (master_seed, exchange_index): changing the requested bit count never
changes earlier bits, and any partition of the index range across workers
reproduces the sequential result exactly.
"""
from __future__ import annotations

import collections
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import attack, circuit, defense, privacy, protocol
from .exceptions import ConfigError

_CHUNK = 128  # fixed chunk size keeps worker partitioning deterministic

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
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.detection_multiplier <= 0:
            raise ConfigError("detection_multiplier must be positive")
        if self.detection_consecutive < 1:
            raise ConfigError("detection_consecutive must be >= 1")
        if self.injection is not None and self.injection.bandwidth_hz != self.bandwidth_hz:
            raise ConfigError("injection bandwidth must equal the channel bandwidth")

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


def _stream_seq(master_seed: int, exchange_index: int, stream_id: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(master_seed, exchange_index, stream_id))


def _stream_seed(master_seed: int, exchange_index: int, stream_id: int) -> int:
    return int(_stream_seq(master_seed, exchange_index, stream_id).generate_state(1, np.uint64)[0])


def derive_bit_streams(master_seed: int, exchange_index: int) -> protocol.BitStreams:
    """Build the six per-exchange streams from the documented splitting scheme."""
    return protocol.BitStreams(
        alice_choice=np.random.default_rng(
            _stream_seq(master_seed, exchange_index, _STREAM_IDS["alice_choice"])
        ),
        bob_choice=np.random.default_rng(
            _stream_seq(master_seed, exchange_index, _STREAM_IDS["bob_choice"])
        ),
        alice_noise_seed=_stream_seed(master_seed, exchange_index, _STREAM_IDS["alice_noise"]),
        bob_noise_seed=_stream_seed(master_seed, exchange_index, _STREAM_IDS["bob_noise"]),
        eve_noise_seed=_stream_seed(master_seed, exchange_index, _STREAM_IDS["eve_noise"]),
        eve_coin=np.random.default_rng(
            _stream_seq(master_seed, exchange_index, _STREAM_IDS["eve_coin"])
        ),
    )


@dataclass
class _SecureStats:
    index: int
    classification: protocol.BitClass
    rho_a: float
    rho_b: float
    q: int
    key_bit: int
    eve_bit: int
    honest_ok: bool
    msq_u_a: float
    msq_i_a: float


def _eavesdrop(rec: protocol.BitExchangeRecord, streams: protocol.BitStreams):
    """Eve's two correlators and her guess; without injection both read 0 and a coin decides."""
    rho_a = rho_b = 0.0
    if rec.injected is not None:
        div = rec.signals.to_convention(circuit.SignConvention.DIVIDER_FROM_INJECTION)
        rho_a = attack.correlate(rec.injected, div.i_cha)
        rho_b = attack.correlate(rec.injected, div.i_chb)
    return rho_a, rho_b, attack.eve_decide(rho_a, rho_b, tie_rng=streams.eve_coin)


def _classify_chunk(cfg: SimConfig, start: int):
    """Each exchange of the chunk at `start`: its class, and the secure ones' inputs.

    Returns the chunk's 128 classes in index order and, for the secure
    exchanges only, (index, streams, choices) as `protocol.run_exchanges`
    takes them.
    """
    classes, secure = [], []
    for index in range(start, start + _CHUNK):
        streams = derive_bit_streams(cfg.master_seed, index)
        choices = protocol.choices_for_bit(cfg, streams)
        cls = protocol.classify_bit_pair(*choices)
        classes.append(cls)
        if cls.is_secure:
            secure.append((index, streams, choices))
    return classes, secure


def _attack_chunk(cfg: SimConfig, start: int) -> list:
    """One chunk of the attack cell: a discard marker or secure-bit statistics per exchange."""
    results, secure = _classify_chunk(cfg, start)
    for (index, streams, _), rec in zip(secure, protocol.run_exchanges(cfg, secure, cfg.injection)):
        rho_a, rho_b, guess = _eavesdrop(rec, streams)
        cls = rec.classification
        results[index - start] = _SecureStats(
            index=index,
            classification=cls,
            rho_a=rho_a,
            rho_b=rho_b,
            q=int(guess is cls),
            key_bit=cls.key_bit,
            eve_bit=guess.key_bit,
            honest_ok=(
                rec.alice_inferred_remote == rec.bob_choice.resistance
                and rec.bob_inferred_remote == rec.alice_choice.resistance
            ),
            msq_u_a=float(np.mean(np.square(rec.signals.u_cha.samples))),
            msq_i_a=float(np.mean(np.square(rec.signals.i_cha.samples))),
        )
    return results


def _consume_chunks(cfg: SimConfig, chunk_worker, n_secure: int):
    """Run `chunk_worker(cfg, start)` over 128-exchange chunks until n_secure secure bits are in.

    A chunk worker returns one result per exchange of its chunk: a BitClass
    for a discard, anything else for a secure bit. Chunks are processed
    strictly in index order; with several workers the chunks are evaluated
    concurrently but consumed in order, so the collected sequence is
    identical to the sequential one.
    """
    secure = []
    discard_counts = collections.Counter()
    n_exchanges = 0

    def consume(chunk_results):
        nonlocal n_exchanges
        for item in chunk_results:
            if len(secure) >= n_secure:
                return True
            n_exchanges += 1
            if isinstance(item, protocol.BitClass):
                discard_counts[item] += 1
            else:
                secure.append(item)
        return len(secure) >= n_secure

    if cfg.workers == 1:
        start = 0
        while not consume(chunk_worker(cfg, start)):
            start += _CHUNK
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = collections.deque()
            next_start = 0
            done = False
            while not done:
                while len(futures) < cfg.workers + 1:
                    futures.append(pool.submit(chunk_worker, cfg, next_start))
                    next_start += _CHUNK
                done = consume(futures.popleft().result())
            for f in futures:
                f.cancel()
    return secure, discard_counts, n_exchanges


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


def run_attack_cell(cfg: SimConfig) -> CellResult:
    """Accumulate cfg.n_bits secure exchanges and Eve's statistics over them."""
    secure, discards, n_exchanges = _consume_chunks(cfg, _attack_chunk, cfg.n_bits)
    q = np.array([s.q for s in secure], dtype=np.int8)
    p_e, stderr = attack.success_probability(q)
    return CellResult(
        variant_lbl=variant_label(cfg.variant),
        level=cfg.injection.level_fraction if cfg.injection else 0.0,
        n=len(secure),
        p_e=p_e,
        stderr=stderr,
        honest_error_rate=1.0 - np.mean([s.honest_ok for s in secure]),
        n_exchanges=n_exchanges,
        n_discarded=sum(discards.values()),
        q=q,
        rho_a=np.array([s.rho_a for s in secure]),
        rho_b=np.array([s.rho_b for s in secure]),
        key_bits=np.array([s.key_bit for s in secure], dtype=np.uint8),
        eve_bits=np.array([s.eve_bit for s in secure], dtype=np.uint8),
        classifications=[s.classification for s in secure],
        msq_u_a=np.array([s.msq_u_a for s in secure]),
        msq_i_a=np.array([s.msq_i_a for s in secure]),
    )


def _cell_config(cfg: SimConfig, variant: circuit.Variant, level: float) -> SimConfig:
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
    """Eve's success probability over the variant x injection-level grid."""
    if variants is None:
        variants = default_table1_variants()
    t0 = time.monotonic()
    cells = []
    for variant in variants:
        for level in levels:
            cells.append(run_attack_cell(_cell_config(cfg, variant, level)))
    return Table1Result(cells=cells, levels=tuple(levels), elapsed_s=time.monotonic() - t0)


# --- defense experiment -----------------------------------------------------


@dataclass
class _DefenseBitSim:
    index: int
    residuals_clean: tuple[np.ndarray, np.ndarray]
    residuals_attacked: tuple[np.ndarray, np.ndarray]
    channel_rms_clean: float


def _defense_chunk(cfg: SimConfig, start: int, defense_model=None) -> list:
    """One chunk of defense pairs: each secure exchange solved with and without Eve's current.

    Per batch of equal loop configuration, the clean and attacked rows are
    solved in one call and their residuals in one in-site simulation. The
    residuals kept are copies, so no batch array outlives its batch.
    """
    results, secure = _classify_chunk(cfg, start)
    drives = [
        protocol.exchange_drive(cfg, streams, choices, cfg.injection)
        for _, streams, choices in secure
    ]
    fs = cfg.sample_rate_hz
    # two rows per exchange, so half as many exchanges per batch
    for loop_cfg, positions in protocol.loop_batches([d[0] for d in drives], protocol.BATCH // 2):
        n = len(positions)
        attacked = np.stack([circuit.input_rows(*drives[pos][1:]) for pos in positions])
        u = np.concatenate([attacked, attacked])
        u[:n, 2] = 0.0  # the first n rows are the clean arm
        measured = circuit.solve_rows(u, loop_cfg, 1.0 / fs)
        residuals = defense.residual_rows(measured, loop_cfg, fs, defense_model)
        for j, pos in enumerate(positions):
            index = secure[pos][0]
            results[index - start] = _DefenseBitSim(
                index=index,
                residuals_clean=tuple(residuals[j].copy()),
                residuals_attacked=tuple(residuals[n + j].copy()),
                channel_rms_clean=float(np.sqrt(np.mean(np.square(measured[j, 0])))),
            )
    return results


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

    def chunk_worker(c, start):
        return _defense_chunk(c, start, defense_model)

    sims, _, _ = _consume_chunks(cfg, chunk_worker, cfg.n_bits)
    fs = cfg.sample_rate_hz
    if cfg.detection is not None:
        det = cfg.detection
    else:
        pool = [r for s in sims[:n_calibration] for r in s.residuals_clean]
        reference = float(np.mean([s.channel_rms_clean for s in sims[:n_calibration]]))
        det = defense.calibrate_threshold(
            pool, cfg.detection_multiplier, cfg.detection_consecutive, reference_rms=reference
        )
    rows = []
    latencies = []
    n_detected_att = 0
    n_fp = 0
    eval_sims = sims[n_calibration:]
    for s in eval_sims:
        for attacked, residual_pair in ((False, s.residuals_clean), (True, s.residuals_attacked)):
            verdict = defense.detect_residuals(list(residual_pair), det, fs)
            rows.append(
                DefenseBitRow(
                    bit=s.index,
                    attacked=attacked,
                    detected=verdict.attacked,
                    latency_fraction=verdict.latency_fraction,
                    max_residual=verdict.max_residual,
                )
            )
            if attacked:
                if verdict.attacked:
                    n_detected_att += 1
                    latencies.append(verdict.latency_fraction)
            elif verdict.attacked:
                n_fp += 1
    n_eval = len(eval_sims)
    clean_ratio = max(
        float(np.sqrt(np.mean(np.square(np.concatenate(s.residuals_clean)))))
        / s.channel_rms_clean
        for s in eval_sims
    )
    t = np.arange(cfg.samples_per_bit) / fs
    first = eval_sims[0]
    return DefenseResult(
        rows=rows,
        detection=det,
        n_bits=n_eval,
        n_calibration=n_calibration,
        detection_rate=n_detected_att / n_eval,
        false_positive_rate=n_fp / n_eval,
        median_latency_fraction=float(np.median(latencies)) if latencies else None,
        clean_residual_ratio=clean_ratio,
        trace_attacked=(t, first.residuals_attacked[0]),
        trace_clean=(t, first.residuals_clean[0]),
        elapsed_s=time.monotonic() - t0,
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


def run_privacy_experiment(cfg: SimConfig, passes: int = 2) -> PrivacyResult:
    """Eve's success before and after repeated XOR compression.

    Defaults to the strongest attack cell (ideal wire, 10 % injection) when
    the config does not pin an injection itself.
    """
    t0 = time.monotonic()
    if cfg.injection is None:
        cfg = replace(
            cfg,
            variant=circuit.Ideal(),
            injection=attack.InjectionSpec(0.1, cfg.bandwidth_hz, cfg.master_seed),
        )
    cell = run_attack_cell(cfg)
    true_key = privacy.KeyBits(cell.key_bits, privacy.PROVENANCE_TRUE)
    eve_key = privacy.KeyBits(cell.eve_bits, privacy.PROVENANCE_EVE)
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
        stages=stages, closed_form=closed, cell=cell, elapsed_s=time.monotonic() - t0
    )


# --- single-bit debug dump ---------------------------------------------------


@dataclass
class SingleBitDump:
    record: protocol.BitExchangeRecord
    i_inj: np.ndarray
    residuals: tuple[np.ndarray, np.ndarray] | None
    rho_a: float
    rho_b: float
    eve_guess: protocol.BitClass


def run_single_bit(cfg: SimConfig, bit_index: int = 0) -> SingleBitDump:
    """Simulate one exchange and keep every waveform for inspection."""
    streams = derive_bit_streams(cfg.master_seed, bit_index)
    choices = protocol.choices_for_bit(cfg, streams)
    rec = protocol.run_bit_exchange(cfg, bit_index, streams, choices, cfg.injection)
    rho_a, rho_b, guess = _eavesdrop(rec, streams)
    i_inj = rec.injected.samples if rec.injected is not None else np.zeros(cfg.samples_per_bit)
    residuals = None
    if not isinstance(cfg.variant, circuit.Ideal):
        residuals = defense.end_residuals(rec.signals, rec.loop_cfg)
    return SingleBitDump(
        record=rec,
        i_inj=i_inj,
        residuals=residuals,
        rho_a=rho_a,
        rho_b=rho_b,
        eve_guess=guess,
    )


# --- config file parsing ------------------------------------------------------

_VARIANT_NAMES = ("ideal", "cable", "cable_killer")


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


_CONFIG_SCHEMA = {
    "r_l": float,
    "r_h": float,
    "t_eff": float,
    "bandwidth_hz": float,
    "tau_s": float,
    "sample_rate_hz": float,
    "n_bits": int,
    "variant": str,
    "cable_length_m": float,
    "n_segments": int,
    "injection_position": float,
    "injection_level": float,
    "detection_threshold": float,
    "detection_multiplier": float,
    "detection_consecutive": int,
    "selection_mode": str,
    "master_seed": int,
    "workers": int,
}


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
    if variant_name not in _VARIANT_NAMES:
        raise ConfigError(
            f"config key 'variant': must be one of {_VARIANT_NAMES}, got {variant_name!r}"
        )
    length = values.pop("cable_length_m", 1000.0)
    n_segments = values.pop("n_segments", 10)
    if variant_name == "ideal":
        variant = circuit.Ideal()
    elif variant_name == "cable":
        variant = circuit.Cable(length, n_segments)
    else:
        variant = circuit.CableWithKiller(length, n_segments)

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
        cfg = replace(
            cfg,
            injection=attack.InjectionSpec(level, cfg.bandwidth_hz, cfg.master_seed),
        )
    if threshold is not None:
        cfg = replace(
            cfg,
            detection=defense.DetectionConfig(threshold, consecutive),
        )
    return cfg


def parse_config(path: str) -> SimConfig:
    """Read a flat `key = value` config file (see README for the key list)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: SimConfig) -> str:
    """Serialize a config so that parse_config_text round-trips it."""
    if isinstance(cfg.variant, circuit.Ideal):
        vname, length, nseg = "ideal", 1000.0, 10
    else:
        vname = "cable_killer" if isinstance(cfg.variant, circuit.CableWithKiller) else "cable"
        length, nseg = cfg.variant.length_m, cfg.variant.n_segments
    lines = [
        f"r_l = {cfg.r_l!r}",
        f"r_h = {cfg.r_h!r}",
        f"t_eff = {cfg.t_eff!r}",
        f"bandwidth_hz = {cfg.bandwidth_hz!r}",
        f"tau_s = {cfg.tau_s!r}",
        f"sample_rate_hz = {cfg.sample_rate_hz!r}",
        f"n_bits = {cfg.n_bits}",
        f"variant = {vname}",
        f"cable_length_m = {length!r}",
        f"n_segments = {nseg}",
        f"injection_position = {cfg.injection_position!r}",
        f"injection_level = {cfg.injection.level_fraction!r}" if cfg.injection else "injection_level = 0.0",
        f"detection_multiplier = {cfg.detection_multiplier!r}",
        f"detection_consecutive = {cfg.detection_consecutive}",
        f"selection_mode = {cfg.selection_mode}",
        f"master_seed = {cfg.master_seed}",
        f"workers = {cfg.workers}",
    ]
    if cfg.detection is not None:
        lines.append(f"detection_threshold = {cfg.detection.threshold!r}")
    return "\n".join(lines) + "\n"


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
    """Write the machine-readable CSVs plus a human summary; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary = [
        "kljnsim experiment report",
        "",
        "config:",
    ]
    summary += ["  " + line for line in config_to_text(report.config).splitlines()]
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
        sig = rec.signals  # Loop convention, as solved
        t = np.arange(len(sig.i_cha)) / report.config.sample_rate_hz
        header = [
            "time_s", "u_alice_gen_V", "u_bob_gen_V", "i_injected_A",
            "u_cha_V", "u_chb_V", "i_cha_A", "i_chb_A",
        ]
        cols = [
            t, rec.u_a.samples, rec.u_b.samples, s.i_inj,
            sig.u_cha.samples, sig.u_chb.samples,
            sig.i_cha.samples, sig.i_chb.samples,
        ]
        if s.residuals is not None:
            header += ["residual_a_A", "residual_b_A"]
            cols += [s.residuals[0], s.residuals[1]]
        _write_csv(path, header, zip(*cols))
        written.append(path)
        summary += [
            "single bit dump:",
            f"  alice {rec.alice_choice.level.value} ({rec.alice_choice.resistance:g} ohm), "
            f"bob {rec.bob_choice.level.value} ({rec.bob_choice.resistance:g} ohm) "
            f"-> {rec.classification.value}",
            f"  alice inferred remote: {rec.alice_inferred_remote:g} ohm; "
            f"bob inferred remote: {rec.bob_inferred_remote:g} ohm",
            f"  eve: rho_a = {s.rho_a:.4e}, rho_b = {s.rho_b:.4e}, guess {s.eve_guess.value}",
            "",
        ]

    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    written.append(path)
    return written
