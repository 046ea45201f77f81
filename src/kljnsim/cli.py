"""Command-line entry point.

Verbs map onto the three experiments plus a debugging view:
  table1     success-probability grid over all wire variants and levels
  defense    paired attacked/clean bits through the model-based detector
  privacy    XOR compression chain at the strongest attack scenario
  single-bit full waveform dump of one exchange

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 simulation error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import circuit, harness
from .exceptions import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SIMULATION = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljn",
        description="Noise-based key exchange simulator: injection attack, "
        "detection defenses and XOR privacy amplification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("table1", "run the variant x injection-level grid"),
        ("defense", "run the paired attacked/clean detection experiment"),
        ("privacy", "run the XOR privacy-amplification chain"),
        ("single-bit", "dump every waveform of one exchange period"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--out", default="kljn-out", help="output directory")
        p.add_argument("--bits", type=int, help="override n_bits")
        p.add_argument("--workers", type=int, help="override worker count")
        if verb == "single-bit":
            p.add_argument("--bit-index", type=int, default=0)
    return parser


def _load_config(args) -> harness.SimConfig:
    cfg = harness.parse_config(args.config) if args.config else harness.SimConfig()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.bits is not None:
        cfg = replace(cfg, n_bits=args.bits)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _load_config(args)
    report = harness.ExperimentReport(config=cfg)

    if args.verb == "table1":
        report.table = harness.run_table1(cfg)
    elif args.verb == "defense":
        if isinstance(cfg.variant, circuit.Ideal) and args.config is None:
            cfg = replace(cfg, variant=circuit.Cable(1000.0, 10))
            report.config = cfg
        report.defense_result = harness.run_defense_experiment(cfg)
    elif args.verb == "privacy":
        report.privacy_result = harness.run_privacy_experiment(cfg)
    else:
        report.single_bit = harness.run_single_bit(cfg, args.bit_index)

    written = harness.write_report(report, args.out)
    print("wrote:")
    for path in written:
        print(f"  {path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
