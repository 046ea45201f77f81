"""Set-up probe: a fresh process imports kljnsim and runs one small pass.

The pass runs at the default master seed (`workloads.PIN_SEED`). It fills
the package's lazy caches, such as the solver caches, and yields the values
that `pinned.json` holds. The last line of standard output is one JSON
object: those values, the CSV digests, the errors `Workload.check` found and
the probe's own import and pass times.

Usage: python3 perfbench/setup_probe.py --workload NAME --out DIR
To re-pin, copy "pinned" and "digests" of each workload into pinned.json.
"""
import argparse
import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from kljnsim import harness

    import workloads

    t_import = time.perf_counter()
    w = workloads.WORKLOADS[args.workload]
    report = w.run(w.config(workloads.PIN_SEED, workloads.PROBE_BITS))
    paths = harness.write_report(report, args.out)
    t_pass = time.perf_counter()
    print(
        json.dumps(
            {
                "pinned": w.pinned(report),
                "digests": w.digests(paths),
                "errors": w.check(report, paths, workloads.SeedScheme(workloads.PIN_SEED)),
                "import_s": t_import - t0,
                "pass_s": t_pass - t_import,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
