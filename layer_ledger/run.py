#!/usr/bin/env python3
"""Layer ledger: end-to-end and per-layer cost of real scenario sweeps.

Run from the repository root::

    python3 layer_ledger/run.py --workload fig3-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` repeats the timed sweep with every layer wrapped from outside
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Workloads,
metrics and the layer map are documented in ``BENCHMARK.json`` and
``layer_ledger/ledger.json``.

The program under test is imported from ``src/`` of the checkout; without
it the benchmark exits non-zero and prints no result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: a child process that measures set-up time and exits.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_probe, T_START)


if __name__ == "__main__":
    sys.exit(main())
