"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cot_stream --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload once untraced
and once traced and reports the per-layer ledger instead.  Progress
goes to stderr; stdout carries the host record, per-run details and,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Any wrong output exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, HERE]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics, ledger and .perfbench/<workload>.trace.json",
    )
    args = parser.parse_args(argv)
    _import_program()

    from bench import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    t0 = time.perf_counter()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"# run wall {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    print(f"# {args.workload}: attempted {result['attempted']} failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"#   {name:<30} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
