"""The repository benchmark.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and README.md for why each was chosen):

``campaign-cold``  the paper's full study, cold, pooled over two workers
``serve-points``   ``repro.serve serve``: Opal point queries, key data
``fleet-mixed``    ``repro.serve fleet --workers 1``: calibrated sweeps
                   and points over three workload families

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the per-layer ledger (and the spans land under
``.benchwork/trace``).  Run from the root of a checkout: the program is
imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repobench.common import BenchError, require_program  # noqa: E402

WORKLOADS = ("campaign-cold", "serve-points", "fleet-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_program()
        if args.workload == "campaign-cold":
            from repobench import campaign

            result = campaign.run(args.seed, args.seconds, bool(args.trace))
        else:
            from repobench import serve

            result = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
        result.emit("per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
