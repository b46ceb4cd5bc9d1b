"""intonsem benchmark: one closed-loop client driving the program in-process.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures the
per-layer metrics (see ``layers.py``), the scaling series and the tracing
overhead.  Every output is checked; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Generated inputs and the span trace go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-mix", "long-spans", "dense-library")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/intonsem/__init__.py", "tests/_oracles.py", "tests/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a source checkout of intonsem: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import measure
    import workloads

    workloads.OUT.mkdir(exist_ok=True)
    run = measure.traced if args.trace else measure.end_to_end
    metrics, attempted, failed, selftest_ok = run(args.workload, args.seed, args.seconds)
    result = {"correct": failed == 0 and selftest_ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
