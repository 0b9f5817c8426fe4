"""Check that the work counters repeat exactly for a seed and move with it.

    python3 perfbench/selfcheck.py [--seed 1] [--workloads ...]

For each workload: two traced one-pass runs with the same seed must report
identical counters (every per-layer metric made of counts alone), and a run
with the next seed must pass every output check and, since its inputs
differ, report different counters.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTERS = [name for name, _, _, how, _, _ in LAYER_METRICS if how in ("count", "ratio")]


def counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS if name in metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args()
    ok = True
    for workload in args.workloads:
        first, again = counters(workload, args.seed), counters(workload, args.seed)
        other = counters(workload, args.seed + 1)
        differs = [name for name in first if first[name] != again[name]]
        used = {name: value for name, value in first.items() if value}
        print(f"{workload}: {len(used)} nonzero counters, "
              f"{'identical' if not differs else 'DIFFER: ' + ', '.join(differs)} on a rerun; "
              f"seed {args.seed + 1} changes "
              f"{sum(first[name] != other[name] for name in first)} of them")
        for name, value in sorted(used.items()):
            print(f"  {name:<48} {value:>16} {other[name]:>16}")
        ok = ok and not differs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
