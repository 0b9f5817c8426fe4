"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/all.py                      # every workload, seeds 1..10
    python3 perfbench/all.py --workloads oracles --seeds 1 2 3 --trace 1

Each run is `run.py` in its own process (so peak RSS is that workload's
alone), with `run_seconds` from BENCHMARK.json unless --seconds is given.
For every metric it prints the median over seeds and the spread: the
distance between the first and third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                if result is None:
                    continue
            for line in lines[:-1]:
                print(f"{workload} seed {seed}: {line}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            sys.stdout.flush()
        print(f"\n{workload}: {'metric':<44} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = "  OVER" if bound is not None and spread > bound else ""
            ok = ok and not flag
            print(f"{workload}: {name:<44} {med:14.6f} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6} {units[name]}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
