#!/usr/bin/env python3
"""Desk-scale approximate-majority run: `apxmaj synth`, then
`apxmaj verify --mode mc` on the circuit it wrote.

Reproduces the reference configuration (n=101, d=3, A=3, 2^14-wide levels)
end to end.  Under --out: plan.json, circuit.netlist and bands.csv from synth,
certification.json from verify.  Exits with verify's code (0 pass, 1 fail),
with synth's when synth fails, or 3 when the plan is not synthesizable
(synth then writes plan.json only).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apxmaj import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=101)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--a", type=int, default=3)
    ap.add_argument("--width", type=int, default=2**14)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="desk_run")
    args = ap.parse_args()

    out = Path(args.out)
    run = ["--seed", str(args.seed), "--out", str(out)]
    code = cli.main(["synth", "--n", str(args.n), "--d", str(args.d), "--eps", str(args.eps),
                     "--override", f"A={args.a},M={args.width},Mtop={args.width}", *run])
    if code != cli.EXIT_OK:
        return code
    if not json.loads((out / "plan.json").read_text())["synthesizable"]:
        return cli.EXIT_RESOURCE
    return cli.main(["verify", str(out / "circuit.netlist"), "--eps", str(args.eps),
                     "--mode", "mc", "--trials", str(args.trials), *run])


if __name__ == "__main__":
    sys.exit(main())
