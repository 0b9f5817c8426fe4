#!/usr/bin/env python3
"""Desk-scale approximate-majority run: plan, synthesize, certify, report.

Reproduces the reference configuration (n=101, d=3, A=3, 2^14-wide levels)
end to end and writes plan/netlist/certification/band reports under --out.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apxmaj import synthesis as synth_mod
from apxmaj import verify as verify_mod
from apxmaj.circuits import serialize_netlist
from apxmaj.rng import rng_for


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

    plan = synth_mod.plan(args.n, args.d, args.eps,
                          {"A": args.a, "M": args.width, "M_top": args.width})
    print(f"plan [{plan.mode}]: A={plan.a} s_top={plan.s_top:.4f}")
    for spec in plan.levels:
        print("  " + spec.describe())

    result = synth_mod.synth(plan, args.seed)
    print(f"circuit: depth={result.dag.depth} gates={result.dag.size} "
          f"live={result.dag.cone().size} monotone={result.dag.is_monotone()}")

    cert = verify_mod.certify_approx_majority(
        result.dag, args.eps, "mc", trials=args.trials, seed=args.seed)
    print(f"certification: disagreement={cert.disagreement:.4f} "
          f"CI=[{cert.ci_lo:.4f}, {cert.ci_hi:.4f}] trials={cert.trials} "
          f"-> {'PASS' if cert.passed else 'FAIL'}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "circuit.netlist").write_text(serialize_netlist(result.dag))
    band_rows = []
    for w in (int(0.4 * args.n), args.n // 2, int(0.6 * args.n) + 1):
        rng = rng_for(args.seed, "witness", w)
        mask = 0
        for i in rng.permutation(args.n)[:w]:
            mask |= 1 << int(i)
        for obs in synth_mod.empirical_level_check(result, mask):
            band_rows.append({
                "weight": w, "level": obs.index, "kind": obs.kind.value,
                "ones_fraction": obs.ones_fraction, "predicted": obs.predicted,
                "sigma": obs.sigma, "within_3_sigma": obs.within_3_sigma,
                "band_membership": obs.band_membership,
            })
            print(f"  w={w} level {obs.index}: {obs.ones_fraction:.5f} "
                  f"(predicted {obs.predicted:.5f} +- {obs.sigma:.5f})")
    verify_mod.emit_report(band_rows, out / "bands.csv", "csv", meta={"seed": args.seed})
    verify_mod.emit_report({
        "n": args.n, "d": args.d, "eps": args.eps, "seed": args.seed,
        "disagreement": cert.disagreement, "ci_lo": cert.ci_lo, "ci_hi": cert.ci_hi,
        "trials": cert.trials, "passed": cert.passed,
    }, out / "certification.json", "json", meta={"seed": args.seed})
    return 0 if cert.passed else 1


if __name__ == "__main__":
    sys.exit(main())
