#!/usr/bin/env python3
"""Exhaustive minimum-approximate-degree table for small majorities.

Writes (n, eps, degree, witness, distance) rows for MAJ_n at a grid of error
budgets, for n = 1 up to the oracle's cap, DEGREE_ORACLE_MAX_N = 5.  The
n=5, eps=0 row refutes the degree-3 level (a 2^26 span) through the
one-pattern Hamming ball around the table.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apxmaj.gf2poly import format_poly
from apxmaj.verify import DEGREE_ORACLE_MAX_N, emit_report, majority_truth_table, min_approx_degree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, nargs="*", default=[0.0, 0.125, 0.25])
    ap.add_argument("--out", default="degree_table")
    args = ap.parse_args()

    rows = []
    for n in range(1, DEGREE_ORACLE_MAX_N + 1):
        table = majority_truth_table(n)
        for eps in args.eps:
            cert = min_approx_degree(table, eps)
            rows.append({
                "n": n, "epsilon": eps, "degree": cert.degree,
                "distance": cert.distance, "allowed": cert.allowed,
                "witness": format_poly(cert.witness),
            })
            print(f"MAJ_{n} @ eps={eps}: degree {cert.degree} "
                  f"(distance {cert.distance}/{cert.allowed})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_report(rows, out / "degrees.csv")
    emit_report(rows, out / "degrees.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
