#!/usr/bin/env python3
"""Sweep every analytical bound the library certifies numerically:

* the degree-recursion key inequality on a half-integer grid,
* the sampling bound checks on random hypothesis-satisfying tuples,
* the gamma-sequence envelope (reporting the A=2 boundary honestly),
* the central binomial tail mass against 2*eps.

Exit code 0 when every sweep matches its expected outcome, including the
known small-parameter regions where the asymptotic inequalities fail.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apxmaj.cli import main as cli_main


def main() -> int:
    rc = 0
    # violations are expected for gamma (A=2) and tails (small eps*sqrt(n));
    # the inequality and lemma sweeps must be clean
    expected = {"inequality": 0, "lemma": 0, "gamma": 1, "tails": 1}
    for kind, want in expected.items():
        got = cli_main(["check", kind, "--out", f"bound_checks/{kind}", "--seed", "7"]
                       + (["--trials", "1000"] if kind == "lemma" else []))  # only lemma draws
        status = "as expected" if got == want else f"UNEXPECTED (exit {got}, want {want})"
        print(f"[{kind}] {status}")
        rc |= got != want
    return rc


if __name__ == "__main__":
    sys.exit(main())
