"""Exact and statistical verification: brute-force minimum approximate degree
(distance to the span of low-degree monomials), approximate-majority
certification, and report emission.

The degree oracle is exhaustive and therefore tiny: n <= 5 and at most 26
basis monomials (2^26 candidates).  Each degree level is refuted or hit by
the cheaper of two exhaustive searches: syndrome decoding over the Hamming
ball of radius floor(eps * 2^n) around f, or one XOR + popcount sweep over
the span of the level's monomials.  Either way the within-budget candidate
of least basis-subset index wins, which makes witnesses deterministic.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuits import (CHUNK_WORDS, EXHAUSTIVE_MAX_N, CircuitDag, PackedEvaluator, enumeration_words,
                       exhaustive_table, random_input_words)
from .errors import DimensionError, ParseError, ResourceLimitError
from .gf2poly import (TRUTH_TABLE_MAX_N, SparsePolyF2, _indices, bits_int, from_truth_table, lane_words,
                      majority_words)
from .rng import rng_for

DEGREE_ORACLE_MAX_N = 5
DEGREE_ORACLE_MAX_MONOMIALS = 26
WILSON_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class TruthTable:
    """2^n packed bits; bit j of `bits` is f at assignment j (bit i of j = x_i)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise DimensionError(f"table does not fit 2^{self.n} bits")

    @classmethod
    def from_hex(cls, text: str, n: int) -> "TruthTable":
        text = text.strip().lower().removeprefix("0x")
        if n < 0:
            raise ParseError(f"n must be >= 0, got {n}")
        if n > TRUTH_TABLE_MAX_N:
            raise ResourceLimitError(f"truth tables capped at n <= {TRUTH_TABLE_MAX_N}, got {n}")
        expected = max(1, (1 << n) // 4)
        if len(text) != expected:
            raise ParseError(f"expected {expected} hex digits for n={n}, got {len(text)}")
        try:
            bits = int(text, 16)
        except ValueError:
            raise ParseError(f"invalid hex string '{text}'") from None
        return cls(n, bits)

    @classmethod
    def from_circuit(cls, c: CircuitDag) -> "TruthTable":
        """Table of the circuit's first output."""
        return cls(c.n_inputs, exhaustive_table(c.cone()))


def majority_truth_table(n: int) -> TruthTable:
    if n > EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(f"majority table capped at n <= {EXHAUSTIVE_MAX_N}")
    return TruthTable(n, bits_int(2 * np.bitwise_count(np.arange(1 << n)) > n))  # more ones than zeros


# ---------------------------------------------------------------------------
# minimum approximate degree

@dataclass(frozen=True)
class DegreeCertificate:
    n: int
    eps: float
    degree: int
    witness: SparsePolyF2
    distance: int
    allowed: int
    exhausted: bool           # every smaller degree exhaustively refuted
    scanned: tuple[int, ...]  # span size refuted or searched per level, not work done


@functools.cache  # the oracle asks for the same few (n, degree) pairs on every table
def degree_basis(n: int, degree: int) -> tuple[int, ...]:
    """Monomial masks of degree <= `degree`, sorted by (degree, index tuple)."""
    monos = [m for m in range(1 << n) if m.bit_count() <= degree]
    return tuple(sorted(monos, key=lambda m: (m.bit_count(), _indices(m))))


@functools.cache
def _monomial_tables(n: int) -> np.ndarray:
    """(2^n,) uint32, n <= 5: entry m is the truth table of monomial m (bit j
    set iff j contains m), which is also the ANF of the unit vector at m."""
    j = np.arange(1 << n)
    tables = lane_words((j & j[:, None]) == j[:, None])[:, 0].astype(np.uint32)  # lane j of row m
    tables.flags.writeable = False
    return tables


def _span(n: int, masks: Sequence[int]) -> np.ndarray:
    """uint32 tables of the XOR of every subset of the monomials `masks`,
    entry i holding the subset whose bit j selects masks[j] (by doubling)."""
    tables = np.zeros(1 << len(masks), dtype=np.uint32)
    for j, mask in enumerate(masks):
        np.bitwise_xor(tables[:1 << j], _monomial_tables(n)[mask], out=tables[1 << j:2 << j])
    return tables


def min_approx_degree(f: TruthTable, eps: float) -> DegreeCertificate:
    """Least D such that some polynomial of degree <= D is within Hamming
    distance floor(eps * 2^n) of f, with an explicit witness.

    Refutes every degree level below the answer exhaustively, each by the
    cheaper (in patterns or candidates) of the Hamming ball around f and the
    span of the level's monomials.  At eps = 0 the witness at the answer
    level is the ANF itself; smaller degrees are still refuted level by level.
    """
    n = f.n
    if n > DEGREE_ORACLE_MAX_N:
        raise ResourceLimitError(f"degree oracle capped at n <= {DEGREE_ORACLE_MAX_N}, got {n}")
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    allowed = math.floor(eps * (1 << n))
    ball = sum(math.comb(1 << n, k) for k in range(allowed + 1))
    anf = from_truth_table(f.bits, n)
    scanned: list[int] = []
    for d in range(n + 1):
        if eps == 0 and anf.degree == d:
            return DegreeCertificate(n, eps, d, anf, 0, allowed, True, tuple(scanned))
        basis = degree_basis(n, d)
        if len(basis) > DEGREE_ORACLE_MAX_MONOMIALS:
            raise ResourceLimitError(f"{len(basis)} monomials of degree <= {d} exceeds cap "
                                     f"{DEGREE_ORACLE_MAX_MONOMIALS}")
        if ball < 1 << len(basis):
            hit = _ball_level(n, basis, anf, allowed)
        else:
            hit = _scan_level(n, basis, f.bits, allowed)
        scanned.append(1 << len(basis))
        if hit is not None:
            index, dist = hit
            witness = SparsePolyF2(n, frozenset(
                basis[j] for j in range(len(basis)) if index >> j & 1))
            return DegreeCertificate(n, eps, d, witness, dist, allowed, True, tuple(scanned))
    raise AssertionError("degree n span contains every function")  # pragma: no cover


def _scan_level(n: int, basis: Sequence[int], f_bits: int,
                allowed: int) -> tuple[int, int] | None:
    """(index, distance) of the first span candidate within `allowed` of f,
    or None.  Candidates are indexed by basis subsets (bit j = basis[j]
    included) and scanned in one XOR + popcount sweep."""
    dist = np.bitwise_count(_span(n, basis) ^ np.uint32(f_bits))
    hits = np.flatnonzero(dist <= allowed)
    return (int(hits[0]), int(dist[hits[0]])) if hits.size else None


def _ball_level(n: int, basis: Sequence[int], anf: SparsePolyF2,
                allowed: int) -> tuple[int, int] | None:
    """What `_scan_level` returns, found by syndrome decoding: f ^ e has
    degree <= D for an error pattern e of weight <= `allowed` exactly when
    ANF(f) ^ ANF(e) has no monomial outside `basis`.

    The ball is walked weight by weight.  Layer k holds ANF(f) ^ ANF(e) for
    every e of weight k, grouped by e's last set position p; the group at p
    is the prefix of layer k - 1 whose last position is below p (C(p, k - 1)
    entries), XOR the ANF of the unit vector at p (the monomials containing p).
    Several patterns may hit; the least basis-subset index wins, as in the
    span scan, and the distance is its pattern's weight.
    """
    size = 1 << n
    high = np.uint32(sum(1 << m for m in range(size)) ^ sum(1 << m for m in basis))
    units = _monomial_tables(n)
    layer = np.array([sum(1 << m for m in anf.monomials)], dtype=np.uint32)
    best = None
    for k in range(min(allowed, size) + 1):
        if k:
            prev, layer, start = layer, np.empty(math.comb(size, k), dtype=np.uint32), 0
            for p in range(k - 1, size):
                stop = start + math.comb(p, k - 1)
                np.bitwise_xor(prev[:stop - start], units[p], out=layer[start:stop])
                start = stop
        hits = layer[(layer & high) == 0]
        if hits.size:
            index = np.zeros(hits.size, dtype=np.int64)
            for j, m in enumerate(basis):
                index |= (hits >> np.uint32(m) & np.uint32(1)).astype(np.int64) << j
            least = int(index.min())
            if best is None or least < best[0]:
                best = (least, k)
    return best


# ---------------------------------------------------------------------------
# certification

def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson 99% confidence interval for a proportion of k in n."""
    if n == 0:
        return 0.0, 1.0
    z = WILSON_Z99
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class CertificationReport:
    n: int
    eps: float
    mode: str
    disagreement: float
    ci_lo: float
    ci_hi: float
    trials: int
    seed: int | None
    passed: bool


def certify_approx_majority(c: CircuitDag, eps: float, mode: str = "exact",
                            trials: int = 100_000, seed: int | None = None) -> CertificationReport:
    """Pass iff disagreement with MAJ_n is <= eps (exact mode, over all 2^n
    inputs) or the Wilson 99% upper bound on disagreement is <= eps (mc mode,
    over `trials` uniform inputs); eps in [0, 1/2].  Both modes count the
    disagreeing lanes of the circuit's output cone and of `majority_words`."""
    if not 0 <= eps <= 0.5:
        raise ValueError(f"eps must be in [0, 1/2], got {eps}")
    n = c.n_inputs
    if mode == "exact":
        if n > EXHAUSTIVE_MAX_N:
            raise ResourceLimitError(f"exact mode capped at n <= {EXHAUSTIVE_MAX_N} "
                                     f"(circuit has {n}); use --mode mc")
        trials, seed, chunks = 1 << n, None, enumeration_words(n)
    elif mode == "mc":
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if seed is None:
            raise ValueError("mc mode needs a seed")
        # drawn chunk by chunk as they are evaluated: memory does not grow with trials
        rng, chunk_lanes = rng_for(seed, "mc-agreement"), CHUNK_WORDS * 64
        chunks = (random_input_words(n, min(chunk_lanes, trials - start), rng)
                  for start in range(0, trials, chunk_lanes))
    else:
        raise ValueError(f"unknown mode '{mode}'")
    evaluator = PackedEvaluator(c.cone())
    bad = 0
    for words in chunks:
        diff = evaluator.outputs(words)[0] ^ majority_words(words)
        bad += int(np.bitwise_count(diff).sum())
    if trials % 64:  # lanes past the last input, in the last word, hold the all-zero input
        bad -= int(np.bitwise_count(diff[-1] >> np.uint64(trials % 64)))
    lo, hi = (bad / trials,) * 2 if mode == "exact" else wilson_interval(bad, trials)
    return CertificationReport(n, eps, mode, bad / trials, lo, hi, trials, seed, hi <= eps)


# ---------------------------------------------------------------------------
# reports

def emit_report(results, out_path: str | Path, meta: dict | None = None) -> None:
    """Write results as JSON or CSV, by the path's suffix (`.json` or `.csv`;
    any other raises ValueError).  A CSV's results are its rows, header first,
    written as given (None as an empty cell; no rows, an empty file).  Run
    metadata (timestamps etc.), when given, goes to a sidecar so reruns are
    byte-identical: one per command, named `<first report>.meta.json` after
    meta's "reports" list, else after out."""
    out_path = Path(out_path)
    if out_path.suffix not in (".json", ".csv"):
        raise ValueError(f"report path must end in .json or .csv, got '{out_path}'")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if out_path.suffix == ".json":
        out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    else:
        with out_path.open("w", newline="") as fh:
            csv.writer(fh).writerows(results)
    if meta is not None:
        sidecar = {**meta, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
        sidecar_path = out_path.with_name(meta.get("reports", [out_path.name])[0] + ".meta.json")
        sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
