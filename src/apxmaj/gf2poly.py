"""Multilinear polynomials over GF(2) in algebraic normal form.

A polynomial is a set of monomials (presence = coefficient 1); a monomial is
an int bitmask of variable indices, the empty mask being the constant 1.
This is the unique multilinear representative of a boolean function, so
"degree" always means ANF degree.  The zero polynomial has degree 0 by
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import DimensionError, ParseError, ResourceLimitError

TRUTH_TABLE_MAX_N = 24


@dataclass(frozen=True)
class SparsePolyF2:
    n: int
    monomials: frozenset[int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative variable count")
        for m in self.monomials:
            if m < 0 or m >> self.n:
                raise DimensionError(f"monomial {m:#x} references variables beyond n={self.n}")

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)

    def is_zero(self) -> bool:
        return not self.monomials

    def __str__(self) -> str:
        return format_poly(self)


def zero(n: int) -> SparsePolyF2:
    return SparsePolyF2(n, frozenset())


def one(n: int) -> SparsePolyF2:
    return SparsePolyF2(n, frozenset({0}))


def variable(n: int, i: int) -> SparsePolyF2:
    if not 0 <= i < n:
        raise DimensionError(f"variable x{i} out of range for n={n}")
    return SparsePolyF2(n, frozenset({1 << i}))


def add(p: SparsePolyF2, q: SparsePolyF2) -> SparsePolyF2:
    if p.n != q.n:
        raise DimensionError(f"adding polynomials over {p.n} and {q.n} variables")
    return SparsePolyF2(p.n, p.monomials ^ q.monomials)


def mul(p: SparsePolyF2, q: SparsePolyF2) -> SparsePolyF2:
    if p.n != q.n:
        raise DimensionError(f"multiplying polynomials over {p.n} and {q.n} variables")
    acc: set[int] = set()
    for a in p.monomials:
        for b in q.monomials:
            acc ^= {a | b}  # x^2 = x: union of index sets
    return SparsePolyF2(p.n, frozenset(acc))


def eval_poly(p: SparsePolyF2, x: Sequence[int] | int) -> int:
    """XOR over monomials of the AND of their variables at x."""
    mask = _as_mask(p.n, x)
    v = 0
    for m in p.monomials:
        if mask & m == m:
            v ^= 1
    return v


def _as_mask(n: int, x: Sequence[int] | int) -> int:
    if isinstance(x, int):
        if x < 0 or x >> n:
            raise DimensionError(f"{x:#x} does not fit {n} bits")
        return x
    if len(x) != n:
        raise DimensionError(f"expected {n} bits, got {len(x)}")
    mask = 0
    for i, b in enumerate(x):
        if b & 1:
            mask |= 1 << i
    return mask


def compose(p: SparsePolyF2, qs: Sequence[SparsePolyF2]) -> SparsePolyF2:
    """Substitute q_i for variable i of p, reducing multilinearly."""
    if len(qs) != p.n:
        raise DimensionError(f"need {p.n} substituents, got {len(qs)}")
    if not qs:
        return SparsePolyF2(0, p.monomials)
    n_out = qs[0].n
    for q in qs:
        if q.n != n_out:
            raise DimensionError("substituents disagree on variable count")
    acc: set[int] = set()
    for m in p.monomials:
        term = one(n_out)
        for i in range(p.n):
            if m >> i & 1:
                term = mul(term, qs[i])
                if term.is_zero():
                    break
        acc ^= term.monomials
    return SparsePolyF2(n_out, frozenset(acc))


# Packed truth tables: bit b of word w is the value at assignment 64*w + b.
# Bit b of _LOW_VARS[i] is bit i of b, the table of x_i within one word.
_LOW_VARS = tuple(np.uint64(sum(1 << b for b in range(64) if b >> i & 1)) for i in range(6))


def table_words(n: int) -> int:
    """uint64 words in a packed 2^n-entry truth table."""
    return max(1, (1 << n) >> 6)


def valid_words(n: int) -> np.ndarray:
    """(W,) mask of the 2^n table entries (below 64 entries, the low bits)."""
    return np.full(table_words(n), ~np.uint64(0) >> np.uint64(64 - min(64, 1 << n)))


def variable_words(n: int) -> np.ndarray:
    """(n, W) packed truth tables of x_0 .. x_{n-1}."""
    out = np.empty((n, table_words(n)), dtype=np.uint64)
    word_index = np.arange(out.shape[1], dtype=np.uint64)
    for i in range(n):
        out[i] = _LOW_VARS[i] if i < 6 else -(word_index >> np.uint64(i - 6) & np.uint64(1))
    return out & valid_words(n)


def majority_words(rows: Sequence[np.ndarray], full) -> np.ndarray:
    """Bitwise majority of packed rows: a bit is 1 iff at least
    len(rows)//2 + 1 of the rows have it set (for odd counts (t+1)/2; for
    any count, strictly more than half).  `full` masks the valid bits.

    Bitsliced: the rows are added into binary counter planes, which are then
    compared with the threshold from the top plane down.
    """
    if len(rows) == 0:
        return np.zeros_like(full)
    planes: list[np.ndarray] = []
    for c, row in enumerate(rows, 1):
        carry = row
        for j, p in enumerate(planes):
            planes[j], carry = p ^ carry, p & carry
        if len(planes) < c.bit_length():
            planes.append(carry)
    thr = len(rows) // 2 + 1
    ge = np.zeros_like(full)
    eq = full
    for j in range(len(planes) - 1, -1, -1):
        if (thr >> j) & 1:
            eq = eq & planes[j]
        else:
            ge = ge | (eq & planes[j])
            eq = eq & ~planes[j]
    return ge | eq


def from_truth_table(bits: int | Sequence[int], n: int) -> SparsePolyF2:
    """Unique multilinear ANF of a truth table (Moebius transform over F2).

    ``bits`` is an int whose bit j is f at assignment j, or a 2^n sequence.
    """
    if n > TRUTH_TABLE_MAX_N:
        raise ResourceLimitError(f"truth tables capped at n <= {TRUTH_TABLE_MAX_N}, got {n}")
    table = _as_mask(1 << n, bits)
    words = np.frombuffer(table.to_bytes(8 * table_words(n), "little"), dtype="<u8")
    coeffs = mobius_transform(words & valid_words(n), n)
    return SparsePolyF2(n, frozenset(_set_bits(coeffs)))


def mobius_transform(rows: np.ndarray, n: int) -> np.ndarray:
    """XOR Moebius transform of packed truth tables along the last axis
    (self-inverse).

    rows: (..., W) uint64, W = table_words(n).  Returns the coefficient words:
    bit S is the ANF coefficient of the monomial with variable set S.  For
    i < 6 variable i pairs bits within a word (masked shift-XOR); for i >= 6
    it pairs whole words.  Bits past 2^n never reach the first 2^n.
    """
    words = table_words(n)
    if rows.shape[-1] != words:
        raise DimensionError(f"expected {words} words for n={n}, got {rows.shape[-1]}")
    a = np.array(rows, dtype=np.uint64)
    for i in range(min(n, 6)):
        a ^= (a << np.uint64(1 << i)) & _LOW_VARS[i]
    for i in range(6, n):
        v = a.reshape(-1, words >> (i - 5), 2, 1 << (i - 6))
        v[:, :, 1, :] ^= v[:, :, 0, :]
    return a


def _set_bits(words: np.ndarray) -> list[int]:
    """Indices of the set bits of a packed (W,) table."""
    out = []
    for w in np.flatnonzero(words):
        x, base = int(words[w]), int(w) << 6
        while x:
            low = x & -x
            out.append(base + low.bit_length() - 1)
            x ^= low
    return out


def to_truth_table(p: SparsePolyF2) -> int:
    if p.n > TRUTH_TABLE_MAX_N:
        raise ResourceLimitError(f"truth tables capped at n <= {TRUTH_TABLE_MAX_N}")
    coeffs = np.zeros(table_words(p.n), dtype=np.uint64)
    monos = np.fromiter(p.monomials, dtype=np.uint64, count=len(p.monomials))
    np.bitwise_or.at(coeffs, monos >> np.uint64(6), np.uint64(1) << (monos & np.uint64(63)))
    vals = mobius_transform(coeffs, p.n)
    return int.from_bytes(vals.astype("<u8").tobytes(), "little")


# ---------------------------------------------------------------------------
# majority combiners

def majority_anf_coefficients(m: int) -> list[int]:
    """a_j for symmetric ANF of MAJ_m: MAJ_m = XOR over j with a_j=1 of e_j.

    Inverts v_w = sum_j C(w,j) a_j (mod 2) via the self-inverse binomial
    transform; parity of C(j,w) comes from Lucas' theorem (w AND ~j == 0).
    """
    if m % 2 == 0:
        raise ValueError("majority combiner requires odd arity")
    coeffs = []
    for j in range(m + 1):
        s = 0
        for w in range((m + 1) // 2, j + 1):
            if w & ~j == 0:  # C(j, w) odd
                s ^= 1
        coeffs.append(s)
    return coeffs


def exact_majority_poly(m: int) -> SparsePolyF2:
    """ANF of MAJ_m for odd m (capped: the monomial list is exponential in m)."""
    if m % 2 == 0:
        raise ValueError(f"majority of even arity {m} is not defined here")
    if m > TRUTH_TABLE_MAX_N:
        raise ResourceLimitError(f"exact majority polynomial capped at m <= {TRUTH_TABLE_MAX_N}")
    coeffs = majority_anf_coefficients(m)
    monos: set[int] = set()
    for j, aj in enumerate(coeffs):
        if aj:
            for combo in combinations(range(m), j):
                monos.add(reduce(lambda acc, i: acc | (1 << i), combo, 0))
    return SparsePolyF2(m, frozenset(monos))


def elementary_symmetric_combine(coeffs: Sequence[int], qs: Sequence[SparsePolyF2]) -> SparsePolyF2:
    """XOR over j with coeffs[j]=1 of e_j(q_1..q_t), computed by the standard
    Newton-style DP in the multilinear quotient ring.  Avoids materializing
    the combiner's own (huge) monomial list."""
    t = len(qs)
    if len(coeffs) != t + 1:
        raise DimensionError("need t+1 coefficients for t substituents")
    n = qs[0].n
    top = max((j for j, a in enumerate(coeffs) if a), default=0)
    e: list[SparsePolyF2] = [one(n)] + [zero(n)] * top
    for q in qs:
        for j in range(min(top, t), 0, -1):
            e[j] = add(e[j], mul(e[j - 1], q))
    acc = zero(n)
    for j, a in enumerate(coeffs):
        if a:
            acc = add(acc, e[j])
    return acc


# ---------------------------------------------------------------------------
# text format: monomials joined by " + ", e.g. "x0*x2 + x3 + 1"; zero is "0"

def format_poly(p: SparsePolyF2) -> str:
    if not p.monomials:
        return "0"
    keys = sorted(p.monomials, key=lambda m: (m.bit_count(), _indices(m)))
    parts = []
    for m in keys:
        parts.append("1" if m == 0 else "*".join(f"x{i}" for i in _indices(m)))
    return " + ".join(parts)


def parse_poly(text: str, n: int) -> SparsePolyF2:
    """Accepts unordered monomials; repeated monomials cancel in pairs."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return zero(n)
    monos: set[int] = set()
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError("empty term in polynomial")
        if term == "1":
            monos ^= {0}
            continue
        mask = 0
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor.startswith("x"):
                raise ParseError(f"bad factor '{factor}'")
            try:
                i = int(factor[1:])
            except ValueError:
                raise ParseError(f"bad variable '{factor}'") from None
            if not 0 <= i < n:
                raise ParseError(f"variable x{i} out of range for n={n}")
            mask |= 1 << i
        monos ^= {mask}
    return SparsePolyF2(n, frozenset(monos))


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
