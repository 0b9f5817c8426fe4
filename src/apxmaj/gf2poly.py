"""Multilinear polynomials over GF(2) in algebraic normal form.

A polynomial is a set of monomials (presence = coefficient 1); a monomial is
an int bitmask of variable indices, the empty mask being the constant 1.
This is the unique multilinear representative of a boolean function, so
"degree" always means ANF degree.  The zero polynomial has degree 0 by
convention.

A truth table given as an int has bit j = f at assignment j (bit i of j =
x_i); :func:`table_rows` turns it into rows, one per assignment, the one
layout of :func:`mobius_transform`, which maps tables to ANF coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ResourceLimitError

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

    def __str__(self) -> str:
        return format_poly(self)


def _as_mask(n: int, x: int) -> int:
    if x < 0 or x >> n:
        raise DimensionError(f"{x:#x} does not fit {n} bits")
    return x


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


def table_rows(bits: int, n: int) -> np.ndarray:
    """(2^n,) uint8 0/1 truth table of the int whose bit j is f at assignment j."""
    if n > TRUTH_TABLE_MAX_N:
        raise ResourceLimitError(f"truth tables capped at n <= {TRUTH_TABLE_MAX_N}, got {n}")
    raw = _as_mask(1 << n, bits).to_bytes(((1 << n) + 7) >> 3, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=1 << n, bitorder="little")


def from_truth_table(bits: int, n: int) -> SparsePolyF2:
    """Unique multilinear ANF of a truth table (Moebius transform over F2);
    bit j of the int ``bits`` is f at assignment j."""
    return SparsePolyF2(n, frozenset(np.flatnonzero(mobius_transform(table_rows(bits, n), n)).tolist()))


def mobius_transform(rows: np.ndarray, n: int) -> np.ndarray:
    """XOR Moebius transform (self-inverse) of truth tables laid out by rows:
    rows (2^n, ...), entry j in row j, every other position its own table
    (a 0/1 column, or the bits of `compiler.sample_tables`' lanes).  Row S of
    the result holds the ANF coefficients of the monomial S; the dtype is kept.
    """
    if rows.shape[:1] != (1 << n,):
        raise DimensionError(f"expected {1 << n} rows for n={n}, got shape {rows.shape}")
    a = np.array(rows, order="C")  # reshape must give views of it
    for i in range(n):  # variable i pairs row j with row j + 2^i
        v = a.reshape(1 << (n - 1 - i), 2, -1)
        v[:, 1] ^= v[:, 0]
    return a


# ---------------------------------------------------------------------------
# text format: monomials joined by " + ", e.g. "1 + x3 + x0*x2"; zero is "0"

def format_poly(p: SparsePolyF2) -> str:
    if not p.monomials:
        return "0"
    keys = sorted(p.monomials, key=lambda m: (m.bit_count(), _indices(m)))
    parts = []
    for m in keys:
        parts.append("1" if m == 0 else "*".join(f"x{i}" for i in _indices(m)))
    return " + ".join(parts)


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
