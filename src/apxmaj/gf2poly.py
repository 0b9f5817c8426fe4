"""Multilinear polynomials over GF(2) in algebraic normal form.

A polynomial is a set of monomials (presence = coefficient 1); a monomial is
an int bitmask of variable indices, the empty mask being the constant 1.
This is the unique multilinear representative of a boolean function, so
"degree" always means ANF degree.  The zero polynomial has degree 0 by
convention.
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


def mobius_transform(rows: np.ndarray, n: int, axis: int = -1) -> np.ndarray:
    """XOR Moebius transform of truth tables (self-inverse), in their layout:
    entry S of the result is the ANF coefficient of the monomial S.

    axis=-1: rows (..., W) uint64 packed tables, W = table_words(n); for
    i < 6 variable i pairs bits within a word (masked shift-XOR), for i >= 6
    whole words.  Bits past 2^n never reach the first 2^n.  axis=0: rows
    (2^n, ...) uint64, entry j in row j, each bit its own table (the
    bitsliced layout of `compiler.sample_tables`); variable i pairs rows.
    """
    if axis not in (0, -1):
        raise ValueError(f"axis must be 0 or -1, got {axis}")
    size, first = (1 << n, 0) if axis == 0 else (table_words(n), 6)
    if rows.shape[axis] != size:
        raise DimensionError(f"expected {size} entries on axis {axis} for n={n}, "
                             f"got {rows.shape[axis]}")
    a = np.array(rows, dtype=np.uint64)
    for i in range(min(n, first)):
        a ^= (a << np.uint64(1 << i)) & _LOW_VARS[i]
    block = a.size // size if axis == 0 else 1  # words per entry of the paired axis
    for i in range(first, n):
        v = a.reshape(-1, 2, block << (i - first))
        v[:, 1] ^= v[:, 0]
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
