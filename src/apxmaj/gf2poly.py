"""Multilinear polynomials over GF(2) in algebraic normal form.

A polynomial is a set of monomials (presence = coefficient 1); a monomial is
an int bitmask of variable indices, the empty mask being the constant 1.
This is the unique multilinear representative of a boolean function, so
"degree" always means ANF degree.  The zero polynomial has degree 0 by
convention.

A truth table given as an int has bit j = f at assignment j (bit i of j =
x_i); :func:`table_rows` turns it into rows, one per assignment, the one
layout of :func:`mobius_transform`, which maps tables to ANF coefficients.

This module owns the bit layouts: no other module converts between Python
ints, 0/1 uint8 arrays and uint64 lane words.  Bit i of an int is entry i of
its bits (:func:`int_bits`, :func:`bits_int`), lane l of a row of words is bit
l % 64 of word l // 64 (:func:`lane_words`, :func:`lane_bits`), and assignment
j sets x_i to bit i of j (:func:`assignment_bits`).
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


# ---------------------------------------------------------------------------
# bit layouts

def int_bits(values: Sequence[int], width: int) -> np.ndarray:
    """(len(values), width) uint8: row r holds bits 0..width-1 of values[r].
    DimensionError for a value outside 0 .. 2^width - 1."""
    n_bytes = (width + 7) >> 3
    raw = b"".join(_as_mask(width, v).to_bytes(n_bytes, "little") for v in values)
    return np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(values), n_bytes), axis=1, count=width,
                         bitorder="little")


def bits_int(bits: np.ndarray) -> int:
    """The int whose bit i is bits[i], of a 1-d 0/1 array."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def lane_words(bits: np.ndarray) -> np.ndarray:
    """(..., ceil(L/64)) uint64 of a (..., L) 0/1 array: lane l of a row is
    bits[..., l]; lanes past L are 0."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros((*bits.shape[:-1], -(-bits.shape[-1] // 64) * 8), np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8").astype(np.uint64)


def lane_bits(words: np.ndarray, lanes: int) -> np.ndarray:
    """(..., lanes) uint8: the first `lanes` lanes of (..., W) uint64 words."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=lanes, bitorder="little")


def assignment_bits(n: int, start: int, stop: int) -> np.ndarray:
    """(n, stop - start) uint8: entry [i, j] is x_i at assignment start + j."""
    index, out = np.arange(start, stop, dtype=np.int64), np.empty((n, stop - start), np.uint8)
    for i in range(n):  # a row at a time: no (n, stop - start) int64 temporary
        out[i] = index >> i & 1
    return out


def majority_words(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Bitwise majority of rows of uint64 words: a bit is 1 iff at least
    len(rows)//2 + 1 of the rows have it set (for odd counts (t+1)/2; for
    any count, strictly more than half).  No rows (an array of shape
    (0, ...)) give zeros of shape rows.shape[1:].

    Bitsliced: the rows are added into binary counter planes, which are then
    compared with the threshold from the top plane down.
    """
    if len(rows) == 0:
        return np.zeros(np.shape(rows)[1:], np.uint64)
    planes: list[np.ndarray] = []
    for c, row in enumerate(rows, 1):
        carry = row
        for j, p in enumerate(planes):
            planes[j], carry = p ^ carry, p & carry
        if len(planes) < c.bit_length():
            planes.append(carry)
    thr = len(rows) // 2 + 1
    ge, eq = np.uint64(0), ~np.uint64(0)
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
    return int_bits([bits], 1 << n)[0]


def from_truth_table(bits: int, n: int) -> SparsePolyF2:
    """Unique multilinear ANF of a truth table (Moebius transform over F2);
    bit j of the int ``bits`` is f at assignment j."""
    return SparsePolyF2(n, frozenset(np.flatnonzero(mobius_transform(table_rows(bits, n))).tolist()))


def mobius_transform(rows: np.ndarray) -> np.ndarray:
    """XOR Moebius transform (self-inverse) of truth tables laid out by rows:
    rows (2^n, ...), entry j in row j, every other position its own table
    (a 0/1 column, or the bits of `compiler.sample_tables`' lanes).  Row S of
    the result holds the ANF coefficients of the monomial S; the dtype is kept.
    DimensionError unless the row count is a power of two.
    """
    n = (len(rows) if rows.ndim else 0).bit_length() - 1
    if n < 0 or len(rows) != 1 << n:
        raise DimensionError(f"expected a power-of-two row count, got shape {rows.shape}")
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
