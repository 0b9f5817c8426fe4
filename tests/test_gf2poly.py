import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj import gf2poly as g
from apxmaj.errors import DimensionError, ResourceLimitError

from conftest import oracle_mobius_transform


def brute_table(p: g.SparsePolyF2) -> list[int]:
    """Independent pointwise evaluation: XOR over monomials of AND of vars."""
    out = []
    for j in range(1 << p.n):
        v = 0
        for m in p.monomials:
            v ^= int(all(j >> i & 1 for i in range(p.n) if m >> i & 1))
        out.append(v)
    return out


def polys(n):
    return st.frozensets(st.integers(0, (1 << n) - 1), max_size=12).map(
        lambda monos: g.SparsePolyF2(n, monos))


# ------------------------------------------------------------------ arithmetic

def test_add_examples():
    p = g.parse_poly("x0*x1 + x2", 3)
    q = g.parse_poly("x2", 3)
    assert g.add(p, q) == g.parse_poly("x0*x1", 3)
    assert g.add(p, g.zero(3)) == p
    assert g.add(p, p) == g.zero(3)


def test_mul_examples():
    x0 = g.variable(2, 0)
    assert g.mul(x0, x0) == x0
    a = g.parse_poly("1 + x0", 2)
    assert g.mul(a, a) == a
    b = g.parse_poly("x0 + x1", 2)
    assert g.mul(b, b) == b  # idempotence of a linear form's square, via table below
    assert brute_table(g.mul(b, b)) == [x * y for x, y in zip(brute_table(b), brute_table(b))]


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        g.add(g.zero(2), g.zero(3))
    with pytest.raises(DimensionError):
        g.mul(g.one(2), g.one(4))


def test_eval_examples():
    maj3 = g.parse_poly("x0*x1 + x0*x2 + x1*x2", 3)
    assert g.eval_poly(maj3, [1, 1, 0]) == 1
    assert g.eval_poly(g.one(3), [0, 1, 0]) == 1
    assert g.eval_poly(g.zero(3), [1, 1, 1]) == 0


def test_compose_examples():
    q = g.parse_poly("x0*x1 + x2", 3)
    assert g.compose(g.variable(1, 0), [q]) == q
    assert g.compose(g.parse_poly("x0 + x1", 2), [q, q]) == g.zero(3)
    got = g.compose(g.parse_poly("x0*x1", 2), [g.parse_poly("x0 + x1", 3), g.variable(3, 2)])
    assert got == g.parse_poly("x0*x2 + x1*x2", 3)
    assert got.degree == 2 <= 2 * 1


def test_compose_arity_mismatch():
    with pytest.raises(DimensionError):
        g.compose(g.parse_poly("x0 + x1", 2), [g.one(3)])


# ---------------------------------------------------------------- truth tables

def test_from_truth_table_examples():
    xor3 = 0b10010110  # parity of the 3 index bits
    p = g.from_truth_table(xor3, 3)
    assert p == g.parse_poly("x0 + x1 + x2", 3)
    assert p.degree == 1
    assert g.from_truth_table(0b1000, 2) == g.parse_poly("x0*x1", 2)
    assert g.from_truth_table(0xE8, 3) == g.parse_poly("x0*x1 + x0*x2 + x1*x2", 3)


def _pack_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """(rows, 2^n) 0/1 uint8 -> (rows, W) uint64 packed tables."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros((bits.shape[0], 8 * g.table_words(n)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


@pytest.mark.parametrize("n", range(11))
def test_packed_mobius_matches_uint8_oracle(rng, n):
    bits = rng.integers(0, 2, size=(16, 1 << n), dtype=np.uint8)
    got = g.mobius_transform(_pack_rows(bits, n), n)
    assert np.array_equal(got, _pack_rows(oracle_mobius_transform(bits), n))
    assert np.array_equal(g.mobius_transform(got, n), _pack_rows(bits, n))


@pytest.mark.parametrize("n", range(1, 13))
def test_bitsliced_majority_matches_lane_popcount(rng, n):
    rows = rng.integers(0, 1 << 63, size=(n, 5), dtype=np.uint64) << np.uint64(1)
    rows |= rng.integers(0, 2, size=(n, 5), dtype=np.uint64)
    full = np.full(5, ~np.uint64(0))
    full[-1] = np.uint64((1 << 40) - 1)
    got = g.majority_words(list(rows), full)
    for lane in range(5 * 64):
        b, off = divmod(lane, 64)
        ones = sum(int(r) >> off & 1 for r in rows[:, b])
        want = int(2 * ones > n and (int(full[b]) >> off & 1))
        assert int(got[b]) >> off & 1 == want
    assert np.array_equal(got, g.majority_words(rows, full))  # array rows too


def test_truth_table_guard():
    with pytest.raises(ResourceLimitError):
        g.from_truth_table(0, 25)


def test_int_inputs_must_fit_their_width():
    # a table or point given as an int is range-checked, not truncated
    maj3 = g.parse_poly("x0*x1 + x0*x2 + x1*x2", 3)
    for call in (lambda: g.from_truth_table(1 << 9, 3),
                 lambda: g.from_truth_table(1 << 64, 3),
                 lambda: g.from_truth_table(-1, 3),
                 lambda: g.eval_poly(maj3, 1 << 10),
                 lambda: g.eval_poly(maj3, -1)):
        with pytest.raises(DimensionError):
            call()
    assert g.from_truth_table(0xE8, 3) == maj3
    assert g.eval_poly(maj3, 0b011) == 1


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), polys(n))))
@settings(max_examples=80, deadline=None)
def test_roundtrip_and_semantics(np_):
    n, p = np_
    table = brute_table(p)
    mask = sum(b << j for j, b in enumerate(table))
    assert g.from_truth_table(mask, n) == p
    assert g.to_truth_table(p) == mask
    for j in range(1 << n):
        assert g.eval_poly(p, j) == table[j]


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), polys(n), polys(n))))
@settings(max_examples=60, deadline=None)
def test_homomorphisms_and_degree_bounds(npq):
    n, p, q = npq
    s = g.add(p, q)
    m = g.mul(p, q)
    tp, tq = brute_table(p), brute_table(q)
    assert brute_table(s) == [a ^ b for a, b in zip(tp, tq)]
    assert brute_table(m) == [a & b for a, b in zip(tp, tq)]
    assert s.degree <= max(p.degree, q.degree)
    assert m.degree <= p.degree + q.degree


@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.just(m), polys(m), st.lists(polys(3), min_size=m, max_size=m))))
@settings(max_examples=40, deadline=None)
def test_compose_pointwise_and_degree(arg):
    m, p, qs = arg
    got = g.compose(p, qs)
    for j in range(8):
        inner = [g.eval_poly(q, j) for q in qs]
        assert g.eval_poly(got, j) == g.eval_poly(p, inner)
    if p.degree > 0:
        assert got.degree <= p.degree * max(q.degree for q in qs)


# -------------------------------------------------------------------- majority

def test_exact_majority_poly_examples():
    assert g.exact_majority_poly(1) == g.variable(1, 0)
    assert g.exact_majority_poly(3) == g.parse_poly("x0*x1 + x0*x2 + x1*x2", 3)
    maj5 = g.exact_majority_poly(5)
    for j in range(32):
        assert g.eval_poly(maj5, j) == int(bin(j).count("1") > 2.5)


def test_exact_majority_poly_rejects_even():
    with pytest.raises(ValueError):
        g.exact_majority_poly(4)


def test_elementary_symmetric_combine_matches_majority(rng):
    coeffs = g.majority_anf_coefficients(5)
    qs = [g.SparsePolyF2(3, frozenset(int(m) for m in rng.integers(0, 8, size=3)))
          for _ in range(5)]
    combined = g.elementary_symmetric_combine(coeffs, qs)
    for j in range(8):
        vals = [g.eval_poly(q, j) for q in qs]
        assert g.eval_poly(combined, j) == int(sum(vals) > 2.5)


# ------------------------------------------------------------------ text format

def test_format_and_parse():
    p = g.parse_poly("x3 + x0*x2 + 1", 4)
    assert g.format_poly(p) == "1 + x3 + x0*x2"
    assert g.parse_poly(g.format_poly(p), 4) == p
    assert g.format_poly(g.zero(2)) == "0"
    assert g.parse_poly("0", 2) == g.zero(2)
    # repeated monomials cancel pairwise
    assert g.parse_poly("x0 + x0", 1) == g.zero(1)


def test_zero_polynomial_degree_convention():
    assert g.zero(4).degree == 0
    assert g.one(4).degree == 0
