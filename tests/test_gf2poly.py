import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj import compiler as C
from apxmaj import gf2poly as g
from apxmaj.circuits import parse_formula
from apxmaj.errors import DimensionError, ResourceLimitError

from conftest import (brute_table, oracle_bits_int, oracle_int_bits, oracle_lane_bits, oracle_lane_words,
                      oracle_mobius_transform)


MAJ3 = g.SparsePolyF2(3, frozenset({0b011, 0b101, 0b110}))  # x0*x1 + x0*x2 + x1*x2


def polys(n):
    return st.frozensets(st.integers(0, (1 << n) - 1), max_size=12).map(
        lambda monos: g.SparsePolyF2(n, monos))


# ------------------------------------------------------------------ bit layouts

@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_int_bits_round_trip_matches_scalar_definition(rng, width):
    top = (1 << width) - 1
    values = [0, top, 1, 1 << (width - 1)] + [int.from_bytes(rng.bytes(17), "little") & top for _ in range(40)]
    bits = g.int_bits(values, width)
    assert bits.dtype == np.uint8 and bits.tolist() == oracle_int_bits(values, width)
    assert [g.bits_int(row) for row in bits] == values == [oracle_bits_int(row) for row in bits]
    assert g.int_bits([], width).shape == (0, width)
    for bad in (-1, 1 << width, -(1 << width), 1 << 200):
        with pytest.raises(DimensionError):
            g.int_bits([0, bad], width)


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 4099])
def test_lane_words_round_trip_matches_scalar_definition(rng, lanes):
    bits = rng.integers(0, 2, size=(3, lanes), dtype=np.uint8)
    words = g.lane_words(bits)
    assert words.dtype == np.uint64 and words.shape == (3, -(-lanes // 64))
    assert words.tolist() == oracle_lane_words(bits.tolist())
    got = g.lane_bits(words, lanes)
    assert got.dtype == np.uint8 and got.tolist() == oracle_lane_bits(words, lanes) == bits.tolist()
    ones = g.lane_words(np.ones((2, lanes), dtype=bool))  # the pad lanes of the last word are 0
    assert g.lane_bits(ones, 64 * ones.shape[1]).tolist() == [[1] * lanes + [0] * (-lanes % 64)] * 2
    # a single row and a stack of rows keep the layout along the last axis
    assert np.array_equal(g.lane_words(bits[0]), words[0])
    assert np.array_equal(g.lane_words(bits[None]), words[None])
    assert np.array_equal(g.lane_bits(words[:, ::-1], lanes), g.lane_bits(words[:, ::-1].copy(), lanes))


# ---------------------------------------------------------------- truth tables

def test_from_truth_table_examples():
    xor3 = 0b10010110  # parity of the 3 index bits
    p = g.from_truth_table(xor3, 3)
    assert p == g.SparsePolyF2(3, frozenset({0b001, 0b010, 0b100}))  # x0 + x1 + x2
    assert p.degree == 1
    assert g.from_truth_table(0b1000, 2) == g.SparsePolyF2(2, frozenset({0b11}))  # x0*x1
    assert g.from_truth_table(0xE8, 3) == MAJ3


@pytest.mark.parametrize("n", range(11))
def test_packed_mobius_matches_uint8_oracle(rng, n):
    bits = rng.integers(0, 2, size=(130, 1 << n), dtype=np.uint8)
    got = g.mobius_transform(bits.T)
    assert got.dtype == np.uint8 and np.array_equal(got, oracle_mobius_transform(bits).T)
    assert np.array_equal(g.mobius_transform(got), bits.T)
    # n comes from the row count, which must be a power of two
    for wrong in (bits.T[:0], np.tile(bits.T, (3, 1)), bits, np.uint8(1)):
        with pytest.raises(DimensionError):
            g.mobius_transform(wrong)


@pytest.mark.parametrize("n", range(11))
def test_mobius_row_axis_matches_word_axis(rng, n):
    # the same 130 tables, one per uint8 0/1 column and bitsliced one per lane bit
    bits = rng.integers(0, 2, size=(130, 1 << n), dtype=np.uint8)
    sliced = np.zeros((1 << n, 24), dtype=np.uint8)
    sliced[:, :17] = np.packbits(bits.T, axis=1, bitorder="little")
    lanes = g.mobius_transform(sliced.view("<u8"))
    assert lanes.dtype == np.uint64
    assert np.array_equal(g.lane_bits(lanes, 130), g.mobius_transform(bits.T))
    assert np.array_equal(g.mobius_transform(lanes), sliced.view("<u8"))
    with pytest.raises(DimensionError):
        g.mobius_transform(np.tile(sliced.view("<u8"), (3, 1)))


@pytest.mark.parametrize("n", range(1, 13))
def test_bitsliced_majority_matches_lane_popcount(rng, n):
    rows = rng.integers(0, 1 << 63, size=(n, 5), dtype=np.uint64) << np.uint64(1)
    rows |= rng.integers(0, 2, size=(n, 5), dtype=np.uint64)
    got = g.majority_words(list(rows))
    assert got.shape == (5,)
    for lane in range(5 * 64):
        b, off = divmod(lane, 64)
        ones = sum(int(r) >> off & 1 for r in rows[:, b])
        assert int(got[b]) >> off & 1 == int(2 * ones > n)
    assert np.array_equal(got, g.majority_words(rows))  # array rows too
    # the majority of no rows (certification at n = 0) is 0 in every lane
    none = g.majority_words(rows[:0])
    assert none.dtype == np.uint64 and none.shape == (5,) and not none.any()


def test_truth_table_guard():
    with pytest.raises(ResourceLimitError):
        g.from_truth_table(0, 25)


def test_int_inputs_must_fit_their_width():
    # a table or point given as an int is range-checked, not truncated
    xor3 = C.compile_formula(parse_formula("(xor x0 x1 x2)"))
    for call in (lambda: g.from_truth_table(1 << 9, 3),
                 lambda: g.from_truth_table(1 << 64, 3),
                 lambda: g.from_truth_table(-1, 3),
                 lambda: C.eval_sample(xor3, 1 << 10, 0),
                 lambda: C.eval_sample(xor3, -1, 0)):
        with pytest.raises(DimensionError):
            call()
    for call in (lambda: g.from_truth_table([0, 0, 0, 1], 2),
                 lambda: C.eval_sample(xor3, [1, 1, 0], 0)):
        with pytest.raises(TypeError):  # a list of bits is not a table or a point
            call()
    assert g.from_truth_table(0xE8, 3) == MAJ3
    assert C.eval_sample(xor3, 0b011, 0) == 0


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), polys(n))))
@settings(max_examples=80, deadline=None)
def test_roundtrip_and_semantics(np_):
    n, p = np_
    table = brute_table(p)
    mask = sum(b << j for j, b in enumerate(table))
    assert g.from_truth_table(mask, n) == p


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), polys(n), polys(n))))
@settings(max_examples=60, deadline=None)
def test_homomorphisms_and_degree_bounds(npq):
    # the ANF of f ^ g is ANF(f) ^ ANF(g), of degree at most the larger one
    n, p, q = npq
    tp, tq = brute_table(p), brute_table(q)
    s = g.from_truth_table(sum((a ^ b) << j for j, (a, b) in enumerate(zip(tp, tq))), n)
    assert s == g.SparsePolyF2(n, p.monomials ^ q.monomials)
    assert s.degree <= max(p.degree, q.degree)


# ------------------------------------------------------------------ text format

def test_format_and_parse():
    p = g.SparsePolyF2(4, frozenset({0b1000, 0b0101, 0}))
    assert g.format_poly(p) == "1 + x3 + x0*x2"
    assert g.format_poly(g.SparsePolyF2(2, frozenset())) == "0"


def test_zero_polynomial_degree_convention():
    assert g.SparsePolyF2(4, frozenset()).degree == 0
    assert g.SparsePolyF2(4, frozenset({0})).degree == 0
