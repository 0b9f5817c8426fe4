import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj import compiler as C
from apxmaj import gf2poly as g
from apxmaj.circuits import GateKind, formula_to_dag, parse_formula
from apxmaj.verify import TruthTable

from conftest import oracle_table_formula, random_formula


# --------------------------------------------------------------- gate recipes

def test_razborov_or_k():
    a = C.razborov_gate_recipe(GateKind.OR, 8, Fraction(1, 8))
    assert a.k == 3
    assert float(a.achieved_error) == 0.125


def test_razborov_xor_exact_any_eps():
    for eps in (0.5, 0.01, Fraction(1, 1000)):
        a = C.razborov_gate_recipe(GateKind.XOR, 6, eps)
        assert a.exact and a.k == 0


def test_razborov_eps_out_of_range():
    with pytest.raises(ValueError):
        C.razborov_gate_recipe(GateKind.OR, 4, 0)
    with pytest.raises(ValueError):
        C.razborov_gate_recipe(GateKind.AND, 4, 1)


def test_or4_misclassification_exactly_one_eighth():
    # independent oracle: enumerate all (2^4)^k subset k-tuples, k taken from
    # the recipe; at every x != 0 the sampled polynomial 1 + prod_j (1 + <S_j, x>)
    # errs iff all k parities vanish, which happens for exactly 8^k of the
    # 16^k tuples, so the enumerated error equals the recipe's achieved_error.
    m = 4
    approx = C.razborov_gate_recipe(GateKind.OR, m, Fraction(1, 8))
    k = approx.k
    for x in range(1, 16):
        bad = 0
        for subsets in product(range(16), repeat=k):
            if all(bin(s & x).count("1") % 2 == 0 for s in subsets):
                bad += 1
        assert Fraction(bad, 16**k) == approx.achieved_error == Fraction(1, 8)
    # and the all-zero input is never misclassified by any subset choice
    for subsets in product(range(16), repeat=k):
        assert all(bin(s & 0).count("1") % 2 == 0 for s in subsets)


def test_or_recipe_one_sided_and_dual_and(rng):
    f_or = parse_formula("(or x0 x1 x2 x3 x4)")
    f_and = parse_formula("(and x0 x1 x2 x3 x4)")
    r_or = C.compile_formula(f_or)
    r_and = C.compile_formula(f_and)
    for seed in range(200):
        assert C.eval_sample(r_or, 0, seed) == 0
        assert C.eval_sample(r_and, 0b11111, seed) == 1


# --------------------------------------------------------------- error_reduce

def test_error_reduce_rejects_eighth_and_above():
    node = C.compile_formula(parse_formula("(and x0 x1)")).root
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1)):
        with pytest.raises(ValueError):
            C.error_reduce(node, eps)


def test_error_reduce_sixteenth_gives_13_copies():
    node = C.compile_formula(parse_formula("(and x0 x1)")).root
    red = C.error_reduce(node, Fraction(1, 16))
    assert red.t == 13
    assert red.degree_bound == 13 * node.degree_bound
    assert math.exp(-9 * 13 / 32) <= 1 / 16


def test_error_reduce_copies_scale_logarithmically():
    prev = 0
    for j in range(4, 21):
        t = C.reduction_copies(Fraction(1, 2**j))
        assert t % 2 == 1
        assert t >= prev
        assert t <= C.C1 * j  # the pinned constant covers the copy rule
        prev = t
    # explicit tiny epsilon: t stays Theta(log 1/eps)
    t20 = C.reduction_copies(Fraction(1, 2**20))
    assert t20 % 2 == 1 and 4 * math.log(2**20) <= t20 <= 4 * math.log(2**20) + 3


# ------------------------------------------------------------ compile_formula

def test_compile_single_gates():
    r_and = C.compile_formula(parse_formula("(and x0 x1 x2 x3 x4 x5)"))
    assert r_and.degree_bound <= 3
    assert r_and.err_bound <= 0.125
    r_xor = C.compile_formula(parse_formula("(xor x0 x1 x2)"))
    assert r_xor.degree_bound == 1
    assert r_xor.err_bound == 0.0


def test_compile_depth2_budgets():
    r = C.compile_formula(parse_formula("(or (and x0 x1) (and x2 x3))"))
    reduces = [e for e in r.ledger() if e.kind == "reduce"]
    assert [e.eps for e in reduces] == [Fraction(1, 32), Fraction(1, 32)]
    assert r.err_bound <= 0.125


def test_compile_budget_sums_exactly_one_sixteenth(rng):
    # children of every inner gate share s_i/(16 s): the shares sum to 1/16
    for _ in range(25):
        f = random_formula(rng, int(rng.integers(1, 9)), int(rng.integers(2, 5)))
        r = C.compile_formula(f)

        def walk(node):
            if isinstance(node, C.GateNode):
                if not node.base and node.kind is not GateKind.NOT:
                    shares = []
                    for c in node.children:
                        if isinstance(c, C.ReduceNode):
                            shares.append(c.target)
                        else:
                            shares.append(Fraction(c.size, 16 * node.size))
                    assert sum(shares) == Fraction(1, 16)
                for c in node.children:
                    walk(c)
            elif isinstance(node, C.ReduceNode):
                walk(node.child)

        walk(r.root)


def test_sampled_polys_respect_bounds(rng):
    for _ in range(12):
        n = int(rng.integers(1, 8))
        f = random_formula(rng, n, int(rng.integers(1, 5)))
        r = C.compile_formula(f)
        d = max(f.depth - 1, 0)
        assert r.degree_bound <= C.theoretical_degree(f.size, d, C.C2)
        tables = C.sample_tables(r, 64, seed=int(rng.integers(2**32)))
        degs = C.table_degrees(tables, r.n)
        assert int(degs.max()) <= r.degree_bound


def test_sample_deterministic_and_consistent():
    f = parse_formula("(or (and x0 x1) (xor x2 x3) (not x4))")
    r = C.compile_formula(f)
    p1 = C.sample(r, 123)
    p2 = C.sample(r, 123)
    assert p1 == p2
    assert p1.degree <= r.degree_bound
    for x in range(32):
        assert g.eval_poly(p1, x) == C.eval_sample(r, x, 123)
    assert C.sample(r, 124) != p1 or True  # different seeds may coincide, no assert


def test_sample_is_the_batch_of_one(rng):
    # one word algebra serves sample, eval_sample and sample_tables: the
    # drawn polynomial's table is sample_tables(r, 1, s)[0], and its degree is
    # what table_degrees reads off that packed row
    for _ in range(30):
        n = int(rng.integers(1, 9))
        r = C.compile_formula(random_formula(rng, n, int(rng.integers(1, 4)), max_size=16))
        s = int(rng.integers(2**32))
        p = C.sample(r, s)
        row = C.sample_tables(r, 1, s)[0]
        assert g.to_truth_table(p) == int.from_bytes(row.tobytes(), "little")
        assert int(C.table_degrees(row[None, :], r.n)[0]) == p.degree


@pytest.mark.parametrize("kind", ["or", "and"])
def test_eval_sample_matches_poly_sampler_above_table_cap(rng, kind):
    n = 22  # above SAMPLE_TABLE_MAX_N: sample() composes polynomials symbolically
    r = C.compile_formula(parse_formula(f"({kind} " + " ".join(f"x{i}" for i in range(n)) + ")"))
    for s in (3, 4):
        p = C.sample(r, s)
        for x in rng.integers(0, 1 << n, size=64):
            assert C.eval_sample(r, int(x), s) == g.eval_poly(p, int(x))


def test_single_xor_recipe_has_no_randomness():
    r = C.compile_formula(parse_formula("(xor x0 x1 x2)"))
    polys = {C.sample(r, s) for s in range(10)}
    assert polys == {g.parse_poly("x0 + x1 + x2", 3)}


def test_compiled_error_empirical(rng):
    # depth-2 sanity: per-input empirical error stays near 1/16, well under 1/8 + slack
    f = parse_formula("(or (and x0 x1) (and x2 x3))")
    r = C.compile_formula(f)
    tables = C.sample_tables(r, 10_000, seed=77)
    bits = np.unpackbits(tables, axis=-1, bitorder="little", count=16)
    truth = oracle_table_formula(f, 4)
    tb = np.array([(truth >> j) & 1 for j in range(16)], dtype=np.uint8)
    errs = (bits != tb[None, :]).mean(axis=0)
    assert errs.max() <= 0.125  # true per-input error here is ~1/16
    assert errs.min() >= 0.0


def test_compile_handles_constants_and_not_root():
    from apxmaj.circuits import FormulaNode
    const_and = FormulaNode(GateKind.AND, (FormulaNode(GateKind.CONST1),
                                           FormulaNode(GateKind.INPUT, var=0)))
    r = C.compile_formula(const_and)
    assert r.err_bound <= 0.125
    notf = parse_formula("(not (and x0 x1))")
    rn = C.compile_formula(notf)
    assert rn.err_bound <= 0.125
    tables = C.sample_tables(rn, 2000, seed=5)
    bits = np.unpackbits(tables, axis=-1, bitorder="little", count=4)
    truth = oracle_table_formula(notf, 2)
    tb = np.array([(truth >> j) & 1 for j in range(4)], dtype=np.uint8)
    assert (bits != tb[None, :]).mean(axis=0).max() <= 0.16


# ------------------------------------------------------------- closed forms

def test_theoretical_degree_examples():
    assert C.theoretical_degree(100, 0) == 3.0
    assert C.theoretical_degree(1, 3, 174.0) == 3.0 * 174.0**3
    prev = 0.0
    for s in (1, 2, 4, 8, 1024, 10**6):
        v = C.theoretical_degree(s, 3, 174.0)
        assert v >= prev
        prev = v


def test_key_inequality_roots_and_grid():
    holds, gap = C.check_key_inequality(0.0, 0.0, 1)
    assert holds and gap == 0.0
    for d in range(1, 9):
        holds, gap = C.check_key_inequality(float(d), 1.0, d)
        assert holds and abs(gap) < 1e-9
    for a, b, d in product(range(0, 65, 8), range(0, 65, 8), range(1, 9)):
        holds, gap = C.check_key_inequality(float(a), float(b), d)
        assert holds
        if abs(b - a / d) >= 1e-6:
            assert gap > 1e-6 or (a == 0 and b == 0)


@given(st.floats(0, 64), st.floats(0, 64), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_key_inequality_property(a, b, d):
    holds, gap = C.check_key_inequality(a, b, d)
    assert holds


def test_formula_size_lower_bound_examples():
    assert C.formula_size_lower_bound(8, 3, 3) == 1
    prev = 0
    for lb in (3, 6, 12, 24, 48, 96):
        s = C.formula_size_lower_bound(16, 2, lb)
        assert s >= prev
        prev = s
    # depth-1 formulas cap at degree 3
    assert C.formula_size_lower_bound(8, 1, 4) == math.inf


def test_formula_size_lower_bound_closed_form_d2():
    # at d=2 the bound reads 3*c2*(log2 s + 1) >= lb, so s* = 2^(lb/(3 c2) - 1)
    from apxmaj.verify import majority_truth_table, min_approx_degree
    lb = min_approx_degree(majority_truth_table(5), 0.125).degree
    got = C.formula_size_lower_bound(5, 2, lb)
    direct = 1
    while C.theoretical_degree(direct, 1) < lb:
        direct += 1
    assert got == direct


def test_ledger_csv_shape():
    r = C.compile_formula(parse_formula("(or (and x0 x1) x2)"))
    rows = C.ledger_csv_rows(r)
    assert rows[0][0] == "node_id"
    assert len(rows) == 1 + len(r.ledger())
    doc = C.recipe_to_json(r)
    assert doc["degree_bound"] == r.degree_bound
    assert doc["root"]["type"] == "gate"
