import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj import compiler as C
from apxmaj import gf2poly as g
from apxmaj.circuits import FormulaNode, GateKind, formula_to_dag, parse_formula
from apxmaj.errors import ResourceLimitError
from apxmaj.verify import TruthTable

from conftest import (alternating_formula, brute_table, oracle_sample_value, oracle_table_formula,
                      random_formula)


# --------------------------------------------------------------- gate recipes

def test_razborov_or_k():
    a = C.razborov_gate_recipe(GateKind.OR, Fraction(1, 8))
    assert a.k == 3
    assert float(a.achieved_error) == 0.125


def test_razborov_xor_exact_any_eps():
    for eps in (0.5, 0.01, Fraction(1, 1000)):
        a = C.razborov_gate_recipe(GateKind.XOR, eps)
        assert a.exact and a.k == 0


def test_razborov_eps_out_of_range():
    with pytest.raises(ValueError):
        C.razborov_gate_recipe(GateKind.OR, 0)
    with pytest.raises(ValueError):
        C.razborov_gate_recipe(GateKind.AND, 1)


def test_or4_misclassification_exactly_one_eighth():
    # independent oracle: enumerate all (2^4)^k subset k-tuples, k taken from
    # the recipe; at every x != 0 the sampled polynomial 1 + prod_j (1 + <S_j, x>)
    # errs iff all k parities vanish, which happens for exactly 8^k of the
    # 16^k tuples, so the enumerated error equals the recipe's achieved_error.
    approx = C.razborov_gate_recipe(GateKind.OR, Fraction(1, 8))
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
    header, *rows = r.ledger()
    reduces = [dict(zip(header, row)) for row in rows if row[header.index("kind")] == "reduce"]
    assert [Fraction(row["eps_num"], row["eps_den"]) for row in reduces] == [Fraction(1, 32), Fraction(1, 32)]
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
        assert r.degree_bound <= C.theoretical_degree(f.size, d)
        tables = C.sample_tables(r, 64, seed=int(rng.integers(2**32)))
        degs = C.table_degrees(tables)
        assert int(degs.max()) <= r.degree_bound


def test_sample_deterministic_and_consistent():
    f = parse_formula("(or (and x0 x1) (xor x2 x3) (not x4))")
    r = C.compile_formula(f)
    p1 = C.sample(r, 123)
    p2 = C.sample(r, 123)
    assert p1 == p2
    assert p1.degree <= r.degree_bound
    assert brute_table(p1) == [C.eval_sample(r, x, 123) for x in range(32)]
    assert C.sample(r, 124) != p1 or True  # different seeds may coincide, no assert


def test_sample_is_the_batch_of_one(rng):
    # one traversal serves sample, eval_sample and sample_tables: the
    # drawn polynomial's table is lane 0 of sample_tables(r, 1, s), and its
    # degree is what table_degrees reads off that lane
    for _ in range(30):
        n = int(rng.integers(1, 9))
        r = C.compile_formula(random_formula(rng, n, int(rng.integers(1, 4)), max_size=16))
        s = int(rng.integers(2**32))
        p = C.sample(r, s)
        tables = C.sample_tables(r, 1, s)
        assert brute_table(p) == g.lane_bits(tables, 1)[:, 0].tolist()
        assert int(C.table_degrees(tables)[0]) == p.degree


@pytest.mark.parametrize("lanes", [1, 63, 65, C.LANE_CHUNK + 3])
def test_sample_tables_match_scalar_oracle(rng, lanes):
    # every lane at two random points and every point of four lanes, against
    # the gate-by-gate evaluator reading the same draw bits; lanes past the
    # batch are 0, and lane 0 is sample() and eval_sample()
    for _ in range(3):
        r = C.compile_formula(random_formula(rng, int(rng.integers(1, 9)),
                                             int(rng.integers(1, 3)), max_size=8))
        n, s = r.n, int(rng.integers(2**32))
        tables = C.sample_tables(r, lanes, s)
        assert tables.shape == (1 << n, -(-lanes // 64))
        bits = g.lane_bits(tables, 64 * tables.shape[1]).T
        assert not bits[lanes:].any()
        draws = {}
        for lane in range(lanes):
            for x in rng.integers(0, 1 << n, size=2):
                assert bits[lane, x] == oracle_sample_value(r, int(x), s, lane, draws), (lane, x)
        for lane in {0, 63 % lanes, lanes // 2, lanes - 1}:
            want = [oracle_sample_value(r, x, s, lane, draws) for x in range(1 << n)]
            assert bits[lane].tolist() == want, lane
        p = C.sample(r, s)
        assert brute_table(p) == bits[0].tolist()
        assert [C.eval_sample(r, x, s) for x in range(1 << n)] == bits[0].tolist()


@pytest.mark.parametrize("kind", ["or", "and"])
def test_eval_sample_matches_scalar_oracle_above_table_cap(rng, kind):
    # above SAMPLE_TABLE_MAX_N, sample() and sample_tables() refuse, and
    # eval_sample() still reads lane 0 at one point
    n = 22
    r = C.compile_formula(parse_formula(f"({kind} " + " ".join(f"x{i}" for i in range(n)) + ")"))
    for s in (3, 4):
        draws = {}
        for x in rng.integers(0, 1 << n, size=64):
            assert C.eval_sample(r, int(x), s) == oracle_sample_value(r, int(x), s, 0, draws)


def test_eval_sample_matches_scalar_oracle_above_64_variables(rng):
    # the one-row column is built from the Python int: n = 70 masks do not fit a uint64
    n = 70
    r = C.compile_formula(parse_formula(
        "(or " + " ".join(f"(and x{2 * i} x{2 * i + 1})" for i in range(n // 2)) + ")"))
    draws = {}
    for _ in range(32):
        x = int.from_bytes(rng.bytes(9), "little") & ((1 << n) - 1) | 1 << int(rng.integers(64, n))
        assert C.eval_sample(r, x, 9) == oracle_sample_value(r, x, 9, 0, draws)


# Children of error bound 0 (variables, constants, NOT and XOR of them) read
# their subset parities from tables of up to LOOKUP_BITS columns.  The OR and
# AND have more of them than one table holds, with repeated variables; the
# third gate mixes them with AND/OR children, which are masked one by one; the
# last two fit one table, whose k factors are ORed before the gather.
_LOOKUP_ARGS = "x0 x1 (not x2) (xor x3 x4) x0 x5 (not x0) x6 (xor x1 x6) x7 x2 x8"


def _lookup_recipes():
    consts = (FormulaNode(GateKind.CONST0), FormulaNode(GateKind.CONST1))
    recipes = []
    for kind in ("or", "and"):
        f = parse_formula(f"({kind} {_LOOKUP_ARGS})")
        recipes.append(C.compile_formula(FormulaNode(f.kind, f.children + consts)))
    texts = ["(and x0 (or x1 x2) (not x3) (xor x4 x0) x0 x1 x2 x3 x4 (not x1) (xor x2 x3) "
             "(xor x4 (and x1 x3)))",
             "(or x0 (not x1) (xor x1 x2) x0 (not (xor x0 x2)))",
             "(and (not x0) (xor x1 x2) x2 (xor x0 x1 x2))"]
    return recipes + [C.compile_formula(parse_formula(t)) for t in texts]


def test_lookup_recipes_reach_every_path():
    recipes = _lookup_recipes()
    exact = [sum(c.err_bound == 0 for c in r.root.children) for r in recipes]
    sizes = [len(r.root.children) for r in recipes]
    assert exact[0] > C.LOOKUP_BITS and exact[1] > C.LOOKUP_BITS and exact[2] > C.LOOKUP_BITS
    assert exact[2] < sizes[2]
    assert exact[3:] == sizes[3:] and max(sizes[3:]) <= C.LOOKUP_BITS


@pytest.mark.parametrize("lanes", [1, 65, C.LANE_CHUNK + 3])
def test_lookup_parity_matches_scalar_oracle(rng, lanes):
    for r in _lookup_recipes():
        n, s = r.n, int(rng.integers(2**32))
        bits = g.lane_bits(C.sample_tables(r, lanes, s), lanes).T
        draws = {}
        # every lane of a small batch; of 4,099, every 17th, up to lane 4,097 of the second chunk
        for lane in range(0, lanes, 1 if lanes <= 128 else 17):
            x = int(rng.integers(1 << n))
            assert bits[lane, x] == oracle_sample_value(r, x, s, lane, draws), (lane, x)
        for lane in {0, lanes - 1}:
            want = [oracle_sample_value(r, x, s, lane, draws) for x in range(1 << n)]
            assert bits[lane].tolist() == want, lane


def test_lookup_parity_eval_sample_one_row(rng):
    # eval_sample evaluates a single row (R = 1) at one lane word
    for r in _lookup_recipes():
        for s in (1, 2):
            draws = {}
            for x in rng.integers(0, 1 << r.n, size=16):
                assert C.eval_sample(r, int(x), s) == oracle_sample_value(r, int(x), s, 0, draws), (s, x)


def test_sample_seed_stream_pinned():
    # the README's recipe at seed 7: any change to the sampler's seed stream shows here
    r = C.compile_formula(parse_formula("(or (and x0 x1) (and x2 x3))"))
    assert g.format_poly(C.sample(r, 7)) == "x0*x1 + x2*x3 + x0*x1*x2*x3"


def test_sample_capped_at_table_cap():
    r = C.compile_formula(parse_formula("(or " + " ".join(f"x{i}" for i in range(21)) + ")"))
    with pytest.raises(ResourceLimitError, match="n <= 20"):
        C.sample(r, 1)
    with pytest.raises(ResourceLimitError, match="n <= 20"):
        C.sample_tables(r, 1, 1)


def test_sample_work_cap(monkeypatch):
    # alternating AND/OR of fan-in 3 at depth 5: over the cap at one row and word
    deep = C.compile_formula(parse_formula(alternating_formula(5, 3, 12)))
    assert deep.visits == 27_602_020
    for call in (lambda: C.sample_tables(deep, 1, 0), lambda: C.sample(deep, 0),
                 lambda: C.eval_sample(deep, 0, 0)):
        with pytest.raises(ResourceLimitError, match="SAMPLE_WORK_CAP"):
            call()
    # the largest sampler call of the tests and benchmark: OR_12 at 10^5 lanes
    C.check_sample_work(C.compile_formula(parse_formula(alternating_formula(1, 12, 12))), 4096, 1563)
    # a recipe exactly at the cap samples, and one lane word more is refused
    r = C.compile_formula(parse_formula("(or (and x0 x1) (and x2 x3))"))
    monkeypatch.setattr(C, "SAMPLE_WORK_CAP", r.visits * (16 * 2 + C.VISIT_OVERHEAD))
    assert C.sample_tables(r, 128, 1).shape == (16, 2)
    with pytest.raises(ResourceLimitError, match="SAMPLE_WORK_CAP"):
        C.sample_tables(r, 129, 1)


def test_single_xor_recipe_has_no_randomness():
    r = C.compile_formula(parse_formula("(xor x0 x1 x2)"))
    polys = {C.sample(r, s) for s in range(10)}
    assert polys == {g.SparsePolyF2(3, frozenset({0b001, 0b010, 0b100}))}  # x0 + x1 + x2


def test_compiled_error_empirical(rng):
    # depth-2 sanity: per-input empirical error stays near 1/16, well under 1/8 + slack
    f = parse_formula("(or (and x0 x1) (and x2 x3))")
    r = C.compile_formula(f)
    tables = C.sample_tables(r, 10_000, seed=77)
    bits = g.lane_bits(tables, 10_000).T
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
    bits = g.lane_bits(tables, 2000).T
    truth = oracle_table_formula(notf, 2)
    tb = np.array([(truth >> j) & 1 for j in range(4)], dtype=np.uint8)
    assert (bits != tb[None, :]).mean(axis=0).max() <= 0.16


# ------------------------------------------------------------- closed forms

def test_theoretical_degree_examples():
    assert C.theoretical_degree(100, 0) == 3.0
    assert C.theoretical_degree(1, 3) == 3.0 * C.C2**3
    prev = 0.0
    for s in (1, 2, 4, 8, 1024, 10**6):
        v = C.theoretical_degree(s, 3)
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


def test_key_inequality_squares_only_what_the_gap_uses():
    # ((a+b)/2+1)^2 = 2.5e199 fits a float; squaring it once more would not
    _, scalar = C.check_key_inequality(1e100, 3.0, 1)
    with np.errstate(over="raise"):
        _, gap = C.check_key_inequality(1e100, np.array([3.0]), 1)
    assert float(gap[0]) == scalar == pytest.approx(2.5e199)


@given(st.floats(0, 64), st.floats(0, 64), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_key_inequality_property(a, b, d):
    holds, gap = C.check_key_inequality(a, b, d)
    assert holds


def formula_size_lower_bound(d: int, degree_lb: int) -> int | float:
    """Least formula size s whose certified degree bound at depth d reaches
    degree_lb: any function of approximate degree >= degree_lb needs depth-d
    formulas at least this large.  inf when no size up to 2^4096 reaches it
    (d = 1 caps at degree 3)."""
    def reaches(s: int) -> bool:
        return C.theoretical_degree(s, d - 1) >= degree_lb

    hi = 1
    while not reaches(hi):
        hi *= 2
        if d == 1 or hi > 2**4096:
            return math.inf
    lo = hi // 2
    while lo + 1 < hi:  # bisect: reaches(hi), not reaches(lo)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


def test_formula_size_lower_bound_examples():
    assert formula_size_lower_bound(3, 3) == 1
    prev = 0
    for lb in (3, 6, 12, 24, 48, 96):
        s = formula_size_lower_bound(2, lb)
        assert s >= prev
        prev = s
    # depth-1 formulas cap at degree 3
    assert formula_size_lower_bound(1, 4) == math.inf


def test_formula_size_lower_bound_closed_form_d2():
    # at d=2 the bound reads 3*c2*(log2 s + 1) >= lb, so s* = 2^(lb/(3 c2) - 1)
    from apxmaj.verify import majority_truth_table, min_approx_degree
    lb = min_approx_degree(majority_truth_table(5), 0.125).degree
    got = formula_size_lower_bound(2, lb)
    direct = 1
    while C.theoretical_degree(direct, 1) < lb:
        direct += 1
    assert got == direct


@pytest.mark.parametrize("d, lbs", [(2, [523, 5000, 20_000]), (3, [90_829, 10**6, 10**7])])
def test_formula_size_lower_bound_doubles_then_bisects(d, lbs):
    # every bound is above 3*C2^(d-1), the degree of size 1, so the search runs
    for lb in lbs:
        assert lb > 3 * C.C2 ** (d - 1)
        s = formula_size_lower_bound(d, lb)
        assert C.theoretical_degree(s, d - 1) >= lb > C.theoretical_degree(s - 1, d - 1), (d, lb)
    # depth 2 gains 3*C2 per doubling: 10^7 is out of reach below 2^4096
    assert formula_size_lower_bound(2, 10**7) == math.inf


def test_ledger_csv_shape():
    r = C.compile_formula(parse_formula("(or (and x0 x1) x2)"))
    header, *rows = r.ledger()
    assert header[0] == "node_id"
    assert [row[0] for row in rows] == list(range(len(rows)))
    assert all(len(row) == len(header) for row in rows)
    doc = C.recipe_to_json(r)
    assert doc["degree_bound"] == r.degree_bound
    assert doc["root"]["type"] == "gate"
