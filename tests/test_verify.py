import json
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj import gf2poly as g
from apxmaj import synthesis as S
from apxmaj import verify as V
from apxmaj.compiler import compile_formula
from apxmaj.circuits import Gate, GateKind, parse_formula, parse_netlist
from apxmaj.errors import DimensionError, ParseError, ResourceLimitError

from conftest import brute_table, dag_from_gates, formula_dag, majority, oracle_table_dag, random_dag


def brute_min_degree(table_bits: int, n: int, eps: float) -> int:
    """Independent oracle: try all coefficient vectors over the degree-<=D
    monomial basis by direct pointwise evaluation."""
    allowed = math.floor(eps * (1 << n))
    for d in range(n + 1):
        basis = [m for m in range(1 << n) if bin(m).count("1") <= d]
        for coeffs in range(1 << len(basis)):
            table = brute_table(g.SparsePolyF2(n, frozenset(m for bi, m in enumerate(basis) if coeffs >> bi & 1)))
            if sum(v != (table_bits >> j) & 1 for j, v in enumerate(table)) <= allowed:
                return d
    raise AssertionError


# ------------------------------------------------------------------- tables

def test_truth_table_hex_roundtrip():
    t = V.TruthTable.from_hex("e8", 3)
    assert t.bits == 0xE8
    assert [t.bits >> j & 1 for j in range(8)] == [0, 0, 0, 1, 0, 1, 1, 1]
    with pytest.raises(ParseError):
        V.TruthTable.from_hex("e85", 3)


def test_truth_table_from_circuit_and_majority():
    maj3 = V.majority_truth_table(3)
    assert maj3.bits == 0xE8
    c = parse_netlist("input x0\ninput x1\ng = AND x0 x1\noutput g")
    assert V.TruthTable.from_circuit(c).bits == 0b1000


# ---------------------------------------------------------------- degree oracle

def test_min_approx_degree_or2():
    # the constant-1 polynomial is already within floor(1/4 * 4) = 1 of OR2,
    # so the minimum degree is 0 (the in-test brute-force oracle agrees)
    or2 = V.TruthTable(2, 0b1110)
    cert = V.min_approx_degree(or2, 0.25)
    assert brute_min_degree(0b1110, 2, 0.25) == 0
    assert cert.degree == 0
    assert cert.witness == g.SparsePolyF2(2, frozenset({0}))
    assert cert.distance == 1 == cert.allowed


def test_min_approx_degree_maj3():
    maj3 = V.majority_truth_table(3)
    cert = V.min_approx_degree(maj3, 0.125)
    assert brute_min_degree(0xE8, 3, 0.125) == 2
    assert cert.degree == 2
    assert cert.distance <= cert.allowed == 1
    # recompute the witness distance independently
    wt = sum(b << j for j, b in enumerate(brute_table(cert.witness)))
    assert bin(wt ^ 0xE8).count("1") == cert.distance


def test_min_approx_degree_parity_is_linear():
    for n in (2, 3, 4):
        bits = sum((bin(j).count("1") & 1) << j for j in range(1 << n))
        cert = V.min_approx_degree(V.TruthTable(n, bits), 0.1)
        assert cert.degree <= 1


def test_min_approx_degree_eps0_equals_anf_degree(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        bits = int(rng.integers(0, 1 << (1 << n)))
        cert = V.min_approx_degree(V.TruthTable(n, bits), 0.0)
        assert cert.degree == g.from_truth_table(bits, n).degree
        assert cert.distance == 0
        assert cert.exhausted


def test_min_approx_degree_monotone_in_eps():
    maj5 = V.majority_truth_table(5)
    degs = [V.min_approx_degree(maj5, e).degree for e in (0.0, 0.125, 0.25, 0.4)]
    assert degs == sorted(degs, reverse=True)


def test_min_approx_degree_caps():
    with pytest.raises(ResourceLimitError):
        V.min_approx_degree(V.TruthTable(6, 0), 0.125)
    # AND_5 has ANF degree 5; at eps=1/64 (zero errors allowed but eps != 0)
    # the scan must reach the degree-4 level, whose 31 monomials exceed the cap
    with pytest.raises(ResourceLimitError):
        V.min_approx_degree(V.TruthTable(5, 1 << 31), 1 / 64)


def test_min_approx_degree_ball_path_equals_span_path():
    # MAJ5 @ 1/8: both searches give the same (index, distance) at every
    # level up to the answer, and the certificate is the answer level's hit
    maj5 = V.majority_truth_table(5)
    anf = g.from_truth_table(maj5.bits, 5)
    cert = V.min_approx_degree(maj5, 0.125)
    for d in range(cert.degree + 1):
        basis = V.degree_basis(5, d)
        hit = V._ball_level(5, basis, anf, cert.allowed)
        assert hit == V._scan_level(5, basis, maj5.bits, cert.allowed)
        assert (hit is not None) == (d == cert.degree)
    index, dist = hit
    assert cert.witness == g.SparsePolyF2(5, frozenset(
        m for j, m in enumerate(basis) if index >> j & 1))
    assert cert.distance == dist


def test_level3_hit_reports_span_size():
    # x0*x1*x2 is within 1 of itself at eps = 1/32, so the degree-3 level (26
    # monomials, a 2^26 span) hits; the 33-pattern ball finds it
    x012 = brute_table(g.SparsePolyF2(5, frozenset({0b111})))
    f = V.TruthTable(5, sum(b << j for j, b in enumerate(x012)))
    cert = V.min_approx_degree(f, 1 / 32)
    assert cert.degree == 3 and cert.scanned[-1] == 1 << 26


EPS_GRID = (0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 3 / 8)


def _ball_is_chosen(n: int, basis: list[int], allowed: int) -> bool:
    """The counted-work rule of min_approx_degree."""
    return sum(math.comb(1 << n, k) for k in range(allowed + 1)) < 1 << len(basis)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))),
    st.sampled_from(EPS_GRID))
@settings(max_examples=150, deadline=None)
def test_ball_matches_brute_force_span_search(n_bits, eps):
    # every level up to 2^16 candidates on which the oracle walks the ball:
    # the least-index hit and its distance, by brute force over the span
    n, bits = n_bits
    allowed = math.floor(eps * (1 << n))
    anf = g.from_truth_table(bits, n)
    for d in range(n + 1):
        basis = V.degree_basis(n, d)
        if len(basis) > 16 or not _ball_is_chosen(n, basis, allowed):
            continue
        dist = np.bitwise_count(V._span(n, basis) ^ np.uint32(bits))
        hits = np.flatnonzero(dist <= allowed)
        want = (int(hits[0]), int(dist[hits[0]])) if hits.size else None
        assert V._ball_level(n, basis, anf, allowed) == want


@given(st.integers(0, (1 << 26) - 1), st.lists(st.integers(0, 31), max_size=3),
       st.sampled_from(EPS_GRID[:5]))
@settings(max_examples=6, deadline=None)
def test_ball_matches_span_scan_at_degree3(coeffs, flips, eps):
    # n = 5, level 3: a degree-3 polynomial with up to 3 flipped entries,
    # against one sweep of the 2^26-candidate span (about 0.3 s and 350 MB
    # each, hence few examples)
    basis = V.degree_basis(5, 3)
    table = brute_table(g.SparsePolyF2(5, frozenset(m for j, m in enumerate(basis) if coeffs >> j & 1)))
    bits = sum(b << j for j, b in enumerate(table))
    for j in flips:
        bits ^= 1 << j
    allowed = math.floor(eps * 32)
    assert _ball_is_chosen(5, basis, allowed)
    assert (V._ball_level(5, basis, g.from_truth_table(bits, 5), allowed)
            == V._scan_level(5, basis, bits, allowed))


def test_span_tables_is_reed_muller():
    # span(n=3, D=1): the 16 affine functions
    tabs = V._span(3, V.degree_basis(3, 1))
    assert len(set(int(t) for t in tabs)) == 16
    for t in tabs:
        assert g.from_truth_table(int(t), 3).degree <= 1


def test_smolensky_table_nondecreasing():
    tbl = [(n, V.min_approx_degree(V.majority_truth_table(n), 0.125).degree) for n in range(1, 6)]
    degs = [d for _, d in tbl]
    assert degs == sorted(degs)
    assert tbl[0] == (1, 1)
    assert tbl[2] == (3, 2)


# -------------------------------------------------------------- certification

MAJ3_NETLIST = ("input x0\ninput x1\ninput x2\na = AND x0 x1\nb = AND x0 x2\n"
                "c = AND x1 x2\nm = OR a b c\n")


def test_certify_exact_examples():
    # MAJ3 itself, x0 (wrong on 2 of 8 inputs) and NOT MAJ3 (wrong everywhere)
    for tail, dis in (("output m", 0.0), ("output x0", 2 / 8), ("z = NOT m\noutput z", 1.0)):
        rep = V.certify_approx_majority(parse_netlist(MAJ3_NETLIST + tail), 0.5, "exact")
        assert (rep.disagreement, rep.ci_lo, rep.ci_hi, rep.trials) == (dis, dis, dis, 8)


@pytest.mark.parametrize("kind, dis", [("CONST0", 0.0), ("CONST1", 1.0)])
def test_certify_netlist_without_inputs(kind, dis):
    # the majority of no inputs is 0: CONST0 agrees with it, CONST1 never does
    c = parse_netlist(f"z = {kind}\noutput z\n")
    exact = V.certify_approx_majority(c, 0.25, "exact")
    assert (exact.n, exact.disagreement, exact.trials, exact.passed) == (0, dis, 1, dis == 0.0)
    mc = V.certify_approx_majority(c, 0.25, "mc", trials=100, seed=1)  # a part-filled last word
    assert (mc.disagreement, mc.trials, mc.passed) == (dis, 100, dis == 0.0)


def test_certify_mc_within_ci_most_runs():
    # true disagreement known exactly at n=12; the 99% Wilson CI should
    # cover it in at least 95 of 100 seeded runs
    f = parse_formula("(xor (and x0 x1 x2) (or x3 x4) (and x5 (not x6)))")
    dag = formula_dag(f, 12)
    exact = V.certify_approx_majority(dag, 0.5, "exact").disagreement
    covered = 0
    for s in range(100):
        rep = V.certify_approx_majority(dag, 0.5, "mc", trials=4000, seed=s)
        covered += rep.ci_lo <= exact <= rep.ci_hi
    assert covered >= 95


def test_certify_exact_matches_brute_force(rng):
    # against conftest's scalar oracle and circuits.majority, on random DAGs
    # with n < 6 (a part-filled word), CONST, NOT and XOR gates and dead gates
    for n in range(1, 13):
        for _ in range(4 if n <= 8 else 1):
            c = random_dag(rng, n, max_gates=10)
            const = GateKind.CONST1 if rng.integers(2) else GateKind.CONST0
            out = len(c.gates) + 1
            gates = c.gates + (Gate(const), Gate(GateKind.XOR, (c.outputs[0], out - 1)),
                               Gate(GateKind.NOT, (out,)))  # the NOT is dead
            c = dag_from_gates(n, gates, (out,))
            table = oracle_table_dag(c)
            bad = sum(table >> j & 1 != majority([j >> i & 1 for i in range(n)])
                      for j in range(1 << n))
            rep = V.certify_approx_majority(c, 0.25, "exact")
            assert (rep.disagreement, rep.trials) == (bad / (1 << n), 1 << n)
            assert rep.passed == (bad / (1 << n) <= 0.25)


def test_certify_examples():
    n = 5
    const0 = parse_netlist("input x0\ninput x1\ninput x2\ninput x3\ninput x4\n"
                           "z = CONST0\noutput z")
    assert V.certify_approx_majority(const0, 0.5, "exact").passed
    assert not V.certify_approx_majority(const0, 0.25, "exact").passed
    rep = V.certify_approx_majority(const0, 0.5, "exact")
    assert rep.disagreement == 0.5  # exactly half the inputs have a majority
    maj_formula = parse_formula(
        "(or (and x0 x1 x2) (and x0 x1 x3) (and x0 x1 x4) (and x0 x2 x3) (and x0 x2 x4)"
        " (and x0 x3 x4) (and x1 x2 x3) (and x1 x2 x4) (and x1 x3 x4) (and x2 x3 x4))")
    dag = formula_dag(maj_formula, 5)
    assert V.certify_approx_majority(dag, 0.0, "exact").passed
    for eps in (0.0, 0.1, 0.25):
        assert V.certify_approx_majority(dag, eps, "exact").passed


def test_certify_mc_against_exact(rng):
    f = parse_formula("(or (and x0 x1) (and x2 x3) (and x4 x5))")
    dag = formula_dag(f, 6)
    exact = V.certify_approx_majority(dag, 0.3, "exact")
    mc = V.certify_approx_majority(dag, 0.3, "mc", trials=60_000, seed=5)
    assert abs(mc.disagreement - exact.disagreement) < 0.01
    assert mc.ci_lo <= exact.disagreement <= mc.ci_hi


def test_mc_memory_flat_in_trials():
    # inputs are drawn chunk by chunk, so 10x the trials must not mean 10x
    # the memory (whole-draw allocation: 5.5 MB at 2e5, 48 MB at 2e6)
    dag = S.synth(S.plan(101, 3, 0.25, {"A": 3, "M": 256, "M_top": 256}), 1).dag
    peaks = []
    for trials in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            V.certify_approx_majority(dag, 0.5, "mc", trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_mc_needs_a_seed():
    dag = formula_dag(parse_formula("(or x0 x1)"), 3)
    with pytest.raises(ValueError, match="mc mode needs a seed"):
        V.certify_approx_majority(dag, 0.25, "mc", trials=100)


def test_mc_rejects_nonpositive_trials():
    dag = formula_dag(parse_formula("(or x0 x1)"), 3)
    for trials in (0, -5):
        with pytest.raises(ValueError):
            V.certify_approx_majority(dag, 0.25, "mc", trials=trials, seed=1)


# -------------------------------------------------------------------- reports

def test_emit_report_empty_and_csv(tmp_path):
    V.emit_report([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == ""
    rows = [("n", "epsilon", "degree"),
            *((n, 0.125, V.min_approx_degree(V.majority_truth_table(n), 0.125).degree) for n in (1, 3))]
    V.emit_report(rows, tmp_path / "degrees.csv")
    lines = (tmp_path / "degrees.csv").read_text().splitlines()
    assert lines[0] == "n,epsilon,degree"
    assert len(lines) == 3


def test_emit_report_csv_bytes(tmp_path):
    # rows as given, the header first, None as an empty cell, csv's \r\n
    # terminators
    r = compile_formula(parse_formula("(or (and x0 x1) x2)"))
    V.emit_report(r.ledger(), tmp_path / "ledger.csv")
    assert (tmp_path / "ledger.csv").read_bytes() == (
        b"node_id,kind,size_i,parent_size,eps_num,eps_den,k_or_t,degree_bound\r\n"
        b"0,or,3,3,1,16,4,180\r\n1,reduce,2,3,1,24,15,45\r\n2,and,2,3,1,8,3,3\r\n"
        b"3,var,1,2,0,1,0,1\r\n4,var,1,2,0,1,0,1\r\n5,var,1,3,1,48,0,1\r\n")
    V.emit_report([("a", "b"), (1, None), (2.5, "x")], tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n1,\r\n2.5,x\r\n"


def test_emit_report_certification_json(tmp_path):
    const0 = parse_netlist("input x0\ninput x1\ninput x2\nz = CONST0\noutput z")
    rep = V.certify_approx_majority(const0, 0.5, "mc", trials=1000, seed=7)
    doc = {"disagreement": rep.disagreement, "ci_lo": rep.ci_lo, "ci_hi": rep.ci_hi,
           "trials": rep.trials, "seed": rep.seed}
    V.emit_report(doc, tmp_path / "cert.json", meta={"seed": 7})
    loaded = json.loads((tmp_path / "cert.json").read_text())
    assert loaded == doc
    assert (tmp_path / "cert.json.meta.json").exists()


def test_emit_report_format_comes_from_suffix(tmp_path):
    with pytest.raises(ValueError, match="must end in .json or .csv"):
        V.emit_report({"a": 1}, tmp_path / "x.txt")
    assert list(tmp_path.iterdir()) == []


def test_wilson_interval_basic():
    lo, hi = V.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert V.wilson_interval(0, 100)[0] == 0.0
    assert V.wilson_interval(100, 100)[1] == 1.0
