import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj.circuits import (
    CircuitDag,
    FormulaNode,
    Gate,
    GateKind,
    PackedEvaluator,
    eval_circuit,
    exhaustive_table,
    formula_to_dag,
    pack_lanes,
    majority,
    parse_formula,
    parse_netlist,
    serialize_formula,
    serialize_netlist,
    unfold_to_formula,
)
from apxmaj.errors import DimensionError, ParseError
from apxmaj.verify import majority_truth_table

from conftest import oracle_eval_dag, oracle_table_dag, oracle_table_formula, random_dag


# ---------------------------------------------------------------------- parsing

def test_parse_netlist_single_and():
    c = parse_netlist("input x0\ninput x1\ng1 = AND x0 x1\noutput g1")
    assert c.n_inputs == 2
    assert c.size == 1
    assert c.depth == 1


def test_parse_netlist_fanin_violation():
    with pytest.raises(ParseError):
        parse_netlist("input x0\ninput x1\ng1 = NOT x0 x1\noutput g1")


def test_parse_netlist_forward_reference():
    text = "input x0\ng2 = AND x0 g3\ng3 = OR x0 x0\noutput g2"
    with pytest.raises(ParseError, match="undefined"):
        parse_netlist(text)


def test_parse_netlist_comments_and_diagnostics():
    c = parse_netlist("# a comment\ninput x0\ng = NOT x0  # trailing\noutput g")
    assert c.size == 1
    with pytest.raises(ParseError, match="line 2"):
        parse_netlist("input x0\nbogus line here\n")


def test_parse_netlist_constants_take_no_operands():
    c = parse_netlist("input x0\nc = CONST1\ng = AND x0 c\noutput g")
    assert c.size == 1  # constants do not count toward size
    with pytest.raises(ParseError):
        parse_netlist("input x0\nc = CONST1 x0\noutput c")


@pytest.mark.parametrize("text, message", [
    ("input 1x\n", "line 1: invalid name '1x'"),
    ("input a\n1g = NOT a\n", "line 2: invalid name '1g'"),
    ("input a\ninput a\n", "line 2: duplicate definition of 'a'"),
    ("input a\ng = NOT a\ng = NOT a\n", "line 3: duplicate definition of 'g'"),
    ("input a\ng = NOT a\na = NOT g\n", "line 3: duplicate definition of 'a'"),
    ("input a\ng = NAND a\n", "line 2, col 5: unknown gate kind 'NAND'"),
    ("input a\n  g  =  nand a\n", "line 2, col 9: unknown gate kind 'nand'"),
    ("input x0\nNA = NA x0\n", "line 2, col 6: unknown gate kind 'NA'"),
    ("input a\ng = INPUT\n", "line 2: INPUT is declared with 'input <name>'"),
    ("input a\ninput b\ng = NOT a b\n", "line 3: NOT takes exactly 1 operand, got 2"),
    ("input a\ng = NOT\n", "line 2: NOT takes exactly 1 operand, got 0"),
    ("input a\nc = CONST1 a\n", "line 2: CONST1 takes no operands, got 1"),
    ("input a\nc = CONST0 a a\n", "line 2: CONST0 takes no operands, got 2"),
    ("input a\ng = AND a zz\noutput g\n",
     "line 2: undefined gate reference 'zz' (must be declared earlier)"),
    ("input a\ng = AND a g\noutput g\n",
     "line 2: undefined gate reference 'g' (must be declared earlier)"),
    ("input x0\ng = AND x0 1bad\noutput g\n",
     "line 2: undefined gate reference '1bad' (must be declared earlier)"),
    ("input a\n# h reads zz\nh = NOT a\ng = AND h zz\n",
     "line 4: undefined gate reference 'zz' (must be declared earlier)"),
    ("input a\noutput zz\n", "line 2: undefined output 'zz'"),
    ("input a b\n", "line 1: expected 'input <name>'"),
    ("input a\noutput a b\n", "line 2: expected 'output <name>'"),
    ("input a\nbogus line here\n", "line 2: expected 'input', 'output' or '<name> = <KIND> <operands>'"),
])
def test_parse_netlist_diagnostics(text, message):
    with pytest.raises(ParseError) as err:
        parse_netlist(text)
    assert str(err.value) == message


def test_parse_netlist_input_declared_after_use():
    c = parse_netlist("input a\ng = AND a b\ninput b\noutput g\n")
    assert c.n_inputs == 2
    assert c.gates[2] == Gate(GateKind.AND, (0, 1))
    assert c.outputs == (2,)


def test_parse_formula_examples():
    f = parse_formula("(and x0 x1 x2)")
    assert f.depth == 1 and f.size == 3
    g = parse_formula("(xor (and x0 x1) (or x2 x3))")
    assert g.depth == 2 and g.size == 4


def test_parse_formula_fanin1_chain_rejected():
    with pytest.raises(ParseError, match="fan-in-1"):
        parse_formula("(and (and x0))")
    # fan-in-1 at the root alone is allowed
    assert parse_formula("(and x0)").size == 1
    # NOT chains are fine anywhere
    assert parse_formula("(or (not (not x0)) x1)").size == 2


def test_netlist_roundtrip_isomorphic():
    text = "input a\ninput b\nt = XOR a b\nu = AND t b\noutput u\noutput t"
    c = parse_netlist(text)
    again = parse_netlist(serialize_netlist(c))
    assert serialize_netlist(again) == serialize_netlist(c)
    for j in range(4):
        x = [(j >> i) & 1 for i in range(2)]
        assert eval_circuit(c, x) == eval_circuit(again, x)


def test_formula_roundtrip():
    text = "(xor (and x0 x1) (not x2) (or x1 x3))"
    f = parse_formula(text)
    assert parse_formula(serialize_formula(f)) == f


# ------------------------------------------------------------------- evaluation

def test_eval_examples():
    and3 = parse_netlist("input x0\ninput x1\ninput x2\ng = AND x0 x1 x2\noutput g")
    assert eval_circuit(and3, [1, 1, 1]) == (1,)
    xor3 = parse_netlist("input x0\ninput x1\ninput x2\ng = XOR x0 x1 x2\noutput g")
    assert eval_circuit(xor3, [1, 1, 0]) == (0,)
    or2 = parse_netlist("input x0\ninput x1\ng = OR x0 x1\noutput g")
    assert eval_circuit(or2, [0, 0]) == (0,)


def _mask(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def _lane(words: np.ndarray, lane: int) -> list[int]:
    """Bit `lane` of every row of (rows, W) uint64 words."""
    b, off = divmod(lane, 64)
    return [int(w) >> off & 1 for w in words[:, b]]


def test_pack_lanes_roundtrip(rng):
    assignments = [[int(b) for b in rng.integers(0, 2, 7)] for _ in range(19)]
    words = pack_lanes(7, [_mask(a) for a in assignments])
    assert words.shape == (7, 1) and words.dtype == np.uint64
    assert [_lane(words, lane) for lane in range(19)] == assignments
    ones = [sum(_lane(words, lane)) for lane in range(19)]
    assert ones == [sum(a) for a in assignments]
    assert [7 - w for w in ones] == [7 - sum(a) for a in assignments]
    assert not (words >> np.uint64(19)).any()  # lanes past the last mask are 0
    wide = [int(m) for m in rng.integers(0, 1 << 62, size=130)]
    words = pack_lanes(62, wide)
    assert words.shape == (62, 3)
    assert [_mask(_lane(words, lane)) for lane in range(130)] == wide
    with pytest.raises(DimensionError):
        pack_lanes(3, [1 << 3])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_packed_evaluator_matches_scalar_eval(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    c = random_dag(rng, n, max_gates=10)
    assignments = [[int(b) for b in rng.integers(0, 2, n)] for _ in range(17)]
    words = PackedEvaluator(c).outputs(pack_lanes(n, [_mask(a) for a in assignments]))
    for lane, x in enumerate(assignments):
        assert tuple(_lane(words, lane)) == eval_circuit(c, x)
        assert eval_circuit(c, x) == tuple(oracle_eval_dag(c, x))


def test_packed_evaluator_identical_lanes(rng):
    c = random_dag(rng, 5)
    out = int(PackedEvaluator(c).outputs(pack_lanes(5, [_mask([1, 0, 1, 1, 0])] * 9))[0, 0])
    assert out & ((1 << 9) - 1) in (0, (1 << 9) - 1)


def test_packed_evaluator_monotone_chain(rng):
    # lanes forming a coordinatewise chain keep a monotone circuit's output sorted
    gates = [Gate(GateKind.INPUT)] * 6
    gates.append(Gate(GateKind.AND, (0, 1, 2)))
    gates.append(Gate(GateKind.OR, (3, 6)))
    gates.append(Gate(GateKind.OR, (4, 5, 7)))
    c = CircuitDag(6, tuple(gates), (8,))
    chain = []
    x = [0] * 6
    chain.append(list(x))
    for i in np.random.default_rng(3).permutation(6):
        x[i] = 1
        chain.append(list(x))
    out = int(PackedEvaluator(c).outputs(pack_lanes(6, [_mask(a) for a in chain]))[0, 0])
    lanes = [(out >> i) & 1 for i in range(len(chain))]
    assert lanes == sorted(lanes)
    for lane, xs in enumerate(chain):
        assert (lanes[lane],) == eval_circuit(c, xs)


def test_packed_evaluator_matches_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 9))
        c = random_dag(rng, n, max_gates=14)
        assignments = [[int(b) for b in rng.integers(0, 2, n)] for _ in range(64)]
        got = PackedEvaluator(c).outputs(pack_lanes(n, [_mask(a) for a in assignments]))
        for lane, x in enumerate(assignments):
            assert _lane(got, lane) == oracle_eval_dag(c, x)
            assert tuple(_lane(got, lane)) == eval_circuit(c, x)


def test_exhaustive_table_matches_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(1, 7))
        c = random_dag(rng, n, max_gates=8)
        assert exhaustive_table(c) == oracle_table_dag(c)


def test_exhaustive_table_in_chunks_matches_oracle(rng):
    # n = 15: 512 table words, evaluated in two chunks that differ in x14
    for _ in range(2):
        c = random_dag(rng, 15, max_gates=30)
        gates = c.gates + (Gate(GateKind.AND, (14, 13)),
                           Gate(GateKind.XOR, (c.outputs[0], len(c.gates))))
        c = CircuitDag(15, gates, (len(gates) - 1,))
        assert exhaustive_table(c) == oracle_table_dag(c)


def _random_dag_with_dead_gates(rng: np.random.Generator, n: int) -> CircuitDag:
    """Random DAG with CONST0/CONST1 gates, fan-in-1 gates, several outputs in
    random order (an input and a repeat among them), and a dead NOT and XOR
    gate after everything the outputs reach."""
    kinds = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT,
             GateKind.CONST0, GateKind.CONST1)
    gates = [Gate(GateKind.INPUT)] * n
    for _ in range(int(rng.integers(3, 20))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in (GateKind.CONST0, GateKind.CONST1):
            args = ()
        else:
            fanin = 1 if kind is GateKind.NOT else int(rng.integers(1, 4))
            args = tuple(int(a) for a in rng.integers(0, len(gates), size=fanin))
        gates.append(Gate(kind, args))
    outputs = [int(o) for o in rng.integers(0, len(gates), size=3)] + [int(rng.integers(n))]
    outputs.append(outputs[0])
    rng.shuffle(outputs)
    gates.append(Gate(GateKind.NOT, (len(gates) - 1,)))
    gates.append(Gate(GateKind.XOR, (0, len(gates) - 1)))
    return CircuitDag(n, tuple(gates), tuple(outputs))


def test_cone_agrees_with_whole_dag(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = _random_dag_with_dead_gates(rng, n)
        cone = c.cone()
        assert cone.n_inputs == n
        assert len(cone.gates) <= len(c.gates) - 2  # the trailing NOT and XOR are dead
        assert cone.cone() == cone
        words = rng.integers(0, 1 << 63, size=(n, 2), dtype=np.uint64) << np.uint64(1)
        words |= rng.integers(0, 2, size=(n, 2), dtype=np.uint64)
        got = PackedEvaluator(cone).outputs(words)
        assert np.array_equal(got, PackedEvaluator(c).outputs(words))
        for lane in range(128):
            b, off = divmod(lane, 64)
            x = [int(words[i, b]) >> off & 1 for i in range(n)]
            assert [int(got[k, b]) >> off & 1 for k in range(len(c.outputs))] == oracle_eval_dag(c, x)
        for k in range(len(c.outputs)):
            assert exhaustive_table(cone, k) == exhaustive_table(c, k)


def test_cone_drops_exactly_the_dead_gates():
    c = parse_netlist("input x0\ninput x1\ninput x2\n"
                      "d = NOT x2\na = AND x0 x1\nk = CONST1\no = OR a k\ne = XOR d o\n"
                      "output o\noutput x2\noutput o\n")
    assert serialize_netlist(c.cone()) == (
        "input x0\ninput x1\ninput x2\n"
        "g0 = AND x0 x1\ng1 = CONST1\ng2 = OR g0 g1\n"
        "output g2\noutput x2\noutput g2\n")


# ---------------------------------------------------------------------- unfold

def test_unfold_tree_is_isomorphic():
    c = parse_netlist(
        "input x0\ninput x1\ninput x2\n"
        "a = AND x0 x1\nb = OR a x2\noutput b")
    f = unfold_to_formula(c)
    assert f.gate_count == c.size
    assert f.depth == c.depth


def test_unfold_duplicates_shared_gate():
    # one shared gate feeding k=3 parents gets duplicated 3 times
    text = (
        "input x0\ninput x1\n"
        "s = XOR x0 x1\n"
        "a = AND s x0\nb = OR s x1\nc = XOR s x0\n"
        "top = AND a b c\noutput top")
    c = parse_netlist(text)
    f = unfold_to_formula(c)
    assert f.gate_count == c.size + 2  # s appears 3x instead of 1x
    assert oracle_table_formula(f, 2) == oracle_table_dag(c)


def test_unfold_random_dags_bound_and_function(rng):
    for _ in range(60):
        n = int(rng.integers(1, 8))
        c = random_dag(rng, n, max_gates=12, max_depth=4)
        f = unfold_to_formula(c)
        s, d = c.size, c.depth
        assert oracle_table_formula(f, n) == oracle_table_dag(c)
        assert f.gate_count <= max(1, s ** max(d - 1, 0))
        assert f.depth == d  # generator never makes fan-in-1 AND/OR/XOR


def test_unfold_requires_single_output():
    c = parse_netlist("input x0\na = NOT x0\noutput a\noutput x0")
    with pytest.raises(ValueError):
        unfold_to_formula(c)


def test_metrics_survive_roundtrip(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        c = random_dag(rng, n, max_gates=9)
        c2 = parse_netlist(serialize_netlist(c))
        assert (c2.size, c2.depth) == (c.size, c.depth)


# -------------------------------------------------------------------- majority

def test_majority_examples():
    assert majority([1, 1, 0]) == 1
    assert majority([1, 1, 0, 0]) == 0  # a tie is not a majority
    assert majority([1]) == 1


def test_majority_table_small():
    assert majority_truth_table(3).bits == 0xE8
    for n in range(15):
        expected = sum(majority([j >> i & 1 for i in range(n)]) << j for j in range(1 << n))
        assert majority_truth_table(n).bits == expected


def test_formula_to_dag_consistency(rng):
    f = parse_formula("(or (and x0 x1) (xor x2 (not x3)))")
    c = formula_to_dag(f)
    assert oracle_table_dag(c) == oracle_table_formula(f, 4)
