"""Shared generators and independent oracles.

The evaluators here are deliberately naive re-implementations used as oracles
against the library's bit-parallel paths; keep them boring.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from apxmaj import compiler as C
from apxmaj import synthesis as S
from apxmaj.circuits import KINDS, CircuitDag, FormulaNode, Gate, GateKind, formula_to_dag
from apxmaj.errors import DimensionError
from apxmaj.rng import rng_for

GATE_CHOICES = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT)


def dag_from_gates(n_inputs: int, gates, outputs) -> CircuitDag:
    """The CircuitDag of `Gate` objects, the inverse of `CircuitDag.gates`."""
    return CircuitDag(n_inputs, [KINDS.index(g.kind) for g in gates],
                      np.cumsum([0] + [len(g.args) for g in gates]), [a for g in gates for a in g.args], outputs)


def formula_dag(f: FormulaNode, n: int) -> CircuitDag:
    """`formula_to_dag(f)` over n >= f.n_vars inputs: inputs f.n_vars.. are
    read by no gate, and the gates move up by the inputs added."""
    c, pad = formula_to_dag(f), n - f.n_vars
    ids = lambda a: np.where(a < f.n_vars, a, a + pad)
    return CircuitDag(n, np.concatenate([np.full(pad, KINDS.index(GateKind.INPUT)), c.kinds]),
                      np.concatenate([np.zeros(pad, np.int64), c.offsets]), ids(c.operands),
                      tuple(ids(np.array(c.outputs)).tolist()))


def unfold_to_formula(c: CircuitDag) -> FormulaNode:
    """Expand a single-output DAG into a tree, duplicating shared gates.

    Fan-in-1 AND/OR/XOR gates are identity functions and are collapsed so the
    result satisfies the formula fan-in rule; this never increases gate count
    or depth.
    """
    if len(c.outputs) != 1:
        raise ValueError("unfold requires a single-output circuit")

    def build(i: int) -> FormulaNode:
        kind = KINDS[c.kinds[i]]
        if kind is GateKind.INPUT:
            return FormulaNode(GateKind.INPUT, var=i)
        if kind in (GateKind.CONST0, GateKind.CONST1):
            return FormulaNode(kind)
        children = tuple(build(a) for a in c.operands[c.offsets[i] : c.offsets[i + 1]].tolist())
        if kind in (GateKind.AND, GateKind.OR, GateKind.XOR) and len(children) == 1:
            return children[0]
        return FormulaNode(kind, children)

    return build(c.outputs[0])


# each gate kind's value on its operands' bits
ORACLE_GATES = {GateKind.CONST0: lambda b: 0, GateKind.CONST1: lambda b: 1, GateKind.NOT: lambda b: 1 - b[0],
                GateKind.AND: lambda b: int(all(b)), GateKind.OR: lambda b: int(any(b)),
                GateKind.XOR: lambda b: sum(b) % 2}


def oracle_eval_dag(c: CircuitDag, x: list[int]) -> list[int]:
    vals = []
    for g in c.gates:
        vals.append(x[len(vals)] & 1 if g.kind is GateKind.INPUT else ORACLE_GATES[g.kind]([vals[a] for a in g.args]))
    return [vals[o] for o in c.outputs]


def oracle_eval_formula(f: FormulaNode, x: list[int]) -> int:
    if f.kind is GateKind.INPUT:
        return x[f.var] & 1
    return ORACLE_GATES[f.kind]([oracle_eval_formula(c, x) for c in f.children])


def oracle_table_formula(f: FormulaNode, n: int) -> int:
    return sum(oracle_eval_formula(f, [(j >> i) & 1 for i in range(n)]) << j for j in range(1 << n))


def oracle_table_dag(c: CircuitDag) -> int:
    """Truth table of the first output."""
    n = c.n_inputs
    return sum(oracle_eval_dag(c, [(j >> i) & 1 for i in range(n)])[0] << j for j in range(1 << n))


def brute_table(p) -> list[int]:
    """Independent pointwise evaluation of a SparsePolyF2: XOR over monomials of AND of vars."""
    out = []
    for j in range(1 << p.n):
        v = 0
        for m in p.monomials:
            v ^= int(all(j >> i & 1 for i in range(p.n) if m >> i & 1))
        out.append(v)
    return out


def majority(x: list[int]) -> int:
    """1 iff strictly more than half the bits are 1 (ties go to 0)."""
    return int(2 * sum(b & 1 for b in x) > len(x))


def oracle_mobius_transform(rows: np.ndarray) -> np.ndarray:
    """In-place-style XOR Moebius transform along the last axis (self-inverse).

    rows: (..., 2^n) uint8 of 0/1.  Returns the coefficient array: entry S is
    the ANF coefficient of the monomial with variable set S.
    """
    a = rows.copy()
    size = a.shape[-1]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise DimensionError("last axis must have power-of-two length")
    for i in range(n):
        v = a.reshape(-1, size >> (i + 1), 2, 1 << i)
        v[:, :, 1, :] ^= v[:, :, 0, :]
    return a


def _log_complement(k: int, z: int, m: int) -> float:
    """log(1 - k/m), with z = m - k: log1p(-k/m) when k/m is the smaller
    ratio, else log(z/m), so 1 - k/m never rounds to 0 when m > 2^53."""
    if z == 0:
        return -math.inf
    return math.log1p(-k / m) if k <= z else math.log(z / m)


def oracle_technical_lemma(a: float, s: float, m: int, n: int, gamma: float,
                           k: int) -> SimpleNamespace:
    """The sampling lemma's checks on one tuple in Python floats and ints: the
    exact reference for `synthesis.check_technical_lemma`.  Bands read None
    outside I0/I1 (J1/J0), and a check that does not apply holds None with
    None logs."""
    if m < 1:
        raise ValueError("M must be positive")
    if not 0 <= k <= m:
        raise ValueError("ones-count k must be in 0..M")
    hypotheses = {
        "expA_ge_n_cubed": a >= 3.0 * math.log(n),
        "n_ge_inv_eps0": n >= 1.0 / S.EPS0,
        "s_le_n": s <= n,
        "s_ge_1": s >= 1.0,
        "gamma_in_range": 1.0 / n < gamma < 0.1,
    }
    t = math.ceil(math.exp(a) * s)
    center = m * math.exp(-a)
    z = m - k
    log_p_or = t * _log_complement(k, z, m)
    log_p_and = t * _log_complement(z, k, m)

    or_band = "I0" if k <= center * (1 - gamma) else ("I1" if k >= center * (1 + gamma) else None)
    and_band = "J1" if z <= center * (1 - gamma) else ("J0" if z >= center * (1 + gamma) else None)

    sg = s * gamma
    refined_ok = sg <= S.EPS0
    checks = []

    def emit(name, applies, log_lhs, log_rhs, lower: bool):
        holds = None
        if applies:
            holds = (log_lhs >= log_rhs) if lower else (log_lhs <= log_rhs)
        checks.append(SimpleNamespace(name=name, applies=applies, holds=holds,
                                      log_lhs=log_lhs if applies else None,
                                      log_rhs=log_rhs if applies else None))

    emit("I0: p >= e^-s * e^(s*gamma/2)", or_band == "I0", log_p_or, -s + sg / 2, True)
    emit("I0 refined: p >= e^-s * (1 + s*gamma*e^-s*gamma)", or_band == "I0" and refined_ok,
         log_p_or, -s + math.log1p(sg * math.exp(-sg)), True)
    emit("I1: p <= e^-s * e^(-s*gamma)", or_band == "I1", log_p_or, -s - sg, False)
    emit("I1 refined: p <= e^-s * (1 - s*gamma*e^-s*gamma)", or_band == "I1" and refined_ok,
         log_p_or, -s + math.log1p(-sg * math.exp(-sg)), False)
    emit("J1: p >= e^-s * e^(s*gamma/2)", and_band == "J1", log_p_and, -s + sg / 2, True)
    emit("J1 refined: p >= e^-s * (1 + s*gamma*e^-s*gamma)", and_band == "J1" and refined_ok,
         log_p_and, -s + math.log1p(sg * math.exp(-sg)), True)
    emit("J0: p <= e^-s * e^(-s*gamma)", and_band == "J0", log_p_and, -s - sg, False)
    emit("J0 refined: p <= e^-s * (1 - s*gamma*e^-s*gamma)", and_band == "J0" and refined_ok,
         log_p_and, -s + math.log1p(-sg * math.exp(-sg)), False)

    return SimpleNamespace(
        t=t, hypotheses=hypotheses, hypotheses_ok=all(hypotheses.values()),
        log_p_or_zero=log_p_or, log_p_and_one=log_p_and,
        or_band=or_band, and_band=and_band,
        checks=checks, ok=all(c.holds for c in checks if c.applies),
    )


# Scalar definitions of gf2poly's bit layouts, one bit at a time: bit i of an
# int is entry i of its bits, lane l of a row of words is bit l % 64 of word
# l // 64, and assignment j sets x_i to bit i of j.

def oracle_int_bits(values, width: int) -> list[list[int]]:
    return [[v >> i & 1 for i in range(width)] for v in values]


def oracle_bits_int(bits) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


def oracle_lane_words(rows) -> list[list[int]]:
    """The words of each row of lane bits; lanes past the row's end are 0."""
    out = []
    for row in rows:
        words = [0] * -(-len(row) // 64)
        for lane, b in enumerate(row):
            words[lane // 64] |= int(b) << (lane % 64)
        out.append(words)
    return out


def oracle_lane_bits(words, lanes: int) -> list[list[int]]:
    return [[int(row[lane // 64]) >> (lane % 64) & 1 for lane in range(lanes)] for row in words]


def oracle_assignment_bits(n: int) -> list[list[int]]:
    """Row i: x_i at every assignment j = 0 .. 2^n - 1."""
    return [[j >> i & 1 for j in range(1 << n)] for i in range(n)]


def oracle_sample_value(recipe, x: int, seed: int, lane: int, draws: dict) -> int:
    """Value at assignment x of sample `lane` of `compiler.sample_tables`,
    one gate at a time from the definitions: an OR is 1 iff one of its k
    factors has odd parity over the selected children, an AND is the same
    over the negated children, negated; a reduction is a majority vote.

    In lane chunk c = lane // LANE_CHUNK, the gate at `path` selects child i
    for factor j iff bit l % 64 of raw word (l // 64) * k * m + j * m + i of
    rng_for(seed, *path, "subset-lanes", c) is set (l = lane % LANE_CHUNK,
    m children).  `draws` caches each gate's words of a whole chunk."""
    chunk, lane_in_chunk = divmod(lane, C.LANE_CHUNK)
    word, bit = divmod(lane_in_chunk, 64)

    def value(node, path) -> int:
        if isinstance(node, C.VarNode):
            return x >> node.index & 1
        if isinstance(node, C.ConstNode):
            return node.bit
        if isinstance(node, C.ReduceNode):
            votes = sum(value(node.child, path + ("copy", c)) for c in range(node.t))
            return int(2 * votes > node.t)
        ys = [value(c, path + ("ch", i)) for i, c in enumerate(node.children)]
        if node.kind is GateKind.NOT:
            return 1 - ys[0]
        if node.kind is GateKind.XOR:
            return sum(ys) % 2
        k, m = node.approx.k, len(ys)
        if (path, chunk) not in draws:
            gen = rng_for(seed, *path, "subset-lanes", chunk)
            draws[path, chunk] = [int(v) for v in gen.bit_generator.random_raw(C.LANE_CHUNK // 64 * k * m)]
        raw = draws[path, chunk]
        if node.kind is GateKind.AND:
            ys = [1 - y for y in ys]
        hit = any(sum(y for i, y in enumerate(ys) if raw[(word * k + j) * m + i] >> bit & 1) % 2
                  for j in range(k))
        return int(hit) if node.kind is GateKind.OR else int(not hit)

    return value(recipe.root, ())


def random_formula(rng: np.random.Generator, n: int, depth: int,
                   max_size: int = 32) -> FormulaNode:
    """Random formula of depth <= `depth` over n variables, <= max_size leaves.

    Internal gates always have fan-in >= 2 (NOT excepted), so results satisfy
    the no-fan-in-1-chain rule by construction; each subtree gets an explicit
    leaf allowance so the size cap is exact.
    """

    def build(d: int, allowance: int) -> FormulaNode:
        if d == 0 or allowance < 2:
            return FormulaNode(GateKind.INPUT, var=int(rng.integers(n)))
        kind = GATE_CHOICES[int(rng.integers(len(GATE_CHOICES)))]
        if kind is GateKind.NOT:
            return FormulaNode(kind, (build(d - 1, allowance),))
        fanin = int(rng.integers(2, min(4, allowance) + 1))
        shares = np.sort(rng.choice(np.arange(1, allowance), size=fanin - 1, replace=False))
        parts = np.diff(np.concatenate([[0], shares, [allowance]]))
        children = [build(d - 1, int(parts[0]))]
        children += [build(int(rng.integers(0, d)), int(p)) for p in parts[1:]]
        return FormulaNode(kind, tuple(children))

    f = build(depth, max_size)
    assert f.size <= max_size
    return f


def formula_text(f: FormulaNode) -> str:
    """The s-expression that `parse_formula` reads as f (which has no constants)."""
    if f.kind is GateKind.INPUT:
        return f"x{f.var}"
    return f"({f.kind.value.lower()} {' '.join(map(formula_text, f.children))})"


def alternating_formula(depth: int, fan_in: int, n: int) -> str:
    """s-expression of AND and OR levels alternating up to an OR at odd depth,
    every gate of fan-in `fan_in`, leaves cycling through x0 .. x{n-1}."""
    leaves = iter(range(fan_in ** depth))

    def build(d: int) -> str:
        if d == 0:
            return f"x{next(leaves) % n}"
        return f"({('and', 'or')[d % 2]} {' '.join(build(d - 1) for _ in range(fan_in))})"

    return build(depth)


def random_dag(rng: np.random.Generator, n: int, max_gates: int = 12,
               max_depth: int = 4) -> CircuitDag:
    """Random single-output DAG; AND/OR/XOR gates have fan-in >= 2 so that
    unfolding preserves depth exactly."""
    gates: list[Gate] = [Gate(GateKind.INPUT)] * n
    depths = [0] * n
    n_new = int(rng.integers(1, max_gates + 1))
    for _ in range(n_new):
        kind = GATE_CHOICES[int(rng.integers(len(GATE_CHOICES)))]
        eligible = [i for i in range(len(gates)) if depths[i] < max_depth]
        if len(eligible) < 2:
            kind = GateKind.NOT
        fanin = 1 if kind is GateKind.NOT else min(int(rng.integers(2, 4)), len(eligible))
        # distinct operands: parallel edges would break the s^(d-1) unfolding bound
        args = tuple(int(v) for v in rng.choice(eligible, size=fanin, replace=False))
        gates.append(Gate(kind, args))
        depths.append(1 + max(depths[a] for a in args))
    return dag_from_gates(n, tuple(gates), (len(gates) - 1,))


def reference_synth(p, seed: int) -> tuple[CircuitDag, tuple[tuple[int, int], ...]]:
    """(dag, level_ranges) of `synthesis.synth` drawn row by row: the same
    `rng_for(seed, "level", i)` draws, one `Gate` of sorted distinct operands
    per row of each level's draw matrix."""
    gates = [Gate(GateKind.INPUT)] * p.n
    ranges = []
    prev_start, prev_count = 0, p.n
    for spec in p.levels:
        rng = rng_for(seed, "level", spec.index)
        draws = rng.integers(0, prev_count, size=(spec.width, spec.fan_in), dtype=np.int64)
        start = len(gates)
        for row in draws:
            gates.append(Gate(spec.kind, tuple(sorted({prev_start + int(j) for j in row}))))
        ranges.append((start, len(gates)))
        prev_start, prev_count = start, spec.width
    return dag_from_gates(p.n, tuple(gates), (len(gates) - 1,)), tuple(ranges)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
