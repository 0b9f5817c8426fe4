"""Compilation of AND/OR/NOT/XOR formulas into seedable distributions over
low-degree GF(2) polynomials with certified per-input error.

The construction is recursive.  A gate over leaves gets a random-parity
approximator: OR is 1 + prod_j (1 + <S_j, y>) over k independent uniform
subsets S_j, which errs with probability exactly 2^-k on inputs where some
y_i = 1 and never on the all-zero input; AND is its De Morgan dual; XOR and
NOT are exact linear maps.  An inner node first recompiles each child down to
an error budget proportional to its leaf count (majority-of-t-copies error
reduction), then composes a fresh 1/16-error approximator for its own gate.
The resulting root error is at most 1/16 + 1/16 = 1/8 on every input, and the
certified degree bound obeys the closed form checked by
:func:`theoretical_degree`.

Sampling is deterministic in (seed, node path, lane chunk).  One bitsliced
traversal, :func:`_eval_node`, serves every sampler (row = input point, bit =
sample).  :func:`sample` is lane 0 of :func:`sample_tables`, capped at n <= 20
as it is, and :func:`eval_sample` is that lane's value at one point, at any n:
the same traversal over a single row.  `sample` and :func:`table_degrees`
read ANFs off these rows with `gf2poly.mobius_transform`.  A node of error
bound 0 is the same in every sample: a (R, 1) column, each row all 0s or all
1s (see :class:`_Lanes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from typing import NamedTuple, Union

import numpy as np

from .circuits import FormulaNode, GateKind
from .errors import ResourceLimitError
from .gf2poly import SparsePolyF2, assignment_bits, int_bits, lane_bits, majority_words, mobius_transform
from .rng import rng_for

# Error reduction uses majority over t = smallest odd integer >= 4*ln(1/eps)+1
# independent copies; Hoeffding at per-copy error 1/8 gives error <= exp(-9t/32)
# <= eps.  That rule satisfies t <= C1 * ceil(log2(1/eps)) for every eps < 1/8,
# and C2 = 20*C1 is what the degree recursion needs.
C1 = 8.7
C2 = 174.0

SAMPLE_TABLE_MAX_N = 20
# samples per lane chunk: each chunk draws its own subsets, and `compile`
# holds one chunk's tables at a time, so its memory is flat in --trials
LANE_CHUNK = 4096
# lane-constant children per subset-parity lookup table (2^8 rows)
LOOKUP_BITS = 8
# Sampler work, in word operations: each node visit of a traversal (a
# reduction visits its child t times) costs its rows x lane words, plus
# VISIT_OVERHEAD for the Python and numpy calls of a visit (about 17 us, at
# 3-12 ns a word).  The largest test or benchmark call takes 8.3e7; the cap
# keeps a call under about 10 s and refuses alternating AND/OR formulas of
# fan-in 3 from depth 4 (541,216 visits) on.
SAMPLE_WORK_CAP = 10**9
VISIT_OVERHEAD = 4096


@dataclass(frozen=True)
class GateApproximator:
    kind: GateKind
    eps: Fraction  # target error; achieved error is 2^-k (0 if exact)
    k: int         # random linear factors; 0 means the gate is exact

    @property
    def exact(self) -> bool:
        return self.k == 0

    @property
    def achieved_error(self) -> Fraction:
        return Fraction(0) if self.exact else Fraction(1, 2**self.k)


def razborov_gate_recipe(kind: GateKind, eps: Fraction | float) -> GateApproximator:
    """Approximator for one unbounded fan-in gate at error eps.

    AND/OR get k = ceil(log2(1/eps)) random subset-parity factors (degree <= k,
    one-sided: OR never errs on the all-zero input, AND never on all-ones).
    XOR is exactly linear for any eps.
    """
    epsf = Fraction(eps)
    if not 0 < epsf < 1:
        raise ValueError(f"error must be in (0, 1), got {eps}")
    if kind in (GateKind.XOR, GateKind.NOT):
        return GateApproximator(kind, epsf, 0)
    if kind not in (GateKind.AND, GateKind.OR):
        raise ValueError(f"no approximator for gate kind {kind}")
    k = ((epsf.denominator - 1) // epsf.numerator).bit_length()  # least k, 2^k >= 1/eps
    return GateApproximator(kind, epsf, k)


# ---------------------------------------------------------------------------
# recipe tree

@dataclass(frozen=True)
class VarNode:
    index: int
    size: int = 1
    degree_bound: int = 1
    err_bound: float = 0.0


@dataclass(frozen=True)
class ConstNode:
    bit: int
    size: int = 1
    degree_bound: int = 0
    err_bound: float = 0.0


@dataclass(frozen=True)
class GateNode:
    kind: GateKind
    approx: GateApproximator
    children: tuple["RecipeNode", ...]
    base: bool  # True iff all children are formula leaves (gate budget 1/8)
    size: int
    degree_bound: int
    err_bound: float


@dataclass(frozen=True)
class ReduceNode:
    child: "RecipeNode"
    t: int
    target: Fraction
    size: int
    degree_bound: int
    err_bound: float


RecipeNode = Union[VarNode, ConstNode, GateNode, ReduceNode]


def error_reduce(node: RecipeNode, eps: Fraction | float) -> ReduceNode:
    """Majority of t independent copies, t = smallest odd >= 4*ln(1/eps)+1.

    Requires eps < 1/8 (at or above the per-copy guarantee the reduction is
    pointless and is rejected) and a child certified to error <= 1/8.
    """
    epsf = Fraction(eps)
    if not 0 < epsf < Fraction(1, 8):
        raise ValueError(f"reduction target must be in (0, 1/8), got {eps}")
    if node.err_bound > 0.125 + 1e-12:
        raise ValueError("error reduction requires a child with error <= 1/8")
    t = reduction_copies(epsf)
    hoeffding = math.exp(-9.0 * t / 32.0)
    err = min(hoeffding, t * node.err_bound)  # maj wrong => >= 1 copy wrong
    return ReduceNode(
        child=node,
        t=t,
        target=epsf,
        size=node.size,
        degree_bound=t * node.degree_bound,
        err_bound=err,
    )


def reduction_copies(eps: Fraction) -> int:
    t = math.ceil(4.0 * math.log(float(1 / eps)) + 1.0)
    return t if t % 2 == 1 else t + 1


@dataclass(frozen=True)
class CompiledRecipe:
    root: RecipeNode
    n: int
    formula_depth: int

    @property
    def formula_size(self) -> int:
        return self.root.size

    @property
    def degree_bound(self) -> int:
        return self.root.degree_bound

    @property
    def err_bound(self) -> float:
        return self.root.err_bound

    @property
    def theoretical_bound(self) -> float:
        return theoretical_degree(self.formula_size, max(self.formula_depth - 1, 0))

    @cached_property
    def visits(self) -> int:
        """Node visits of one sampler traversal: a reduction visits its child t times."""
        def count(node: RecipeNode) -> int:
            if isinstance(node, ReduceNode):
                return 1 + node.t * count(node.child)
            return 1 + sum(map(count, getattr(node, "children", ())))
        return count(self.root)

    def ledger(self) -> list[tuple]:
        """The rows of ledger.csv: the header, then one tuple per node in
        preorder.  `size_i` is the node's leaf count, `parent_size` that of
        the enclosing formula (s in s_i/(16s)), `k_or_t` the factor count of a
        gate or the copy count of a reduction.  eps_num/eps_den is the budget
        charged at that node: a gate's own approximator error, a reduction's
        target, or -- for exact children of an inner gate -- the s_i/(16s)
        share assigned to them, so that per-gate child budgets always sum to
        exactly 1/16; else 0."""
        rows = [("node_id", "kind", "size_i", "parent_size", "eps_num", "eps_den", "k_or_t", "degree_bound")]

        def row(kind: str, size: int, parent_size: int, eps: Fraction, k_or_t: int, degree: int):
            rows.append((len(rows) - 1, kind, size, parent_size, eps.numerator, eps.denominator, k_or_t, degree))

        def walk(node: RecipeNode, parent_size: int, assigned: Fraction | None):
            budget = assigned if assigned is not None else Fraction(0)
            if isinstance(node, VarNode):
                row("var", 1, parent_size, budget, 0, 1)
            elif isinstance(node, ConstNode):
                row("const", 1, parent_size, budget, 0, 0)
            elif isinstance(node, ReduceNode):
                row("reduce", node.size, parent_size, node.target, node.t, node.degree_bound)
                walk(node.child, parent_size, None)
            else:
                eps = node.approx.eps if not node.approx.exact else budget
                row(node.kind.value.lower(), node.size, parent_size, eps, node.approx.k, node.degree_bound)
                inner = not node.base and node.kind is not GateKind.NOT
                for c in node.children:
                    share = Fraction(c.size, 16 * node.size) if inner else None
                    if isinstance(c, ReduceNode):
                        share = None  # the reduce row carries it
                    walk(c, node.size, share)

        walk(self.root, self.root.size, None)
        return rows


def compile_formula(f: FormulaNode) -> CompiledRecipe:
    root = _compile(f)
    assert root.err_bound <= 0.125 + 1e-12
    return CompiledRecipe(root=root, n=f.n_vars, formula_depth=f.depth)


def _compile(f: FormulaNode) -> RecipeNode:
    kind = f.kind
    if kind is GateKind.INPUT:
        return VarNode(f.var)
    if kind is GateKind.CONST0:
        return ConstNode(0)
    if kind is GateKind.CONST1:
        return ConstNode(1)
    if kind is GateKind.NOT:
        child = _compile(f.children[0])
        approx = GateApproximator(GateKind.NOT, Fraction(0), 0)
        return GateNode(GateKind.NOT, approx, (child,), base=False, size=child.size,
                        degree_bound=child.degree_bound, err_bound=child.err_bound)

    is_base = all(not c.children for c in f.children)
    if is_base:
        approx = razborov_gate_recipe(kind, Fraction(1, 8))
        children = tuple(_compile(c) for c in f.children)
        return _make_gate(kind, approx, children, base=True)

    s = f.size
    children = []
    for cf in f.children:
        r = _compile(cf)
        target = Fraction(cf.size, 16 * s)
        if r.err_bound > float(target):
            r = error_reduce(r, target)
        children.append(r)
    approx = razborov_gate_recipe(kind, Fraction(1, 16))
    return _make_gate(kind, approx, tuple(children), base=False)


def _make_gate(kind: GateKind, approx: GateApproximator,
               children: tuple[RecipeNode, ...], base: bool) -> GateNode:
    size = sum(c.size for c in children)
    child_deg = max((c.degree_bound for c in children), default=0)
    child_err = math.fsum(c.err_bound for c in children)
    if approx.exact:  # XOR: sum of children, degree/error carried through
        degree = child_deg
        err = child_err
    else:
        degree = approx.k * max(child_deg, 1)
        err = float(approx.achieved_error) + child_err
    return GateNode(kind, approx, children, base, size, degree, err)


# ---------------------------------------------------------------------------
# closed-form bounds

def theoretical_degree(s: int | float, d: int) -> float:
    """3*(C2*((1/d)*log2(s) + 1))^d, with the depth-1 (d=0) value 3."""
    if s < 1:
        raise ValueError("formula size must be >= 1")
    if d < 0:
        raise ValueError("depth exponent must be >= 0")
    if d == 0:
        return 3.0
    return 3.0 * _powi(C2 * (math.log2(s) / d + 1.0), d)


def check_key_inequality(a: float, b: float, d: int) -> tuple[bool, float]:
    """gap = ((a+b)/(d+1)+1)^(d+1) - (b+1)*(a/d+1)^d; holds iff gap >= -1e-9.

    The gap is nonnegative for a, b >= 0 and vanishes exactly at b = a/d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lhs = (b + 1.0) * _powi(a / d + 1.0, d)
    rhs = _powi((a + b) / (d + 1.0) + 1.0, d + 1)
    gap = rhs - lhs
    return gap >= -1e-9, gap


def _powi(x: float, k: int) -> float:
    """x^k by binary powering; x is squared only while bits of k remain."""
    r = 1.0
    while k:
        if k & 1:
            r *= x
        k >>= 1
        if k:
            x *= x
    return r


# ---------------------------------------------------------------------------
# sampling: one bitsliced traversal

def _draw_subsets(seed: int, path: tuple, k: int, m: int, words: int, chunk: int) -> np.ndarray:
    """(k, m, words) selection bits of one gate in one lane chunk: bit l of
    word [j, i, w] puts child i in factor j of sample 64w + l.  Drawn
    word-major, so the first words do not depend on how many are drawn."""
    raw = rng_for(seed, *path, "subset-lanes", chunk).bit_generator.random_raw(words * k * m)
    return raw.reshape(words, k, m).transpose(1, 2, 0)


_ONES = ~np.uint64(0)


class _Lanes(NamedTuple):
    """Bitsliced values (as in Biham's bitsliced DES) are (R, W) uint64
    arrays: row r for input point r, bit l of word w for sample 64w + l of
    lane chunk `chunk`.  Variables (the rows of `columns`), constants, and NOT
    and XOR of them (the nodes of error bound 0) are (R, 1) columns that
    broadcast over the lanes, and each row of a column is all 0s or all 1s:
    the subset-parity lookup of `_eval_node` reads one bit per column and row."""

    columns: np.ndarray  # (n, R)
    words: int
    chunk: int


def _eval_node(node: RecipeNode, lanes: _Lanes, seed: int, path: tuple) -> np.ndarray:
    if isinstance(node, VarNode):
        return lanes.columns[node.index, :, None]
    if isinstance(node, ConstNode):
        return np.full((lanes.columns.shape[1], 1), _ONES if node.bit else 0, dtype=np.uint64)
    if isinstance(node, ReduceNode):
        copies = [_eval_node(node.child, lanes, seed, path + ("copy", c)) for c in range(node.t)]
        return majority_words(copies)
    values = [_eval_node(c, lanes, seed, path + ("ch", i)) for i, c in enumerate(node.children)]
    kind = node.kind
    if kind is GateKind.NOT:
        return ~values[0]
    if kind is GateKind.XOR:
        return reduce(np.bitwise_xor, values)
    subsets = _draw_subsets(seed, path, node.approx.k, len(values), lanes.words, lanes.chunk)
    if kind is GateKind.AND:
        values = [~v for v in values]
    # Children of error bound 0 are lane-constant columns: a factor's parity
    # over a block of them is a lookup (the method of four Russians), in a table
    # whose row t XORs the selection words of the columns set in t.
    exact = [i for i, c in enumerate(node.children) if c.err_bound == 0]
    blocks = []
    for start in range(0, len(exact), LOOKUP_BITS):
        block = exact[start:start + LOOKUP_BITS]
        index = np.packbits(np.concatenate([values[i] for i in block], axis=1), axis=1, bitorder="little")
        table = np.zeros_like(subsets[:, :1])  # (k, 2^t, W) after t columns
        for i in block:
            table = np.concatenate([table, table ^ subsets[:, i, None]], axis=1)
        blocks.append((table, index[:, 0]))
    if len(exact) == len(values) <= LOOKUP_BITS:  # one table: OR its k factors, then gather once
        product = np.bitwise_or.reduce(blocks[0][0], axis=0).take(blocks[0][1], axis=0)
    else:
        product = None
        for j, row in enumerate(subsets):  # (m, W) selection words of one factor
            acc = None
            for part in chain((tab[j].take(idx, axis=0) for tab, idx in blocks),
                              (v & s for v, s, c in zip(values, row, node.children) if c.err_bound != 0)):
                acc = part if acc is None else np.bitwise_xor(acc, part, out=acc)
            product = acc if product is None else np.bitwise_or(product, acc, out=product)  # OR_j <S_j, y>
    return np.invert(product, out=product) if kind is GateKind.AND else product  # = 1 + prod_j (1 + <S_j, y>)


def check_sample_work(recipe: CompiledRecipe, rows: int, words: int) -> None:
    """ResourceLimitError if one traversal over rows x lane words takes more
    than SAMPLE_WORK_CAP word operations."""
    work = recipe.visits * (rows * words + VISIT_OVERHEAD)
    if work > SAMPLE_WORK_CAP:
        raise ResourceLimitError(f"sampling needs {work:.3g} word operations ({recipe.visits} node visits), "
                                 f"over compiler.SAMPLE_WORK_CAP = {SAMPLE_WORK_CAP:.0e}")


def sample(recipe: CompiledRecipe, seed: int) -> SparsePolyF2:
    """Draw one polynomial: lane 0 of ``sample_tables(recipe, N, seed)`` for any N.

    Deterministic in seed, degree <= degree_bound.  Capped at n <= 20, as
    sample_tables is; eval_sample reads the same lane at any n.
    """
    coeffs = mobius_transform(sample_tables(recipe, 1, seed))[:, 0] & np.uint64(1)
    return SparsePolyF2(recipe.n, frozenset(np.flatnonzero(coeffs).tolist()))


def eval_sample(recipe: CompiledRecipe, x: int, seed: int) -> int:
    """Value of sample(recipe, seed) at x, without materializing the polynomial:
    lane 0 of a single row, whose variable columns are all ones or all zeros."""
    columns = _ONES * int_bits([x], recipe.n).T  # DimensionError for an x beyond n bits
    check_sample_work(recipe, 1, 1)
    return int(_eval_node(recipe.root, _Lanes(columns, 1, 0), seed, ())[0, 0] & np.uint64(1))


def sample_tables(recipe: CompiledRecipe, n_samples: int, seed: int, chunk: int = 0) -> np.ndarray:
    """(2^n, ceil(n_samples/64)) bitsliced truth tables of independent samples.

    Bit l of word w in row j is sample 64w + l's value at assignment j; bits
    past n_samples are 0.  Samples are lanes of the sampler, numbered from
    lane chunk `chunk` on: lane c * LANE_CHUNK + l draws from (seed, node
    path, c), so a lane's polynomial does not depend on how many are drawn.
    Raises ResourceLimitError above n = 20, and above SAMPLE_WORK_CAP (as eval_sample does).
    """
    n = recipe.n
    if n > SAMPLE_TABLE_MAX_N:
        raise ResourceLimitError(f"sampling capped at n <= {SAMPLE_TABLE_MAX_N}, got {n}")
    check_sample_work(recipe, 1 << n, -(-n_samples // 64))
    columns = _ONES * assignment_bits(n, 0, 1 << n)
    out = np.empty((1 << n, -(-n_samples // 64)), dtype=np.uint64)
    for c, w in enumerate(range(0, out.shape[1], LANE_CHUNK // 64), chunk):
        part = out[:, w:w + LANE_CHUNK // 64]
        part[:] = _eval_node(recipe.root, _Lanes(columns, part.shape[1], c), seed, ())
    out[:, -1:] &= _ONES >> np.uint64(-n_samples % 64)  # zero the lanes past n_samples
    return out


def table_degrees(tables: np.ndarray) -> np.ndarray:
    """ANF degree of every lane of bitsliced tables (the layout of
    sample_tables, 2^n rows): a (64 W,) uint8 array, 0 for lanes that are all 0."""
    coeffs = mobius_transform(tables)
    n = len(coeffs).bit_length() - 1
    weights = np.bitwise_count(np.arange(1 << n))
    by_weight = np.stack([np.bitwise_or.reduce(coeffs[weights == d]) for d in range(n + 1)])
    lanes = lane_bits(by_weight, 64 * tables.shape[1])
    return (lanes * np.arange(n + 1, dtype=np.uint8)[:, None]).max(axis=0)


# ---------------------------------------------------------------------------
# serialization

def recipe_to_json(recipe: CompiledRecipe) -> dict:
    return {
        "n": recipe.n,
        "formula_size": recipe.formula_size,
        "formula_depth": recipe.formula_depth,
        "degree_bound": recipe.degree_bound,
        "err_bound": recipe.err_bound,
        "c1": C1,
        "c2": C2,
        "theoretical_degree_bound": recipe.theoretical_bound,
        "root": _node_to_json(recipe.root),
    }


def _node_to_json(node: RecipeNode) -> dict:
    if isinstance(node, VarNode):
        return {"type": "var", "index": node.index}
    if isinstance(node, ConstNode):
        return {"type": "const", "bit": node.bit}
    if isinstance(node, ReduceNode):
        return {
            "type": "reduce",
            "t": node.t,
            "eps": _frac_json(node.target),
            "degree_bound": node.degree_bound,
            "err_bound": node.err_bound,
            "child": _node_to_json(node.child),
        }
    return {
        "type": "gate",
        "kind": node.kind.value,
        "base": node.base,
        "k": node.approx.k,
        "eps": _frac_json(node.approx.eps),
        "degree_bound": node.degree_bound,
        "err_bound": node.err_bound,
        "children": [_node_to_json(c) for c in node.children],
    }


def _frac_json(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator, "value": float(fr)}

