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

Sampling is deterministic in (seed, node path).  One traversal,
:func:`_eval_node`, serves every sampler over one value algebra of packed
uint64 words (`_PolyAlgebra` composes the same draws symbolically above
n = 20).  :func:`sample` is the batch of one: its truth table is
``sample_tables(recipe, 1, seed)[0]``, and :func:`eval_sample` evaluates that
same polynomial at one point, at every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .circuits import FormulaNode, GateKind, pack_lanes
from .errors import ResourceLimitError
from .gf2poly import (
    SparsePolyF2,
    _as_mask,
    add,
    elementary_symmetric_combine,
    from_truth_table,
    majority_anf_coefficients,
    majority_words,
    mobius_transform,
    mul,
    one,
    table_words,
    valid_words,
    variable,
    variable_words,
    zero,
)
from .rng import rng_for

# Error reduction uses majority over t = smallest odd integer >= 4*ln(1/eps)+1
# independent copies; Hoeffding at per-copy error 1/8 gives error <= exp(-9t/32)
# <= eps.  That rule satisfies t <= C1 * ceil(log2(1/eps)) for every eps < 1/8,
# and C2 = 20*C1 is what the degree recursion needs.
C1 = 8.7
C2 = 174.0

SAMPLE_TABLE_MAX_N = 20


@dataclass(frozen=True)
class GateApproximator:
    kind: GateKind
    fan_in: int
    eps: Fraction  # target error; achieved error is 2^-k (0 if exact)
    k: int         # random linear factors; 0 means the gate is exact

    @property
    def exact(self) -> bool:
        return self.k == 0

    @property
    def achieved_error(self) -> Fraction:
        return Fraction(0) if self.exact else Fraction(1, 2**self.k)


def razborov_gate_recipe(kind: GateKind, m: int, eps: Fraction | float) -> GateApproximator:
    """Approximator for one unbounded fan-in gate at error eps.

    AND/OR get k = ceil(log2(1/eps)) random subset-parity factors (degree <= k,
    one-sided: OR never errs on the all-zero input, AND never on all-ones).
    XOR is exactly linear for any eps.
    """
    epsf = Fraction(eps)
    if not 0 < epsf < 1:
        raise ValueError(f"error must be in (0, 1), got {eps}")
    if m < 1:
        raise ValueError("fan-in must be at least 1")
    if kind in (GateKind.XOR, GateKind.NOT):
        return GateApproximator(kind, m, epsf, 0)
    if kind not in (GateKind.AND, GateKind.OR):
        raise ValueError(f"no approximator for gate kind {kind}")
    k = _ceil_log2_ratio(epsf.denominator, epsf.numerator)
    return GateApproximator(kind, m, epsf, k)


def _ceil_log2_ratio(num: int, den: int) -> int:
    """Smallest k with 2^k >= num/den."""
    k = 0
    while den << k < num:
        k += 1
    return k


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
class LedgerEntry:
    node_id: int
    kind: str
    size: int          # leaf count of the subformula at this node
    parent_size: int   # leaf count of the enclosing formula (s in s_i/(16s))
    eps: Fraction      # error budget charged at this node (0 if exact)
    k_or_t: int        # factor count for gates, copy count for reductions
    degree_bound: int


@dataclass(frozen=True)
class CompiledRecipe:
    root: RecipeNode
    n: int
    formula_size: int
    formula_depth: int

    @property
    def degree_bound(self) -> int:
        return self.root.degree_bound

    @property
    def err_bound(self) -> float:
        return self.root.err_bound

    @property
    def theoretical_bound(self) -> float:
        return theoretical_degree(self.formula_size, max(self.formula_depth - 1, 0))

    def ledger(self) -> list[LedgerEntry]:
        """One row per node.  `eps` is the budget charged at that node: a
        gate's own approximator error, a reduction's target, or -- for exact
        children of an inner gate -- the s_i/(16s) share assigned to them, so
        that per-gate child budgets always sum to exactly 1/16."""
        entries: list[LedgerEntry] = []

        def walk(node: RecipeNode, parent_size: int, assigned: Fraction | None):
            node_id = len(entries)
            budget = assigned if assigned is not None else Fraction(0)
            if isinstance(node, VarNode):
                entries.append(LedgerEntry(node_id, "var", 1, parent_size, budget, 0, 1))
            elif isinstance(node, ConstNode):
                entries.append(LedgerEntry(node_id, "const", 1, parent_size, budget, 0, 0))
            elif isinstance(node, ReduceNode):
                entries.append(LedgerEntry(node_id, "reduce", node.size, parent_size,
                                           node.target, node.t, node.degree_bound))
                walk(node.child, parent_size, None)
            else:
                eps = node.approx.eps if not node.approx.exact else budget
                entries.append(LedgerEntry(node_id, node.kind.value.lower(), node.size,
                                           parent_size, eps, node.approx.k, node.degree_bound))
                inner = not node.base and node.kind is not GateKind.NOT
                for c in node.children:
                    share = Fraction(c.size, 16 * node.size) if inner else None
                    if isinstance(c, ReduceNode):
                        share = None  # the reduce row carries it
                    walk(c, node.size, share)

        walk(self.root, self.root.size, None)
        return entries


def compile_formula(f: FormulaNode) -> CompiledRecipe:
    root = _compile(f)
    assert root.err_bound <= 0.125 + 1e-12
    return CompiledRecipe(
        root=root,
        n=f.n_vars,
        formula_size=f.size,
        formula_depth=f.depth,
    )


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
        approx = GateApproximator(GateKind.NOT, 1, Fraction(0), 0)
        return GateNode(GateKind.NOT, approx, (child,), base=False, size=child.size,
                        degree_bound=child.degree_bound, err_bound=child.err_bound)

    m = len(f.children)
    is_base = all(not c.children for c in f.children)
    if is_base:
        approx = razborov_gate_recipe(kind, m, Fraction(1, 8))
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
    approx = razborov_gate_recipe(kind, m, Fraction(1, 16))
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

def theoretical_degree(s: int | float, d: int, c2: float = C2) -> float:
    """3*(c2*((1/d)*log2(s) + 1))^d, with the depth-1 (d=0) value 3."""
    if s < 1:
        raise ValueError("formula size must be >= 1")
    if d < 0:
        raise ValueError("depth exponent must be >= 0")
    if d == 0:
        return 3.0
    return 3.0 * _powi(c2 * (math.log2(s) / d + 1.0), d)


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
    r = 1.0
    while k:
        if k & 1:
            r *= x
        x *= x
        k >>= 1
    return r


def formula_size_lower_bound(n: int, d: int, degree_lb: int, c2: float = C2) -> int | float:
    """Least formula size s whose certified degree bound at depth d reaches
    degree_lb; any function of approximate degree >= degree_lb needs depth-d
    formulas at least this large.  Returns inf when depth d cannot reach it
    at any size (d = 1 caps at degree 3).  n is recorded by callers only.
    """
    if degree_lb < 1:
        raise ValueError("degree lower bound must be >= 1")
    if d < 1:
        raise ValueError("depth must be >= 1")
    dd = d - 1
    if theoretical_degree(1, dd, c2) >= degree_lb:
        return 1
    if dd == 0:
        return math.inf
    hi = 2
    while theoretical_degree(hi, dd, c2) < degree_lb:
        hi *= 2
        if hi > 2**4096:
            return math.inf
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if theoretical_degree(mid, dd, c2) >= degree_lb:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# sampling: one traversal, two value algebras

def _draw_subsets(seed: int, path: tuple, k: int, lanes: int, m: int) -> np.ndarray:
    """(k, lanes, m) subset-selection bits of one gate, one row per sample."""
    return rng_for(seed, *path, "subsets-batch").integers(0, 2, size=(k, lanes, m), dtype=np.uint8)


class _WordAlgebra:
    """Values are (lanes, W) uint64 words, one row per independent sample,
    computed from given (n, W) input words; `full` masks the valid bits.

    On the enumeration words of :func:`variable_words` a row is a packed
    truth table; on one word holding x it is the sample's value at x.
    """

    xor = staticmethod(np.bitwise_xor)
    and_ = staticmethod(np.bitwise_and)

    def __init__(self, inputs: np.ndarray, full: np.ndarray, lanes: int):
        self.inputs = inputs
        self.full = full
        self.shape = (lanes, inputs.shape[1])

    def var(self, i: int) -> np.ndarray:
        return np.broadcast_to(self.inputs[i], self.shape)

    def const(self, b: int) -> np.ndarray:
        return np.broadcast_to(self.full if b else np.zeros_like(self.full), self.shape)

    def lnot(self, v):
        return v ^ self.full

    def draw_subsets(self, seed: int, path: tuple, k: int, m: int) -> np.ndarray:
        return _draw_subsets(seed, path, k, self.shape[0], m)

    def subset_parity(self, values, row) -> np.ndarray:
        # row: (lanes, m) selection bits for this factor
        acc = np.zeros(self.shape, dtype=np.uint64)
        for i, v in enumerate(values):
            acc ^= v & -row[:, i, None].astype(np.uint64)
        return acc

    def majority(self, copies) -> np.ndarray:
        return majority_words(copies, self.full)


class _PolyAlgebra:
    """Values are SparsePolyF2; multilinear reduction keeps ANF canonical."""

    xor = staticmethod(add)
    and_ = staticmethod(mul)

    def __init__(self, n: int):
        self.n = n

    def var(self, i):
        return variable(self.n, i)

    def const(self, b):
        return one(self.n) if b else zero(self.n)

    def lnot(self, v):
        return add(one(self.n), v)

    def draw_subsets(self, seed: int, path: tuple, k: int, m: int) -> np.ndarray:
        return _draw_subsets(seed, path, k, 1, m)[:, 0]

    def subset_parity(self, values, row):
        return reduce(add, (v for v, b in zip(values, row) if b), zero(self.n))

    def majority(self, copies):
        t = len(copies)
        return elementary_symmetric_combine(majority_anf_coefficients(t), copies)


def _eval_node(node: RecipeNode, alg, seed: int, path: tuple):
    if isinstance(node, VarNode):
        return alg.var(node.index)
    if isinstance(node, ConstNode):
        return alg.const(node.bit)
    if isinstance(node, ReduceNode):
        copies = [
            _eval_node(node.child, alg, seed, path + ("copy", c)) for c in range(node.t)
        ]
        return alg.majority(copies)
    values = [
        _eval_node(c, alg, seed, path + ("ch", i)) for i, c in enumerate(node.children)
    ]
    kind = node.kind
    if kind is GateKind.NOT:
        return alg.lnot(values[0])
    if kind is GateKind.XOR:
        return reduce(alg.xor, values)
    subsets = alg.draw_subsets(seed, path, node.approx.k, len(values))
    if kind is GateKind.AND:
        values = [alg.lnot(v) for v in values]
    factors = [alg.lnot(alg.subset_parity(values, subsets[j])) for j in range(node.approx.k)]
    product = reduce(alg.and_, factors)
    return product if kind is GateKind.AND else alg.lnot(product)


def sample(recipe: CompiledRecipe, seed: int) -> SparsePolyF2:
    """Draw one polynomial: the batch of one, ``sample_tables(recipe, 1, seed)[0]``.

    Deterministic in seed, degree <= degree_bound.  Above n = 20 the same
    draws are composed symbolically.
    """
    n = recipe.n
    if n <= SAMPLE_TABLE_MAX_N:
        row = sample_tables(recipe, 1, seed)[0]
        return from_truth_table(int.from_bytes(row.tobytes(), "little"), n)
    return _eval_node(recipe.root, _PolyAlgebra(n), seed, ())


def eval_sample(recipe: CompiledRecipe, x: Sequence[int] | int, seed: int) -> int:
    """Value of sample(recipe, seed) at x, without materializing the polynomial."""
    inputs = pack_lanes(recipe.n, [_as_mask(recipe.n, x)])
    alg = _WordAlgebra(inputs, np.ones(1, dtype=np.uint64), 1)
    return int(_eval_node(recipe.root, alg, seed, ())[0, 0])


def sample_tables(recipe: CompiledRecipe, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, max(1, 2^n/8)) packed truth tables of independent samples.

    Each row is one sampled polynomial's function table (bit j = value at
    assignment j, little-endian bytes); rows use independent draws derived
    from the one seed.
    """
    n = recipe.n
    if n > SAMPLE_TABLE_MAX_N:
        raise ResourceLimitError(f"batched sampling capped at n <= {SAMPLE_TABLE_MAX_N}")
    alg = _WordAlgebra(variable_words(n), valid_words(n), n_samples)
    words = _eval_node(recipe.root, alg, seed, ())
    tables = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.ascontiguousarray(tables[:, : max(1, (1 << n) // 8)])


def table_degrees(tables: np.ndarray, n: int) -> np.ndarray:
    """ANF degree of each packed table row (the layout of sample_tables)."""
    rows = np.ascontiguousarray(tables, dtype=np.uint8)
    pad = 8 * table_words(n) - rows.shape[-1]
    if pad:
        rows = np.pad(rows, ((0, 0), (0, pad)))
    coeffs = mobius_transform(rows.view("<u8"), n)
    masks = _weight_words(n)
    degrees = np.zeros(len(coeffs), dtype=np.uint8)
    for d in range(1, n + 1):
        degrees[(coeffs & masks[d]).any(axis=1)] = d
    return degrees


def _weight_words(n: int) -> np.ndarray:
    """(n+1, W) masks: row d selects the table entries of Hamming weight d."""
    out = np.zeros((n + 1, table_words(n)), dtype=np.uint64)
    cols = np.arange(out.shape[1])
    for e in range(min(n, 6) + 1):
        low = sum(1 << b for b in range(min(64, 1 << n)) if b.bit_count() == e)
        out[np.bitwise_count(cols) + e, cols] = low
    return out


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


def ledger_csv_rows(recipe: CompiledRecipe) -> list[list]:
    rows: list[list] = [["node_id", "kind", "size_i", "parent_size", "eps_num", "eps_den",
                         "k_or_t", "degree_bound"]]
    for e in recipe.ledger():
        rows.append([e.node_id, e.kind, e.size, e.parent_size,
                     e.eps.numerator, e.eps.denominator, e.k_or_t, e.degree_bound])
    return rows
