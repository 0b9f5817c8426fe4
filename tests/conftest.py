"""Shared generators and independent oracles.

The evaluators here are deliberately naive re-implementations used as oracles
against the library's bit-parallel paths; keep them boring.
"""

from __future__ import annotations

import numpy as np
import pytest

from apxmaj.circuits import CircuitDag, FormulaNode, Gate, GateKind
from apxmaj.errors import DimensionError

GATE_CHOICES = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT)


def oracle_eval_dag(c: CircuitDag, x: list[int]) -> list[int]:
    vals = {}
    for i, g in enumerate(c.gates):
        if g.kind is GateKind.INPUT:
            vals[i] = x[i] & 1
        elif g.kind is GateKind.CONST0:
            vals[i] = 0
        elif g.kind is GateKind.CONST1:
            vals[i] = 1
        else:
            bits = [vals[a] for a in g.args]
            if g.kind is GateKind.NOT:
                vals[i] = 1 - bits[0]
            elif g.kind is GateKind.AND:
                vals[i] = int(all(bits))
            elif g.kind is GateKind.OR:
                vals[i] = int(any(bits))
            else:
                vals[i] = sum(bits) % 2
    return [vals[o] for o in c.outputs]


def oracle_eval_formula(f: FormulaNode, x: list[int]) -> int:
    if f.kind is GateKind.INPUT:
        return x[f.var] & 1
    if f.kind is GateKind.CONST0:
        return 0
    if f.kind is GateKind.CONST1:
        return 1
    bits = [oracle_eval_formula(c, x) for c in f.children]
    if f.kind is GateKind.NOT:
        return 1 - bits[0]
    if f.kind is GateKind.AND:
        return int(all(bits))
    if f.kind is GateKind.OR:
        return int(any(bits))
    return sum(bits) % 2


def oracle_table_formula(f: FormulaNode, n: int) -> int:
    table = 0
    for j in range(1 << n):
        x = [(j >> i) & 1 for i in range(n)]
        table |= oracle_eval_formula(f, x) << j
    return table


def oracle_table_dag(c: CircuitDag, output: int = 0) -> int:
    table = 0
    for j in range(1 << c.n_inputs):
        x = [(j >> i) & 1 for i in range(c.n_inputs)]
        table |= oracle_eval_dag(c, x)[output] << j
    return table


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
    return CircuitDag(n, tuple(gates), (len(gates) - 1,))


def random_assignment(rng: np.random.Generator, n: int) -> list[int]:
    return [int(b) for b in rng.integers(0, 2, size=n)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
