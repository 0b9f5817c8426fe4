"""Circuit and formula IR: parsing, metrics, and bit-parallel evaluation.

Two representations are used throughout the package:

* :class:`CircuitDag` -- a topologically ordered gate list with shared
  subterms and any number of outputs.  Size counts non-input, non-constant
  gates; depth counts gates along the longest leaf-to-output path.
* :class:`FormulaNode` -- a tree.  Size counts leaves (variable/constant
  occurrences), matching the usual formula-size convention.

Evaluation has a scalar reference, `eval_circuit`, and one word evaluator,
:class:`PackedEvaluator`, which batches gates level by level into numpy index
matrices and evaluates 64 assignments per uint64 word.  `pack_lanes` packs
assignments into its input words; `enumeration_words` yields those of every
assignment, for `exhaustive_table` and exact certification.

`CircuitDag.cone` drops the gates that reach no output (dead-gate
elimination, the "sweep" of logic synthesis).  Certification and exact
truth tables evaluate the cone: a synthesized approximate-majority circuit
feeds its top gate from a small sample of the level below, so most of its
gates are dead (4,240 of 32,769 live at n=101, d=3, 2^14-wide levels).
Per-level statistics of synthesized circuits need whole levels, and the
netlist writer emits the whole DAG.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionError, ParseError, ResourceLimitError
from .gf2poly import valid_words, variable_words

WORD_BITS = 64
# words per PackedEvaluator call in chunked evaluation (16,384 lanes)
CHUNK_WORDS = 256
# most inputs an exhaustive truth table enumerates (2^20 assignments)
EXHAUSTIVE_MAX_N = 20

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class GateKind(Enum):
    INPUT = "INPUT"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    XOR = "XOR"


LEAF_KINDS = frozenset({GateKind.INPUT, GateKind.CONST0, GateKind.CONST1})
MONOTONE_KINDS = frozenset({GateKind.AND, GateKind.OR})


def _check_arity(kind: GateKind, n_args: int) -> None:
    if kind in LEAF_KINDS:
        if n_args != 0:
            raise ParseError(f"{kind.value} takes no operands, got {n_args}")
    elif kind is GateKind.NOT:
        if n_args != 1:
            raise ParseError(f"NOT takes exactly 1 operand, got {n_args}")
    elif n_args < 1:
        raise ParseError(f"{kind.value} needs at least 1 operand")


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class CircuitDag:
    """Gate list in topological order; ids 0..n_inputs-1 are the inputs."""

    n_inputs: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.n_inputs < 0:
            raise ValueError("negative input count")
        for i, g in enumerate(self.gates):
            if i < self.n_inputs:
                if g.kind is not GateKind.INPUT:
                    raise ValueError(f"gate {i} must be INPUT")
            elif g.kind is GateKind.INPUT:
                raise ValueError(f"INPUT gate {i} after internal gates")
            _check_arity(g.kind, len(g.args))
            for a in g.args:
                if not 0 <= a < i:
                    raise ValueError(f"gate {i} references {a}, not topological")
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise ValueError(f"output {o} out of range")

    @property
    def size(self) -> int:
        return sum(1 for g in self.gates if g.kind not in LEAF_KINDS)

    @property
    def depth(self) -> int:
        d = self._gate_depths()
        return max((d[o] for o in self.outputs), default=0)

    def _gate_depths(self) -> list[int]:
        d = [0] * len(self.gates)
        for i, g in enumerate(self.gates):
            if g.kind not in LEAF_KINDS:
                d[i] = 1 + max((d[a] for a in g.args), default=0)
        return d

    def is_monotone(self) -> bool:
        """True iff every internal gate is AND/OR (no NOT, no XOR)."""
        return all(g.kind in MONOTONE_KINDS or g.kind in LEAF_KINDS for g in self.gates)

    def cone(self) -> "CircuitDag":
        """The output cone: the sub-DAG of the gates that reach an output.

        Dead-gate elimination (the "sweep" of logic synthesis).  Every input is
        kept, so the cone computes the same functions of the same variables;
        live gates keep their topological order and are renumbered densely;
        outputs keep their order, repeats included.
        """
        live = bytearray(len(self.gates))
        for o in self.outputs:
            live[o] = 1
        for i in range(len(self.gates) - 1, self.n_inputs - 1, -1):
            if live[i]:
                for a in self.gates[i].args:
                    live[a] = 1
        new_id = list(range(self.n_inputs)) + [-1] * (len(self.gates) - self.n_inputs)
        gates = list(self.gates[: self.n_inputs])
        for i in range(self.n_inputs, len(self.gates)):
            if live[i]:
                new_id[i] = len(gates)
                g = self.gates[i]
                gates.append(Gate(g.kind, tuple(new_id[a] for a in g.args)))
        return CircuitDag(self.n_inputs, tuple(gates), tuple(new_id[o] for o in self.outputs))


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class FormulaNode:
    kind: GateKind
    children: tuple["FormulaNode", ...] = ()
    var: int | None = None  # for INPUT leaves

    def __post_init__(self):
        if self.kind is GateKind.INPUT:
            if self.var is None or self.var < 0 or self.children:
                raise ValueError("leaf must carry a variable index and no children")
        else:
            _check_arity(self.kind, len(self.children))
            # fan-in-1 AND/OR/XOR may appear only at the root; children of any
            # gate must not be such nodes
            for c in self.children:
                if c.kind in (GateKind.AND, GateKind.OR, GateKind.XOR) and len(c.children) == 1:
                    raise ValueError("fan-in-1 gate feeding another gate")

    @property
    def size(self) -> int:
        """Leaf count (variables and constants, with multiplicity)."""
        if not self.children:
            return 1
        return sum(c.size for c in self.children)

    @property
    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.depth for c in self.children)

    @property
    def gate_count(self) -> int:
        if not self.children:
            return 0
        return 1 + sum(c.gate_count for c in self.children)

    @property
    def n_vars(self) -> int:
        """1 + highest referenced variable index (0 for constant formulas)."""
        if self.kind is GateKind.INPUT:
            return self.var + 1
        return max((c.n_vars for c in self.children), default=0)


def var(i: int) -> FormulaNode:
    return FormulaNode(GateKind.INPUT, var=i)


# ---------------------------------------------------------------------------
# netlist grammar:  input NAME | NAME = KIND NAME... | output NAME

def parse_netlist(text: str) -> CircuitDag:
    input_names: list[str] = []
    gate_rows: list[tuple[str, GateKind, list[str]]] = []
    output_names: list[tuple[str, int]] = []
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "input":
            if len(toks) != 2:
                raise ParseError("expected 'input <name>'", lineno)
            name = toks[1]
            _check_name(name, lineno)
            if name in seen:
                raise ParseError(f"duplicate definition of '{name}'", lineno)
            seen.add(name)
            input_names.append(name)
        elif toks[0] == "output":
            if len(toks) != 2:
                raise ParseError("expected 'output <name>'", lineno)
            output_names.append((toks[1], lineno))
        elif len(toks) >= 3 and toks[1] == "=":
            name = toks[0]
            _check_name(name, lineno)
            if name in seen:
                raise ParseError(f"duplicate definition of '{name}'", lineno)
            try:
                kind = GateKind[toks[2]]
            except KeyError:
                col = raw.find(toks[2], raw.index("=") + 1) + 1
                raise ParseError(f"unknown gate kind '{toks[2]}'", lineno, col)
            if kind is GateKind.INPUT:
                raise ParseError("INPUT is declared with 'input <name>'", lineno)
            args = toks[3:]
            try:
                _check_arity(kind, len(args))
            except ParseError as e:
                raise ParseError(str(e), lineno) from None
            seen.add(name)
            gate_rows.append((name, kind, args))
        else:
            raise ParseError("expected 'input', 'output' or '<name> = <KIND> <operands>'", lineno)

    ids: dict[str, int] = {name: i for i, name in enumerate(input_names)}
    gates: list[Gate] = [Gate(GateKind.INPUT)] * len(input_names)
    for name, kind, args in gate_rows:
        # every key of ids was name-checked where it was defined
        try:
            gates.append(Gate(kind, tuple([ids[a] for a in args])))
        except KeyError as e:
            raise ParseError(f"undefined gate reference '{e.args[0]}' (must be declared earlier)",
                             _definition_line(text, name)) from None
        ids[name] = len(gates) - 1
    outputs = []
    for name, lineno in output_names:
        if name not in ids:
            raise ParseError(f"undefined output '{name}'", lineno)
        outputs.append(ids[name])
    return CircuitDag(len(input_names), tuple(gates), tuple(outputs))


def _definition_line(text: str, name: str) -> int | None:
    """Line defining gate `name`, looked up only on error: no line per gate row is kept."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if len(toks) >= 3 and toks[1] == "=" and toks[0] == name:
            return lineno


def _check_name(name: str, lineno: int) -> None:
    if not _NAME_RE.match(name):
        raise ParseError(f"invalid name '{name}'", lineno)


def serialize_netlist(c: CircuitDag) -> str:
    """Canonical form: inputs x0..x{n-1}, gates g0.. in id order, sorted operands."""
    names = [f"x{i}" for i in range(c.n_inputs)]
    lines = [f"input x{i}" for i in range(c.n_inputs)]
    for i in range(c.n_inputs, len(c.gates)):
        g = c.gates[i]
        name = f"g{i - c.n_inputs}"
        names.append(name)
        ops = " ".join(names[a] for a in sorted(g.args))
        lines.append(f"{name} = {g.kind.value}" + (f" {ops}" if ops else ""))
    for o in c.outputs:
        lines.append(f"output {names[o]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# s-expression formulas:  expr := var | (and expr+) | (or expr+) | (xor expr+) | (not expr)

_SEXPR_KINDS = {"and": GateKind.AND, "or": GateKind.OR, "xor": GateKind.XOR, "not": GateKind.NOT}


def parse_formula(text: str) -> FormulaNode:
    toks = _tokenize_sexpr(text)
    pos = 0

    def parse_expr(root: bool) -> FormulaNode:
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of input")
        tok, line, col = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks):
                raise ParseError("unexpected end of input after '('", line, col)
            op, oline, ocol = toks[pos]
            pos += 1
            if op not in _SEXPR_KINDS:
                raise ParseError(f"unknown operator '{op}'", oline, ocol)
            kind = _SEXPR_KINDS[op]
            children = []
            while pos < len(toks) and toks[pos][0] != ")":
                children.append(parse_expr(False))
            if pos >= len(toks):
                raise ParseError("missing ')'", line, col)
            pos += 1  # consume ')'
            if not root and kind is not GateKind.NOT and len(children) == 1:
                raise ParseError("fan-in-1 gate feeding another gate", oline, ocol)
            try:
                return FormulaNode(kind, tuple(children))
            except (ValueError, ParseError) as e:  # arity and fan-in, from __post_init__
                raise ParseError(str(e), oline, ocol) from None
        elif tok == ")":
            raise ParseError("unexpected ')'", line, col)
        else:
            m = re.match(r"x(\d+)$", tok)
            if not m:
                raise ParseError(f"expected variable 'x<k>', got '{tok}'", line, col)
            return FormulaNode(GateKind.INPUT, var=int(m.group(1)))

    node = parse_expr(True)
    if pos != len(toks):
        line, col = toks[pos][1], toks[pos][2]
        raise ParseError("trailing input after formula", line, col)
    return node


def _tokenize_sexpr(text: str) -> list[tuple[str, int, int]]:
    toks = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split(";", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
            elif ch in "()":
                toks.append((ch, lineno, col + 1))
                col += 1
            else:
                m = re.match(r"[^\s()]+", line[col:])
                toks.append((m.group(0), lineno, col + 1))
                col += len(m.group(0))
    return toks


def serialize_formula(f: FormulaNode) -> str:
    if f.kind is GateKind.INPUT:
        return f"x{f.var}"
    if f.kind in (GateKind.CONST0, GateKind.CONST1):
        raise ValueError("constants are not representable in the formula grammar")
    op = f.kind.value.lower()
    return "(" + " ".join([op] + [serialize_formula(c) for c in f.children]) + ")"


# ---------------------------------------------------------------------------
# evaluation

def eval_circuit(c: CircuitDag, x: Sequence[int]) -> tuple[int, ...]:
    if len(x) != c.n_inputs:
        raise DimensionError(f"expected {c.n_inputs} input bits, got {len(x)}")
    vals = [0] * len(c.gates)
    for i, g in enumerate(c.gates):
        k = g.kind
        if k is GateKind.INPUT:
            vals[i] = x[i] & 1
        elif k is GateKind.CONST0:
            vals[i] = 0
        elif k is GateKind.CONST1:
            vals[i] = 1
        elif k is GateKind.NOT:
            vals[i] = vals[g.args[0]] ^ 1
        elif k is GateKind.AND:
            v = 1
            for a in g.args:
                v &= vals[a]
            vals[i] = v
        elif k is GateKind.OR:
            v = 0
            for a in g.args:
                v |= vals[a]
            vals[i] = v
        else:  # XOR
            v = 0
            for a in g.args:
                v ^= vals[a]
            vals[i] = v
    return tuple(vals[o] for o in c.outputs)


def pack_lanes(n: int, masks: Sequence[int]) -> np.ndarray:
    """(n, ceil(len(masks)/64)) uint64 input words, one assignment per lane:
    bit j of row i is bit i of masks[j]; lanes past the last mask are 0."""
    n_words = (len(masks) + WORD_BITS - 1) // WORD_BITS
    n_bytes = (n + 7) // 8
    for j, m in enumerate(masks):
        if m < 0 or m >> n:
            raise DimensionError(f"lane {j}: mask {m:#x} does not fit {n} variables")
    raw = np.frombuffer(b"".join(m.to_bytes(n_bytes, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), n_bytes), axis=1, count=n, bitorder="little")
    out = np.zeros((n, 8 * n_words), dtype=np.uint8)
    out[:, : (len(masks) + 7) // 8] = np.packbits(bits.T, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64)


def exhaustive_table(c: CircuitDag, output: int = 0) -> int:
    """Truth table of one output as an integer (bit j = value at assignment j,
    where bit i of j is the value of x_i).  Runs :class:`PackedEvaluator` on
    `enumeration_words`."""
    n = c.n_inputs
    if n > EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(f"exhaustive evaluation capped at n <= {EXHAUSTIVE_MAX_N}, got {n}")
    if not 0 <= output < len(c.outputs):
        raise IndexError(f"circuit has {len(c.outputs)} outputs")
    row = c.outputs[output]
    evaluator = PackedEvaluator(c)
    table = np.concatenate([evaluator.run(words)[row] for words in enumeration_words(n)])
    return int.from_bytes((table & valid_words(n)).astype("<u8").tobytes(), "little")


def enumeration_words(n: int):
    """Input words of all 2^n assignments (lane j holds assignment j),
    CHUNK_WORDS words at a time; below 64 assignments the tail lanes are 0."""
    inputs = variable_words(n)
    for s in range(0, inputs.shape[1], CHUNK_WORDS):
        yield inputs[:, s : s + CHUNK_WORDS]


# ---------------------------------------------------------------------------
# transformations

def unfold_to_formula(c: CircuitDag) -> FormulaNode:
    """Expand a single-output DAG into a tree, duplicating shared gates.

    Fan-in-1 AND/OR/XOR gates are identity functions and are collapsed so the
    result satisfies the formula fan-in rule; this never increases gate count
    or depth.
    """
    if len(c.outputs) != 1:
        raise ValueError("unfold requires a single-output circuit")

    def build(i: int) -> FormulaNode:
        g = c.gates[i]
        if g.kind is GateKind.INPUT:
            return FormulaNode(GateKind.INPUT, var=i)
        if g.kind in (GateKind.CONST0, GateKind.CONST1):
            return FormulaNode(g.kind)
        children = tuple(build(a) for a in g.args)
        if g.kind in (GateKind.AND, GateKind.OR, GateKind.XOR) and len(children) == 1:
            return children[0]
        return FormulaNode(g.kind, children)

    return build(c.outputs[0])


def formula_to_dag(f: FormulaNode, n_vars: int | None = None) -> CircuitDag:
    n = f.n_vars if n_vars is None else n_vars
    gates: list[Gate] = [Gate(GateKind.INPUT)] * n

    def build(node: FormulaNode) -> int:
        if node.kind is GateKind.INPUT:
            if node.var >= n:
                raise DimensionError(f"variable x{node.var} out of range for n={n}")
            return node.var
        args = tuple(build(ch) for ch in node.children)
        gates.append(Gate(node.kind, args))
        return len(gates) - 1

    out = build(f)
    return CircuitDag(n, tuple(gates), (out,))


def majority(x: Sequence[int]) -> int:
    """1 iff strictly more than half the bits are 1 (ties go to 0)."""
    ones = sum(b & 1 for b in x)
    return 1 if 2 * ones > len(x) else 0


# ---------------------------------------------------------------------------
# batched evaluator for wide circuits

class PackedEvaluator:
    """Levelized numpy evaluator: gates grouped by (depth, kind) and padded to
    a common fan-in so each level is a gather + reduction over uint64 lanes.

    Bit j of every word is `eval_circuit` on lane j's assignment.  The
    package's only word evaluator: exact truth tables, Monte Carlo
    certification (10^5 assignments) and the per-level statistics of
    synthesized circuits (~2^15 gates) all run on it.
    """

    def __init__(self, c: CircuitDag):
        self.circuit = c
        self.n_rows = len(c.gates) + 2  # two extra rows: const0, const1
        self._const0_row = len(c.gates)
        self._const1_row = len(c.gates) + 1
        depths = c._gate_depths()
        # a constant is the AND (CONST1) or OR (CONST0) of no operands, all padding
        as_gate = {GateKind.CONST0: GateKind.OR, GateKind.CONST1: GateKind.AND}
        groups: dict[tuple[int, GateKind], list[int]] = {}
        for i, g in enumerate(c.gates):
            if g.kind is not GateKind.INPUT:
                groups.setdefault((depths[i], as_gate.get(g.kind, g.kind)), []).append(i)
        self.levels = []
        for (_, kind), members in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
            t = max(1, *(len(c.gates[i].args) for i in members))
            pad = self._const1_row if kind is GateKind.AND else self._const0_row
            idx = np.full((len(members), t), pad, dtype=np.int64)
            for r, i in enumerate(members):
                a = c.gates[i].args
                idx[r, : len(a)] = a
            self.levels.append((kind, np.asarray(members, dtype=np.int64), idx))

    def run(self, input_words: np.ndarray) -> np.ndarray:
        """input_words: (n_inputs, n_words) uint64.  Returns (n_gates+2, n_words)."""
        n_words = input_words.shape[1]
        v = np.zeros((self.n_rows, n_words), dtype=np.uint64)
        v[: self.circuit.n_inputs] = input_words
        v[self._const1_row] = ~np.uint64(0)
        for kind, members, idx in self.levels:
            if kind is GateKind.NOT:
                v[members] = ~v[idx[:, 0]]
                continue
            acc = v[idx[:, 0]].copy()
            op = {GateKind.AND: np.bitwise_and, GateKind.OR: np.bitwise_or, GateKind.XOR: np.bitwise_xor}[kind]
            for col in range(1, idx.shape[1]):
                op(acc, v[idx[:, col]], out=acc)
            v[members] = acc
        return v

    def outputs(self, input_words: np.ndarray) -> np.ndarray:
        v = self.run(input_words)
        return v[np.asarray(self.circuit.outputs, dtype=np.int64)]


def random_input_words(n_vars: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """(n_vars, ceil(n_samples/64)) uint64 of uniform bits; lanes beyond
    n_samples in the last word are zeroed."""
    n_words = (n_samples + WORD_BITS - 1) // WORD_BITS
    words = rng.integers(0, 1 << 63, size=(n_vars, n_words), dtype=np.uint64)
    words |= rng.integers(0, 2, size=(n_vars, n_words), dtype=np.uint64) << np.uint64(63)
    tail = n_samples - (n_words - 1) * WORD_BITS
    if tail < WORD_BITS:
        words[:, -1] &= np.uint64((1 << tail) - 1)
    return words

