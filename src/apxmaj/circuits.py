"""Circuit and formula IR: parsing, metrics, and bit-parallel evaluation.

Two representations are used throughout the package:

* :class:`CircuitDag` -- topologically ordered gates with shared subterms
  and any number of outputs, held as arrays: a uint8 kind code per gate and
  the operand ids in compressed sparse rows.  `CircuitDag.gates` derives
  `Gate` objects from them; no package path reads that view, which stays
  for the test oracles and the benchmark harness's reference counts.  Size
  counts non-input, non-constant gates; depth counts gates along the longest
  leaf-to-output path.
* :class:`FormulaNode` -- a tree.  Size counts leaves (variable/constant
  occurrences), matching the usual formula-size convention.

Evaluation has one word evaluator, :class:`PackedEvaluator`, which batches
gates level by level into numpy index matrices and evaluates 64 assignments
per uint64 word.  `pack_lanes` packs assignments into its input words;
`enumeration_words` yields those of every assignment, for `exhaustive_table`
and exact certification.  Both build the words with `gf2poly`'s converters,
which own the bit layout.

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
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParseError, ResourceLimitError
from .gf2poly import assignment_bits, bits_int, int_bits, lane_bits, lane_words

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


def _check_arity(kind: GateKind, n_args: int, error=ParseError) -> None:
    """Raise error(message) if `kind` cannot take n_args operands."""
    if kind in LEAF_KINDS:
        if n_args != 0:
            raise error(f"{kind.value} takes no operands, got {n_args}")
    elif kind is GateKind.NOT:
        if n_args != 1:
            raise error(f"NOT takes exactly 1 operand, got {n_args}")
    elif n_args < 1:
        raise error(f"{kind.value} needs at least 1 operand")


KINDS = tuple(GateKind)  # a kind's code in CircuitDag.kinds is its index here
_CODE = {k.name: i for i, k in enumerate(KINDS)}  # by the netlist spelling
# the operand counts each kind code allows, and the kind each code evaluates
# as: a constant is the AND (CONST1) or OR (CONST0) of no operands
_ARITY = [(0, 0) if k in LEAF_KINDS else (1, 1) if k is GateKind.NOT else (1, 2**62) for k in KINDS]
_MIN_ARGS, _MAX_ARGS = np.array(_ARITY).T
_EVAL_AS = np.array([_CODE[{"CONST0": "OR", "CONST1": "AND"}.get(k.name, k.name)] for k in KINDS])


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    args: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class CircuitDag:
    """Gates in topological order, held as arrays; ids 0..n_inputs-1 are the inputs.

    Gate i has kind ``KINDS[kinds[i]]`` and the operand ids
    ``operands[offsets[i]:offsets[i + 1]]`` (compressed sparse rows), each
    below i.  Construction validates the arrays in a few vectorized passes;
    `gates` derives `Gate` objects from them for tests, oracles and the
    benchmark harness (no package path reads it).
    """

    n_inputs: int
    kinds: np.ndarray     # uint8 kind code per gate
    offsets: np.ndarray   # int64, one more than the gates, from 0
    operands: np.ndarray  # int32 gate ids, row after row
    outputs: tuple[int, ...]

    def __post_init__(self):
        """ValueError for the first gate that breaks a rule (checked in the order
        INPUT placement, arity, operands), else for the first output out of range."""
        try:
            kinds, offsets, operands = (np.asarray(self.kinds, np.uint8), np.asarray(self.offsets, np.int64),
                                        np.asarray(self.operands, np.int64))
        except OverflowError:
            raise ValueError("a kind code, offset or operand id is out of range") from None
        n_inputs, n, lengths = self.n_inputs, len(kinds), offsets[1:] - offsets[:-1]
        if n_inputs < 0:
            raise ValueError("negative input count")
        if n_inputs > n:
            raise ValueError(f"{n_inputs} inputs but {n} gates")
        if (kinds.ndim != 1 or offsets.shape != (n + 1,) or offsets[0] or (lengths < 0).any()
                or offsets[-1] != len(operands) or (kinds >= len(KINDS)).any() or n > 2**31):
            raise ValueError("kinds, offsets and operands are not compressed rows of known gate kinds")
        owner = _owners(offsets)
        bad = ((kinds == _CODE["INPUT"]) != (np.arange(n) < n_inputs)) | (lengths < _MIN_ARGS[kinds])
        bad |= lengths > _MAX_ARGS[kinds]
        bad[owner[(operands < 0) | (operands >= owner)]] = True
        for i in bad.nonzero()[0][:1].tolist():
            kind = KINDS[kinds[i]]
            if i < n_inputs and kind is not GateKind.INPUT:
                raise ValueError(f"gate {i} must be INPUT")
            if i >= n_inputs and kind is GateKind.INPUT:
                raise ValueError(f"INPUT gate {i} after internal gates")
            _check_arity(kind, int(lengths[i]), ValueError)
            a = next(a for a in operands[offsets[i] : offsets[i + 1]].tolist() if not 0 <= a < i)
            raise ValueError(f"gate {i} references {a}, not topological")
        for o in self.outputs:
            if not 0 <= o < n:
                raise ValueError(f"output {o} out of range")
        for name, value in zip(("kinds", "offsets", "operands", "outputs"),
                               (kinds, offsets, operands.astype(np.int32), tuple(map(int, self.outputs)))):
            object.__setattr__(self, name, value)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        ops, off = self.operands.tolist(), self.offsets.tolist()
        return tuple(Gate(KINDS[k], tuple(ops[lo:hi])) for k, lo, hi in zip(self.kinds.tolist(), off, off[1:]))

    def __eq__(self, other) -> bool:  # arrays make a DAG unhashable
        return isinstance(other, CircuitDag) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(_MIN_ARGS[self.kinds]))  # the gates that take operands

    @property
    def depth(self) -> int:
        return int(self._depths[list(self.outputs)].max(initial=0))

    def is_monotone(self) -> bool:
        """True iff every internal gate is AND/OR (no NOT, no XOR)."""
        return not np.isin(self.kinds, [_CODE["NOT"], _CODE["XOR"]]).any()

    @cached_property
    def _runs(self) -> list[slice]:
        """Operand slices of the maximal id ranges whose gates read only gates
        before the range (a synthesized circuit's levels, a chain's single
        gates), so each range is levelized or swept in one vectorized step."""
        last = np.full(len(self.kinds), -1, dtype=np.int64)  # highest operand id per gate
        rows = (self.offsets[1:] != self.offsets[:-1]).nonzero()[0]
        if rows.size:
            last[rows] = np.maximum.reduceat(self.operands, self.offsets[rows])
        starts, start = [0], 0
        for i, top in enumerate(last.tolist()):
            if top >= start:
                starts.append(start := i)
        off = self.offsets.tolist()
        return [slice(off[a], off[b]) for a, b in zip(starts, starts[1:] + [len(self.kinds)])]

    @cached_property
    def _depths(self) -> np.ndarray:
        """Gates along the longest path from a leaf to each gate (0 at leaves)."""
        depths, owner = np.zeros(len(self.kinds), dtype=np.int64), _owners(self.offsets)
        for edges in self._runs:
            np.maximum.at(depths, owner[edges], depths[self.operands[edges]] + 1)
        return depths

    def cone(self) -> "CircuitDag":
        """The output cone: the sub-DAG of the gates that reach an output.

        Dead-gate elimination (the "sweep" of logic synthesis).  Every input is
        kept, so the cone computes the same functions of the same variables;
        live gates keep their topological order and are renumbered densely;
        outputs keep their order, repeats included.
        """
        ops, owner = self.operands, _owners(self.offsets)
        live = np.zeros(len(self.kinds), dtype=bool)
        live[: self.n_inputs] = True
        live[list(self.outputs)] = True
        for edges in reversed(self._runs):
            live[ops[edges][live[owner[edges]]]] = True
        if live.all():  # no dead gate, as in a formula's DAG: the cone is the DAG itself
            return self
        new_id = np.cumsum(live) - 1
        keep = live.nonzero()[0]
        lengths = (self.offsets[1:] - self.offsets[:-1])[keep]
        return CircuitDag(self.n_inputs, self.kinds[keep], np.cumsum([0, *lengths]),
                          new_id[ops[live[owner]]], tuple(new_id[list(self.outputs)].tolist()))


def _owners(offsets: np.ndarray) -> np.ndarray:
    """The gate id of every operand slot."""
    return np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])


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
    def n_vars(self) -> int:
        """1 + highest referenced variable index (0 for constant formulas)."""
        if self.kind is GateKind.INPUT:
            return self.var + 1
        return max((c.n_vars for c in self.children), default=0)


# ---------------------------------------------------------------------------
# netlist grammar:  input NAME | NAME = KIND NAME... | output NAME

def parse_netlist(text: str) -> CircuitDag:
    # names resolve as lines are read, input k to -1 - k and gate row j to j:
    # the final ids, inputs first, wait for the input count
    ids: dict[str, int] = {}
    n_inputs = 0
    kinds: list[int] = []
    lengths: list[int] = []
    operands: list[int | None] = []  # every gate's operands, row after row
    later: list[tuple[int, str, int]] = []  # (slot, name, line) of operands not declared yet
    output_names: list[tuple[str, int]] = []

    def define(name: str, lineno: int) -> str:
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid name '{name}'", lineno)
        if name in ids:
            raise ParseError(f"duplicate definition of '{name}'", lineno)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        if toks[0] == "input":
            if len(toks) != 2:
                raise ParseError("expected 'input <name>'", lineno)
            ids[define(toks[1], lineno)] = -1 - n_inputs
            n_inputs += 1
        elif toks[0] == "output":
            if len(toks) != 2:
                raise ParseError("expected 'output <name>'", lineno)
            output_names.append((toks[1], lineno))
        elif len(toks) >= 3 and toks[1] == "=":
            name = define(toks[0], lineno)
            code = _CODE.get(toks[2])
            if code is None:
                col = raw.find(toks[2], raw.index("=") + 1) + 1
                raise ParseError(f"unknown gate kind '{toks[2]}'", lineno, col)
            if code == _CODE["INPUT"]:
                raise ParseError("INPUT is declared with 'input <name>'", lineno)
            lo, hi = _ARITY[code]
            if not lo <= len(toks) - 3 <= hi:
                _check_arity(KINDS[code], len(toks) - 3, lambda message: ParseError(message, lineno))
            row = list(map(ids.get, toks[3:]))
            if None in row:  # an input declared later, or an undefined name
                later += [(len(operands) + k, t, lineno) for k, t in enumerate(toks[3:]) if row[k] is None]
            operands += row
            ids[name] = len(kinds)
            kinds.append(code)
            lengths.append(len(row))
        else:
            raise ParseError("expected 'input', 'output' or '<name> = <KIND> <operands>'", lineno)

    for slot, name, lineno in later:
        if ids.get(name, 0) >= 0:  # not an input: undefined, or a gate declared after its use
            raise ParseError(f"undefined gate reference '{name}' (must be declared earlier)", lineno)
        operands[slot] = ids[name]
    codes = np.array(operands, dtype=np.int64)
    outputs = []
    for name, lineno in output_names:
        if name not in ids:
            raise ParseError(f"undefined output '{name}'", lineno)
        outputs.append(-1 - ids[name] if ids[name] < 0 else n_inputs + ids[name])
    return CircuitDag(n_inputs, [_CODE["INPUT"]] * n_inputs + kinds, np.cumsum([0] * (n_inputs + 1) + lengths),
                      np.where(codes < 0, -1 - codes, n_inputs + codes), tuple(outputs))


def serialize_netlist(c: CircuitDag) -> str:
    """Canonical form: inputs x0..x{n-1}, gates g0.. in id order, sorted operands."""
    n, n_gates, owner = c.n_inputs, len(c.kinds), _owners(c.offsets)
    names = np.array([f" x{i}" for i in range(n)] + [f" g{j}" for j in range(n_gates - n)], dtype=object)
    # each gate's head ("\ng<j> = <KIND>") followed by its operands (" <name>")
    tokens = np.empty(n_gates - n + len(owner), dtype=object)
    kind_names = [k.value for k in KINDS]
    tokens[c.offsets[n:-1] + np.arange(n_gates - n)] = [
        f"\ng{j} = {kind_names[k]}" for j, k in enumerate(c.kinds[n:].tolist())]
    sorted_operands = np.sort(owner * n_gates + c.operands) - owner * n_gates  # within each gate
    tokens[np.arange(len(owner)) + owner - n + 1] = names[sorted_operands]
    body = "".join(tokens.tolist())[1:]
    return ("".join(f"input x{i}\n" for i in range(n)) + body + "\n" * bool(body)
            + "".join(f"output{names[o]}\n" for o in c.outputs)) or "\n"


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


# ---------------------------------------------------------------------------
# evaluation

def pack_lanes(n: int, masks: Sequence[int]) -> np.ndarray:
    """(n, ceil(len(masks)/64)) uint64 input words, one assignment per lane:
    bit j of row i is bit i of masks[j]; lanes past the last mask are 0."""
    return lane_words(int_bits(masks, n).T)


def exhaustive_table(c: CircuitDag) -> int:
    """Truth table of the first output as an integer (bit j = value at
    assignment j, where bit i of j is the value of x_i).  Runs
    :class:`PackedEvaluator` on `enumeration_words`."""
    n = c.n_inputs
    if n > EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(f"exhaustive evaluation capped at n <= {EXHAUSTIVE_MAX_N}, got {n}")
    evaluator, row = PackedEvaluator(c), c.outputs[0]
    table = np.concatenate([evaluator.run(words)[row] for words in enumeration_words(n)])
    return bits_int(lane_bits(table, 1 << n))


def enumeration_words(n: int):
    """Input words of all 2^n assignments (lane j holds assignment j),
    CHUNK_WORDS words at a time; below 64 assignments the tail lanes are 0."""
    lanes = CHUNK_WORDS * WORD_BITS
    for start in range(0, 1 << n, lanes):
        yield lane_words(assignment_bits(n, start, min(start + lanes, 1 << n)))


def formula_to_dag(f: FormulaNode) -> CircuitDag:
    """The formula's tree as a single-output DAG over f.n_vars inputs, a gate
    per internal node in postorder."""
    n = f.n_vars
    kinds, lengths, operands = [_CODE["INPUT"]] * n, [0] * n, []

    def build(node: FormulaNode) -> int:
        if node.kind is GateKind.INPUT:
            return node.var
        args = [build(ch) for ch in node.children]
        operands.extend(args)
        kinds.append(_CODE[node.kind.name])
        lengths.append(len(args))
        return len(kinds) - 1

    out = build(f)
    return CircuitDag(n, kinds, np.cumsum([0] + lengths), operands, (out,))


# ---------------------------------------------------------------------------
# batched evaluator for wide circuits

class PackedEvaluator:
    """Levelized numpy evaluator: gates grouped by (depth, kind) and padded to
    a common fan-in so each level is a gather + reduction over uint64 lanes.

    Bit j of every word is the circuit's value on lane j's assignment.  The
    package's only word evaluator: exact truth tables, Monte Carlo
    certification (10^5 assignments) and the per-level statistics of
    synthesized circuits (~2^15 gates) all run on it.
    """

    def __init__(self, c: CircuitDag):
        self.circuit = c
        n_gates = len(c.kinds)
        self.n_rows = n_gates + 2  # two extra rows: const0, const1
        self._const0_row = n_gates
        self._const1_row = n_gates + 1
        # non-input gates by (depth, kind evaluated as), ids ascending in a group
        kind = _EVAL_AS[c.kinds]
        gates = (c.kinds != _CODE["INPUT"]).nonzero()[0]
        order = gates[np.lexsort((kind[gates], c._depths[gates]))]
        starts = np.flatnonzero(np.diff(c._depths[order] * len(KINDS) + kind[order], prepend=-1))
        ends = np.concatenate((starts[1:], [len(order)]))
        width = np.maximum.reduceat(np.maximum((c.offsets[1:] - c.offsets[:-1])[order], 1), starts)
        # each group's (gates, width) operand matrix is a slice of one buffer, padded
        # with the identity of its operation: const1 for AND, const0 for OR and XOR
        slots = np.repeat(width, ends - starts)
        first = np.cumsum(slots) - slots  # each gate's first slot
        buffer = np.repeat(np.where(kind[order] == _CODE["AND"], self._const1_row, self._const0_row), slots)
        rank = np.empty(n_gates, dtype=np.int64)
        rank[order] = np.arange(len(order))
        owner = _owners(c.offsets)
        buffer[first[rank[owner]] + np.arange(len(owner)) - c.offsets[owner]] = c.operands
        self.levels = [(KINDS[k], order[s:e], buffer[b : b + (e - s) * w].reshape(e - s, w))
                       for k, s, e, b, w in zip(kind[order[starts]].tolist(), starts.tolist(), ends.tolist(),
                                                first[starts].tolist(), width.tolist())]

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

