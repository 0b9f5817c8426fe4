"""Seeded inputs for every workload.

Everything here is a function of the workload seed and a pass index, and
nothing here imports apxmaj: the program under test only ever sees the
generated inputs.  Each stream gets its own generator, so adding a stream
never shifts the values of another.
"""

from __future__ import annotations

import math

import numpy as np

# One id per input stream; a generator is seeded with (seed, stream, pass, ...).
_STREAMS = {"desk": 1, "resample": 2, "formula": 3, "compile-seed": 4,
            "table": 5, "oracle-seed": 6, "reference": 7}

DESK_N = 101
RESAMPLE_WITNESSES = 10
RESAMPLE_WEIGHTS = (30, 70)
FORMULAS_PER_PASS = 100
FORMULA_MAX_N = 10
FORMULA_MAX_DEPTH = 4
FORMULA_MAX_LEAVES = 32
FORMULA_MAX_COST = 1 << 19
CORPUS_SEED = 0
TABLES_PER_EPS = 50
CAPPED_TABLES = 4


def rng_for(seed: int, stream: str, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream], *path])


def seed_value(seed: int, stream: str, *path: int) -> int:
    """A non-negative 31-bit seed to hand to the program."""
    return int(rng_for(seed, stream, *path).integers(0, 2**31))


def weighted_mask(rng: np.random.Generator, n: int, w: int) -> int:
    mask = 0
    for i in rng.permutation(n)[:w]:
        mask |= 1 << int(i)
    return mask


def resample_witnesses(seed: int, pass_index: int, call: int) -> list[int]:
    rng = rng_for(seed, "resample", pass_index, call)
    lo, hi = RESAMPLE_WEIGHTS
    return [weighted_mask(rng, DESK_N, int(rng.integers(lo, hi + 1)))
            for _ in range(RESAMPLE_WITNESSES)]


def random_formula(rng: np.random.Generator, n: int, depth: int, max_leaves: int):
    """Formula tree over x0..x{n-1} of depth <= `depth` and at most
    `max_leaves` leaves, from AND/OR/XOR/NOT.  A leaf is an int (the variable
    index), a gate is (kind, children).  Gates other than NOT take 2..4
    operands."""
    kinds = ("and", "or", "xor", "not")

    def build(d: int, allowance: int):
        if d == 0 or allowance < 2:
            return int(rng.integers(n))
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "not":
            return kind, (build(d - 1, allowance),)
        fanin = int(rng.integers(2, min(4, allowance) + 1))
        cuts = np.sort(rng.choice(np.arange(1, allowance), size=fanin - 1, replace=False))
        parts = np.diff(np.concatenate([[0], cuts, [allowance]]))
        # the first operand keeps the full depth, the rest are shallower at random
        args = [build(d - 1, int(parts[0]))]
        args += [build(int(rng.integers(0, d)), int(p)) for p in parts[1:]]
        return kind, tuple(args)

    return build(depth, max_leaves)


def leaves(f) -> int:
    return 1 if isinstance(f, int) else sum(leaves(c) for c in f[1])


def n_vars(f) -> int:
    return f + 1 if isinstance(f, int) else max(n_vars(c) for c in f[1])


def sexpr(f) -> str:
    if isinstance(f, int):
        return f"x{f}"
    return "(" + " ".join([f[0]] + [sexpr(c) for c in f[1]]) + ")"


def _exact(f) -> bool:
    """True when the paper's recipe represents f with no error: leaves, and
    XOR/NOT over exact operands."""
    return isinstance(f, int) or (f[0] in ("xor", "not") and all(_exact(c) for c in f[1]))


def expanded_nodes(f) -> int:
    """Recipe nodes of f after expanding every majority-of-copies reduction,
    estimated from the paper's rule: an operand of a gate above the base
    level is reduced with the smallest odd t >= 4 ln(16 s / s_i) + 1 copies,
    unless it is exact."""
    if isinstance(f, int):
        return 1
    kind, children = f
    if kind == "not" or all(isinstance(c, int) for c in children):
        return 1 + sum(expanded_nodes(c) for c in children)
    s = leaves(f)
    total = 1
    for c in children:
        if _exact(c):
            total += expanded_nodes(c)
        else:
            t = math.ceil(4 * math.log(16 * s / leaves(c)) + 1)
            t += 1 - t % 2
            total += 1 + t * expanded_nodes(c)
    return total


def sampling_cost(f) -> int:
    """Relative cost of sampling f's tables: expanded nodes times the table
    width, plus a fixed per-node charge that dominates at small n."""
    return expanded_nodes(f) * (64 + (1 << n_vars(f)))


def formula_corpus() -> list:
    """The fixed shapes behind the formula set (see `formulas`)."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    while len(out) < FORMULAS_PER_PASS:
        n = int(rng.integers(1, FORMULA_MAX_N + 1))
        depth = int(rng.integers(1, FORMULA_MAX_DEPTH + 1))
        f = random_formula(rng, n, depth, FORMULA_MAX_LEAVES)
        if sampling_cost(f) <= FORMULA_MAX_COST:
            out.append(f)
    return out


def relabel(f, perm, flips):
    """Rename variables by `perm` and swap AND/OR where `flips` says so."""
    if isinstance(f, int):
        return int(perm[f])
    kind, children = f
    if kind in ("and", "or") and next(flips):
        kind = "or" if kind == "and" else "and"
    return kind, tuple(relabel(c, perm, flips) for c in children)


def formulas(seed: int, pass_index: int) -> list[str]:
    rng = rng_for(seed, "formula", pass_index)
    out = []
    for f in formula_corpus():
        # the highest variable stays put, so n and with it the table width
        # (and the cost) of every formula are the same for every seed
        n = n_vars(f)
        perm = np.append(rng.permutation(n - 1), n - 1)
        flips = iter(rng.integers(0, 2, size=leaves(f)).tolist())
        out.append(sexpr(relabel(f, perm, flips)))
    return out


def or_formula(m: int) -> str:
    return "(or " + " ".join(f"x{i}" for i in range(m)) + ")"


def anf_degree4_tables(seed: int, pass_index: int, count: int) -> list[int]:
    """5-variable truth tables whose ANF has degree exactly 4: a random
    polynomial of degree <= 3 plus at least one degree-4 monomial."""
    rng = rng_for(seed, "table", pass_index, 0)
    quartic = [m for m in range(32) if m.bit_count() == 4]
    low = [m for m in range(32) if m.bit_count() <= 3]
    out = []
    for _ in range(count):
        monos = {m for m in low if rng.integers(2)}
        top = rng.integers(0, 2, size=len(quartic))
        top[int(rng.integers(len(quartic)))] = 1
        monos |= {m for m, b in zip(quartic, top) if b}
        out.append(truth_table_of(monos, 5))
    return out


def random_tables(seed: int, pass_index: int, count: int) -> list[int]:
    rng = rng_for(seed, "table", pass_index, 1)
    return [int(rng.integers(0, 2**32)) for _ in range(count)]


def capped_tables(seed: int, pass_index: int, count: int) -> list[int]:
    """5-variable tables whose nearest polynomial of degree <= 3 is at
    Hamming distance 2 (see `rm3_distance`), so eps = 1/32 refutes degree 3
    and then meets the monomial cap at degree 4."""
    rng = rng_for(seed, "table", pass_index, 2)
    out = []
    while len(out) < count:
        t = int(rng.integers(0, 2**32))
        if rm3_distance(t) == 2:
            out.append(t)
    return out


def truth_table_of(monomials, n: int) -> int:
    """Table (bit j = value at assignment j) of the GF(2) sum of monomials."""
    table = 0
    for j in range(1 << n):
        table |= (sum(1 for m in monomials if j & m == m) & 1) << j
    return table


def rm3_distance(table: int) -> int:
    """Distance of a 5-variable table to the degree <= 3 polynomials.

    Those form the extended Hamming code of length 32, whose parity checks
    are the overall parity and the XOR of the indices of the set bits; its
    covering radius is 2.
    """
    parity = table.bit_count() & 1
    index_xor = 0
    for j in range(32):
        if table >> j & 1:
            index_xor ^= j
    if parity:
        return 1
    return 0 if index_xor == 0 else 2


def majority_table(n: int) -> int:
    return sum(1 << j for j in range(1 << n) if 2 * j.bit_count() > n)


def table_hex(table: int, n: int) -> str:
    return format(table, f"0{max(1, (1 << n) // 4)}x")
