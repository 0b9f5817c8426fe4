"""Independent answers the benchmark checks the program's outputs against.

None of this calls into apxmaj's evaluators, samplers or oracles; it only
reads the circuit structure (gate kinds and operand ids) and plain values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from inputs import truth_table_of

CHUNK_WORDS = 256


def live_gates(dag) -> list[int]:
    """Ids of the gates that reach an output, in topological (id) order."""
    seen = set(dag.outputs)
    stack = list(dag.outputs)
    while stack:
        for a in dag.gates[stack.pop()].args:
            if a not in seen:
                seen.add(a)
                stack.append(a)
    return sorted(seen)


def edge_counts(dag) -> tuple[int, int]:
    """(edges into gates that reach an output, all edges)."""
    total = sum(len(g.args) for g in dag.gates)
    live = sum(len(dag.gates[i].args) for i in live_gates(dag))
    return live, total


def majority_disagreements(dag, trials: int, rng: np.random.Generator) -> int:
    """Monte Carlo count of inputs where the circuit's first output differs
    from MAJ_n, evaluating only the gates that reach that output."""
    n = dag.n_inputs
    cone = [i for i in live_gates(dag) if i >= n]
    row = {i: n + r for r, i in enumerate(cone)}
    row.update({i: i for i in range(n)})
    out_row = row[dag.outputs[0]]
    n_words = (trials + 63) // 64
    bad = 0
    for start in range(0, n_words, CHUNK_WORDS):
        w = min(CHUNK_WORDS, n_words - start)
        v = np.empty((n + len(cone), w), dtype=np.uint64)
        v[:n] = np.frombuffer(rng.bytes(8 * n * w), dtype=np.uint64).reshape(n, w)
        for i in cone:
            g = dag.gates[i]
            kind = g.kind.name
            if kind == "CONST0":
                v[row[i]] = 0
            elif kind == "CONST1":
                v[row[i]] = ~np.uint64(0)
            elif kind == "NOT":
                v[row[i]] = ~v[row[g.args[0]]]
            else:
                ufunc = {"AND": np.bitwise_and, "OR": np.bitwise_or, "XOR": np.bitwise_xor}[kind]
                v[row[i]] = ufunc.reduce(v[[row[a] for a in g.args]], axis=0)
        ones = np.unpackbits(v[:n].view(np.uint8), axis=1, bitorder="little").sum(axis=0)
        maj = np.packbits(2 * ones > n, bitorder="little").view(np.uint64)
        diff = v[out_row] ^ maj
        lanes = min(64 * w, trials - 64 * start)
        if lanes < 64 * w:
            bits = np.unpackbits(diff.view(np.uint8), bitorder="little")[:lanes]
            bad += int(bits.sum())
        else:
            bad += int(np.bitwise_count(diff).sum())
    return bad


def level_ones(dag, level_ranges, masks):
    """Yield, level by level, each witness's count of ones among the gates of
    that level of a layered AND/OR circuit; every witness is one bit lane."""
    if len(masks) > 64:
        raise ValueError("at most 64 witnesses")
    values = np.zeros(len(dag.gates), dtype=np.uint64)
    for lane, mask in enumerate(masks):
        for i in range(dag.n_inputs):
            if mask >> i & 1:
                values[i] |= np.uint64(1 << lane)
    for a, b in level_ranges:
        gates = dag.gates[a:b]
        kinds = {g.kind.name for g in gates}
        if len(kinds) != 1 or not kinds <= {"AND", "OR"}:
            raise ValueError(f"gates {a}..{b} are not one AND or OR level: {kinds}")
        ufunc = np.bitwise_and if kinds == {"AND"} else np.bitwise_or
        lengths = np.fromiter((len(g.args) for g in gates), dtype=np.int64, count=b - a)
        args = np.fromiter(itertools.chain.from_iterable(g.args for g in gates),
                           dtype=np.int64, count=int(lengths.sum()))
        values[a:b] = ufunc.reduceat(values[args], np.cumsum(lengths) - lengths)
        yield [int(((values[a:b] >> np.uint64(lane)) & np.uint64(1)).sum())
               for lane in range(len(masks))]


def level_predictions(levels, n: int, w: int) -> list[tuple[float, float]]:
    """Mean-field (ones fraction, sigma) per level for an input of weight w.
    `levels` holds (kind, width, fan-in) from the bottom.  A gate of level 1
    ANDs fan-in inputs drawn with replacement, a later gate ANDs or ORs
    fan-in gates of the level below; sigma carries each level's binomial
    noise up the recurrence to first order."""
    q, var, out = w / n, 0.0, []
    for kind, width, t in levels:
        if kind == "AND":
            q_next, dq = q**t, (t * q ** (t - 1) if q > 0 else 0.0)
        else:
            q_next, dq = 1.0 - (1.0 - q) ** t, (t * (1.0 - q) ** (t - 1) if q < 1 else 0.0)
        var = q_next * (1.0 - q_next) / width + dq * dq * var
        out.append((q_next, math.sqrt(var)))
        q = q_next
    return out


def anf_monomials(table: int, n: int) -> set[int]:
    """Monomial masks of the unique GF(2) polynomial with this truth table."""
    a = [table >> j & 1 for j in range(1 << n)]
    for i in range(n):
        for j in range(1 << n):
            if j >> i & 1:
                a[j] ^= a[j ^ (1 << i)]
    return {j for j, c in enumerate(a) if c}


def degree_of(monomials) -> int:
    return max((m.bit_count() for m in monomials), default=0)


def parse_poly(text: str) -> set[int]:
    """Monomial masks of a polynomial written as 'x0*x2 + x1 + 1' or '0'."""
    if text.strip() == "0":
        return set()
    monos: set[int] = set()
    for term in text.split("+"):
        term = term.strip()
        mask = 0
        if term != "1":
            for factor in term.split("*"):
                mask |= 1 << int(factor.strip()[1:])
        monos ^= {mask}
    return monos


def poly_distance(text: str, table: int, n: int) -> tuple[int, int]:
    """(Hamming distance from the polynomial to the table, its degree)."""
    monos = parse_poly(text)
    return (truth_table_of(monos, n) ^ table).bit_count(), degree_of(monos)


def binomial_upper_count(trials: int, p: float, alpha: float) -> int:
    """Smallest count c with P[Binomial(trials, p) > c] <= alpha, from the
    Chernoff bound P[X >= a] <= exp(-trials * KL(a / trials || p))."""
    if p <= 0.0:
        return 0

    def kl(q: float) -> float:
        if q >= 1.0:
            return -math.log(p)
        return q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))

    target = math.log(1.0 / alpha) / trials
    lo, hi = math.floor(p * trials), trials
    while lo < hi:  # least a > p * trials whose bound on P[X >= a] is <= alpha
        mid = (lo + hi) // 2
        if mid > p * trials and kl(mid / trials) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1
