"""Acceptance suite: one test per criterion, asserted at the stated
tolerances, one PASS/FAIL line printed per criterion (run with -s to see
them).

The paper's bounds are asymptotic.  Four criteria assert the finite form that
the program actually promises at the parameters checked, because the literal
asymptotic form is false there:

* criterion 1: the sampler promises error exactly 1/8 at every x != 0 (see
  the subset enumeration in tests/test_compiler.py).  It does not promise
  that each of 8177 finite-sample estimates lands within 3 sigma: ~22 such
  exceedances are expected from sampling noise alone.  The per-input
  deviation is therefore tested at the family-wise 3-sigma level over all
  8177 checks (z ~ 5.11).
* criterion 5: gamma_envelope's lower end A^i g0 exp(-3 A^i g0) holds only
  for A >= 3 (the step 2A(A^i-1)/(A-1) <= 3A^i fails at A=2).  A >= 3 is
  checked against gamma_envelope; A = 2 against the lower end the same
  derivation gives for every A >= 2, A^i g0 exp(-(2A/(A-1)) A^i g0).
* criterion 7: the constant-1 polynomial has distance 1 = floor(1/4 * 4) from
  OR_2, so the minimum approximate degree at eps=1/4 is 0; no polynomial of
  degree <= 1 is exact, so at eps=1/8 it is 2.  Degree 1 is never the answer.
* criterion 9: the open band holds up to ceil(2 eps sqrt(n)) integer weights
  of mass <= sqrt(2/(pi n)) each, so the exact central mass is bounded by
  2 sqrt(2/pi) eps + sqrt(2/(pi n)); 2 eps is only its large-n form, asserted
  where eps sqrt(n) >= 2.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from apxmaj import compiler as C
from apxmaj import gf2poly as g
from apxmaj import synthesis as S
from apxmaj import verify as V
from apxmaj.circuits import GateKind, PackedEvaluator, formula_to_dag, parse_formula
from apxmaj.cli import _lemma_tuples
from apxmaj.rng import rng_for

from conftest import oracle_mobius_transform, oracle_table_formula, random_dag, random_formula

# Pinned seeds: the Monte Carlo criteria are deterministic given these.
SEED_C1 = 20250809
SEED_C2 = 11
SEED_C6 = 1


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


# -------------------------------------------------------------- criterion 1

def test_c1_gate_approximator_exactness():
    """OR_m, m in 2..12, eps=1/8: degrees <= 3, error 0 at x=0, and per-input
    empirical error within the family-wise 3-sigma band of exactly 1/8 at
    every x != 0 (z ~ 5.11 over all 8177 checks)."""
    trials = 100_000
    sigma = math.sqrt(0.125 * 0.875 / trials)
    n_checks = sum(2**m - 1 for m in range(2, 13))
    tol = _family_z(n_checks) * sigma
    failures = []
    worst = 0.0
    for m in range(2, 13):
        f = parse_formula("(or " + " ".join(f"x{i}" for i in range(m)) + ")")
        recipe = C.compile_formula(f)
        tables = C.sample_tables(recipe, trials, seed=SEED_C1 + m)
        for start in range(0, trials, 20_000):
            degs = C.table_degrees(tables[start:start + 20_000], m)
            if int(degs.max()) > 3:
                failures.append(f"m={m}: sampled degree {int(degs.max())} > 3")
        bits = np.unpackbits(tables, axis=-1, bitorder="little", count=1 << m)
        errs = np.empty(1 << m)
        errs[0] = bits[:, 0].mean()  # OR(0)=0, so a 1 is an error
        ones = bits[:, 1:] == 0      # elsewhere OR=1, a 0 is an error
        errs[1:] = ones.mean(axis=0)
        if errs[0] != 0.0:
            failures.append(f"m={m}: error at x=0 is {errs[0]}, want exactly 0")
        dev = np.abs(errs[1:] - 0.125)
        worst = max(worst, float(dev.max()))
        bad = np.nonzero(dev > tol)[0]
        for j in bad[:3]:
            failures.append(
                f"m={m} x={j + 1}: |{errs[j + 1]:.5f} - 0.125| = {dev[j]:.5f} "
                f"> {tol:.5f} ({dev[j] / sigma:.2f} sigma)")
        if bad.size > 3:
            failures.append(f"m={m}: ... and {bad.size - 3} more inputs beyond {tol:.5f}")
    detail = (f"{n_checks} per-input checks at family-wise 3 sigma "
              f"(|err - 1/8| <= {tol:.5f}); worst {worst / sigma:.2f} sigma; "
              f"{len(failures)} findings")
    report("1", not failures, detail)
    assert not failures, detail + "\n" + "\n".join(failures)


def test_c1_companion_sound_statistics():
    """Same property, statistically sound: family-corrected threshold for the
    per-input checks plus a tight aggregate estimate of the error rate."""
    trials = 100_000
    sigma = math.sqrt(0.125 * 0.875 / trials)
    n_checks = sum(2**m - 1 for m in range(2, 13))
    z_family = _family_z(n_checks)
    grand_err, grand_n = 0.0, 0
    for m in range(2, 13):
        f = parse_formula("(or " + " ".join(f"x{i}" for i in range(m)) + ")")
        recipe = C.compile_formula(f)
        tables = C.sample_tables(recipe, trials, seed=SEED_C1 + m)
        bits = np.unpackbits(tables, axis=-1, bitorder="little", count=1 << m)
        assert bits[:, 0].max() == 0  # one-sided: never wrong on all-zero
        errs = (bits[:, 1:] == 0).mean(axis=0)
        assert np.abs(errs - 0.125).max() <= z_family * sigma
        grand_err += errs.sum() * trials
        grand_n += errs.size * trials
    grand = grand_err / grand_n
    # aggregate over ~8e8 correlated-but-unbiased indicator draws
    assert abs(grand - 0.125) < 5e-4


def _family_z(n_checks: int) -> float:
    """Per-check z for global 3-sigma confidence across the whole family
    (Bonferroni-style: two-sided tail 0.0027 / n_checks)."""
    return math.sqrt(2) * _erfc_inv(0.0027 / n_checks)


def _erfc_inv(y: float) -> float:
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if math.erfc(mid) > y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# -------------------------------------------------------------- criterion 2

def test_c2_compiler_end_to_end():
    """100 random formulas (n <= 10, size <= 32, depth <= 4): per-input
    empirical error <= 0.15 over 2000 samples; sampled degree <= ledger bound
    <= 3(c2((1/d)log2 s + 1))^d."""
    rng = np.random.default_rng(SEED_C2)
    failures = []
    for fi in range(100):
        n = int(rng.integers(1, 11))
        depth = int(rng.integers(1, 5))
        f = random_formula(rng, n, depth, max_size=32)
        recipe = C.compile_formula(f)
        d = max(f.depth - 1, 0)
        bound = C.theoretical_degree(f.size, d, C.C2)
        if recipe.degree_bound > bound:
            failures.append(f"formula {fi}: ledger bound {recipe.degree_bound} > {bound:.1f}")
        tables = C.sample_tables(recipe, 2000, seed=SEED_C2 * 1000 + fi)
        degs = C.table_degrees(tables, recipe.n)
        if int(degs.max()) > recipe.degree_bound:
            failures.append(f"formula {fi}: sampled degree {int(degs.max())} "
                            f"> bound {recipe.degree_bound}")
        nbits = 1 << recipe.n
        bits = np.unpackbits(tables, axis=-1, bitorder="little", count=nbits)
        truth = oracle_table_formula(f, recipe.n)
        tb = np.array([(truth >> j) & 1 for j in range(nbits)], dtype=np.uint8)
        errs = (bits != tb[None, :]).mean(axis=0)
        worst = float(errs.max())
        if worst > 0.15:
            failures.append(f"formula {fi} (size {f.size}, depth {f.depth}): "
                            f"per-input error {worst:.4f} > 0.15")
    report("2", not failures, f"100 formulas, threshold 0.15 (= 1/8 + 3.4 sigma at 2000 samples)")
    assert not failures, "\n".join(failures)


# -------------------------------------------------------------- criterion 3

def test_c3_key_inequality_grid():
    """(b+1)(a/d+1)^d <= ((a+b)/(d+1)+1)^(d+1) on the half-integer grid, with
    equality only at b = a/d."""
    grid = [v / 2 for v in range(129)]
    violations, eq_off_root = [], []
    for d in range(1, 9):
        for a in grid:
            for b in grid:
                holds, gap = C.check_key_inequality(a, b, d)
                if not holds:
                    violations.append((a, b, d, gap))
                if gap < 1e-6 and abs(b - a / d) >= 1e-6:
                    eq_off_root.append((a, b, d, gap))
    ok = not violations and not eq_off_root
    report("3", ok, f"{129 * 129 * 8} points, tolerance 1e-9; "
                    f"{len(violations)} violations, {len(eq_off_root)} near-equalities off the root")
    assert ok, (violations[:5], eq_off_root[:5])


# -------------------------------------------------------------- criterion 4

def test_c4_technical_lemma_sweep():
    """1000 random hypothesis-satisfying tuples: the exact (1-k/M)^t respects
    all four exp(-s)-scale bounds and the refined forms when s*gamma <= 1/2."""
    violations = []
    count = 0
    for tup in _lemma_tuples(1000, seed=404):
        rep = S.check_technical_lemma(*tup)
        assert rep.hypotheses_ok
        count += 1
        if not rep.ok:
            violations.append((tup, [c.name for c in rep.checks if c.applies and not c.holds]))
    refined = sum(1 for tup in _lemma_tuples(1000, seed=404) if tup[1] * tup[4] <= 0.5)
    report("4", not violations,
           f"{count} tuples ({refined} exercised the refined bounds), {len(violations)} violations")
    assert not violations, violations[:5]


# -------------------------------------------------------------- criterion 5

def test_c5_gamma_envelope_and_eps0():
    """gamma recurrence inside gamma_envelope's [A^i g0 e^(-3 A^i g0), A^i g0]
    for A in 3..32, inside [A^i g0 e^(-(2A/(A-1)) A^i g0), A^i g0] at A = 2
    (the envelope's own domain is A >= 3), and both eps0 inequalities on a
    10^4-point grid in (0, 1/2]."""
    eps0_bad = []
    for j in range(1, 10_001):
        beta = j / 20_000
        first, second = S.eps0_inequalities_hold(beta)
        if not (first and second):
            eps0_bad.append(beta)
    gamma_bad = []
    g0_grid = np.geomspace(1e-4, 1e-1, 13)
    for a in range(2, 33):
        for g0 in g0_grid:
            gs = S.gamma_sequence(a, float(g0), 8)
            for i in range(1, 9):
                if a >= 3:
                    lo, hi = S.gamma_envelope(a, float(g0), i)
                else:
                    # gamma_j <= A^j g0 for j < i gives
                    # gamma_i >= A^i g0 exp(-2A g0 (A^i - 1)/(A - 1))
                    hi = (a**i) * float(g0)
                    lo = hi * math.exp(-(2 * a / (a - 1)) * hi)
                if not lo <= gs[i] <= hi:
                    gamma_bad.append((a, float(g0), i, gs[i], lo, hi))
    ok = not eps0_bad and not gamma_bad
    report("5", ok, f"eps0 grid: {len(eps0_bad)} violations; gamma grid "
                    f"(A = 2..32, envelope for A >= 3, 2A/(A-1) exponent at "
                    f"A = 2): {len(gamma_bad)} violations")
    assert not eps0_bad, f"eps0 inequalities fail at beta = {eps0_bad[:5]}"
    assert not gamma_bad, (f"gamma recurrence leaves its bounds at "
                           f"{len(gamma_bad)} grid points, e.g. {gamma_bad[:3]}")


# -------------------------------------------------------------- criterion 6

def test_c6_desk_scale_synthesis():
    """n=101, d=3, A=3, widths 2^14, planner-chosen s_top, seed-pinned:
    certified (1/4, 101)-approximate majority by 10^5-sample MC; disagreement
    <= 0.05 conditioned on |x| <= 40 or >= 61; level fractions within 3 sigma
    of the mean-field prediction at w in {40, 50, 61}."""
    p = S.plan(101, 3, 0.25, {"A": 3, "M": 2**14, "M_top": 2**14})
    res = S.synth(p, seed=SEED_C6)
    failures = []
    if res.dag.depth != 3 or not res.dag.is_monotone():
        failures.append("shape: expected monotone depth-3 circuit")

    cert = V.certify_approx_majority(res.dag, 0.25, "mc", trials=100_000, seed=SEED_C6)
    if not cert.passed:
        failures.append(f"MC upper bound {cert.ci_hi:.4f} > 0.25")

    cond = _conditional_disagreement(res.dag, trials=100_000, seed=SEED_C6)
    if cond > 0.05:
        failures.append(f"conditional tail disagreement {cond:.4f} > 0.05")

    for w in (40, 50, 61):
        x = _random_weight_input(101, w, SEED_C6)
        for obs in S.empirical_level_check(res, x)[: p.d - 1]:
            if not obs.within_3_sigma:
                failures.append(
                    f"w={w} level {obs.index}: {obs.ones_fraction:.5f} vs "
                    f"predicted {obs.predicted:.5f} (sigma {obs.sigma:.5f})")
    report("6", not failures,
           f"disagreement={cert.disagreement:.4f} (CI hi {cert.ci_hi:.4f}), "
           f"conditional={cond:.4f}, bands at w=40/50/61 checked")
    assert not failures, failures


def _random_weight_input(n: int, w: int, seed: int) -> int:
    rng = rng_for(seed, "weight-input", w)
    mask = 0
    for i in rng.permutation(n)[:w]:
        mask |= 1 << int(i)
    return mask


def _conditional_disagreement(dag, trials: int, seed: int) -> float:
    n = dag.n_inputs
    logpmf = [math.lgamma(n + 1) - math.lgamma(w + 1) - math.lgamma(n - w + 1)
              - n * math.log(2) for w in range(n + 1)]
    ws = [w for w in range(n + 1) if w <= 40 or w >= 61]
    probs = np.exp(np.array([logpmf[w] for w in ws]))
    probs /= probs.sum()
    rng = rng_for(seed, "conditional")
    weights = rng.choice(ws, size=trials, p=probs)
    ev = PackedEvaluator(dag)
    bad = 0
    block = 4096
    for start in range(0, trials, block):
        chunk = weights[start:start + block]
        n_words = (len(chunk) + 63) // 64
        words = np.zeros((n, n_words), dtype=np.uint64)
        for lane, w in enumerate(chunk):
            b, off = divmod(lane, 64)
            for i in rng.permutation(n)[:w]:
                words[i, b] |= np.uint64(1 << off)
        out = ev.outputs(words)[0]
        lanes = np.unpackbits(out.view(np.uint8), bitorder="little")[: len(chunk)]
        maj = (chunk * 2 > n).astype(np.uint8)
        bad += int((lanes != maj).sum())
    return bad / trials


# -------------------------------------------------------------- criterion 7

# frozen outputs of the exhaustive scan (computed once, regression-pinned)
MAJ5_FROZEN = {0.0: 4, 0.125: 2, 0.25: 2}


def test_c7_degree_oracle():
    """min_approx_degree(MAJ3, 1/8) = 2; min_approx_degree(OR2, 1/4) = 0
    (constant 1 is within floor(1/4 * 4) = 1) and min_approx_degree(OR2, 1/8)
    = 2 (nothing of degree <= 1 is exact), with each witness's distance
    recomputed from the truth table; eps=0 equals ANF degree on all 2^16
    4-variable functions; MAJ5 values frozen and nondecreasing from MAJ3's."""
    failures = []
    maj3 = V.min_approx_degree(V.majority_truth_table(3), 0.125)
    if maj3.degree != 2:
        failures.append(f"MAJ3 @ 1/8: got {maj3.degree}, want 2")

    or2_bits = 0b1110
    or2 = {}
    for eps, want, allowed in ((0.25, 0, 1), (0.125, 2, 0)):
        cert = V.min_approx_degree(V.TruthTable(2, or2_bits), eps)
        or2[eps] = cert.degree
        witness_bits = sum(g.eval_poly(cert.witness, j) << j for j in range(4))
        dist = bin(witness_bits ^ or2_bits).count("1")
        if cert.degree != want:
            failures.append(f"OR2 @ {eps}: got {cert.degree}, want {want}")
        if cert.allowed != allowed or dist != cert.distance or dist > allowed:
            failures.append(
                f"OR2 @ {eps}: witness '{g.format_poly(cert.witness)}' is at "
                f"distance {dist} (reported {cert.distance}), allowed "
                f"floor({eps} * 4) = {allowed} (reported {cert.allowed})")
        if cert.witness.degree > cert.degree:
            failures.append(f"OR2 @ {eps}: witness degree {cert.witness.degree} "
                            f"> reported {cert.degree}")

    # eps = 0 vs ANF degree on every 4-variable function, via the oracle's own
    # span enumerator against an independent batched Moebius transform
    all_funcs = np.arange(1 << 16, dtype=np.uint32)
    bits = np.unpackbits(all_funcs.view(np.uint8).reshape(-1, 4)[:, :2],
                         axis=-1, bitorder="little").reshape(-1, 16)
    coeffs = oracle_mobius_transform(bits)
    weights = np.bitwise_count(np.arange(16, dtype=np.uint32)).astype(np.uint8)
    anf_deg = np.max(np.where(coeffs == 1, weights[None, :], 0), axis=1)
    span_deg = np.full(1 << 16, 255, dtype=np.uint8)
    for d in range(4, -1, -1):
        members = V.span_tables(4, d)
        span_deg[members] = d
    if not np.array_equal(span_deg, anf_deg):
        bad = int(np.nonzero(span_deg != anf_deg)[0][0])
        failures.append(f"eps=0 mismatch at function {bad:#06x}")
    rng = np.random.default_rng(7)
    for fbits in rng.integers(0, 1 << 16, size=100):
        cert = V.min_approx_degree(V.TruthTable(4, int(fbits)), 0.0)
        if cert.degree != int(anf_deg[int(fbits)]):
            failures.append(f"API eps=0 mismatch at {int(fbits):#06x}")
            break

    maj5 = {eps: V.min_approx_degree(V.majority_truth_table(5), eps).degree
            for eps in MAJ5_FROZEN}
    if maj5 != MAJ5_FROZEN:
        failures.append(f"MAJ5 regression: got {maj5}, frozen {MAJ5_FROZEN}")
    maj3_by_eps = {eps: V.min_approx_degree(V.majority_truth_table(3), eps).degree
                   for eps in MAJ5_FROZEN}
    for eps in MAJ5_FROZEN:
        if maj5[eps] < maj3_by_eps[eps]:
            failures.append(f"MAJ5 < MAJ3 at eps={eps}")

    report("7", not failures,
           f"MAJ3@1/8={maj3.degree}, OR2@1/4={or2[0.25]}, OR2@1/8={or2[0.125]} "
           f"(witness distances recomputed), "
           f"2^16 functions at eps=0 checked, MAJ5 frozen {maj5}")
    assert not failures, "\n".join(failures)


# -------------------------------------------------------------- criterion 8

def test_c8_unfolding_bound():
    """100 random single-output DAGs (s <= 12, d <= 4, n <= 10): unfolding
    preserves the truth table and gate count <= s^(d-1)."""
    from apxmaj.circuits import unfold_to_formula
    from conftest import oracle_table_dag
    rng = np.random.default_rng(88)
    failures = []
    for i in range(100):
        n = int(rng.integers(1, 11))
        c = random_dag(rng, n, max_gates=12, max_depth=4)
        f = unfold_to_formula(c)
        if oracle_table_formula(f, n) != oracle_table_dag(c):
            failures.append(f"dag {i}: function changed")
        s, d = c.size, c.depth
        bound = max(1, s ** max(d - 1, 0))
        if f.gate_count > bound:
            failures.append(f"dag {i}: {f.gate_count} gates > {s}^{d - 1}")
    report("8", not failures, "100 DAGs, truth tables equal, gate counts within s^(d-1)")
    assert not failures, failures


# -------------------------------------------------------------- criterion 9

def test_c9_tail_bound():
    """Exact tail_mass(n, eps) <= 2 sqrt(2/pi) eps + sqrt(2/(pi n)) for n in
    {51..501 step 50} and eps in {0.05, 0.1, 0.25}: the open band holds at
    most ceil(2 eps sqrt(n)) integer weights of mass <= sqrt(2/(pi n)) each.
    At the points with eps sqrt(n) >= 2, where that implies it, also
    tail_mass(n, eps) <= 2 eps."""
    violations = []
    large = 0
    for eps in (0.05, 0.1, 0.25):
        for n in range(51, 502, 50):
            mass = S.tail_mass(n, eps)
            bound = 2 * math.sqrt(2 / math.pi) * eps + math.sqrt(2 / (math.pi * n))
            if mass > bound:
                violations.append((n, eps, mass, f"> {bound:.4f}"))
            if eps * math.sqrt(n) >= 2:
                large += 1
                if mass > 2 * eps:
                    violations.append((n, eps, mass, f"> 2*eps = {2 * eps}"))
    report("9", not violations,
           f"30 grid points against 2 sqrt(2/pi) eps + sqrt(2/(pi n)), "
           f"{large} of them (eps sqrt(n) >= 2) also against 2*eps; "
           f"{len(violations)} violations")
    assert not violations, violations
