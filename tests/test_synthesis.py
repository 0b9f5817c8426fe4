import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apxmaj import synthesis as S
from apxmaj.circuits import GateKind, eval_circuit
from apxmaj.errors import ResourceLimitError
from apxmaj.rng import rng_for

from conftest import oracle_eval_dag


DESK = dict(n=101, d=3, eps=0.25, overrides={"A": 3, "M": 2**10, "M_top": 2**10})


# ------------------------------------------------------------------- planning

def test_plan_asymptotic_example():
    p = S.plan(10**6, 3, 1 / 32)
    assert p.mode == "asymptotic"
    assert p.a == 31
    assert p.log_m == 310.0
    assert not p.synthesizable
    assert any("width exceeds cap" in b for b in p.synth_blockers())


def test_plan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        S.plan(101, 1, 0.25)
    with pytest.raises(ValueError):
        S.plan(101, 3, 0.75)
    with pytest.raises(ValueError):
        S.plan(101, 3, 0.25, {"bogus": 1})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4]),
       st.dictionaries(st.sampled_from(["A", "M", "logM", "M_top", "logM_top", "s_top"]),
                       st.one_of(st.integers(), st.floats()), max_size=6))
@example(3, {"A": 3, "M": 64, "s_top": -1.0})
@example(3, {"M": 0})
@example(3, {"A": 1075})        # 2^-A underflows to 0
@example(2, {"A": 2 * 10**7})   # level-1 fan-in above the width cap
@example(3, {"logM": 10**400})  # beyond the float range
def test_plan_override_values_give_plan_or_value_error(d, overrides):
    try:
        p = S.plan(101, d, 0.25, overrides)
    except ValueError:
        return
    for spec in p.levels:
        assert spec.width is None or 1 <= spec.width <= S.WIDTH_CAP
        assert spec.fan_in is None or 1 <= spec.fan_in <= S.WIDTH_CAP


@pytest.mark.parametrize("overrides, key", [({"A": "3"}, "A"), ({"M": None}, "M")])
def test_plan_non_number_override_is_value_error(overrides, key):
    with pytest.raises(ValueError, match=f"override {key} must be finite"):
        S.plan(101, 3, 0.25, overrides)


@pytest.mark.parametrize("m", [1, 16384, 1_234_567, 9_999_999, 10**7])
def test_plan_integer_width_override_is_exact(m):
    assert S.plan(101, 2, 0.25, {"M": m}).levels[0].width == m
    assert S.plan(101, 2, 0.25, {"M": 10**7 + 1}).levels[0].width is None


def test_gamma_recurrence_examples():
    gs = S.gamma_sequence(3, 0.05, 1)
    assert gs[1] == pytest.approx(3 * 0.05 * math.exp(-0.3), rel=1e-12)
    assert gs[1] == pytest.approx(0.111122, abs=1e-6)
    # envelope sanity at A=3, gamma0=0.01, i=2
    gs = S.gamma_sequence(3, 0.01, 2)
    lo, hi = S.gamma_envelope(3, 0.01, 2)
    assert lo == pytest.approx(0.09 * math.exp(-0.27), rel=1e-12)
    assert lo <= gs[2] <= hi == 0.09


@given(st.integers(3, 32), st.floats(1e-4, 1e-1), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_gamma_envelope_holds_for_a_ge_3(a, g0, i):
    # provable regime: the 2A(A^i-1)/(A-1) <= 3A^i step needs A >= 3
    gs = S.gamma_sequence(a, g0, i)
    lo, hi = S.gamma_envelope(a, g0, i)
    assert lo <= gs[i] <= hi


def test_gamma_envelope_breaks_at_a_2():
    # documented boundary: at A=2 the recurrence dips below the envelope
    gs = S.gamma_sequence(2, 1e-4, 3)
    lo, _ = S.gamma_envelope(2, 1e-4, 3)
    assert gs[3] < lo


def test_plan_level_kinds_alternate():
    for d in (2, 3, 4, 5):
        p = S.plan(101, d, 0.25, {"A": 3, "M": 256, "M_top": 256})
        kinds = [spec.kind for spec in p.levels]
        assert kinds[0] is GateKind.AND
        for a, b in zip(kinds, kinds[1:]):
            assert a is not b
        assert len(kinds) == d
        assert p.levels[-1].width == 1


def test_plan_desk_records_side_conditions():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    assert p.mode == "desk-scale"
    assert p.delta == pytest.approx(1 / 101**3)
    assert p.eps0 == 0.5
    assert set(p.side_conditions) >= {"A_ge_10_ln_n", "expA_ge_n_cubed",
                                      "top_s_gamma_ge_5_ln_inv_eps"}
    assert p.side_conditions["A_ge_10_ln_n"] is False  # A=3 is a desk fan-in


# ------------------------------------------------------------------ synthesis

def test_synth_d2_degenerate():
    p = S.plan(51, 2, 0.25, {"A": 4, "M": 512})
    res = S.synth(p, seed=9)
    assert res.dag.depth == 2
    assert res.dag.is_monotone()
    kinds = {res.dag.gates[a].kind for a, b in res.level_ranges[:1] for a in range(*res.level_ranges[0])}
    assert kinds == {GateKind.AND}
    assert res.dag.gates[res.dag.outputs[0]].kind is GateKind.OR


def test_synth_deterministic():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    r1 = S.synth(p, seed=4)
    r2 = S.synth(p, seed=4)
    assert r1.dag == r2.dag
    r3 = S.synth(p, seed=5)
    assert r3.dag != r1.dag


def test_synth_desk_plan_shape():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    res = S.synth(p, seed=2)
    assert res.dag.depth == 3
    assert res.dag.is_monotone()
    widths = [b - a for a, b in res.level_ranges]
    assert widths == [1024, 1024, 1]
    assert res.dag.size == sum(widths)


def test_synth_refuses_oversized_widths():
    p = S.plan(10**6, 3, 0.25)
    with pytest.raises(ResourceLimitError, match="level 1"):
        S.synth(p, seed=0)


def test_synth_semantic_monotonicity(rng):
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    res = S.synth(p, seed=11)
    n = 101
    pairs = 10_000
    lo = rng.integers(0, 2, size=(pairs, n)).astype(np.uint8)
    extra = rng.integers(0, 2, size=(pairs, n)).astype(np.uint8)
    hi = lo | extra
    from apxmaj.circuits import PackedEvaluator
    ev = PackedEvaluator(res.dag)

    def run(mat):
        words = np.zeros((n, (pairs + 63) // 64), dtype=np.uint64)
        for i in range(n):
            packed = np.packbits(mat[:, i], bitorder="little")
            pad = np.zeros(words.shape[1] * 8, dtype=np.uint8)
            pad[: packed.size] = packed
            words[i] = pad.view(np.uint64)
        out = ev.outputs(words)[0]
        return np.unpackbits(out.view(np.uint8), bitorder="little")[:pairs]

    v_lo, v_hi = run(lo), run(hi)
    assert not np.any(v_lo > v_hi)


# ------------------------------------------------------------------- analysis

def test_bias_recurrence_examples():
    p = S.plan(100, 2, 0.25, {"A": 2, "M": 256})
    preds = S.bias_recurrence(p, 50)
    assert preds[0].ones_fraction == pytest.approx(0.25)  # (w/n)^A
    # all-ones input fires every level of a monotone circuit
    p3 = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    for pred in S.bias_recurrence(p3, 101):
        assert pred.ones_fraction == pytest.approx(1.0)


def test_bias_recurrence_separates_desk_weights():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    q_lo = S.bias_recurrence(p, 40)[-1].ones_fraction
    q_hi = S.bias_recurrence(p, 61)[-1].ones_fraction
    assert q_hi - q_lo >= 0.5


def test_empirical_level_check_extremes():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    res = S.synth(p, seed=3)
    obs0 = S.empirical_level_check(res, 0)
    assert obs0[0].ones_fraction == 0.0
    assert obs0[0].band_membership == "I0"  # zero ones is inside I0 for any gamma < 1
    all_ones = (1 << 101) - 1
    obs1 = S.empirical_level_check(res, all_ones)
    assert obs1[0].ones_fraction == 1.0
    assert obs1[-1].ones == 1


def test_empirical_matches_prediction_on_random_input(rng):
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    res = S.synth(p, seed=8)
    idx = rng.permutation(101)[:40]
    mask = 0
    for i in idx:
        mask |= 1 << int(i)
    obs = S.empirical_level_check(res, mask)
    for o in obs[:-1]:
        assert o.within_3_sigma


def test_level_checks_match_one_assignment_at_a_time(rng):
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    res = S.synth(p, seed=5)
    xs = [0, (1 << 101) - 1] + [int(m) for m in rng.integers(0, 1 << 62, size=68)]
    xs += [sum(1 << int(i) for i in rng.permutation(101)[:w]) for w in (40, 50, 61)]
    xs.append([int(b) for b in rng.integers(0, 2, 101)])
    checks = S.level_checks(res, xs)
    assert checks == [S.empirical_level_check(res, x) for x in xs]
    ones = res.level_ones([S._as_mask(101, x) for x in xs])
    assert ones.shape == (p.d, len(xs))
    assert [[o.ones for o in obs] for obs in checks] == ones.T.tolist()


def test_resample_extreme_witnesses_first_try():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    res, tries, hist = S.resample_until_valid(p, [0, (1 << 101) - 1], max_tries=5, seed=1)
    assert tries == 1
    assert hist == {}


def test_resample_zero_slack_exhausts():
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    witness = sum(1 << i for i in range(50))
    with pytest.raises(S.ResampleExhausted) as exc:
        S.resample_until_valid(p, [witness], max_tries=3, seed=1, slack_sigmas=0.0)
    assert exc.value.tries == 3
    assert sum(exc.value.histogram.values()) == 3


def test_resample_desk_witness_set(rng):
    p = S.plan(**{k: DESK[k] for k in ("n", "d", "eps")}, overrides=DESK["overrides"])
    bands = p.bands()
    witnesses = []
    for _ in range(50):
        w = int(rng.choice([int(bands.n_threshold) - 5, int(bands.y_threshold) + 5]))
        idx = rng.permutation(101)[:w]
        witnesses.append(sum(1 << int(i) for i in idx))
    res, tries, hist = S.resample_until_valid(p, witnesses, max_tries=20, seed=123)
    assert tries <= 20


# ---------------------------------------------------------------- lemma checks

def test_technical_lemma_exact_value():
    # (1 - 10/1000)^50 with t = ceil(e^a * s) = 50
    rep = S.check_technical_lemma(math.log(50.0), 1.0, 1000, 12, 0.05, 10)
    assert rep.t == 50
    assert math.exp(rep.log_p_or_zero) == pytest.approx(0.99**50, rel=1e-12)
    assert math.exp(rep.log_p_or_zero) == pytest.approx(0.605006, abs=1e-6)


def test_technical_lemma_k_zero():
    rep = S.check_technical_lemma(7.0, 2.0, 10_000, 11, 0.05, 0)
    assert rep.log_p_or_zero == 0.0  # probability exactly 1
    assert rep.or_band == "I0"
    assert rep.ok


def test_technical_lemma_huge_m_one_off_the_ends():
    # M > 2^53: 1 - k/M for k = 1 (and the zeros-count for k = M - 1) must
    # not round to log(0); this tuple is drawn by `check lemma --seed 825368914`
    a, s, m, n, gamma = (31.621891952577354, 17.663265324289764, 32751464541038204,
                         196, 0.009735847953084733)
    t = math.ceil(math.exp(a) * s)
    one, twin = (S.check_technical_lemma(a, s, m, n, gamma, k) for k in (1, m - 1))
    assert one.hypotheses_ok and one.ok and twin.hypotheses_ok and twin.ok
    assert one.log_p_or_zero == pytest.approx(-t / m, rel=1e-12)
    assert one.log_p_and_one == pytest.approx(-t * math.log(m), rel=1e-12)
    # the twin's ones-count is the first tuple's zeros-count, and vice versa
    assert (twin.log_p_or_zero, twin.log_p_and_one) == (one.log_p_and_one, one.log_p_or_zero)


def test_technical_lemma_hypothesis_reporting():
    rep = S.check_technical_lemma(1.0, 5.0, 100, 100, 0.5, 3)
    assert not rep.hypotheses_ok
    assert rep.hypotheses["expA_ge_n_cubed"] is False
    assert rep.hypotheses["gamma_in_range"] is False


def test_technical_lemma_random_sweep():
    from apxmaj.cli import _lemma_tuples
    bad = []
    for tup in _lemma_tuples(500, seed=17):
        rep = S.check_technical_lemma(*tup)
        assert rep.hypotheses_ok
        if not rep.ok:
            bad.append(tup)
    assert bad == []


# --------------------------------------------------------------------- tails

def test_tail_mass_examples():
    assert S.tail_mass(101, 1e-9) == 0.0  # empty open band around 50.5
    assert S.tail_mass(101, 0.25) <= 0.5
    prev = -1.0
    for eps in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0):
        v = S.tail_mass(101, eps)
        assert v >= prev
        prev = v


def test_tail_mass_matches_direct_sum():
    import fractions
    n, eps = 51, 0.25
    half = eps * math.sqrt(n)
    exact = sum(fractions.Fraction(math.comb(n, w), 2**n)
                for w in range(n + 1) if n / 2 - half < w < n / 2 + half)
    assert S.tail_mass(n, eps) == pytest.approx(float(exact), rel=1e-12)


def test_eps0_inequalities_on_grid():
    for j in range(1, 10_001):
        beta = j / 2e4  # (0, 1/2]
        first, second = S.eps0_inequalities_hold(beta)
        assert first and second
