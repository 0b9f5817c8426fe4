"""Randomized level-by-level synthesis of monotone approximate-majority
circuits, plus the analytical machinery used to pick and check parameters.

A plan lays out d levels: level 1 is a width-M layer of fan-in-A AND gates
over random input draws; levels 2..d-2 alternate OR/AND over random draws
from the previous layer; level d-1 is the width-M' layer feeding a single
top gate of fan-in ceil(e^s_top).  Gate kinds strictly alternate starting
from AND at level 1 (so the top gate is OR when d is even and AND when d is
odd).  All draws are with replacement; duplicate inputs of a gate are
harmless for AND/OR and are deduplicated in the IR.

Two planning modes:

* asymptotic -- A = floor(n^(1/2(d-1))), log M = 10A, s_top =
  10*A*ln(1/eps)/eps, fan-ins coupled as ceil(e^A * s).  These plans have
  astronomically wide levels for honest n; they stay analyzable (gamma
  sequence, technical-lemma checks, mean-field trajectories) and refuse
  synthesis above the width cap.
* desk-scale -- widths and A come from overrides.  The e^A*s fan-in coupling
  is replaced by calibration against the exact mean-field center: a fan-in-A
  AND layer fires with probability 2^-A (not e^-A) on balanced inputs, and at
  small A the distinction moves the circuit's decision threshold far from
  n/2, so desk fan-ins solve t = s / -ln(1 - center) instead.  The gamma
  recurrence itself is never changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuits import CircuitDag, Gate, GateKind, PackedEvaluator, pack_lanes
from .errors import ApxMajError, ResourceLimitError
from .gf2poly import _as_mask
from .rng import derive_seed, rng_for

EPS0 = 0.5
WIDTH_CAP = 10**7


class ResampleExhausted(ApxMajError):
    def __init__(self, tries: int, histogram: dict[int, int]):
        self.tries = tries
        self.histogram = histogram
        super().__init__(f"no valid circuit in {tries} tries; failures per level: {histogram}")


def gamma_sequence(a: float, gamma0: float, count: int) -> tuple[float, ...]:
    """gamma_0, then gamma_i = A*gamma_{i-1}*exp(-2*A*gamma_{i-1})."""
    gs = [gamma0]
    for _ in range(count):
        g = gs[-1]
        gs.append(a * g * math.exp(-2.0 * a * g))
    return tuple(gs)


def gamma_envelope(a: float, gamma0: float, i: int) -> tuple[float, float]:
    """Claimed envelope for gamma_i: [A^i g0 exp(-3 A^i g0), A^i g0].

    The lower end is provable only for A >= 3; at A = 2 the recurrence dips
    below it from i = 3 on (see tests).
    """
    top = (a**i) * gamma0
    return top * math.exp(-3.0 * top), top


@dataclass(frozen=True)
class LevelSpec:
    index: int                 # 1-based level number
    kind: GateKind             # AND or OR
    log_width: float
    log_fan_in: float
    width: int | None          # None when it exceeds the width cap
    fan_in: int | None

    def describe(self) -> str:
        w = str(self.width) if self.width is not None else f"e^{self.log_width:.1f}"
        t = str(self.fan_in) if self.fan_in is not None else f"e^{self.log_fan_in:.1f}"
        return f"level {self.index}: {self.kind.value} width {w} fan-in {t}"


@dataclass(frozen=True)
class BiasBands:
    """Input promise sets: Y_eps / N_eps are weight thresholds on the input."""

    n: int
    eps: float

    @property
    def y_threshold(self) -> float:
        return (0.5 + self.eps / math.sqrt(self.n)) * self.n

    @property
    def n_threshold(self) -> float:
        return (0.5 - self.eps / math.sqrt(self.n)) * self.n


@dataclass(frozen=True)
class SynthPlan:
    n: int
    d: int
    eps: float
    mode: str                       # "asymptotic" | "desk-scale"
    a: int
    log_m: float
    log_m_top: float
    s_top: float
    gamma: tuple[float, ...]        # gamma_0 .. gamma_{d-2}
    delta: float
    levels: tuple[LevelSpec, ...]
    side_conditions: dict[str, bool]
    side_values: dict[str, float]
    eps0: float = EPS0

    @property
    def m(self) -> int | None:
        return self.levels[0].width

    @property
    def m_top(self) -> int | None:
        return self.levels[-2].width if self.d >= 2 else None

    @property
    def synthesizable(self) -> bool:
        return not self.synth_blockers()

    def synth_blockers(self) -> list[str]:
        out = []
        for spec in self.levels:
            if spec.width is None:
                out.append(f"{spec.describe()}: width exceeds cap {WIDTH_CAP}")
            if spec.fan_in is None:
                out.append(f"{spec.describe()}: fan-in exceeds cap {WIDTH_CAP}")
        return out

    def bands(self) -> BiasBands:
        return BiasBands(self.n, self.eps)


# override key -> (lower bound, whether the bound is strict); every value
# must also be finite
_OVERRIDE_LOWER = {"A": (1, False), "M": (1, False), "M_top": (1, False),
                   "logM": (0, False), "logM_top": (0, False), "s_top": (0, True)}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):  # an int beyond the float range, or not a number
        return False


def plan(n: int, d: int, eps: float, overrides: dict | None = None) -> SynthPlan:
    """Parameter sheet for the construction; overrides switch to desk mode.

    Recognized override keys: A, M, logM, M_top, logM_top, s_top.  Each
    value must be finite, with A, M, M_top >= 1, logM, logM_top >= 0 and
    s_top > 0; any other value raises a ValueError naming its key.  n must
    fit a float.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not _finite(n):
        raise ValueError(f"n does not fit a float (a {n.bit_length()}-bit integer)")
    if d < 2:
        raise ValueError("need depth d >= 2")
    if not 0 < eps <= 0.5:
        raise ValueError("need 0 < eps <= 1/2")
    ov = dict(overrides or {})
    unknown = set(ov) - set(_OVERRIDE_LOWER)
    if unknown:
        raise ValueError(f"unknown overrides: {sorted(unknown)}")
    for key, value in ov.items():
        lower, strict = _OVERRIDE_LOWER[key]
        if not (_finite(value) and (value > lower if strict else value >= lower)):
            raise ValueError(f"override {key} must be finite and {'>' if strict else '>='} "
                             f"{lower}, got {value!r}")
    desk = bool(ov)

    a = int(ov.get("A", math.floor(n ** (1.0 / (2 * (d - 1))))))
    log_m = math.log(ov["M"]) if "M" in ov else float(ov.get("logM", 10.0 * a))
    if "M_top" in ov:
        log_m_top = math.log(ov["M_top"])
    elif "logM_top" in ov:
        log_m_top = float(ov["logM_top"])
    elif desk:
        log_m_top = log_m
    else:
        log_m_top = None  # fixed below once s_top is known

    if "s_top" in ov:
        s_top = float(ov["s_top"])
    elif desk:
        s_top = 0.5 * log_m_top  # keeps ~sqrt(M') expected survivors at the top
    else:
        s_top = 10.0 * a * math.log(1.0 / eps) / eps
    if log_m_top is None:
        log_m_top = s_top + 10.0 * a

    gamma = gamma_sequence(a, eps / math.sqrt(n), d - 2)

    if desk:
        center = 0.5**a                      # exact mean-field ones-fraction at w = n/2
        lam = -math.log1p(-center)
        # past A = 1074, 2^-A underflows to 0: such fan-ins exceed every cap
        log_t_mid = math.log(max(a * math.log(2.0) / lam, 1.0)) if lam else math.inf
        log_t_pen = math.log(max(s_top / lam, 1.0)) if lam else math.inf
    else:
        log_t_mid = a + math.log(a) if a > 1 else a  # ceil(e^A * A)
        log_t_pen = a + math.log(s_top)
    log_t_final = s_top

    def materialize(log_v: float) -> int | None:
        if log_v > math.log(WIDTH_CAP):
            return None
        # exp(log(v)) overshoots an integer v (an M override) by a few ulps
        return max(1, math.ceil(math.exp(log_v) * (1 - 1e-12)))

    levels: list[LevelSpec] = []
    kind_at = lambda i: GateKind.AND if i % 2 == 1 else GateKind.OR
    levels.append(LevelSpec(1, GateKind.AND, log_m, math.log(a), materialize(log_m),
                            a if a <= WIDTH_CAP else None))
    for i in range(2, d - 1):
        levels.append(LevelSpec(i, kind_at(i), log_m, log_t_mid,
                                materialize(log_m), materialize(log_t_mid)))
    if d >= 3:
        levels.append(LevelSpec(d - 1, kind_at(d - 1), log_m_top, log_t_pen,
                                materialize(log_m_top), materialize(log_t_pen)))
    levels.append(LevelSpec(d, kind_at(d), 0.0, log_t_final, 1, materialize(log_t_final)))

    ln_n = math.log(n)
    side_values = {
        "A": float(a),
        "10*ln(n)": 10.0 * ln_n,
        "3*ln(n)": 3.0 * ln_n,
        "max_gamma": max(gamma[1:], default=gamma[0]),
        "min_gamma": min(gamma[1:], default=gamma[0]),
        "max_mid_s_gamma": max((a * g for g in gamma[1:]), default=0.0),
        "top_s_gamma": s_top * gamma[-1],
        "5*ln(1/eps)": 5.0 * math.log(1.0 / eps),
    }
    side_conditions = {
        "A_ge_10_ln_n": a >= 10.0 * ln_n,
        "expA_ge_n_cubed": a >= 3.0 * ln_n,
        "gamma_in_lemma_range": all(1.0 / n < g < 0.1 for g in gamma[1:]) if d > 2 else True,
        "mid_s_gamma_le_eps0": side_values["max_mid_s_gamma"] <= EPS0,
        "top_s_gamma_ge_5_ln_inv_eps": side_values["top_s_gamma"] >= side_values["5*ln(1/eps)"],
    }

    return SynthPlan(
        n=n, d=d, eps=eps, mode="desk-scale" if desk else "asymptotic",
        a=a, log_m=log_m, log_m_top=log_m_top, s_top=s_top,
        gamma=gamma, delta=1 / n**3,  # int division: no float overflow of n^3
        levels=tuple(levels),
        side_conditions=side_conditions, side_values=side_values,
    )


@dataclass(frozen=True)
class SynthResult:
    plan: SynthPlan
    seed: int
    dag: CircuitDag
    level_ranges: tuple[tuple[int, int], ...]  # gate-id [start, end) per level

    def level_values(self, input_words: np.ndarray) -> list[np.ndarray]:
        """Raw packed words of every gate, sliced per level."""
        v = PackedEvaluator(self.dag).run(input_words)
        return [v[a:b] for a, b in self.level_ranges]

    def level_ones(self, masks: Sequence[int]) -> np.ndarray:
        """(levels, lanes) int64: how many gates of each level are 1 when lane
        j evaluates the assignment whose bit i is bit i of masks[j]."""
        counts = [np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").sum(axis=0)
                  for rows in self.level_values(pack_lanes(self.plan.n, masks))]
        return np.array([c[: len(masks)] for c in counts], dtype=np.int64)


def synth(p: SynthPlan, seed: int) -> SynthResult:
    """Materialize one random circuit from the plan; deterministic in seed."""
    blockers = p.synth_blockers()
    if blockers:
        raise ResourceLimitError("; ".join(blockers))
    gates: list[Gate] = [Gate(GateKind.INPUT)] * p.n
    ranges: list[tuple[int, int]] = []
    prev_start, prev_count = 0, p.n
    for spec in p.levels:
        rng = rng_for(seed, "level", spec.index)
        draws = rng.integers(0, prev_count, size=(spec.width, spec.fan_in), dtype=np.int64)
        start = len(gates)
        for row in draws:
            args = tuple(sorted({prev_start + int(j) for j in row}))
            gates.append(Gate(spec.kind, args))
        ranges.append((start, len(gates)))
        prev_start, prev_count = start, spec.width
    dag = CircuitDag(p.n, tuple(gates), (len(gates) - 1,))
    return SynthResult(plan=p, seed=seed, dag=dag, level_ranges=tuple(ranges))


# ---------------------------------------------------------------------------
# mean-field analysis

@dataclass(frozen=True)
class LevelPrediction:
    index: int
    kind: GateKind
    width: float
    fan_in: float
    ones_fraction: float
    sigma: float          # std of the observed fraction, upstream noise included
    band_lo: float | None  # target band on the informative-statistic fraction
    band_hi: float | None
    band_stat: str        # "ones" (AND level) or "zeros" (OR level)


def bias_recurrence(p: SynthPlan, w: int) -> list[LevelPrediction]:
    """Level-by-level predicted ones-fraction for an input of weight w.

    Level 1 fires with probability exactly (w/n)^A under with-replacement
    draws; each later level applies q -> q^t (AND) or 1-(1-q)^t (OR).  sigma
    propagates the binomial noise of finite widths through the recurrence to
    first order, so `observed within 3 sigma` is meaningful level by level.
    """
    if not 0 <= w <= p.n:
        raise ValueError(f"weight must be in 0..{p.n}")
    q = w / p.n
    var = 0.0
    out: list[LevelPrediction] = []
    for spec in p.levels:
        t = spec.fan_in if spec.fan_in is not None else math.exp(spec.log_fan_in)
        width = spec.width if spec.width is not None else math.exp(min(spec.log_width, 700.0))
        if spec.kind is GateKind.AND:
            q_next = q**t
            dq = t * q ** (t - 1) if q > 0 else 0.0
        else:
            q_next = 1.0 - (1.0 - q) ** t
            dq = t * (1.0 - q) ** (t - 1) if q < 1 else 0.0
        var = q_next * (1.0 - q_next) / width + (dq * dq) * var
        gamma_i = p.gamma[spec.index] if spec.index <= p.d - 2 else None
        if gamma_i is not None:
            lo, hi = math.exp(-p.a) * (1 - gamma_i), math.exp(-p.a) * (1 + gamma_i)
        else:
            lo = hi = None
        out.append(LevelPrediction(
            index=spec.index, kind=spec.kind, width=width, fan_in=t,
            ones_fraction=q_next, sigma=math.sqrt(var),
            band_lo=lo, band_hi=hi,
            band_stat="ones" if spec.kind is GateKind.AND else "zeros",
        ))
        q = q_next
    return out


@dataclass(frozen=True)
class LevelObservation:
    index: int
    kind: GateKind
    width: int
    ones: int
    ones_fraction: float
    predicted: float
    sigma: float
    within_3_sigma: bool
    band_lo: float | None
    band_hi: float | None
    band_membership: str | None  # I0/I1 (AND levels), J0/J1 (OR levels), None


def level_checks(result: SynthResult,
                 xs: Sequence[Sequence[int] | int]) -> list[list[LevelObservation]]:
    """Evaluate every assignment of xs in one pass and report, per assignment,
    the per-level ones-fractions against the mean-field prediction, plus
    membership in the one-sided count sets around M*e^-A: I0/I1 bound the ones
    of an AND level from below/above, J1/J0 the zeros of an OR level."""
    p = result.plan
    masks = [_as_mask(p.n, x) for x in xs]
    ones = result.level_ones(masks)
    return [_observations(p, m.bit_count(), ones[:, j]) for j, m in enumerate(masks)]


def empirical_level_check(result: SynthResult, x: Sequence[int] | int) -> list[LevelObservation]:
    """`level_checks` of the one assignment x."""
    return level_checks(result, [x])[0]


def _observations(p: SynthPlan, w: int, counts: np.ndarray) -> list[LevelObservation]:
    out = []
    for spec, pred, ones in zip(p.levels, bias_recurrence(p, w), counts.tolist()):
        frac = ones / spec.width
        membership = None
        if pred.band_lo is not None:
            stat = ones if pred.band_stat == "ones" else spec.width - ones
            low_set, high_set = ("I0", "I1") if pred.band_stat == "ones" else ("J1", "J0")
            if stat <= pred.band_lo * spec.width:
                membership = low_set
            elif stat >= pred.band_hi * spec.width:
                membership = high_set
        out.append(LevelObservation(
            index=spec.index, kind=spec.kind, width=spec.width, ones=ones,
            ones_fraction=frac, predicted=pred.ones_fraction, sigma=pred.sigma,
            within_3_sigma=abs(frac - pred.ones_fraction) <= 3.0 * pred.sigma,
            band_lo=pred.band_lo, band_hi=pred.band_hi,
            band_membership=membership,
        ))
    return out


def resample_until_valid(p: SynthPlan, witnesses: Sequence[Sequence[int] | int],
                         max_tries: int, seed: int,
                         slack_sigmas: float = 3.0) -> tuple[SynthResult, int, dict[int, int]]:
    """Draw circuits until one keeps every witness within slack_sigmas of its
    predicted trajectory at every level.  At the width-1 output level the
    prediction's own sigma makes this a correctness requirement exactly where
    the mean field is confident and vacuous near the decision boundary.
    Returns (result, tries, per-level failure histogram); raises
    ResampleExhausted with the histogram otherwise.
    """
    if not witnesses:
        raise ValueError("witness set must be nonempty")
    masks = [_as_mask(p.n, x) for x in witnesses]
    weights = [m.bit_count() for m in masks]
    preds = {w: bias_recurrence(p, w) for w in set(weights)}
    histogram: dict[int, int] = {}
    for attempt in range(max_tries):
        result = synth(p, derive_seed(seed, "try", attempt))
        ones = result.level_ones(masks).tolist()
        for li, spec in enumerate(p.levels):
            level_preds = [preds[w][li] for w in weights]
            if any(abs(k / spec.width - pred.ones_fraction) > slack_sigmas * pred.sigma
                   for k, pred in zip(ones[li], level_preds)):
                histogram[spec.index] = histogram.get(spec.index, 0) + 1
                break
        else:
            return result, attempt + 1, histogram
    raise ResampleExhausted(max_tries, histogram)


# ---------------------------------------------------------------------------
# the sampling lemma's exact bound checks

@dataclass(frozen=True)
class BoundCheck:
    name: str
    applies: bool
    holds: bool | None
    log_lhs: float | None   # log of the exact probability
    log_rhs: float | None   # log of the claimed bound


@dataclass(frozen=True)
class TechnicalLemmaReport:
    a: float
    s: float
    m: int
    n: int
    gamma: float
    k: int
    t: int
    hypotheses: dict[str, bool]
    log_p_or_zero: float      # log Pr[OR of t draws = 0] given ones-count k
    log_p_and_one: float      # log Pr[AND of t draws = 1] given zeros-count M-k
    or_band: str | None       # I0 / I1 membership of the ones-count
    and_band: str | None      # J0 / J1 membership of the zeros-count
    checks: tuple[BoundCheck, ...]

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks if c.applies)


def _log_complement(k: int, z: int, m: int) -> float:
    """log(1 - k/m), with z = m - k: log1p(-k/m) when k/m is the smaller
    ratio, else log(z/m), so 1 - k/m never rounds to 0 when m > 2^53."""
    if z == 0:
        return -math.inf
    return math.log1p(-k / m) if k <= z else math.log(z / m)


def check_technical_lemma(a: float, s: float, m: int, n: int, gamma: float,
                          k: int) -> TechnicalLemmaReport:
    """Exact (1 - k/M)^t versus the claimed exp(-s)-scale bounds.

    t = ceil(e^a * s).  The OR-event bounds apply when the ones-count k falls
    in I0/I1; the dual AND-event bounds use the zeros-count M-k against J1/J0.
    Refined (1 +- s*gamma*exp(-s*gamma)) bounds additionally need
    s*gamma <= EPS0; the refined lower bound also needs s >= 1 (the plain
    bounds do not).  Hypothesis failures are reported, never raised.
    """
    if m < 1:
        raise ValueError("M must be positive")
    if not 0 <= k <= m:
        raise ValueError("ones-count k must be in 0..M")
    hypotheses = {
        "expA_ge_n_cubed": a >= 3.0 * math.log(n),
        "n_ge_inv_eps0": n >= 1.0 / EPS0,
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
    refined_ok = sg <= EPS0
    checks: list[BoundCheck] = []

    def emit(name, applies, log_lhs, log_rhs, lower: bool):
        holds = None
        if applies:
            holds = (log_lhs >= log_rhs) if lower else (log_lhs <= log_rhs)
        checks.append(BoundCheck(name, applies, holds, log_lhs if applies else None,
                                 log_rhs if applies else None))

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

    return TechnicalLemmaReport(
        a=a, s=s, m=m, n=n, gamma=gamma, k=k, t=t,
        hypotheses=hypotheses,
        log_p_or_zero=log_p_or, log_p_and_one=log_p_and,
        or_band=or_band, and_band=and_band,
        checks=tuple(checks),
    )


def eps0_inequalities_hold(beta: float) -> tuple[bool, bool]:
    """The two smallness inequalities behind eps0 = 1/2:
    exp(-b) <= 1 - b*exp(-b)  and  1 - b >= exp(-b - b^2)."""
    first = math.exp(-beta) <= 1.0 - beta * math.exp(-beta)
    second = 1.0 - beta >= math.exp(-beta - beta * beta)
    return first, second


def tail_mass(n: int, eps: float) -> float:
    """Exact probability that a uniform input has weight strictly inside
    (n/2 - eps*sqrt(n), n/2 + eps*sqrt(n)); log-gamma evaluation per term."""
    if n < 1:
        raise ValueError("n must be >= 1")
    half = eps * math.sqrt(n)
    lo, hi = n / 2.0 - half, n / 2.0 + half
    ln2n = n * math.log(2.0)
    terms = [
        math.exp(math.lgamma(n + 1) - math.lgamma(w + 1) - math.lgamma(n - w + 1) - ln2n)
        for w in range(n + 1)
        if lo < w < hi
    ]
    return math.fsum(terms)
