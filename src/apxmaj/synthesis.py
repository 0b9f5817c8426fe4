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

from .circuits import KINDS, CircuitDag, GateKind, PackedEvaluator, pack_lanes
from .errors import ApxMajError, ResourceLimitError
from .gf2poly import _as_mask, lane_bits
from .rng import derive_seed, rng_for

EPS0 = 0.5
WIDTH_CAP = 10**7
# most drawn operands (sum of width * fan-in) synth may hold, each input counted
# as INPUT_OPERANDS of them: synth peaks near 60 B per operand at the desk shape
# and 170 B per input, so near 6 GB at the cap
OPERAND_CAP = 10**8
INPUT_OPERANDS = 3
# deepest plan: a plan holds a LevelSpec per level and plan.json lists them
# all, while the construction's depths are O(log n / log log n)
DEPTH_CAP = 1000


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
        out = [f"{spec.describe()}: {name} exceeds cap {WIDTH_CAP}" for spec in self.levels
               for name, value in (("width", spec.width), ("fan-in", spec.fan_in)) if value is None]
        operands = 0 if out else sum(spec.width * spec.fan_in for spec in self.levels)
        if not out and INPUT_OPERANDS * self.n + operands > OPERAND_CAP:
            out.append(f"{self.n} inputs and {operands} drawn operands exceed cap {OPERAND_CAP}")
        return out


# the override keys; each takes a finite integer >= 1 (not a boolean)
_OVERRIDE_KEYS = ("A", "M", "M_top")


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):  # an int beyond the float range, or not a number
        return False


def plan(n: int, d: int, eps: float, overrides: dict | None = None) -> SynthPlan:
    """Parameter sheet for the construction; overrides switch to desk mode.

    Recognized override keys: A, M, M_top.  Each value must be a finite
    integer >= 1; any other value raises a ValueError naming its key.  n
    must fit a float, and d above DEPTH_CAP raises ResourceLimitError before
    any level is laid out.
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
    unknown = set(ov) - set(_OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"unknown overrides: {sorted(unknown)}")
    for key, value in ov.items():
        if not (type(value) is int and _finite(value) and value >= 1):
            raise ValueError(f"override {key} must be finite and an integer >= 1, got {value!r}")
    if d > DEPTH_CAP:
        raise ResourceLimitError(f"depth d={d} exceeds cap {DEPTH_CAP}")
    desk = bool(ov)

    a = ov.get("A", math.floor(n ** (1.0 / (2 * (d - 1)))))
    log_m = math.log(ov["M"]) if "M" in ov else 10.0 * a
    if desk:
        log_m_top = math.log(ov["M_top"]) if "M_top" in ov else log_m
        s_top = 0.5 * log_m_top  # keeps ~sqrt(M') expected survivors at the top
    else:
        s_top = 10.0 * a * math.log(1.0 / eps) / eps
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
        return np.array([lane_bits(rows, len(masks)).sum(axis=0)
                         for rows in self.level_values(pack_lanes(self.plan.n, masks))], dtype=np.int64)


def synth(p: SynthPlan, seed: int) -> SynthResult:
    """Materialize one random circuit from the plan; deterministic in seed."""
    blockers = p.synth_blockers()
    if blockers:
        raise ResourceLimitError("; ".join(blockers))
    kinds, lengths, operands = [np.full(p.n, KINDS.index(GateKind.INPUT))], [np.zeros(p.n, np.int64)], []
    ranges = [(0, p.n)]  # the inputs, then each level's gate ids
    for spec in p.levels:
        (prev_start, start), rng = ranges[-1], rng_for(seed, "level", spec.index)
        draws = rng.integers(0, start - prev_start, size=(spec.width, spec.fan_in), dtype=np.int64)
        draws.sort(axis=1)
        fresh = np.ones(draws.shape, dtype=bool)  # each row's operands sorted, repeats dropped
        fresh[:, 1:] = draws[:, 1:] != draws[:, :-1]
        kinds.append(np.full(spec.width, KINDS.index(spec.kind)))
        lengths.append(fresh.sum(axis=1))
        operands.append(prev_start + draws[fresh])
        ranges.append((start, start + spec.width))
    dag = CircuitDag(p.n, np.concatenate(kinds), np.cumsum(np.concatenate([[0], *lengths])),
                     np.concatenate(operands), (ranges[-1][1] - 1,))
    return SynthResult(plan=p, seed=seed, dag=dag, level_ranges=tuple(ranges[1:]))


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
    band_lo: float | None  # e^-A (1 -/+ gamma_i): the fraction bands of the ones of an
    band_hi: float | None  # AND level and the zeros of an OR level (`_band`'s I0/I1, J1/J0)


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


def level_checks(result: SynthResult, xs: Sequence[int]) -> list[list[LevelObservation]]:
    """Evaluate every assignment of xs in one pass and report, per assignment,
    the per-level ones-fractions against the mean-field prediction and the
    level's band bounds."""
    ones = result.level_ones(xs)  # pack_lanes range-checks every point
    return [_observations(result.plan, x.bit_count(), ones[:, j]) for j, x in enumerate(xs)]


def empirical_level_check(result: SynthResult, x: int) -> list[LevelObservation]:
    """`level_checks` of the one assignment x."""
    return level_checks(result, [x])[0]


def _observations(p: SynthPlan, w: int, counts: np.ndarray) -> list[LevelObservation]:
    out = []
    for spec, pred, ones in zip(p.levels, bias_recurrence(p, w), counts.tolist()):
        frac = ones / spec.width
        out.append(LevelObservation(
            index=spec.index, kind=spec.kind, width=spec.width, ones=ones,
            ones_fraction=frac, predicted=pred.ones_fraction, sigma=pred.sigma,
            within_3_sigma=abs(frac - pred.ones_fraction) <= 3.0 * pred.sigma,
            band_lo=pred.band_lo, band_hi=pred.band_hi,
        ))
    return out


def resample_until_valid(p: SynthPlan, witnesses: Sequence[int],
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
    histogram: dict[int, int] = {}
    for attempt in range(max_tries):
        result = synth(p, derive_seed(seed, "try", attempt))
        for level in zip(*level_checks(result, masks)):  # every witness, level by level
            if any(abs(obs.ones_fraction - obs.predicted) > slack_sigmas * obs.sigma
                   for obs in level):
                histogram[level[0].index] = histogram.get(level[0].index, 0) + 1
                break
        else:
            return result, attempt + 1, histogram
    raise ResampleExhausted(max_tries, histogram)


# ---------------------------------------------------------------------------
# the sampling lemma's exact bound checks, elementwise over arrays

@dataclass(frozen=True)
class BoundCheck:
    name: str
    applies: np.ndarray   # bool
    holds: np.ndarray     # bool, True where the check does not apply
    log_lhs: np.ndarray   # log of the exact probability, also where the check
    log_rhs: np.ndarray   # does not apply, and log of the claimed bound


@dataclass(frozen=True)
class TechnicalLemmaReport:
    a: np.ndarray             # float64, as are s and gamma
    s: np.ndarray
    m: np.ndarray             # int64, as are n and k
    n: np.ndarray
    gamma: np.ndarray
    k: np.ndarray
    t: np.ndarray             # float64 holding the integer ceil(e^a * s)
    hypotheses: dict[str, np.ndarray]
    log_p_or_zero: np.ndarray  # log Pr[OR of t draws = 0] given ones-count k
    log_p_and_one: np.ndarray  # log Pr[AND of t draws = 1] given zeros-count M-k
    or_band: np.ndarray       # I0 / I1 membership of the ones-count, "" for none
    and_band: np.ndarray      # J0 / J1 membership of the zeros-count, "" for none
    checks: tuple[BoundCheck, ...]

    @property
    def hypotheses_ok(self) -> np.ndarray:
        return np.logical_and.reduce(list(self.hypotheses.values()))

    @property
    def ok(self) -> np.ndarray:
        return np.logical_and.reduce([c.holds for c in self.checks])


def _log_complement(k: np.ndarray, z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log(1 - k/m), with z = m - k: log1p(-k/m) where k/m is the smaller
    ratio, else log(z/m), so 1 - k/m never rounds to 0 when m > 2^53."""
    return np.where(k <= z, np.log1p(-k / m), np.log(z / m))


def _band(count, m, a, gamma, low: str, high: str) -> np.ndarray:
    """`low` where count <= M e^-a (1 - gamma), `high` where count >= M e^-a (1 + gamma), else ""."""
    center = m * np.exp(-a)
    return np.where(count <= center * (1 - gamma), low, np.where(count >= center * (1 + gamma), high, ""))


def _bound(name: str, applies, log_lhs, log_rhs, lower: bool) -> BoundCheck:
    holds = log_lhs >= log_rhs if lower else log_lhs <= log_rhs
    return BoundCheck(name, applies, holds | ~applies, log_lhs, log_rhs)


def check_technical_lemma(a, s, m, n, gamma, k) -> TechnicalLemmaReport:
    """Exact (1 - k/M)^t versus the claimed exp(-s)-scale bounds, elementwise
    over numbers or equal-shape arrays (a, s, gamma as float64; m, n, k as
    int64, so M - k stays exact above 2^53); each report field has their shape.

    t = ceil(e^a * s).  The OR-event bounds apply when the ones-count k falls
    in I0/I1; the dual AND-event bounds use the zeros-count M-k against J1/J0.
    Refined (1 +- s*gamma*exp(-s*gamma)) bounds additionally need
    s*gamma <= EPS0; the refined lower bound also needs s >= 1 (the plain
    bounds do not).  Hypothesis failures are reported, never raised; M < 1 or
    k outside 0..M raises ValueError, and a t past the float range OverflowError.
    """
    a, s, gamma = (np.asarray(v, dtype=np.float64) for v in (a, s, gamma))
    m, n, k = (np.asarray(v, dtype=np.int64) for v in (m, n, k))
    if (m < 1).any():
        raise ValueError("M must be positive")
    if ((k < 0) | (k > m)).any():
        raise ValueError("ones-count k must be in 0..M")
    with np.errstate(all="ignore"):  # log(0) = -inf is a probability of 0
        t = np.ceil(np.exp(a) * s)
        if not np.isfinite(t).all():
            raise OverflowError("a result is not finite")
        hypotheses = {
            "expA_ge_n_cubed": a >= 3.0 * np.log(n),
            "n_ge_inv_eps0": n >= 1.0 / EPS0,
            "s_le_n": s <= n,
            "s_ge_1": s >= 1.0,
            "gamma_in_range": (1.0 / n < gamma) & (gamma < 0.1),
        }
        log_p_or = t * _log_complement(k, m - k, m)
        log_p_and = t * _log_complement(m - k, k, m)
        or_band = _band(k, m, a, gamma, "I0", "I1")
        and_band = _band(m - k, m, a, gamma, "J1", "J0")

        sg = s * gamma
        refined_ok = sg <= EPS0
        lower, upper = -s + sg / 2, -s - sg
        refined_lower, refined_upper = -s + np.log1p(sg * np.exp(-sg)), -s + np.log1p(-sg * np.exp(-sg))
        checks = []
        for band, log_p, low, high in ((or_band, log_p_or, "I0", "I1"), (and_band, log_p_and, "J1", "J0")):
            in_low, in_high = band == low, band == high
            checks += [
                _bound(f"{low}: p >= e^-s * e^(s*gamma/2)", in_low, log_p, lower, True),
                _bound(f"{low} refined: p >= e^-s * (1 + s*gamma*e^-s*gamma)", in_low & refined_ok,
                       log_p, refined_lower, True),
                _bound(f"{high}: p <= e^-s * e^(-s*gamma)", in_high, log_p, upper, False),
                _bound(f"{high} refined: p <= e^-s * (1 - s*gamma*e^-s*gamma)", in_high & refined_ok,
                       log_p, refined_upper, False),
            ]

    return TechnicalLemmaReport(
        a=a, s=s, m=m, n=n, gamma=gamma, k=k, t=t,
        hypotheses=hypotheses,
        log_p_or_zero=log_p_or, log_p_and_one=log_p_and,
        or_band=or_band, and_band=and_band,
        checks=tuple(checks),
    )


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
