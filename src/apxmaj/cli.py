"""Command-line entry point.

Subcommands: compile (formula -> recipe + ledger + error table), synth
(plan/synthesize approximate-majority circuits), verify (certify a netlist
against majority), degree (exhaustive approximate-degree oracle), check
(inequality / lemma / gamma / tail sweeps).

Every command is deterministic given its arguments and --seed; all emitted
JSON is byte-stable across reruns (run timestamps live in one `.meta.json`
sidecar per command).  Exit codes: 0 success/pass, 1 verification failure, 2
usage or parse error, 3 resource cap exceeded, 4 internal error (a bug: any
other exception, reported in one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import compiler, gf2poly, verify as verify_mod
from . import synthesis as synth_mod
from .circuits import formula_to_dag, parse_formula, parse_netlist, serialize_netlist
from .errors import DimensionError, ParseError, ResourceLimitError
from .rng import rng_for

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# counted work one `check` sweep may take: inequality cases, gamma steps,
# tail-mass terms; the built-in grids take 133,128, 3,224 and 8,310 of it
CHECK_WORK_CAP = 10**6
# tuples `check lemma` draws per chunk: chunk c, tuples c * LEMMA_CHUNK on, is keyed by (seed, c)
LEMMA_CHUNK = 4096
ERROR_TABLE_MAX_N = 16  # most variables of a formula `compile` writes errors.csv rows for


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse uses code 2 for usage errors already
        return int(e.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource cap: input nested too deep (Python recursion limit)", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # never a traceback, and never the verdict code 1
        print(f"internal error: {type(e).__name__}: {' '.join(str(e).split())}", file=sys.stderr)
        return EXIT_INTERNAL


@functools.cache  # built on the first call to main, not at import
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="apxmaj", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")

    def common(sp, trials=True):
        sp.add_argument("--seed", type=int, default=0)
        if trials:
            sp.add_argument("--trials", type=_positive_int, default=2000)
        sp.add_argument("--out", default="out")

    sp = sub.add_parser("compile", help="formula -> probabilistic polynomial recipe")
    sp.add_argument("formula", help="path to an s-expression formula file")
    common(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("synth", help="plan/synthesize an approximate-majority circuit")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--override", default="",
                    help="comma list, e.g. A=3,M=16384,Mtop=16384")
    common(sp, trials=False)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("verify", help="certify a netlist as an approximate majority")
    sp.add_argument("netlist", help="path to a netlist file")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--mode", choices=["exact", "mc"], default="exact")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("degree", help="exhaustive minimum approximate degree")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--hex", dest="hex_table", help="truth table as 2^n bits of hex")
    src.add_argument("--netlist", help="netlist file (single output)")
    sp.add_argument("--n", type=int, help="variable count (with --hex only)")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_degree)

    sp = sub.add_parser("check", help="numeric sweeps of the analytical bounds")
    sp.add_argument("kind", choices=["inequality", "lemma", "gamma", "tails"])
    sp.add_argument("--grid", help="JSON grid file (defaults are built in)")
    common(sp)
    sp.set_defaults(func=cmd_check)
    return p


def _number(text: str):
    """An int, else a float, else the text itself."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _positive_int(text: str) -> int:
    value = _number(text)
    if not isinstance(value, int) or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_overrides(text: str) -> dict:
    """key=value pairs as numbers; plan checks each value against its key."""
    keymap = {"a": "A", "m": "M", "mtop": "M_top", "m_top": "M_top"}
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParseError(f"override '{item}' is not key=value")
        key, value = item.split("=", 1)
        name = keymap.get(key.strip().lower())
        if name is None:
            raise ParseError(f"unknown override key '{key}'")
        if name in out:
            raise ParseError(f"override {name} must be given once")
        out[name] = _number(value.strip())
    return out


# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    text = Path(args.formula).read_text()
    formula = parse_formula(text)
    recipe = compiler.compile_formula(formula)
    out = Path(args.out)
    doc = compiler.recipe_to_json(recipe)
    doc["seed"] = args.seed
    doc["trials"] = args.trials
    verify_mod.emit_report(doc, out / "recipe.json")
    verify_mod.emit_report(recipe.ledger(), out / "ledger.csv")

    rows, max_deg, capped = [], None, ""  # the error table needs the full-table sampler
    if recipe.n <= ERROR_TABLE_MAX_N:
        try:  # the whole --trials, before the first chunk
            compiler.check_sample_work(recipe, 1 << recipe.n, -(-args.trials // 64))
        except ResourceLimitError as e:
            capped = f"\nno error table: {e}"
        else:
            truth = gf2poly.table_rows(verify_mod.TruthTable.from_circuit(formula_to_dag(formula)).bits, recipe.n)
            wrong, max_deg = np.zeros(truth.shape, dtype=np.int64), 0
            # one lane chunk at a time: per-input error counts and the largest
            # degree are all that is kept
            for c, start in enumerate(range(0, args.trials, compiler.LANE_CHUNK)):
                lanes = min(compiler.LANE_CHUNK, args.trials - start)
                tables = compiler.sample_tables(recipe, lanes, args.seed, c)
                ones = np.bitwise_count(tables).sum(axis=1, dtype=np.int64)
                wrong += np.where(truth, lanes - ones, ones)
                max_deg = max(max_deg, int(compiler.table_degrees(tables).max()))
            rows = [("input", "empirical_error"), *enumerate((wrong / args.trials).tolist())]
    verify_mod.emit_report(rows, out / "errors.csv",
                           meta={"seed": args.seed, "reports": ["recipe.json", "ledger.csv", "errors.csv"]})

    print(f"compiled: size={recipe.formula_size} depth={recipe.formula_depth} "
          f"degree_bound={recipe.degree_bound} err_bound={recipe.err_bound:.6f} "
          f"theoretical={recipe.theoretical_bound:.1f}"
          + (f" max_sampled_degree={max_deg}" if max_deg is not None else "") + capped)
    return EXIT_OK


def cmd_synth(args) -> int:
    p = synth_mod.plan(args.n, args.d, args.eps, _parse_overrides(args.override))
    out = Path(args.out)
    doc = _plan_json(p)
    doc["seed"] = args.seed
    meta = {"seed": args.seed, "reports": ["plan.json"]}  # the sidecar goes with the last report
    verify_mod.emit_report(doc, out / "plan.json", meta=None if p.synthesizable else meta)
    if not p.synthesizable:
        print("NOTSYNTH: " + "; ".join(p.synth_blockers()))
        print(f"plan written to {out / 'plan.json'} (analysis only)")
        return EXIT_OK
    result = synth_mod.synth(p, args.seed)
    (out / "circuit.netlist").write_text(serialize_netlist(result.dag))
    weights = sorted({int(0.4 * p.n), p.n // 2, math.ceil(0.6 * p.n)})
    checks = synth_mod.level_checks(result, [_random_weighted_input(p.n, w, args.seed)
                                             for w in weights])
    band_rows = [("weight", "level", "kind", "ones_fraction", "predicted", "sigma",
                  "band_lo", "band_hi", "pass"),
                 *((w, obs.index, obs.kind.value, obs.ones_fraction, obs.predicted, obs.sigma,
                    obs.band_lo, obs.band_hi, obs.within_3_sigma)
                   for w, observations in zip(weights, checks) for obs in observations)]
    meta["reports"] += ["circuit.netlist", "bands.csv"]
    verify_mod.emit_report(band_rows, out / "bands.csv", meta=meta)
    print(f"synthesized: depth={result.dag.depth} gates={result.dag.size} "
          f"live={result.dag.cone().size} monotone={result.dag.is_monotone()}")
    return EXIT_OK


def _random_weighted_input(n: int, w: int, seed: int) -> int:
    bits = np.zeros(n, dtype=np.uint8)
    bits[rng_for(seed, "witness", w).permutation(n)[:w]] = 1
    return gf2poly.bits_int(bits)


def _plan_json(p) -> dict:
    return {
        "n": p.n, "d": p.d, "eps": p.eps, "mode": p.mode, "A": p.a,
        "log_M": p.log_m, "M": p.m, "log_M_top": p.log_m_top, "M_top": p.m_top,
        "s_top": p.s_top, "delta": p.delta, "eps0": synth_mod.EPS0,
        "gamma": list(p.gamma),
        "levels": [{
            "index": s.index, "kind": s.kind.value,
            "width": s.width, "log_width": s.log_width,
            "fan_in": s.fan_in, "log_fan_in": s.log_fan_in,
        } for s in p.levels],
        "side_conditions": p.side_conditions,
        "side_values": p.side_values,
        "synthesizable": p.synthesizable,
        "synth_blockers": p.synth_blockers(),
    }


def _single_output_netlist(path: str):
    dag = parse_netlist(Path(path).read_text())
    if len(dag.outputs) != 1:
        raise ParseError(f"netlist must have exactly one output, has {len(dag.outputs)}")
    return dag


def cmd_verify(args) -> int:
    dag = _single_output_netlist(args.netlist)
    report = verify_mod.certify_approx_majority(dag, args.eps, args.mode, args.trials, args.seed)
    verify_mod.emit_report(vars(report), Path(args.out) / "certification.json",
                           meta={"seed": args.seed})
    print(f"{'PASS' if report.passed else 'FAIL'}: disagreement={report.disagreement:.6f} "
          f"ci=[{report.ci_lo:.6f}, {report.ci_hi:.6f}] trials={report.trials} seed={report.seed}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_degree(args) -> int:
    if (args.hex_table is None) != (args.n is None):
        raise ParseError("--hex needs --n" if args.n is None else "--n goes with --hex")
    if args.hex_table is not None:
        table = verify_mod.TruthTable.from_hex(args.hex_table, args.n)
    else:
        table = verify_mod.TruthTable.from_circuit(_single_output_netlist(args.netlist))
    cert = verify_mod.min_approx_degree(table, args.eps)
    witness = gf2poly.format_poly(cert.witness)
    verify_mod.emit_report({**vars(cert), "witness": witness}, Path(args.out) / "degree.json", meta={})
    print(f"degree={cert.degree} distance={cert.distance} (allowed {cert.allowed}) "
          f"witness={witness}")
    return EXIT_OK


def cmd_check(args) -> int:
    grid = _read_grid(args.grid, args.kind)
    sweeps = {"inequality": _check_inequality, "gamma": _check_gamma, "tails": _check_tails,
              "lemma": functools.partial(_check_lemma, trials=args.trials, seed=args.seed)}
    try:
        summary = sweeps[args.kind](grid)
    except OverflowError as e:
        raise ParseError(f"{args.kind} grid values overflow a float ({e})") from None
    summary["seed"] = args.seed
    verify_mod.emit_report(summary, Path(args.out) / f"check_{args.kind}.json",
                           meta={"seed": args.seed})
    ok = summary["violations"] == 0
    print(f"{args.kind}: checked={summary['checked']} violations={summary['violations']}"
          + (f" hypothesis_skips={summary['hypothesis_skips']}" if "hypothesis_skips" in summary else "")
          + ("" if ok else f" first={summary['first_violation']}"))
    return EXIT_OK if ok else EXIT_FAIL


# --grid keys of each check kind and the type of their values: i_max is one
# integer, every other key a list of numbers, or of lemma tuples
GRID_KEYS = {"inequality": {"a": float, "b": float, "d": int},
             "gamma": {"A": int, "gamma0": float, "i_max": int},
             "tails": {"n": int, "eps": float},
             "lemma": {"tuples": {"A": float, "s": float, "M": int, "n": int, "gamma": float,
                                  "k": int}}}


def _read_grid(path: str | None, kind: str) -> dict:
    """The --grid file of a check kind, checked before the sweep runs."""
    grid = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(grid, dict):
        raise ParseError("grid file must hold a JSON object")
    for key, values in grid.items():
        want = GRID_KEYS[kind].get(key)
        if want is None:
            raise ParseError(f"unknown {kind} grid key '{key}' "
                             f"(expected one of {', '.join(GRID_KEYS[kind])})")
        if key == "i_max":
            _check_grid_number(key, values, want)
            continue
        if not isinstance(values, list):
            raise ParseError(f"grid key '{key}' must be a list, got {values!r}")
        for v in values:
            if not isinstance(want, dict):
                _check_grid_number(key, v, want)
            elif isinstance(v, dict) and set(v) == set(want):
                for k, t in want.items():
                    _check_grid_number(k, v[k], t)
            else:
                raise ParseError(f"each lemma tuple needs exactly the keys {', '.join(want)}")
    return grid


def _check_grid_number(key: str, v, want: type) -> None:
    """An int (not a bool) or, for float keys, a number; finite as a float, not NaN."""
    if (isinstance(v, bool) or not isinstance(v, (int, float) if want is float else int)
            or not abs(v) <= sys.float_info.max):
        raise ParseError(f"grid key '{key}' takes {'numbers' if want is float else 'integers'} "
                         f"that fit a float, got {v!r}")


def _summary(chunks) -> dict:
    """Counts and first violation of a sweep, read chunk by chunk in sweep order:
    each chunk is (holds, describe), the verdicts of its cases and a function
    giving the report of its j-th case, called before the next chunk is read."""
    checked = violations = 0
    first = None
    for holds, describe in chunks:
        holds = np.asarray(holds, dtype=bool)
        checked += holds.size
        if not holds.all():
            violations += holds.size - int(np.count_nonzero(holds))
            if first is None:
                first = describe(int(np.argmin(holds)))
    return {"checked": checked, "violations": violations, "first_violation": first}


def _cap_work(kind: str, work: int) -> None:
    if work > CHECK_WORK_CAP:
        raise ResourceLimitError(f"check {kind} grid needs {work} evaluations, "
                                 f"over the cap of {CHECK_WORK_CAP}")


def _finite(values) -> None:
    """Raise OverflowError unless every number in `values` (array-like) is finite."""
    if not np.isfinite(values).all():
        raise OverflowError("a result is not finite")


def _check_inequality(grid: dict) -> dict:
    avals = [float(v) for v in grid.get("a", [v / 2 for v in range(0, 129)])]
    b = np.array([float(v) for v in grid.get("b", [v / 2 for v in range(0, 129)])])
    dvals = grid.get("d", range(1, 9))
    _cap_work("inequality", len(avals) * b.size * len(dvals))

    def planes():  # one (a, b) plane per d, with the float operations of scalar calls
        for d in dvals:
            holds, gap = compiler.check_key_inequality(np.array(avals)[:, None], b, d)
            _finite(gap)  # a gap past the float range is a bad grid, not a verdict
            yield holds, lambda j: {"a": avals[j // b.size], "b": float(b[j % b.size]), "d": d,
                                    "gap": float(gap.flat[j])}
    with np.errstate(over="ignore", invalid="ignore"):
        return _summary(planes())


def _check_gamma(grid: dict) -> dict:
    avals = grid.get("A", range(2, 33))
    g0vals = [float(v) for v in grid.get("gamma0", np.geomspace(1e-4, 1e-1, 13))]
    imax = grid.get("i_max", 8)
    _cap_work("gamma", len(avals) * len(g0vals) * imax)

    def rows():  # one A: (gamma0, i, gamma_i, lo, hi) for every gamma0 and i
        for a in avals:
            cases = [(g0, i, g, *synth_mod.gamma_envelope(a, g0, i)) for g0 in g0vals
                     for i, g in enumerate(synth_mod.gamma_sequence(a, g0, imax)[1:], 1)]
            _finite(cases)
            yield ([lo <= g <= hi for _, _, g, lo, hi in cases],
                   lambda j: dict(zip(("A", "gamma0", "i", "gamma_i", "lo", "hi"), (a, *cases[j]))))
    return _summary(rows())


def _check_tails(grid: dict) -> dict:
    ns = grid.get("n", range(51, 502, 50))
    epss = [float(v) for v in grid.get("eps", [0.05, 0.1, 0.25])]
    _cap_work("tails", sum(abs(n) + 1 for n in ns) * len(epss))
    rows = [{"n": n, "eps": eps, "mass": synth_mod.tail_mass(n, eps), "bound": 2 * eps}
            for n in ns for eps in epss]
    _finite([(r["mass"], r["bound"]) for r in rows])
    summary = _summary([([r["mass"] <= r["bound"] for r in rows], rows.__getitem__)])
    summary["rows"] = rows
    return summary


def _check_lemma(grid: dict, trials: int, seed: int) -> dict:
    """Tuples that fail the lemma's hypotheses are skipped, not checked."""
    keys = GRID_KEYS["lemma"]["tuples"]
    if "tuples" in grid:
        count = len(grid["tuples"])
        columns = {key: [t[key] for t in grid["tuples"]] for key in keys}
        for key in ("M", "n", "k"):  # the int64 range of check_technical_lemma
            if any(abs(v) >= 1 << 63 for v in columns[key]):
                raise ParseError(f"lemma tuple key '{key}' takes integers below 2^63 in magnitude")
        chunks = [[np.array(columns[key], dtype=np.float64 if t is float else np.int64)
                   for key, t in keys.items()]]
    else:  # every chunk is drawn whole, so --trials N checks a prefix of a longer run
        count = trials
        chunks = ([v[:trials - start] for v in _lemma_tuples(seed, c)]
                  for c, start in enumerate(range(0, trials, LEMMA_CHUNK)))

    def verdicts():  # the verdicts of one chunk's tuples that meet the hypotheses
        for tup in chunks:
            r = synth_mod.check_technical_lemma(*tup)
            meets = np.flatnonzero(r.hypotheses_ok)
            holds, r = r.ok[meets], None  # the next chunk's report is built without this one
            yield holds, lambda j: dict(zip(keys, (v[meets[j]].item() for v in tup)))
    summary = _summary(verdicts())
    summary["hypothesis_skips"] = count - summary["checked"]
    return summary


def _lemma_tuples(seed: int, chunk: int) -> list[np.ndarray]:
    """One chunk of LEMMA_CHUNK random tuples (a, s, m, n, gamma, k) as six
    arrays, each tuple satisfying the lemma hypotheses (s >= 1 included; the
    refined lower bound is not provable below that).

    No draw is rejected, because each one satisfies them: n >= 11 and
    gamma <= 0.1 give s_hi >= 5; m >= 2e^a gives center*(1 - gamma) >= 1.8,
    so the low range of k is not empty; and a >= 3 ln 11 gives
    center*(1 + gamma) <= m, so neither is the high one."""
    rng, size = rng_for(seed, "lemma-tuples", chunk), LEMMA_CHUNK
    n = rng.integers(11, 201, size)
    a = 3.0 * np.log(n) * (1.0 + rng.random(size))
    gamma = np.exp(rng.uniform(np.log(1.0 / n), np.log(0.1)))
    s_hi = np.where(np.arange(size) % 2 == 0, np.minimum(n, 0.5 / gamma), n)  # half hit s*gamma <= 1/2
    s = rng.uniform(1.0, s_hi)
    m = np.ceil(np.exp(a) * np.exp(rng.uniform(np.log(2.0), np.log(1e4), size))).astype(np.int64)
    center = m * np.exp(-a)
    k = np.where(rng.random(size) < 0.5, rng.integers(0, np.floor(center * (1 - gamma)).astype(np.int64) + 1),
                 rng.integers(np.ceil(center * (1 + gamma)).astype(np.int64), m + 1))
    return [a, s, m, n, gamma, k]


if __name__ == "__main__":
    sys.exit(main())
