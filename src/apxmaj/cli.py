"""Command-line entry point.

Subcommands: compile (formula -> recipe + ledger + error table), synth
(plan/synthesize approximate-majority circuits), verify (certify a netlist
against majority), degree (exhaustive approximate-degree oracle), check
(inequality / lemma / gamma / tail sweeps).

Every command is deterministic given its arguments and --seed; all emitted
JSON is byte-stable across reruns (run timestamps live in `.meta.json`
sidecars).  Exit codes: 0 success/pass, 1 verification failure, 2 usage or
parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
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


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 2000
    out: str = "out"


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
        cfg = _config_from(args)
        return args.func(args, cfg)
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="apxmaj", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="command")

    def common(sp, trials=True):
        sp.add_argument("--seed", type=int, default=None)
        if trials:
            sp.add_argument("--trials", type=_int_or_text, default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("compile", help="formula -> probabilistic polynomial recipe")
    sp.add_argument("formula", help="path to an s-expression formula file")
    common(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("synth", help="plan/synthesize an approximate-majority circuit")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--override", default="",
                    help="comma list, e.g. A=3,M=16384,Mtop=16384,stop=4.85")
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
    sp.add_argument("--n", type=int, help="variable count (required with --hex)")
    sp.add_argument("--eps", type=float, required=True)
    common(sp, trials=False)
    sp.set_defaults(func=cmd_degree)

    sp = sub.add_parser("check", help="numeric sweeps of the analytical bounds")
    sp.add_argument("kind", choices=["inequality", "lemma", "gamma", "tails"])
    sp.add_argument("--grid", help="JSON grid file (defaults are built in)")
    common(sp)
    sp.set_defaults(func=cmd_check)
    return p


def _config_from(args) -> RunConfig:
    """--config values overridden by the flags given, all checked before any
    command runs."""
    values = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(values, dict):
        raise ParseError("config file must hold a JSON object")
    keys = [f.name for f in fields(RunConfig)]
    for key in values:
        if key not in keys:
            raise ParseError(f"unknown config key '{key}'")
    values.update({k: getattr(args, k) for k in keys if getattr(args, k, None) is not None})
    cfg = RunConfig(**values)
    if isinstance(cfg.seed, bool) or not isinstance(cfg.seed, int):
        raise ParseError(f"seed must be an integer, got {cfg.seed!r}")
    if isinstance(cfg.trials, bool) or not isinstance(cfg.trials, int) or cfg.trials < 1:
        raise ParseError(f"trials must be a positive integer, got {cfg.trials!r}")
    if not isinstance(cfg.out, str):
        raise ParseError(f"out must be a string, got {cfg.out!r}")
    return cfg


def _int_or_text(text: str):
    """argparse type that leaves a non-integer as text, so _config_from
    rejects it with the same one-line message as a bad --config value."""
    try:
        return int(text)
    except ValueError:
        return text


def _parse_overrides(text: str) -> dict:
    keymap = {"a": ("A", int), "m": ("M", int), "logm": ("logM", float),
              "mtop": ("M_top", int), "m_top": ("M_top", int),
              "logmtop": ("logM_top", float), "logm_top": ("logM_top", float),
              "stop": ("s_top", float), "s_top": ("s_top", float)}
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParseError(f"override '{item}' is not key=value")
        key, value = item.split("=", 1)
        norm = key.strip().lower()
        if norm not in keymap:
            raise ParseError(f"unknown override key '{key}'")
        name, cast = keymap[norm]
        out[name] = cast(value)
    return out


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------

def cmd_compile(args, cfg: RunConfig) -> int:
    text = Path(args.formula).read_text()
    formula = parse_formula(text)
    recipe = compiler.compile_formula(formula)
    out = _outdir(cfg)
    doc = compiler.recipe_to_json(recipe)
    doc["seed"] = cfg.seed
    doc["trials"] = cfg.trials
    verify_mod.emit_report(doc, out / "recipe.json", meta={"seed": cfg.seed})
    verify_mod.emit_report(compiler.ledger_csv_rows(recipe), out / "ledger.csv",
                           meta={"seed": cfg.seed})

    rows = []
    if recipe.n <= 16:
        tables = compiler.sample_tables(recipe, cfg.trials, cfg.seed)
        truth = verify_mod.TruthTable.from_circuit(formula_to_dag(formula, recipe.n)).bits
        wrong = tables ^ np.frombuffer(truth.to_bytes(tables.shape[1], "little"), dtype=np.uint8)
        errs = np.unpackbits(wrong, axis=-1, bitorder="little", count=1 << recipe.n).mean(axis=0)
        degrees = compiler.table_degrees(tables, recipe.n)
        for j in range(1 << recipe.n):
            rows.append({"input": j, "empirical_error": float(errs[j])})
        max_deg = int(degrees.max())
    else:
        max_deg = None  # error table needs the full-table sampler
    verify_mod.emit_report(rows, out / "errors.csv", meta={"seed": cfg.seed})

    print(f"compiled: size={recipe.formula_size} depth={recipe.formula_depth} "
          f"degree_bound={recipe.degree_bound} err_bound={recipe.err_bound:.6f} "
          f"theoretical={recipe.theoretical_bound:.1f}"
          + (f" max_sampled_degree={max_deg}" if max_deg is not None else ""))
    return EXIT_OK


def cmd_synth(args, cfg: RunConfig) -> int:
    p = synth_mod.plan(args.n, args.d, args.eps, _parse_overrides(args.override))
    out = _outdir(cfg)
    doc = _plan_json(p)
    doc["seed"] = cfg.seed
    verify_mod.emit_report(doc, out / "plan.json", meta={"seed": cfg.seed})
    if not p.synthesizable:
        print("NOTSYNTH: " + "; ".join(p.synth_blockers()))
        print(f"plan written to {out / 'plan.json'} (analysis only)")
        return EXIT_OK
    result = synth_mod.synth(p, cfg.seed)
    (out / "circuit.netlist").write_text(serialize_netlist(result.dag))
    weights = sorted({int(0.4 * p.n), p.n // 2, math.ceil(0.6 * p.n)})
    checks = synth_mod.level_checks(result, [_random_weighted_input(p.n, w, cfg.seed)
                                             for w in weights])
    band_rows = [{
        "weight": w, "level": obs.index, "kind": obs.kind.value,
        "ones_fraction": obs.ones_fraction, "predicted": obs.predicted,
        "sigma": obs.sigma, "band_lo": obs.band_lo,
        "band_hi": obs.band_hi, "pass": obs.within_3_sigma,
    } for w, observations in zip(weights, checks) for obs in observations]
    verify_mod.emit_report(band_rows, out / "bands.csv", meta={"seed": cfg.seed})
    print(f"synthesized: depth={result.dag.depth} gates={result.dag.size} "
          f"live={result.dag.cone().size} monotone={result.dag.is_monotone()}")
    return EXIT_OK


def _random_weighted_input(n: int, w: int, seed: int) -> int:
    rng = rng_for(seed, "witness", w)
    idx = rng.permutation(n)[:w]
    mask = 0
    for i in idx:
        mask |= 1 << int(i)
    return mask


def _plan_json(p) -> dict:
    return {
        "n": p.n, "d": p.d, "eps": p.eps, "mode": p.mode, "A": p.a,
        "log_M": p.log_m, "M": p.m, "log_M_top": p.log_m_top, "M_top": p.m_top,
        "s_top": p.s_top, "delta": p.delta, "eps0": p.eps0,
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


def cmd_verify(args, cfg: RunConfig) -> int:
    dag = _single_output_netlist(args.netlist)
    report = verify_mod.certify_approx_majority(dag, args.eps, args.mode, cfg.trials, cfg.seed)
    out = _outdir(cfg)
    doc = {
        "n": report.n, "eps": report.eps, "mode": report.mode,
        "disagreement": report.disagreement, "ci_lo": report.ci_lo,
        "ci_hi": report.ci_hi, "trials": report.trials,
        "seed": cfg.seed, "passed": report.passed,
    }
    verify_mod.emit_report(doc, out / "certification.json", meta={"seed": cfg.seed})
    print(f"{'PASS' if report.passed else 'FAIL'}: disagreement={report.disagreement:.6f} "
          f"ci=[{report.ci_lo:.6f}, {report.ci_hi:.6f}] trials={report.trials} seed={cfg.seed}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_degree(args, cfg: RunConfig) -> int:
    if args.hex_table is not None:
        if args.n is None:
            raise ParseError("--hex needs --n")
        table = verify_mod.TruthTable.from_hex(args.hex_table, args.n)
    else:
        table = verify_mod.TruthTable.from_circuit(_single_output_netlist(args.netlist))
    cert = verify_mod.min_approx_degree(table, args.eps)
    out = _outdir(cfg)
    doc = {
        "n": cert.n, "eps": cert.eps, "degree": cert.degree,
        "witness": gf2poly.format_poly(cert.witness),
        "distance": cert.distance, "allowed": cert.allowed,
        "exhausted": cert.exhausted, "scanned": list(cert.scanned),
        "seed": cfg.seed,
    }
    verify_mod.emit_report(doc, out / "degree.json", meta={"seed": cfg.seed})
    print(f"degree={cert.degree} distance={cert.distance} (allowed {cert.allowed}) "
          f"witness={gf2poly.format_poly(cert.witness)}")
    return EXIT_OK


def cmd_check(args, cfg: RunConfig) -> int:
    grid = _read_grid(args.grid, args.kind)
    if args.kind == "inequality":
        summary = _check_inequality(grid)
    elif args.kind == "gamma":
        summary = _check_gamma(grid)
    elif args.kind == "tails":
        summary = _check_tails(grid)
    else:
        summary = _check_lemma(grid, cfg)
    out = _outdir(cfg)
    summary["seed"] = cfg.seed
    verify_mod.emit_report(summary, out / f"check_{args.kind}.json", meta={"seed": cfg.seed})
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


def _check_inequality(grid: dict) -> dict:
    avals = [float(v) for v in grid.get("a", [v / 2 for v in range(0, 129)])]
    bvals = [float(v) for v in grid.get("b", [v / 2 for v in range(0, 129)])]
    dvals = grid.get("d", range(1, 9))
    checked = violations = 0
    first = None
    for d in dvals:
        for a in avals:
            for b in bvals:
                holds, gap = compiler.check_key_inequality(a, b, d)
                checked += 1
                if not holds:
                    violations += 1
                    first = first or {"a": a, "b": b, "d": d, "gap": gap}
    return {"checked": checked, "violations": violations, "first_violation": first}


def _check_gamma(grid: dict) -> dict:
    avals = grid.get("A", range(2, 33))
    g0vals = [float(v) for v in grid.get("gamma0", np.geomspace(1e-4, 1e-1, 13))]
    imax = grid.get("i_max", 8)
    checked = violations = 0
    first = None
    for a in avals:
        for g0 in g0vals:
            gs = synth_mod.gamma_sequence(a, g0, imax)
            for i in range(1, imax + 1):
                lo, hi = synth_mod.gamma_envelope(a, g0, i)
                checked += 1
                if not lo <= gs[i] <= hi:
                    violations += 1
                    first = first or {"A": a, "gamma0": g0, "i": i,
                                      "gamma_i": gs[i], "lo": lo, "hi": hi}
    return {"checked": checked, "violations": violations, "first_violation": first}


def _check_tails(grid: dict) -> dict:
    ns = grid.get("n", range(51, 502, 50))
    epss = [float(v) for v in grid.get("eps", [0.05, 0.1, 0.25])]
    checked = violations = 0
    first = None
    rows = []
    for n in ns:
        for eps in epss:
            mass = synth_mod.tail_mass(n, eps)
            rows.append({"n": n, "eps": eps, "mass": mass, "bound": 2 * eps})
            checked += 1
            if mass > 2 * eps:
                violations += 1
                first = first or {"n": n, "eps": eps, "mass": mass, "bound": 2 * eps}
    return {"checked": checked, "violations": violations, "first_violation": first,
            "rows": rows}


def _check_lemma(grid: dict, cfg: RunConfig) -> dict:
    checked = violations = skips = 0
    first = None
    if "tuples" in grid:
        tuples = [(t["A"], t["s"], t["M"], t["n"], t["gamma"], t["k"]) for t in grid["tuples"]]
    else:
        tuples = list(_lemma_tuples(cfg.trials, cfg.seed))
    for a, s, m, n, gamma, k in tuples:
        rep = synth_mod.check_technical_lemma(a, s, m, n, gamma, k)
        if not rep.hypotheses_ok:
            skips += 1
            continue
        checked += 1
        if not rep.ok:
            violations += 1
            first = first or {"A": a, "s": s, "M": m, "n": n, "gamma": gamma, "k": k}
    return {"checked": checked, "violations": violations,
            "hypothesis_skips": skips, "first_violation": first}


def _lemma_tuples(count: int, seed: int):
    """Random tuples satisfying the lemma hypotheses (s >= 1 included; the
    refined lower bound is not provable below that)."""
    rng = rng_for(seed, "lemma-tuples")
    made = 0
    while made < count:
        n = int(rng.integers(11, 201))
        a = 3.0 * math.log(n) * (1.0 + rng.random())
        gamma = math.exp(rng.uniform(math.log(1.0 / n), math.log(0.1)))
        s_hi = min(n, 0.5 / gamma) if made % 2 == 0 else n  # half the draws hit s*gamma <= 1/2
        if s_hi < 1.0:
            continue
        s = rng.uniform(1.0, s_hi)
        m = int(math.ceil(math.exp(a) * math.exp(rng.uniform(math.log(2.0), math.log(1e4)))))
        center = m * math.exp(-a)
        if rng.random() < 0.5:
            hi = math.floor(center * (1 - gamma))
            if hi < 0:
                continue
            k = int(rng.integers(0, hi + 1))
        else:
            lo = math.ceil(center * (1 + gamma))
            if lo > m:
                continue
            k = int(rng.integers(lo, m + 1))
        made += 1
        yield a, s, m, n, gamma, k


if __name__ == "__main__":
    sys.exit(main())
