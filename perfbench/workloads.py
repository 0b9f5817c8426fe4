"""The four workloads: their op lists and the check of every op's output.

An op is one CLI command (through `apxmaj.cli.main`) or one library call.
`ops(k)` builds pass k's op list from the workload seed; the harness runs
the ops back to back, then calls each op's `check` on what it returned.  A
check returns None when the output is right and a one-line reason when it
is not.  Checks never compare against pinned random streams: they use
independent recomputation (`reference`) or statistical tolerances.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference

DESK_ARGS = ["--n", "101", "--d", "3", "--eps", "0.25", "--override", "A=3,M=16384,Mtop=16384"]
DESK_EPS = 0.25
MC_TRIALS = 100_000
REFERENCE_SIGMAS = 5.0
RESAMPLE_SLACK = 1.5
RESAMPLE_MAX_TRIES = 1
GATE_TRIALS = 20_000
FORMULA_TRIALS = 2_000
OR_FANINS = range(6, 13)
FAMILY_ALPHA = 1e-6
CHECK_EXPECTED = {"inequality": (0, 0), "lemma": (0, 0), "gamma": (1, 44), "tails": (1, 5)}


@dataclass
class Op:
    tag: str
    run: Callable[[Path], object]
    check: Callable[[object, Path], str | None]
    group: str | None = None


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli(*argv) -> CliResult:
    from apxmaj import cli as cli_module

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_module.main([str(a) for a in argv])
    return CliResult(code, out.getvalue(), err.getvalue())


def _exit(res: CliResult, want: int) -> str | None:
    if res.code != want:
        return f"exit {res.code}, expected {want}: {res.err.strip()[:200]}"
    if "Traceback" in res.err:
        return "traceback on stderr"
    return None


class DeskCertify:
    """synth a desk-scale circuit, then certify it by Monte Carlo."""

    name = "desk-certify"
    ops_per_pass = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dags: dict[Path, object] = {}

    def ops(self, k: int) -> list[Op]:
        s = inputs.seed_value(self.seed, "desk", k)

        def run_synth(pdir):
            return cli("synth", *DESK_ARGS, "--seed", s, "--out", pdir / "synth")

        def check_synth(res, pdir):
            from apxmaj.circuits import parse_netlist, serialize_netlist

            bad = _exit(res, 0)
            if bad:
                return bad
            text = (pdir / "synth" / "circuit.netlist").read_text()
            dag = parse_netlist(text)
            if serialize_netlist(dag) != text:
                return "netlist serialize -> parse -> serialize is not byte-identical"
            if dag.n_inputs != inputs.DESK_N or len(dag.outputs) != 1:
                return f"netlist has {dag.n_inputs} inputs and {len(dag.outputs)} outputs"
            self.dags[pdir] = dag
            return None

        def run_verify(pdir):
            return cli("verify", pdir / "synth" / "circuit.netlist", "--eps", DESK_EPS,
                       "--mode", "mc", "--trials", MC_TRIALS, "--seed", s, "--out", pdir / "verify")

        def check_verify(res, pdir):
            bad = _exit(res, 0)
            if bad:
                return bad
            doc = json.loads((pdir / "verify" / "certification.json").read_text())
            if not doc["passed"] or doc["ci_hi"] > DESK_EPS or doc["trials"] != MC_TRIALS:
                return f"verdict {doc['passed']} with ci_hi {doc['ci_hi']} over {doc['trials']} trials"
            dag = self.dags.pop(pdir, None)
            if dag is None:
                return "no checked netlist to compare against"
            rng = inputs.rng_for(self.seed, "reference", k)
            ref = reference.majority_disagreements(dag, MC_TRIALS, rng) / MC_TRIALS
            got = doc["disagreement"]
            se = math.sqrt((got * (1 - got) + ref * (1 - ref)) / MC_TRIALS)
            if abs(got - ref) > REFERENCE_SIGMAS * se:
                return f"disagreement {got} vs independent estimate {ref} (se {se:.5f})"
            return None

        return [Op("synth", run_synth, check_synth), Op("verify", run_verify, check_verify)]


class DeskResample:
    """resample_until_valid on two plans, one try per call."""

    name = "desk-resample"
    ops_per_pass = 4

    def __init__(self, seed: int, workdir: Path):
        from apxmaj import synthesis

        self.seed = seed
        self.plans = [synthesis.plan(101, 3, 0.25, {"A": 3, "M": 2**14, "M_top": 2**14}),
                      synthesis.plan(101, 4, 0.25, {"A": 3, "M": 2**12, "M_top": 2**12})]

    def ops(self, k: int) -> list[Op]:
        return [self._op(k, c, self.plans[c % 2]) for c in range(self.ops_per_pass)]

    def _op(self, k: int, c: int, plan) -> Op:
        from apxmaj import synthesis

        witnesses = inputs.resample_witnesses(self.seed, k, c)
        s = inputs.seed_value(self.seed, "resample", k, c, 1)

        def run(pdir):
            try:
                return synthesis.resample_until_valid(plan, witnesses, RESAMPLE_MAX_TRIES, s,
                                                      slack_sigmas=RESAMPLE_SLACK)
            except synthesis.ResampleExhausted as e:
                return e

        def check(res, pdir):
            if isinstance(res, synthesis.ResampleExhausted):
                if res.tries != RESAMPLE_MAX_TRIES or sum(res.histogram.values()) != res.tries:
                    return f"exhausted after {res.tries} tries with histogram {res.histogram}"
                return self._check_rejections(plan, witnesses, s, res.histogram)
            result, tries, histogram = res
            if not 1 <= tries <= RESAMPLE_MAX_TRIES or sum(histogram.values()) != tries - 1:
                return f"accepted at try {tries} with histogram {histogram}"
            for x in witnesses:
                for obs in synthesis.empirical_level_check(result, x):
                    if abs(obs.ones_fraction - obs.predicted) > RESAMPLE_SLACK * obs.sigma + 1e-12:
                        return (f"accepted circuit leaves weight {x.bit_count()} at level "
                                f"{obs.index}: {obs.ones_fraction} vs {obs.predicted}")
            return None

        return Op("resample", run, check)

    @staticmethod
    def _check_rejections(plan, witnesses, s, histogram) -> str | None:
        """Re-draw every try of an exhausted call (try t is synth with
        derive_seed(s, "try", t)) and find, by the benchmark's own
        evaluation and mean-field prediction, the first level at which a
        witness leaves the slack; those levels must be the histogram's."""
        from apxmaj import synthesis
        from apxmaj.rng import derive_seed

        levels = [(spec.kind.name, spec.width, spec.fan_in) for spec in plan.levels]
        preds = [reference.level_predictions(levels, plan.n, x.bit_count()) for x in witnesses]
        found: dict[int, int] = {}
        for t in range(sum(histogram.values())):
            result = synthesis.synth(plan, derive_seed(s, "try", t))
            for li, ones in enumerate(reference.level_ones(result.dag, result.level_ranges,
                                                           witnesses)):
                width = levels[li][1]
                if any(abs(k / width - p[li][0]) > RESAMPLE_SLACK * p[li][1]
                       for k, p in zip(ones, preds)):
                    index = plan.levels[li].index
                    found[index] = found.get(index, 0) + 1
                    break
            else:
                return f"try {t} keeps every witness within {RESAMPLE_SLACK} sigma at every level"
        if found != histogram:
            return f"failures per level {histogram}, recomputed {found}"
        return None


class CompileMix:
    """compile single OR gates (set a) and random formulas (set b)."""

    name = "compile-mix"
    ops_per_pass = len(OR_FANINS) + inputs.FORMULAS_PER_PASS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def ops(self, k: int) -> list[Op]:
        sources = [("gate", inputs.or_formula(m), m, GATE_TRIALS) for m in OR_FANINS]
        corpus = inputs.formula_corpus()
        sources += [("formula", text, inputs.n_vars(f), FORMULA_TRIALS)
                    for f, text in zip(corpus, inputs.formulas(self.seed, k))]
        # every per-input error test of the pass together fails an exact
        # sampler with probability at most FAMILY_ALPHA
        alpha = FAMILY_ALPHA / sum(1 << n for _, _, n, _ in sources)
        folder = self.workdir / f"formulas{k}"
        folder.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, (group, text, n, trials) in enumerate(sources):
            path = folder / f"f{i}.sexpr"
            path.write_text(text + "\n")
            s = inputs.seed_value(self.seed, "compile-seed", k, i)
            ops.append(self._op(i, path, n, trials, s, alpha, group))
        return ops

    @staticmethod
    def _op(i, path, n, trials, s, alpha, group) -> Op:
        def run(pdir):
            return cli("compile", path, "--seed", s, "--trials", trials, "--out", pdir / f"c{i}")

        def check(res, pdir):
            bad = _exit(res, 0)
            if bad:
                return bad
            out = pdir / f"c{i}"
            recipe = json.loads((out / "recipe.json").read_text())
            if recipe["n"] != n:
                return f"recipe over {recipe['n']} variables, formula has {n}"
            m = re.search(r"max_sampled_degree=(\d+)", res.out)
            if not m or int(m.group(1)) > recipe["degree_bound"]:
                return f"sampled degree above degree_bound {recipe['degree_bound']}: {res.out.strip()}"
            rows = list(csv.reader((out / "errors.csv").read_text().splitlines()))[1:]
            if len(rows) != 1 << n:
                return f"{len(rows)} error rows for n={n}"
            limit = reference.binomial_upper_count(trials, recipe["err_bound"], alpha)
            worst = max(round(float(r[1]) * trials) for r in rows)
            if worst > limit:
                return f"per-input error {worst}/{trials} above tolerance {limit}/{trials}"
            return None

        return Op("compile", run, check, group=group)


class Oracles:
    """The exhaustive degree oracle and the four bound sweeps."""

    name = "oracles"
    ops_per_pass = 9 + 2 * inputs.TABLES_PER_EPS + inputs.CAPPED_TABLES + len(CHECK_EXPECTED)

    KNOWN = {(3, 0.125): 2, (5, 0.0): 4, (5, 0.125): 2, (5, 0.25): 2}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def ops(self, k: int) -> list[Op]:
        ops = []
        for n in (3, 4, 5):
            for eps in (0.0, 0.125, 0.25):
                ops.append(self._degree(len(ops), inputs.majority_table(n), n, eps, 0))
        for t in inputs.anf_degree4_tables(self.seed, k, inputs.TABLES_PER_EPS):
            ops.append(self._degree(len(ops), t, 5, 0.0, 0))
        for t in inputs.random_tables(self.seed, k, inputs.TABLES_PER_EPS):
            ops.append(self._degree(len(ops), t, 5, 0.0625, 0))
        for t in inputs.capped_tables(self.seed, k, inputs.CAPPED_TABLES):
            ops.append(self._degree(len(ops), t, 5, 0.03125, 3))
        for kind in CHECK_EXPECTED:
            ops.append(self._check(len(ops), kind, inputs.seed_value(self.seed, "oracle-seed", k)))
        return ops

    def _degree(self, i: int, table: int, n: int, eps: float, want_code: int) -> Op:
        def run(pdir):
            return cli("degree", "--hex", inputs.table_hex(table, n), "--n", n,
                       "--eps", eps, "--out", pdir / f"d{i}")

        def check(res, pdir):
            bad = _exit(res, want_code)
            if bad:
                return bad
            if want_code == 3:
                lines = res.err.strip().splitlines()
                if res.out or len(lines) != 1 or not lines[0].startswith("resource cap:"):
                    return f"capped run printed {res.out!r} / {res.err!r}"
                return None
            doc = json.loads((pdir / f"d{i}" / "degree.json").read_text())
            allowed = math.floor(eps * (1 << n))
            distance, witness_degree = reference.poly_distance(doc["witness"], table, n)
            if doc["allowed"] != allowed or distance != doc["distance"] or distance > allowed:
                return f"witness at distance {distance} (reported {doc['distance']}, allowed {allowed})"
            if witness_degree > doc["degree"]:
                return f"witness of degree {witness_degree} certifies degree {doc['degree']}"
            wanted = [self.KNOWN.get((n, eps))]
            if eps == 0.0:  # the exact degree is the ANF's
                wanted.append(reference.degree_of(reference.anf_monomials(table, n)))
            for degree in wanted:
                if degree is not None and doc["degree"] != degree:
                    return f"degree {doc['degree']}, expected {degree}"
            if n == 5 and inputs.rm3_distance(table) <= allowed and doc["degree"] > 3:
                return f"degree {doc['degree']} for a table within {allowed} of degree 3"
            return None

        return Op("degree", run, check)

    @staticmethod
    def _check(i: int, kind: str, s: int) -> Op:
        want_code, want_violations = CHECK_EXPECTED[kind]

        def run(pdir):
            return cli("check", kind, "--seed", s, "--out", pdir / f"k{i}")

        def check(res, pdir):
            bad = _exit(res, want_code)
            if bad:
                return bad
            doc = json.loads((pdir / f"k{i}" / f"check_{kind}.json").read_text())
            if doc["violations"] != want_violations:
                return f"{kind}: {doc['violations']} violations, expected {want_violations}"
            return None

        return Op("check", run, check)


WORKLOADS = {w.name: w for w in (DeskCertify, DeskResample, CompileMix, Oracles)}
