"""Spans around apxmaj's public names, recorded from outside the program.

`Tracer.install` replaces each name in `WRAPPED` with a timing wrapper in
every apxmaj module that holds it (modules that imported the name with
`from .x import name` hold their own reference), and on classes for
methods.  `uninstall` puts the originals back, so untraced passes run the
program exactly as shipped.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import reference

# (module, public name, span name).  sample_tables spans get the op's group
# ("gate" or "formula") appended, so each formula set is timed on its own.
WRAPPED = [
    ("apxmaj.cli", "main", "cli.main"),
    ("apxmaj.verify", "emit_report", "verify.emit_report"),
    ("apxmaj.verify", "certify_approx_majority", "verify.certify_approx_majority"),
    ("apxmaj.verify", "min_approx_degree", "verify.min_approx_degree"),
    ("apxmaj.synthesis", "synth", "synthesis.synth"),
    ("apxmaj.synthesis", "SynthResult.level_values", "synthesis.SynthResult.level_values"),
    ("apxmaj.synthesis", "resample_until_valid", "synthesis.resample_until_valid"),
    ("apxmaj.synthesis", "empirical_level_check", "synthesis.empirical_level_check"),
    ("apxmaj.synthesis", "check_technical_lemma", "synthesis.check_technical_lemma"),
    ("apxmaj.synthesis", "tail_mass", "synthesis.tail_mass"),
    ("apxmaj.circuits", "serialize_netlist", "circuits.serialize_netlist"),
    ("apxmaj.circuits", "parse_netlist", "circuits.parse_netlist"),
    ("apxmaj.circuits", "PackedEvaluator.__init__", "circuits.PackedEvaluator.build"),
    ("apxmaj.circuits", "PackedEvaluator.run", "circuits.PackedEvaluator.run"),
    ("apxmaj.circuits", "random_input_words", "circuits.random_input_words"),
    ("apxmaj.circuits", "exhaustive_table", "circuits.exhaustive_table"),
    ("apxmaj.compiler", "compile_formula", "compiler.compile_formula"),
    ("apxmaj.compiler", "sample_tables", "compiler.sample_tables"),
    ("apxmaj.compiler", "table_degrees", "compiler.table_degrees"),
    ("apxmaj.gf2poly", "mobius_transform", "gf2poly.mobius_transform"),
    ("apxmaj.gf2poly", "from_truth_table", "gf2poly.from_truth_table"),
]

GROUPED = {"compiler.sample_tables"}
# Calls whose exceptions are outcomes worth counting; any other name that
# raises keeps no info, and the op's check reports the failure.
COUNTS_ERRORS = {"verify.min_approx_degree", "synthesis.resample_until_valid"}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# What a span keeps of its call for the counters: constant-time reads only,
# since they run on the caller's clock.  Objects kept here (circuits,
# recipes) are ones the program built anyway; counting them waits for the
# end of the pass.
def _resample_info(args, kwargs, result, error):
    if error is None:
        return {"tries": result[1], "accepted": 1, "histogram": dict(result[2])}
    if type(error).__name__ == "ResampleExhausted":
        return {"tries": error.tries, "accepted": 0, "histogram": dict(error.histogram)}
    return {}


def _read(capture, *call) -> dict:
    """The capture's counts, or none if the call no longer has the shape
    the capture expects: tracing must never make an op fail."""
    try:
        return capture(*call)
    except Exception:
        return {}


CAPTURE = {
    "verify.emit_report": lambda a, k, r, e: {"path": str(_arg(a, k, 1, "out_path"))},
    "verify.certify_approx_majority": lambda a, k, r, e: {"trials": r.trials},
    "verify.min_approx_degree": lambda a, k, r, e: (
        {"candidates": sum(r.scanned)} if e is None
        else {"refused": 1} if type(e).__name__ == "ResourceLimitError" else {}),
    "synthesis.synth": lambda a, k, r, e: {"dag": r.dag},
    "synthesis.resample_until_valid": _resample_info,
    "circuits.serialize_netlist": lambda a, k, r, e: {"bytes": len(r)},
    "circuits.parse_netlist": lambda a, k, r, e: {"gates": len(r.gates)},
    "circuits.PackedEvaluator.run": lambda a, k, r, e: {
        "dag": a[0].circuit, "words": _arg(a, k, 1, "input_words").shape[1]},
    "compiler.compile_formula": lambda a, k, r, e: {"recipe": r},
    "compiler.sample_tables": lambda a, k, r, e: {
        "samples": _arg(a, k, 1, "n_samples"), "bytes": r.nbytes},
    "compiler.table_degrees": lambda a, k, r, e: {"rows": _arg(a, k, 0, "tables").shape[0]},
    "gf2poly.mobius_transform": lambda a, k, r, e: {"bits": _arg(a, k, 0, "rows").size},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    op_id: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = 0
        self.group: str | None = None

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, 0.0, 0.0, len(self.spans), parent, self.op_id)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        capture = CAPTURE.get(name)

        def traced(*args, **kwargs):
            span_name = name
            if name in GROUPED and tracer.group:
                span_name = f"{name}.{tracer.group}"
            span = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer.end(span)
                if name in COUNTS_ERRORS:
                    span.info = _read(capture, args, kwargs, None, e)
                raise
            tracer.end(span)
            if capture:
                span.info = _read(capture, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        loaded = [m for k, m in sys.modules.items() if k == "apxmaj" or k.startswith("apxmaj.")]
        for module_name, qualname, span_name in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(original, span_name)
            if outer:  # a method: patch the class, every caller goes through it
                self._rebind(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "span_id": s.span_id, "parent_id": s.parent_id,
                                     "op_id": s.op_id}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Everything runs on one thread, so children never overlap each other."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None and s.parent_id in own:
            own[s.parent_id] -= s.duration
    return own


def pass_counts(spans: list[Span]) -> Counter:
    """Work counts of one traced pass, keyed (span name, counter), from what
    the spans kept of their calls.  Drops the circuits and recipes kept."""
    from apxmaj import compiler

    counts: Counter = Counter()
    edges: dict[int, int] = {}
    for s in spans:
        info = s.info
        for key, value in info.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counts[s.name, key] += value
        if "path" in info:
            for path in (info["path"], info["path"] + ".meta.json"):
                if os.path.exists(path):
                    counts[s.name, "bytes"] += os.path.getsize(path)
        if "histogram" in info:
            for level, fails in info["histogram"].items():
                counts[s.name, f"failures.level{level}"] += fails
        if "dag" in info:
            dag = info["dag"]
            if id(dag) not in edges:
                edges[id(dag)] = sum(len(g.args) for g in dag.gates)
            if s.name == "synthesis.synth":
                live, total = reference.edge_counts(dag)
                counts[s.name, "gates"] += len(dag.gates) - dag.n_inputs
                counts[s.name, "edges"] += total
                counts[s.name, "live_edges"] += live
            else:
                counts[s.name, "edge_words"] += edges[id(dag)] * info["words"]
        if "recipe" in info:
            nodes, copies = _expansion(compiler.recipe_to_json(info["recipe"])["root"])
            counts[s.name, "recipe_nodes"] += nodes
            counts[s.name, "reduce_copies"] += copies
        s.info = {k: v for k, v in info.items() if k not in ("dag", "recipe")}
    return counts


def _expansion(node: dict) -> tuple[int, int]:
    """(recipe nodes evaluated, majority inputs) once every reduction's
    copies are expanded, read from the recipe's JSON form."""
    if node["type"] == "reduce":
        nodes, copies = _expansion(node["child"])
        return 1 + node["t"] * nodes, node["t"] * (1 + copies)
    total_nodes, total_copies = 1, 0
    for child in node.get("children", ()):
        nodes, copies = _expansion(child)
        total_nodes += nodes
        total_copies += copies
    return total_nodes, total_copies


# Per-layer metrics: (name, unit, better, how, span names, counter).
#   time  - seconds in the spans per traced pass
#   self  - the same minus the time of their child spans
#   count - counter summed over the first traced pass (repeats exactly)
#   rate  - counter over seconds in the spans, over every traced pass
#   ratio - counter over the second counter, first traced pass
_S = "synthesis.resample_until_valid"
LAYER_METRICS = [
    ("cli.main.s", "s", "lower", "time", ["cli.main"], None),
    ("cli.main.self_s", "s", "lower", "self", ["cli.main"], None),
    ("verify.emit_report.s", "s", "lower", "time", ["verify.emit_report"], None),
    ("verify.emit_report.bytes", "B", "lower", "count", ["verify.emit_report"], "bytes"),
    ("synthesis.synth.s", "s", "lower", "time", ["synthesis.synth"], None),
    ("synthesis.synth.gates", "count", "lower", "count", ["synthesis.synth"], "gates"),
    ("synthesis.synth.edges", "count", "lower", "count", ["synthesis.synth"], "edges"),
    ("synthesis.SynthResult.level_values.s", "s", "lower", "time",
     ["synthesis.SynthResult.level_values"], None),
    (_S + ".s", "s", "lower", "time", [_S], None),
    (_S + ".tries", "count", "lower", "count", [_S], "tries"),
    (_S + ".accept_ratio", "ratio", "higher", "ratio", [_S], ("accepted", "tries")),
    (_S + ".failures.level1", "count", "lower", "count", [_S], "failures.level1"),
    (_S + ".failures.level2", "count", "lower", "count", [_S], "failures.level2"),
    (_S + ".failures.level3", "count", "lower", "count", [_S], "failures.level3"),
    (_S + ".failures.level4", "count", "lower", "count", [_S], "failures.level4"),
    ("synthesis.empirical_level_check.s", "s", "lower", "time",
     ["synthesis.empirical_level_check"], None),
    ("synthesis.check_technical_lemma.s", "s", "lower", "time",
     ["synthesis.check_technical_lemma"], None),
    ("synthesis.tail_mass.s", "s", "lower", "time", ["synthesis.tail_mass"], None),
    ("circuits.serialize_netlist.s", "s", "lower", "time", ["circuits.serialize_netlist"], None),
    ("circuits.serialize_netlist.bytes", "B", "lower", "count",
     ["circuits.serialize_netlist"], "bytes"),
    ("circuits.parse_netlist.s", "s", "lower", "time", ["circuits.parse_netlist"], None),
    ("circuits.parse_netlist.gates_per_s", "1/s", "higher", "rate",
     ["circuits.parse_netlist"], "gates"),
    ("circuits.PackedEvaluator.build_s", "s", "lower", "time",
     ["circuits.PackedEvaluator.build"], None),
    ("circuits.PackedEvaluator.run_s", "s", "lower", "time", ["circuits.PackedEvaluator.run"], None),
    ("circuits.edge_words", "count", "lower", "count", ["circuits.PackedEvaluator.run"], "edge_words"),
    ("circuits.edge_words_per_s", "1/s", "higher", "rate",
     ["circuits.PackedEvaluator.run"], "edge_words"),
    ("circuits.live_edge_fraction", "ratio", "higher", "ratio",
     ["synthesis.synth"], ("live_edges", "edges")),
    ("circuits.random_input_words.s", "s", "lower", "time", ["circuits.random_input_words"], None),
    ("circuits.exhaustive_table.s", "s", "lower", "time", ["circuits.exhaustive_table"], None),
    ("verify.certify_approx_majority.s", "s", "lower", "time",
     ["verify.certify_approx_majority"], None),
    ("verify.certify_approx_majority.self_s", "s", "lower", "self",
     ["verify.certify_approx_majority"], None),
    ("verify.certify_approx_majority.trials_per_s", "1/s", "higher", "rate",
     ["verify.certify_approx_majority"], "trials"),
    ("verify.min_approx_degree.s", "s", "lower", "time", ["verify.min_approx_degree"], None),
    ("verify.min_approx_degree.candidates", "count", "lower", "count",
     ["verify.min_approx_degree"], "candidates"),
    ("verify.min_approx_degree.candidates_per_s", "1/s", "higher", "rate",
     ["verify.min_approx_degree"], "candidates"),
    ("verify.min_approx_degree.refused", "count", "lower", "count",
     ["verify.min_approx_degree"], "refused"),
    ("compiler.compile_formula.s", "s", "lower", "time", ["compiler.compile_formula"], None),
    ("compiler.recipe_nodes", "count", "lower", "count", ["compiler.compile_formula"], "recipe_nodes"),
    ("compiler.reduce_copies", "count", "lower", "count",
     ["compiler.compile_formula"], "reduce_copies"),
    ("compiler.sample_tables.gate.s", "s", "lower", "time", ["compiler.sample_tables.gate"], None),
    ("compiler.sample_tables.gate.samples_per_s", "1/s", "higher", "rate",
     ["compiler.sample_tables.gate"], "samples"),
    ("compiler.sample_tables.formula.s", "s", "lower", "time",
     ["compiler.sample_tables.formula"], None),
    ("compiler.sample_tables.formula.samples_per_s", "1/s", "higher", "rate",
     ["compiler.sample_tables.formula"], "samples"),
    ("compiler.sample_tables.bytes", "B", "lower", "count",
     ["compiler.sample_tables.gate", "compiler.sample_tables.formula"], "bytes"),
    ("compiler.table_degrees.s", "s", "lower", "time", ["compiler.table_degrees"], None),
    ("compiler.table_degrees.rows_per_s", "1/s", "higher", "rate",
     ["compiler.table_degrees"], "rows"),
    ("gf2poly.mobius_transform.s", "s", "lower", "time", ["gf2poly.mobius_transform"], None),
    ("gf2poly.mobius_transform.bits", "count", "lower", "count",
     ["gf2poly.mobius_transform"], "bits"),
    ("gf2poly.from_truth_table.s", "s", "lower", "time", ["gf2poly.from_truth_table"], None),
]


def layer_metrics(passes: list[tuple[list[Span], Counter]], missing: list[str]) -> dict:
    """Per-layer metrics from the traced passes, each given as (its spans,
    its `pass_counts`).  Metrics whose wrapped name is missing are left out."""
    n = len(passes)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    total: Counter = Counter()
    for spans, counts in passes:
        self_s = self_times(spans)
        for s in spans:
            busy[s.name] += s.duration
            own[s.name] += self_s[s.span_id]
        total.update(counts)
    first = passes[0][1]
    out = {}
    for name, unit, _, how, sources, counter in LAYER_METRICS:
        if missing and any(src.startswith(tuple(missing)) for src in sources):
            continue
        if how == "time":
            value = sum(busy[src] for src in sources) / n
        elif how == "self":
            value = sum(own[src] for src in sources) / n
        elif how == "count":
            value = sum(first[src, counter] for src in sources)
        elif how == "rate":
            seconds = sum(busy[src] for src in sources)
            value = sum(total[src, counter] for src in sources) / seconds if seconds else 0.0
        else:
            num = sum(first[src, counter[0]] for src in sources)
            den = sum(first[src, counter[1]] for src in sources)
            value = num / den if den else 0.0
        out[name] = (value, unit)
    return out
