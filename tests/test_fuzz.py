"""Regression fuzzers for the input boundary: every parser input either parses
or raises a documented error, and every command line exits 0, 1, 2 or 3 with
no traceback.  Derandomized, so the examples are the same on every run."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from apxmaj.circuits import parse_formula, parse_netlist
from apxmaj.cli import EXIT_RESOURCE, main
from apxmaj.errors import DimensionError, ParseError, ResourceLimitError
from apxmaj.verify import TruthTable

DOCUMENTED = (ParseError, DimensionError, ResourceLimitError)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _token_text(tokens):
    """Text made of grammar tokens and separators, or of any characters."""
    words = st.lists(st.sampled_from(tokens), max_size=24).map("".join)
    return st.one_of(words, st.text(max_size=40))


NETLIST_TOKENS = ["input ", "output ", " = ", "AND ", "OR ", "NOT ", "XOR ", "CONST0 ", "CONST1 ",
                  "INPUT ", "a ", "b ", "g ", "x0 ", "1a ", "#", "\n", "\n", " "]
FORMULA_TOKENS = ["(", ")", "and ", "or ", "xor ", "not ", "x0 ", "x1 ", "x07 ", "x-1 ", "y ", ";",
                  "\n", " "]


@FUZZ
@given(_token_text(NETLIST_TOKENS))
def test_fuzz_parse_netlist(text):
    try:
        parse_netlist(text)
    except DOCUMENTED:
        pass


@FUZZ
@given(_token_text(FORMULA_TOKENS))
def test_fuzz_parse_formula(text):
    try:
        parse_formula(text)
    except DOCUMENTED:
        pass


@FUZZ
@given(st.one_of(st.text("0123456789abcdefABCDEFx ", max_size=20), st.text(max_size=8)), st.integers(-2, 30))
def test_fuzz_truth_table_from_hex(text, n):
    try:
        TruthTable.from_hex(text, n)
    except DOCUMENTED:
        pass


# input files the fuzzed command lines may name; "missing" names none
FILES = {
    "f.sexpr": "(or (and x0 x1) (xor x2 (not x3)))\n",
    "wide.sexpr": "(or " + " ".join(f"x{i}" for i in range(18)) + ")\n",
    "bad.sexpr": "(and x0\n",
    "maj3.netlist": "input a\ninput b\ninput c\nab = AND a b\nac = AND a c\nbc = AND b c\n"
                    "m = OR ab ac bc\noutput m\n",
    "two.netlist": "input a\ninput b\ng = AND a b\noutput g\noutput a\n",
    "bad.netlist": "input a\ng = FOO a\noutput g\n",
    "inequality.json": '{"a": [0, 1.5], "b": [2], "d": [1, 3]}\n',
    "gamma.json": '{"A": [2, 9], "gamma0": [0.01], "i_max": 3}\n',
    "tails.json": '{"n": [0, 7, 51], "eps": [0.1]}\n',
    "lemma.json": '{"tuples": [{"A": 14, "s": 2, "M": 10000000, "n": 101, "gamma": 0.05, "k": 3}]}\n',
    "bad.json": '{"nope": 1}\n',
}

_small = st.integers(-3, 40).map(str)
_count = st.integers(1, 10**4).map(str)
_trials = st.one_of(_count, _count, st.sampled_from(["0", "-2", "ten", "1e3", "2.0"]))
_eps = st.sampled_from(["0.1", "0.25", "0.25", "0.5", "0", "0.6", "nan"])
_file = lambda *names: st.sampled_from([*names, "missing"])
# override values kept small: a desk plan draws about d * M * fan-in operands
_OVERRIDE_VALUES = {"A": ["1", "2", "3", "3", "0", "2.5", "inf"], "M": ["1", "16", "32", "32", "0", "2.5", "inf"],
                    "Mtop": ["1", "32", "0", "2.5"], "stop": ["1", "3", "3", "0", "-1", "inf"], "q": ["1"]}
_override = st.lists(st.sampled_from([*_OVERRIDE_VALUES, "A", "M"]).flatmap(
    lambda k: st.sampled_from(_OVERRIDE_VALUES[k]).map(lambda v: f"{k}={v}")), max_size=4).map(",".join)
# near DEPTH_CAP, a desk plan without M would lay out d levels of e^(10 A) gates
_deep_override = st.one_of(st.just(""), st.tuples(st.sampled_from(["1", "16", "32"]), _override).map(
    lambda mv: f"M={mv[0]},{mv[1]}"))


def _command(head, required, optional):
    """argv of a subcommand: the tokens `head` draws, then each required flag
    and up to three optional ones, in a drawn order."""
    flag = lambda name, s: s.map(lambda v: [f"--{name}", v])
    flags = st.tuples(*(flag(k, s) for k, s in required.items()),
                      st.lists(st.one_of([flag(k, s) for k, s in optional.items()]), max_size=3))
    return st.tuples(head, flags.map(lambda f: [*f[:-1], *f[-1]]).flatmap(st.permutations)).map(
        lambda hf: [*hf[0], *(t for pair in hf[1] for t in pair)])


_synth_n = st.sampled_from(["3", "11", "31", "101", "101", "2", "1" + "0" * 400])
ARGV = st.one_of(
    _command(st.tuples(st.just("compile"), _file("f.sexpr", "f.sexpr", "wide.sexpr", "bad.sexpr")), {},
             {"seed": _small, "trials": _trials}),
    _command(st.tuples(st.just("synth")), {"n": _synth_n, "d": st.integers(1, 8).map(str), "eps": _eps},
             {"override": _override, "seed": _small}),
    _command(st.tuples(st.just("synth")), {"n": _synth_n, "d": st.integers(990, 2000).map(str), "eps": _eps},
             {"override": _deep_override, "seed": _small}),
    _command(st.tuples(st.just("verify"), _file("maj3.netlist", "maj3.netlist", "two.netlist", "bad.netlist")),
             {"eps": _eps}, {"mode": st.sampled_from(["exact", "mc", "mc", "fast"]), "trials": _trials,
                             "seed": _small}),
    _command(st.sampled_from([("degree", "--hex", "e8", "--n", "3"), ("degree", "--hex", "6", "--n", "2"),
                              ("degree", "--hex", "0xffff", "--n", "4"), ("degree", "--hex", "zz", "--n", "3"),
                              ("degree", "--hex", "e8"), ("degree", "--netlist", "maj3.netlist"),
                              ("degree", "--netlist", "two.netlist"), ("degree", "--netlist", "missing")]),
             {"eps": _eps}, {"n": _small, "hex": st.just("e8")}),
    _command(st.sampled_from(["inequality", "lemma", "gamma", "tails", "other"]).map(lambda k: ("check", k)),
             {}, {"grid": _file(*(name for name in FILES if name.endswith(".json"))), "trials": _trials,
                  "seed": _small}),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(ARGV)
def test_fuzz_cli_exit_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in FILES or a == "missing" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if rc == EXIT_RESOURCE:
        assert err.getvalue().startswith("resource cap: ") and err.getvalue().count("\n") == 1, argv
