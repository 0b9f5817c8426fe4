import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from apxmaj import compiler
from apxmaj.circuits import FormulaNode, GateKind, serialize_formula, var
from apxmaj.cli import EXIT_FAIL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, RunConfig, _build_parser, main

from conftest import oracle_table_formula, random_formula


def run(argv):
    return main(argv)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_compile_writes_artifacts(workdir):
    (workdir / "f.sexpr").write_text("(and x0 x1)\n")
    rc = run(["compile", "f.sexpr", "--out", "out", "--seed", "3", "--trials", "400"])
    assert rc == EXIT_OK
    recipe = json.loads((workdir / "out/recipe.json").read_text())
    assert recipe["degree_bound"] <= 3
    assert recipe["seed"] == 3
    ledger = (workdir / "out/ledger.csv").read_text().splitlines()
    assert ledger[0].startswith("node_id,")
    assert json.loads((workdir / "out/ledger.csv.meta.json").read_text())["seed"] == 3
    errors = (workdir / "out/errors.csv").read_text().splitlines()
    assert errors[0] == "input,empirical_error"
    assert len(errors) == 1 + 4


def test_compile_depth2_child_budgets(workdir):
    (workdir / "f.sexpr").write_text("(or (and x0 x1) (and x2 x3))\n")
    assert run(["compile", "f.sexpr", "--out", "o", "--trials", "200"]) == EXIT_OK
    rows = (workdir / "o/ledger.csv").read_text().splitlines()[1:]
    reduce_rows = [r for r in rows if ",reduce," in r]
    assert len(reduce_rows) == 2
    for r in reduce_rows:
        fields = r.split(",")
        assert (fields[4], fields[5]) == ("1", "32")  # budget 2/64 = 1/32


def test_compile_malformed_exits_2(workdir, capsys):
    (workdir / "bad.sexpr").write_text("(and (and x0))\n")
    assert run(["compile", "bad.sexpr", "--out", "o"]) == EXIT_USAGE
    assert "fan-in-1" in capsys.readouterr().err


def test_compile_nested_too_deep_exits_3(workdir, capsys):
    (workdir / "deep.sexpr").write_text("(not " * 3000 + "x0" + ")" * 3000 + "\n")
    assert run(["compile", "deep.sexpr", "--out", "o"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("resource cap: ")
    assert not (workdir / "o").exists()
    (workdir / "ok.sexpr").write_text("(not " * 300 + "x0" + ")" * 300 + "\n")
    assert run(["compile", "ok.sexpr", "--trials", "50", "--out", "o"]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", range(1, 9))  # table rows of 1, 1, 1, 2, 4, 8, 16, 32 bytes
def test_compile_errors_match_unpacked_samples(workdir, n):
    rng = np.random.default_rng(n)
    for seed in range(2):
        f = random_formula(rng, n, int(rng.integers(1, 4)), max_size=12)
        f = FormulaNode(GateKind.XOR, (f, var(n - 1))) if f.n_vars < n else f
        (workdir / "f.sexpr").write_text(serialize_formula(f))
        assert run(["compile", "f.sexpr", "--seed", str(seed), "--trials", "300",
                    "--out", "o"]) == EXIT_OK
        tables = compiler.sample_tables(compiler.compile_formula(f), 300, seed)
        bits = np.unpackbits(tables, axis=-1, bitorder="little", count=1 << n)
        truth = oracle_table_formula(f, n)
        wrong = [int((bits[:, j] != (truth >> j & 1)).sum()) for j in range(1 << n)]
        expected = [f"{j},{k / 300!r}" for j, k in enumerate(wrong)]
        assert (workdir / "o/errors.csv").read_text().splitlines()[1:] == expected


def test_compile_reruns_byte_identical(workdir):
    (workdir / "f.sexpr").write_text("(xor (and x0 x1) x2)\n")
    assert run(["compile", "f.sexpr", "--out", "a", "--seed", "9", "--trials", "300"]) == EXIT_OK
    assert run(["compile", "f.sexpr", "--out", "b", "--seed", "9", "--trials", "300"]) == EXIT_OK
    assert (workdir / "a/recipe.json").read_bytes() == (workdir / "b/recipe.json").read_bytes()
    assert (workdir / "a/errors.csv").read_bytes() == (workdir / "b/errors.csv").read_bytes()


def test_synth_and_verify_roundtrip(workdir):
    rc = run(["synth", "--n", "31", "--d", "3", "--eps", "0.25",
              "--override", "A=3,M=1024,Mtop=1024", "--seed", "2", "--out", "s"])
    assert rc == EXIT_OK
    plan = json.loads((workdir / "s/plan.json").read_text())
    assert plan["mode"] == "desk-scale"
    assert plan["synthesizable"] is True
    assert (workdir / "s/bands.csv").exists()
    rc = run(["verify", "s/circuit.netlist", "--eps", "0.4", "--mode", "mc",
              "--trials", "20000", "--seed", "11", "--out", "v"])
    cert = json.loads((workdir / "v/certification.json").read_text())
    assert cert["seed"] == 11
    assert rc in (EXIT_OK, EXIT_FAIL)


def test_synth_asymptotic_notsynth(workdir, capsys):
    rc = run(["synth", "--n", "1000000", "--d", "3", "--eps", "0.03125", "--out", "p"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "NOTSYNTH" in out
    plan = json.loads((workdir / "p/plan.json").read_text())
    assert plan["A"] == 31
    assert plan["log_M"] == 310.0
    assert plan["synthesizable"] is False
    assert not (workdir / "p/circuit.netlist").exists()


def test_synth_d1_usage_error(workdir, capsys):
    assert run(["synth", "--n", "101", "--d", "1", "--eps", "0.25", "--out", "x"]) == EXIT_USAGE


def test_verify_const0_fails_quarter(workdir):
    (workdir / "z.netlist").write_text(
        "input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    assert run(["verify", "z.netlist", "--eps", "0.25", "--out", "v1"]) == EXIT_FAIL
    assert run(["verify", "z.netlist", "--eps", "0.5", "--out", "v2"]) == EXIT_OK


@pytest.mark.parametrize("eps", ["2", "-1", "nan"])
def test_verify_eps_out_of_range_exits_2(workdir, capsys, eps):
    (workdir / "z.netlist").write_text(
        "input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    for mode in ("exact", "mc"):
        assert run(["verify", "z.netlist", "--eps", eps, "--mode", mode, "--out", "v"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: eps must be in [0, 1/2]")
        assert not (workdir / "v").exists()


def test_verify_exact_cap_checked_after_eps(workdir, capsys):
    (workdir / "big.netlist").write_text(
        "".join(f"input x{i}\n" for i in range(30)) + "z = CONST0\noutput z\n")
    assert run(["verify", "big.netlist", "--eps", "2", "--out", "v"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: eps must be in [0, 1/2]")
    assert run(["verify", "big.netlist", "--eps", "0.25", "--out", "v"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "resource cap: exact mode capped at n <= 20 (circuit has 30); use --mode mc\n")
    assert not (workdir / "v").exists()


def test_max_n_flag_removed(workdir, capsys):
    (workdir / "z.netlist").write_text("input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    assert run(["verify", "z.netlist", "--eps", "0.25", "--max-n", "5", "--out", "v"]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["apxmaj: error: unrecognized arguments: --max-n 5"]
    (workdir / "cfg.json").write_text(json.dumps({"max_n": 5}))
    assert run(["--config", "cfg.json", "verify", "z.netlist", "--eps", "0.25",
                "--out", "v"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown config key 'max_n'\n"
    assert not (workdir / "v").exists()


def test_threads_flag_removed(workdir, capsys):
    assert run(["degree", "--hex", "e8", "--n", "3", "--eps", "0.125",
                "--threads", "4", "--out", "d"]) == EXIT_USAGE
    (workdir / "cfg.json").write_text(json.dumps({"threads": 4}))
    assert run(["--config", "cfg.json", "degree", "--hex", "e8", "--n", "3",
                "--eps", "0.125", "--out", "d"]) == EXIT_USAGE
    assert not (workdir / "d").exists()


SUBCOMMAND_ARGV = {
    "compile": ["compile", "f.sexpr"],
    "synth": ["synth", "--n", "31", "--d", "3", "--eps", "0.25"],
    "verify": ["verify", "z.netlist", "--eps", "0.25"],
    "degree": ["degree", "--hex", "e8", "--n", "3", "--eps", "0.125"],
    "check": ["check", "inequality"],
}


def _write_inputs(workdir):
    (workdir / "f.sexpr").write_text("(or x0 x1)\n")
    (workdir / "z.netlist").write_text("input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")


@pytest.mark.parametrize("command, flag", [(c, "--max-width") for c in SUBCOMMAND_ARGV]
                         + [("synth", "--trials"), ("degree", "--trials")])
def test_removed_flags_rejected(workdir, capsys, command, flag):
    _write_inputs(workdir)
    assert run(SUBCOMMAND_ARGV[command] + [flag, "5", "--out", "o"]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"apxmaj: error: unrecognized arguments: {flag} 5"]
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("config, message", [
    ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"out": 5}, "out must be a string, got 5"),
    ([1, 2], "config file must hold a JSON object"),
    ({"max_width": 5}, "unknown config key 'max_width'"),
    ({"overrides": {"A": 3}}, "unknown config key 'overrides'"),
], ids=["seed-text", "seed-fraction", "seed-bool", "out-int", "array", "max_width", "overrides"])
@pytest.mark.parametrize("command", ["compile", "synth"])
def test_bad_config_exits_2_with_one_line(workdir, capsys, command, config, message):
    _write_inputs(workdir)
    (workdir / "cfg.json").write_text(json.dumps(config))
    before = sorted(workdir.iterdir())
    assert run(["--config", "cfg.json"] + SUBCOMMAND_ARGV[command]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(workdir.iterdir()) == before


def test_degree_examples_and_cap(workdir):
    assert run(["degree", "--hex", "e8", "--n", "3", "--eps", "0.125", "--out", "d"]) == EXIT_OK
    doc = json.loads((workdir / "d/degree.json").read_text())
    assert doc["degree"] == 2
    assert run(["degree", "--hex", "f" * 16, "--n", "6", "--eps", "0.125",
                "--out", "d6"]) == EXIT_RESOURCE


def test_check_inequality_default_grid(workdir, capsys):
    assert run(["check", "inequality", "--out", "k"]) == EXIT_OK
    assert "violations=0" in capsys.readouterr().out


def test_check_lemma_hypothesis_skip(workdir, capsys):
    grid = {"tuples": [
        {"A": 1.0, "s": 2.0, "M": 100, "n": 50, "gamma": 0.05, "k": 3},  # e^A < n^3
        {"A": 21.0, "s": 2.0, "M": 10**9, "n": 50, "gamma": 0.05, "k": 3},
    ]}
    (workdir / "grid.json").write_text(json.dumps(grid))
    assert run(["check", "lemma", "--grid", "grid.json", "--out", "k"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "hypothesis_skips=1" in out


def test_check_lemma_huge_m_tuple_is_checked(workdir, capsys):
    # this seed draws M = 32751464541038204 > 2^53 with k = 1
    assert run(["check", "lemma", "--seed", "825368914", "--out", "k"]) == EXIT_OK
    assert "violations=0" in capsys.readouterr().out


def test_check_tails_reports_small_n_violations(workdir):
    # the 2*eps bound genuinely fails at small eps*sqrt(n); the tool reports it
    rc = run(["check", "tails", "--out", "k"])
    assert rc == EXIT_FAIL
    doc = json.loads(Path("k/check_tails.json").read_text())
    assert doc["first_violation"]["n"] == 51
    assert doc["first_violation"]["eps"] == 0.1


def test_check_gamma_reports_a2_violations(workdir):
    rc = run(["check", "gamma", "--out", "k"])
    assert rc == EXIT_FAIL
    doc = json.loads(Path("k/check_gamma.json").read_text())
    assert doc["first_violation"]["A"] == 2
    grid = {"A": list(range(3, 33))}
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", "gamma", "--grid", "g.json", "--out", "k3"]) == EXIT_OK


@pytest.mark.parametrize("kind, grid, message", [
    ("inequality", [1], "grid file must hold a JSON object"),
    ("lemma", {"tuples": [{"A": 1}]}, "each lemma tuple needs exactly the keys A, s, M, n, gamma, k"),
    ("gamma", {"A": 5}, "grid key 'A' must be a list, got 5"),
    ("lemma", {"tuples": 3}, "grid key 'tuples' must be a list, got 3"),
    ("tails", {"n": [1.5]}, "grid key 'n' takes integers that fit a float, got 1.5"),
    ("gamma", {"a": [1]}, "unknown gamma grid key 'a' (expected one of A, gamma0, i_max)"),
    ("inequality", {"d": [True]}, "grid key 'd' takes integers that fit a float, got True"),
    ("inequality", {"a": ["1"]}, "grid key 'a' takes numbers that fit a float, got '1'"),
    ("gamma", {"i_max": 2.5}, "grid key 'i_max' takes integers that fit a float, got 2.5"),
    ("lemma", {"tuples": [{"A": 21.0, "s": 2.0, "M": 1e9, "n": 50, "gamma": 0.05, "k": 3}]},
     "grid key 'M' takes integers that fit a float, got 1000000000.0"),
    ("tails", {"n": [10**400]}, f"grid key 'n' takes integers that fit a float, got {10**400}"),
], ids=["array", "lemma-missing-keys", "gamma-scalar", "lemma-scalar", "tails-fraction",
        "gamma-wrong-key", "inequality-bool", "inequality-text", "gamma-i_max-fraction",
        "lemma-fraction", "tails-beyond-float"])
def test_bad_grid_exits_2_with_one_line(workdir, capsys, kind, grid, message):
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", kind, "--grid", "g.json", "--out", "k"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "k").exists()


def test_grid_values_of_each_kind_accepted(workdir):
    grids = {"inequality": {"a": [0, 1.5], "b": [2], "d": [1, 2]},
             "gamma": {"A": [3], "gamma0": [0.01], "i_max": 4},
             "tails": {"n": [501], "eps": [0.25]},
             "lemma": {"tuples": []}}
    for kind, grid in grids.items():
        (workdir / "g.json").write_text(json.dumps(grid))
        assert run(["check", kind, "--grid", "g.json", "--out", "k"]) == EXIT_OK
    assert json.loads(Path("k/check_inequality.json").read_text())["checked"] == 4


def test_config_file_provides_defaults(workdir):
    (workdir / "f.sexpr").write_text("(or x0 x1)\n")
    (workdir / "cfg.json").write_text(json.dumps({"seed": 77, "trials": 128, "out": "cfgout"}))
    assert run(["--config", "cfg.json", "compile", "f.sexpr"]) == EXIT_OK
    doc = json.loads((workdir / "cfgout/recipe.json").read_text())
    assert doc["seed"] == 77 and doc["trials"] == 128


def test_unknown_override_rejected(workdir, capsys):
    rc = run(["synth", "--n", "31", "--d", "2", "--eps", "0.25",
              "--override", "Q=1", "--out", "x"])
    assert rc == EXIT_USAGE


NO_OUTPUT_NETLIST = "input x0\ninput x1\ng = AND x0 x1\n"
TWO_OUTPUT_NETLIST = "input x0\ninput x1\ng = AND x0 x1\nh = OR x0 x1\noutput g\noutput h\n"


@pytest.mark.parametrize("text, argv", [
    (NO_OUTPUT_NETLIST, ["verify", "c.netlist", "--eps", "0.25", "--out", "v"]),
    (NO_OUTPUT_NETLIST, ["degree", "--netlist", "c.netlist", "--eps", "0.25", "--out", "d"]),
    (TWO_OUTPUT_NETLIST, ["verify", "c.netlist", "--eps", "0.25", "--out", "v"]),
    (TWO_OUTPUT_NETLIST, ["degree", "--netlist", "c.netlist", "--eps", "0.25", "--out", "d"]),
    (None, ["degree", "--hex", "f", "--n", "1", "--eps", "0.25", "--out", "d"]),
], ids=["verify-no-output", "degree-no-output", "verify-two-outputs",
        "degree-two-outputs", "degree-hex-too-wide"])
def test_bad_input_exits_2_with_one_line(workdir, capsys, text, argv):
    if text is not None:
        (workdir / "c.netlist").write_text(text)
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# Every setting a user can give: a new option needs a caller that wants a
# value other than the default, and an edit here that names it.
SETTINGS = {
    "compile": ["formula", "--seed", "--trials", "--out"],
    "synth": ["--n", "--d", "--eps", "--override", "--seed", "--out"],
    "verify": ["netlist", "--eps", "--mode", "--seed", "--trials", "--out"],
    "degree": ["--hex", "--netlist", "--n", "--eps", "--seed", "--out"],
    "check": ["kind", "--grid", "--seed", "--trials", "--out"],
}


def _argument_names(parser) -> list[str]:
    return [a.option_strings[0] if a.option_strings else a.dest
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_settings_surface():
    parser = _build_parser()
    assert _argument_names(parser) == ["--config", "command"]
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {cmd: _argument_names(sp) for cmd, sp in subparsers.choices.items()} == SETTINGS
    assert sum(map(len, SETTINGS.values())) == 27
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["seed", "trials", "out"]


def test_format_flag_removed(workdir, capsys):
    (workdir / "f.sexpr").write_text("(or x0 x1)\n")
    assert run(["compile", "f.sexpr", "--format", "csv", "--out", "o"]) == EXIT_USAGE
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("argv, config", [
    (["compile", "f.sexpr", "--trials", "0"], None),
    (["compile", "f.sexpr", "--trials", "-3"], None),
    (["compile", "f.sexpr", "--trials", "ten"], None),
    (["verify", "z.netlist", "--eps", "0.25", "--mode", "mc", "--trials", "0"], None),
    (["verify", "z.netlist", "--eps", "0.25", "--trials", "0"], None),
    (["check", "lemma", "--trials", "0"], None),
    (["compile", "f.sexpr"], {"trials": 0}),
    (["compile", "f.sexpr"], {"trials": 2.5}),
    (["check", "lemma"], {"trials": "100"}),
], ids=["compile-0", "compile-negative", "compile-text", "verify-mc-0", "verify-exact-0",
        "check-lemma-0", "config-0", "config-fraction", "config-string"])
def test_trials_must_be_positive_integer(workdir, capsys, argv, config):
    (workdir / "f.sexpr").write_text("(or x0 x1)\n")
    (workdir / "z.netlist").write_text("input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", "cfg.json"] + argv
    assert run(argv + ["--out", "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: trials must be")
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("override, key", [
    ("M=0", "M"), ("M=-4", "M"), ("A=3,M=64,stop=-1", "s_top"), ("A=0", "A"),
    ("Mtop=0", "M_top"), ("logM=-1", "logM"), ("logMtop=inf", "logM_top"),
    ("A=3,M=64,stop=nan", "s_top"),
])
def test_bad_override_value_exits_2(workdir, capsys, override, key):
    rc = run(["synth", "--n", "31", "--d", "3", "--eps", "0.25",
              "--override", override, "--out", "x"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: override {key} must be")
    assert not (workdir / "x").exists()


def test_synth_n_beyond_float_exits_2(workdir, capsys):
    rc = run(["synth", "--n", "1" + "0" * 400, "--d", "3", "--eps", "0.25", "--out", "x"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: n does not fit a float")
    assert not (workdir / "x").exists()
