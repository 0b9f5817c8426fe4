import argparse
import ast
import dataclasses
import inspect
import json
import re
import runpy
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import apxmaj
from apxmaj import compiler
from apxmaj import synthesis as S
from apxmaj.circuits import FormulaNode, GateKind
from apxmaj.cli import (CHECK_WORK_CAP, EXIT_FAIL, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE,
                        EXIT_USAGE, LEMMA_CHUNK, _build_parser, _random_weighted_input, main)
from apxmaj.gf2poly import lane_bits
from apxmaj.rng import rng_for

from conftest import alternating_formula, formula_text, oracle_table_formula, random_formula


ROOT = Path(__file__).resolve().parent.parent


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
    assert json.loads((workdir / "out/recipe.json.meta.json").read_text())["seed"] == 3
    errors = (workdir / "out/errors.csv").read_text().splitlines()
    assert errors[0] == "input,empirical_error"
    assert len(errors) == 1 + 4


def _sidecar(folder: Path, first: str, files: list[str]) -> dict:
    # a command writes its files and one sidecar, named after the first report
    assert sorted(p.name for p in folder.iterdir()) == sorted(files + [first + ".meta.json"])
    meta = json.loads((folder / (first + ".meta.json")).read_text())
    return {k: v for k, v in meta.items() if k != "written_at"}


def test_compile_and_synth_write_one_sidecar(workdir, capsys):
    (workdir / "f.sexpr").write_text("(or (and x0 x1) x2)\n")
    assert run(["compile", "f.sexpr", "--out", "c", "--seed", "4", "--trials", "100"]) == EXIT_OK
    reports = ["recipe.json", "ledger.csv", "errors.csv"]
    assert _sidecar(workdir / "c", "recipe.json", reports) == {"seed": 4, "reports": reports}
    assert run(["synth", "--n", "31", "--d", "3", "--eps", "0.25",
                "--override", "A=3,M=64,Mtop=64", "--seed", "5", "--out", "s"]) == EXIT_OK
    reports = ["plan.json", "circuit.netlist", "bands.csv"]
    assert _sidecar(workdir / "s", "plan.json", reports) == {"seed": 5, "reports": reports}
    assert run(["synth", "--n", "1000000", "--d", "3", "--eps", "0.03125", "--out", "p"]) == EXIT_OK
    assert _sidecar(workdir / "p", "plan.json", ["plan.json"]) == {"seed": 0, "reports": ["plan.json"]}


def test_single_report_commands_keep_their_sidecar(workdir, capsys):
    _write_inputs(workdir)
    for command, report, meta in [("verify", "certification.json", {"seed": 0}),
                                  ("degree", "degree.json", {}),
                                  ("check", "check_inequality.json", {"seed": 0})]:
        assert run(SUBCOMMAND_ARGV[command] + ["--out", command]) in (EXIT_OK, EXIT_FAIL)
        assert _sidecar(workdir / command, report, [report]) == meta


def test_compile_above_16_variables_writes_no_error_table(workdir, capsys):
    # the error table needs the full-table sampler, which stops at 16 variables
    (workdir / "f.sexpr").write_text("(xor x0 x16)\n")
    assert run(["compile", "f.sexpr", "--out", "o", "--trials", "50"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("compiled: ") and "max_sampled_degree=" not in out
    assert (workdir / "o/errors.csv").read_bytes() == b""
    assert (workdir / "o/recipe.json").exists()


def test_compile_over_the_sample_work_cap_writes_no_error_table(workdir, capsys):
    # alternating AND/OR of fan-in 3 at depth 5, 27.6 million node visits: as
    # above 16 variables, and the cap is named on stdout
    (workdir / "f.sexpr").write_text(alternating_formula(5, 3, 12) + "\n")
    start = time.perf_counter()
    assert run(["compile", "f.sexpr", "--out", "o"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("compiled: size=243 depth=5 ") and "max_sampled_degree=" not in out[0]
    assert out[1] == ("no error table: sampling needs 3.73e+12 word operations (27602020 node visits), "
                      "over compiler.SAMPLE_WORK_CAP = 1e+09")
    reports = ["recipe.json", "ledger.csv", "errors.csv"]
    assert _sidecar(workdir / "o", "recipe.json", reports) == {"seed": 0, "reports": reports}
    assert (workdir / "o/errors.csv").read_bytes() == b""
    # the whole --trials counts: at depth 3, each 4,096-lane chunk of 30,000 trials is under the cap
    (workdir / "f.sexpr").write_text(alternating_formula(3, 3, 8) + "\n")
    assert run(["compile", "f.sexpr", "--trials", "30000", "--out", "o"]) == EXIT_OK
    assert "no error table: " in capsys.readouterr().out


def test_compile_depth2_child_budgets(workdir):
    (workdir / "f.sexpr").write_text("(or (and x0 x1) (and x2 x3))\n")
    assert run(["compile", "f.sexpr", "--out", "o", "--trials", "200"]) == EXIT_OK
    rows = (workdir / "o/ledger.csv").read_text().splitlines()[1:]
    reduce_rows = [r for r in rows if ",reduce," in r]
    assert len(reduce_rows) == 2
    for r in reduce_rows:
        fields = r.split(",")
        assert (fields[4], fields[5]) == ("1", "32")  # budget 2/64 = 1/32


def test_unexpected_exception_exits_4_with_one_line(workdir, capsys, monkeypatch):
    def broken(formula):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(compiler, "compile_formula", broken)
    (workdir / "f.sexpr").write_text("(or x0 x1)\n")
    assert run(["compile", "f.sexpr", "--out", "o"]) == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom second line\n"


def test_compile_memory_flat_in_trials(workdir):
    # compile holds one lane chunk of tables at a time, so 4x the trials must
    # not mean 4x the memory (peaks are 3.8 MB at both; a byte per sample and
    # input, as a whole-batch unpack takes, would be 26 MB and 102 MB)
    (workdir / "f.sexpr").write_text("(or " + " ".join(f"x{i}" for i in range(10)) + ")\n")
    run(["compile", "f.sexpr", "--trials", "1", "--out", "o"])  # builds the parser outside the trace
    peaks = []
    for trials in (20_000, 80_000):
        tracemalloc.start()
        try:
            assert run(["compile", "f.sexpr", "--trials", str(trials), "--out", "o"]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


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
        f = FormulaNode(GateKind.XOR, (f, FormulaNode(GateKind.INPUT, var=n - 1))) if f.n_vars < n else f
        (workdir / "f.sexpr").write_text(formula_text(f))
        assert run(["compile", "f.sexpr", "--seed", str(seed), "--trials", "300",
                    "--out", "o"]) == EXIT_OK
        tables = compiler.sample_tables(compiler.compile_formula(f), 300, seed)
        bits = lane_bits(tables, 300).T
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
    # a header, then 3 weights (int(0.4 n), n // 2, ceil(0.6 n)) x 3 levels;
    # the band of a level without one is two empty cells
    assert (workdir / "s/bands.csv").read_bytes() == (
        b"weight,level,kind,ones_fraction,predicted,sigma,band_lo,band_hi,pass\r\n"
        b"12,1,AND,0.0498046875,0.05800409519653586,0.0073047247751032275,0.04466441955647965,0.05490971717924824,True\r\n"
        b"12,2,OR,0.7197265625,0.7885175252641539,0.04450726270045798,,,True\r\n"
        b"12,3,AND,0.0,0.0004988422243531996,0.022347375940635867,,,True\r\n"
        b"15,1,AND,0.09765625,0.11328924843073412,0.009904563865804999,0.04466441955647965,0.05490971717924824,True\r\n"
        b"15,2,OR,0.9482421875,0.9561134607832431,0.014262738876117158,,,True\r\n"
        b"15,3,AND,0.0,0.23784927966129144,0.44064511723515243,,,True\r\n"
        b"19,1,AND,0.216796875,0.23023731999597194,0.013155771089748546,0.04466441955647965,0.05490971717924824,True\r\n"
        b"19,2,OR,0.998046875,0.9988901145920923,0.0011514782482006261,,,True\r\n"
        b"19,3,AND,1.0,0.9650879352545414,0.1869775414886174,,,True\r\n")
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


def test_synth_operand_cap_writes_plan_only(workdir, capsys):
    # each level's width and fan-in is under WIDTH_CAP, their products are not
    # under OPERAND_CAP: synth draws nothing
    argv = ["synth", "--n", "101", "--d", "4", "--eps", "0.25", "--override", "A=16,M=1000000"]
    assert not S.plan(101, 4, 0.25, {"A": 16, "M": 10**6}).synthesizable
    assert run(argv + ["--out", "p"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        f"NOTSYNTH: 101 inputs and 1179532001000 drawn operands exceed cap {S.OPERAND_CAP}\n")
    assert sorted(p.name for p in (workdir / "p").iterdir()) == ["plan.json", "plan.json.meta.json"]
    assert json.loads((workdir / "p/plan.json").read_text())["synthesizable"] is False


@pytest.mark.parametrize("n", [10**12, 10**8, (S.OPERAND_CAP - 228) // S.INPUT_OPERANDS + 1])
def test_synth_inputs_count_against_the_operand_cap(workdir, capsys, n):
    # each input costs INPUT_OPERANDS operands, so n alone can reach the cap
    # (10^12 inputs would take terabytes; the last n is one input over the
    # bound): synth then builds nothing and returns at once
    start = time.perf_counter()
    assert run(["synth", "--n", str(n), "--d", "3", "--eps", "0.25", "--override", "A=3,M=16,Mtop=16",
                "--out", "p"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.startswith(
        f"NOTSYNTH: {n} inputs and 228 drawn operands exceed cap {S.OPERAND_CAP}\n")
    assert sorted(p.name for p in (workdir / "p").iterdir()) == ["plan.json", "plan.json.meta.json"]


def test_random_weighted_input_sets_the_drawn_indices():
    for n in (3, 101, 1000, 4099):
        for w in (0, 1, n // 2, n):
            idx = rng_for(7, "witness", w).permutation(n)[:w]
            assert _random_weighted_input(n, w, 7) == sum(1 << int(i) for i in idx)
    start = time.perf_counter()  # linear in n: 10^6 inputs in milliseconds
    x = _random_weighted_input(10**6, 5 * 10**5, 7)
    assert time.perf_counter() - start < 0.5
    assert x.bit_count() == 5 * 10**5 and x.bit_length() <= 10**6


def test_synth_d1_usage_error(workdir, capsys):
    assert run(["synth", "--n", "101", "--d", "1", "--eps", "0.25", "--out", "x"]) == EXIT_USAGE


def test_synth_depth_cap_exits_3_before_any_file(workdir, capsys):
    # a plan lists every level, so a depth past the cap is refused before any
    # level is laid out; the cap itself still plans
    assert S.DEPTH_CAP == 1000
    assert run(["synth", "--n", "101", "--d", "1001", "--eps", "0.25", "--out", "x"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == "resource cap: depth d=1001 exceeds cap 1000\n"
    assert not (workdir / "x").exists()
    assert run(["synth", "--n", "101", "--d", "1000", "--eps", "0.25", "--out", "y"]) == EXIT_OK
    assert "NOTSYNTH" in capsys.readouterr().out
    assert len(json.loads((workdir / "y/plan.json").read_text())["levels"]) == 1000


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


def test_verify_records_the_seed_it_draws_from(workdir):
    # exact mode enumerates every input and draws nothing, so it records no seed
    (workdir / "z.netlist").write_text("input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    for mode, seed in (("exact", None), ("mc", 7)):
        run(["verify", "z.netlist", "--eps", "0.5", "--mode", mode, "--seed", "7", "--out", mode])
        assert json.loads((workdir / mode / "certification.json").read_text())["seed"] == seed


def test_verify_prints_the_seed_it_records(workdir, capsys):
    # the summary line and certification.json agree: exact mode draws nothing
    (workdir / "z.netlist").write_text("input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    for mode, seed in (("exact", None), ("mc", 9)):
        run(["verify", "z.netlist", "--eps", "0.5", "--mode", mode, "--seed", "9", "--out", mode])
        assert capsys.readouterr().out.rstrip().endswith(f" seed={seed}")
        assert json.loads((workdir / mode / "certification.json").read_text())["seed"] == seed


def test_max_n_flag_removed(workdir, capsys):
    (workdir / "z.netlist").write_text("input x0\ninput x1\ninput x2\nz = CONST0\noutput z\n")
    assert run(["verify", "z.netlist", "--eps", "0.25", "--max-n", "5", "--out", "v"]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["apxmaj: error: unrecognized arguments: --max-n 5"]
    assert not (workdir / "v").exists()


def test_threads_flag_removed(workdir, capsys):
    assert run(["degree", "--hex", "e8", "--n", "3", "--eps", "0.125",
                "--threads", "4", "--out", "d"]) == EXIT_USAGE
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
                         + [("synth", "--trials"), ("degree", "--trials"), ("degree", "--seed")])
def test_removed_flags_rejected(workdir, capsys, command, flag):
    _write_inputs(workdir)
    assert run(SUBCOMMAND_ARGV[command] + [flag, "5", "--out", "o"]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"apxmaj: error: unrecognized arguments: {flag} 5"]
    assert not (workdir / "o").exists()


def test_config_option_removed(workdir, capsys):
    # seed, trials and out come from their flags only
    _write_inputs(workdir)
    (workdir / "c.json").write_text(json.dumps({"seed": 1, "trials": 10, "out": "o"}))
    before = sorted(workdir.iterdir())
    assert run(["--config", "c.json", "compile", "f.sexpr"]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("apxmaj: error: argument command:")
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("n, code, message", [
    ("-1", EXIT_USAGE, "error: n must be >= 0, got -1"),
    ("25", EXIT_RESOURCE, "resource cap: truth tables capped at n <= 24, got 25"),
    ("100000", EXIT_RESOURCE, "resource cap: truth tables capped at n <= 24, got 100000"),
])
def test_degree_n_checked_before_hex(workdir, capsys, n, code, message):
    assert run(["degree", "--hex", "e8", "--n", n, "--eps", "0.125", "--out", "d"]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (workdir / "d").exists()


def test_degree_hex_needs_n(workdir, capsys):
    assert run(["degree", "--hex", "e8", "--eps", "0.125", "--out", "d"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --hex needs --n\n"
    assert not (workdir / "d").exists()


def test_degree_n_goes_with_hex_only(workdir, capsys):
    (workdir / "c.netlist").write_text("input x0\ninput x1\ng = AND x0 x1\noutput g\n")
    assert run(["degree", "--netlist", "c.netlist", "--n", "7", "--eps", "0.125", "--out", "d"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --n goes with --hex\n"
    assert not (workdir / "d").exists()


def test_no_subcommand_prints_help(workdir, capsys):
    assert run([]) == EXIT_USAGE
    out = capsys.readouterr().out
    assert out.startswith("usage: apxmaj") and "{compile,synth,verify,degree,check}" in out


def test_degree_examples_and_cap(workdir):
    assert run(["degree", "--hex", "e8", "--n", "3", "--eps", "0.125", "--out", "d"]) == EXIT_OK
    doc = json.loads((workdir / "d/degree.json").read_text())
    assert doc["degree"] == 2 and "seed" not in doc  # the oracle draws nothing
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
    # M = 32751464541038204 > 2^53 with k = 1 and k = M - 1 passes int64 exact
    a, s, m, n, gamma = 31.621891952577354, 17.663265324289764, 32751464541038204, 196, 0.009735847953084733
    grid = {"tuples": [{"A": a, "s": s, "M": m, "n": n, "gamma": gamma, "k": k} for k in (1, m - 1)]}
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", "lemma", "--grid", "g.json", "--out", "k"]) == EXIT_OK
    assert capsys.readouterr().out == "lemma: checked=2 violations=0 hypothesis_skips=0\n"


def test_check_lemma_trials_are_a_prefix(workdir, monkeypatch):
    # chunks are drawn whole, so a shorter run checks the first tuples of a longer one
    seen = {}
    check = S.check_technical_lemma

    def recording(*tup):
        seen.setdefault(trials, []).append(tup)
        assert len(tup[0]) <= LEMMA_CHUNK
        return check(*tup)
    monkeypatch.setattr(S, "check_technical_lemma", recording)
    for trials in (1000, 5000):
        assert run(["check", "lemma", "--seed", "3", "--trials", str(trials), "--out", "k"]) == EXIT_OK
    short, long = ([np.concatenate(c) for c in zip(*seen[t])] for t in (1000, 5000))
    assert [len(c) for c in short + long] == [1000] * 6 + [5000] * 6
    assert all(np.array_equal(c, d[:1000]) for c, d in zip(short, long))


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
    ("gamma", {"A": [10**300]},
     "gamma grid values overflow a float (int too large to convert to float)"),
    ("lemma", {"tuples": [{"A": 1e300, "s": 2.0, "M": 100, "n": 50, "gamma": 0.05, "k": 3}]},
     "lemma grid values overflow a float (a result is not finite)"),
    ("lemma", {"tuples": [{"A": 21.0, "s": 2.0, "M": 2**63, "n": 50, "gamma": 0.05, "k": 3}]},
     "lemma tuple key 'M' takes integers below 2^63 in magnitude"),
    ("lemma", {"tuples": [{"A": 21.0, "s": 2.0, "M": 10, "n": 50, "gamma": 0.05, "k": -2**63}]},
     "lemma tuple key 'k' takes integers below 2^63 in magnitude"),
    ("lemma", {"tuples": [{"A": 21.0, "s": 2.0, "M": 0, "n": 50, "gamma": 0.05, "k": 0}]},
     "M must be positive"),
    ("lemma", {"tuples": [{"A": 21.0, "s": 2.0, "M": 10, "n": 50, "gamma": 0.05, "k": 11}]},
     "ones-count k must be in 0..M"),
    ("inequality", {"a": [1e300], "b": [1e300], "d": [2]},  # the gap is inf - inf
     "inequality grid values overflow a float (a result is not finite)"),
], ids=["array", "lemma-missing-keys", "gamma-scalar", "lemma-scalar", "tails-fraction",
        "gamma-wrong-key", "inequality-bool", "inequality-text", "gamma-i_max-fraction",
        "lemma-fraction", "tails-beyond-float", "gamma-overflow", "lemma-overflow",
        "lemma-M-beyond-int64", "lemma-k-beyond-int64", "lemma-M-zero", "lemma-k-above-M",
        "inequality-overflow"])
def test_bad_grid_exits_2_with_one_line(workdir, capsys, kind, grid, message):
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", kind, "--grid", "g.json", "--out", "k"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "k").exists()


@pytest.mark.parametrize("kind, grid, work", [
    ("inequality", {"a": [0] * 1000, "b": [0] * 1000, "d": [1, 2]}, 2 * 10**6),
    ("gamma", {"i_max": 10**24}, 31 * 13 * 10**24),
    ("tails", {"n": [10**9]}, 3 * (10**9 + 1)),
    ("tails", {"n": [10**9, -10**9]}, 6 * (10**9 + 1)),  # no work is taken off
], ids=["inequality", "gamma", "tails", "tails-negative-n"])
def test_check_work_cap_exits_3_before_any_work(workdir, capsys, kind, grid, work):
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", kind, "--grid", "g.json", "--out", "k"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (f"resource cap: check {kind} grid needs {work} "
                                       f"evaluations, over the cap of {CHECK_WORK_CAP}\n")
    assert not (workdir / "k").exists()


def test_check_inequality_first_violation_in_sweep_order(workdir, capsys):
    grid = {"a": [-3, -1.5, 0, 2], "b": [5, -2.5], "d": [1, 2, 3]}
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", "inequality", "--grid", "g.json", "--out", "k"]) == EXIT_FAIL
    assert capsys.readouterr().out == (
        "inequality: checked=24 violations=1 "
        "first={'a': -3.0, 'b': -2.5, 'd': 2, 'gap': -0.2037037037037035}\n")


def test_check_lemma_reports_first_violation(workdir, monkeypatch, capsys):
    monkeypatch.setattr(S.TechnicalLemmaReport, "ok", property(lambda r: r.k != 3))
    ok = {"A": 21.0, "s": 2.0, "M": 10**9, "n": 50, "gamma": 0.05, "k": 4}
    grid = {"tuples": [ok, dict(ok, A=1.0, k=3), dict(ok, k=3), dict(ok, s=3.0, k=3)]}
    (workdir / "g.json").write_text(json.dumps(grid))
    assert run(["check", "lemma", "--grid", "g.json", "--out", "k"]) == EXIT_FAIL
    doc = json.loads(Path("k/check_lemma.json").read_text())
    assert (doc["checked"], doc["violations"], doc["hypothesis_skips"]) == (3, 2, 1)
    assert doc["first_violation"] == dict(ok, k=3)


def test_check_lemma_memory_flat_in_trials(workdir):
    # tuples are checked a chunk at a time as they are drawn, so 10x the whole
    # chunks must not mean 10x the memory (peaks are 0.69 MB at both; a list of
    # every tuple, about 240 B each, would hold 2.9 MB at 3 chunks and 29 MB at 30)
    run(["check", "lemma", "--trials", "1", "--out", "k"])  # builds the parser outside the trace
    peaks = []
    for trials in (3 * LEMMA_CHUNK, 30 * LEMMA_CHUNK):
        tracemalloc.start()
        try:
            assert run(["check", "lemma", "--trials", str(trials), "--out", "k"]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_bound_checks_reproduced(workdir):
    # scripts/run_bound_checks.py writes the committed bound_checks/ byte for byte
    assert runpy.run_path(str(ROOT / "scripts/run_bound_checks.py"))["main"]() == 0
    for kind in ("inequality", "lemma", "gamma", "tails"):
        name = f"bound_checks/{kind}/check_{kind}.json"
        assert (workdir / name).read_bytes() == (ROOT / name).read_bytes(), name


def test_grid_values_of_each_kind_accepted(workdir):
    grids = {"inequality": {"a": [0, 1.5], "b": [2], "d": [1, 2]},
             "gamma": {"A": [3], "gamma0": [0.01], "i_max": 4},
             "tails": {"n": [501], "eps": [0.25]},
             "lemma": {"tuples": []}}
    for kind, grid in grids.items():
        (workdir / "g.json").write_text(json.dumps(grid))
        assert run(["check", kind, "--grid", "g.json", "--out", "k"]) == EXIT_OK
    assert json.loads(Path("k/check_inequality.json").read_text())["checked"] == 4


def test_unknown_override_rejected(workdir, capsys):
    # s_top is computed (plan.json still writes it), not set
    for key in ("Q", "logM", "logMtop", "logM_top", "stop", "s_top"):
        rc = run(["synth", "--n", "31", "--d", "2", "--eps", "0.25",
                  "--override", f"A=3,M=64,{key}=4.85", "--out", "x"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown override key '{key}'\n"
        assert not (workdir / "x").exists()


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
    "degree": ["--hex", "--netlist", "--n", "--eps", "--out"],
    "check": ["kind", "--grid", "--seed", "--trials", "--out"],
}


def _argument_names(parser) -> list[str]:
    return [a.option_strings[0] if a.option_strings else a.dest
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_parser_reuse_leaks_no_value(workdir, capsys):
    # main keeps one parser per process: a flag given on one call must not
    # carry over to a later call that leaves it out
    _write_inputs(workdir)

    def outputs(argv):
        shutil.rmtree(workdir / "o", ignore_errors=True)
        code = run(argv + ["--out", "o"])
        files = {p.name: p.read_text() for p in sorted((workdir / "o").iterdir())
                 if not p.name.endswith(".meta.json")}
        return code, capsys.readouterr(), files

    # exact-mode verify reads no --seed, so verify varies --mode instead
    flags = {"degree": ["--eps", "0.25"], "verify": ["--mode", "mc"]}
    for command, argv in SUBCOMMAND_ARGV.items():
        flag = flags.get(command, ["--seed", "5"])
        plain, flagged = outputs(argv), outputs(argv + flag)
        assert flagged != plain, command
        assert outputs(argv) == plain, command
        assert outputs(argv + flag) == flagged, command


def test_settings_surface():
    parser = _build_parser()
    assert _argument_names(parser) == ["command"]
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {cmd: _argument_names(sp) for cmd, sp in subparsers.choices.items()} == SETTINGS
    assert sum(map(len, SETTINGS.values())) == 26


def test_library_surface():
    # removed names and one-value settings stay removed: a new one needs two
    # callers that want different values
    exported = sorted(name for name, value in vars(apxmaj).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == [
        "CircuitDag", "CompiledRecipe", "DegreeCertificate", "FormulaNode", "GateKind",
        "SparsePolyF2", "SynthPlan", "SynthResult", "TruthTable", "bias_recurrence",
        "certify_approx_majority", "check_key_inequality", "check_technical_lemma",
        "compile_formula", "emit_report", "empirical_level_check", "error_reduce",
        "eval_sample", "from_truth_table", "level_checks", "min_approx_degree", "parse_formula",
        "parse_netlist", "plan", "razborov_gate_recipe", "resample_until_valid", "sample",
        "serialize_netlist", "synth", "tail_mass", "theoretical_degree"]
    assert not hasattr(apxmaj.CircuitDag, "from_gates")
    assert not any(hasattr(compiler, name) for name in ("LedgerEntry", "ledger_csv_rows"))
    assert compiler._Lanes._fields == ("columns", "words", "chunk")
    assert not any(hasattr(apxmaj.verify, name) for name in ("TriangleReport", "triangle_corollary_check"))
    assert not any(hasattr(apxmaj.TruthTable, name) for name in ("from_poly", "distance", "value"))
    assert not hasattr(apxmaj.circuits, "unfold_to_formula")
    deleted = {apxmaj.gf2poly: ["parse_poly", "zero", "one", "add", "eval_poly", "to_truth_table", "_set_bits",
                                "_LOW_VARS", "table_words", "valid_words", "variable_words"],
               apxmaj.circuits: ["serialize_formula", "var", "majority"], apxmaj.FormulaNode: ["gate_count"],
               S: ["eps0_inequalities_hold"], compiler: ["formula_size_lower_bound"],
               apxmaj.verify: ["monomial_table"]}
    assert not [name for owner, names in deleted.items() for name in names if hasattr(owner, name)]
    g = apxmaj.gf2poly
    params = {f.__name__: list(inspect.signature(f).parameters)
              for f in (compiler.theoretical_degree, compiler.razborov_gate_recipe, g.mobius_transform,
                        compiler.table_degrees, g.majority_words, apxmaj.circuits.formula_to_dag,
                        apxmaj.circuits.exhaustive_table, apxmaj.circuits.pack_lanes, g.int_bits, g.bits_int,
                        g.lane_words, g.lane_bits, g.assignment_bits)}
    assert params == {"theoretical_degree": ["s", "d"], "razborov_gate_recipe": ["kind", "eps"],
                      "mobius_transform": ["rows"], "table_degrees": ["tables"], "majority_words": ["rows"],
                      "formula_to_dag": ["f"], "exhaustive_table": ["c"], "pack_lanes": ["n", "masks"],
                      "int_bits": ["values", "width"], "bits_int": ["bits"], "lane_words": ["bits"],
                      "lane_bits": ["words", "lanes"], "assignment_bits": ["n", "start", "stop"]}
    assert [f.name for f in dataclasses.fields(compiler.GateApproximator)] == ["kind", "eps", "k"]
    assert [f.name for f in dataclasses.fields(compiler.CompiledRecipe)] == ["root", "n", "formula_depth"]
    assert [f.name for f in dataclasses.fields(S.LevelPrediction)] == [
        "index", "kind", "width", "fan_in", "ones_fraction", "sigma", "band_lo", "band_hi"]
    assert [f.name for f in dataclasses.fields(S.LevelObservation)] == [
        "index", "kind", "width", "ones", "ones_fraction", "predicted", "sigma", "within_3_sigma",
        "band_lo", "band_hi"]
    assert [f.name for f in dataclasses.fields(S.SynthPlan)] == [
        "n", "d", "eps", "mode", "a", "log_m", "log_m_top", "s_top", "gamma", "delta",
        "levels", "side_conditions", "side_values"]
    assert S._OVERRIDE_KEYS == ("A", "M", "M_top")


def _reads(tree: ast.AST) -> list[tuple[str, str, str | None, int]]:
    """(kind, name, module, line) of each name read: "name" (bare), "attr" (module
    set when read off an imported apxmaj module) or "import" (from a module)."""
    modules = {a.asname or a.name: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and (n.level and n.module is None or n.module == "apxmaj") for a in n.names}
    reads = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads.append(("name", n.id, None, n.lineno))
        elif isinstance(n, ast.Attribute):
            reads.append(("attr", n.attr, isinstance(n.value, ast.Name) and modules.get(n.value.id), n.lineno))
        elif isinstance(n, ast.ImportFrom) and n.module and (n.level or n.module.startswith("apxmaj.")):
            reads += [("import", a.name, n.module.removeprefix("apxmaj."), n.lineno) for a in n.names]
    return reads


def test_src_holds_only_code_that_the_package_or_its_users_call():
    # each function, class, method and property of src/apxmaj (dunders aside) is
    # read in the package outside its own body, or from outside it: imported from
    # apxmaj or read off an apxmaj module in scripts/ or perfbench/, wrapped by
    # perfbench's tracer, or used in README's Library code block (tests do not count)
    outside = {name for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
               for _, name, module, _ in _reads(ast.parse(path.read_text())) if module}
    tracing = ast.parse((ROOT / "perfbench/tracing.py").read_text())
    wrapped = next(n.value for n in tracing.body if isinstance(n, ast.Assign) and n.targets[0].id == "WRAPPED")
    outside |= {part for _, qualname, _ in ast.literal_eval(wrapped) for part in qualname.split(".")}
    library = (ROOT / "README.md").read_text().split("## Library\n")[1].split("```python\n")[1].split("```")[0]
    outside |= {name for _, name, _, _ in _reads(ast.parse(library))}
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src/apxmaj").glob("*.py") if p.stem != "__init__"}
    reads = [(where, *r) for where, tree in trees.items() for r in _reads(tree)]
    unused = []
    for module, tree in trees.items():
        methods = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for d in c.body}
        for d in ast.walk(tree):
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("__") and d.name not in outside:
                # a method is read as an attribute of its name; a function or class by
                # its name in its module, by an import from it, or off the module
                if not any(kind == "attr" if id(d) in methods else (where if kind == "name" else source) == module
                           for where, kind, name, source, line in reads
                           if name == d.name and not (where == module and d.lineno <= line <= d.end_lineno)):
                    unused.append(f"{module}.{d.name}")
    assert unused == []


def test_every_field_has_a_reader():
    # each field of a dataclass or NamedTuple in src/apxmaj is read as an
    # attribute in the package, scripts/ or perfbench/, written whole by a
    # report's vars(...), or named in README's Library section (tests do not count)
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src/apxmaj").glob("*.py")}
    users = [ast.parse(p.read_text()) for p in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]]
    read = {name for tree in [*trees.values(), *users] for kind, name, _, _ in _reads(tree) if kind == "attr"}
    library = (ROOT / "README.md").read_text().split("## Library\n")[1].split("\n## ")[0]
    code = library.split("```python\n")[1].split("```")[0]
    named = set(re.findall(r"`(\w+)`", library)) | {name for _, name, _, _ in _reads(ast.parse(code))}
    functions = [d for tree in trees.values() for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)]
    returns = {d.name: d.returns.id for d in functions if isinstance(d.returns, ast.Name)}
    written = set()  # vars(x) writes each field of the class that the call assigned to x returns
    for fn in functions:
        calls = {a.targets[0].id: a.value.func for a in ast.walk(fn) if isinstance(a, ast.Assign)
                 and isinstance(a.targets[0], ast.Name) and isinstance(a.value, ast.Call)}
        for c in ast.walk(fn):
            if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "vars":
                func = calls[c.args[0].id]
                written.add(returns[func.attr if isinstance(func, ast.Attribute) else func.id])
    unread = []
    for module, tree in trees.items():
        for c in ast.walk(tree):
            if isinstance(c, ast.ClassDef) and c.name not in written and (
                    any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in c.decorator_list)
                    or any(getattr(b, "id", None) == "NamedTuple" for b in c.bases)):
                unread += [f"{module}.{c.name}.{s.target.id}" for s in c.body if isinstance(s, ast.AnnAssign)
                           and s.target.id not in read | named]
    assert written == {"CertificationReport", "DegreeCertificate"}
    assert unread == []


def test_only_gf2poly_converts_bit_layouts():
    # ints, 0/1 arrays and lane words change layout in gf2poly's converters
    # alone; the exempt reads are the seed hashing and the lookup index of the
    # subset-parity tables, read off lane-constant columns
    converters = {"packbits", "unpackbits", "to_bytes", "from_bytes", "tobytes"}
    exempt = {("rng", "derive_seed"), ("compiler", "_eval_node")}
    readers = {(path.stem, getattr(node, "name", None))
               for path in (ROOT / "src/apxmaj").glob("*.py") if path.stem != "gf2poly"
               for node in ast.parse(path.read_text()).body
               for _, name, _, _ in _reads(node) if name in converters}
    assert readers - exempt == set()


def test_format_flag_removed(workdir, capsys):
    (workdir / "f.sexpr").write_text("(or x0 x1)\n")
    assert run(["compile", "f.sexpr", "--format", "csv", "--out", "o"]) == EXIT_USAGE
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("argv", [
    ["compile", "f.sexpr", "--trials", "0"],
    ["compile", "f.sexpr", "--trials", "-3"],
    ["compile", "f.sexpr", "--trials", "ten"],
    ["verify", "z.netlist", "--eps", "0.25", "--mode", "mc", "--trials", "0"],
    ["verify", "z.netlist", "--eps", "0.25", "--trials", "0"],
    ["check", "lemma", "--trials", "0"],
    ["compile", "f.sexpr", "--trials", "2.0"],
    ["compile", "f.sexpr", "--trials", "1e3"],
    ["compile", "f.sexpr", "--trials", "True"],
], ids=["compile-0", "compile-negative", "compile-text", "verify-mc-0", "verify-exact-0",
        "check-lemma-0", "compile-fraction", "compile-exponent", "compile-bool"])
def test_trials_must_be_positive_integer(workdir, capsys, argv):
    _write_inputs(workdir)
    assert run(argv + ["--out", "o"]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"apxmaj {argv[0]}: error: argument --trials: "
                      f"must be a positive integer, got '{argv[-1]}'"]
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("override, key", [
    ("M=0", "M"), ("M=-4", "M"), ("A=3,M=64,Mtop=-1", "M_top"), ("A=0", "A"),
    ("Mtop=0", "M_top"), ("A=3,M=nan", "M"),
    ("A=3.5", "A"), ("A=True", "A"), ("M=16384.7", "M"), ("A=3,Mtop=64.0", "M_top"),
    ("A=3,A=4", "A"), ("A=3,Mtop=64,M_top=64", "M_top"),
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
