"""Randomized low-degree GF(2) approximations of constant-depth formulas and
monotone approximate-majority circuit synthesis, with exact verification."""

from .circuits import (
    CircuitDag,
    FormulaNode,
    GateKind,
    parse_formula,
    parse_netlist,
    serialize_netlist,
)
from .compiler import (
    CompiledRecipe,
    check_key_inequality,
    compile_formula,
    error_reduce,
    eval_sample,
    razborov_gate_recipe,
    sample,
    theoretical_degree,
)
from .gf2poly import SparsePolyF2, from_truth_table
from .synthesis import (
    SynthPlan,
    SynthResult,
    bias_recurrence,
    check_technical_lemma,
    empirical_level_check,
    level_checks,
    plan,
    resample_until_valid,
    synth,
    tail_mass,
)
from .verify import (
    DegreeCertificate,
    TruthTable,
    certify_approx_majority,
    emit_report,
    min_approx_degree,
)

__version__ = "0.1.0"
