"""Randomized low-degree GF(2) approximations of constant-depth formulas and
monotone approximate-majority circuit synthesis, with exact verification."""

from .circuits import (
    CircuitDag,
    FormulaNode,
    GateKind,
    eval_circuit,
    majority,
    parse_formula,
    parse_netlist,
    serialize_formula,
    serialize_netlist,
    unfold_to_formula,
)
from .compiler import (
    CompiledRecipe,
    check_key_inequality,
    compile_formula,
    error_reduce,
    eval_sample,
    formula_size_lower_bound,
    razborov_gate_recipe,
    sample,
    theoretical_degree,
)
from .gf2poly import SparsePolyF2, add, compose, eval_poly, exact_majority_poly, from_truth_table, mul
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
    smolensky_table,
    triangle_corollary_check,
)

__version__ = "0.1.0"
