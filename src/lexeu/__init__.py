"""Lexicographic expected-utility models over finite state spaces.

A model carries a descending hierarchy of probability levels, each with its
own support, measure, and utility.  Acts are compared by the first level at
which their expected utilities differ; conditioning, induced lotteries,
axiom checking, and exact model synthesis from preference tables build on
that comparison.

Each public name is imported from its submodule on first access (PEP 562),
so ``import lexeu`` loads no submodule and a command loads only the layers
it runs.
"""
import importlib

# submodule -> the public names it provides
_EXPORTS = {
    "acts": ("Act", "OutcomeSpace"),
    "axioms": ("AxiomReport", "AxiomStatus", "SuiteReport", "Witness", "check_all", "check_axiom"),
    "conditioning": (
        "ConditioningVerdict", "ObsClass", "ObservabilityEntry", "ObservabilityReport",
        "fineness_holds", "observability_check", "savage_conditional", "strong_conditional_strict",
    ),
    "errors": (
        "AxiomPrecheckFailed", "CapExceeded", "IncompleteTable", "LexeuError", "NotNormalized",
        "ParseError", "Unrepresentable", "ValidationError", "VerificationFailed",
    ),
    "events": ("Event", "StateSpace"),
    "family": ("ModelBackedFamily", "TableBackedFamily", "derive_table"),
    "feasibility": ("ConstraintSystem", "FeasibilityResult", "Rel", "solve"),
    "lottery": (
        "Lottery", "act_from_lottery", "induced_lottery", "lottery_compare", "mix", "normalize_lottery",
    ),
    "model": ("GsleuModel", "Level", "validate_model"),
    "preference": (
        "DEGENERATE", "ClassPartition", "Dominance", "LexVerdict", "Ordering", "class_partition",
        "dominance", "indexed_prefer", "is_null_at", "level_values", "lex_prefer", "qual_prob_compare",
    ),
    "synthesis": ("SynthesisResult", "infer_hierarchy", "measure_from_order", "synthesize"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys())
