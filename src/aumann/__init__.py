"""Agreement theorems on finite knowledge models.

Three measure layers share one epistemic core: classical probability
measures, density-operator-valued measures (quantum), and state-valued
measures over convex cones (generalized probabilistic theories). Each layer
offers an agreement event builder and a verifier for the corresponding
no-agreeing-to-disagree theorem.

Public names are imported from their submodule on first access, so
``import aumann`` (and a CLI command) loads only the layers it uses.
"""

from importlib import import_module as _import_module

# submodule -> the public names it provides: that submodule's ``__all__`` is
# this tuple, and the package ``__all__`` lists them in this order
_EXPORTS = {
    "classical": (
        "ProbabilityMeasure",
        "agreement_event",
        "conditional",
        "posterior_function",
        "probability",
        "verify_aumann",
    ),
    "errors": (
        "ConditioningOnNull",
        "NotCellUnion",
        "NotHermitian",
        "NotPsd",
        "ScenarioError",
        "ScenarioSyntaxError",
        "ScenarioValidationError",
    ),
    "generators": (
        "ScenarioBundle",
        "gen_density",
        "gen_dovm",
        "gen_model",
        "gen_partition",
        "gen_planted_scenario",
        "gen_polyhedral_cone",
        "gen_povm",
        "gen_probability",
        "gen_svm",
        "gen_unconstrained_scenario",
    ),
    "gpt": (
        "ConeSpace",
        "Effect",
        "GptState",
        "PolyhedralCone",
        "PsdCone",
        "SimplexCone",
        "Svm",
        "cone_membership",
        "devectorize",
        "effect_valid",
        "embed_classical",
        "embed_quantum",
        "gpt_agreement_event",
        "gpt_conditional_state",
        "hermitian_basis",
        "svm_value",
        "vectorize",
        "verify_gpt_aumann",
    ),
    "knowledge": (
        "Event",
        "KnowledgeModel",
        "Partition",
        "cell_decomposition",
        "cell_of",
        "common_knowledge",
        "common_knowledge_via_meet",
        "know",
        "meet_partition",
        "mutual_knowledge",
        "mutual_knowledge_chain",
    ),
    "quantum": (
        "DensityOperator",
        "Dovm",
        "Povm",
        "conditional_state",
        "dovm_to_povm",
        "dovm_value",
        "povm_to_dovm",
        "psd_sqrt",
        "psd_sqrt_pinv",
        "quantum_agreement_event",
        "require_hermitian",
        "trace_norm",
        "verify_quantum_aumann",
    ),
    "scenario": (
        "Report",
        "ScenarioFile",
        "SearchStats",
        "parse_scenario",
        "run_agree",
        "run_analyze",
        "run_convert",
        "run_gen",
        "run_search",
        "scenario_from_bundle",
        "serialize_scenario",
        "verify_bundle",
    ),
    "verdicts": ("AgreementVerdict", "VerdictStatus"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules reachable as attributes of the package, as when it imported them all
_SUBMODULES = frozenset(_EXPORTS) | {"tolerances"}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
