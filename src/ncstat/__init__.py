"""Finite-dimensional non-commutative probability.

States on direct sums of matrix algebras, unital *-homomorphisms in
multiplicity form, completely positive unital maps through block Choi
matrices, disintegration of states along homomorphisms, and the relative
entropy as an additive invariant of hypotheses.
"""

import importlib
import types
import typing

from .algebra import (
    DEFAULT_ATOL,
    DEFAULT_CUTOFF,
    AlgebraElement,
    AlgebraSpec,
    State,
    ValidationReport,
    Violation,
    absolutely_continuous,
    direct_sum_algebras,
    hermitian_exp,
    hermitian_log,
    hermitian_pinv,
    partial_trace_left,
    state_distance,
    support_projection,
    validate_state,
)
from .errors import (
    AlgebraMismatchError,
    FactorizationError,
    NotAHomomorphismError,
    ObjectMismatchError,
    ShapeError,
)
from .hypotheses import (
    AlphaFamily,
    NCMorphism,
    NCObject,
    NoDisintegration,
    RectificationResult,
    build_hypothesis_from_alphas,
    compose_morphisms,
    construct_optimal_hypothesis,
    extract_alphas,
    is_optimal,
    rectify_morphism,
    rectify_pair,
    validate_morphism,
)
from .maps import (
    CPUMap,
    RawLinearMap,
    StarHom,
    ad_cpu,
    ad_hom,
    apply_cpu,
    apply_hom,
    compose_cpu,
    compose_homs,
    conjugate_state,
    cpu_pushforward_state,
    hom_from_raw,
    hom_to_raw,
    identity_cpu,
    identity_hom,
    pushforward_state,
    strip_conjugators,
    validate_cpu,
)

if typing.TYPE_CHECKING:
    from .entropy import (
        ChainRuleReport,
        ExpansionCheck,
        InfiniteRegimeReport,
        chain_rule_report,
        conditional_entropy,
        convex_sum_morphisms,
        convex_sum_objects,
        functoriality_defect,
        re_expansions,
        re_functor,
        relative_entropy,
        tensor_inclusion_morphism,
        von_neumann_entropy,
    )
    from .generators import (
        GeneratorConfig,
        gen_algebra,
        gen_alpha_family,
        gen_composable_pair,
        gen_element,
        gen_morphism,
        gen_optimal_morphism,
        gen_star_hom,
        gen_state,
        haar_unitary,
        rng_for,
    )
    from .laws import LawReport, LawResult, run_laws

__version__ = "0.1.0"

# The module behind each name imported under TYPE_CHECKING above.  It is
# imported on the first access of one of its names, so commands that never
# touch the law suite, the generators or the entropies do not load them.
_LAZY = {
    name: module
    for module, names in {
        "entropy": (
            "ChainRuleReport",
            "ExpansionCheck",
            "InfiniteRegimeReport",
            "chain_rule_report",
            "conditional_entropy",
            "convex_sum_morphisms",
            "convex_sum_objects",
            "functoriality_defect",
            "re_expansions",
            "re_functor",
            "relative_entropy",
            "tensor_inclusion_morphism",
            "von_neumann_entropy",
        ),
        "generators": (
            "GeneratorConfig",
            "gen_algebra",
            "gen_alpha_family",
            "gen_composable_pair",
            "gen_element",
            "gen_morphism",
            "gen_optimal_morphism",
            "gen_star_hom",
            "gen_state",
            "haar_unitary",
            "rng_for",
        ),
        "laws": ("LawReport", "LawResult", "run_laws"),
    }.items()
    for name in names
}

# The eager imports above bound every other public name this module has;
# submodules and the stdlib modules imported here are not exports.
__all__ = sorted(
    {
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    | _LAZY.keys()
)


def __getattr__(name: str):
    """Load a lazily exported name on first use and cache it (PEP 562).

    Any other name raises AttributeError, which also lets ``from ncstat
    import laws`` fall back to importing the submodule.
    """
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
