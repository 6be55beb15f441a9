"""Congruence preservation on free monoids.

Words over a finite alphabet, monoid congruences given by endomorphism or
finite-monoid kernels, template functions built from constants and argument
slots, black-box recovery of templates from oracles, witness hunting when
recovery fails, and an exhaustive two-letter candidate search.

Importing the package loads none of its modules: the first use of an
exported name imports the module that defines it and binds that module's
exports on the package.  ``cpmonoid.audit`` is always the
:func:`~cpmonoid.audit.audit` function, whichever route loaded the module
of the same name; reach the module through ``sys.modules`` or
``importlib.import_module("cpmonoid.audit")``.
"""

import importlib
import sys
import types

_EXPORTS = {
    "words": (
        "Alphabet", "AlphabetError", "FormatError", "Morphism", "Word", "collapse_to",
        "count_words", "erase", "format_morphism", "identify", "iter_word_tuples",
        "iter_words", "parse_morphism", "project",
    ),
    "congruence": (
        "CongruenceSpec", "FiniteKernelCongruence", "FiniteMonoid", "MonoidMorphism",
        "MonoidViolation", "RestrictedCongruence", "congruent_pairs", "cyclic_additive",
        "cyclic_multiplicative", "format_finite_monoid", "format_monoid_morphism",
        "left_zero_with_identity", "monoid_catalog", "monoid_validate",
        "parse_finite_monoid", "parse_monoid_morphism", "transformations_on_two_points",
    ),
    "templates": (
        "LengthCoefficients", "Template", "enumerate_templates", "extensional_equal",
        "format_template", "parse_template",
    ),
    "oracles": (
        "BUILTIN_NAMES", "BuiltinFunction", "ExternalFunction", "OracleError",
        "OracleProtocolError", "TableFunction", "TableMissError", "TemplateFunction",
        "WordFunction", "builtin", "parse_table",
    ),
    "extraction": (
        "ConstEmpty", "ConstLetter", "Extracted", "NotRCP", "PeelViolation", "ProbeRecord",
        "Variable", "classify_head", "extract", "extract_fresh", "length_profile", "peel",
        "render_head_case",
    ),
    "audit": (
        "AuditResult", "CertifiedCP", "Indeterminate", "RefutedCP", "Witness", "audit",
        "check_preservation", "finite_monoid_congruences", "standard_congruences",
        "theorem_check", "verify_witness",
    ),
    "explorer": (
        "BudgetExhausted", "CandidateTable", "ExploreReport", "SearchConfig", "SearchStats",
        "endomorphism_family", "enumerate_consistent", "explore", "recheck_table",
        "template_index", "template_representable",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


class _Package(types.ModuleType):
    def __getattr__(self, name: str):
        source = _MODULE_OF.get(name)
        if source is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{source}")
        bound = vars(self)
        for export in _EXPORTS[source]:
            bound[export] = getattr(module, export)
        return bound[name]

    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package; where it shares its
        # name with an export (``audit``), the export keeps the name.
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted({*vars(self), *__all__})


sys.modules[__name__].__class__ = _Package
