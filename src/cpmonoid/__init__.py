"""Congruence preservation on free monoids.

Words over a finite alphabet, monoid congruences given by endomorphism or
finite-monoid kernels, template functions built from constants and argument
slots, black-box recovery of templates from oracles, witness hunting when
recovery fails, and an exhaustive two-letter candidate search.
"""

import types

from .words import (
    Alphabet,
    AlphabetError,
    FormatError,
    Morphism,
    Word,
    collapse_to,
    count_words,
    erase,
    format_morphism,
    identify,
    iter_word_tuples,
    iter_words,
    parse_morphism,
    project,
)
from .congruence import (
    CongruenceSpec,
    FiniteKernelCongruence,
    FiniteMonoid,
    MonoidMorphism,
    MonoidViolation,
    RestrictedCongruence,
    congruent_pairs,
    cyclic_additive,
    cyclic_multiplicative,
    format_finite_monoid,
    format_monoid_morphism,
    left_zero_with_identity,
    monoid_catalog,
    monoid_validate,
    parse_finite_monoid,
    parse_monoid_morphism,
    transformations_on_two_points,
)
from .templates import (
    LengthCoefficients,
    Template,
    enumerate_templates,
    extensional_equal,
    format_template,
    parse_template,
)
from .oracles import (
    BUILTIN_NAMES,
    BuiltinFunction,
    ExternalFunction,
    OracleError,
    OracleProtocolError,
    TableFunction,
    TableMissError,
    TemplateFunction,
    WordFunction,
    builtin,
    parse_table,
)
from .extraction import (
    ConstEmpty,
    ConstLetter,
    Extracted,
    NotRCP,
    PeelViolation,
    ProbeRecord,
    Variable,
    classify_head,
    extract,
    extract_fresh,
    length_profile,
    peel,
    render_head_case,
)
from .audit import (
    AuditResult,
    Budgets,
    CertifiedCP,
    Indeterminate,
    RefutedCP,
    Witness,
    audit,
    check_preservation,
    family_congruences,
    finite_monoid_congruences,
    random_congruences,
    standard_congruences,
    theorem_check,
    verify_witness,
)
from .explorer import (
    BudgetExhausted,
    CandidateTable,
    ExploreReport,
    SearchConfig,
    SearchStats,
    endomorphism_family,
    enumerate_consistent,
    explore,
    recheck_table,
    template_index,
    template_representable,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
