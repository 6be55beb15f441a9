"""Every public name must be used by the system, not only by the unit tests.

A name in ``cpmonoid.__all__`` counts as used when something other than its
own definition and the package's re-export refers to it: code in
``src/cpmonoid/``, the demos, the benchmark scripts (``bench/*.py``; the
frozen ``bench/baseline/`` copy does not count), the README, or the
acceptance gate.  In Python files a reference is a load of the name, an
attribute of that name, or a string constant spelling it (the benchmark
patches functions by name); a name's uses inside its own definition do not
count.  In the README it is the name as a whole word.

The package namespace is pinned too: the exported names, and ``audit``
naming the function whichever route loaded the module of the same name.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cpmonoid

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpmonoid"

# Public names that nothing uses yet, each kept for a stated reason.
KEEP = {
    "check_preservation": "audits one congruence; the audit's completeness tests run it",
    "recheck_table": "independent reference the explorer tests check the backtracker against",
    "parse_finite_monoid": "replays finite-monoid witnesses (ROADMAP item 10)",
    "parse_monoid_morphism": "replays finite-monoid witnesses (ROADMAP item 10)",
    "format_monoid_morphism": "replays finite-monoid witnesses (ROADMAP item 10)",
}


def python_sources() -> list[Path]:
    return (
        [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
        + sorted((ROOT / "demos").glob("*.py"))
        + sorted((ROOT / "bench").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )


class _References(ast.NodeVisitor):
    """Identifiers a module uses, minus each top-level definition's uses of
    its own name."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._inside = ""

    def _definition(self, node) -> None:
        outer, self._inside = self._inside, self._inside or node.name
        self.generic_visit(node)
        self._inside = outer

    visit_FunctionDef = visit_ClassDef = _definition

    def _use(self, name: str) -> None:
        if name != self._inside:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._use(node.value)


def used_names() -> set[str]:
    names: set[str] = set()
    for path in python_sources():
        refs = _References()
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
        names |= refs.names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names |= set(re.findall(r"\w+", readme))
    return names


def test_every_public_name_is_used():
    unused = sorted(set(cpmonoid.__all__) - used_names() - set(KEEP))
    assert unused == [], f"public names nothing uses: {unused}"


def test_keep_list_is_current():
    used = used_names()
    stale = sorted(name for name in KEEP if name not in cpmonoid.__all__ or name in used)
    assert stale == [], f"keep-list entries that are used or gone: {stale}"


# cpmonoid.__all__, pinned: adding or dropping an export edits this list
EXPORTS = [
    "Alphabet", "AlphabetError", "AuditResult", "BUILTIN_NAMES", "BudgetExhausted",
    "BuiltinFunction", "CandidateTable", "CertifiedCP", "CongruenceSpec",
    "ConstEmpty", "ConstLetter", "ExploreReport", "ExternalFunction", "Extracted",
    "FiniteKernelCongruence", "FiniteMonoid", "FormatError", "Indeterminate",
    "LengthCoefficients", "MonoidMorphism", "MonoidViolation", "Morphism", "NotRCP",
    "OracleError", "OracleProtocolError", "PeelViolation", "ProbeRecord", "RefutedCP",
    "RestrictedCongruence", "SearchConfig", "SearchStats", "TableFunction",
    "TableMissError", "Template", "TemplateFunction", "Variable", "Witness", "Word",
    "WordFunction", "audit", "builtin", "check_preservation", "classify_head",
    "collapse_to", "congruent_pairs", "count_words", "cyclic_additive",
    "cyclic_multiplicative", "endomorphism_family", "enumerate_consistent",
    "enumerate_templates", "erase", "explore", "extensional_equal", "extract",
    "extract_fresh", "finite_monoid_congruences",
    "format_finite_monoid", "format_monoid_morphism", "format_morphism",
    "format_template", "identify", "iter_word_tuples", "iter_words",
    "left_zero_with_identity", "length_profile", "monoid_catalog", "monoid_validate",
    "parse_finite_monoid", "parse_monoid_morphism", "parse_morphism", "parse_table",
    "parse_template", "peel", "project", "recheck_table",
    "render_head_case", "standard_congruences", "template_index",
    "template_representable", "theorem_check", "transformations_on_two_points",
    "verify_witness",
]


def test_all_is_pinned():
    assert cpmonoid.__all__ == EXPORTS


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cpmonoid import *", namespace)
    assert set(EXPORTS) <= set(namespace)


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(cpmonoid))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cpmonoid.no_such_name


@pytest.mark.parametrize(
    "prelude",
    [
        "import cpmonoid.audit",
        "from cpmonoid.audit import random_endomorphism",
        "import contextlib, io, cpmonoid.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cpmonoid.cli.run(['check', '--oracle', 'builtin:reverse'])",
    ],
    ids=("import-module", "from-module-import", "cli-check"),
)
def test_audit_names_the_function_after_its_module_loads(prelude):
    code = prelude + "\nimport sys, cpmonoid\nprint(cpmonoid.audit is sys.modules['cpmonoid.audit'].audit)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
