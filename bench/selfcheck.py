"""Exact counts the program must reproduce before anything is timed.

The figures are the ones ROADMAP.md quotes: the extraction query table, the
check count of the reverse refutation, and the explorer's node and table
counts on ``ab`` at maxlen 3 with (p, e) = (1, 0).  A mismatch means the
program no longer does the work the benchmark was calibrated on, so the run
fails instead of timing something else.
"""

from __future__ import annotations

from cpmonoid import (
    Alphabet,
    RefutedCP,
    SearchConfig,
    Template,
    TemplateFunction,
    builtin,
    explore,
    extract,
    extract_fresh,
    theorem_check,
)

ABC = Alphabet.of("abc")

# template -> queries for (peel without validation, peel, fresh without
# validation, fresh), each on a fresh cache-cold oracle.
QUERY_TABLE = (
    (Template.of(ABC, "ab", 1, "c", 1, ""), (8, 40, 2, 41)),
    (Template.of(ABC, "", 1, "", 2, "", 3, "ab"), (22, 2197, 22, 2208)),
)
REVERSE_CHECKS = 1280
EXPLORER_COUNTS = {"nodes": 7302, "consistent": 2916}


def mismatches() -> list[str]:
    """Every count that differs from its expected value, as readable lines."""
    bad = []
    for template, want in QUERY_TABLE:
        got = []
        for method, validation_len in ((extract, 0), (extract, None), (extract_fresh, 0), (extract_fresh, None)):
            outcome = method(TemplateFunction(template), validation_len=validation_len)
            if getattr(outcome, "template", None) != template:
                bad.append(f"{method.__name__} did not recover {template}")
            got.append(getattr(outcome, "query_count", -1))
        if tuple(got) != want:
            bad.append(f"queries for {template}: got {tuple(got)}, want {want}")
    verdict = theorem_check(builtin("reverse", ABC))
    if not isinstance(verdict, RefutedCP) or verdict.checks != REVERSE_CHECKS:
        bad.append(f"theorem_check(reverse): got {verdict.render().splitlines()[:3]}, want {REVERSE_CHECKS} checks")
    report = explore(SearchConfig(Alphabet.of("ab"), domain_len=3, p=1, e=0))
    got = {"nodes": report.nodes, "consistent": report.consistent}
    if got != EXPLORER_COUNTS:
        bad.append(f"explore ab maxlen 3 (1,0): got {got}, want {EXPLORER_COUNTS}")
    return bad
