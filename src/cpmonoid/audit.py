"""Hunt for congruence-preservation violations, and deliver verdicts.

A function preserves a congruence when congruent inputs (componentwise, for
higher arities) always produce congruent outputs.  That holds exactly when it
preserves the congruence in each argument while the others stay fixed, so
:func:`check_preservation` varies one argument at a time, which tests one
congruence exhaustively up to a length bound; :func:`audit` sweeps a whole
family of congruences; :func:`theorem_check` combines extraction and
auditing into a three-way verdict:

* :class:`CertifiedCP` — a validated template was extracted.  Template
  functions preserve every congruence of the kinds handled here, so the
  template is a positive certificate.
* :class:`RefutedCP` — a concrete :class:`Witness`: congruent inputs whose
  outputs a particular congruence separates.  Witnesses are re-verified
  from scratch before being returned.
* :class:`Indeterminate` — extraction failed but no witness surfaced within
  budget.  The extraction diagnosis is attached for whoever digs further.

The families, in escalation order: kernels of the standard letter
endomorphisms (collapse, project, erase, identify), kernels of morphisms
into a catalog of small finite monoids, and random endomorphisms with
growing image lengths.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .congruence import (
    CongruenceSpec,
    FiniteKernelCongruence,
    MonoidMorphism,
    RestrictedCongruence,
    congruent_pairs,
    monoid_catalog,
)
from .extraction import NotRCP, extract, extract_fresh, Extracted
from .oracles import WordFunction
from .templates import Template
from .words import (
    Alphabet,
    Morphism,
    Word,
    collapse_to,
    erase,
    identify,
    project,
    strings_up_to,
)


@dataclass(frozen=True)
class Witness:
    """Congruent inputs whose outputs the congruence tells apart."""

    spec: CongruenceSpec
    left: tuple[Word, ...]
    right: tuple[Word, ...]
    out_left: Word
    out_right: Word

    def render(self) -> str:
        lines = ["WITNESS", self.spec.describe()]
        lines.append("x: " + " ".join(w.quoted() for w in self.left))
        lines.append("y: " + " ".join(w.quoted() for w in self.right))
        lines.append(f"f(x): {self.out_left.quoted()}")
        lines.append(f"f(y): {self.out_right.quoted()}")
        for tag, out in (("x", self.out_left), ("y", self.out_right)):
            image = self.spec.render_image(self.spec.word_image(out.letters))
            lines.append(f"image(f({tag})): {image}")
        return "\n".join(lines)


def verify_witness(fn: WordFunction, witness: Witness) -> bool:
    """Re-check a witness from first principles (fresh oracle calls aside,
    the memo cache makes this free)."""
    spec = witness.spec
    if len(witness.left) != fn.arity or len(witness.right) != fn.arity:
        return False
    for u, v in zip(witness.left, witness.right):
        if not spec.congruent(u.letters, v.letters):
            return False
    out_l = fn.evaluate(witness.left)
    out_r = fn.evaluate(witness.right)
    if out_l != witness.out_left or out_r != witness.out_right:
        return False
    return spec.word_image(out_l.letters) != spec.word_image(out_r.letters)


def _tuple_pair_stream(
    spec: CongruenceSpec, arity: int, length_bound: int
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Componentwise-congruent tuple pairs that differ in one position.

    Each position in turn takes every congruent pair while the other
    positions run over all short words.  Varying one argument at a time
    loses no witness: if ū and v̄ are componentwise congruent, change ū into
    v̄ one position at a time; when the two ends' outputs are not congruent,
    some step's outputs are not congruent either, and that step is a pair
    of this stream within the same length bound.
    """
    pairs = list(congruent_pairs(spec, length_bound))
    if arity == 1:
        for u, v in pairs:
            yield (u,), (v,)
        return
    words = list(strings_up_to(spec.alphabet, length_bound))
    for position in range(arity):
        for u, v in pairs:
            for rest in itertools.product(words, repeat=arity - 1):
                left = rest[:position] + (u,) + rest[position:]
                right = rest[:position] + (v,) + rest[position:]
                yield left, right


def _scan(
    fn: WordFunction,
    spec: CongruenceSpec,
    length_bound: int,
    max_checks: int | None,
) -> tuple[Witness | None, int]:
    evaluate, image = fn.evaluate_letters, spec.word_image
    checked = 0
    for left, right in _tuple_pair_stream(spec, fn.arity, length_bound):
        if max_checks is not None and checked >= max_checks:
            break
        checked += 1
        if image(evaluate(left)) != image(evaluate(right)):
            # Words are built once, for the witness; the memo supplies its outputs.
            x, y = (tuple(map(spec.alphabet.word, t)) for t in (left, right))
            return Witness(spec, x, y, fn.evaluate(x), fn.evaluate(y)), checked
    return None, checked


def check_preservation(
    fn: WordFunction,
    spec: CongruenceSpec,
    length_bound: int,
) -> Witness | None:
    """First witness against one congruence, or ``None`` if all checks pass.

    The scan order is deterministic, so "first" is well defined.
    """
    if spec.alphabet != fn.alphabet:
        raise ValueError("congruence and function alphabets differ")
    witness, _ = _scan(fn, spec, length_bound, None)
    return witness


# --------------------------------------------------------------------------
# Families of congruences


def standard_congruences(alphabet: Alphabet) -> Iterator[CongruenceSpec]:
    """Kernels of the standard letter endomorphisms, in a fixed order:
    collapse, project, erase, then pairwise identification."""
    for ch in alphabet.letters:
        yield RestrictedCongruence(collapse_to(alphabet, ch))
    for ch in alphabet.letters:
        yield RestrictedCongruence(project(alphabet, ch))
    for ch in alphabet.letters:
        yield RestrictedCongruence(erase(alphabet, ch))
    for old, new in itertools.permutations(alphabet.letters, 2):
        yield RestrictedCongruence(identify(alphabet, old, new))


def finite_monoid_congruences(alphabet: Alphabet) -> Iterator[CongruenceSpec]:
    """Kernels of every letter assignment into every catalog monoid."""
    for monoid in monoid_catalog():
        for images in itertools.product(monoid.elements, repeat=len(alphabet)):
            assignment = dict(zip(alphabet.letters, images))
            yield FiniteKernelCongruence(
                MonoidMorphism.make(alphabet, monoid, assignment)
            )


def random_endomorphism(
    alphabet: Alphabet, rng: random.Random, image_len: int
) -> Morphism:
    mapping = {}
    for ch in alphabet.letters:
        n = rng.randint(0, image_len)
        mapping[ch] = "".join(rng.choice(alphabet.letters) for _ in range(n))
    return Morphism.make(alphabet, mapping, label=f"random(image<={image_len})")


def random_congruences(
    alphabet: Alphabet, seed: int, count: int, image_len: int
) -> Iterator[CongruenceSpec]:
    """Kernels of seeded random endomorphisms; deterministic given the seed."""
    rng = random.Random(seed)
    for _ in range(count):
        yield RestrictedCongruence(random_endomorphism(alphabet, rng, image_len))


def family_congruences(
    family: str,
    alphabet: Alphabet,
    seed: int = 0,
    count: int = 40,
    image_len: int = 2,
) -> Iterator[CongruenceSpec]:
    if family == "standard":
        return standard_congruences(alphabet)
    if family == "finite_monoids":
        return finite_monoid_congruences(alphabet)
    if family == "random":
        return random_congruences(alphabet, seed, count, image_len)
    if family == "all":
        return itertools.chain(
            standard_congruences(alphabet),
            finite_monoid_congruences(alphabet),
            random_congruences(alphabet, seed, count, image_len),
        )
    raise ValueError(f"unknown family {family!r} (want standard, finite_monoids, random or all)")


@dataclass
class AuditResult:
    """Outcome of an audit sweep: a witness, or how much ground was covered."""

    witness: Witness | None
    specs_checked: int
    checks: int
    truncated: bool  # ran out of budget before finishing the family

    @property
    def ok(self) -> bool:
        return self.witness is None


def audit(
    fn: WordFunction,
    family: str = "standard",
    length_bound: int = 2,
    budget: int | None = 200_000,
    seed: int = 0,
    count: int = 40,
    image_len: int = 2,
) -> AuditResult:
    """Sweep one family of congruences; the first witness wins.

    ``budget`` caps the total number of input-pair checks across the whole
    sweep.  Results are deterministic for fixed arguments (the random family
    is seeded).
    """
    specs = family_congruences(family, fn.alphabet, seed, count, image_len)
    return _audit_specs(fn, specs, length_bound, budget)


def _audit_specs(
    fn: WordFunction,
    specs: Iterable[CongruenceSpec],
    length_bound: int,
    budget: int | None,
) -> AuditResult:
    total = 0
    seen = 0
    for spec in specs:
        seen += 1
        remaining = None if budget is None else budget - total
        if remaining is not None and remaining <= 0:
            return AuditResult(None, seen - 1, total, truncated=True)
        witness, used = _scan(fn, spec, length_bound, remaining)
        total += used
        if witness is not None:
            return AuditResult(witness, seen, total, truncated=False)
    return AuditResult(None, seen, total, truncated=False)


# --------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Budgets:
    """Knobs for :func:`theorem_check`; the defaults refute every stock
    non-preserving example within seconds."""

    validation_len: int | None = None
    length_bound: int = 2
    checks_per_family: int = 200_000
    random_seed: int = 0


# The random phases of theorem_check: the image length bound of each phase,
# and how many seeded random endomorphisms each phase sweeps.
RANDOM_IMAGE_LENS = (1, 2)
RANDOM_COUNT = 40


@dataclass(frozen=True)
class CertifiedCP:
    template: Template
    query_count: int

    def render(self) -> str:
        from .templates import format_template

        return (
            "verdict: certified-cp\n"
            f"queries: {self.query_count}\n" + format_template(self.template).rstrip("\n")
        )


@dataclass(frozen=True)
class RefutedCP:
    witness: Witness
    family: str
    checks: int

    def render(self) -> str:
        return (
            "verdict: refuted-cp\n"
            f"family: {self.family}\n"
            f"checks: {self.checks}\n" + self.witness.render()
        )


BUDGET_EXHAUSTED = "budget exhausted"


@dataclass(frozen=True)
class Indeterminate:
    diagnosis: NotRCP | None
    checks: int
    note: str = ""

    @property
    def truncated(self) -> bool:
        """Whether a family sweep ran out of checks before its last congruence."""
        return self.note == BUDGET_EXHAUSTED

    def render(self) -> str:
        lines = ["verdict: indeterminate", f"checks: {self.checks}"]
        if self.note:
            lines.append(f"note: {self.note}")
        if self.diagnosis is not None:
            lines.append(self.diagnosis.render())
        return "\n".join(lines)


Verdict = Union[CertifiedCP, RefutedCP, Indeterminate]


def theorem_check(fn: WordFunction, budgets: Budgets | None = None) -> Verdict:
    """Extraction first; on failure, escalate through audit families.

    Requires at least three letters — with fewer, extraction offers no
    certificate and a missing witness proves nothing.
    """
    if len(fn.alphabet) < 3:
        raise ValueError("theorem_check needs an alphabet of at least three letters")
    budgets = budgets or Budgets()

    outcome = extract(fn, validation_len=budgets.validation_len)
    if isinstance(outcome, NotRCP) and fn.supports_extension:
        retry = extract_fresh(fn, validation_len=budgets.validation_len)
        if isinstance(retry, Extracted):
            outcome = retry
    if isinstance(outcome, Extracted):
        return CertifiedCP(outcome.template, outcome.query_count)
    diagnosis = outcome

    phases: list[tuple[str, Iterable[CongruenceSpec]]] = [
        ("standard", standard_congruences(fn.alphabet)),
        ("finite_monoids", finite_monoid_congruences(fn.alphabet)),
    ]
    for n in RANDOM_IMAGE_LENS:
        specs = random_congruences(fn.alphabet, budgets.random_seed, RANDOM_COUNT, n)
        phases.append((f"random(image<={n})", specs))

    total_checks = 0
    truncated = False
    for name, specs in phases:
        result = _audit_specs(
            fn, specs, budgets.length_bound, budgets.checks_per_family
        )
        total_checks += result.checks
        truncated = truncated or result.truncated
        if result.witness is not None:
            if not verify_witness(fn, result.witness):
                raise RuntimeError(
                    "internal inconsistency: witness failed re-verification"
                )
            return RefutedCP(result.witness, name, total_checks)
    note = BUDGET_EXHAUSTED if truncated else "all families exhausted"
    return Indeterminate(diagnosis, total_checks, note)
