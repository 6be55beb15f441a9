"""Hunt for congruence-preservation violations, and deliver verdicts.

A function preserves a congruence when congruent inputs (componentwise, for
higher arities) always produce congruent outputs.  That holds exactly when it
preserves the congruence in each argument while the others stay fixed, so
:func:`check_preservation` varies one argument at a time, which tests one
congruence exhaustively up to a length bound (a word is evaluated against
the first word of its congruence class only; its other pairs follow by
transitivity); :func:`audit` sweeps a whole family of congruences;
:func:`theorem_check` combines extraction and auditing into a three-way
verdict:

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
from typing import Iterable, Iterator, Sequence, Union

from .congruence import (
    CongruenceSpec,
    FiniteKernelCongruence,
    MonoidMorphism,
    RestrictedCongruence,
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


def _scan(
    fn: WordFunction,
    spec: CongruenceSpec,
    words: Sequence[str],
    max_checks: int | None,
) -> tuple[Witness | None, int]:
    """First witness in the one-position stream of congruent tuple pairs,
    and the number of pairs of that stream checked.

    The stream takes each position in turn; there every pair ``(u, w)`` of
    distinct congruent words among ``words``, ``u`` the earlier, meets every
    context of the other arguments (all tuples of ``words``).  Varying one
    argument at a time loses no witness: if ū and v̄ are componentwise
    congruent, change ū into v̄ one position at a time; when the two ends'
    outputs are not congruent, some step's outputs are not congruent either,
    and that step is a pair of this stream within the same length bound.

    Only pairs against the first word of a class are evaluated.  A word that
    joins a class of k earlier words is compared with the first of them in
    every context; its other k - 1 pairs are counted as checked without
    evaluation, since each earlier member already matched the first word in
    every context, so they hold by transitivity.  The witness, the count,
    the point where ``max_checks`` cuts the stream and the oracle queries
    are those of evaluating every pair in stream order.
    """
    evaluate, word_image = fn.evaluate_letters, spec.word_image
    first: dict[str, tuple[str, int]] = {}  # input image -> (first word, size)
    joins: list[tuple[str, str, int]] = []  # (word, its class's first word, k)
    for w in words:
        key = word_image(w)
        head, size = first.get(key, (w, 0))
        if size:
            joins.append((w, head, size))
        first[key] = head, size + 1
    contexts = len(words) ** (fn.arity - 1) if fn.arity else 0
    images: dict[str, str] = {}  # output letters -> image, for this scan
    checked = 0
    for position in range(fn.arity):
        slots: list[Sequence[str]] = [words] * fn.arity
        for w, head, earlier in joins:
            slots[position] = (head,)
            lefts = itertools.product(*slots)
            slots[position] = (w,)
            pairs = zip(lefts, itertools.product(*slots))
            take = contexts if max_checks is None else min(contexts, max_checks - checked)
            for left, right in itertools.islice(pairs, take):
                checked += 1
                out_l, out_r = evaluate(left), evaluate(right)
                image_l = images.get(out_l)
                if image_l is None:
                    image_l = images[out_l] = word_image(out_l)
                image_r = images.get(out_r)
                if image_r is None:
                    image_r = images[out_r] = word_image(out_r)
                if image_l != image_r:
                    # Words are built once, for the witness; the memo supplies its outputs.
                    x, y = (tuple(map(spec.alphabet.word, t)) for t in (left, right))
                    return Witness(spec, x, y, fn.evaluate(x), fn.evaluate(y)), checked
            checked += (earlier - 1) * contexts
            if max_checks is not None and checked >= max_checks:
                return None, max_checks
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
    words = list(strings_up_to(fn.alphabet, length_bound))
    witness, _ = _scan(fn, spec, words, None)
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
    checks: int  # congruent pairs of the stream, evaluated or settled
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

    ``checks`` counts every congruent pair of the one-position stream (see
    :func:`_scan`), and ``budget`` caps that count across the whole sweep.
    Only a word's pairs with the first word of its class are evaluated; its
    pairs with later members are settled by transitivity and counted all the
    same.  Results are deterministic for fixed arguments (the random family
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
    words = list(strings_up_to(fn.alphabet, length_bound))
    total = 0
    seen = 0
    for spec in specs:
        seen += 1
        remaining = None if budget is None else budget - total
        if remaining is not None and remaining <= 0:
            return AuditResult(None, seen - 1, total, truncated=True)
        witness, used = _scan(fn, spec, words, remaining)
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


@dataclass(frozen=True)
class Indeterminate:
    diagnosis: NotRCP | None
    checks: int
    truncated: bool  # a family sweep ran out of checks before its last congruence

    def render(self) -> str:
        note = "budget exhausted" if self.truncated else "all families exhausted"
        lines = ["verdict: indeterminate", f"checks: {self.checks}", f"note: {note}"]
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
    return Indeterminate(diagnosis, total_checks, truncated)
