"""Hunt for congruence-preservation violations, and deliver verdicts.

A function preserves a congruence when congruent inputs (componentwise, for
higher arities) always produce congruent outputs.  That holds exactly when it
preserves the congruence in each argument while the others stay fixed, so
:func:`check_preservation` varies one argument at a time, which tests one
congruence exhaustively up to a length bound (a word is evaluated against
the first word of its congruence class only; its other pairs follow by
transitivity); :func:`audit` sweeps the phases of the audit schedule that
a family selects; :func:`theorem_check` combines one extraction (by
peeling, with no letter outside the alphabet) and the whole schedule into
a three-way verdict:

* :class:`CertifiedCP` — a validated template was extracted.  Template
  functions preserve every congruence of the kinds handled here, so the
  template is a positive certificate.  A NOT-RCP from extraction shows the
  function is not a template, so it is never certified.
* :class:`RefutedCP` — a concrete :class:`Witness`: congruent inputs whose
  outputs a particular congruence separates.  Witnesses are re-verified
  from scratch before being returned.
* :class:`Indeterminate` — extraction failed but no witness surfaced within
  budget.  The extraction diagnosis is attached for whoever digs further.

The schedule's two phases, in escalation order: kernels of the standard
letter endomorphisms (collapse, project, erase, identify), then kernels of
morphisms into a catalog of small finite monoids.  Both are fixed families,
so every audit is deterministic.

An audit runs one sweep through all its phases, with one rule for every
spec: a spec known to pass without a scan is charged its full count, any
other is scanned, and either is cut only when its own count does not fit
what is left of the phase's budget.  A spec is known to pass when its
kernel (:attr:`CongruenceSpec.kernel_id`) passed before, or, once every
tuple's output is memoised in one table, when it is commutative and the
outputs obey the letter-count law counts(f(x̄)) = c + Σ kᵢ·counts(xᵢ),
kᵢ ≥ 0, or when a check against the table passes it (see :class:`_Sweep`).
A scan evaluates only a word's pairs with the first word of its class;
its pairs with later members are settled by transitivity (see
:func:`_scan`).  Witnesses, counts and oracle queries are those of
evaluating every pair of every spec.  Both families are built once per
alphabet (the finite one up to its first 5,000 specs), and each spec
keeps its own key, id and classes (:meth:`CongruenceSpec.classes`), so
later audits reuse them.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Sequence, Union

from .congruence import (
    CongruenceSpec,
    FiniteKernelCongruence,
    MonoidMorphism,
    RestrictedCongruence,
    monoid_catalog,
)
from .extraction import NotRCP, extract, Extracted
from .oracles import WordFunction
from .templates import Template
from .words import (
    Alphabet,
    Morphism,
    Word,
    _Value,
    collapse_to,
    erase,
    identify,
    project,
    strings_up_to,
)


class Witness(_Value):
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
    bound: int,
    max_checks: int | None,
) -> tuple[Witness | None, int]:
    """First witness in the one-position stream of congruent tuple pairs,
    and the number of pairs of that stream checked.

    The stream takes each position in turn; there every pair ``(u, w)`` of
    distinct congruent words up to ``bound``, ``u`` the earlier, meets every
    context of the other arguments (all tuples of those words).  Varying one
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
    words = list(strings_up_to(fn.alphabet, bound))
    classes = spec.classes(bound)
    contexts = len(words) ** (fn.arity - 1) if fn.arity else 0
    images: dict[str, str] = {}  # output letters -> image, for this scan
    checked = 0
    for position in range(fn.arity):
        slots: list[Sequence[str]] = [words] * fn.arity
        for join, earlier in zip(classes.joins, classes.earlier):
            slots[position] = (words[classes.heads[join]],)
            lefts = itertools.product(*slots)
            slots[position] = (words[join],)
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


class _Sweep:
    """One audit's sweep at one length bound, each kernel scanned at most
    once across all its phases (kernels are told apart by
    :attr:`CongruenceSpec.kernel_id`).

    :meth:`known_count` alone decides whether a spec is known to pass
    without a scan, and :meth:`record` notes a scan that ran to its end
    with no witness.  A completed scan evaluates every tuple that holds a
    word of a class of two or more words, so once every word has been in
    such a class, every tuple is memoised and the outputs are read into one
    table.  A new kernel then passes when each tuple with a word of such a
    class has the image of the tuple of its words' class heads; when the
    table obeys the letter-count law (:func:`_obeys_letter_count_law`), a
    commutative kernel passes without imaging anything, since its images
    see only letter counts and the law fixes an output's counts from its
    arguments'.  Neither check queries the oracle, and a kernel that fails
    them is scanned, so witnesses, counts, the order of oracle misses and
    any :class:`AlphabetError` are those of scanning every spec alone.
    """

    def __init__(self, fn: WordFunction, bound: int) -> None:
        self.fn = fn
        self.bound = bound
        self.words = words = list(strings_up_to(fn.alphabet, bound))
        contexts = len(words) ** (fn.arity - 1) if fn.arity else 0
        self.checks_per_pair = fn.arity * contexts
        self.passed: dict[int, int] = {}  # kernel id -> checks
        # Words not yet in a class of two or more of a completed scan; with
        # arity 0 nothing is evaluated, so no table is ever read.
        self.unseen = set(range(len(words))) if fn.arity else None
        self.table: list[str] | None = None  # outputs of all tuples, in product order
        self.counts_law = False  # whether the table obeys the letter-count law

    def full_count(self, spec: CongruenceSpec) -> int:
        """The checks of ``spec``'s whole stream (see :func:`_scan`)."""
        return self.checks_per_pair * spec.classes(self.bound).pairs

    def known_count(self, spec: CongruenceSpec) -> int | None:
        """The full count of ``spec`` if it is known to pass without a scan,
        else ``None``."""
        kernel = spec.kernel_id
        known = self.passed.get(kernel)
        if known is None and self.table is not None:
            if (self.counts_law and spec.commutative) or self._table_passes(spec):
                known = self.passed[kernel] = self.full_count(spec)
        return known

    def record(self, spec: CongruenceSpec) -> None:
        """Note that a scan of ``spec`` ran to its end with no witness."""
        self.passed[spec.kernel_id] = self.full_count(spec)
        if self.unseen:
            self.unseen.difference_update(spec.classes(self.bound).live)
            if not self.unseen:
                tuples = itertools.product(self.words, repeat=self.fn.arity)
                self.table = list(map(self.fn.evaluate_letters, tuples))
                self.counts_law = _obeys_letter_count_law(
                    self.table, self.words, self.fn.alphabet.letters, self.fn.arity
                )

    def _table_passes(self, spec: CongruenceSpec) -> bool:
        # Each output in the table was imaged by a completed scan, so its
        # letters are in the alphabet and imaging it cannot raise.
        imaged, moved, heads = _class_tuples(spec.classes(self.bound).heads, self.fn.arity)
        images = dict(zip(imaged, map(spec.word_image, map(self.table.__getitem__, imaged))))
        image = images.__getitem__
        return list(map(image, moved)) == list(map(image, heads))


@functools.cache
def _class_tuples(heads: tuple[int, ...], arity: int) -> tuple[list[int], list[int], list[int]]:
    """For the ``arity``-tuples of words with class heads ``heads``, by index
    in :attr:`_Sweep.table`'s product order: those that hold a live word,
    those that hold a word not heading its class, and the tuple of class
    heads of each of the latter.  Cached, so specs with equal classes share
    one layout."""
    canon = list(heads)
    for _ in range(arity - 1):
        canon = [c * len(heads) + h for c in canon for h in heads]
    moved = [i for i, c in enumerate(canon) if i != c]
    moved_heads = [canon[i] for i in moved]
    # a tuple whose live words all head their classes is one of the heads
    return sorted({*moved, *moved_heads}), moved, moved_heads


def _obeys_letter_count_law(
    table: Sequence[str], words: Sequence[str], letters: Sequence[str], arity: int
) -> bool:
    """Whether the outputs of the ``arity``-tuples of ``words``, ``table`` in
    product order, have letter counts c + Σ kᵢ·counts(xᵢ) with every kᵢ ≥ 0.

    ``words`` starts ``""``, then the first letter, so c is read off the
    all-ε tuple and kᵢ off the tuple with the first letter at slot i.  Then
    φ(f(x̄)) = φ(c)·Π φ(xᵢ)^kᵢ under any morphism φ into a commutative
    monoid, so congruent arguments give congruent outputs; kᵢ ≥ 0 is needed
    because a monoid has no inverses.  Every output is in the alphabet (see
    :meth:`_Sweep._table_passes`), so its letter counts add up to its length.
    """

    def counts(word: str) -> tuple[int, ...]:
        return tuple(map(word.count, letters))

    c = counts(table[0])
    ks = [counts(table[len(words) ** (arity - 1 - i)])[0] - c[0] for i in range(arity)]
    if min(ks) < 0:
        return False
    expected = [c]
    word_counts = list(map(counts, words))
    for k in ks:
        expected = [
            tuple(e + k * x for e, x in zip(prefix, word))
            for prefix in expected
            for word in word_counts
        ]
    return list(map(counts, table)) == expected


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


@functools.cache
def standard_congruences(alphabet: Alphabet) -> tuple[CongruenceSpec, ...]:
    """Kernels of the standard letter endomorphisms, in a fixed order:
    collapse, project, erase, then pairwise identification.  Built once per
    alphabet, so every sweep shares the specs with their keys and classes."""
    letters = alphabet.letters
    morphisms = [make(alphabet, ch) for make in (collapse_to, project, erase) for ch in letters]
    morphisms += (identify(alphabet, old, new) for old, new in itertools.permutations(letters, 2))
    return tuple(map(RestrictedCongruence, morphisms))


# Per alphabet, the finite-monoid specs built so far, shared by every sweep
# with their cached kernel keys.  A spec holds about 1 kB once scanned, so
# the memo stops at abcd's 4,885 specs; later specs of longer families are
# built afresh on each sweep, as they all were before the memo.
_FINITE_FAMILIES: dict[Alphabet, list[CongruenceSpec]] = {}
_FINITE_MEMO_LIMIT = 5_000


def finite_monoid_congruences(alphabet: Alphabet) -> Iterator[CongruenceSpec]:
    """Kernels of every letter assignment into every catalog monoid.

    The specs come from a per-process memo that grows as iterations advance,
    so a sweep refuted early builds only the specs it reached; once the memo
    holds the whole family, it is replayed as it stands.  Many assignments
    share a kernel (on ``abc``, 971 assignments have 417 kernels), and a
    sweep visits each distinct kernel at most once (see :class:`_Sweep`).
    """
    built = _FINITE_FAMILIES.setdefault(alphabet, [])
    if len(built) == sum(len(monoid) ** len(alphabet) for monoid in monoid_catalog()):
        yield from built  # the memo holds the whole family
        return
    assignments = (
        (monoid, images)
        for monoid in monoid_catalog()
        for images in itertools.product(monoid.elements, repeat=len(alphabet))
    )
    for i, (monoid, images) in enumerate(assignments):
        if i < len(built):
            yield built[i]
            continue
        spec = FiniteKernelCongruence(
            MonoidMorphism.make(alphabet, monoid, dict(zip(alphabet.letters, images)))
        )
        if i == len(built) < _FINITE_MEMO_LIMIT:
            built.append(spec)
        yield spec


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


# The audit schedule: each phase's name and congruences, in escalation order.
# A phase looks its generator up when it runs, so rebinding one in this module
# (as bench/layers.py does, to charge each phase its scans) reaches it.
_SCHEDULE = (
    ("standard", lambda alphabet: standard_congruences(alphabet)),
    ("finite_monoids", lambda alphabet: finite_monoid_congruences(alphabet)),
)

# The phases that each ``family`` of :func:`audit` selects.
_FAMILIES = {**{phase[0]: (phase,) for phase in _SCHEDULE}, "all": _SCHEDULE}


class AuditResult(_Value, frozen=False):
    """Outcome of an audit sweep: a witness, or how much ground was covered."""

    witness: Witness | None
    specs_checked: int  # congruences reached, the one a cut stopped in included
    checks: int  # congruent pairs of the stream, evaluated or settled
    truncated: bool  # the budget cut a phase short of its last congruence's full count
    family: str | None = None  # the phase that found the witness


def audit(
    fn: WordFunction,
    family: str = "standard",
    length_bound: int = 2,
    budget: int | None = 200_000,
) -> AuditResult:
    """Sweep the phases of the schedule that ``family`` selects (a phase's
    name, or ``all``); the first witness wins.

    ``checks`` counts every congruent pair of the one-position stream (see
    :func:`_scan`), and ``budget`` caps that count in each phase.  Only a
    word's pairs with the first word of its class are evaluated; its pairs
    with later members are settled by transitivity and counted all the same.
    ``truncated`` is set when the budget cut a phase short of its last
    congruence's full count.  Results are deterministic for fixed arguments.
    """
    phases = _FAMILIES.get(family)
    if phases is None:
        raise ValueError(f"unknown family {family!r} (want {', '.join(_FAMILIES)})")
    sweep = _Sweep(fn, length_bound)
    specs = checks = 0
    truncated = False
    for name, congruences in phases:
        result = _audit_specs(sweep, congruences(fn.alphabet), budget)
        specs += result.specs_checked
        checks += result.checks
        truncated = truncated or result.truncated
        if result.witness is not None:
            return AuditResult(result.witness, specs, checks, truncated, name)
    return AuditResult(None, specs, checks, truncated)


def _audit_specs(sweep: _Sweep, specs: Iterable[CongruenceSpec], budget: int | None) -> AuditResult:
    """One phase of ``sweep``: its specs in order, within ``budget`` checks.

    A spec known to pass (:meth:`_Sweep.known_count`) is charged its full
    count, or cut at ``budget`` when that does not fit; every other spec is
    scanned with what is left.  So each spec is cut only by its own count:
    one whose full count is 0 never is, and the spec a cut stops in is
    counted in ``specs_checked``.
    """
    fn, bound = sweep.fn, sweep.bound
    total = seen = 0
    for spec in specs:
        seen += 1
        known = sweep.known_count(spec)
        if known is not None:
            if budget is not None and total + known > budget:
                return AuditResult(None, seen, budget, truncated=True)
            total += known
            continue
        witness, used = _scan(fn, spec, bound, None if budget is None else budget - total)
        total += used
        if witness is not None or used < sweep.full_count(spec):  # found, or cut by the budget
            return AuditResult(witness, seen, total, truncated=witness is None)
        sweep.record(spec)
    return AuditResult(None, seen, total, truncated=False)


# --------------------------------------------------------------------------
# Verdicts


class CertifiedCP(_Value):
    template: Template
    query_count: int

    def render(self) -> str:
        from .templates import format_template

        return (
            "verdict: certified-cp\n"
            f"queries: {self.query_count}\n" + format_template(self.template).rstrip("\n")
        )


class RefutedCP(_Value):
    witness: Witness
    family: str
    checks: int

    def render(self) -> str:
        return (
            "verdict: refuted-cp\n"
            f"family: {self.family}\n"
            f"checks: {self.checks}\n" + self.witness.render()
        )


class Indeterminate(_Value):
    diagnosis: NotRCP | None
    checks: int
    truncated: bool  # the budget cut a phase short of its last congruence's full count

    def render(self) -> str:
        note = "budget exhausted" if self.truncated else "all families exhausted"
        lines = ["verdict: indeterminate", f"checks: {self.checks}", f"note: {note}"]
        if self.diagnosis is not None:
            lines.append(self.diagnosis.render())
        return "\n".join(lines)


Verdict = Union[CertifiedCP, RefutedCP, Indeterminate]


def theorem_check(
    fn: WordFunction, *, validation_len: int | None = None, length_bound: int = 2,
    budget: int | None = 200_000,
) -> Verdict:
    """One :func:`extract` first (``validation_len`` as there); on NOT-RCP,
    escalate through the two phases of the audit schedule
    (``audit(fn, "all", length_bound, budget)``), re-verifying any witness
    it finds, and keep the NOT-RCP as the diagnosis of an
    :class:`Indeterminate`.  No query holds a letter outside the alphabet.
    The defaults refute every stock non-preserving example within seconds.

    Requires at least three letters — with fewer, extraction offers no
    certificate and a missing witness proves nothing.
    """
    if len(fn.alphabet) < 3:
        raise ValueError("theorem_check needs an alphabet of at least three letters")

    outcome = extract(fn, validation_len=validation_len)
    if isinstance(outcome, Extracted):
        return CertifiedCP(outcome.template, outcome.query_count)

    result = audit(fn, "all", length_bound, budget)
    if result.witness is None:
        return Indeterminate(outcome, result.checks, result.truncated)
    if not verify_witness(fn, result.witness):
        raise RuntimeError("internal inconsistency: witness failed re-verification")
    return RefutedCP(result.witness, result.family, result.checks)
