"""Congruences on a free monoid, presented through the maps that induce them.

Two flavours are supported, both with decidable membership:

* :class:`RestrictedCongruence` — the kernel of a monoid *endomorphism*
  ``m``: words ``u, v`` are related iff ``m(u) == m(v)``.
* :class:`FiniteKernelCongruence` — the kernel of a morphism into a finite
  monoid, given by a letter assignment; ``u, v`` are related iff the folded
  products coincide.

Either way a congruence is queried through a *canonical image* of a word's
raw letters (the letters of its image, or a monoid element): related words
are exactly those with equal images, so bucketing by image enumerates
congruent pairs without ever materialising the relation itself.
"""

from __future__ import annotations

import abc
import functools
import itertools
from typing import Hashable, Iterable, Iterator, Mapping

from .words import (
    Alphabet,
    AlphabetError,
    FormatError,
    Morphism,
    _letter_values,
    _Value,
    strings_up_to,
)


class FiniteMonoid(_Value):
    """A finite monoid given by its full multiplication table.

    ``table[i][j]`` is the product ``elements[i] * elements[j]``.  The
    constructor checks only shape (totality, known element ids); the monoid
    *laws* are checked by :func:`monoid_validate`, so that deliberately broken
    tables can still be constructed and reported on.
    """

    name: str
    elements: tuple[str, ...]
    identity: str
    table: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("monoid needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element identifiers")
        for el in self.elements:
            if not el or any(ch.isspace() for ch in el):
                raise ValueError(f"bad element identifier {el!r}")
        if self.identity not in self.elements:
            raise ValueError(f"identity {self.identity!r} is not an element")
        if len(self.table) != len(self.elements):
            raise ValueError("table must have one row per element")
        known = set(self.elements)
        for row in self.table:
            if len(row) != len(self.elements):
                raise ValueError("table rows must have one entry per element")
            for entry in row:
                if entry not in known:
                    raise ValueError(f"table entry {entry!r} is not an element")

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {el: i for i, el in enumerate(self.elements)}

    def op(self, x: str, y: str) -> str:
        return self.table[self._index[x]][self._index[y]]

    @functools.cached_property
    def right_action(self) -> tuple[tuple[int, ...], ...]:
        """``right_action[j][i]`` is the index of ``elements[i] * elements[j]``:
        right multiplication by each element, as a map on element indices."""
        index = self._index
        return tuple(
            tuple(index[row[j]] for row in self.table) for j in range(len(self.elements))
        )

    def __len__(self) -> int:
        return len(self.elements)


class MonoidViolation(_Value):
    """First law failure found in a multiplication table."""

    kind: str  # "identity" or "associativity"
    witness: tuple[str, ...]
    message: str


def monoid_validate(m: FiniteMonoid) -> MonoidViolation | None:
    """Exhaustively check the identity and associativity laws.

    Returns ``None`` when the table is a monoid, otherwise the first
    violation in element order.  Violations are data, not exceptions, so
    callers can report them.
    """
    e = m.identity
    for x in m.elements:
        if m.op(e, x) != x or m.op(x, e) != x:
            return MonoidViolation(
                "identity",
                (x,),
                f"{e!r} is not an identity on {x!r}: "
                f"{e}*{x}={m.op(e, x)}, {x}*{e}={m.op(x, e)}",
            )
    for x, y, z in itertools.product(m.elements, repeat=3):
        left = m.op(m.op(x, y), z)
        right = m.op(x, m.op(y, z))
        if left != right:
            return MonoidViolation(
                "associativity",
                (x, y, z),
                f"({x}*{y})*{z}={left} but {x}*({y}*{z})={right}",
            )
    return None


class MonoidMorphism(_Value):
    """A morphism from a free monoid into a finite monoid, by letter images."""

    alphabet: Alphabet
    monoid: FiniteMonoid
    assignment: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        letters = tuple(letter for letter, _ in self.assignment)
        if letters != self.alphabet.letters:
            raise ValueError(
                "assignment must cover every letter exactly once, in order"
            )
        known = set(self.monoid.elements)
        for letter, el in self.assignment:
            if el not in known:
                raise ValueError(f"letter {letter!r} assigned unknown element {el!r}")

    @classmethod
    def make(
        cls, alphabet: Alphabet, monoid: FiniteMonoid, mapping: Mapping[str, str]
    ) -> "MonoidMorphism":
        if set(mapping) != alphabet.letter_set:
            raise ValueError("mapping must cover exactly the alphabet")
        return cls(
            alphabet, monoid, tuple((ch, mapping[ch]) for ch in alphabet.letters)
        )

    @functools.cached_property
    def _steps(self) -> dict[str, tuple[int, ...]]:
        """Each letter's right action on element indices."""
        monoid = self.monoid
        index, action = monoid._index, monoid.right_action
        return {letter: action[index[el]] for letter, el in self.assignment}

    def word_image(self, letters: str) -> str:
        monoid = self.monoid
        steps = self._steps
        acc = monoid._index[monoid.identity]
        try:
            for ch in letters:
                acc = steps[ch][acc]
        except KeyError as exc:
            raise AlphabetError(f"letter {exc} not in alphabet {self.alphabet}") from None
        return monoid.elements[acc]


class CongruenceSpec(abc.ABC):
    """A congruence with decidable membership via canonical images."""

    alphabet: Alphabet

    @abc.abstractmethod
    def word_image(self, letters: str) -> str:
        """Canonical image; two words are congruent iff images are equal."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Multi-line plain-text description used in reports."""

    def render_image(self, image: str) -> str:
        """An image as reports show it (a monoid element is shown bare)."""
        return image

    def congruent(self, u: str, v: str) -> bool:
        return self.word_image(u) == self.word_image(v)

    @property
    @abc.abstractmethod
    def kernel_key(self) -> Hashable:
        """Specs with equal keys relate the same words (one way only: specs
        of one kernel may have different keys).  A key names letters by their
        positions in the alphabet."""

    @functools.cached_property
    def kernel_id(self) -> int:
        """A small int per distinct :attr:`kernel_key`, interned process-wide:
        specs with equal ids have equal keys."""
        key = self.kernel_key
        kernel_id = _KERNEL_IDS.get(key)
        if kernel_id is None:
            # next() and setdefault() are each atomic, so two threads never
            # give two keys one id
            kernel_id = _KERNEL_IDS.setdefault(key, next(_NEW_KERNEL_IDS))
        return kernel_id

    @property
    @abc.abstractmethod
    def commutative(self) -> bool:
        """Whether the letter images commute pairwise.  The image of a word
        is then fixed by its letter counts."""

    def classes(self, bound: int) -> _Classes:
        """The classes of the words ``strings_up_to(self.alphabet, bound)``,
        bucketed by word image; built once per bound and kept on the spec."""
        classes = self._classes_by_bound.get(bound)
        if classes is None:
            heads = _class_heads(map(self.word_image, strings_up_to(self.alphabet, bound)))
            sizes = [0] * len(heads)  # first word -> words so far
            joins, earlier = [], []
            for i, head in enumerate(heads):
                if head != i:
                    joins.append(i)
                    earlier.append(sizes[head])
                sizes[head] += 1
            live = tuple(i for i, head in enumerate(heads) if sizes[head] > 1)
            classes = _Classes(heads, live, tuple(joins), tuple(earlier), sum(earlier))
            self._classes_by_bound[bound] = classes
        return classes

    @functools.cached_property
    def _classes_by_bound(self) -> dict[int, _Classes]:
        return {}


# Kernel key -> kernel id, for every key asked for an id in this process.
_KERNEL_IDS: dict[Hashable, int] = {}
_NEW_KERNEL_IDS = itertools.count()


class RestrictedCongruence(CongruenceSpec, _Value):
    """Kernel of a free-monoid endomorphism."""

    morphism: Morphism

    def __post_init__(self) -> None:
        if not self.morphism.is_endomorphism:
            raise ValueError(
                "restricted congruences arise from endomorphisms; "
                f"got {self.morphism.source} -> {self.morphism.target}"
            )

    @property
    def alphabet(self) -> Alphabet:  # type: ignore[override]
        return self.morphism.source

    def word_image(self, letters: str) -> str:
        return self.morphism.apply_letters(letters)

    @functools.cached_property
    def kernel_key(self) -> tuple[str, ...]:
        """The letter images, each image letter renamed to the character whose
        code is its rank of first appearance.  A renaming is injective on
        words, so it keeps the kernel: ``collapse_to(a)`` and ``collapse_to(b)``
        share a key, as do ``identify(a->b)`` and ``identify(b->a)``."""
        images = [img for _, img in self.morphism.image]
        renaming = {ord(ch): i for i, ch in enumerate(dict.fromkeys("".join(images)))}
        return tuple(img.translate(renaming) for img in images)

    @functools.cached_property
    def commutative(self) -> bool:
        images = [img for _, img in self.morphism.image]
        return all(u + v == v + u for u, v in itertools.combinations(images, 2))

    def render_image(self, image: str) -> str:
        return f'"{image}"'  # a word, quoted like every word in reports

    def describe(self) -> str:
        from .words import format_morphism

        head = "congruence: kernel of endomorphism"
        if self.morphism.label:
            head += f" {self.morphism.label}"
        return head + "\n" + format_morphism(self.morphism).rstrip("\n")


class FiniteKernelCongruence(CongruenceSpec, _Value):
    """Kernel of a morphism into a finite monoid."""

    monoid_morphism: MonoidMorphism

    @property
    def alphabet(self) -> Alphabet:  # type: ignore[override]
        return self.monoid_morphism.alphabet

    def word_image(self, letters: str) -> str:
        return self.monoid_morphism.word_image(letters)

    @functools.cached_property
    def kernel_key(self) -> tuple[tuple[int, ...], ...]:
        """The kernel, exactly: two assignments have equal keys iff they
        relate the same words.

        The key is the right Cayley graph of the submonoid the letter images
        generate.  Its states are numbered breadth-first from the identity,
        taking the letters in alphabet order, and row ``s`` lists the state
        that each letter moves state ``s`` to.  A word's state is its class,
        so equal keys give equal kernels; conversely the kernel alone fixes
        the classes, their successors and hence the numbering.
        """
        mm = self.monoid_morphism
        steps = [mm._steps[letter] for letter in mm.alphabet.letters]
        start = mm.monoid._index[mm.monoid.identity]
        number = {start: 0}
        order = [start]  # grows while it is walked: the breadth-first queue
        rows = []
        for element in order:
            row = []
            for step in steps:
                target = step[element]
                if target not in number:
                    number[target] = len(order)
                    order.append(target)
                row.append(number[target])
            rows.append(tuple(row))
        return tuple(rows)

    @functools.cached_property
    def commutative(self) -> bool:
        """Read off the key: ``key[key[0][x]][y]`` is the state of the word xy."""
        key = self.kernel_key
        return all(
            key[key[0][x]][y] == key[key[0][y]][x]
            for x, y in itertools.combinations(range(len(key[0])), 2)
        )

    def describe(self) -> str:
        mm = self.monoid_morphism
        lines = [f"congruence: kernel of morphism into {mm.monoid.name}"]
        lines.append(format_finite_monoid(mm.monoid).rstrip("\n"))
        lines.append(
            "assignment " + " ".join(f"{l}={e}" for l, e in mm.assignment)
        )
        return "\n".join(lines)


def _class_heads(images: Iterable[Hashable]) -> tuple[int, ...]:
    """For each item, the index of the first item with an equal image: the
    head of its class, when items are bucketed by image."""
    first: dict[Hashable, int] = {}
    return tuple(map(first.setdefault, images, itertools.count()))


class _Classes(_Value):
    """The classes of a congruence on the words up to a bound, by the words'
    indices in enumeration order."""

    heads: tuple[int, ...]  # each word's class's first word
    live: tuple[int, ...]  # the words of classes of two or more
    joins: tuple[int, ...]  # the live words that do not head their class
    earlier: tuple[int, ...]  # for each join, the words of its class before it
    pairs: int  # congruent pairs of distinct words: C(k, 2) per class of k


def congruent_pairs(
    spec: CongruenceSpec, length_bound: int
) -> Iterator[tuple[str, str]]:
    """All unordered pairs of distinct congruent words up to ``length_bound``.

    Words are scanned shortest-first (then lexicographically) and bucketed by
    canonical image; each new word is paired with every earlier member of its
    bucket, so the stream is deterministic and each pair appears once, as
    ``(earlier, later)``.
    """
    buckets: dict[str, list[str]] = {}
    for w in strings_up_to(spec.alphabet, length_bound):
        peers = buckets.setdefault(spec.word_image(w), [])
        for u in peers:
            yield (u, w)
        peers.append(w)


# --------------------------------------------------------------------------
# Catalog of small finite monoids used when hunting for refutations.


def cyclic_additive(n: int) -> FiniteMonoid:
    """Integers mod ``n`` under addition."""
    if n < 1:
        raise ValueError("n must be positive")
    els = tuple(str(i) for i in range(n))
    table = tuple(
        tuple(str((i + j) % n) for j in range(n)) for i in range(n)
    )
    return FiniteMonoid(f"Z{n}+", els, "0", table)


def cyclic_multiplicative(n: int) -> FiniteMonoid:
    """Integers mod ``n`` under multiplication (identity 1)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    els = tuple(str(i) for i in range(n))
    table = tuple(
        tuple(str((i * j) % n) for j in range(n)) for i in range(n)
    )
    return FiniteMonoid(f"Z{n}*", els, "1", table)


def transformations_on_two_points() -> FiniteMonoid:
    """All four self-maps of a two-point set, composed left to right.

    An element ``xy`` sends point 1 to ``x`` and point 2 to ``y``; the product
    applies the left factor first.  This monoid is noncommutative, which is
    what lets it distinguish functions that permute letter order.
    """
    els = ("12", "21", "11", "22")

    def compose(f: str, g: str) -> str:
        return "".join(g[int(f[i]) - 1] for i in range(2))

    table = tuple(tuple(compose(f, g) for g in els) for f in els)
    return FiniteMonoid("T2", els, "12", table)


def left_zero_with_identity() -> FiniteMonoid:
    """Two left-absorbing elements plus an adjoined identity.

    For the non-identity elements ``x * y = x``, so the image of a word
    remembers its *first* significant letter — another cheap source of
    order sensitivity.
    """
    els = ("e", "x", "y")

    def op(a: str, b: str) -> str:
        if a == "e":
            return b
        return a

    table = tuple(tuple(op(a, b) for b in els) for a in els)
    return FiniteMonoid("LZ2+1", els, "e", table)


@functools.cache
def monoid_catalog() -> tuple[FiniteMonoid, ...]:
    """Small monoids tried during audits, cheap and potent ones first.

    Contains the additive and multiplicative integers mod ``n`` for
    ``n <= 6``, the full transformation monoid on two points, and the
    two-element left-zero semigroup with an identity adjoined.  The catalog
    is built and every entry validated once per process; the entries are
    frozen, so every caller shares the same tuple.
    """
    catalog = [
        cyclic_additive(2),
        cyclic_multiplicative(2),
        left_zero_with_identity(),
        transformations_on_two_points(),
    ]
    for n in range(3, 7):
        catalog.append(cyclic_additive(n))
        catalog.append(cyclic_multiplicative(n))
    for m in catalog:
        violation = monoid_validate(m)
        if violation is not None:
            raise AssertionError(f"broken catalog entry {m.name}: {violation.message}")
    return tuple(catalog)


# --------------------------------------------------------------------------
# Text formats
#
# Finite monoid:                     Letter assignment:
#
#   elements 0 1                       a=0
#   identity 0                         b=1
#   0 1
#   1 0
#
# Table rows are row-major: row i lists elements[i] * elements[j] for each j.


def format_finite_monoid(m: FiniteMonoid) -> str:
    lines = ["elements " + " ".join(m.elements), f"identity {m.identity}"]
    lines.extend(" ".join(row) for row in m.table)
    return "\n".join(lines) + "\n"


def parse_finite_monoid(text: str, name: str = "") -> FiniteMonoid:
    """Parse and *validate* a monoid; law violations are format errors here."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("elements "):
        raise FormatError("monoid file must start with 'elements <e0> <e1> ...'")
    elements = tuple(lines[0].split()[1:])
    parts = lines[1].split()
    if len(parts) != 2 or parts[0] != "identity":
        raise FormatError("second line must be 'identity <element>'")
    identity = parts[1]
    rows = [tuple(ln.split()) for ln in lines[2:]]
    try:
        m = FiniteMonoid(name or "monoid", elements, identity, tuple(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    violation = monoid_validate(m)
    if violation is not None:
        raise FormatError(f"not a monoid: {violation.message}")
    return m


def format_monoid_morphism(mm: MonoidMorphism) -> str:
    return "\n".join(f"{letter}={el}" for letter, el in mm.assignment) + "\n"


def parse_monoid_morphism(
    text: str, alphabet: Alphabet, monoid: FiniteMonoid
) -> MonoidMorphism:
    lines = filter(str.strip, text.splitlines())
    mapping = _letter_values(lines, "element", "duplicate assignment")
    try:
        return MonoidMorphism.make(alphabet, monoid, mapping)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
