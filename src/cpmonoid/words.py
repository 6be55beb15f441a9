"""Words over a finite alphabet, and monoid endomorphisms between them.

Everything downstream (congruences, templates, oracle extraction) is built on
three value types: :class:`Alphabet`, :class:`Word` and :class:`Morphism`.
All three are immutable and compare structurally, so they can be used freely
as dictionary keys and shared across threads.  They, and the package's other
value types, are plain classes on the private base :class:`_Value`.  Each
declares its fields once, as class annotations, and the base generates the
class's ``__init__`` from their names alone; equality, hashing, repr and
immutability are written once on the base.  That is what a frozen dataclass
gives, at a fraction of the start-up cost of ``dataclasses``, which no
command imports.

A word is just a string of single-character letters, but it carries the
alphabet it was declared over so that mixed-alphabet concatenation is an
error instead of a silent bug.  Equality and hashing deliberately ignore the
alphabet: two words spelling the same letters denote the same element of the
free monoid, whichever ambient alphabet they were typed against.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

_T = TypeVar("_T")


class AlphabetError(ValueError):
    """A letter or word was used outside its declared alphabet."""


class FormatError(ValueError):
    """A text-format document failed to parse."""


# Letters must survive the plain-text formats (quoted constants, TAB-separated
# tables, one-line protocol frames), so quotes, backslashes and whitespace are
# banned outright.
_FORBIDDEN_LETTERS = frozenset('"\\')


def quote(letters: str) -> str:
    """A word as report text spells it, in double quotes: ``"ab"``.  No
    letter is a double quote, so the spelling is unambiguous."""
    return f'"{letters}"'


def quote_tuple(args: Iterable[str]) -> str:
    """An argument tuple as report text spells it: ``"ab" "c"``, and the
    empty tuple as ``""``."""
    return " ".join(map(quote, args)) or '""'


class _Value:
    """Base of the package's value types: what a dataclass would generate
    for them, written once.

    A subclass's fields are its own class annotations, in order, and a
    field's default is the annotation's value; class constants such as
    ``_compared`` carry no annotation.  From the field names alone the base
    generates the class's ``__init__``, with one parameter per field and the
    defaults bound by reference.  It stores each field with
    ``object.__setattr__`` (plain assignment raises, the value being frozen)
    and then calls ``self.__post_init__()`` when the class validates.
    Instances of one class are equal when their fields are, and hash by
    them; ``_compared`` may name fewer fields for both.  The repr shows every
    field.  ``class C(_Value, frozen=False)`` keeps plain assignment and is
    unhashable.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works on them.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...]  # default: every field
    _key = staticmethod(lambda value: ())  # the compared fields of ``value``

    def __init_subclass__(cls, frozen: bool = True) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
        if any(name in cls.__dict__ for name in fields[: len(fields) - len(defaults)]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
        body = [f"store(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"__name__": cls.__module__, "store": object.__setattr__}
        params = "".join(f", {name}" for name in fields)
        exec(f"def __init__(self{params}):\n    " + "\n    ".join(body or ["pass"]), namespace)
        cls.__init__ = init = namespace["__init__"]  # type: ignore[misc]
        init.__defaults__ = defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        compared = cls.__dict__.get("_compared", fields)
        if compared:
            cls._key = operator.attrgetter(*compared)
        if not frozen:
            # object's own slots, so `stats.nodes += 1` runs no Python code
            cls.__setattr__ = object.__setattr__  # type: ignore[method-assign]
            cls.__delattr__ = object.__delattr__  # type: ignore[method-assign]
            cls.__hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _valid_letter(ch: str) -> bool:
    return (
        len(ch) == 1
        and ch.isprintable()
        and not ch.isspace()
        and ch not in _FORBIDDEN_LETTERS
    )


class Alphabet(_Value):
    """An ordered set of distinct single-character letters.

    The declaration order is significant: it fixes enumeration order for
    words, probe order during extraction, and the sort order used by
    letter-sorting functions.
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.letters, tuple):
            kind = type(self.letters).__name__
            raise AlphabetError(f"letters must be a tuple, not {kind}: use Alphabet.of")
        if not self.letters:
            raise AlphabetError("alphabet must contain at least one letter")
        seen: set[str] = set()
        for ch in self.letters:
            if not _valid_letter(ch):
                raise AlphabetError(
                    f"invalid letter {ch!r}: letters are single printable "
                    "characters, excluding whitespace, quotes and backslashes"
                )
            if ch in seen:
                raise AlphabetError(f"duplicate letter {ch!r}")
            seen.add(ch)

    @classmethod
    def of(cls, letters: str | Iterable[str]) -> "Alphabet":
        return cls(tuple(letters))

    @functools.cached_property
    def letter_set(self) -> frozenset[str]:
        return frozenset(self.letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self.letter_set

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def require(self, *letters: str) -> None:
        """Raise :class:`AlphabetError` naming the first of ``letters`` that
        is not a letter of this alphabet."""
        for letter in letters:
            if letter not in self.letter_set:
                raise AlphabetError(f"letter {letter!r} not in alphabet {self}")

    def word(self, letters: str = "") -> "Word":
        """Build a word over this alphabet (the empty word by default)."""
        return Word(self, letters)

    def extended(self, extra: str | Iterable[str]) -> "Alphabet":
        """This alphabet plus any unseen letters of ``extra``, in given order."""
        new = [ch for ch in extra if ch not in self.letter_set]
        if not new:
            return self
        return Alphabet(self.letters + tuple(dict.fromkeys(new)))


class Word(_Value):
    """An immutable word; equality and hashing consider the letters only."""

    _compared = ("letters",)

    alphabet: Alphabet
    letters: str = ""

    def __post_init__(self) -> None:
        bad = set(self.letters) - self.alphabet.letter_set
        if bad:
            raise AlphabetError(
                f"word {self.letters!r} uses letters {sorted(bad)} outside "
                f"alphabet {self.alphabet}"
            )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def __repr__(self) -> str:
        return f"Word({self.letters!r})"

    def quoted(self) -> str:
        """The word in the quoted surface syntax used by reports: ``"ab"``."""
        return quote(self.letters)

    def concat(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetError(
                f"cannot concatenate words over different alphabets "
                f"({self.alphabet} vs {other.alphabet})"
            )
        return Word(self.alphabet, self.letters + other.letters)

    __add__ = concat

    def power(self, n: int) -> "Word":
        if n < 0:
            raise ValueError(f"negative power {n}")
        return Word(self.alphabet, self.letters * n)

    def count(self, letter: str | None = None) -> int:
        """Occurrences of ``letter``, or the total length when omitted."""
        if letter is None:
            return len(self.letters)
        self.alphabet.require(letter)
        return self.letters.count(letter)


class Morphism(_Value):
    """A monoid morphism between free monoids, given by letter images.

    ``image`` holds one ``(letter, image_letters)`` pair per source letter in
    source-alphabet order, which keeps the value hashable.  Use
    :meth:`Morphism.make` to build one from a plain mapping.  The optional
    ``label`` is carried only for reporting and never participates in
    equality.
    """

    _compared = ("source", "target", "image")

    source: Alphabet
    target: Alphabet
    image: tuple[tuple[str, str], ...]
    label: str = ""

    def __post_init__(self) -> None:
        given = [letter for letter, _ in self.image]
        if tuple(given) != self.source.letters:
            raise AlphabetError(
                "morphism image must list every source letter exactly once, "
                "in alphabet order"
            )
        for letter, img in self.image:
            bad = set(img) - self.target.letter_set
            if bad:
                raise AlphabetError(
                    f"image of {letter!r} uses letters {sorted(bad)} outside "
                    f"target alphabet {self.target}"
                )

    @classmethod
    def make(
        cls,
        source: Alphabet,
        mapping: Mapping[str, str],
        target: Alphabet | None = None,
        label: str = "",
    ) -> "Morphism":
        if set(mapping) != source.letter_set:
            raise AlphabetError("mapping must cover exactly the source letters")
        if target is None:
            target = source
        image = tuple((letter, mapping[letter]) for letter in source.letters)
        return cls(source, target, image, label)

    @functools.cached_property
    def _translations(self) -> tuple[dict[int, None], dict[int, str]]:
        """``str.translate`` tables: one deletes the source letters, the
        other maps each letter to its image."""
        return dict.fromkeys(map(ord, self.source.letters)), {ord(ch): img for ch, img in self.image}

    @property
    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def apply(self, u: Word) -> Word:
        if u.alphabet != self.source:
            raise AlphabetError(
                f"word over {u.alphabet} fed to morphism with source {self.source}"
            )
        return Word(self.target, self.apply_letters(u.letters))

    def apply_letters(self, letters: str) -> str:
        """Apply to a raw letter string (hot path for search loops)."""
        source, images = self._translations
        foreign = letters.translate(source)
        if foreign:
            self.source.require(*foreign)
        return letters.translate(images)

    def compose(self, inner: "Morphism") -> "Morphism":
        """``self after inner``: the result maps ``u`` to ``self(inner(u))``."""
        if inner.target != self.source:
            raise AlphabetError(
                f"cannot compose: inner target {inner.target} != outer source "
                f"{self.source}"
            )
        mapping = {
            letter: self.apply_letters(img) for letter, img in inner.image
        }
        label = ""
        if self.label and inner.label:
            label = f"{self.label} . {inner.label}"
        return Morphism.make(inner.source, mapping, self.target, label)


def collapse_to(alphabet: Alphabet, letter: str) -> Morphism:
    """Every letter maps to ``letter``; the kernel relates words of equal length."""
    alphabet.require(letter)
    return Morphism.make(
        alphabet,
        {ch: letter for ch in alphabet},
        label=f"collapse_to({letter})",
    )


def project(alphabet: Alphabet, letter: str) -> Morphism:
    """Keep ``letter``, erase the rest; the kernel counts its occurrences."""
    alphabet.require(letter)
    return Morphism.make(
        alphabet,
        {ch: (ch if ch == letter else "") for ch in alphabet},
        label=f"project({letter})",
    )


def erase(alphabet: Alphabet, letter: str) -> Morphism:
    """Delete ``letter``, keep everything else in place."""
    alphabet.require(letter)
    return Morphism.make(
        alphabet,
        {ch: ("" if ch == letter else ch) for ch in alphabet},
        label=f"erase({letter})",
    )


def identify(alphabet: Alphabet, old: str, new: str) -> Morphism:
    """Rename ``old`` to ``new``, merging the two letters."""
    alphabet.require(old, new)
    if old == new:
        raise ValueError("identify needs two distinct letters")
    return Morphism.make(
        alphabet,
        {ch: (new if ch == old else ch) for ch in alphabet},
        label=f"identify({old}->{new})",
    )


def strings_of_length(alphabet: Alphabet, n: int) -> Iterator[str]:
    """All raw letter strings of length ``n``, lexicographic in the
    alphabet's declared letter order (hot path for search loops)."""
    return map("".join, itertools.product(alphabet.letters, repeat=n))


def strings_up_to(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """All raw letter strings of length at most ``max_len``, shortest first,
    then as in :func:`strings_of_length`."""
    if max_len < 0:
        raise ValueError(f"negative length bound {max_len}")
    for n in range(max_len + 1):
        yield from strings_of_length(alphabet, n)


# Tuple sweeps of at most this many tuples are built once and shared.
_SHARED_SWEEP_MAX = 1 << 14


def string_tuples_up_to(
    alphabet: Alphabet, arity: int, max_len: int
) -> Iterable[tuple[str, ...]]:
    """All ``arity``-tuples of raw letter strings of length at most
    ``max_len``, the leftmost component varying slowest, each through
    :func:`strings_up_to` order.

    A sweep of at most ``_SHARED_SWEEP_MAX`` (16,384) tuples comes from a
    cache of built sweeps, so that every caller of one shape gets the same
    tuple objects: oracle memos keyed on them share their keys instead of
    each building its own.  A larger sweep streams lazily and is never
    built, so a caller that stops early pays only for what it read.
    """
    if count_words(alphabet, max_len) ** arity > _SHARED_SWEEP_MAX:
        return itertools.product(tuple(strings_up_to(alphabet, max_len)), repeat=arity)
    return _shared_sweep(alphabet, arity, max_len)


@functools.lru_cache(maxsize=8)
def _shared_sweep(
    alphabet: Alphabet, arity: int, max_len: int
) -> tuple[tuple[str, ...], ...]:
    """One built sweep for :func:`string_tuples_up_to`, for the eight shapes
    asked most recently.

    Worst-case memory retained: 8 sweeps of at most 16,384 tuples each.  On
    64-bit CPython an ``arity``-tuple takes 40 + 8·arity bytes rounded up to
    a multiple of 16, plus 8 for its slot in the sweep.  With at least two
    words, 16,384 tuples have arity at most 14, so the cache holds at most
    8 × 16,384 × 168 bytes (about 22 MB); over three or more letters (at
    least four words, so arity at most 7) at most 8 × 16,384 × 104 bytes
    (about 14 MB).  A bound-0 sweep is the one all-empty tuple.  The words
    are shared by every tuple of a sweep.
    """
    return tuple(
        itertools.product(tuple(strings_up_to(alphabet, max_len)), repeat=arity)
    )


def arrangements(
    symbols: Sequence[_T], counts: Sequence[int]
) -> list[tuple[_T, ...]]:
    """Every sequence holding ``symbols[i]`` exactly ``counts[i]`` times,
    lexicographic in the order of ``symbols``.

    Built as a list: the explorer memoises it per vector of letter counts.
    Each sequence after the first, sorted one, is its lexicographic
    successor (the next permutation of the multiset), so no call nests.
    """
    pick = list(symbols).__getitem__
    seq = [i for i, n in enumerate(counts) for _ in range(n)]
    out: list[tuple[_T, ...]] = []
    while True:
        out.append(tuple(map(pick, seq)))
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = seq[:i:-1]


def iter_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length at most ``max_len``, shortest first, then in
    lexicographic order of the alphabet's declared letter order."""
    for letters in strings_up_to(alphabet, max_len):
        yield Word(alphabet, letters)


def iter_word_tuples(
    alphabet: Alphabet, arity: int, max_len: int
) -> Iterator[tuple[Word, ...]]:
    """All ``arity``-tuples of words of length at most ``max_len``.

    The leftmost component varies slowest; each component runs through
    :func:`iter_words` order, so the stream is deterministic.
    """
    return itertools.product(list(iter_words(alphabet, max_len)), repeat=arity)


def count_words(alphabet: Alphabet, max_len: int) -> int:
    """``|alphabet|^0 + ... + |alphabet|^max_len`` without enumerating."""
    if max_len < 0:
        raise ValueError(f"negative length bound {max_len}")
    m = len(alphabet)
    if m == 1:
        return max_len + 1
    return (m ** (max_len + 1) - 1) // (m - 1)


# --------------------------------------------------------------------------
# Text format
#
#   alphabet abc
#   target ab        (only when the target differs from the source)
#   a=ab
#   b=
#   c=a
#
# One `letter=image` line per source letter; an empty right-hand side is the
# empty word.


def format_morphism(m: Morphism) -> str:
    lines = [f"alphabet {m.source}"]
    if m.target != m.source:
        lines.append(f"target {m.target}")
    lines.extend(f"{letter}={img}" for letter, img in m.image)
    return "\n".join(lines) + "\n"


def _letter_values(lines: Iterable[str], value: str, duplicate: str) -> dict[str, str]:
    """The mapping of ``letter=<value>`` lines; errors name the right-hand
    side ``value`` and begin a repeated letter's with ``duplicate``."""
    mapping: dict[str, str] = {}
    for ln in map(str.strip, lines):
        letter, sep, rhs = ln.partition("=")
        if not sep or len(letter) != 1:
            raise FormatError(f"expected 'letter={value}', got {ln!r}")
        if letter in mapping:
            raise FormatError(f"{duplicate} for letter {letter!r}")
        mapping[letter] = rhs
    return mapping


def parse_morphism(text: str) -> Morphism:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("alphabet "):
        raise FormatError("morphism file must start with 'alphabet <letters>'")
    try:
        source = Alphabet.of(lines[0][len("alphabet "):].strip())
    except AlphabetError as exc:
        raise FormatError(f"bad alphabet line: {exc}") from exc
    rest = lines[1:]
    target = source
    if rest and rest[0].startswith("target "):
        try:
            target = Alphabet.of(rest[0][len("target "):].strip())
        except AlphabetError as exc:
            raise FormatError(f"bad target line: {exc}") from exc
        rest = rest[1:]
    mapping = _letter_values(rest, "image", "duplicate image line")
    if set(mapping) != source.letter_set:
        missing = sorted(source.letter_set - set(mapping))
        extra = sorted(set(mapping) - source.letter_set)
        raise FormatError(
            f"image lines must cover the alphabet exactly "
            f"(missing {missing}, extraneous {extra})"
        )
    try:
        return Morphism.make(source, mapping, target)
    except AlphabetError as exc:
        raise FormatError(str(exc)) from exc
