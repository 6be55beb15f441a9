"""Polynomial word functions: constants interleaved with variable slots.

A :class:`Template` of arity ``k`` denotes the function

    (x_1, ..., x_k)  |->  w_0 · x_{i_1} · w_1 · x_{i_2} · ... · x_{i_n} · w_n

where the ``w_j`` are constant words and each slot names one of the ``k``
arguments (repeats allowed — powers are written as repeated slots).  These
are exactly the word functions that commute with every substitution of the
arguments, which is why they double as the certificate format for
congruence preservation.

The induced length behaviour is affine: ``|t(x⃗)| = Σ p_i·|x_i| + e`` where
``p_i`` counts the slots naming argument ``i`` and ``e`` is the total
constant length.  :class:`LengthCoefficients` packages those numbers (plus
the per-letter offsets contributed by the constants) and is shared with the
oracle-side length profiler.

Evaluation is one call of an f-string closure.  Every slot tuple compiles,
once, to a factory ``lambda c0, …, cn: lambda key: f"{c0}{key[i_1-1]}{c1}…"``
(:func:`_closure_factory`, kept in a bounded cache), and each template binds
its constant letters into it as values.  Only parameter names and argument
indices enter the generated source, never a letter, so braces and every
other letter need no escaping.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, Sequence

from .words import (
    Alphabet,
    FormatError,
    Morphism,
    Word,
    _Value,
    arrangements,
    string_tuples_up_to,
    strings_of_length,
)


class LengthCoefficients(_Value):
    """Affine description of a function's output lengths.

    ``p[i]`` scales the length of argument ``i+1``, ``e`` is the constant
    term, and ``per_letter_offset`` records how many of each letter the
    constant part contributes (their counts sum to ``e``).
    """

    p: tuple[int, ...]
    e: int
    per_letter_offset: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.p) or self.e < 0:
            raise ValueError("length coefficients must be nonnegative")
        if sum(n for _, n in self.per_letter_offset) != self.e:
            raise ValueError("per-letter offsets must sum to the constant term")

    @property
    def arity(self) -> int:
        return len(self.p)

    @property
    def size(self) -> int:
        """Total slot-plus-constant size ``Σ p_i + e``.

        This is the number of head symbols a peeling loop must remove before
        the residue becomes the constant-empty function.
        """
        return sum(self.p) + self.e

    def offset(self, letter: str) -> int:
        for ch, n in self.per_letter_offset:
            if ch == letter:
                return n
        raise KeyError(letter)

    def predicted_length(self, arg_lengths: Sequence[int]) -> int:
        if len(arg_lengths) != self.arity:
            raise ValueError("wrong number of argument lengths")
        return sum(pi * n for pi, n in zip(self.p, arg_lengths)) + self.e

    def predicted_count(self, letter: str, arg_counts: Sequence[int]) -> int:
        """Expected occurrences of ``letter`` given its count in each argument."""
        if len(arg_counts) != self.arity:
            raise ValueError("wrong number of argument counts")
        return sum(pi * n for pi, n in zip(self.p, arg_counts)) + self.offset(letter)


@functools.lru_cache(maxsize=1024)
def _closure_factory(
    variables: tuple[int, ...]
) -> Callable[..., Callable[[Sequence[str]], str]]:
    """The compiled ``lambda c0, …, cn: lambda key: f"{c0}{key[i_1-1]}{c1}…"``.

    One factory serves every template with this slot tuple: calling it with
    the constants' letters returns that template's evaluator, which takes
    the argument letters as one sequence.
    """
    params = ", ".join(f"c{j}" for j in range(len(variables) + 1))
    fields = "".join(f"{{key[{v - 1}]}}{{c{j}}}" for j, v in enumerate(variables, 1))
    return eval(f'lambda {params}: lambda key: f"{{c0}}{fields}"')


class Template(_Value):
    """An alternating sequence of constant words and 1-based variable slots.

    ``constants`` always has exactly one more entry than ``variables``; a
    constant function is a single constant and no slots.
    """

    arity: int
    alphabet: Alphabet
    constants: tuple[Word, ...]
    variables: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.constants) != len(self.variables) + 1:
            raise ValueError(
                "a template interleaves n variable slots with n+1 constants"
            )
        for w in self.constants:
            if w.alphabet != self.alphabet:
                raise ValueError("constant word over a different alphabet")
        for v in self.variables:
            if not 1 <= v <= self.arity:
                raise ValueError(
                    f"variable slot x{v} out of range for arity {self.arity}"
                )

    @classmethod
    def of(
        cls, alphabet: Alphabet, *parts: str | int, arity: int | None = None
    ) -> "Template":
        """Build from alternating string constants and integer slots.

        ``Template.of(ab, "a", 1, "")`` is the function ``x ↦ "a"·x``.
        Parts must start and end with a constant and strictly alternate.
        """
        constants: list[Word] = []
        variables: list[int] = []
        expect_const = True
        for part in parts:
            if expect_const:
                if not isinstance(part, str):
                    raise ValueError("expected a constant string here")
                constants.append(Word(alphabet, part))
            else:
                if not isinstance(part, int):
                    raise ValueError("expected an integer variable slot here")
                variables.append(part)
            expect_const = not expect_const
        if expect_const:
            raise ValueError("template parts must end with a constant")
        if arity is None:
            arity = max(variables, default=0)
        return cls(arity, alphabet, tuple(constants), tuple(variables))

    def eval(self, args: Sequence[Word]) -> Word:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.alphabet != self.alphabet:
                raise ValueError("argument word over a different alphabet")
        return Word(self.alphabet, self.eval_letters([a.letters for a in args]))

    def eval_letters(self, args: Sequence[str]) -> str:
        """Evaluate on raw letter strings (no alphabet check; hot path).

        One call of the template's f-string closure, bound on first use.
        Extraction feeds arguments containing letters outside the template's
        own alphabet through this entry point.
        """
        return self._apply(args)

    @functools.cached_property
    def _apply(self) -> Callable[[Sequence[str]], str]:
        """``key ↦ w_0·key[i_1-1]·w_1…``: the slot tuple's shared factory
        with this template's constant letters bound in.

        Cached in the instance ``__dict__``, so equality and hashing stay
        field-based.
        """
        return _closure_factory(self.variables)(*(w.letters for w in self.constants))

    def coefficients(self) -> LengthCoefficients:
        p = [0] * self.arity
        for v in self.variables:
            p[v - 1] += 1
        const = "".join(w.letters for w in self.constants)
        offsets = tuple((ch, const.count(ch)) for ch in self.alphabet.letters)
        return LengthCoefficients(tuple(p), len(const), offsets)

    def map_words(self, morphism: Morphism) -> "Template":
        """Apply a morphism to every constant; slots are untouched.

        For an endomorphism ``φ`` this realises ``φ ∘ t = t' `` with
        ``t'(x⃗) = φ(t(x⃗))`` whenever the arguments are also pushed through
        ``φ`` — the substitution law that congruence preservation rests on.
        """
        if morphism.source != self.alphabet:
            raise ValueError("morphism source must match the template alphabet")
        return Template(
            self.arity,
            morphism.target,
            tuple(morphism.apply(w) for w in self.constants),
            self.variables,
        )

    def body_text(self) -> str:
        """The single-line surface syntax: ``"ab" x1 "" x1 "c"``."""
        tokens = [self.constants[0].quoted()]
        for v, w in zip(self.variables, self.constants[1:]):
            tokens.append(f"x{v}")
            tokens.append(w.quoted())
        return " ".join(tokens)

    def __str__(self) -> str:
        return self.body_text()


def extensional_equal(t1: Template, t2: Template, length_bound: int) -> bool:
    """Compare two templates pointwise on all argument tuples up to a bound.

    Requires equal arity and alphabet.  Structurally different templates
    can agree everywhere: over a one-letter alphabet ``"a"·x`` and ``x·"a"``
    are the same function.
    """
    if t1.arity != t2.arity:
        raise ValueError("templates of different arity are never compared")
    if t1.alphabet != t2.alphabet:
        raise ValueError("templates over different alphabets are never compared")
    tuples = string_tuples_up_to(t1.alphabet, t1.arity, length_bound)
    return all(t1.eval_letters(args) == t2.eval_letters(args) for args in tuples)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Write ``total`` as ``parts`` ordered nonnegative terms.

    Front-loaded: the first part runs from large to small, so for one
    variable slot the ``w_0``-heavy shapes come first.  These are the
    arrangements of ``total`` units and ``parts - 1`` bars, units first.
    """
    if parts == 0:
        return [()] if total == 0 else []
    return [tuple(map(len, "".join(a).split("|"))) for a in arrangements("o|", (total, parts - 1))]


def enumerate_templates(
    alphabet: Alphabet,
    arity: int,
    p: Sequence[int],
    e: int,
) -> Iterator[Template]:
    """Every template with the given length coefficients, exactly once.

    Deterministic order: slot sequences lexicographically, then constant
    length splits (front-loaded), then constant letters in alphabet order.
    """
    p = tuple(p)
    if len(p) != arity:
        raise ValueError("need one length coefficient per argument")
    if any(c < 0 for c in p) or e < 0:
        raise ValueError("length coefficients must be nonnegative")
    n = sum(p)
    # Templates share their constant Words: one pool per length, built once.
    pools = [
        [Word(alphabet, s) for s in strings_of_length(alphabet, k)]
        for k in range(e + 1)
    ]
    splits = _compositions(e, n + 1)
    for slots in arrangements(range(1, arity + 1), p):
        for lengths in splits:
            for constants in itertools.product(*(pools[k] for k in lengths)):
                yield Template(arity, alphabet, constants, slots)


# --------------------------------------------------------------------------
# Text format — round-trips byte-exactly:
#
#   arity 1
#   alphabet abc
#   "ab" x1 "" x1 "c"


def format_template(t: Template) -> str:
    return f"arity {t.arity}\nalphabet {t.alphabet}\n{t.body_text()}\n"


def parse_template(text: str) -> Template:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 3:
        raise FormatError("template file needs arity, alphabet and body lines")
    if not lines[0].startswith("arity "):
        raise FormatError("first line must be 'arity <k>'")
    try:
        arity = int(lines[0][len("arity "):])
    except ValueError as exc:
        raise FormatError(f"bad arity: {lines[0]!r}") from exc
    if not lines[1].startswith("alphabet "):
        raise FormatError("second line must be 'alphabet <letters>'")
    try:
        alphabet = Alphabet.of(lines[1][len("alphabet "):].strip())
    except ValueError as exc:
        raise FormatError(f"bad alphabet: {exc}") from exc

    constants: list[Word] = []
    variables: list[int] = []
    expect_const = True
    for token in lines[2].split():  # a letter is never whitespace
        if expect_const:
            if len(token) < 2 or not token.startswith('"') or not token.endswith('"'):
                raise FormatError(f"expected a quoted constant, got {token!r}")
            try:
                constants.append(Word(alphabet, token[1:-1]))
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        else:
            if not token.startswith("x") or not token[1:].isdigit():
                raise FormatError(f"expected a variable token like x1, got {token!r}")
            variables.append(int(token[1:]))
        expect_const = not expect_const
    if expect_const:
        raise FormatError("template body must end with a constant")
    try:
        return Template(arity, alphabet, tuple(constants), tuple(variables))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
