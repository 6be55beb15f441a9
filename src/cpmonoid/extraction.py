"""Recover a template from a black-box oracle, or catch it misbehaving.

On alphabets with at least three letters, every congruence-preserving word
function *is* a template, and the proof of that fact is an algorithm:

1. Probe output lengths.  A preserving function's lengths are affine in the
   argument lengths, which yields per-argument coefficients ``p_i`` and a
   constant term ``e`` (:func:`length_profile`).
2. Classify the head.  At every arity the first output letter arises in
   one of three ways: a fixed letter, the first letter of one particular
   argument, or none because the function is constantly empty
   (:func:`classify_head`, one probe plan for all arities).
3. Peel it off and repeat.  Stripping the identified head yields another
   preserving function whose size ``Σ p_i + e`` is exactly one smaller
   (:func:`peel`), so ``Σ p_i + e`` peels suffice (:func:`extract`).

Nothing forces the oracle to keep its promises, so each step carries cheap
consistency checks and the assembled template is re-validated against the
oracle on all short inputs.  Any lie surfaces as a :class:`NotRCP` outcome
naming the offending queries — never as a wrong template.

When the oracle accepts letters outside its declared alphabet there is a
shortcut (:func:`extract_fresh`): evaluate at a never-seen letter and read
the template off the output directly, recursing through fresh-letter
factors for higher arities.

A peeled head and a fresh-letter factor are the same kind of derived
oracle: it asks its parent, checks the promise the step made, and answers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from .oracles import OracleError, WordFunction
from .templates import LengthCoefficients, Template
from .words import Alphabet, Word, _Value, count_words, string_tuples_up_to

# Diagnosis vocabulary for NotRCP outcomes.
REASON_LENGTH = "length profile inconsistency"
REASON_AMBIGUOUS = "ambiguous head probes"
REASON_PEEL = "peel prefix violation"
REASON_BUDGET = "step budget exceeded"
REASON_VALIDATION = "validation mismatch"
REASON_SPLIT = "split cardinality mismatch"


def _quoted(args: tuple[str, ...]) -> str:
    """Argument letters in the quoted report syntax: ``"ab" "c"``."""
    return " ".join(f'"{a}"' for a in args) or '""'


class ProbeRecord(_Value):
    """One oracle query and what came back, as raw letters."""

    args: tuple[str, ...]
    output: str

    def render(self) -> str:
        return f'query: {_quoted(self.args)}\noutput: "{self.output}"'


class NotRCP(_Value):
    """Evidence that the oracle is not congruence preserving as claimed."""

    reason: str
    probes: tuple[ProbeRecord, ...]
    detail: str = ""

    def render(self) -> str:
        lines = ["NOT-RCP", f"reason: {self.reason}"]
        for probe in self.probes:
            lines.append(probe.render())
        if self.detail:
            lines.append(f"detail: {self.detail}")
        return "\n".join(lines)


class Extracted(_Value):
    """A validated template plus the number of oracle queries it cost."""

    template: Template
    query_count: int


ExtractionOutcome = Union[Extracted, NotRCP]


class ConstLetter(_Value):
    """Output always starts with this fixed letter."""

    letter: str


class Variable(_Value):
    """Output always starts with a copy of argument ``index`` (1-based)."""

    index: int


class ConstEmpty(_Value):
    """The function is constantly the empty word."""


HeadCase = Union[ConstLetter, Variable, ConstEmpty]


def render_head_case(case: HeadCase) -> str:
    if isinstance(case, ConstLetter):
        return f"constant-letter {case.letter}"
    if isinstance(case, Variable):
        return f"variable {case.index}"
    return "constant-empty"


class PeelViolation(OracleError):
    """A peeled function's output did not continue with the promised head.

    ``query`` (not Exception's own ``args``) holds the offending arguments.
    """

    def __init__(self, query: tuple[str, ...], output: str, expected: str) -> None:
        self.query = query
        self.output = output
        self.expected = expected
        super().__init__(str(self))

    def __str__(self) -> str:
        return (
            f'output "{self.output}" on {_quoted(self.query)} does not start '
            f"with {self.expected!r}"
        )


class _Derived(WordFunction):
    """A function answered by asking ``parent`` and checking a promise.

    Peeled heads and fresh-letter factors are both this shape: ``answer``
    is its ``_compute``, which forwards a key to the parent and raises the
    moment the parent breaks the promise.  So it answers through the same
    two memo entries as every other oracle, with a memo of its own.  Each
    of its keys is one parent key, so its ``query_count`` is the parent's.
    A peel's parent is the root, and its ``heads`` (letters, or 0-based
    argument indices) are all it strips from the root's output.
    """

    def __init__(
        self,
        parent: WordFunction,
        name: str,
        arity: int,
        answer: Callable[[tuple[str, ...]], str],
        heads: tuple[str | int, ...] = (),
    ) -> None:
        super().__init__(name, parent.alphabet, arity, parent.supports_extension)
        self.parent = parent
        self._compute = answer
        self.heads = heads

    @property
    def query_count(self) -> int:
        return self.parent.query_count


def peel(fn: WordFunction, case: HeadCase) -> WordFunction:
    """Strip a classified head; the result asserts the prefix on every call.

    It raises :class:`PeelViolation` the moment ``fn`` contradicts the head.
    A peel of a peel answers from ``fn``'s memo, or else from the root with
    every head checked in one loop, so no chain of oracles ever forms.
    """
    if isinstance(case, ConstEmpty):
        raise ValueError("cannot peel the constant-empty head")
    if isinstance(case, Variable) and not 1 <= case.index <= fn.arity:
        raise ValueError(f"variable index {case.index} out of range")
    if isinstance(case, ConstLetter) and case.letter not in fn.alphabet:
        raise ValueError(f"letter {case.letter!r} outside the base alphabet")

    root, heads = (fn.parent, fn.heads) if isinstance(fn, _Derived) and fn.heads else (fn, ())
    heads += (case.letter if isinstance(case, ConstLetter) else case.index - 1,)
    residue, newest = fn._cache.get, heads[-1:]  # fn's answers lack heads[:-1]

    def answer(key: tuple[str, ...]) -> str:
        out, todo = residue(key), newest
        if out is None:
            out, todo = root.evaluate_letters(key), heads
        for head in todo:
            prefix = head if isinstance(head, str) else key[head]
            if not out.startswith(prefix):
                raise PeelViolation(key, out, prefix)
            out = out[len(prefix):]
        return out

    return _Derived(root, f"peel[{render_head_case(case)}]({fn.name})", fn.arity, answer, heads)


def default_validation_len(arity: int, alphabet: Alphabet) -> int:
    """Validation depth: 3 for unary, 2 otherwise, capped near 10^5 queries."""
    bound = 3 if arity <= 1 else 2
    while bound > 0 and count_words(alphabet, bound) ** max(arity, 1) > 100_000:
        bound -= 1
    return bound


def _unit_tuple(
    fn: WordFunction, position: int, letters: str, fill: str
) -> tuple[str, ...]:
    """``fill`` everywhere except ``letters`` at the given 1-based position."""
    return (fill,) * (position - 1) + (letters,) + (fill,) * (fn.arity - position)


def length_profile(fn: WordFunction) -> LengthCoefficients | NotRCP:
    """Probe the affine length law; inconsistency is a :class:`NotRCP`.

    ``p_i`` is read off a single-letter probe in position ``i`` and
    cross-checked against a second letter, a two-letter probe, and an
    all-positions probe.  Requires at least two letters.
    """
    if len(fn.alphabet) < 2:
        raise ValueError("length profiling needs at least two letters")
    a, b = fn.alphabet.letters[:2]
    base_args = ("",) * fn.arity
    base_out = fn.evaluate_letters(base_args)
    base = ProbeRecord(base_args, base_out)
    e = len(base_out)
    offsets = tuple((ch, base_out.count(ch)) for ch in fn.alphabet.letters)
    p: list[int] = []
    single_probes: list[ProbeRecord] = []
    for i in range(1, fn.arity + 1):
        args_a = _unit_tuple(fn, i, a, "")
        out_a = fn.evaluate_letters(args_a)
        probe_a = ProbeRecord(args_a, out_a)
        single_probes.append(probe_a)
        p_i = len(out_a) - e
        if p_i < 0:
            return NotRCP(
                REASON_LENGTH,
                (base, probe_a),
                f"argument {i}: output shrank below the constant term",
            )
        args_b = _unit_tuple(fn, i, b, "")
        out_b = fn.evaluate_letters(args_b)
        if len(out_b) != len(out_a):
            return NotRCP(
                REASON_LENGTH,
                (probe_a, ProbeRecord(args_b, out_b)),
                f"argument {i}: equal-length inputs, unequal-length outputs",
            )
        p.append(p_i)
    # Mixed-length probes: a two-letter argument and the all-filled tuple.
    for i in range(1, fn.arity + 1):
        args_ab = _unit_tuple(fn, i, a + b, "")
        out_ab = fn.evaluate_letters(args_ab)
        if len(out_ab) != e + 2 * p[i - 1]:
            return NotRCP(
                REASON_LENGTH,
                (base, single_probes[i - 1], ProbeRecord(args_ab, out_ab)),
                f"argument {i}: length is not affine in the input length",
            )
    full_args = (a,) * fn.arity
    full_out = fn.evaluate_letters(full_args) if fn.arity else base_out
    if len(full_out) != e + sum(p):
        return NotRCP(
            REASON_LENGTH,
            (base, ProbeRecord(full_args, full_out)),
            "per-argument coefficients do not add up on the joint probe",
        )
    return LengthCoefficients(tuple(p), e, offsets)


def _conflict(claim: str, *probes: ProbeRecord) -> NotRCP:
    """An ambiguous head, shown by probes that no single head case fits."""
    return NotRCP(REASON_AMBIGUOUS, probes, claim)


def classify_head(fn: WordFunction) -> HeadCase | NotRCP:
    """Decide how the first output letter arises, by one probe plan for
    every arity.

    With ``a``, ``b``, ``c`` the first three letters, ask the all-``c``
    tuple, each position planted with ``a`` among ``c`` fill, each planted
    with ``b``, and the all-ε tuple.  An empty all-``c`` output means
    :class:`ConstEmpty`, and a head other than ``c`` there :class:`ConstLetter`.
    Otherwise the one position echoing its planted ``a``, and then its
    ``b``, is the :class:`Variable`; no echo means the constant ``c``.  Any
    probe that disagrees with the settled case returns a :class:`NotRCP`
    naming probes that no head case fits together.

    The probe set is sound for preserving functions and merely heuristic for
    adversaries — downstream validation remains the final word.
    """
    if len(fn.alphabet) < 3:
        raise ValueError("head classification needs at least three letters")
    a, b, c = fn.alphabet.letters[:3]
    k = fn.arity

    def probe(args: tuple[str, ...]) -> ProbeRecord:
        return ProbeRecord(args, fn.evaluate_letters(args))

    all_c = probe((c,) * k)
    planted_a = [probe(_unit_tuple(fn, i, a, c)) for i in range(1, k + 1)]
    planted_b = [probe(_unit_tuple(fn, i, b, c)) for i in range(1, k + 1)]
    eps = probe(("",) * k)

    if not all_c.output:
        for pr in (*planted_a, *planted_b, eps):
            if pr.output:
                return _conflict(
                    "empty and nonempty outputs cannot share one head", all_c, pr
                )
        return ConstEmpty()
    beta = all_c.output[0]

    if beta != c:
        # No argument can supply β here (they all start with c), so the head
        # must be the constant β — on every probe, ε-probe included.
        for pr in (*planted_a, *planted_b, eps):
            if not pr.output.startswith(beta):
                return _conflict(f"head letter {beta!r} is not constant", all_c, pr)
        return ConstLetter(beta)

    heads = []
    for pr in planted_a:
        if not pr.output:
            return _conflict("output vanished on a nonempty probe", all_c, pr)
        heads.append(pr.output[0])
    foreign = [h for h in heads if h not in (a, c)]
    if foreign:
        i = heads.index(foreign[0])
        return _conflict(
            f"planted-letter probe answered with unrelated head {foreign[0]!r}",
            all_c,
            planted_a[i],
        )
    marked = [i for i, h in enumerate(heads, start=1) if h == a]

    if not marked:
        # Nothing echoes the planted letter: the head is the constant c.  Each
        # planted-a probe rules out a variable head at its own position, and
        # the ε-probe leaves every position empty, so it needs them all.
        claim = f"head letter {c!r} is not constant"
        for pr_a, pr in zip(planted_a, planted_b):
            if not pr.output.startswith(c):
                return _conflict(claim, pr_a, pr)
        if not eps.output.startswith(c):
            return _conflict(claim, *planted_a, eps)
        return ConstLetter(c)
    if len(marked) > 1:
        claimants = [planted_a[i - 1] for i in marked[:2]]
        return _conflict("two argument positions both claim the head", all_c, *claimants)
    idx = marked[0]
    # Confirmation round with the letters swapped: the chosen position must
    # now echo b, everyone else must stay at c.  A reply led by a fits a
    # constant head a, which only the all-c probe rules out.
    for j, pr in enumerate(planted_b, start=1):
        want = b if j == idx else c
        if not pr.output.startswith(want):
            return _conflict(
                f"argument {idx} does not hold up as the head on the "
                "confirmation round",
                all_c if pr.output.startswith(a) else planted_a[idx - 1],
                pr,
            )
    return Variable(idx)


def _residual_probe_args(fn: WordFunction) -> Iterable[tuple[str, ...]]:
    """Inputs for the end-of-loop all-ε check, length-2 words included.

    Length-2 inputs matter: a liar that survived single-letter probes (a
    reversal, say) still has to reproduce two-letter prefixes through the
    accumulated peels, which trips the in-peel assertion.  The fill is the
    third letter, which :func:`extract` requires, or the second on the two
    letters that :func:`extract_fresh` accepts.
    """
    yield ("",) * fn.arity
    letters = fn.alphabet.letters[:4]
    alpha1, alpha2 = letters[:2]
    if fn.arity == 1:
        for ch in letters:
            yield _unit_tuple(fn, 1, ch, "")
        for pair in (alpha1 + alpha1, alpha1 + alpha2, alpha2 + alpha1, alpha2 + alpha2):
            yield _unit_tuple(fn, 1, pair, "")
        return
    for ch in letters[:3]:
        yield (ch,) * fn.arity
    fill = letters[2] if len(letters) > 2 else alpha2
    for i in range(1, fn.arity + 1):
        yield _unit_tuple(fn, i, alpha1, fill)
        yield _unit_tuple(fn, i, alpha1 + alpha2, fill)


def _mismatch(
    fn: WordFunction, template: Template, keys: Iterable[tuple[str, ...]]
) -> NotRCP | None:
    """The first of ``keys`` on which oracle and template disagree, as a
    validation :class:`NotRCP`, or ``None``."""
    found = fn.first_mismatch(keys, template._apply)
    if found is None:
        return None
    args, got = found
    return NotRCP(
        REASON_VALIDATION,
        (ProbeRecord(args, got),),
        f"candidate template {template} predicts \"{template._apply(args)}\"",
    )


def _validate(
    fn: WordFunction, template: Template, validation_len: int | None, queries_before: int
) -> ExtractionOutcome:
    """Compare oracle and template on every argument tuple up to the bound.

    One pass in enumeration order through the oracle's whole-sweep memo
    entry, stopping at the first mismatch.  A sweep of at most 16,384
    tuples (on ``abc`` and ``abcd``, every default sweep up to arity 3)
    shares its tuples with every other oracle of its shape; a larger one
    streams, so a liar under a large bound is caught without the sweep
    being built.  Where the default bound falls below 2 (from arity 5 on
    ``abc``), the residual probes that peeling asks come first, since the
    sweep would miss their two-letter words; after a peel loop that used
    its whole budget they are memo hits.
    """
    if validation_len is None:
        validation_len = default_validation_len(fn.arity, fn.alphabet)
        if validation_len < 2:
            refuted = _mismatch(fn, template, _residual_probe_args(fn))
            if refuted is not None:
                return refuted
    refuted = _mismatch(
        fn, template, string_tuples_up_to(fn.alphabet, fn.arity, validation_len)
    )
    if refuted is not None:
        return refuted
    return Extracted(template, fn.query_count - queries_before)


def extract(
    fn: WordFunction, validation_len: int | None = None
) -> ExtractionOutcome:
    """Recover a template from the oracle by head-peeling, then validate.

    Needs at least three letters; smaller alphabets are outside the method's
    guarantees (on two letters the question is genuinely open) and are
    refused with a :exc:`ValueError` rather than answered unreliably.
    """
    if len(fn.alphabet) < 3:
        raise ValueError(
            "extraction requires an alphabet of at least three letters; "
            f"got {fn.alphabet} (the two-letter case has no known method)"
        )
    queries_before = fn.query_count

    profile = length_profile(fn)
    if isinstance(profile, NotRCP):
        return profile
    budget = profile.size

    constants: list[str] = [""]
    slots: list[int] = []
    current: WordFunction = fn
    try:
        for _ in range(budget):
            case = classify_head(current)
            if isinstance(case, NotRCP):
                return case
            if isinstance(case, ConstEmpty):
                # The residue claims to be done ahead of its budget; the
                # final validation will judge the whole story.
                break
            if isinstance(case, ConstLetter):
                constants[-1] += case.letter
            else:
                slots.append(case.index)
                constants.append("")
            current = peel(current, case)
        else:
            for args in _residual_probe_args(current):
                if current.evaluate_letters(args):
                    return NotRCP(
                        REASON_BUDGET,
                        (ProbeRecord(args, fn.evaluate_letters(args)),),
                        f"residue still produces output after {budget} peels",
                    )
    except PeelViolation as violation:
        return NotRCP(
            REASON_PEEL,
            (ProbeRecord(violation.query, fn.evaluate_letters(violation.query)),),
            str(violation),
        )

    template = Template(
        fn.arity,
        fn.alphabet,
        tuple(Word(fn.alphabet, w) for w in constants),
        tuple(slots),
    )
    return _validate(fn, template, validation_len, queries_before)


# --------------------------------------------------------------------------
# Fresh-letter extraction


# Candidates for fresh letters, tried in order and skipped once seen anywhere.
_FRESH_POOL = (
    "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz@#$%&*+-/:;<>?^_~"
)


def _fresh_letter(seen: set[str]) -> str:
    """The first pool letter not in ``seen``, which is then marked seen."""
    for ch in _FRESH_POOL:
        if ch not in seen:
            seen.add(ch)
            return ch
    raise OracleError("ran out of candidate fresh letters")


class _SplitMismatch(Exception):
    """A split at a fresh letter gave the wrong number of factors.

    ``args[0]`` is the :class:`NotRCP` that reports it.
    """


def _split_factor(
    parent: WordFunction, fresh: str, index: int, parts: int, seen: set[str]
) -> WordFunction:
    """Factor ``index`` of ``parent(fresh, x⃗)`` as a derived oracle.

    The output, with the fresh letter in front of the argument letters, must
    split into exactly ``parts`` factors around it; its letters join
    ``seen``.  Sibling factors share the parent's memo, so they cost no
    extra queries.
    """

    def answer(key: tuple[str, ...]) -> str:
        query = (fresh, *key)
        out = parent.evaluate_letters(query)
        seen.update(out)
        pieces = out.split(fresh)
        if len(pieces) != parts:
            raise _SplitMismatch(NotRCP(
                REASON_SPLIT,
                (ProbeRecord(query, out),),
                f"expected {parts} fresh-letter factors, got {len(pieces)}",
            ))
        return pieces[index]

    return _Derived(parent, f"{parent.name}/factor{index}", parent.arity - 1, answer)


def _extract_fresh_template(fn: WordFunction, seen: set[str]) -> Template | NotRCP:
    """The template read off fresh-letter outputs; ``seen`` holds used letters."""
    if fn.arity >= 2:
        profile = length_profile(fn)
        if isinstance(profile, NotRCP):
            return profile
        parts = profile.p[0] + 1
        fresh = _fresh_letter(seen)
        subs: list[Template] = []
        for i in range(parts):
            factor = _split_factor(fn, fresh, i, parts, seen)
            sub = _extract_fresh_template(factor, seen)
            if isinstance(sub, NotRCP):
                return sub
            subs.append(sub)
        return _splice(fn, subs)

    # Arity 0 reads its one constant; arity 1 splits at a fresh letter.
    if fn.arity == 0:
        args: tuple[str, ...] = ()
        what = "constant output uses"
    else:
        args = (_fresh_letter(seen),)
        what = "fresh-letter factors use"
    out = fn.evaluate_letters(args)
    seen.update(out)
    pieces = out.split(args[0]) if args else [out]
    bad = sorted(set("".join(pieces)) - fn.alphabet.letter_set)
    if bad:
        return NotRCP(
            REASON_SPLIT,
            (ProbeRecord(args, out),),
            f"{what} letters {bad} outside the alphabet",
        )
    return Template(
        fn.arity,
        fn.alphabet,
        tuple(Word(fn.alphabet, piece) for piece in pieces),
        (1,) * (len(pieces) - 1),
    )


def _splice(fn: WordFunction, subs: list[Template]) -> Template:
    """Interleave (k-1)-ary factor templates with first-argument slots.

    Each factor keeps its own constant/slot alternation (its slots shifted
    up by one, since inner x_j is outer x_{j+1}) and the factor boundaries
    contribute the x1 slots, so the counts line up by construction.  The
    factors share ``fn``'s alphabet, so their constants are reused as is.
    """
    constants: list[Word] = []
    slots: list[int] = []
    for i, sub in enumerate(subs):
        if i:
            slots.append(1)
        constants.extend(sub.constants)
        slots.extend(v + 1 for v in sub.variables)
    return Template(fn.arity, fn.alphabet, tuple(constants), tuple(slots))


def extract_fresh(
    fn: WordFunction, validation_len: int | None = None
) -> ExtractionOutcome:
    """Read the template off outputs at never-before-seen letters.

    A unary oracle costs a *single* query before validation: evaluating at a
    fresh letter and splitting the output on it exposes the constants
    directly.  A k-ary oracle is profiled, evaluated with a fresh letter in
    front, and its fresh-letter factors are recursively extracted as
    (k-1)-ary derived oracles; the results are spliced back together.
    Validation against the oracle on short base-alphabet inputs, peel
    probes included where the default bound falls below 2, is the same as
    for :func:`extract`.

    Requires ``fn.supports_extension``; for oracles pinned to their alphabet
    use :func:`extract`.
    """
    if not fn.supports_extension:
        raise ValueError(
            f"{fn.name} does not accept letters outside its alphabet; "
            "fresh-letter extraction is unavailable"
        )
    queries_before = fn.query_count
    try:
        template = _extract_fresh_template(fn, set(fn.alphabet.letters))
    except _SplitMismatch as mismatch:
        return mismatch.args[0]
    if isinstance(template, NotRCP):
        return template
    return _validate(fn, template, validation_len, queries_before)
