import collections
import itertools
import random

import hypothesis
import pytest

from cpmonoid import (
    BuiltinFunction,
    CertifiedCP,
    ConstEmpty,
    ConstLetter,
    Extracted,
    LengthCoefficients,
    NotRCP,
    OracleError,
    PeelViolation,
    TableFunction,
    Template,
    TemplateFunction,
    Variable,
    builtin,
    classify_head,
    count_words,
    extensional_equal,
    extract,
    extract_fresh,
    length_profile,
    peel,
    render_head_case,
    theorem_check,
)
from cpmonoid.extraction import default_validation_len
from cpmonoid.words import strings_up_to

from conftest import ABC, ABCD, AB, count_word_constructions, templates


def fn_of(*parts, alphabet=ABC, arity=None):
    return TemplateFunction(Template.of(alphabet, *parts, arity=arity))


# ---------------------------------------------------------------- profiling


def test_length_profile_frozen():
    fn = fn_of("a", 1, "b", 1, "c")
    c = length_profile(fn)
    assert c.p == (2,)
    assert c.e == 3
    assert dict(c.per_letter_offset) == {"a": 1, "b": 1, "c": 1}


def test_length_profile_binary():
    fn = fn_of("", 2, "c", 1, "", 2, "")
    c = length_profile(fn)
    assert c.p == (1, 2)
    assert c.e == 1
    assert c.size == 4


@hypothesis.given(templates())
def test_length_profile_matches_template(t):
    got = length_profile(TemplateFunction(t))
    want = t.coefficients()
    assert got.p == want.p
    assert got.e == want.e
    assert got.per_letter_offset == want.per_letter_offset


def test_length_profile_rejects_erasure():
    out = length_profile(builtin("erase_a", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "length profile inconsistency"
    assert out.probes  # the conflicting queries are reported


def test_length_profile_rejects_first_letter():
    out = length_profile(builtin("first_letter_or_empty", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "length profile inconsistency"


def test_length_profile_needs_two_letters():
    import cpmonoid

    single = cpmonoid.Alphabet.of("a")
    fn = fn_of("a", 1, "", alphabet=single)
    with pytest.raises(ValueError):
        length_profile(fn)


# ------------------------------------------------------------ head classify


def analytic_head(t):
    """Independent oracle: read the head straight off the template."""
    if t.constants[0].letters:
        return ConstLetter(t.constants[0].letters[0])
    if t.variables:
        # skip slots bound to patterns that may be empty: the head is the
        # first slot only if every arg is nonempty, which classify handles
        return Variable(t.variables[0])
    return ConstEmpty()


def test_classify_frozen_cases():
    assert classify_head(fn_of("b", 1, "")) == ConstLetter("b")
    assert classify_head(fn_of("", 1, "a")) == Variable(1)
    assert classify_head(fn_of("", arity=1)) == ConstEmpty()
    assert classify_head(fn_of("", 2, "", arity=3)) == Variable(2)


def test_classify_arity_zero():
    assert classify_head(fn_of("ab", arity=0)) == ConstLetter("a")
    assert classify_head(fn_of("", arity=0)) == ConstEmpty()


def test_classify_binary_swap():
    # F(x, y) = y x leads with its second argument
    swap = fn_of("", 2, "", 1, "")
    assert classify_head(swap) == Variable(2)


@hypothesis.given(templates() | templates(ABCD))
def test_classify_matches_analytic_head(t):
    # an empty-prefix template may still start with a constant letter when
    # its leading slot is empty (e.g. "" x1 "a" on empty x1), but the
    # planted probes are nonempty, so Variable is right there too
    assert classify_head(TemplateFunction(t)) == analytic_head(t)


def test_classify_unary_asks_epsilon_and_three_letters():
    asked = []
    fn = BuiltinFunction("echo", ABCD, lambda key: asked.append(key) or key[0])
    assert classify_head(fn) == Variable(1)
    assert sorted(asked) == [("",), ("a",), ("b",), ("c",)]
    assert fn.query_count == 4


def test_classify_rejects_collapse():
    out = classify_head(builtin("collapse_b_to_a", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "ambiguous head probes"


def head_fits(case, probe):
    """Whether one probe's output can start the way ``case`` says.

    A variable whose argument is empty in the probe leaves the head to what
    follows it, so it fits any output there.
    """
    if isinstance(case, ConstEmpty):
        return probe.output == ""
    if isinstance(case, ConstLetter):
        return probe.output[:1] == case.letter
    x = probe.args[case.index - 1]
    return not x or probe.output[:1] == x[0]


def liars(corpus):
    """Non-preserving builtins and the benchmark's perturbed templates, as
    (label, factory) pairs over abc and abcd at arities 1-3."""
    out = [(f"builtin {name}", lambda name=name: builtin(name, ABC))
           for name in corpus.NONPRESERVING_BUILTINS]
    # arity 2: both positions echo a planted a, so only the all-c probe
    # rules out the constant head a
    out.append(("either echoes a", lambda: BuiltinFunction(
        "either", ABC, lambda key: "a" if "a" in "".join(key) else "c", arity=2)))
    for alphabet in (ABC, ABCD):
        shapes, letters = random.Random(1), random.Random(2)
        for arity in (1, 2, 3):
            for _ in range(12):
                t = corpus.random_template(shapes, letters, alphabet, arity, max_size=6, min_slots=1)
                perturbed = [
                    (f"{name}@{slot + 1}", corpus._slot_perturbed(t, slot, g))
                    for name, g in corpus.SLOT_PERTURBATIONS.items()
                    for slot in range(len(t.variables))
                ] + [(f"reversed_beyond_{k}", corpus._reversed_beyond(t, k))
                     for k in corpus.REVERSE_BEYOND]
                out.extend(
                    (f"{name} {t}", lambda f=f, t=t: BuiltinFunction("p", t.alphabet, f, arity=t.arity))
                    for name, f in perturbed
                )
    return out


def test_classify_conflicts_replay_and_admit_no_head(corpus):
    found = collections.Counter()
    for label, make in liars(corpus):
        out = classify_head(make())
        if not isinstance(out, NotRCP):
            continue
        arity = make().arity
        found[arity, len(out.probes)] += 1
        assert out.reason == "ambiguous head probes", label
        assert len(out.probes) == 2 or arity >= 2, label
        fresh = make()
        for probe in out.probes:
            assert fresh.evaluate_letters(probe.args) == probe.output, label
        # a constant head letter that fits every probe leads one of them
        cases = [ConstEmpty()]
        cases += [ConstLetter(probe.output[0]) for probe in out.probes if probe.output]
        cases += [Variable(i) for i in range(1, arity + 1)]
        fitting = [case for case in cases if all(head_fits(case, pr) for pr in out.probes)]
        assert not fitting, (label, fitting)
    # unary liars name two probes; the ε-probe at arity 2 and 3 and the
    # rival echoes need every planted-a probe, and the rivals the all-c one
    assert sum(n for (arity, _), n in found.items() if arity == 1) >= 30
    assert found[2, 3] and found[3, 4]


def test_classify_needs_three_letters():
    with pytest.raises(ValueError):
        classify_head(fn_of("", 1, "", alphabet=AB))


def test_render_head_case():
    assert render_head_case(ConstLetter("b")) == "constant-letter b"
    assert render_head_case(Variable(2)) == "variable 2"
    assert render_head_case(ConstEmpty()) == "constant-empty"


# ------------------------------------------------------------------ peeling


def test_peel_constant_letter():
    fn = fn_of("ab", 1, "")
    peeled = peel(fn, ConstLetter("a"))
    assert peeled("c").letters == "bc"


def test_peel_variable():
    fn = fn_of("", 1, "b")
    peeled = peel(fn, Variable(1))
    assert peeled("ca").letters == "b"
    assert peeled("").letters == "b"


def test_peel_violation_carries_query():
    fn = builtin("reverse", ABC)
    peeled = peel(fn, Variable(1))  # reverse('ab') = 'ba', no 'ab' prefix
    with pytest.raises(PeelViolation) as exc_info:
        peeled("ab")
    v = exc_info.value
    assert v.query == ("ab",)
    assert v.output == "ba"
    assert v.expected == "ab"


def test_peel_rejects_const_empty():
    with pytest.raises(ValueError):
        peel(fn_of("", 1, ""), ConstEmpty())


def chained_peel(fn, cases):
    """The residue after peeling ``cases`` one by one, as a chain of plain
    functions: the reference a deep peel answers like, without its memos."""
    def level(parent, case):
        def answer(key):
            out = parent(key)
            prefix = case.letter if isinstance(case, ConstLetter) else key[case.index - 1]
            if not out.startswith(prefix):
                raise PeelViolation(key, out, prefix)
            return out[len(prefix):]
        return answer

    answer = fn.evaluate_letters
    for case in cases:
        answer = level(answer, case)
    return answer


def test_a_deep_peel_answers_and_fails_like_the_chain_of_peels():
    # (a x1)^300 "c", with the 250th "a" head claimed to be a "b"
    fn = fn_of(*["a", 1] * 300, "c")
    cases = [ConstLetter("a"), Variable(1)] * 300
    cases[498] = ConstLetter("b")
    peels, names = [fn], [fn.name]
    for case in cases:
        peels.append(peel(peels[-1], case))
        names.append(f"peel[{render_head_case(case)}]({names[-1]})")
    reference = TemplateFunction(fn.template)
    # deep levels first, each answering from the root; then every level in
    # order, each answering from the memo of the level it peels
    for depth in [600, 499, 498, 497, 2, 1, *range(1, 601)]:
        current, chain = peels[depth], chained_peel(reference, cases[:depth])
        assert current.name == names[depth]
        for key in [("",), ("b",), ("ab",), ("c",)]:
            try:
                want = chain(key)
            except PeelViolation as violation:
                with pytest.raises(PeelViolation) as got:
                    current.evaluate_letters(key)
                assert (got.value.query, got.value.output, got.value.expected) == (
                    violation.query, violation.output, violation.expected)
            else:
                assert current.evaluate_letters(key) == want
        assert current.query_count == fn.query_count == reference.query_count
    assert list(fn._cache) == list(reference._cache)


LARGE_TEMPLATES = [
    # 600 slots, far past one nested call per peel
    (("", *[1, ""] * 600), 40),
    (("ab" * 300, 1, "c" * 600), 40),
    (("a", *[1, "b", 2, "c"] * 150), 169),
]


@pytest.mark.parametrize("parts,queries", LARGE_TEMPLATES)
def test_large_templates_are_extracted_and_certified(parts, queries):
    template = Template.of(ABC, *parts)
    fn = TemplateFunction(template)
    outcome = extract(fn)
    assert isinstance(outcome, Extracted) and outcome.template == template
    assert outcome.query_count == fn.query_count == queries
    verdict = theorem_check(TemplateFunction(template))
    assert isinstance(verdict, CertifiedCP)
    assert (verdict.template, verdict.query_count) == (template, queries)


# --------------------------------------------------------------- extraction


def test_extract_identity():
    got = extract(fn_of("", 1, ""))
    assert isinstance(got, Extracted)
    assert str(got.template) == '"" x1 ""'


def test_extract_frozen_example():
    got = extract(fn_of("a", 1, "b", 1, "c"))
    assert isinstance(got, Extracted)
    assert str(got.template) == '"a" x1 "b" x1 "c"'


def test_extract_constant():
    got = extract(fn_of("cab", arity=1))
    assert isinstance(got, Extracted)
    assert got.template.eval([ABC.word("bbb")]).letters == "cab"


def test_extract_binary():
    got = extract(fn_of("", 2, "a", 1, "", 2, ""))
    assert isinstance(got, Extracted)
    assert got.template.variables == (2, 1, 2)


def test_extract_refuses_small_alphabets():
    with pytest.raises(ValueError):
        extract(fn_of("", 1, "", alphabet=AB))


def assert_each_peel_shrinks_profile(fn):
    """Walk extract's classify/peel loop on ``fn``, re-profiling every
    residue: each peel must lower the size ``Σ p_i + e`` by exactly one."""
    size = length_profile(fn).size
    current = fn
    for step in range(size):
        case = classify_head(current)
        assert isinstance(case, (ConstLetter, Variable)), case
        current = peel(current, case)
        reprofile = length_profile(current)
        assert isinstance(reprofile, LengthCoefficients), reprofile
        assert reprofile.size == size - step - 1, (
            f"peel did not shrink the profile: {reprofile.size} "
            f"after {step + 1} of {size}"
        )


@hypothesis.given(templates())
@hypothesis.settings(deadline=None, max_examples=40)
def test_extract_round_trip(t):
    got = extract(TemplateFunction(t))
    assert isinstance(got, Extracted), got.render() if isinstance(got, NotRCP) else got
    assert extensional_equal(got.template, t, 2)
    assert_each_peel_shrinks_profile(TemplateFunction(t))


def test_extract_unary_query_budget():
    # peel wrappers pass arguments through unchanged, so the memoized base
    # never sees more distinct words than the validation ball
    fn = fn_of("ab", 1, "c", 1, "ba")
    got = extract(fn)
    assert isinstance(got, Extracted)
    assert 5 <= got.query_count <= count_words(ABC, 3)


def test_extract_reverse_fails_at_peel():
    out = extract(builtin("reverse", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "peel prefix violation"
    # the offending probe and raw output are carried for reporting
    (probe,) = out.probes
    assert probe.output == "".join(
        reversed(probe.args[0])
    )


def test_extract_sort_fails():
    out = extract(builtin("sort_letters", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "peel prefix violation"


def test_extract_square_succeeds():
    # squaring is a genuine template: x1 x1
    got = extract(builtin("square", ABC))
    assert isinstance(got, Extracted)
    assert str(got.template) == '"" x1 "" x1 ""'


def test_extract_collapse_fails_ambiguous():
    out = extract(builtin("collapse_b_to_a", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "ambiguous head probes"


def test_extract_erase_fails_length():
    out = extract(builtin("erase_a", ABC))
    assert isinstance(out, NotRCP)
    assert out.reason == "length profile inconsistency"


def test_not_rcp_render_shape():
    out = extract(builtin("reverse", ABC))
    text = out.render()
    assert text.startswith("NOT-RCP")
    assert "reason: peel prefix violation" in text
    assert "query:" in text
    assert "output:" in text


def test_extract_validation_catches_liars():
    # agrees with "a" x1 on every probe the peeler makes, then cheats on one
    # longer word: only the validation sweep can catch it
    from cpmonoid import BuiltinFunction

    def liar(args):
        s = args[0]
        if s == "abc":
            return "a" + s[::-1]
        return "a" + s

    fn = BuiltinFunction("liar", ABC, liar)
    out = extract(fn, validation_len=3)
    assert isinstance(out, NotRCP)
    assert out.reason == "validation mismatch"
    assert "predicts" in out.detail  # names the candidate and its prediction


def test_extract_validation_sweeps_to_the_last_tuple(monkeypatch):
    # a binary liar that departs from its template only on the last tuple
    # the default sweep (words of length <= 2) reaches
    from cpmonoid import BuiltinFunction, ProbeRecord
    from cpmonoid import extraction

    t = Template.of(ABC, "a", 1, "b", 2, "")
    swept = list(itertools.product(strings_up_to(ABC, 2), repeat=2))
    last = swept[-1]
    assert last == ("cc", "cc")
    calls = []

    def liar(args):
        calls.append(args)
        return "acccbc" if args == last else t.eval_letters(args)

    sweep_start = []
    validate = extraction._validate

    def recording_validate(*args):
        sweep_start.append(len(calls))
        return validate(*args)

    monkeypatch.setattr(extraction, "_validate", recording_validate)
    fn = BuiltinFunction("liar", ABC, liar, arity=2)
    out = extract(fn)
    assert out == NotRCP(
        "validation mismatch",
        (ProbeRecord(last, "acccbc"),),
        'candidate template "a" x1 "b" x2 "" predicts "accbcc"',
    )
    (n,) = sweep_start
    probes = calls[:n]
    # the sweep asks every tuple in enumeration order, the memo answering
    # the ones extraction already probed, and stops at the mismatch
    assert calls[n:] == [args for args in swept if args not in set(probes)]
    assert fn.query_count == len(set(probes) | set(swept)) == len(calls)


def test_extract_builds_no_word_per_query(monkeypatch):
    fn = fn_of("", 1, "", 2, "", 3, "ab")
    built = count_word_constructions(monkeypatch)
    got = extract(fn)
    assert isinstance(got, Extracted)
    assert got.query_count == 2197
    assert built[0] < 50


def test_default_validation_len():
    assert default_validation_len(1, ABC) == 3
    assert default_validation_len(2, ABC) == 2
    # huge alphabets shrink the bound to keep the query count near 1e5
    import cpmonoid

    big = cpmonoid.Alphabet.of(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    )
    assert default_validation_len(3, big) <= 1


# -------------------------------------------------------- fresh-letter path


def test_extract_fresh_identity_query_count():
    fn = fn_of("", 1, "")
    got = extract_fresh(fn)
    assert isinstance(got, Extracted)
    # one split query; everything else is the validation sweep
    assert got.query_count == 1 + count_words(ABC, 3)


def test_extract_fresh_reads_constants_directly():
    fn = fn_of("ab", 1, "", 1, "c")
    got = extract_fresh(fn)
    assert isinstance(got, Extracted)
    assert str(got.template) == '"ab" x1 "" x1 "c"'
    assert got.query_count == 1 + count_words(ABC, 3)


def test_extract_fresh_constant_function():
    got = extract_fresh(fn_of("ba", arity=1))
    assert isinstance(got, Extracted)
    assert got.template.eval([ABC.word("c")]).letters == "ba"


def test_extract_fresh_binary():
    fn = fn_of("", 2, "a", 1, "", 2, "")
    got = extract_fresh(fn)
    assert isinstance(got, Extracted)
    assert got.template.variables == (2, 1, 2)
    assert extensional_equal(got.template, fn.template, 2)


def test_extract_fresh_ternary():
    fn = fn_of("c", 3, "", 1, "ab", 2, "", arity=3)
    got = extract_fresh(fn)
    assert isinstance(got, Extracted)
    assert extensional_equal(got.template, fn.template, 2)


@hypothesis.given(templates(max_arity=2, max_slots=3, max_const=2))
@hypothesis.settings(deadline=None, max_examples=25)
def test_extract_fresh_agrees_with_plain(t):
    fn1 = TemplateFunction(t)
    fn2 = TemplateFunction(t)
    plain = extract(fn1)
    fresh = extract_fresh(fn2)
    assert isinstance(plain, Extracted) and isinstance(fresh, Extracted)
    assert extensional_equal(plain.template, fresh.template, 2)


def test_extract_fresh_requires_extension():
    fn = builtin("sort_letters", ABC)
    with pytest.raises(ValueError):
        extract_fresh(fn)


def test_extract_fresh_rejects_reverse():
    out = extract_fresh(builtin("reverse", ABC))
    assert isinstance(out, NotRCP)
    # reversal moves the planted fresh letter to the back: the split factor
    # count comes out wrong or validation trips, depending on arity
    assert out.reason in ("split cardinality mismatch", "validation mismatch")


def test_extract_fresh_rejects_erase():
    out = extract_fresh(builtin("erase_a", ABC))
    assert isinstance(out, NotRCP)


# ------------------------------------------- NotRCP renders, byte for byte


def _render(outcome):
    assert isinstance(outcome, NotRCP)
    return outcome.render()


def test_render_split_mismatch():
    # on alphabet inputs x+y, but a foreign y comes back alone: factor 0 of
    # the split at the fresh letter "0" finds one piece instead of two
    from cpmonoid import BuiltinFunction

    def f(args):
        x, y = args
        return x + y if set(y) <= set("abc") else y

    fn = BuiltinFunction("f", ABC, f, arity=2, supports_extension=True)
    assert _render(extract_fresh(fn)) == (
        "NOT-RCP\n"
        "reason: split cardinality mismatch\n"
        'query: "0" "1"\n'
        'output: "1"\n'
        "detail: expected 2 fresh-letter factors, got 1"
    )


def test_render_peel_violation():
    from cpmonoid import BuiltinFunction

    fn = BuiltinFunction("f", ABC, lambda a: a[0] if len(a[0]) < 2 else a[0][::-1])
    assert _render(extract(fn)) == (
        "NOT-RCP\n"
        "reason: peel prefix violation\n"
        'query: "ab"\n'
        'output: "ba"\n'
        "detail: output \"ba\" on \"ab\" does not start with 'ab'"
    )


def test_render_letter_leak_unary():
    from cpmonoid import BuiltinFunction

    fn = BuiltinFunction("f", ABC, lambda a: a[0] + "Z", supports_extension=True)
    assert _render(extract_fresh(fn)) == (
        "NOT-RCP\n"
        "reason: split cardinality mismatch\n"
        'query: "0"\n'
        'output: "0Z"\n'
        "detail: fresh-letter factors use letters ['Z'] outside the alphabet"
    )


def test_render_letter_leak_constant():
    from cpmonoid import BuiltinFunction

    fn = BuiltinFunction("f", ABC, lambda a: "aZ", arity=0, supports_extension=True)
    assert _render(extract_fresh(fn)) == (
        "NOT-RCP\n"
        "reason: split cardinality mismatch\n"
        'query: ""\n'
        'output: "aZ"\n'
        "detail: constant output uses letters ['Z'] outside the alphabet"
    )


# ------------------------------------------- validation sweep vs a plain loop

LIAR_HIDDEN = {
    1: Template.of(ABC, "b", 1, "ca", 1, ""),
    2: Template.of(ABC, "a", 2, "", 1, "c"),
    3: Template.of(ABC, "", 3, "b", 1, "", 2, "a"),
}


def reference_validate(fn, template, validation_len, queries_before):
    """The validation sweep as a sequential loop, each prediction spelled out."""
    from cpmonoid import ProbeRecord

    if validation_len is None:
        validation_len = default_validation_len(fn.arity, fn.alphabet)
    words = list(strings_up_to(fn.alphabet, validation_len))
    for args in itertools.product(words, repeat=fn.arity):
        got = fn.evaluate_letters(args)
        want = template.constants[0].letters
        for v, w in zip(template.variables, template.constants[1:]):
            want += args[v - 1] + w.letters
        if got != want:
            return NotRCP(
                "validation mismatch",
                (ProbeRecord(args, got),),
                f'candidate template {template} predicts "{want}"',
            )
    return Extracted(template, fn.query_count - queries_before)


# name -> (extraction run, how the lying oracle is built)
ORACLE_KINDS = {
    "peel": (extract, "extension"),
    "fresh": (extract_fresh, "extension"),
    # no extension letters, so every miss runs the letter checks
    "pinned": (extract, "pinned"),
    # a derived oracle answers the sweep through its own promise
    "peeled": (extract, "peeled"),
    # the lie is a missing entry: the miss raises and is still counted
    "table": (extract, "table"),
}


def run_liar(hidden, target, kind):
    """Extraction of kind ``kind`` on an oracle that lies only at
    ``target``: (outcome or raised error, query count, memo keys in
    insertion order, backend misses in order)."""
    runner, build = ORACLE_KINDS[kind]
    misses = []
    if build == "table":
        words = strings_up_to(ABC, default_validation_len(hidden.arity, ABC))
        table = {
            key: hidden.eval_letters(key)
            for key in itertools.product(list(words), repeat=hidden.arity)
            if key != target
        }
        fn = TableFunction(ABC, hidden.arity, table, name="liar")
        lookup = fn._compute

        def record(key):
            misses.append(key)
            return lookup(key)

        fn._compute = record
    else:
        def backend(key):
            misses.append(key)
            out = hidden.eval_letters(key)
            out = "a" + out if key == target else out
            # a peeled oracle sees the answer without its head c
            return "c" + out if build == "peeled" else out

        fn = BuiltinFunction(
            "liar", ABC, backend, arity=hidden.arity, supports_extension=build != "pinned"
        )
    try:
        outcome = runner(peel(fn, ConstLetter("c")) if build == "peeled" else fn)
    except OracleError as exc:
        outcome = (type(exc), str(exc))
    return outcome, fn.query_count, list(fn._cache), misses


@pytest.mark.parametrize("kind", list(ORACLE_KINDS))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_validation_sweep_matches_a_sequential_loop(monkeypatch, arity, where, kind):
    from cpmonoid import ProbeRecord, TableMissError
    from cpmonoid import extraction

    hidden = LIAR_HIDDEN[arity]
    words = list(strings_up_to(ABC, default_validation_len(arity, ABC)))
    sweep = list(itertools.product(words, repeat=arity))
    # tuples extraction never asks before its sweep, so that the lie
    # surfaces in the sweep
    with monkeypatch.context() as patch:
        patch.setattr(extraction, "_validate", lambda *args: None)
        _, _, _, asked = run_liar(hidden, None, kind)
    unasked = [args for args in sweep if args not in set(asked)]
    assert sweep[-1] == unasked[-1]
    target = {"first": unasked[0], "middle": unasked[len(unasked) // 2], "last": unasked[-1]}[where]

    shipped = run_liar(hidden, target, kind)
    with monkeypatch.context() as patch:
        patch.setattr(extraction, "_validate", reference_validate)
        reference = run_liar(hidden, target, kind)
    assert shipped == reference
    outcome, queries, memo, misses = shipped
    # the sweep stops at the lie: nothing after it in enumeration order was asked
    assert misses[-1] == target and queries == len(misses)
    if kind == "table":
        missing = ", ".join(repr(k) for k in target)
        assert outcome == (TableMissError, f"liar: no entry for ({missing})")
        assert memo == misses[:-1]  # counted, but nothing to remember
        return
    assert outcome.reason == "validation mismatch"
    assert outcome.probes == (ProbeRecord(target, "a" + hidden.eval_letters(target)),)
    assert memo == misses


@pytest.mark.parametrize(
    "key", [("a",), ("a", "b", "c"), ("a", "bz"), ("Zq", "")], ids=["short", "long", "letter", "letters"]
)
@pytest.mark.parametrize("kind", ["builtin", "table"])
def test_sweep_refuses_a_bad_key_as_evaluate_letters_does(kind, key):
    def make():
        if kind == "table":
            return TableFunction(ABC, 2, {("a", "b"): "ab"})
        return BuiltinFunction("join", ABC, "".join, arity=2)

    errors = []
    for ask in (
        lambda fn: [fn.evaluate_letters(args) for args in (("a", "b"), key)],
        lambda fn: fn.first_mismatch([("a", "b"), key], "".join),
    ):
        fn = make()
        with pytest.raises(Exception) as info:
            ask(fn)
        errors.append((type(info.value), str(info.value), fn.query_count))
    assert errors[0] == errors[1]
    # the good key was asked, the bad one never reached the backend
    assert errors[0][2] == 1 and errors[0][0] is (ValueError if len(key) != 2 else OracleError)


def test_a_long_sweep_streams_and_stops_at_its_first_mismatch():
    # words up to length 5 on abc at arity 3: 364^3, about 48M tuples; the
    # lie sits at the 364th, so the sweep must stop there without being built
    from cpmonoid import ProbeRecord
    from cpmonoid.words import _shared_sweep

    hidden = LIAR_HIDDEN[3]
    target = ("", "", "ccccc")

    def liar(key):
        out = hidden.eval_letters(key)
        return "a" + out if key == target else out

    fn = BuiltinFunction("liar", ABC, liar, arity=3)
    cached = _shared_sweep.cache_info()
    out = extract(fn, validation_len=5)
    assert out.reason == "validation mismatch"
    assert out.probes == (ProbeRecord(target, "a" + hidden.eval_letters(target)),)
    assert fn.query_count < 400
    assert _shared_sweep.cache_info() == cached


def _both_unless_both_nonempty(args):
    # x1 x2, but x1 alone once both arguments are nonempty
    return args[0] if all(args) else args[0] + args[1]


def _foreign_first_drops_b(args):
    # x1 x2 x3 on the alphabet; with a letter outside it in x1, a lone "b"
    # in x3 vanishes, so only a fresh-letter factor sees a bad length law
    if ABC.letter_set.issuperset(args[0]) or args[2] != "b":
        return "".join(args)
    return args[0] + args[1]


def _early_break(args):
    # every classification probe of the residue after x1 holds c
    return args[0] + ("" if "c" in "".join(args) else args[1])


# label -> (extraction step, oracle, its NOT-RCP as rendered)
RARE_NOT_RCPS = {
    "step budget exceeded": (
        extract,
        lambda: BuiltinFunction("f", ABC, lambda a: a[0] + "c" * (a[0] == "ba")),
        'NOT-RCP\nreason: step budget exceeded\nquery: "ba"\noutput: "bac"\n'
        "detail: residue still produces output after 1 peels",
    ),
    "constant-empty break": (
        extract,
        lambda: BuiltinFunction("f", ABC, _early_break, arity=2),
        'NOT-RCP\nreason: validation mismatch\nquery: "" "a"\noutput: "a"\n'
        'detail: candidate template "" x1 "" predicts ""',
    ),
    "shrank below the constant": (
        length_profile,
        lambda: BuiltinFunction("f", ABC, lambda a: a[0] or "ab"),
        'NOT-RCP\nreason: length profile inconsistency\nquery: ""\noutput: "ab"\n'
        'query: "a"\noutput: "a"\n'
        "detail: argument 1: output shrank below the constant term",
    ),
    "joint probe": (
        length_profile,
        lambda: BuiltinFunction("f", ABC, _both_unless_both_nonempty, arity=2),
        'NOT-RCP\nreason: length profile inconsistency\nquery: "" ""\noutput: ""\n'
        'query: "a" "a"\noutput: "a"\n'
        "detail: per-argument coefficients do not add up on the joint probe",
    ),
    "fresh, top-level profile": (
        extract_fresh,
        lambda: BuiltinFunction(
            "f", ABC, _both_unless_both_nonempty, arity=2, supports_extension=True
        ),
        'NOT-RCP\nreason: length profile inconsistency\nquery: "" ""\noutput: ""\n'
        'query: "a" "a"\noutput: "a"\n'
        "detail: per-argument coefficients do not add up on the joint probe",
    ),
    "fresh, a factor's profile": (
        extract_fresh,
        lambda: BuiltinFunction(
            "f", ABC, _foreign_first_drops_b, arity=3, supports_extension=True
        ),
        'NOT-RCP\nreason: length profile inconsistency\nquery: "" "a"\noutput: "a"\n'
        'query: "" "b"\noutput: ""\n'
        "detail: argument 2: equal-length inputs, unequal-length outputs",
    ),
}


@pytest.mark.parametrize("label", RARE_NOT_RCPS)
def test_rarely_reached_not_rcp_returns_render_exactly(label):
    step, make, rendered = RARE_NOT_RCPS[label]
    assert step(make()).render() == rendered


def test_a_factor_profile_refutes_only_through_fresh_letters():
    # the base alphabet never shows the lie, so peeling certifies the join
    fn = BuiltinFunction("f", ABC, _foreign_first_drops_b, arity=3)
    assert extract(fn) == Extracted(Template.of(ABC, "", 1, "", 2, "", 3, ""), 2197)
