import itertools

import hypothesis
import hypothesis.strategies as strat
import pytest

from cpmonoid import (
    Alphabet,
    FormatError,
    Morphism,
    Template,
    TemplateFunction,
    Word,
    collapse_to,
    enumerate_templates,
    extensional_equal,
    format_template,
    identify,
    parse_template,
)

from cpmonoid.templates import _compositions

from conftest import ABC, AB, templates, words


def test_of_builds_alternation():
    t = Template.of(ABC, "a", 1, "b", 1, "c")
    assert t.arity == 1
    assert [c.letters for c in t.constants] == ["a", "b", "c"]
    assert t.variables == (1, 1)


def test_of_infers_arity():
    t = Template.of(ABC, "", 2, "", 1, "")
    assert t.arity == 2
    t1 = Template.of(ABC, "ab")  # no slots: constant function
    assert t1.arity == 0 or t1.arity == 1  # explicit below


def test_of_explicit_arity():
    t = Template.of(ABC, "ab", arity=2)
    assert t.arity == 2
    assert t.variables == ()


def test_eval_frozen_examples():
    t = Template.of(ABC, "a", 1, "b", 1, "c")
    assert t.eval([ABC.word("x" if False else "ab")]).letters == "aabbabc"
    t2 = Template.of(ABC, "", 2, "c", 1, "")
    out = t2.eval([ABC.word("a"), ABC.word("bb")])
    assert out.letters == "bbca"


def test_eval_validates():
    t = Template.of(ABC, "a", 1, "b")
    with pytest.raises(ValueError):
        t.eval([])
    with pytest.raises(Exception):
        t.eval([Word(ABC, "a"), Word(ABC, "b")])


def test_template_invariants_enforced():
    with pytest.raises(ValueError):
        Template(1, ABC, (ABC.word("a"),), (1, 1))  # constants must be n+1
    with pytest.raises(ValueError):
        Template(1, ABC, (ABC.word(""), ABC.word("")), (2,))  # slot out of range


def test_coefficients_frozen():
    t = Template.of(ABC, "a", 1, "b", 2, "c", 1, "")
    c = t.coefficients()
    assert c.p == (2, 1)
    assert c.e == 3
    assert c.size == 6
    assert dict(c.per_letter_offset) == {"a": 1, "b": 1, "c": 1}
    assert c.offset("a") == 1


@hypothesis.given(templates(), strat.data())
def test_length_law(t, data):
    # |f(x1..xk)| = sum p_i |x_i| + e, and the same per letter
    args = [data.draw(words()) for _ in range(t.arity)]
    out = t.eval(args)
    c = t.coefficients()
    assert len(out) == c.predicted_length([len(a) for a in args])
    for ch in ABC:
        assert out.count(ch) == c.predicted_count(ch, [a.count(ch) for a in args])


PRESERVING_ENDOS = [
    identify(ABC, "b", "a"),
    collapse_to(ABC, "a"),
    Morphism.make(ABC, {"a": "ab", "b": "ab", "c": ""}),
    Morphism.make(ABC, {"a": "c", "b": "c", "c": "cc"}),
]


@hypothesis.given(templates(), strat.data())
def test_congruence_preservation_law(t, data):
    # the defining property: inputs equal under the kernel give outputs
    # equal under the kernel, componentwise for every argument position
    from cpmonoid import RestrictedCongruence, congruent_pairs

    phi = data.draw(strat.sampled_from(PRESERVING_ENDOS))
    pairs = list(congruent_pairs(RestrictedCongruence(phi), 2))
    args_x, args_y = [], []
    for _ in range(t.arity):
        x, y = data.draw(strat.sampled_from(pairs))
        if data.draw(strat.booleans()):
            x, y = y, x
        args_x.append(ABC.word(x))
        args_y.append(ABC.word(y))
    assert phi.apply(t.eval(args_x)) == phi.apply(t.eval(args_y))


@hypothesis.given(templates())
def test_map_words_commutes(t):
    phi = identify(ABC, "c", "a")
    mapped = t.map_words(phi)
    w = ABC.word("cab")
    args = [w] * t.arity
    assert mapped.eval([phi.apply(a) for a in args]) == phi.apply(t.eval(args))


def test_map_words_frozen():
    t = Template.of(ABC, "c", 1, "cc")
    m = t.map_words(collapse_to(ABC, "a"))
    assert [c.letters for c in m.constants] == ["a", "aa"]


def test_str_and_body():
    t = Template.of(ABC, "a", 1, "", 2, "c", arity=2)
    assert t.body_text() == '"a" x1 "" x2 "c"'
    assert str(t) == t.body_text()


def test_format_parse_round_trip_exact():
    t = Template.of(ABC, "ab", 1, "", 1, "c")
    text = format_template(t)
    assert parse_template(text) == t
    assert format_template(parse_template(text)) == text  # byte-exact


@hypothesis.given(templates())
def test_format_parse_round_trip_random(t):
    assert parse_template(format_template(t)) == t


def test_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse_template('arity 1\nalphabet abc\nx1 x1\n')  # two slots, no gap
    with pytest.raises(FormatError):
        parse_template('arity 1\nalphabet abc\n"a" y1 "b"\n')
    with pytest.raises(FormatError):
        parse_template('arity 1\nalphabet abc\n"a" x2 "b"\n')  # slot out of range
    with pytest.raises(FormatError):
        parse_template('alphabet abc\n"a"\n')  # missing arity line
    with pytest.raises(FormatError):
        parse_template('arity 1\nalphabet abc\n"a" x1\n')  # trailing slot


def test_parse_accepts_empty_constants():
    t = parse_template('arity 2\nalphabet abc\n"" x2 "" x1 ""\n')
    assert t.variables == (2, 1)
    assert all(c.letters == "" for c in t.constants)


def enumerate_count(alphabet, arity, p, e):
    return sum(1 for _ in enumerate_templates(alphabet, arity, p, e))


def test_enumerate_counts_small():
    # unary, one slot, no constants: just x1
    assert enumerate_count(ABC, 1, (1,), 0) == 1
    # one slot, one constant letter: w0 x1 or x1 w1, three letters each
    assert enumerate_count(ABC, 1, (1,), 1) == 6
    # no slots, e = 2: all nine two-letter words
    assert enumerate_count(ABC, 1, (0,), 2) == 9


def test_enumerate_order_front_loaded():
    first = [str(t) for t in enumerate_templates(ABC, 1, (1,), 1)]
    assert first == [
        '"a" x1 ""',
        '"b" x1 ""',
        '"c" x1 ""',
        '"" x1 "a"',
        '"" x1 "b"',
        '"" x1 "c"',
    ]


def test_enumerate_binary_slot_orders():
    seqs = {t.variables for t in enumerate_templates(AB, 2, (1, 1), 0)}
    assert seqs == {(1, 2), (2, 1)}


def test_enumerate_matches_independent_count():
    # independent oracle: multiset permutations x compositions x letter fills
    from math import comb, factorial

    p, e = (2, 1), 2
    n = sum(p)
    perms = factorial(n) // (factorial(p[0]) * factorial(p[1]))
    splits = comb(e + n, n)  # weak compositions of e into n+1 parts
    fills = len(ABC) ** e
    assert enumerate_count(ABC, 2, p, e) == perms * splits * fills


def test_enumerate_templates_unique():
    seen = list(enumerate_templates(ABC, 2, (1, 1), 1))
    assert len(seen) == len(set(seen))


def compositions_by_recursion(total, parts):
    """The front-loaded order, one nested call per part: the reference."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions_by_recursion(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_keep_the_recursive_order():
    for total in range(7):
        for parts in range(6):
            assert list(_compositions(total, parts)) == list(
                compositions_by_recursion(total, parts)), (total, parts)
    assert list(_compositions(0, 1001)) == [(0,) * 1001]
    ones = list(_compositions(1, 1001))
    assert ones[0] == (1,) + (0,) * 1000 and ones[-1] == (0,) * 1000 + (1,)
    assert len(ones) == 1001


def test_enumerate_templates_past_the_recursion_limit():
    # 1000 slots and 1001 constants, as explore asks for p = 1000
    (only,) = enumerate_templates(AB, 1, (1000,), 0)
    assert only.variables == (1,) * 1000


def test_extensional_equal_positive():
    t1 = Template.of(ABC, "a", 1, "")
    t2 = Template.of(ABC, "a", 1, "")
    assert extensional_equal(t1, t2, 3)


def test_extensional_equal_negative():
    t1 = Template.of(ABC, "a", 1, "")
    t2 = Template.of(ABC, "", 1, "a")
    assert not extensional_equal(t1, t2, 3)


def test_extensional_equal_one_letter_collision():
    # over a single letter, prefix and suffix constants are indistinguishable
    one = Template.of(AB, "a", 1, "")
    other = Template.of(AB, "", 1, "a")
    assert not extensional_equal(one, other, 3)  # b separates them over ab
    import cpmonoid

    single = cpmonoid.Alphabet.of("a")
    s1 = Template.of(single, "a", 1, "")
    s2 = Template.of(single, "", 1, "a")
    assert extensional_equal(s1, s2, 4)


def test_extensional_equal_rejections():
    with pytest.raises(ValueError, match="different arity"):
        extensional_equal(Template.of(ABC, "a"), Template.of(ABC, "", 1, ""), 2)
    with pytest.raises(ValueError, match="different alphabets"):
        extensional_equal(Template.of(ABC, "a"), Template.of(AB, "a"), 2)
    for t in (Template.of(ABC, "a"), Template.of(ABC, "", 1, "")):
        with pytest.raises(ValueError, match="negative length bound"):
            extensional_equal(t, t, -1)


# Both braces are letters: evaluation must keep them literal.
BRACES = Alphabet.of("{}0a")


def reference_eval(t, args):
    """Interleave constants and slot arguments one piece at a time."""
    out = t.constants[0].letters
    for v, w in zip(t.variables, t.constants[1:]):
        out += args[v - 1] + w.letters
    return out


def test_eval_letters_escapes_braces():
    # "{0}" spells a format field; as a constant it must stay literal
    t = Template.of(BRACES, "{0}", 1, "}", 2, "{", 1, "{}")
    assert t.eval_letters(("a{", "}0")) == "{0}a{}}0{a{{}"
    assert t.eval_letters(["{1}", "{"]) == "{0}{1}}{{{1}{}"
    assert t.eval([BRACES.word("}"), BRACES.word("")]).letters == "{0}}}{}{}"


def test_eval_letters_arity_zero():
    for const in ("", "{}", "{0}", "a}{"):
        t = Template.of(BRACES, const)
        assert t.arity == 0
        assert t.eval_letters(()) == t.eval_letters([]) == const


def test_eval_letters_repeated_slots_and_sequence_types():
    t = Template.of(ABC, "c", 2, "", 2, "a", 1, "", 2, "b")
    assert t.eval_letters(("ab", "c")) == "ccca" + "ab" + "cb"
    assert t.eval_letters(["ab", "c"]) == t.eval_letters(("ab", "c"))
    assert Template.of(ABC, "", 1, "", 1, "").eval_letters(["{x}"]) == "{x}{x}"


@hypothesis.given(templates(BRACES, max_const=3), strat.data())
def test_eval_letters_matches_reference(t, data):
    args = data.draw(
        strat.lists(
            strat.text(alphabet=list("{}0a#"), max_size=4),
            min_size=t.arity,
            max_size=t.arity,
        )
    )
    assert t.eval_letters(args) == reference_eval(t, args)
    assert t.eval_letters(tuple(args)) == reference_eval(t, args)


def test_evaluated_template_keeps_equality_and_hash():
    used = Template.of(BRACES, "{", 1, "}", 1, "")
    fresh = Template.of(BRACES, "{", 1, "}", 1, "")
    assert used.eval_letters(["0"]) == "{0}0"
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert {used: 1}[fresh] == 1


# Format syntax of both kinds in the letters: the closure's generated source
# holds only names and indices, so none of them may change a result.
FORMAT_LETTERS = Alphabet.of("{}%0as")
FORMAT_WORDS = ("", "{0}", "%", "}{", "%s", "0{", "a}}")
SLOT_TUPLES = {
    0: [()],
    1: [(1,), (1, 1), (1, 1, 1)],
    2: [(1, 2), (2, 1), (2, 2, 1), (1, 2, 1, 2)],
    3: [(3, 1, 2), (2, 2, 2), (1, 3, 1, 3)],
    4: [(1, 2, 3, 4), (4, 3, 2, 1), (4, 4, 1, 2, 3)],
}


@pytest.mark.parametrize("arity", sorted(SLOT_TUPLES))
def test_closure_matches_reference_with_format_syntax_letters(arity):
    for slots in SLOT_TUPLES[arity]:
        for shift in range(len(FORMAT_WORDS)):
            constants = [
                FORMAT_WORDS[(shift + j) % len(FORMAT_WORDS)] for j in range(len(slots) + 1)
            ]
            parts = [constants[0]]
            for v, w in zip(slots, constants[1:]):
                parts += [v, w]
            t = Template.of(FORMAT_LETTERS, *parts, arity=arity)
            fn = TemplateFunction(t)
            for args in itertools.product(FORMAT_WORDS[:4], repeat=arity):
                want = reference_eval(t, args)
                assert t.eval_letters(args) == want
                assert t.eval_letters(list(args)) == want
                assert fn.evaluate_letters(args) == want


def test_closure_handles_300_slots():
    words = ["{0}", "%", "}", ""]
    parts = [words[0]]
    for j in range(300):
        parts += [j % 3 + 1, words[(j + 1) % len(words)]]
    t = Template.of(FORMAT_LETTERS, *parts)
    assert len(t.variables) == 300
    args = ("a{", "%0", "}")
    assert t.eval_letters(args) == reference_eval(t, args)
    assert len(t.eval_letters(args)) == t.coefficients().predicted_length([2, 2, 1])


def test_templates_with_one_slot_tuple_share_a_compiled_factory():
    from cpmonoid import templates as module

    first = Template.of(FORMAT_LETTERS, "{", 2, "%", 1, "")
    second = Template.of(FORMAT_LETTERS, "", 2, "}}", 1, "0{0}")
    other = Template.of(FORMAT_LETTERS, "{", 1, "%", 2, "")
    factory = module._closure_factory(first.variables)
    assert module._closure_factory(second.variables) is factory
    assert module._closure_factory(other.variables) is not factory
    # each template binds its own constants into the one compiled body
    assert first._apply.__code__ is second._apply.__code__
    assert first._apply.__code__ is not other._apply.__code__
    assert first.eval_letters(("a", "0")) == "{0%a"
    assert second.eval_letters(("a", "0")) == "0}}a0{0}"
    assert module._closure_factory.cache_info().maxsize is not None  # bounded
