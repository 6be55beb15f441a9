import ast
import importlib
import itertools
import pathlib

import hypothesis
import hypothesis.strategies as strat
import pytest

import cpmonoid
from cpmonoid import (
    Alphabet,
    AlphabetError,
    FormatError,
    Morphism,
    collapse_to,
    count_words,
    erase,
    format_morphism,
    identify,
    iter_word_tuples,
    iter_words,
    parse_morphism,
    project,
    standard_congruences,
)
from cpmonoid.audit import AuditResult
from cpmonoid.explorer import SearchConfig, SearchStats, endomorphism_family
from cpmonoid.extraction import ConstEmpty, ConstLetter, NotRCP, ProbeRecord, Variable
from cpmonoid.words import Word, _Value, arrangements, strings_up_to

from conftest import ABC, AB, words


def test_alphabet_basics():
    assert len(ABC) == 3
    assert "a" in ABC and "z" not in ABC
    assert str(ABC) == "abc"
    assert list(ABC) == ["a", "b", "c"]


def test_alphabet_rejects_bad_letters():
    with pytest.raises(AlphabetError):
        Alphabet.of("a a")  # whitespace
    with pytest.raises(AlphabetError):
        Alphabet.of('a"b')  # reserved for the quoted text format
    with pytest.raises(AlphabetError):
        Alphabet.of("a\\b")
    with pytest.raises(AlphabetError):
        Alphabet.of("aab")  # duplicate
    with pytest.raises(AlphabetError):
        Alphabet.of("")


@pytest.mark.parametrize("letters", ["abc", ["a", "b", "c"]], ids=["str", "list"])
def test_alphabet_rejects_letters_that_are_not_a_tuple(letters):
    # Alphabet("abc") would hold a str and compare unequal to Alphabet.of("abc")
    with pytest.raises(AlphabetError, match="Alphabet.of"):
        Alphabet(letters)
    assert Alphabet.of(letters) == Alphabet(("a", "b", "c"))


def test_alphabet_extended():
    ext = ABC.extended("xy")
    assert str(ext) == "abcxy"
    assert ABC.extended("ab") is not None
    assert str(ABC.extended("")) == "abc"


def test_word_basics():
    w = ABC.word("abca")
    assert len(w) == 4
    assert str(w) == "abca"
    assert w.count("a") == 2
    assert w.count() == 4
    assert w.letters != ""
    assert ABC.word("").letters == ""
    assert w.quoted() == '"abca"'


def test_word_rejects_foreign_letters():
    with pytest.raises(AlphabetError):
        ABC.word("abd")


def test_word_equality_ignores_alphabet():
    # words live in the free monoid; the carrier alphabet is bookkeeping
    assert AB.word("ab") == ABC.word("ab")
    assert hash(AB.word("ab")) == hash(ABC.word("ab"))


def test_concat_and_power():
    u, v = ABC.word("ab"), ABC.word("c")
    assert (u + v).letters == "abc"
    assert u.power(3).letters == "ababab"
    assert u.power(0).letters == ""


@hypothesis.given(words(), words(), words())
def test_concat_associative(u, v, w):
    assert ((u + v) + w).letters == (u + (v + w)).letters


@hypothesis.given(words())
def test_empty_word_is_identity(w):
    eps = ABC.word("")
    assert (eps + w) == w == (w + eps)


def test_morphism_factories_frozen_values():
    assert collapse_to(ABC, "a").apply(ABC.word("abcba")).letters == "aaaaa"
    assert project(ABC, "b").apply(ABC.word("abcba")).letters == "bb"
    assert erase(ABC, "b").apply(ABC.word("abcba")).letters == "aca"
    assert identify(ABC, "b", "a").apply(ABC.word("abcba")).letters == "aacaa"


def test_morphism_factories_validate():
    with pytest.raises(AlphabetError):
        collapse_to(ABC, "z")
    with pytest.raises(AlphabetError):
        identify(ABC, "a", "z")
    with pytest.raises(ValueError):
        identify(ABC, "a", "a")


def test_morphism_labels():
    assert collapse_to(ABC, "a").label == "collapse_to(a)"
    assert identify(ABC, "b", "a").label == "identify(b->a)"


def test_custom_morphism_into_other_alphabet():
    target = Alphabet.of("xy")
    phi = Morphism.make(ABC, {"a": "xy", "b": "", "c": "x"}, target)
    assert phi.apply(ABC.word("cab")).letters == "xxy"
    assert not phi.is_endomorphism


def test_morphism_is_endomorphism():
    assert collapse_to(ABC, "a").is_endomorphism
    phi = Morphism.make(ABC, {"a": "xy", "b": "", "c": "x"}, Alphabet.of("xy"))
    assert not phi.is_endomorphism


@hypothesis.given(words())
def test_length_is_sum_of_letter_counts(w):
    assert w.count() == sum(w.count(ch) for ch in ABC)


@hypothesis.given(words(), words())
def test_morphism_respects_concat(u, v):
    phi = Morphism.make(ABC, {"a": "bc", "b": "", "c": "ab"})
    assert phi.apply(u + v).letters == phi.apply(u).letters + phi.apply(v).letters
    assert phi.apply(ABC.word("")).letters == ""


@hypothesis.given(words())
def test_projection_length_counts_letter(w):
    assert len(project(ABC, "c").apply(w)) == w.count("c")


def test_morphism_compose():
    phi = identify(ABC, "b", "a")  # b -> a
    psi = collapse_to(ABC, "c")
    both = psi @ phi
    w = ABC.word("abcab")
    assert both.apply(w) == psi.apply(phi.apply(w))


def test_compose_frozen_examples():
    # c folded into b, then b erased: only the a survives
    first = erase(ABC, "b") @ identify(ABC, "c", "b")
    assert first.apply(ABC.word("abc")).letters == "a"
    # erase a, then send what is left to a
    second = collapse_to(ABC, "a") @ erase(ABC, "a")
    assert second.apply(ABC.word("ab")).letters == "a"


def test_compose_rejects_mismatched_alphabets():
    phi = Morphism.make(ABC, {"a": "x", "b": "x", "c": "x"}, Alphabet.of("x"))
    with pytest.raises(AlphabetError):
        phi.compose(phi)


def joined_images(phi, letters):
    """The letter-by-letter image, as a join of each letter's image."""
    images = dict(phi.image)
    try:
        return "".join([images[ch] for ch in letters])
    except KeyError as exc:
        raise AlphabetError(f"letter {exc} not in alphabet {phi.source}") from None


def test_apply_letters_is_the_join_of_letter_images():
    morphisms = [spec.morphism for spec in standard_congruences(ABC)]
    morphisms += endomorphism_family(ABC, 2, 2)
    morphisms += [
        Morphism.make(ABC, {"a": "", "b": "", "c": ""}),
        Morphism.make(ABC, {"a": "bca", "b": "", "c": "aa"}),
        Morphism.make(ABC, {"a": "xy", "b": "", "c": "x"}, Alphabet.of("xy")),
    ]
    assert len(morphisms) > 15 + 2
    all_words = list(strings_up_to(ABC, 3))
    assert len(all_words) == 40
    for phi in morphisms:
        for w in all_words:
            assert phi.apply_letters(w) == joined_images(phi, w), (phi, w)


@pytest.mark.parametrize("letters", ["z", "az", "abcz", "abzcy", "a'b", "z'"])
def test_apply_letters_names_the_first_foreign_letter(letters):
    for phi in (identify(ABC, "b", "a"), Morphism.make(ABC, {"a": "xy", "b": "", "c": "x"}, Alphabet.of("xy"))):
        with pytest.raises(AlphabetError) as raised:
            phi.apply_letters(letters)
        with pytest.raises(AlphabetError) as expected:
            joined_images(phi, letters)
        assert str(raised.value) == str(expected.value)
    foreign = next(ch for ch in letters if ch not in ABC)
    assert str(raised.value) == f"letter {foreign!r} not in alphabet abc"


def test_iter_words_order_and_count():
    seen = [w.letters for w in iter_words(AB, 2)]
    assert seen == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert count_words(AB, 2) == 7
    assert count_words(ABC, 3) == 1 + 3 + 9 + 27


def test_count_words_matches_enumeration():
    for alphabet in map(Alphabet.of, ("a", "ab", "abc")):
        for n in range(5):
            assert count_words(alphabet, n) == len(list(strings_up_to(alphabet, n)))
        for n in (-1, -2):
            with pytest.raises(ValueError, match=f"negative length bound {n}"):
                count_words(alphabet, n)
            with pytest.raises(ValueError, match=f"negative length bound {n}"):
                list(strings_up_to(alphabet, n))


def arrangements_by_recursion(symbols, counts):
    """The lexicographic order, one nested call per symbol: the reference."""
    remaining, out, acc = list(counts), [], []

    def rec():
        if not any(remaining):
            out.append(tuple(acc))
            return
        for i, left in enumerate(remaining):
            if left:
                remaining[i] -= 1
                acc.append(symbols[i])
                rec()
                acc.pop()
                remaining[i] += 1

    rec()
    return out


def test_arrangements_keep_the_recursive_order():
    for k in range(4):
        for counts in itertools.product(range(9), repeat=k):
            if sum(counts) <= 8:
                symbols = "xyz"[:k]
                assert arrangements(symbols, counts) == arrangements_by_recursion(
                    symbols, counts), counts
    assert arrangements(range(1, 3), (1000, 0)) == [(1,) * 1000]
    assert arrangements("ab", (1, 999))[-1] == ("b",) * 999 + ("a",)


def test_iter_words_unique():
    seen = list(iter_words(ABC, 3))
    assert len(seen) == len({w.letters for w in seen})


def test_iter_word_tuples_leftmost_slowest():
    pairs = [tuple(w.letters for w in t) for t in iter_word_tuples(AB, 2, 1)]
    expected = list(
        itertools.product(["", "a", "b"], repeat=2)
    )
    assert pairs == expected
    assert list(iter_word_tuples(AB, 0, 2)) == [()]
    triples = [tuple(w.letters for w in t) for t in iter_word_tuples(AB, 3, 1)]
    assert triples == list(itertools.product(["", "a", "b"], repeat=3))


def test_morphism_format_round_trip():
    phi = Morphism.make(ABC, {"a": "ab", "b": "", "c": "a"})
    text = format_morphism(phi)
    back = parse_morphism(text)
    assert back.image == phi.image
    assert back.source == phi.source


def test_morphism_format_with_target():
    phi = Morphism.make(ABC, {"a": "x", "b": "xy", "c": ""}, Alphabet.of("xy"))
    back = parse_morphism(format_morphism(phi))
    assert back.target == phi.target
    assert back.apply(ABC.word("ab")).letters == "xxy"


def test_parse_morphism_rejects_incomplete():
    with pytest.raises(FormatError):
        parse_morphism("alphabet abc\na=ab\nb=b\n")  # c missing


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphabet abc\na=ab \n b=b\t\nc=a\n", None),  # whitespace around a line is stripped
        ("alphabet abc\na=ab\nbb\nc=a\n", "expected 'letter=image', got 'bb'"),
        ("alphabet abc\na=ab\nb=b\na=a\n", "duplicate image line for letter 'a'"),
    ],
)
def test_parse_morphism_line_errors(text, message):
    if message is None:
        assert parse_morphism(text).image == (("a", "ab"), ("b", "b"), ("c", "a"))
        return
    with pytest.raises(FormatError) as raised:
        parse_morphism(text)
    assert str(raised.value) == message


def test_parse_morphism_rejects_junk():
    with pytest.raises(FormatError):
        parse_morphism("a=ab\n")  # no header
    with pytest.raises(FormatError):
        parse_morphism("alphabet abc\na=ab\nb=b\nc=a\nd=x\n")


def _raises(kind, action):
    try:
        action()
    except kind:
        return True
    return False


def _bumped(stats):
    stats.nodes += 1
    return stats


def _equal_and_same_hash(x, y):
    return x == y and hash(x) == hash(y)


def _swap(letters, label=""):
    return Morphism.make(letters, {"a": "b", "b": "a"}, label=label)


@pytest.mark.parametrize(
    "value, expected",
    [
        # reprs show every field, in constructor order; a word shows its letters
        (lambda: repr(AB), "Alphabet(letters=('a', 'b'))"),
        (lambda: repr(ConstEmpty()), "ConstEmpty()"),
        (lambda: repr(NotRCP("r", ())), "NotRCP(reason='r', probes=(), detail='')"),
        (lambda: repr(ConstLetter("a")), "ConstLetter(letter='a')"),
        (lambda: repr(Variable(1)), "Variable(index=1)"),
        (lambda: repr(ProbeRecord(("a",), "b")), "ProbeRecord(args=('a',), output='b')"),
        (lambda: repr(AB.word("ab")), "Word('ab')"),
        (
            lambda: repr(_swap(AB, "swap")),
            "Morphism(source=Alphabet(letters=('a', 'b')), target=Alphabet(letters=('a', 'b')), "
            "image=(('a', 'b'), ('b', 'a')), label='swap')",
        ),
        # a word's alphabet and a morphism's label take no part in equality
        (lambda: _equal_and_same_hash(AB.word("ab"), ABC.word("ab")), True),
        (lambda: AB.word("ab") == AB.word("ba"), False),
        (lambda: _equal_and_same_hash(_swap(AB, "x"), _swap(AB, "y")), True),
        (lambda: _swap(AB) == collapse_to(AB, "a"), False),
        # equality holds only within one class
        (lambda: _equal_and_same_hash(ConstEmpty(), ConstEmpty()), True),
        (lambda: (ConstLetter("a") != Variable("a"), Variable(1) == Variable(1)), (True, True)),
        # frozen values refuse assignment; the three reports are mutable and unhashable
        (lambda: _raises(AttributeError, lambda: setattr(AB, "letters", ("c",))), True),
        (lambda: _raises(AttributeError, lambda: delattr(AB.word("a"), "letters")), True),
        (lambda: _raises(TypeError, lambda: hash(AuditResult(None, 1, 2, truncated=True))), True),
        (lambda: _raises(TypeError, lambda: hash(SearchStats())), True),
        (lambda: _bumped(SearchStats()), SearchStats(nodes=1, family_size=0)),
        # positional, keyword and default construction
        (lambda: AuditResult(None, 1, 2, truncated=True).family, None),
        (
            lambda: AuditResult(None, 1, 2, True),
            AuditResult(witness=None, specs_checked=1, checks=2, truncated=True, family=None),
        ),
        (
            lambda: SearchConfig(alphabet=AB, domain_len=2, p=1, e=0),
            SearchConfig(AB, 2, 1, 0, image_len=2, node_budget=5_000_000),
        ),
        (lambda: Morphism(source=AB, target=AB, image=(("a", "b"), ("b", "a"))).label, ""),
        (lambda: (Word(AB).letters, Word(alphabet=AB, letters="ab").letters), ("", "ab")),
        (lambda: NotRCP(reason="r", probes=()).detail, ""),
    ],
)
def test_value_semantics(value, expected):
    assert value() == expected


PACKAGE = pathlib.Path(cpmonoid.__file__).parent


def _value_classes() -> list[type]:
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"cpmonoid.{path.stem}")
    found, todo = [], [_Value]
    while todo:
        subs = [sub for sub in todo.pop().__subclasses__() if sub.__module__.startswith("cpmonoid.")]
        found += subs
        todo += subs
    return found


VALUE_CLASSES = _value_classes()


def test_no_value_class_writes_its_own_init():
    # a value class declares its fields once, as annotations; the base
    # generates its __init__
    declared = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Value" for base in node.bases
            ):
                declared.add(node.name)
                assert not any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body
                ), f"{path.name}: {node.name} writes its own __init__"
    assert declared == {cls.__name__ for cls in VALUE_CLASSES}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_generated_init_follows_the_annotations(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    assert cls._fields == fields
    init = cls.__init__
    code = init.__code__
    assert code.co_varnames[1 : code.co_argcount] == fields
    assert init.__defaults__ == tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"


def test_a_wrong_call_names_the_generated_init():
    with pytest.raises(TypeError, match=r"^ProbeRecord\.__init__\(\) missing 1 required "):
        ProbeRecord("a")
    with pytest.raises(TypeError, match=r"^Word\.__init__\(\) takes from 2 to 3 positional "):
        Word(AB, "a", "b")
