import ast
import pathlib
import shlex
import sys

import pytest

import cpmonoid
from cpmonoid import (
    BUILTIN_NAMES,
    BuiltinFunction,
    ConstLetter,
    ExternalFunction,
    FormatError,
    OracleError,
    TableFunction,
    TableMissError,
    Template,
    TemplateFunction,
    Variable,
    Word,
    builtin,
    parse_table,
    peel,
)
from cpmonoid.extraction import _split_factor

from conftest import ABC, AB


def test_template_function_evaluates():
    t = Template.of(ABC, "a", 1, "b")
    fn = TemplateFunction(t)
    assert fn("c").letters == "acb"
    assert fn("").letters == "ab"
    assert fn.arity == 1


def test_template_function_counts_misses_not_hits():
    fn = TemplateFunction(Template.of(ABC, "", 1, ""))
    assert fn.query_count == 0
    fn("ab")
    fn("ab")
    fn("ab")
    assert fn.query_count == 1
    fn("ba")
    assert fn.query_count == 2


def test_evaluate_validates_arity_and_letters():
    fn = TemplateFunction(Template.of(ABC, "", 1, ""))
    with pytest.raises(ValueError):
        fn("a", "b")
    # sort_letters cannot extend, so foreign letters are rejected up front
    strict = builtin("sort_letters", ABC)
    assert not strict.supports_extension
    with pytest.raises(Exception):
        strict("xyz")


def test_template_function_accepts_fresh_letters():
    # template oracles extend to any letters: they only splice
    fn = TemplateFunction(Template.of(ABC, "a", 1, "b"))
    assert fn.supports_extension
    out = fn.evaluate((Word(ABC.extended("Z"), "Z"),))
    assert out.letters == "aZb"


def _factor():
    # factor 1 of "a" x1 "b" x2 "c" at the fresh letter 0: "b" x2 "c"
    parent = TemplateFunction(Template.of(ABC, "a", 1, "b", 2, "c"))
    return _split_factor(parent, "0", 1, 2, set(ABC.letters))


# name -> (oracle factory, two argument keys and their results)
MEMO_CASES = {
    "template": (
        lambda: TemplateFunction(Template.of(ABC, "a", 1, "b")),
        {("c",): "acb", ("",): "ab"},
    ),
    "builtin": (lambda: builtin("reverse", ABC), {("abc",): "cba", ("ab",): "ba"}),
    "table": (
        lambda: TableFunction(ABC, 1, {("a",): "b", ("ab",): "ba"}),
        {("a",): "b", ("ab",): "ba"},
    ),
    "exec": (
        lambda: ExternalFunction(
            f"{shlex.quote(sys.executable)} -m cpmonoid.identity_oracle", 2, ABC
        ),
        {("ab", "c"): "abc", ("", "b"): "b"},
    ),
    "peeled": (
        lambda: peel(TemplateFunction(Template.of(ABC, "c", 1, "")), ConstLetter("c")),
        {("ab",): "ab", ("",): ""},
    ),
    "split_factor": (_factor, {("ab",): "babc", ("",): "bc"}),
}


@pytest.mark.parametrize("kind", MEMO_CASES)
def test_evaluate_and_evaluate_letters_share_one_memo(kind):
    make, answers = MEMO_CASES[kind]
    fn = make()
    try:
        (key1, want1), (key2, want2) = answers.items()
        words = lambda key: tuple(Word(ABC, k) for k in key)
        # letters first, then the Word boundary on the same key
        assert fn.evaluate_letters(key1) == want1
        assert fn.query_count == 1
        assert fn.evaluate(words(key1)) == Word(ABC, want1)
        assert fn.evaluate_letters(key1) == want1
        assert fn.query_count == 1
        # the Word boundary first, then letters
        assert fn.evaluate(words(key2)).letters == want2
        assert fn.query_count == 2
        assert fn.evaluate_letters(key2) == want2
        assert fn.evaluate(words(key2)).letters == want2
        assert fn.query_count == 2
    finally:
        if isinstance(fn, ExternalFunction):
            fn.close()


def test_only_word_function_defines_the_memo_entries():
    # every oracle, derived ones included, answers through WordFunction's
    # two memo entries and supplies only _compute
    entries = {"evaluate_letters", "first_mismatch"}
    defined = []
    for path in sorted(pathlib.Path(cpmonoid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined += [
                    (path.name, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in entries
                ]
    assert sorted(defined) == [
        ("oracles.py", "WordFunction", "evaluate_letters"),
        ("oracles.py", "WordFunction", "first_mismatch"),
    ]


def test_a_derived_oracle_refuses_a_wrong_key_under_its_own_name():
    fn = peel(builtin("square", ABC), Variable(1))
    wrong_arity = r"^peel\[variable 1\]\(square\): expected 1 arguments, got 2$"
    with pytest.raises(ValueError, match=wrong_arity):
        fn.evaluate_letters(("a", "b"))
    assert fn.query_count == 0
    strict = peel(builtin("sort_letters", ABC), Variable(1))
    outside = r"^peel\[variable 1\]\(sort_letters\): letters \['z'\] outside"
    with pytest.raises(OracleError, match=outside):
        strict.first_mismatch([("z",)], lambda key: "")
    assert strict.query_count == 0


def test_builtin_reverse():
    fn = builtin("reverse", ABC)
    assert fn("abc").letters == "cba"
    assert fn("").letters == ""


def test_builtin_frozen_io():
    assert builtin("sort_letters", ABC)("cabab").letters == "aabbc"
    assert builtin("square", ABC)("ab").letters == "abab"
    assert builtin("collapse_b_to_a", ABC)("abcb").letters == "aaca"
    assert builtin("erase_a", ABC)("abcab").letters == "bcb"
    assert builtin("first_letter_or_empty", ABC)("cab").letters == "c"
    assert builtin("first_letter_or_empty", ABC)("").letters == ""


def test_builtin_names_and_unknown():
    assert set(BUILTIN_NAMES) == {
        "reverse",
        "sort_letters",
        "square",
        "collapse_b_to_a",
        "erase_a",
        "first_letter_or_empty",
    }
    with pytest.raises(ValueError):
        builtin("nope", ABC)


def test_builtin_needs_letters():
    # collapse_b_to_a needs both a and b in the alphabet
    import cpmonoid

    cd = cpmonoid.Alphabet.of("cd")
    with pytest.raises(ValueError):
        builtin("collapse_b_to_a", cd)
    assert builtin("reverse", cd).name == "reverse"


def test_builtin_function_wrapper():
    fn = BuiltinFunction("twice_b", ABC, lambda args: args[0] + "bb")
    assert fn("a").letters == "abb"


def test_backend_error_is_not_counted_as_a_query():
    def answer(args):
        if args[0] == "b":
            raise RuntimeError("backend down")
        return args[0]

    fn = BuiltinFunction("flaky", ABC, answer)
    assert fn.evaluate_letters(("a",)) == "a"
    with pytest.raises(RuntimeError, match="backend down"):
        fn.evaluate_letters(("b",))
    assert fn.query_count == 1
    with pytest.raises(RuntimeError, match="backend down"):
        fn.first_mismatch([("c",), ("b",)], lambda key: key[0])
    assert fn.query_count == 2
    assert sorted(fn._cache) == [("a",), ("c",)]


def test_table_function_hit_and_miss():
    fn = TableFunction(AB, 1, {("a",): "b", ("",): ""}, name="tiny")
    assert fn("a").letters == "b"
    with pytest.raises(TableMissError):
        fn("bb")


def test_table_miss_counts_once():
    fn = TableFunction(AB, 1, {("a",): "b"}, name="tiny")
    for _ in range(2):
        with pytest.raises(TableMissError):
            fn.evaluate_letters(("b",))
        assert fn.query_count == 1
    with pytest.raises(TableMissError):
        fn.first_mismatch([("b",)], lambda key: "")
    assert fn.query_count == 1
    assert fn.evaluate_letters(("a",)) == "b"
    assert fn.query_count == 2
    with pytest.raises(TableMissError):
        fn.evaluate_letters(("",))
    assert fn.query_count == 3


def test_parse_table_infers_shape():
    fn = parse_table("a\tb\taa\nb\ta\tbb\n")
    assert fn.arity == 2
    assert set(fn.alphabet.letters) == {"a", "b"}
    assert fn("a", "b").letters == "aa"


def test_parse_table_rejects_duplicates():
    with pytest.raises(FormatError):
        parse_table("a\tb\na\tc\n")


def test_parse_table_names_the_line_of_an_invalid_letter():
    # as with a given alphabet, a bad letter is a format error, not an
    # AlphabetError from building the inferred alphabet
    with pytest.raises(FormatError) as raised:
        parse_table("a\tb\nb\ta \n")
    assert str(raised.value) == "line 2: invalid letters [' ']"


def test_parse_table_empty_fields_are_epsilon():
    fn = parse_table("\tx\na\t\n", alphabet=AB.extended("x"))
    assert fn("").letters == "x"
    assert fn("a").letters == ""


def test_name_strings():
    fn = builtin("reverse", ABC)
    assert fn.name == "reverse"
    t = TemplateFunction(Template.of(ABC, "", 1, ""))
    assert "x1" in t.name or "template" in t.name
