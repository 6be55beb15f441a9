import itertools

import hypothesis
import hypothesis.strategies as strat
import pytest

from cpmonoid import (
    CongruenceSpec,
    FiniteKernelCongruence,
    FiniteMonoid,
    FormatError,
    MonoidMorphism,
    Morphism,
    RestrictedCongruence,
    collapse_to,
    congruent_pairs,
    cyclic_additive,
    cyclic_multiplicative,
    finite_monoid_congruences,
    format_finite_monoid,
    format_monoid_morphism,
    identify,
    iter_words,
    left_zero_with_identity,
    project,
    monoid_catalog,
    monoid_validate,
    parse_finite_monoid,
    parse_monoid_morphism,
    standard_congruences,
    transformations_on_two_points,
)
from cpmonoid.audit import random_congruences

from conftest import ABC, AB


def brute_congruent_pairs(spec, bound):
    """Independent oracle: all-pairs scan over the enumerated ball."""
    ws = list(iter_words(spec.alphabet, bound))
    out = []
    for i, x in enumerate(ws):
        for y in ws[i + 1 :]:
            if spec.word_image(x.letters) == spec.word_image(y.letters):
                out.append((x.letters, y.letters))
    return sorted(out, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))


def test_cyclic_additive_table():
    z3 = cyclic_additive(3)
    assert z3.elements == ("0", "1", "2")
    assert z3.identity == "0"
    assert z3.op("2", "2") == "1"
    assert monoid_validate(z3) is None


def test_cyclic_multiplicative_table():
    z4 = cyclic_multiplicative(4)
    assert z4.identity == "1"
    assert z4.op("2", "2") == "0"
    assert z4.op("3", "3") == "1"
    assert monoid_validate(z4) is None


def test_transformations_on_two_points_noncommutative():
    t2 = transformations_on_two_points()
    assert set(t2.elements) == {"12", "21", "11", "22"}
    assert monoid_validate(t2) is None
    # constant-map absorption from the left distinguishes the two orders
    assert t2.op("11", "21") == "22"
    assert t2.op("21", "11") == "11"


def test_left_zero_with_identity():
    m = left_zero_with_identity()
    assert monoid_validate(m) is None
    assert m.op("x", "y") == "x"
    assert m.op("y", "x") == "y"
    assert m.op("e", "x") == "x"


def test_monoid_validate_catches_bad_identity():
    bad = FiniteMonoid(
        "bad", ("e", "x"), "e", (("e", "x"), ("x", "e"))
    )
    # swap makes e not an identity?  e*x = x, x*e = e: right identity broken
    bad = FiniteMonoid("bad", ("e", "x"), "e", (("e", "x"), ("e", "x")))
    v = monoid_validate(bad)
    assert v is not None
    assert v.kind == "identity"


def test_monoid_validate_catches_nonassociative():
    # x*x = e, x*e = x, e*_ = _; then (x x) x = x but x (x x) = x — fine;
    # force a genuine failure with a 3-element table
    t = (
        ("e", "x", "y"),
        ("x", "y", "x"),
        ("y", "y", "e"),
    )
    bad = FiniteMonoid("bad", ("e", "x", "y"), "e", t)
    v = monoid_validate(bad)
    assert v is not None
    assert v.kind == "associativity"
    a, b, c = v.witness
    assert bad.op(bad.op(a, b), c) != bad.op(a, bad.op(b, c))


def test_finite_monoid_shape_checked_eagerly():
    with pytest.raises(ValueError):
        FiniteMonoid("bad", ("e", "x"), "e", (("e",),))
    with pytest.raises(ValueError):
        FiniteMonoid("bad", ("e", "x"), "q", (("e", "x"), ("x", "e")))


def test_catalog_all_valid_and_ordered():
    cat = monoid_catalog()
    assert [m.name for m in cat[:4]] == ["Z2+", "Z2*", "LZ2+1", "T2"]
    for m in cat:
        assert monoid_validate(m) is None
    sizes = [len(m.elements) for m in cat]
    assert max(sizes) <= 6


def test_catalog_built_once_per_process():
    cat = monoid_catalog()
    assert monoid_catalog() is cat
    assert all(monoid_validate(m) is None for m in cat)


def test_monoid_morphism_word_image():
    z2 = cyclic_additive(2)
    phi = MonoidMorphism.make(ABC, z2, {"a": "1", "b": "1", "c": "1"})
    assert phi.word_image("abc") == "1"
    assert phi.word_image("") == "0"
    assert phi.word_image("ab") == "0"


def test_word_image_folds_the_multiplication_table():
    # the integer right-action fold agrees with multiplying element names
    # through op, for every catalog monoid (noncommutative ones included)
    for m in monoid_catalog():
        assert m.right_action is m.right_action  # built once per monoid
        for images in list(itertools.product(m.elements, repeat=3))[:40]:
            assignment = dict(zip(ABC.letters, images))
            phi = MonoidMorphism.make(ABC, m, assignment)
            for w in iter_words(ABC, 3):
                acc = m.identity
                for ch in w.letters:
                    acc = m.op(acc, assignment[ch])
                assert phi.word_image(w.letters) == acc


def test_monoid_morphism_rejects_unknown_element():
    z2 = cyclic_additive(2)
    with pytest.raises(ValueError):
        MonoidMorphism.make(ABC, z2, {"a": "7", "b": "0", "c": "0"})


def test_restricted_congruence_requires_endomorphism():
    RestrictedCongruence(identify(ABC, "b", "a"))  # endomorphism: fine
    import cpmonoid

    bad = Morphism.make(ABC, {"a": "x", "b": "", "c": ""}, cpmonoid.Alphabet.of("x"))
    with pytest.raises(ValueError):
        RestrictedCongruence(bad)


def test_restricted_congruence_relates():
    spec = RestrictedCongruence(identify(ABC, "b", "a"))
    assert spec.congruent("ab", "aa")
    assert spec.congruent("ab", "ba")
    assert not spec.congruent("ab", "ac")


def test_finite_kernel_congruence_relates():
    z2 = cyclic_additive(2)
    phi = MonoidMorphism.make(ABC, z2, {"a": "1", "b": "1", "c": "1"})
    spec = FiniteKernelCongruence(phi)
    assert spec.congruent("", "ab")
    assert not spec.congruent("", "a")


def test_word_image_rejects_letters_outside_the_alphabet():
    z2 = cyclic_additive(2)
    finite = FiniteKernelCongruence(
        MonoidMorphism.make(ABC, z2, {"a": "1", "b": "1", "c": "1"})
    )
    restricted = RestrictedCongruence(identify(ABC, "b", "a"))
    for spec in (finite, restricted):
        with pytest.raises(ValueError):
            spec.word_image("ad")


def test_congruent_pairs_matches_brute_force():
    spec = RestrictedCongruence(collapse_to(ABC, "a"))
    got = list(congruent_pairs(spec, 2))
    assert sorted(got, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1])) == (
        brute_congruent_pairs(spec, 2)
    )
    # frozen: equal-length words collapse together
    assert ("a", "b") in got
    assert ("aa", "cc") in got
    assert ("", "a") not in got


def test_congruent_pairs_earlier_first():
    spec = RestrictedCongruence(collapse_to(ABC, "a"))
    for x, y in congruent_pairs(spec, 2):
        assert (len(x), x) < (len(y), y)


@hypothesis.given(strat.integers(2, 4))
def test_congruent_pairs_finite_kernel_brute(n):
    zn = cyclic_additive(n)
    phi = MonoidMorphism.make(AB, zn, {"a": "1", "b": "1"})
    spec = FiniteKernelCongruence(phi)
    got = sorted(
        congruent_pairs(spec, 3),
        key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]),
    )
    assert got == brute_congruent_pairs(spec, 3)


def test_projection_kernel_counts_occurrences():
    # image under the a-projection is a run of a's, one per occurrence
    spec = RestrictedCongruence(project(ABC, "a"))
    assert spec.word_image("abca") == "aa"
    assert spec.congruent("a", "ab")
    assert not spec.congruent("a", "aa")


def test_mod2_multiplicative_sees_letter_occurrence():
    # a |-> 0 and everything else |-> 1: the image says "does a occur"
    z2 = cyclic_multiplicative(2)
    phi = MonoidMorphism.make(ABC, z2, {"a": "0", "b": "1", "c": "1"})
    assert phi.word_image("bc") == "1"
    assert phi.word_image("bac") == "0"
    spec = FiniteKernelCongruence(phi)
    assert spec.congruent("bc", "")
    assert not spec.congruent("bac", "bc")


def test_congruent_is_equivalence_and_compatible():
    # exhaustive at bound 2: equivalence laws plus concatenation compatibility
    spec = RestrictedCongruence(identify(ABC, "b", "a"))
    ws = [w.letters for w in iter_words(ABC, 2)]
    for u in ws:
        assert spec.congruent(u, u)
        for v in ws:
            assert spec.congruent(u, v) == spec.congruent(v, u)
    short = list(iter_words(ABC, 1))
    for u, v in congruent_pairs(spec, 1):
        for x, y in congruent_pairs(spec, 1):
            assert spec.congruent(u + x, v + y)


def test_congruence_spec_describe_mentions_kernel():
    spec = RestrictedCongruence(collapse_to(ABC, "a"))
    assert "kernel" in spec.describe()
    z2 = cyclic_additive(2)
    spec2 = FiniteKernelCongruence(
        MonoidMorphism.make(ABC, z2, {"a": "1", "b": "0", "c": "0"})
    )
    assert "kernel" in spec2.describe()


def test_finite_monoid_format_round_trip():
    t2 = transformations_on_two_points()
    back = parse_finite_monoid(format_finite_monoid(t2))
    assert back.elements == t2.elements
    assert back.table == t2.table
    assert back.identity == t2.identity


def test_parse_finite_monoid_validates_laws():
    z2 = cyclic_additive(2)
    lines = format_finite_monoid(z2).splitlines()
    lines[2] = "1 1"  # identity row now maps 0*0 to 1
    with pytest.raises(FormatError):
        parse_finite_monoid("\n".join(lines) + "\n")


@pytest.mark.parametrize("identity", ["identity ", "identity 0 1", "identities 0"])
def test_parse_finite_monoid_needs_one_identity_element(identity):
    with pytest.raises(FormatError, match="second line must be 'identity <element>'"):
        parse_finite_monoid(f"elements 0 1\n{identity}\n0 1\n1 0\n")


def test_monoid_morphism_format_round_trip():
    z3 = cyclic_additive(3)
    phi = MonoidMorphism.make(ABC, z3, {"a": "1", "b": "2", "c": "0"})
    text = format_monoid_morphism(phi)
    back = parse_monoid_morphism(text, ABC, z3)
    assert back.assignment == phi.assignment


@pytest.mark.parametrize(
    "text, message",
    [
        ("a=1\n\nb=2\nc=0\n", None),  # blank lines are skipped
        ("a=1 \n b=2\t\nc=0\n", None),  # whitespace around a line is stripped
        ("a=1\nb:2\nc=0\n", "expected 'letter=element', got 'b:2'"),
        ("a=1\nb=2\na=0\n", "duplicate assignment for letter 'a'"),
    ],
)
def test_parse_monoid_morphism_line_errors(text, message):
    z3 = cyclic_additive(3)
    if message is None:
        assert parse_monoid_morphism(text, ABC, z3).assignment == (("a", "1"), ("b", "2"), ("c", "0"))
        return
    with pytest.raises(FormatError) as raised:
        parse_monoid_morphism(text, ABC, z3)
    assert str(raised.value) == message


def test_lz2_refutes_reversal_style_swaps():
    # the left-zero monoid sees only the first non-identity letter, so it
    # separates words that agree letterwise but disagree on order
    m = left_zero_with_identity()
    phi = MonoidMorphism.make(ABC, m, {"a": "e", "b": "x", "c": "y"})
    assert phi.word_image("bc") == "x"
    assert phi.word_image("cb") == "y"
    assert phi.word_image("abc") == "x"


def _partition(spec, bound):
    """The classes of ``spec`` on the words up to ``bound``: each word's
    class as the index of its first word."""
    first = {}
    return tuple(
        first.setdefault(spec.word_image(w.letters), i)
        for i, w in enumerate(iter_words(spec.alphabet, bound))
    )


def test_kernel_key_is_exact_on_the_catalog():
    # Equal keys exactly when the kernels agree; the words up to length 5
    # already tell every pair of the 417 kernels on abc apart.
    from cpmonoid import finite_monoid_congruences

    specs = list(finite_monoid_congruences(ABC))
    assert len(specs) == 971
    keys = [spec.kernel_key for spec in specs]
    assert len(set(keys)) == 417
    partitions = [_partition(spec, 5) for spec in specs]
    assert len(set(zip(keys, partitions))) == len(set(keys)) == len(set(partitions))


def test_kernel_ids_are_equal_exactly_when_keys_are():
    specs = list(finite_monoid_congruences(ABC)) + list(random_congruences(ABC, 0, 40, 2))
    ids = {}
    for spec in specs:
        assert ids.setdefault(spec.kernel_key, spec.kernel_id) == spec.kernel_id
    assert len(set(ids.values())) == len(ids) == 417 + len({spec.kernel_key for spec in specs[971:]})
    assert all(vars(spec)["kernel_id"] == spec.kernel_id for spec in specs)  # kept on the spec


def test_kernel_key_is_shared_by_conjugate_assignments():
    # doubling is an automorphism of Z5+, so it keeps the kernel
    z5 = cyclic_additive(5)
    one = FiniteKernelCongruence(MonoidMorphism.make(ABC, z5, {"a": "1", "b": "2", "c": "3"}))
    two = FiniteKernelCongruence(MonoidMorphism.make(ABC, z5, {"a": "2", "b": "4", "c": "1"}))
    assert one != two
    assert one.kernel_key == two.kernel_key
    assert _partition(one, 4) == _partition(two, 4)
    other = FiniteKernelCongruence(MonoidMorphism.make(ABC, z5, {"a": "1", "b": "2", "c": "4"}))
    assert other.kernel_key != one.kernel_key


def test_kernel_key_numbers_states_breadth_first():
    # Z2+ with a=1, b=0, c=1: the identity, then the class a reaches first
    spec = FiniteKernelCongruence(
        MonoidMorphism.make(ABC, cyclic_additive(2), {"a": "1", "b": "0", "c": "1"})
    )
    assert spec.kernel_key == ((1, 0, 1), (0, 1, 0))


def test_restricted_kernel_key_names_positions_in_order_of_first_appearance():
    phi = Morphism.make(ABC, {"a": "cb", "b": "", "c": "bcc"})
    assert RestrictedCongruence(phi).kernel_key == ("\x00\x01", "", "\x01\x00\x00")
    # every congruence names its key: there is no default
    class Keyless(CongruenceSpec):
        alphabet = ABC

        def word_image(self, letters):
            return letters

        def describe(self):
            return "keyless"

    with pytest.raises(TypeError, match="kernel_key"):
        Keyless()


def test_finite_kernels_commute_exactly_when_their_letter_images_do():
    specs = list(finite_monoid_congruences(ABC))
    for spec in specs:
        monoid, images = spec.monoid_morphism.monoid, [el for _, el in spec.monoid_morphism.assignment]
        expected = all(monoid.op(x, y) == monoid.op(y, x) for x, y in itertools.combinations(images, 2))
        assert spec.commutative == expected, spec.describe()
    keys = {spec.kernel_key: spec.commutative for spec in specs}
    assert (len(specs), len(keys), sum(keys.values())) == (971, 417, 390)


def test_endomorphism_kernels_commute_exactly_when_their_letter_images_do():
    standard = list(standard_congruences(ABC))
    specs = standard + [spec for n in (1, 2) for spec in random_congruences(ABC, 0, 40, n)]
    for spec in specs:
        images = [img for _, img in spec.morphism.image]
        assert spec.commutative == all(u + v == v + u for u, v in itertools.combinations(images, 2))
    assert (len(specs), sum(spec.commutative for spec in specs)) == (95, 46)
    labels = [spec.morphism.label for spec in standard if spec.commutative]
    assert labels == [f"{kind}({ch})" for kind in ("collapse_to", "project") for ch in "abc"]


def test_catalog_covers_every_kernel_of_a_monoid_of_order_at_most_3():
    # Every monoid of order ≤ 3 is among the tables on 0..n-1 with identity 0,
    # and each of its kernels on abc is a kernel of the catalog's.
    monoids = []
    for n in (1, 2, 3):
        elements = tuple(map(str, range(n)))
        cells = list(itertools.product(range(1, n), repeat=2))  # the identity fixes the rest
        for entries in itertools.product(elements, repeat=len(cells)):
            table = [[elements[i + j if 0 in (i, j) else 0] for j in range(n)] for i in range(n)]
            for (i, j), entry in zip(cells, entries):
                table[i][j] = entry
            monoid = FiniteMonoid(f"M{n}", elements, "0", tuple(map(tuple, table)))
            if monoid_validate(monoid) is None:
                monoids.append(monoid)
    assert len(monoids) == 14
    keys = {
        FiniteKernelCongruence(MonoidMorphism.make(ABC, m, dict(zip(ABC.letters, images)))).kernel_key
        for m in monoids
        for images in itertools.product(m.elements, repeat=len(ABC))
    }
    assert (sum(len(key) <= 2 for key in keys), sum(len(key) <= 3 for key in keys)) == (15, 102)
    assert keys <= {spec.kernel_key for spec in finite_monoid_congruences(ABC)}
