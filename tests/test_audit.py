import collections
import importlib
import itertools
import shlex
import sys

import pytest

from cpmonoid import (
    BUILTIN_NAMES,
    Alphabet,
    AuditResult,
    BuiltinFunction,
    CertifiedCP,
    Extracted,
    FiniteKernelCongruence,
    Indeterminate,
    Morphism,
    NotRCP,
    RefutedCP,
    RestrictedCongruence,
    Template,
    TemplateFunction,
    Witness,
    audit,
    builtin,
    check_preservation,
    collapse_to,
    congruent_pairs,
    extract,
    extract_fresh,
    finite_monoid_congruences,
    iter_words,
    standard_congruences,
    theorem_check,
    verify_witness,
)

from cpmonoid.audit import (
    _FAMILIES,
    _SCHEDULE,
    _Sweep,
    _audit_specs,
    _scan,
    random_congruences,
)
from cpmonoid.cli import run
from cpmonoid.words import AlphabetError, strings_up_to

from conftest import AB, ABC, count_word_constructions


def brute_first_witness(fn, spec, bound):
    """Independent oracle: first violated congruent pair in scan order."""
    ws = list(iter_words(spec.alphabet, bound))
    classes = {}
    for w in ws:
        classes.setdefault(spec.word_image(w.letters), []).append(w)
    for x, y in congruent_pairs(spec, bound):
        if spec.word_image(fn(x).letters) != spec.word_image(fn(y).letters):
            return (x, y)
    return None


def test_standard_family_census():
    specs = list(standard_congruences(ABC))
    # 3 collapse + 3 project + 3 erase + 6 ordered identifications
    assert len(specs) == 15
    labels = [s.describe() for s in specs]
    assert any("collapse_to(a)" in text for text in labels)
    assert any("identify(c->b)" in text for text in labels)


def test_finite_monoid_family_census():
    specs = list(finite_monoid_congruences(ABC))
    # every assignment of three letters into each catalog monoid
    from cpmonoid import monoid_catalog

    expected = sum(len(m.elements) ** 3 for m in monoid_catalog())
    assert len(specs) == expected


def test_random_family_deterministic():
    a = [s.describe() for s in random_congruences(ABC, seed=7, count=5, image_len=2)]
    b = [s.describe() for s in random_congruences(ABC, seed=7, count=5, image_len=2)]
    c = [s.describe() for s in random_congruences(ABC, seed=8, count=5, image_len=2)]
    assert a == b
    assert a != c


def test_audit_schedule_census():
    # check's phases in escalation order, and the phases each family selects
    names = [name for name, _ in _SCHEDULE]
    assert names == ["standard", "finite_monoids"]
    sizes = [sum(1 for _ in congruences(ABC)) for _, congruences in _SCHEDULE]
    assert sizes == [15, 971]
    selected = {family: [name for name, _ in phases] for family, phases in _FAMILIES.items()}
    assert selected == {"standard": names[:1], "finite_monoids": names[1:], "all": names}
    for family in ("bogus", "random"):
        with pytest.raises(ValueError):
            audit(builtin("reverse", ABC), family=family)


# Kernels of seeded random endomorphisms.  No audit phase draws them, but they
# are restricted kernels with repeated keys beyond the standard phase's ten,
# so the tests below also sweep them, as a third family ``random`` that
# ``random_family`` installs.
RANDOM_PHASES = tuple(
    (f"random(image<={n})", lambda alphabet, n=n: random_congruences(alphabet, 0, 40, n))
    for n in (1, 2)
)


@pytest.fixture
def random_family(monkeypatch):
    """``audit(fn, "random")`` sweeps ``RANDOM_PHASES``, one after the other."""
    monkeypatch.setitem(_FAMILIES, "random", RANDOM_PHASES)


def restricted_specs(alphabet, seed=0):
    """The standard specs, then 40 random ones with images of length at most
    1 and 40 with images of length at most 2."""
    specs = list(standard_congruences(alphabet))
    return specs + [spec for n in (1, 2) for spec in random_congruences(alphabet, seed, 40, n)]


def test_check_preservation_finds_reverse_witness():
    # a |-> ab, b |-> b, c |-> a identifies 'a' with 'cb'; reversal tells
    # them apart, and the scan finds that exact first pair
    phi = Morphism.make(ABC, {"a": "ab", "b": "b", "c": "a"})
    spec = RestrictedCongruence(phi)
    fn = builtin("reverse", ABC)
    w = check_preservation(fn, spec, length_bound=2)
    assert w is not None
    assert (w.left[0].letters, w.right[0].letters) == brute_first_witness(
        fn, spec, 2
    )
    assert (w.left[0].letters, w.right[0].letters) == ("a", "cb")


def test_reverse_witness_ab_cbb_is_valid():
    # a larger hand-checked witness for the same kernel: ab and cbb share
    # the image abb, their reversals do not
    phi = Morphism.make(ABC, {"a": "ab", "b": "b", "c": "a"})
    spec = RestrictedCongruence(phi)
    fn = builtin("reverse", ABC)
    w = Witness(
        spec,
        (ABC.word("ab"),),
        (ABC.word("cbb"),),
        fn("ab"),
        fn("cbb"),
    )
    assert spec.word_image("ab") == "abb"
    assert spec.word_image("cbb") == "abb"
    assert verify_witness(fn, w)


def test_check_preservation_none_for_templates():
    fn = TemplateFunction(Template.of(ABC, "b", 1, "", 1, ""))
    for spec in standard_congruences(ABC):
        assert check_preservation(fn, spec, length_bound=2) is None


def brute_separates(fn, spec, bound):
    """Independent oracle over every componentwise-congruent tuple pair: each
    position takes a diagonal entry or a congruent pair, in any mix."""
    words = [w.letters for w in iter_words(spec.alphabet, bound)]
    options = [(w, w) for w in words] + list(congruent_pairs(spec, bound))
    image = spec.word_image
    for chosen in itertools.product(options, repeat=fn.arity):
        left = tuple(u for u, _ in chosen)
        right = tuple(v for _, v in chosen)
        if image(fn.evaluate_letters(left)) != image(fn.evaluate_letters(right)):
            return True
    return False


SLOT_MAPS = {
    "reversed": lambda x: x[::-1],
    "sorted": lambda x: "".join(sorted(x)),
    "first_letter": lambda x: x[:1],
}


def slot_perturbed(arity, slot, g):
    """``"c" x1 ⋯ xn "a"`` with the argument at ``slot`` replaced by g(x·"ba"),
    so that g sees more than one letter when every argument has length ≤ 1."""

    def f(args):
        return "c" + "".join(g(x + "ba") if i == slot else x for i, x in enumerate(args)) + "a"

    return BuiltinFunction("perturbed", ABC, f, arity=arity)


@pytest.mark.parametrize(
    "arity, kind, slot",
    [(n, kind, slot) for n in (2, 3) for kind in SLOT_MAPS for slot in range(n)]
    + [(2, "honest", None), (3, "honest", None)],
)
def test_one_varying_argument_finds_every_witness(arity, kind, slot):
    # A function preserves a congruence iff it does so in each argument with
    # the others fixed, so the one-position scan misses no witness that the
    # full product of componentwise-congruent pairs holds.
    if kind == "honest":
        fn = TemplateFunction(Template.of(ABC, "b", arity, "", 1, "a", arity, "c"))
    else:
        fn = slot_perturbed(arity, slot, SLOT_MAPS[kind])
    specs = list(standard_congruences(ABC))
    specs += list(finite_monoid_congruences(ABC))[::37]
    found = []
    for spec in specs:
        separates = brute_separates(fn, spec, 1)
        assert (check_preservation(fn, spec, 1) is not None) == separates, spec.describe()
        found.append(separates)
    # On words of length ≤ 1 reversal is a template, rev(x·"ba") = "ab"·x, so
    # only sorting and first-letter leave a witness at this bound.
    assert any(found) == (kind in ("sorted", "first_letter"))


@pytest.mark.parametrize(
    "template",
    [
        Template.of(ABC, "ab", arity=0),
        Template.of(ABC, "a", 1, "b"),
        Template.of(ABC, "", 2, "c", 1, ""),
        Template.of(ABC, "b", 3, "", 1, "a", 2, ""),
    ],
    ids=lambda t: f"arity{t.arity}",
)
def test_audit_check_count_is_one_position_at_a_time(template):
    fn = TemplateFunction(template)
    n_words = sum(1 for _ in iter_words(ABC, 2))
    expected = sum(
        fn.arity * len(list(congruent_pairs(spec, 2))) * n_words ** (fn.arity - 1)
        for spec in standard_congruences(ABC)
    )
    result = audit(fn, family="standard", budget=None)
    assert result.witness is None and not result.truncated
    assert result.checks == expected


def reference_pair_stream(spec, arity, bound):
    """The audit's one-position stream with every congruent pair spelt out:
    each position takes every pair of ``congruent_pairs`` while the other
    positions run over all words up to the bound."""
    pairs = list(congruent_pairs(spec, bound))
    words = [w.letters for w in iter_words(spec.alphabet, bound)]
    for position in range(arity):
        for u, v in pairs:
            for rest in itertools.product(words, repeat=arity - 1):
                yield rest[:position] + (u,) + rest[position:], rest[:position] + (v,) + rest[position:]


def reference_phases(family, alphabet):
    """The phases ``audit`` sweeps for ``family``, spelt out from the
    family generators: names and congruences."""
    standard = [("standard", standard_congruences(alphabet))]
    finite = [("finite_monoids", finite_monoid_congruences(alphabet))]
    randoms = [(f"random(image<={n})", random_congruences(alphabet, 0, 40, n)) for n in (1, 2)]
    return {"standard": standard, "finite_monoids": finite, "random": randoms}[family]


def reference_audit(fn, family, bound, budget):
    """All-pairs reference for ``audit``: every pair of the stream evaluated,
    one phase after another, each phase within ``budget`` checks.

    Returns ``(witness, specs_checked, checks, truncated, phase)`` and the
    indices within their phase's stream of the pairs ``(u, w)`` whose ``u``
    is not the first word of its class (the pairs the audit settles by
    transitivity)."""
    seen = checks = 0
    truncated = False
    settled = []
    for name, specs in reference_phases(family, fn.alphabet):
        total = 0
        cut = False  # the budget cut this phase short
        for spec in specs:
            seen += 1
            first = {}
            for w in iter_words(spec.alphabet, bound):
                first.setdefault(spec.word_image(w.letters), w.letters)
            for left, right in reference_pair_stream(spec, fn.arity, bound):
                if budget is not None and total >= budget:
                    cut = True  # this spec's stream goes on past the budget
                    break
                total += 1
                u = next(a for a, b in zip(left, right) if a != b)
                if first[spec.word_image(u)] != u:
                    settled.append(total)
                out_l, out_r = fn.evaluate_letters(left), fn.evaluate_letters(right)
                if spec.word_image(out_l) != spec.word_image(out_r):
                    witness = (spec.describe(), left, right)
                    return (witness, seen, checks + total, truncated, name), settled
            if cut:
                truncated = True
                break
        checks += total
    return (None, seen, checks, truncated, None), settled


def recording(fn):
    """``fn`` with every oracle miss appended to the returned list, in order."""
    misses = []
    compute = fn._compute

    def record(key):
        misses.append(key)
        return compute(key)

    fn._compute = record
    return fn, misses


EQUIVALENCE_FUNCTIONS = {
    "honest0": lambda: TemplateFunction(Template.of(ABC, "ab", arity=0)),
    "honest1": lambda: TemplateFunction(Template.of(ABC, "a", 1, "b", 1, "")),
    "reverse": lambda: builtin("reverse", ABC),
    "sort_letters": lambda: builtin("sort_letters", ABC),
    "erase_a": lambda: builtin("erase_a", ABC),
    "collapse_b_to_a": lambda: builtin("collapse_b_to_a", ABC),
    "honest2": lambda: TemplateFunction(Template.of(ABC, "b", 2, "", 1, "a", 2, "")),
    "sorted@slot2": lambda: slot_perturbed(2, 1, SLOT_MAPS["sorted"]),
    "reversed@slot1": lambda: slot_perturbed(2, 0, SLOT_MAPS["reversed"]),
    "honest3": lambda: TemplateFunction(Template.of(ABC, "c", 3, "", 1, "a", 2, "")),
    "first_letter@slot3": lambda: slot_perturbed(3, 2, SLOT_MAPS["first_letter"]),
    # letter counts c + k1·counts(x1) + k2·counts(x2), k = (1, 2): only
    # noncommutative kernels can tell the reversed output apart
    "reversed_output2": lambda: BuiltinFunction(
        "reversed_output2", ABC, lambda args: ("b" + args[1] + args[0] + args[1] + "a")[::-1], arity=2
    ),
    # k = (2, 0, 1): the second slot is erased, the third reversed
    "reversed_slots3": lambda: BuiltinFunction(
        "reversed_slots3", ABC, lambda args: args[2][::-1] + "c" + args[0] + args[0][::-1], arity=3
    ),
    # letter counts that depend on more than the arguments' counts break the law
    "erase_a@slot1": lambda: slot_perturbed(2, 0, lambda x: x.replace("a", "")),
    "first_doubled@slot2": lambda: slot_perturbed(3, 1, lambda x: x[:1] + x),
}


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("family", ["standard", "finite_monoids", "random"])
@pytest.mark.parametrize("name", list(EQUIVALENCE_FUNCTIONS))
def test_audit_matches_all_pairs_reference(name, family, bound, random_family):
    # Comparing a word only with the first word of its class must give what
    # evaluating every congruent pair gives: the same witness, counts,
    # truncation, queries and order of oracle misses, for every budget,
    # including budgets that end inside a block of pairs settled by
    # transitivity.
    make = EQUIVALENCE_FUNCTIONS[name]
    arity = make().arity
    # arity ≥ 2 sweeps at bound 2 are cut, to keep the reference quick
    cap = None if arity < 2 or bound < 2 else 3_000
    _, settled = reference_audit(make(), family, bound, cap)
    if name.startswith("honest") and arity and bound:
        assert settled  # no witness, and classes of three or more words
    budgets = {cap, 1, 7, 50, 333}
    if settled:
        budgets |= {settled[0], settled[len(settled) // 2], settled[-1] - 1}
    for budget in sorted(budgets, key=lambda b: (b is None, b)):
        ref_fn, ref_misses = recording(make())
        expected, _ = reference_audit(ref_fn, family, bound, budget)
        fn, misses = recording(make())
        result = audit(fn, family=family, length_bound=bound, budget=budget)
        witness = result.witness
        if witness is not None:
            witness = (
                witness.spec.describe(),
                tuple(w.letters for w in witness.left),
                tuple(w.letters for w in witness.right),
            )
        got = (witness, result.specs_checked, result.checks, result.truncated, result.family)
        assert got == expected, budget
        assert fn.query_count == ref_fn.query_count, budget
        assert misses == ref_misses, budget


# --------------------------------------------------------------------------
# Classes by word image, against the classes read off the kernel key and the
# congruent pairs


def reference_kernel_classes(key, bound):
    """The classes of the kernel with ``FiniteKernelCongruence.kernel_key``
    ``key`` on the words up to ``bound``, from the key alone: a word's class
    is its state, and each length's states follow from the shorter one's,
    since words are enumerated in the key's letter order.  Returns the heads,
    live words, joins, each join's earlier class members and the pairs."""
    states, level = [0], [0]
    for _ in range(bound):
        level = [target for state in level for target in key[state]]
        states += level
    first = {}
    heads = [first.setdefault(state, i) for i, state in enumerate(states)]
    sizes = collections.Counter(states)
    live = [i for i, state in enumerate(states) if sizes[state] > 1]
    joins = [i for i in live if heads[i] != i]
    earlier = [states[:i].count(states[i]) for i in joins]
    return heads, live, joins, earlier, sum(k * (k - 1) // 2 for k in sizes.values())


def class_fields(classes):
    return (
        list(classes.heads), list(classes.live), list(classes.joins), list(classes.earlier), classes.pairs
    )


def fresh(specs):
    """New specs equal to ``specs``, with no classes built yet: the shared
    specs of the schedule may hold classes from earlier sweeps."""
    return [
        type(spec)(spec.morphism if isinstance(spec, RestrictedCongruence) else spec.monoid_morphism)
        for spec in specs
    ]


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_classes_by_image_equal_the_kernel_keys_classes(bound):
    expected = {}
    for spec in fresh(finite_monoid_congruences(ABC)):
        key = spec.kernel_key
        if key not in expected:
            expected[key] = reference_kernel_classes(key, bound)
        assert class_fields(spec.classes(bound)) == expected[key], spec.describe()


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_classes_of_restricted_specs_match_congruent_pairs(bound):
    words = list(strings_up_to(ABC, bound))
    index = {w: i for i, w in enumerate(words)}
    specs = fresh(restricted_specs(ABC))
    assert len(specs) == 95
    for spec in specs:
        earlier_words = collections.defaultdict(list)
        for u, w in congruent_pairs(spec, bound):
            earlier_words[index[w]].append(index[u])
        joins = sorted(earlier_words)
        heads = [min(earlier_words[i], default=i) for i in range(len(words))]
        live = sorted({*joins, *(heads[i] for i in joins)})
        pairs = sum(map(len, earlier_words.values()))
        expected = heads, live, joins, [len(earlier_words[i]) for i in joins], pairs
        assert class_fields(spec.classes(bound)) == expected, spec.describe()


def restricted_specs_sharing_a_key():
    """The distinct standard and random specs on abc, seeds 0 to 3, in
    groups of two or more with one kernel key."""
    groups = collections.defaultdict(dict)
    for seed in range(4):
        for spec in restricted_specs(ABC, seed):
            groups[spec.kernel_key][spec] = None
    shared = [list(group) for group in groups.values() if len(group) > 1]
    assert (len(groups), len(shared), sum(map(len, shared))) == (97, 32, 95)
    return shared


def test_equal_restricted_keys_relate_the_same_words():
    # Outputs are unbounded, so the relations must agree past the audit's
    # input bound too.
    pairs = list(itertools.combinations(strings_up_to(ABC, 4), 2))
    for first, *others in restricted_specs_sharing_a_key():
        relation = [first.congruent(u, v) for u, v in pairs]
        for spec in others:
            assert [spec.congruent(u, v) for u, v in pairs] == relation, spec.describe()


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_equal_restricted_keys_have_equal_classes(bound):
    for first, *others in map(fresh, restricted_specs_sharing_a_key()):
        expected = class_fields(first.classes(bound))
        for spec in others:
            assert class_fields(spec.classes(bound)) == expected, spec.describe()


def test_equal_keys_on_two_alphabets_share_correct_classes():
    # Keys name letter positions: every spec of the schedule and of the
    # random phases on pqr has the key of the spec of the same shape on abc,
    # and the classes its own images give are that spec's.
    pqr = Alphabet.of("pqr")
    specs = {
        alphabet: [spec for _, phase in _SCHEDULE + RANDOM_PHASES for spec in phase(alphabet)]
        for alphabet in (ABC, pqr)
    }
    assert len({spec.kernel_key for spec in specs[ABC]}) == 458  # some phases share keys
    for spec, twin in zip(specs[ABC], specs[pqr], strict=True):
        assert twin.kernel_key == spec.kernel_key, twin.describe()
        assert twin.classes(2) == spec.classes(2), twin.describe()


def test_standard_specs_are_built_once_and_keep_their_classes():
    first, second = standard_congruences(ABC), standard_congruences(ABC)
    assert first is second and len(first) == 15
    assert all(spec.classes(2) is spec.classes(2) for spec in first)


def test_a_second_audit_buckets_no_words(monkeypatch):
    # Both families keep their specs, and each spec its classes, so an audit
    # of a fresh function that reaches the specs an earlier audit reached
    # builds no classes, and its result is unchanged.
    congruence_module = importlib.import_module("cpmonoid.congruence")
    first = audit(SLOT2(), "all")
    assert first.witness is None and first.specs_checked == 15 + 971
    buckets = []
    class_heads = congruence_module._class_heads

    def counted(images):
        buckets.append(None)
        return class_heads(images)

    monkeypatch.setattr(congruence_module, "_class_heads", counted)
    assert audit(SLOT2(), "all") == first
    assert buckets == []


# --------------------------------------------------------------------------
# Sweeps: each distinct kernel once, and the whole-table check, against the
# plain sweep that scans every spec on its own


def plain_audit_specs(sweep, specs, budget):
    """The audit sweep with every spec scanned by itself through ``_scan``:
    no kernel is skipped and no output table is read."""
    fn, bound = sweep.fn, sweep.bound
    total = seen = 0
    for spec in specs:
        seen += 1
        witness, used = _scan(fn, spec, bound, None if budget is None else budget - total)
        total += used
        if witness is not None:
            return AuditResult(witness, seen, total, truncated=False)
        if used < sweep.checks_per_pair * spec.classes(bound).pairs:  # the budget cut the scan
            return AuditResult(None, seen, total, truncated=True)
    return AuditResult(None, seen, total, truncated=False)


def new_sweep(fn, bound):
    return _Sweep(fn, bound)


def sweep_outcome(sweep, make, specs, bound, budget):
    """What a sweep returns or raises, its query count and its oracle misses."""
    fn, misses = recording(make())
    try:
        result = sweep(new_sweep(fn, bound), specs, budget)
    except AlphabetError as exc:
        return ("AlphabetError", str(exc)), fn.query_count, misses
    witness = result.witness
    if witness is not None:
        witness = (witness.spec.describe(), witness.left, witness.right, witness.out_left, witness.out_right)
    return (witness, result.specs_checked, result.checks, result.truncated), fn.query_count, misses


def assert_sweeps_agree(make, specs, bound, budgets, family=None):
    """The plain sweep of ``specs`` and ``_audit_specs`` agree at each budget;
    ``family``, if given, makes the iterator that ``_audit_specs`` sweeps in
    place of ``specs``."""
    for budget in budgets:
        expected = sweep_outcome(plain_audit_specs, make, specs, bound, budget)
        swept = specs if family is None else family()
        assert sweep_outcome(_audit_specs, make, swept, bound, budget) == expected, budget


def unary(name, f, extension=True):
    return lambda: BuiltinFunction(name, ABC, lambda args: f(args[0]), arity=1, supports_extension=extension)


# x·"a"·rev(x)·x·"ca" and x·"a"·x·x reversed past length 2: every family runs
# to its end at bound 2 without a witness
SLOT2 = unary("reversed@slot2", lambda x: x + "a" + x[::-1] + x + "ca")
BEYOND2 = unary("reversed_beyond_2", lambda x: (x + "a" + x + x)[:: -1 if len(x) > 2 else 1])

# x·"b"·x, but "cc" gives "ccbca": the letter-count law fails on that one
# tuple, so no commutative kernel may pass on the strength of the law
ONE_OFF = unary("law_but_at_cc", lambda x: "ccbca" if x == "cc" else x + "b" + x)


def remove_each_letter(x):
    out = "aabbcc"
    for ch in x:
        out = out.replace(ch, "", 1)
    return out


# letter counts c - counts(x) up to length 2: a negative k, which Z2* with
# a=0, b=c=1 refutes, since f("a") = "abbcc" and f("aa") = "bbcc"
NEGATIVE_K = unary("remove_each_letter", remove_each_letter)

FINITE_FUNCTIONS = {
    "reversed@slot2": (SLOT2, 2),
    "reversed_beyond_2": (BEYOND2, 2),
    "reverse": (lambda: builtin("reverse", ABC), 2),
    "honest2": (EQUIVALENCE_FUNCTIONS["honest2"], 1),
    "reversed@slot1": (EQUIVALENCE_FUNCTIONS["reversed@slot1"], 1),
    "first_letter@slot3": (EQUIVALENCE_FUNCTIONS["first_letter@slot3"], 1),
    "honest3": (EQUIVALENCE_FUNCTIONS["honest3"], 1),
    "reversed_output2": (EQUIVALENCE_FUNCTIONS["reversed_output2"], 2),
    "reversed_slots3": (EQUIVALENCE_FUNCTIONS["reversed_slots3"], 1),
    "erase_a@slot1": (EQUIVALENCE_FUNCTIONS["erase_a@slot1"], 2),
    "first_doubled@slot2": (EQUIVALENCE_FUNCTIONS["first_doubled@slot2"], 1),
    "law_but_at_cc": (ONE_OFF, 2),
    "remove_each_letter": (NEGATIVE_K, 2),
}


def spec_totals(fn, specs, bound):
    """Each spec's kernel key, and the running total of checks at its end,
    of plain scans up to the first witness."""
    keys, ends, total = [], [], 0
    for spec in specs:
        witness, used = _scan(fn, spec, bound, None)
        total += used
        keys.append(spec.kernel_key)
        ends.append(total)
        if witness is not None:
            break
    return keys, ends


def budgets_around(totals):
    """No budget, and budgets one check before, at and one after each total."""
    return sorted({None} | {t + d for t in totals for d in (-1, 0, 1)}, key=lambda b: (b is None, b))


def settle_points(specs, bound, count):
    """Indices among the first ``count`` specs, which plain scans run to
    their end (the last perhaps to a witness): the first spec whose kernel
    an earlier spec had, the first spec with a new kernel once every word
    has been in a class of two or more (the output table exists from then
    on) and the kernel is not commutative (the table checks it), the first
    with a new commutative kernel then (the letter-count law settles it, if
    the table obeys the law), and the last spec; ``None`` where no spec
    meets a point."""
    specs = specs[:count]
    firsts = {}  # kernel key -> the first spec's index
    for i, spec in enumerate(specs):
        firsts.setdefault(spec.kernel_key, i)
    repeat = next((i for i in range(count) if firsts[specs[i].kernel_key] != i), None)
    unseen = set(range(len(list(strings_up_to(specs[0].alphabet, bound)))))
    after = []  # the new kernels after the table
    for i in firsts.values():
        if unseen:
            unseen.difference_update(specs[i].classes(bound).live)
        else:
            after.append(i)
    table = next((i for i in after if not specs[i].commutative), None)
    law = next((i for i in after if specs[i].commutative), None)
    return {"repeat": repeat, "table": table, "law": law, "last": count - 1}


@pytest.mark.parametrize("name", list(FINITE_FUNCTIONS))
def test_finite_sweep_matches_plain_scans_around_spec_totals(name):
    # Budgets one check before, at and one after the running total at the
    # end of each of the settle points: a repeated kernel, settled by its
    # id; the first new non-commutative kernel checked against the output
    # table; the first new commutative kernel then, which the law settles
    # when the table obeys it; and the last spec scanned.
    make, bound = FINITE_FUNCTIONS[name]
    specs = list(finite_monoid_congruences(ABC))
    _, ends = spec_totals(make(), specs, bound)
    points = settle_points(specs, bound, len(ends))
    if name in ("reversed@slot2", "reversed_beyond_2"):  # the law settles commutative kernels
        assert None not in points.values() and points["last"] == 970
    assert_sweeps_agree(make, specs, bound, budgets_around(ends[i] for i in points.values() if i is not None))


def test_complete_finite_memo_on_abcd_matches_plain_scans():
    # abcd's 4,885 specs fit in the memo, so a sweep after the first one
    # replays the whole memo.
    abcd = Alphabet.of("abcd")
    specs = list(finite_monoid_congruences(abcd))
    assert len(specs) == 4885 and list(finite_monoid_congruences(abcd)) == specs
    make = lambda: builtin("square", abcd)
    _, ends = spec_totals(make(), specs, 1)
    points = settle_points(specs, 1, len(ends))
    assert None not in points.values() and points["last"] == 4884
    family = lambda: finite_monoid_congruences(abcd)
    assert_sweeps_agree(make, specs, 1, budgets_around(ends[i] for i in points.values()), family)


def test_finite_sweep_past_the_memo_matches_plain_scans():
    # abcde has more specs than the memo keeps: past its 5,000th spec the
    # family builds each spec afresh.  A budget that ends past it, inside
    # a spec's count, cuts the sweep there.
    abcde = Alphabet.of("abcde")
    specs = list(itertools.islice(finite_monoid_congruences(abcde), 5_100))
    make = lambda: builtin("square", abcde)
    _, ends = spec_totals(make(), specs, 1)
    cut = next(i for i in range(5_050, 5_100) if ends[i] > ends[i - 1] + 1)
    budget = ends[cut] - 1
    assert sweep_outcome(plain_audit_specs, make, specs, 1, budget)[0] == (None, cut + 1, budget, True)
    assert_sweeps_agree(make, specs, 1, [budget], lambda: finite_monoid_congruences(abcde))


RESTRICTED_PHASES = dict([_SCHEDULE[0], *RANDOM_PHASES])


@pytest.mark.parametrize("phase", list(RESTRICTED_PHASES))
@pytest.mark.parametrize("name", ["sort_letters", "reverse", "erase_a", "honest1", "sorted@slot2", "honest2"])
def test_restricted_sweep_matches_plain_scans_around_spec_totals(name, phase):
    # The standard and random phases skip a kernel that already passed and
    # check new kernels against the output table too; budgets one check
    # before, at and one after the running total at the end of every spec.
    make = EQUIVALENCE_FUNCTIONS[name]
    specs = list(RESTRICTED_PHASES[phase](ABC))
    _, ends = spec_totals(make(), specs, 2)
    assert_sweeps_agree(make, specs, 2, budgets_around(ends))


@pytest.fixture
def visits(monkeypatch):
    """The specs a sweep checks against the table, ``("table", spec,
    passed)``, and scans pair by pair, ``("scan", spec, None)``, in order."""
    audit_module = importlib.import_module("cpmonoid.audit")
    log = []
    table_passes, scan = _Sweep._table_passes, audit_module._scan

    def recorded_table_passes(self, spec):
        passed = table_passes(self, spec)
        log.append(("table", spec, passed))
        return passed

    def recorded_scan(fn, spec, bound, max_checks):
        log.append(("scan", spec, None))
        return scan(fn, spec, bound, max_checks)

    monkeypatch.setattr(_Sweep, "_table_passes", recorded_table_passes)
    monkeypatch.setattr(audit_module, "_scan", recorded_scan)
    return log


@pytest.mark.parametrize("phase", list(RESTRICTED_PHASES)[1:])
def test_random_phases_scan_each_distinct_kernel_once(phase, visits):
    # The random phases repeat endomorphisms; a repeat passes unvisited.  A
    # template's outputs obey the letter-count law, so once the table exists
    # a new commutative kernel passes unvisited too.
    specs = list(RESTRICTED_PHASES[phase](ABC))
    first = {}  # kernel key -> the first spec with it
    for spec in specs:
        first.setdefault(spec.kernel_key, spec)
    assert len(first) < len(set(specs)) < len(specs) == 40
    sweep = new_sweep(EQUIVALENCE_FUNCTIONS["honest1"](), 2)
    result = _audit_specs(sweep, specs, None)
    assert result.witness is None and result.specs_checked == 40
    assert sweep.counts_law
    unseen, expected = set(range(len(sweep.words))), []
    for spec in first.values():  # every scan completes: the table follows the one that sees every word
        if unseen or not spec.commutative:
            expected.append(spec)
        unseen.difference_update(spec.classes(2).live)
    assert len(expected) < len(first)
    assert [spec for _, spec, _ in visits] == expected


@pytest.mark.parametrize(
    "name, outcome",
    [
        ("sort_letters", ("identify(a->c)", 11, 249)),
        ("reverse", (None, 15, 291)),
        ("sorted@slot2", ("identify(a->c)", 11, 6_514)),
        ("honest2", (None, 15, 7_566)),
    ],
)
def test_standard_phase_checks_new_kernels_against_the_table(name, outcome, visits):
    # Once collapse_to(a) and project(a) have put every word up to length 2
    # in a class of two or more, each new kernel is checked against the
    # table; one the table refuses is scanned again, pair by pair.
    # collapse_to(b) and collapse_to(c) share collapse_to(a)'s kernel, and
    # identify(y->x) shares identify(x->y)'s, so neither is visited.  Each
    # table obeys the letter-count law, so the commutative project(b) and
    # project(c) pass unvisited as well.
    sweep = new_sweep(EQUIVALENCE_FUNCTIONS[name](), 2)
    result = _audit_specs(sweep, standard_congruences(ABC), None)
    witness = result.witness and result.witness.spec.morphism.label
    assert (witness, result.specs_checked, result.checks) == outcome
    assert sweep.counts_law
    labels = [spec.morphism.label for spec in standard_congruences(ABC)][: result.specs_checked]
    shared = {"collapse_to(b)", "collapse_to(c)", "identify(b->a)", "identify(c->a)", "identify(c->b)"}
    settled = {"project(b)", "project(c)"}
    labels = [label for label in labels if label not in shared | settled]
    expected = [("scan", label, None) for label in labels[:2]]
    expected += [("table", label, True) for label in labels[2:]]
    if witness is not None:
        expected[-1:] = [("table", witness, False), ("scan", witness, None)]
    assert [(kind, spec.morphism.label, passed) for kind, spec, passed in visits] == expected


@pytest.mark.parametrize("name", ["reversed_beyond_2", "reversed_output2", "reversed_slots3"])
def test_commutative_kernels_image_nothing_once_the_table_obeys_the_law(name, monkeypatch):
    # Each table obeys the letter-count law (reversed_beyond_2 is x·"a"·x·x
    # up to length 2); with every class memoised, a commutative kernel
    # checked against the table images no word at all.
    make, bound = FINITE_FUNCTIONS[name]
    sweep = new_sweep(make(), bound)
    specs = list(finite_monoid_congruences(ABC))
    for spec in specs:
        spec.classes(sweep.bound)
    imaged = set()
    word_image = FiniteKernelCongruence.word_image

    def recorded(spec, letters):
        if sweep.table is not None:
            imaged.add(spec)
        return word_image(spec, letters)

    monkeypatch.setattr(FiniteKernelCongruence, "word_image", recorded)
    _audit_specs(sweep, specs, None)
    assert sweep.counts_law
    assert imaged and not any(spec.commutative for spec in imaged)


def test_a_negative_k_leaves_commutative_kernels_to_the_table():
    # c - counts(x) would obey the law but for the sign of k; Z2* is no
    # group, and its kernel with a=0, b=c=1 refutes the function once the
    # table exists
    sweep = new_sweep(NEGATIVE_K(), 2)
    result = _audit_specs(sweep, finite_monoid_congruences(ABC), None)
    assert sweep.table is not None and not sweep.counts_law
    witness = result.witness
    assert witness.spec.describe().splitlines()[0] == "congruence: kernel of morphism into Z2*"
    assert witness.spec.monoid_morphism.assignment == (("a", "0"), ("b", "1"), ("c", "1"))
    assert (witness.left, witness.right) == ((ABC.word("a"),), (ABC.word("aa"),))


def test_finite_sweep_matches_plain_scans_at_arity_0():
    specs = list(finite_monoid_congruences(ABC))
    for make in (
        EQUIVALENCE_FUNCTIONS["honest0"],
        lambda: BuiltinFunction("z", ABC, lambda args: "z", arity=0, supports_extension=True),
    ):
        assert_sweeps_agree(make, specs, 2, [None, 1, 2])


def test_out_of_alphabet_output_on_a_singleton_class_word():
    # "cc" maps to "z" and every other word to itself.  Kernels with "cc"
    # alone in its class never image "z", so both sweeps pass them; the
    # first kernel that puts "cc" with another word raises in both.
    make = unary("z_at_cc", lambda x: "z" if x == "cc" else x)
    specs = list(finite_monoid_congruences(ABC))
    alone = [spec for spec in specs if sum(spec.congruent("cc", w) for w in strings_up_to(ABC, 2)) == 1]
    joined = next(spec for spec in specs if spec not in alone)
    assert len(alone) > len({spec.kernel_key for spec in alone}) > 1
    assert_sweeps_agree(make, alone, 2, [None, 100])
    raised = sweep_outcome(_audit_specs, make, alone + [joined], 2, None)
    assert raised[0][0] == "AlphabetError"
    assert_sweeps_agree(make, alone + [joined], 2, [None])


@pytest.mark.parametrize("name", ["reversed@slot2", "reversed_beyond_2", "reverse", "reversed@slot1"])
def test_theorem_check_finite_phase_after_a_full_standard_phase(name, monkeypatch):
    # The standard phase runs to its end first and fills the memo; the
    # verdict, the counts and the oracle misses match plain scans.
    make, _ = FINITE_FUNCTIONS[name]
    fn, misses = recording(make())
    verdict = theorem_check(fn)
    audit_module = importlib.import_module("cpmonoid.audit")
    monkeypatch.setattr(audit_module, "_audit_specs", plain_audit_specs)
    ref_fn, ref_misses = recording(make())
    expected = theorem_check(ref_fn)
    assert verdict.render() == expected.render()
    assert (fn.query_count, misses) == (ref_fn.query_count, ref_misses)
    if name.startswith("reversed_beyond") or name.endswith("slot2"):
        assert isinstance(verdict, Indeterminate) and not verdict.truncated
    else:
        assert verdict.family == "finite_monoids"


AUDIT_ALL_FUNCTIONS = {
    **{name: (lambda name=name: builtin(name, ABC)) for name in BUILTIN_NAMES},
    **{
        name: EQUIVALENCE_FUNCTIONS[name]
        for name in ("sorted@slot2", "reversed@slot1", "first_letter@slot3")
    },
    "reversed@slot2": SLOT2,
    "reversed_beyond_2": BEYOND2,
}


@pytest.mark.parametrize("name", list(AUDIT_ALL_FUNCTIONS))
def test_audit_all_is_theorem_checks_sweep(name):
    # audit --family all sweeps exactly the phases that check sweeps once
    # extraction has failed, with the same budget per phase
    make = AUDIT_ALL_FUNCTIONS[name]
    verdict = theorem_check(make())
    result = audit(make(), "all")
    if isinstance(verdict, CertifiedCP):  # a template preserves every congruence
        assert result.witness is None and not result.truncated
    elif isinstance(verdict, RefutedCP):
        assert (result.witness, result.family, result.checks) == (
            verdict.witness, verdict.family, verdict.checks
        )
    else:
        assert result.witness is None and result.family is None
        assert (result.checks, result.truncated) == (verdict.checks, verdict.truncated)


def test_equal_bounded_partitions_with_different_kernels_stay_separate():
    # 417 kernels on abc, but only 331 partitions of the words up to length
    # 2.  Two kernels with one bounded partition differ on longer words: a
    # function whose outputs only the later kernel separates passes the
    # earlier one and is refuted by the later.
    specs = list(finite_monoid_congruences(ABC))
    words = list(strings_up_to(ABC, 2))

    def partition(spec):
        first = {}
        return tuple(first.setdefault(spec.word_image(w), i) for i, w in enumerate(words))

    groups = {}
    for spec in specs:
        groups.setdefault(partition(spec), []).append(spec)
    assert len(groups) == 331
    for group in groups.values():
        for earlier, later in itertools.combinations(group, 2):
            if earlier.kernel_key == later.kernel_key:
                continue
            pair = next(
                ((p, q) for p, q in congruent_pairs(earlier, 5) if not later.congruent(p, q)), None
            )
            if pair is not None:
                break
        else:
            continue
        break
    p, q = pair
    head, member = next(congruent_pairs(earlier, 2))
    make = unary("apart", lambda x: q if x == member else p, extension=False)
    result = _audit_specs(new_sweep(make(), 2), [earlier, later], None)
    assert result.witness is not None and result.witness.spec == later
    assert result.specs_checked == 2
    assert_sweeps_agree(make, [earlier, later], 2, [None])


def test_finite_family_memo_grows_lazily_up_to_its_limit(monkeypatch):
    # A sweep refuted early builds only the specs it reached; every sweep of
    # one alphabet shares the same specs, up to the memo's limit, and past it
    # builds equal ones afresh.
    audit_module = importlib.import_module("cpmonoid.audit")
    xyz = Alphabet.of("xyz")  # swept by no other test
    result = audit(builtin("reverse", xyz), family="finite_monoids")
    assert result.witness is not None
    assert len(audit_module._FINITE_FAMILIES[xyz]) == result.specs_checked < 971
    first, second = list(finite_monoid_congruences(xyz)), list(finite_monoid_congruences(xyz))
    assert len(first) == 971 and all(a is b for a, b in zip(first, second))
    monkeypatch.setattr(audit_module, "_FINITE_MEMO_LIMIT", 100)
    uvw = Alphabet.of("uvw")
    first, second = list(finite_monoid_congruences(uvw)), list(finite_monoid_congruences(uvw))
    assert first == second and len(audit_module._FINITE_FAMILIES[uvw]) == 100
    assert first[99] is second[99] and first[100] is not second[100]


@pytest.mark.parametrize(
    "make, queries", [(BEYOND2, 15), (SLOT2, 13)], ids=["reversed_beyond_2", "reversed@slot2"]
)
def test_family_exhausting_unary_items_keep_their_counts(make, queries):
    # Exact counts of sweeps that exhaust every family, as scanning every
    # finite spec on its own gives them.
    fn = make()
    verdict = theorem_check(fn)
    assert isinstance(verdict, Indeterminate) and not verdict.truncated
    assert verdict.checks == 24_033
    assert fn.query_count == queries


def test_nine_ary_liar_exhausts_the_budget():
    # Arity stress case: a 9-ary sweep has 13^8 contexts per pair, which the
    # scan visits lazily; "".join(args) that appends "a" once an argument is
    # longer than 1 agrees with a template on every tuple the validation looks
    # at, and every family runs out of budget before a refuting congruence.
    def liar(args):
        out = "".join(args)
        return out + "a" if any(len(x) > 1 for x in args) else out

    fn = BuiltinFunction("liar9", ABC, liar, arity=9, supports_extension=True)
    verdict = theorem_check(fn)
    assert isinstance(verdict, Indeterminate), verdict.render()
    assert verdict.truncated
    assert "note: budget exhausted" in verdict.render().splitlines()
    assert verdict.checks == 400_000
    assert fn.query_count == 600_007


@pytest.mark.parametrize("arity", [5, 8, 9])
def test_check_never_certifies_what_extraction_refuted(arity):
    # From arity 5 the validation bound is 1 while the peel probes include
    # longer words, so the template x1 agrees with reverse(x1) on every tuple
    # validation looks at, but the probe ("ab", "c", ...) -> "ba" shows that
    # reverse(x1) is not a template. The verdict keeps that diagnosis.
    fn = BuiltinFunction(
        "rev1", ABC, lambda args: args[0][::-1], arity=arity, supports_extension=True
    )
    verdict = theorem_check(fn, budget=1000)
    assert isinstance(verdict, Indeterminate), verdict.render()
    assert verdict.diagnosis.reason == "peel prefix violation"
    [probe] = verdict.diagnosis.probes
    assert probe.args == ("ab",) + ("c",) * (arity - 1) and probe.output == "ba"


def reversed_first(alphabet, arity):
    return BuiltinFunction(
        "rev1", alphabet, lambda args: args[0][::-1], arity=arity, supports_extension=True
    )


@pytest.mark.parametrize("arity", [5, 8, 9])
def test_fresh_extraction_never_certifies_what_peeling_refuted(arity):
    # Fresh letters read "" x1 "" off reverse(x1), and validation bound 1
    # cannot tell the two apart, so the template is also checked on the
    # probes peeling always asks; ("ab", "c", ...) -> "ba" refutes it.
    fn = reversed_first(ABC, arity)
    out = extract_fresh(fn)
    assert isinstance(out, NotRCP) and out.reason == "validation mismatch", out
    peeled = extract(fn)
    assert peeled.reason == "peel prefix violation"
    assert out.probes == peeled.probes
    assert out.probes[0].args == ("ab",) + ("c",) * (arity - 1)


def test_fresh_extraction_asks_the_peel_probes_on_two_letters():
    # on ab the bound falls to 1 at arity 6; the probes fill with b
    out = extract_fresh(reversed_first(AB, 6))
    assert isinstance(out, NotRCP) and out.reason == "validation mismatch", out
    assert out.probes[0].args == ("ab",) + ("b",) * 5 and out.probes[0].output == "ba"


def test_honest_five_ary_fresh_extraction_pays_for_the_peel_probes():
    # 1,093 queries without the probes; the five ("ab" among c's) probes lie
    # beyond validation bound 1, and the others inside it
    t = Template.of(ABC, "ab", 1, "c", 2, "", 5, "ba", 3, "", arity=5)
    assert extract_fresh(TemplateFunction(t)) == Extracted(t, 1098)
    # an explicit bound sweeps exactly what it names
    assert extract_fresh(TemplateFunction(t), validation_len=1) == Extracted(t, 1093)


@pytest.mark.parametrize("budget, truncated", [(23_741, True), (23_742, False)])
def test_check_notes_a_cut_last_congruence_as_budget_exhausted(budget, truncated):
    # reversed_beyond_2's finite-monoid phase runs to its end in 23,742 checks
    verdict = theorem_check(BEYOND2(), budget=budget)
    assert isinstance(verdict, Indeterminate) and verdict.truncated == truncated
    note = "budget exhausted" if truncated else "all families exhausted"
    assert f"note: {note}" in verdict.render().splitlines()


def test_a_congruence_is_cut_only_by_its_own_count(capsys):
    # At bound 0 every class is one word, so every congruence's full count is
    # 0 and a budget of 0 cuts none of them; at arity 0 there is nothing to
    # vary, so every count is 0 at every bound.
    result = audit(builtin("reverse"), "all", length_bound=0, budget=0)
    assert (result.witness, result.specs_checked, result.checks, result.truncated) == (None, 986, 0, False)
    verdict = theorem_check(builtin("reverse"), length_bound=0, budget=0)
    assert "note: all families exhausted" in verdict.render().splitlines()
    oracle = f"exec:{shlex.quote(sys.executable)} -m cpmonoid.identity_oracle"
    argv = ["audit", "--oracle", oracle, "--arity", "0", "--family", "all", "--budget", "0"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "ok (986 congruences, 0 checks)\n"
    # The standard family's first congruence holds 39 checks on reverse at
    # bound 2; a budget that ends exactly there cuts the second, which counts.
    result = audit(builtin("reverse"), "standard", length_bound=2, budget=39)
    assert (result.specs_checked, result.checks, result.truncated) == (2, 39, True)


def test_theorem_check_reaches_a_later_congruence_at_arity_3():
    # "" x1 "a" x2 "c" sorted(x2) "c": the congruence that refutes it comes
    # late in the standard family, so the sweep must reach it within the
    # family's budget of 200,000 checks
    def f(args):
        return args[0] + "a" + args[1] + "c" + "".join(sorted(args[1])) + "c"

    fn = BuiltinFunction("sorted@slot3", ABC, f, arity=3, supports_extension=True)
    verdict = theorem_check(fn)
    assert isinstance(verdict, RefutedCP), verdict.render()
    assert verdict.family == "standard"
    assert verdict.checks == 126_582
    assert verify_witness(fn, verdict.witness)


def test_check_preservation_alphabet_mismatch():
    from conftest import AB

    fn = builtin("reverse", AB)
    spec = RestrictedCongruence(collapse_to(ABC, "a"))
    with pytest.raises(ValueError):
        check_preservation(fn, spec, 2)


def test_verify_witness_accepts_real_and_rejects_fake():
    phi = Morphism.make(ABC, {"a": "ab", "b": "b", "c": "a"})
    spec = RestrictedCongruence(phi)
    fn = builtin("reverse", ABC)
    w = check_preservation(fn, spec, length_bound=2)
    assert verify_witness(fn, w)
    fakes = [
        Witness(spec, w.left, w.left, w.out_left, w.out_left),  # x = y: images cannot differ
        Witness(spec, w.left * 2, w.right * 2, w.out_left, w.out_right),  # two arguments to a unary f
        Witness(spec, w.left, w.right, w.out_right, w.out_left),  # not what f gives
    ]
    for fake in fakes:
        assert not verify_witness(fn, fake), fake


def test_verify_witness_rejects_noncongruent_inputs():
    spec = RestrictedCongruence(collapse_to(ABC, "a"))
    fn = builtin("reverse", ABC)
    bad = Witness(
        spec,
        (ABC.word("a"),),
        (ABC.word("ab"),),  # different lengths: not congruent
        fn("a"),
        fn("ab"),
    )
    assert not verify_witness(fn, bad)


def test_audit_reverse_standard_comes_up_empty():
    # no endomorphism kernel in the standard family separates a word from
    # its reversal: the standard audit must pass
    result = audit(builtin("reverse", ABC), family="standard")
    assert isinstance(result, AuditResult)
    assert result.witness is None
    assert result.specs_checked == 15
    assert not result.truncated


def test_audit_reverse_finite_monoids_refutes():
    result = audit(builtin("reverse", ABC), family="finite_monoids")
    assert result.witness is not None
    assert verify_witness(builtin("reverse", ABC), result.witness)


def test_audit_budget_truncates():
    result = audit(builtin("reverse", ABC), family="standard", budget=10)
    assert result.witness is None  # nothing found...
    assert result.truncated  # ...but the sweep was cut short
    assert result.checks <= 10


def test_audit_collapse_witness_is_early():
    result = audit(builtin("collapse_b_to_a", ABC), family="standard")
    w = result.witness
    assert w is not None
    pair = (w.left[0].letters, w.right[0].letters)
    # (a, ab) under the a-projection kernel, or anything even earlier
    order = lambda s: (len(s), s)
    assert order(pair[0]) <= order("a") and order(pair[1]) <= order("ab")


def test_theorem_check_certifies_templates():
    fn = TemplateFunction(Template.of(ABC, "ca", 1, "", 1, "b"))
    verdict = theorem_check(fn)
    assert isinstance(verdict, CertifiedCP)
    assert str(verdict.template) == '"ca" x1 "" x1 "b"'
    assert "certified-cp" in verdict.render()


def test_theorem_check_certifies_square():
    verdict = theorem_check(builtin("square", ABC))
    assert isinstance(verdict, CertifiedCP)


NON_CP = [
    "reverse",
    "sort_letters",
    "collapse_b_to_a",
    "erase_a",
    "first_letter_or_empty",
]


@pytest.mark.parametrize("name", NON_CP)
def test_theorem_check_refutes_non_cp(name):
    fn = builtin(name, ABC)
    verdict = theorem_check(fn)
    assert isinstance(verdict, RefutedCP), verdict.render()
    assert verify_witness(builtin(name, ABC), verdict.witness)
    assert "WITNESS" in verdict.render()


def test_theorem_check_reverse_needs_finite_monoids():
    verdict = theorem_check(builtin("reverse", ABC))
    assert isinstance(verdict, RefutedCP)
    assert verdict.family == "finite_monoids"


def test_theorem_check_indeterminate_under_starvation():
    verdict = theorem_check(builtin("reverse", ABC), budget=2)
    assert isinstance(verdict, Indeterminate)
    assert verdict.truncated
    assert "note: budget exhausted" in verdict.render().splitlines()
    assert "indeterminate" in verdict.render()


def test_theorem_check_builds_no_word_per_check(monkeypatch):
    fn = builtin("reverse", ABC)
    built = count_word_constructions(monkeypatch)
    verdict = theorem_check(fn)
    assert isinstance(verdict, RefutedCP)
    assert verdict.checks == 1280
    assert built[0] < 50


@pytest.mark.parametrize("family", ["standard", "finite_monoids", "random"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_audit_witness_replays_on_fresh_oracle(name, family, random_family):
    result = audit(builtin(name, ABC), family=family)
    if result.witness is not None:
        assert verify_witness(builtin(name, ABC), result.witness)


def test_theorem_check_requires_three_letters():
    from conftest import AB

    with pytest.raises(ValueError):
        theorem_check(builtin("reverse", AB))


def test_witness_render_shape():
    result = audit(builtin("erase_a", ABC), family="standard")
    text = result.witness.render()
    assert text.splitlines()[0] == "WITNESS"
    assert "f(x):" in text and "f(y):" in text
    assert "image(f(x)):" in text
