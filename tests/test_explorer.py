import bisect
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import pytest

from cpmonoid import (
    Alphabet,
    BudgetExhausted,
    CandidateTable,
    Morphism,
    SearchConfig,
    SearchStats,
    Template,
    endomorphism_family,
    enumerate_consistent,
    enumerate_templates,
    explore,
    iter_words,
    recheck_table,
    template_index,
    template_representable,
)

from cpmonoid import explorer
from cpmonoid.explorer import _canonical_tuples

from conftest import ABC, AB, ROOT


def table_of_template(t, config):
    """Independent construction: restrict a template to the search domain."""
    entries = tuple(
        (w.letters, t.eval([w]).letters)
        for w in iter_words(config.alphabet, config.domain_len)
    )
    return CandidateTable(config.alphabet, entries)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(AB, domain_len=-1, p=1, e=0)
    with pytest.raises(ValueError):
        SearchConfig(AB, domain_len=2, p=-1, e=0)
    with pytest.raises(ValueError):
        SearchConfig(AB, domain_len=2, p=1, e=0, node_budget=0)


def test_endomorphism_family_sizes_frozen():
    # 7 kernel classes among the 7^2 = 49 image choices over two letters
    fam2 = endomorphism_family(AB, image_len=2, dedup_bound=2)
    assert len(fam2) == 7
    # 45 classes among 13^3 choices over three letters
    fam3 = endomorphism_family(ABC, image_len=2, dedup_bound=2)
    assert len(fam3) == 45


def test_endomorphism_family_distinct_kernels():
    # The family is deduplicated with str.translate signatures; recompute
    # every kernel through Morphism.apply_letters instead.
    fam = endomorphism_family(AB, image_len=2, dedup_bound=3)
    probes = [w.letters for w in iter_words(AB, 3)]

    def kernel(phi):
        buckets = {}
        sig = []
        for w in probes:
            img = phi.apply_letters(w)
            sig.append(buckets.setdefault(img, len(buckets)))
        return tuple(sig)

    kernels = [kernel(phi) for phi in fam]
    assert len(kernels) == len(set(kernels))
    # ... and the family misses no kernel of any endomorphism it stands for
    images = [w.letters for w in iter_words(AB, 2)]
    every = {
        kernel(Morphism.make(AB, dict(zip(AB.letters, combo))))
        for combo in itertools.product(images, repeat=len(AB))
    }
    assert every == set(kernels)


CANONICAL_SHAPES = [(letters, n) for letters in ("ab", "abc", "abcd") for n in range(3)]


def canonical_by_filter(letters, images):
    """The image tuples whose letters first appear in alphabet order, found
    by filtering the whole product."""
    return [
        combo
        for combo in itertools.product(images, repeat=len(letters))
        if letters.startswith("".join(dict.fromkeys("".join(combo))))
    ]


@pytest.mark.parametrize("letters,image_len", CANONICAL_SHAPES)
def test_canonical_tuples_are_the_filtered_product(letters, image_len):
    images = [w.letters for w in iter_words(Alphabet.of(letters), image_len)]
    assert _canonical_tuples(letters, images) == canonical_by_filter(letters, images)


@pytest.mark.parametrize("letters,image_len", CANONICAL_SHAPES)
def test_endomorphism_family_matches_the_filtered_product(letters, image_len):
    # The family as built by filtering renamings out of the whole product,
    # keeping the first tuple of each kernel on the probe words.
    alphabet = Alphabet.of(letters)
    images = [w.letters for w in iter_words(alphabet, image_len)]
    probes = [w.letters for w in iter_words(alphabet, 2)]
    seen, want = set(), []
    for combo in canonical_by_filter(letters, images):
        mapping = dict(zip(letters, combo))
        buckets = {}
        kernel = tuple(
            buckets.setdefault("".join(mapping[c] for c in w), len(buckets)) for w in probes
        )
        if kernel not in seen:
            seen.add(kernel)
            want.append("endo(" + ",".join(f"{c}->{img}" for c, img in mapping.items()) + ")")
    got = [phi.label for phi in endomorphism_family(alphabet, image_len, 2)]
    assert got == want


FAMILY_GRID = [
    (letters, image_len, bound)
    for letters, bounds in (("ab", range(5)), ("abc", range(5)), ("abcd", range(3)))
    for image_len in (1, 2)
    for bound in bounds
]


@pytest.mark.parametrize("letters,image_len,bound", FAMILY_GRID)
def test_endomorphism_family_is_the_first_tuple_of_each_kernel(letters, image_len, bound):
    # Brute force: the kernel of every tuple of the whole product on the
    # probe words, the first tuple of each kernel kept, in product order.
    alphabet = Alphabet.of(letters)
    images = [w.letters for w in iter_words(alphabet, image_len)]
    probes = [w.letters for w in iter_words(alphabet, bound)]
    seen, want = set(), []
    for combo in itertools.product(images, repeat=len(letters)):
        mapping = dict(zip(letters, combo))
        buckets = {}
        kernel = tuple(
            buckets.setdefault("".join(mapping[c] for c in w), len(buckets)) for w in probes
        )
        if kernel not in seen:
            seen.add(kernel)
            label = "endo(" + ",".join(f"{c}->{img}" for c, img in mapping.items()) + ")"
            want.append((label, Morphism.make(alphabet, mapping)))
    got = [(phi.label, phi) for phi in endomorphism_family(alphabet, image_len, bound)]
    assert got == want


def prefix_free(words):
    return not any(u != v and v.startswith(u) for u in words for v in words)


def is_code_by_pairs(combo):
    """Whether the distinct non-empty images are a prefix or a suffix code,
    every pair compared."""
    words = set(combo) - {""}
    return prefix_free(words) or prefix_free({w[::-1] for w in words})


ABC_WORDS_5 = [w.letters for w in iter_words(ABC, 5)]
IMAGE_WORDS = strat.text(alphabet="abc", min_size=1, max_size=3)


@hypothesis.given(
    shape=strat.lists(strat.integers(0, 3), min_size=3, max_size=3),
    first=strat.lists(IMAGE_WORDS, min_size=3, max_size=3, unique=True),
    second=strat.lists(IMAGE_WORDS, min_size=3, max_size=3, unique=True),
)
def test_code_images_of_one_shape_have_one_kernel(shape, first, second):
    # shape[i] is 0 where letter i maps to ε, else the image class it takes
    one = tuple(first[g - 1] if g else "" for g in shape)
    two = tuple(second[g - 1] if g else "" for g in shape)
    assert explorer._is_code(one) == is_code_by_pairs(one)
    assert explorer._is_code(two) == is_code_by_pairs(two)
    hypothesis.assume(is_code_by_pairs(one) and is_code_by_pairs(two))

    def kernel(combo):
        table = str.maketrans(dict(zip("abc", combo)))
        buckets = {}
        return [buckets.setdefault(w.translate(table), len(buckets)) for w in ABC_WORDS_5]

    assert kernel(one) == kernel(two)


def test_enumerate_consistent_p1_e0_frozen():
    config = SearchConfig(AB, domain_len=2, p=1, e=0)
    tables = list(enumerate_consistent(config))
    assert len(tables) == 4
    maps = [t.as_dict() for t in tables]
    identity = {w.letters: w.letters for w in iter_words(AB, 2)}
    assert identity in maps
    rev = dict(identity)
    rev["ab"], rev["ba"] = "ba", "ab"
    assert rev in maps  # reversal survives every two-letter kernel test


def test_consistent_tables_obey_letter_counts():
    config = SearchConfig(AB, domain_len=2, p=1, e=1)
    for table in enumerate_consistent(config):
        d = table.as_dict()
        base = d[""]
        for x, y in d.items():
            for ch in AB:
                assert y.count(ch) == x.count(ch) + base.count(ch)


def test_consistent_tables_pass_independent_recheck():
    config = SearchConfig(AB, domain_len=2, p=1, e=1)
    tables = list(enumerate_consistent(config))
    assert len(tables) == 108
    for table in tables:
        assert recheck_table(table, config)


def test_recheck_rejects_corrupted_table():
    config = SearchConfig(AB, domain_len=2, p=1, e=0)
    good = list(enumerate_consistent(config))[0]
    entries = dict(good.as_dict())
    entries["ab"] = "bb"  # break the letter-count law
    bad = CandidateTable(AB, tuple(entries.items()))
    assert not recheck_table(bad, config)


@pytest.mark.parametrize(
    "word, image",
    [
        ("ab", None),  # the domain lacks a word
        ("", "a"),  # |f(ε)| is not E
        ("ab", "a"),  # |f(ab)| breaks the length law
    ],
    ids=["domain", "constant-term", "length-law"],
)
def test_recheck_rejects_a_table_off_its_shape(word, image):
    config = SearchConfig(AB, domain_len=2, p=1, e=0)
    entries = dict(list(enumerate_consistent(config))[0].as_dict())
    if image is None:
        del entries[word]
    else:
        entries[word] = image
    assert recheck_table(CandidateTable(AB, tuple(entries.items())), config) is False


def test_all_template_restrictions_appear():
    # every template with the right coefficients shows up in the enumeration
    config = SearchConfig(AB, domain_len=2, p=1, e=1)
    found = {tuple(sorted(t.as_dict().items())) for t in enumerate_consistent(config)}
    for t in enumerate_templates(AB, 1, (1,), 1):
        restricted = table_of_template(t, config)
        assert tuple(sorted(restricted.as_dict().items())) in found


def test_template_representable_identity():
    config = SearchConfig(AB, domain_len=2, p=1, e=0)
    t = Template.of(AB, "", 1, "")
    table = table_of_template(t, config)
    got = template_representable(table, config)
    assert got is not None
    assert str(got) == '"" x1 ""'


def test_template_representable_rejects_reversal():
    config = SearchConfig(AB, domain_len=2, p=1, e=0)
    entries = {w.letters: w.letters[::-1] for w in iter_words(AB, 2)}
    table = CandidateTable(AB, tuple(entries.items()))
    assert template_representable(table, config) is None


def test_template_representable_first_of_agreeing_templates():
    # Over one letter "a"·x and x·"a" agree on every input; the index keeps
    # the template that enumerate_templates yields first, for either table.
    a = Alphabet.of("a")
    config = SearchConfig(a, domain_len=3, p=1, e=1)
    first = next(iter(enumerate_templates(a, 1, (1,), 1)))
    assert str(first) == '"a" x1 ""'
    for t in (Template.of(a, "a", 1, ""), Template.of(a, "", 1, "a")):
        assert template_representable(table_of_template(t, config), config) == first
    assert len(template_index(config)) == 1


@pytest.mark.parametrize("p,e", [(0, 2), (1, 1), (2, 1)])
def test_template_index_matches_linear_scan(p, e):
    config = SearchConfig(AB, domain_len=2, p=p, e=e)
    tables = list(enumerate_consistent(config))
    assert tables
    index = template_index(config)
    for table in tables:
        scan = next(
            (
                t
                for t in enumerate_templates(AB, 1, (p,), e)
                if all(t.eval_letters([x]) == y for x, y in table.entries)
            ),
            None,
        )
        assert index.get(table.text) == scan


def test_explore_two_letters_p1_e0():
    report = explore(SearchConfig(AB, domain_len=2, p=1, e=0))
    assert report.consistent == 4
    assert report.representable == 1
    assert len(report.non_representable) == 3
    assert not report.exhausted
    assert report.nodes > 0


def test_explore_keeps_its_tables_as_shared_text():
    # 32,766 non-representable tables, 5.7 MB of report: held as blocks of
    # one head each over the search's shared tails, not as a table apiece
    tracemalloc.start()
    try:
        report = explore(SearchConfig(AB, domain_len=3, p=0, e=2))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.non_representable) == 32_766
    assert kept < 1_000_000, kept
    assert repr(report.non_representable) == "<32766 tables in 128 blocks>"
    assert len(repr(report)) < 400


# Spawns argv[1:] with stdout discarded, reaps it with os.wait4 and prints its
# exit status and peak RSS in KiB.  A process's peak RSS starts at its
# parent's when it execs, so the child is spawned from this small launcher,
# not from the test process.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def test_explore_cli_keeps_its_peak_memory_low_while_printing():
    # 1M nodes: 768,779 candidate tables in 149 MB of output
    argv = [sys.executable, "-m", "cpmonoid.cli", "explore", "--alphabet", "ab", "--maxlen", "3",
            "--coeff", "1,1", "--node-budget", "1000000"]
    out = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    code, peak_kib = map(int, out.split())
    assert code == 4
    assert peak_kib < 64 * 1024, peak_kib


def test_explore_deterministic():
    config = SearchConfig(AB, domain_len=2, p=1, e=1)
    a = explore(config).render()
    b = explore(config).render()
    assert a == b


def test_explore_three_letters_all_representable():
    # with three letters the kernel constraints pin everything to templates
    for p in (0, 1):
        for e in (0, 1):
            report = explore(SearchConfig(ABC, domain_len=2, p=p, e=e))
            assert len(report.non_representable) == 0, (p, e)
            assert report.consistent == report.representable


def test_explore_node_budget():
    config = SearchConfig(AB, domain_len=2, p=1, e=1, node_budget=10)
    report = explore(config)
    assert report.exhausted
    assert report.nodes <= 10 + 1
    assert report.family_size == 7


def test_enumerate_consistent_budget_raises():
    config = SearchConfig(AB, domain_len=2, p=1, e=1, node_budget=5)
    stats = SearchStats()
    with pytest.raises(BudgetExhausted):
        list(enumerate_consistent(config, stats))
    assert stats.nodes >= 5


def test_report_render_flags_candidates():
    report = explore(SearchConfig(AB, domain_len=2, p=1, e=0))
    text = report.render()
    assert "bounded evidence only" in text
    assert "consistent 4" in text
    assert "non-representable 3" in text


def test_candidate_table_render_round_trip():
    config = SearchConfig(AB, domain_len=1, p=1, e=0)
    table = next(iter(enumerate_consistent(config)))
    text = table.render()
    # TAB-separated rows, one per domain word
    rows = [line.split("\t") for line in text.rstrip("\n").split("\n")]
    assert all(len(r) == 2 for r in rows)
    assert dict((a, b) for a, b in rows) == table.as_dict()


ROUND_TRIP_CONFIGS = [
    ("ab", 2, 1, 0), ("ab", 2, 0, 0), ("ab", 2, 1, 1), ("abc", 2, 1, 0), ("abc", 2, 0, 1),
]


def test_table_text_round_trips_through_entries():
    # e = 0 gives f(ε) = ε, whose line is a bare TAB; p = e = 0 gives only
    # empty outputs, every line ending in its TAB.
    tables = []
    for letters, maxlen, p, e in ROUND_TRIP_CONFIGS:
        config = SearchConfig(Alphabet.of(letters), domain_len=maxlen, p=p, e=e)
        found = list(enumerate_consistent(config))
        assert found
        domain = [w.letters for w in iter_words(config.alphabet, maxlen)]
        for table in found:
            entries = table.entries
            assert [x for x, _ in entries] == domain
            assert all(isinstance(entry, tuple) and len(entry) == 2 for entry in entries)
            rebuilt = CandidateTable(table.alphabet, entries)
            assert rebuilt.text == table.text
            assert rebuilt == table and hash(rebuilt) == hash(table)
            assert table.as_dict() == dict(entries)
            assert table.render() == "".join(f"{x}\t{y}\n" for x, y in entries)
        tables += found
    assert tables[0].text.startswith("\t\n")
    # equality and hashing go by alphabet and entries, across configurations
    for a, b in itertools.product(tables, repeat=2):
        assert (a == b) == ((a.alphabet, a.entries) == (b.alphabet, b.entries))
    assert len(set(tables)) == len({(t.alphabet, t.entries) for t in tables})
    ab = tables[0]
    assert CandidateTable(ABC, ab.entries) != ab
    assert CandidateTable(AB, ()).entries == ()


def render_from_entries(report):
    """The report's lines, written out independently from each table's entries."""
    cfg = report.config
    lines = [
        f"explore alphabet {cfg.alphabet} maxlen {cfg.domain_len} "
        f"p {cfg.p} e {cfg.e} image-len {cfg.image_len}",
        f"family {report.family_size}",
        f"nodes {report.nodes}",
        f"consistent {report.consistent}",
        f"representable {report.representable}",
        f"non-representable {len(report.non_representable)}",
    ]
    if report.exhausted:
        lines.append("budget exhausted: results are a lower bound")
    for i, table in enumerate(report.non_representable):
        lines.append(
            f"candidate {i} (consistent, not a template restriction; bounded evidence only)"
        )
        lines += [f"{x}\t{y}" for x, y in table.entries]
    return lines


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(AB, domain_len=4, p=1, e=0, node_budget=20_000),
        SearchConfig(ABC, domain_len=2, p=1, e=1),
    ],
    ids=["ab-maxlen4-cut", "abc-maxlen2-p1-e1"],
)
def test_report_lines_match_a_renderer_from_entries(config):
    report = explore(config)
    assert report.consistent
    if config.alphabet == AB:
        assert report.exhausted and report.non_representable
    # compared as lists of lines, which pytest diffs quickly on failure
    assert "\n".join(report.chunks()).split("\n") == render_from_entries(report)


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "explore.json"
FAST_GOLDEN = (
    [("ab", 2, p, e) for p in range(3) for e in range(3) if (p, e) != (2, 2)]
    + [("ab", 3, 1, 0), ("abc", 2, 1, 0), ("abc", 2, 0, 1), ("abc", 2, 1, 1)]
)


@pytest.mark.parametrize("letters,maxlen,p,e", FAST_GOLDEN)
def test_explore_matches_golden_summary(letters, maxlen, p, e):
    # The benchmark's golden summaries pin every count and the exact render.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = golden[f"{letters}-maxlen{maxlen}-p{p}-e{e}"]
    report = explore(SearchConfig(Alphabet.of(letters), domain_len=maxlen, p=p, e=e))
    text = report.render().encode()
    got = {
        "nodes": report.nodes,
        "consistent": report.consistent,
        "representable": report.representable,
        "non_representable": len(report.non_representable),
        "family": report.family_size,
        "exhausted": report.exhausted,
        "render_sha256": hashlib.sha256(text).hexdigest(),
        "render_bytes": len(text),
    }
    assert got == want


BUDGET_CUTS = [
    ("abc", 3, 1, 1, 700),  # a cut above the block
    ("ab", 3, 0, 2, 30_000),  # a cut inside a block
    ("ab", 4, 1, 0, 20_000),
]


@pytest.mark.parametrize(
    "letters,maxlen,p,e,budget", [(*spec, None) for spec in FAST_GOLDEN] + BUDGET_CUTS
)
def test_report_tables_are_the_search_filtered_through_the_index(letters, maxlen, p, e, budget):
    extra = {} if budget is None else {"node_budget": budget}
    config = SearchConfig(Alphabet.of(letters), domain_len=maxlen, p=p, e=e, **extra)
    index = template_index(config)
    found, cut = [], False
    try:
        found.extend(enumerate_consistent(config))
    except BudgetExhausted:
        cut = True
    want = [table for table in found if table.text not in index]
    report = explore(config)
    assert report.exhausted == cut == (budget is not None)
    assert (report.consistent, report.representable) == (len(found), len(found) - len(want))
    tables = report.non_representable
    assert list(tables) == want
    assert list(tables) == want  # a second walk sees the same tables
    assert len(tables) == len(want)
    assert bool(tables) == bool(want)
    assert report == explore(config)


RENDERED = [(*spec, None) for spec in FAST_GOLDEN] + [("ab", 3, 0, 2, 30_000)]


@pytest.mark.parametrize("letters,maxlen,p,e,budget", RENDERED)
def test_render_joins_the_chunks(letters, maxlen, p, e, budget):
    # The header is one chunk and each kept block one more.
    extra = {} if budget is None else {"node_budget": budget}
    report = explore(SearchConfig(Alphabet.of(letters), domain_len=maxlen, p=p, e=e, **extra))
    want = render_from_entries(report)
    chunks = list(report.chunks())
    text = "\n".join(chunks)
    assert text == report.render()
    assert text.split("\n") == want
    header = 7 if report.exhausted else 6
    assert chunks[0].split("\n") == want[:header]
    assert all(chunk.startswith("candidate ") for chunk in chunks[1:])
    # an empty report, such as abc maxlen 2 (1,0), is its header alone
    assert (len(chunks) == 1) == (not report.non_representable)
    assert (budget is not None) == report.exhausted


def test_report_tables_are_walked_not_indexed():
    tables = explore(SearchConfig(AB, domain_len=2, p=1, e=1)).non_representable
    assert tables
    for key in (0, -1, slice(0, 2)):
        with pytest.raises(TypeError):
            tables[key]


def test_reports_differ_where_their_tables_do():
    config = SearchConfig(AB, domain_len=2, p=1, e=1)
    full, cut = explore(config), explore(SearchConfig(AB, domain_len=2, p=1, e=1, node_budget=60))
    assert full != cut
    assert full.non_representable != cut.non_representable
    assert cut.non_representable == explore(cut.config).non_representable
    cut.config = config
    assert full != cut


# -- the letter-count law and the search that skips non-pruning kernels ------


def bases(config):
    """Every f(ε): the words of length e, lexicographic."""
    return ["".join(t) for t in itertools.product(config.alphabet.letters, repeat=config.e)]


def law_outputs(alphabet, x, base, p):
    """Every output for ``x`` obeying the letter-count law, lexicographic."""
    letters = alphabet.letters
    length = p * len(x) + len(base)
    return [
        y
        for y in ("".join(t) for t in itertools.product(letters, repeat=length))
        if all(y.count(c) == p * x.count(c) + base.count(c) for c in letters)
    ]


def law_tables(config):
    """Every table obeying the letter-count law, in search order."""
    alphabet, p = config.alphabet, config.p
    domain = [w.letters for w in iter_words(alphabet, config.domain_len)][1:]
    for base in bases(config):
        columns = [law_outputs(alphabet, x, base, p) for x in domain]
        for outputs in itertools.product(*columns):
            yield (("", base),) + tuple(zip(domain, outputs))


def law_count(config):
    """Closed form: over each f(ε), the product over domain words of the
    number of arrangements of the forced letter counts."""
    letters = config.alphabet.letters
    domain = [w.letters for w in iter_words(config.alphabet, config.domain_len)][1:]
    total = 0
    for base in bases(config):
        ways = 1
        for x in domain:
            counts = [config.p * x.count(c) + base.count(c) for c in letters]
            ways *= math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
        total += ways
    return total


def reference_run(config, budget, family=()):
    """Naive backtracking over the letter-count law.  Every morphism of
    ``family`` is checked against every earlier word: an option ``(x, y)`` is
    pruned when the morphism relates ``x`` to an earlier ``u`` but not ``y`` to
    ``u``'s output.  Returns the tables yielded, the node count where the
    search stops, whether the budget tripped, the domain index of every tried
    node, and the node count at each table."""
    alphabet, p = config.alphabet, config.p
    domain = [w.letters for w in iter_words(alphabet, config.domain_len)]
    tables, levels, at_table = [], [], []

    # for each domain word, every (morphism, earlier word) pair that relates them
    related = [[] for _ in domain]
    for phi in family:
        images = [phi.apply_letters(x) for x in domain]
        for i, j in itertools.combinations(range(len(domain)), 2):
            if images[i] == images[j]:
                related[j].append((phi.apply_letters, i))

    def pruned(y, entries):
        return any(image(y) != image(entries[j][1]) for image, j in related[len(entries)])

    class Cut(Exception):
        pass

    def visit(entries):
        if len(entries) == len(domain):
            tables.append(tuple(entries))
            at_table.append(len(levels))
            return
        x = domain[len(entries)]
        options = law_outputs(alphabet, x, entries[0][1], p) if entries else bases(config)
        for y in options:
            if len(levels) == budget:
                levels.append(len(entries))
                raise Cut
            levels.append(len(entries))
            if not pruned(y, entries):
                visit(entries + [(x, y)])

    try:
        visit([])
    except Cut:
        return tables, budget + 1, True, levels, at_table
    return tables, len(levels), False, levels, at_table


TWO_LETTER_GRID = [
    (maxlen, p, e, image_len)
    for maxlen in range(4)
    for p in range(3)
    for e in range(3)
    for image_len in (1, 2)
    # the rest of maxlen 3, and (2, 2) at maxlen 2, hold ≥ 500k tables
    if (maxlen < 3 and (p, e) != (2, 2)) or (maxlen == 3 and (p == 0 or (p, e) == (1, 0)))
]


@pytest.mark.parametrize("maxlen,p,e,image_len", TWO_LETTER_GRID)
def test_two_letter_tables_are_exactly_the_letter_count_law(maxlen, p, e, image_len):
    # On two letters a non-injective endomorphism has commuting letter images,
    # so no kernel of the family prunes a table obeying the law.
    config = SearchConfig(AB, domain_len=maxlen, p=p, e=e, image_len=image_len)
    consistent = sum(1 for _ in enumerate_consistent(config))
    assert consistent == law_count(config)


def run_search(config):
    stats = SearchStats()
    tables = []
    try:
        for table in enumerate_consistent(config, stats):
            tables.append(table.entries)
    except BudgetExhausted as exc:
        assert exc.stats is stats
        return tables, stats, True
    return tables, stats, False


@pytest.mark.parametrize("maxlen,e", [(2, 1), (0, 2)])
def test_prune_free_search_stops_where_naive_backtracking_would(maxlen, e):
    # On two letters no kernel is checked, so every budget cut must land
    # where the naive backtracker's does.
    base = SearchConfig(AB, domain_len=maxlen, p=1, e=e)
    full_tables, full_nodes, _, levels, at_table = reference_run(base, float("inf"))
    assert full_tables == list(law_tables(base))
    cut_at = set()  # domain index of the node each budget trips on
    cut_on_leaf = False  # a budget whose last allowed node is a leaf
    for budget in range(1, full_nodes + 2):
        config = SearchConfig(AB, domain_len=maxlen, p=1, e=e, node_budget=budget)
        want_tables, want_nodes, want_cut, *_ = reference_run(config, budget)
        got_tables, stats, cut = run_search(config)
        assert (got_tables, stats.nodes, cut) == (want_tables, want_nodes, want_cut), budget
        if cut:
            cut_at.add(levels[budget])
            cut_on_leaf |= budget in at_table
    # cuts at an f(ε) node, at every later level, and right after a leaf
    assert cut_at == set(range(len(list(iter_words(AB, maxlen)))))
    assert cut_on_leaf


@pytest.mark.parametrize("p,e,nodes", [(1, 0, 19), (0, 1, 39), (1, 1, 212)])
def test_pruned_search_stops_where_naive_backtracking_would(p, e, nodes):
    # On three letters kernels prune; the reference checks every kernel of the
    # family, commutative ones included, so every budget cut must still land
    # where its search does.
    base = SearchConfig(ABC, domain_len=2, p=p, e=e)
    family = endomorphism_family(ABC, base.image_len, max(2, 2 * p + e))
    _, full_nodes, *_ = reference_run(base, float("inf"), family)
    assert full_nodes == nodes
    for budget in range(1, nodes + 2):
        config = SearchConfig(ABC, domain_len=2, p=p, e=e, node_budget=budget)
        want_tables, want_nodes, want_cut, *_ = reference_run(config, budget, family)
        got_tables, stats, cut = run_search(config)
        assert (got_tables, stats.nodes, cut) == (want_tables, want_nodes, want_cut), budget


@pytest.mark.parametrize("budget", [1, 2, 31, 32, 5000])
def test_large_two_letter_search_cut_by_budget(budget):
    # Below f(ε) = "a" alone the law allows about 9.3e19 tables here.
    config = SearchConfig(AB, domain_len=4, p=1, e=1, node_budget=budget)
    want_tables, want_nodes, want_cut, *_ = reference_run(config, budget)
    got_tables, stats, cut = run_search(config)
    assert want_cut
    assert (got_tables, stats.nodes, cut) == (want_tables, want_nodes, True)


def test_search_stats_are_current_at_each_table():
    config = SearchConfig(AB, domain_len=2, p=1, e=1)
    *_, at_table = reference_run(config, float("inf"))
    stats = SearchStats()
    seen = [stats.nodes for _ in enumerate_consistent(config, stats)]
    assert seen == at_table


@pytest.mark.parametrize("p,e", [(1, 0), (0, 1)])
def test_unchecked_kernels_lose_no_constraint_on_three_letters(p, e):
    # recheck_table checks every kernel of the family, commutative ones
    # included; the search checks only the kernels that can prune.
    config = SearchConfig(ABC, domain_len=2, p=p, e=e)
    kept = [
        entries
        for entries in law_tables(config)
        if recheck_table(CandidateTable(ABC, entries), config)
    ]
    assert [t.entries for t in enumerate_consistent(config)] == kept


# -- the block of free levels laid out once per f(ε) ---------------------------


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of at most 4 leaves, so the search walks free levels above a
    block that it emits many times (and, where even the last level has more
    than 4 options, emits an empty block at each leaf)."""
    monkeypatch.setattr(explorer, "_BLOCK_MAX", 4)


def budgets_for(full_nodes, e):
    if e == 1:
        return range(1, full_nodes + 2)
    # (1, 2) has 14,519 nodes: every budget through the first f(ε) subtree,
    # with its empty blocks, and well into the second, with 4-leaf blocks;
    # beyond that a stride, and the last nodes
    return sorted({*range(1, 1001), *range(1001, full_nodes, 101),
                   *range(full_nodes - 10, full_nodes + 2)})


@pytest.mark.parametrize("e", [1, 2])
def test_small_blocks_stop_where_naive_backtracking_would(small_blocks, e):
    base = SearchConfig(AB, domain_len=2, p=1, e=e)
    full_tables, full_nodes, _, _, at_table = reference_run(base, float("inf"))
    full_texts = ["\n".join(map("\t".join, entries)) for entries in full_tables]
    for budget in budgets_for(full_nodes, e):
        config = SearchConfig(AB, domain_len=2, p=1, e=e, node_budget=budget)
        want_texts = full_texts[:bisect.bisect_right(at_table, budget)]
        stats, got_texts = SearchStats(), []
        with pytest.raises(BudgetExhausted) if budget < full_nodes else nullcontext():
            got_texts.extend(table.text for table in enumerate_consistent(config, stats))
        assert (got_texts, stats.nodes) == (want_texts, min(budget + 1, full_nodes)), budget


@pytest.mark.parametrize("small", [True, False], ids=["block-max-4", "default"])
def test_search_stats_are_current_at_each_table_around_blocks(monkeypatch, small):
    if small:
        monkeypatch.setattr(explorer, "_BLOCK_MAX", 4)
    config = SearchConfig(AB, domain_len=3, p=1, e=0)
    tables, nodes, _, _, at_table = reference_run(config, float("inf"))
    assert nodes == 7302
    stats = SearchStats()
    seen = [(table.entries, stats.nodes) for table in enumerate_consistent(config, stats)]
    assert seen == list(zip(tables, at_table))
    assert stats.nodes == nodes
