import hashlib
import itertools
import json
from pathlib import Path

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

from conftest import ABC, AB


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
        assert index.get(table.entries) == scan


def test_explore_two_letters_p1_e0():
    report = explore(SearchConfig(AB, domain_len=2, p=1, e=0))
    assert report.consistent == 4
    assert report.representable == 1
    assert len(report.non_representable) == 3
    assert not report.exhausted
    assert report.nodes > 0


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
