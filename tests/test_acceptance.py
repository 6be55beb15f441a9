"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without ``-s`` pytest shows them for failing criteria only.
"""

import random
import time

from cpmonoid import (
    Alphabet,
    ConstEmpty,
    ConstLetter,
    Extracted,
    ExternalFunction,
    RefutedCP,
    SearchConfig,
    Template,
    TemplateFunction,
    Variable,
    Word,
    builtin,
    classify_head,
    count_words,
    enumerate_consistent,
    enumerate_templates,
    explore,
    extensional_equal,
    extract,
    extract_fresh,
    iter_words,
    theorem_check,
    verify_witness,
)
from cpmonoid.audit import random_endomorphism

SEED = 20250811
ABC = Alphabet.of("abc")


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num}: {text}"


# ----------------------------------------------------------- shared corpora


def random_template(rng: random.Random, alphabet: Alphabet, max_arity=3, max_size=8):
    arity = rng.randint(1, max_arity)
    n_slots = rng.randint(0, min(4, max_size))
    e = rng.randint(0, max_size - n_slots)
    cuts = sorted(rng.randint(0, e) for _ in range(n_slots))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [e])]
    constants = tuple(
        Word(alphabet, "".join(rng.choice(alphabet.letters) for _ in range(L)))
        for L in lengths
    )
    slots = tuple(rng.randint(1, arity) for _ in range(n_slots))
    return Template(arity, alphabet, constants, slots)


def law_corpus():
    """Criteria 1 and 2 share this corpus: (template, endos, tuples)."""
    rng = random.Random(SEED)
    for _ in range(200):
        alphabet = Alphabet.of("abcde"[: rng.choice((3, 4, 5))])
        t = random_template(rng, alphabet)
        endos = [random_endomorphism(alphabet, rng, 2) for _ in range(50)]
        tuples = [
            tuple(
                Word(
                    alphabet,
                    "".join(
                        rng.choice(alphabet.letters)
                        for _ in range(rng.randint(0, 4))
                    ),
                )
                for _ in range(t.arity)
            )
            for _ in range(5)
        ]
        yield t, endos, tuples


def unary_corpus():
    """Criterion 3's exhaustive part: every unary template with p+e <= 3."""
    for p in range(4):
        for e in range(4 - p):
            yield from enumerate_templates(ABC, 1, (p,), e)


def random_corpus():
    rng = random.Random(SEED + 3)
    return [random_template(rng, ABC, max_arity=3, max_size=6) for _ in range(100)]


# ----------------------------------------------------------------- criteria


def test_criterion_1_cp_law():
    t0 = time.time()
    checked = 0
    for t, endos, tuples in law_corpus():
        for phi in endos:
            mapped = t.map_words(phi)
            for args in tuples:
                left = phi.apply(t.eval(args))
                right = mapped.eval([phi.apply(a) for a in args])
                assert left == right, (t, phi.label, args)
                checked += 1
    dt = time.time() - t0
    report(
        1,
        checked == 200 * 50 * 5 and dt < 10,
        f"morphism/eval exchange identity exact on {checked} checks ({dt:.1f}s)",
    )


def test_criterion_2_length_laws():
    t0 = time.time()
    checked = 0
    for t, _, tuples in law_corpus():
        c = t.coefficients()
        for args in tuples:
            out = t.eval(args)
            assert len(out) == c.predicted_length([len(a) for a in args])
            for ch in t.alphabet:
                assert out.count(ch) == c.predicted_count(
                    ch, [a.count(ch) for a in args]
                )
            checked += 1
    dt = time.time() - t0
    report(
        2,
        checked == 200 * 5,
        f"total and per-letter length laws exact on {checked} tuples ({dt:.1f}s)",
    )


def test_criterion_3_extraction_round_trip():
    t0 = time.time()
    unary = list(unary_corpus())
    cases = [(t, 3) for t in unary] + [
        (t, 3 if t.arity == 1 else 2) for t in random_corpus()
    ]
    for t, bound in cases:
        got = extract(TemplateFunction(t))
        assert isinstance(got, Extracted), (str(t), got.render())
        assert extensional_equal(got.template, t, bound), str(t)
        fresh = extract_fresh(TemplateFunction(t))
        assert isinstance(fresh, Extracted), (str(t), fresh.render())
        assert extensional_equal(fresh.template, got.template, bound), str(t)
    dt = time.time() - t0
    report(
        3,
        dt < 60,
        f"extract and extract_fresh recover all {len(cases)} templates "
        f"({len(unary)} exhaustive unary + 100 random) ({dt:.1f}s)",
    )


def test_criterion_4_fresh_single_query():
    t0 = time.time()
    validation_queries = count_words(ABC, 3)
    n = 0
    for t in unary_corpus():
        fn = TemplateFunction(t)
        got = extract_fresh(fn)
        assert isinstance(got, Extracted), str(t)
        assert got.query_count == 1 + validation_queries, (
            str(t),
            got.query_count,
        )
        assert got.template == t, (str(t), str(got.template))  # exact body
        n += 1
    dt = time.time() - t0
    report(
        4,
        n > 0,
        f"unary fresh-letter extraction: exactly 1 probe + {validation_queries} "
        f"validation queries, exact body, on all {n} templates ({dt:.1f}s)",
    )


def test_criterion_5_negative_verdicts():
    t0 = time.time()
    names = [
        "reverse",
        "sort_letters",
        "collapse_b_to_a",
        "erase_a",
        "first_letter_or_empty",
    ]
    details = []
    for name in names:
        verdict = theorem_check(builtin(name, ABC))
        assert isinstance(verdict, RefutedCP), (name, verdict.render())
        assert verify_witness(builtin(name, ABC), verdict.witness), name
        w = verdict.witness
        details.append((name, w.left[0].letters, w.right[0].letters))
        if name == "collapse_b_to_a":
            pair = (w.left[0].letters, w.right[0].letters)
            order = lambda s: (len(s), s)
            assert order(pair[0]) <= order("a"), pair
            assert order(pair[1]) <= order("ab"), pair
    dt = time.time() - t0
    shown = ", ".join(f"{n}:({x!r},{y!r})" for n, x, y in details)
    report(
        5,
        dt < 30,
        f"all five non-preserving builtins refuted with verified witnesses "
        f"[{shown}] ({dt:.1f}s)",
    )


def test_criterion_6_trichotomy():
    t0 = time.time()
    n = 0
    for t in list(unary_corpus()) + random_corpus():
        got = classify_head(TemplateFunction(t))
        w0 = t.constants[0].letters
        if w0:
            want = ConstLetter(w0[0])
        elif t.variables:
            want = Variable(t.variables[0])
        else:
            want = ConstEmpty()
        assert got == want, (str(t), got, want)
        n += 1
    dt = time.time() - t0
    report(
        6,
        n > 0,
        f"head classification matches the analytic trichotomy on all {n} "
        f"corpus templates ({dt:.1f}s)",
    )


def test_criterion_7_explorer():
    t0 = time.time()
    ab = Alphabet.of("ab")
    for p in (0, 1):
        for e in (0, 1):
            rep3 = explore(SearchConfig(ABC, domain_len=2, p=p, e=e))
            assert len(rep3.non_representable) == 0, (p, e)
    found_all = True
    for p in (0, 1):
        for e in (0, 1):
            config = SearchConfig(ab, domain_len=2, p=p, e=e)
            first = explore(config)
            second = explore(config)
            assert first.render() == second.render(), "nondeterministic run"
            domain = list(iter_words(ab, config.domain_len))
            tables = {
                tuple(sorted(t.as_dict().items()))
                for t in enumerate_consistent(config)
            }
            for t in enumerate_templates(ab, 1, (p,), e):
                restriction = tuple(
                    sorted((w.letters, t.eval([w]).letters) for w in domain)
                )
                if restriction not in tables:
                    found_all = False
    dt = time.time() - t0
    report(
        7,
        found_all and dt < 60,
        "three-letter search: every consistent table is a template "
        f"restriction; two-letter search: every template restriction found, "
        f"runs deterministic ({dt:.1f}s)",
    )


def test_criterion_8_protocol():
    import shlex
    import sys

    t0 = time.time()
    cmd = f"{shlex.quote(sys.executable)} -m cpmonoid.identity_oracle"
    with ExternalFunction(cmd, 1, ABC) as fn:
        assert fn("").letters == ""  # epsilon query field
        assert fn("cab").letters == "cab"
        got = extract(fn)
    assert isinstance(got, Extracted)
    assert str(got.template) == '"" x1 ""'
    with ExternalFunction(cmd, 2, ABC) as fn2:
        assert fn2("", "b").letters == "b"  # epsilon inside a tuple
    dt = time.time() - t0
    report(
        8,
        True,
        f"identity oracle round trip over the line protocol, extraction "
        f"returns the identity template ({dt:.1f}s)",
    )
