"""Seeded inputs for the four benchmark workloads, with their known answers.

Every ``*_items`` function takes the corpus seed and returns a list of
:class:`Item`.  Template *shapes* (arity, slot variables, constant lengths,
the perturbed slot) are drawn from the fixed :data:`SHAPE_SEED` and belong
to the workload definition; the corpus seed draws the letters of every
constant and the item order.  So two seeds give the same workload mix (see :func:`mix`) and nearly
the same amount of work, while the inputs themselves differ: the cost of a
verdict depends far more on a function's shape than on its letters, and a
seed that could change shapes would move the timings by tens of percent.
The program under test only ever sees the generated inputs; the answers
stay on the benchmark's side.

An item's ``run()`` does the program's work and returns its raw result;
``score(raw)`` checks that result against the known answer.  Only ``run()``
is timed or traced.  The scores are:

* ``decided``: a correct, definite answer (a template equal to the hidden
  one, a certificate for an honest template, a refutation whose witness
  replays on a fresh oracle, output byte-identical to the golden file);
* ``undecided``: an honest ``indeterminate`` verdict;
* ``wrong``: a verdict the ground truth contradicts while the output still
  keeps the program's documented meaning.  The one case is ``certified-cp``
  on a function that agrees with the certified template on every tuple up to
  the validation bound but differs beyond it; such items count as failed,
  and the run stays correct;
* ``invalid``: anything else that is wrong (an exception, a witness that
  does not replay, a wrong template, output that differs from the golden
  file).  One invalid item makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from cpmonoid import (
    Alphabet,
    BuiltinFunction,
    CertifiedCP,
    Extracted,
    RefutedCP,
    SearchConfig,
    Template,
    TemplateFunction,
    Word,
    builtin,
    explore,
    extract,
    extract_fresh,
    iter_word_tuples,
    theorem_check,
    verify_witness,
)
from cpmonoid.extraction import default_validation_len

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

DECIDED, UNDECIDED, WRONG, INVALID = "decided", "undecided", "wrong", "invalid"


@dataclass
class Outcome:
    status: str
    queries: int = 0
    detail: str = ""
    verdict: str = ""  # the verdict class, for refute items


@dataclass
class Item:
    key: str  # workload-mix class: same multiset of keys for every seed
    label: str  # human-readable identity, stable for a given seed
    run: Callable[[], object] = field(repr=False)
    score: Callable[[object], Outcome] = field(repr=False)


def mix(items: list[Item]) -> dict[str, int]:
    return dict(sorted(Counter(item.key for item in items).items()))


# --------------------------------------------------------------------------
# Template generation (as in tests/test_acceptance.py, with a fixed arity)

SHAPE_SEED = 20161001


def random_template(
    shapes: random.Random,
    letters: random.Random,
    alphabet: Alphabet,
    arity: int,
    max_size: int = 8,
    min_slots: int = 0,
) -> Template:
    """A template whose shape comes from ``shapes`` and letters from ``letters``."""
    n_slots = shapes.randint(min_slots, min(4, max_size))
    e = shapes.randint(0, max_size - n_slots)
    cuts = sorted(shapes.randint(0, e) for _ in range(n_slots))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [e])]
    slots = tuple(shapes.randint(1, arity) for _ in range(n_slots))
    constants = tuple(
        Word(alphabet, "".join(letters.choice(alphabet.letters) for _ in range(n)))
        for n in lengths
    )
    return Template(arity, alphabet, constants, slots)


# --------------------------------------------------------------------------
# recover: hidden templates, each recovered by peeling and by fresh letters

RECOVER_STRATA = tuple(
    (arity, letters) for arity in (1, 2, 3) for letters in ("abc", "abcd")
)


def recover_items(seed: int, per_stratum: int) -> list[Item]:
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    items = []
    for arity, letters in RECOVER_STRATA:
        alphabet = Alphabet.of(letters)
        for _ in range(per_stratum):
            hidden = random_template(shapes, rng, alphabet, arity)
            for method in ("extract", "extract_fresh"):
                items.append(recover_item(f"{method}/arity{arity}/{letters}", hidden, method))
    rng.shuffle(items)
    return items


def recover_item(key: str, hidden: Template, method: str) -> Item:
    """Recover ``hidden`` with the extraction function named ``method``,
    looked up when the item runs so that a tracer's wrapper is used."""

    def run():
        fn = TemplateFunction(hidden)
        return globals()[method](fn), fn.query_count

    def score(raw) -> Outcome:
        got, queries = raw
        if isinstance(got, Extracted) and got.template == hidden:
            return Outcome(DECIDED, queries)
        return Outcome(INVALID, queries, f"recovered {got!r}")

    return Item(key, f"{method} {hidden}", run, score)


# --------------------------------------------------------------------------
# refute: perturbed templates, honest templates and the stock non-preservers

ABC = Alphabet.of("abc")

# A slot perturbation replaces one slot's argument x by g(x).  Sorting uses
# code-point order so that extension letters are handled too.
SLOT_PERTURBATIONS: dict[str, Callable[[str], str]] = {
    "reversed": lambda x: x[::-1],
    "sorted": lambda x: "".join(sorted(x)),
    "b_to_a": lambda x: x.replace("b", "a"),
    "erase_a": lambda x: x.replace("a", ""),
    "first_letter": lambda x: x[:1],
    "first_doubled": lambda x: x[:1] + x,
}
REVERSE_BEYOND = (1, 2, 3)
NONPRESERVING_BUILTINS = (
    "reverse",
    "sort_letters",
    "collapse_b_to_a",
    "erase_a",
    "first_letter_or_empty",
)


def _slot_perturbed(t: Template, slot: int, g: Callable[[str], str]):
    """``t`` with the argument at slot position ``slot`` passed through g."""
    heads = [w.letters for w in t.constants]

    def f(args: tuple[str, ...]) -> str:
        out = [heads[0]]
        for pos, (v, w) in enumerate(zip(t.variables, heads[1:])):
            x = args[v - 1]
            out.append(g(x) if pos == slot else x)
            out.append(w)
        return "".join(out)

    return f


def _reversed_beyond(t: Template, k: int):
    """``t``, with its output reversed once the total input length exceeds k."""

    def f(args: tuple[str, ...]) -> str:
        out = t.eval_letters(args)
        return out[::-1] if sum(map(len, args)) > k else out

    return f


def refute_items(seed: int, counts: dict[int, tuple[int, int]]) -> list[Item]:
    """``counts`` maps an arity to (items per perturbation kind, honest items)."""
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    items = []
    for arity, (per_kind, honest) in counts.items():
        for name, g in SLOT_PERTURBATIONS.items():
            for _ in range(per_kind):
                t = random_template(shapes, rng, ABC, arity, max_size=6, min_slots=1)
                slot = shapes.randrange(len(t.variables))
                label = f"{name}@slot{slot + 1} {t}"
                items.append(
                    _refute_item(f"{name}/arity{arity}", label, arity, _slot_perturbed(t, slot, g), None)
                )
        for k in REVERSE_BEYOND:
            for _ in range(per_kind):
                t = random_template(shapes, rng, ABC, arity, max_size=6, min_slots=1)
                label = f"reversed_beyond_{k} {t}"
                items.append(
                    _refute_item(f"reversed_beyond_{k}/arity{arity}", label, arity, _reversed_beyond(t, k), None)
                )
        for _ in range(honest):
            t = random_template(shapes, rng, ABC, arity, max_size=6)
            items.append(
                _refute_item(f"honest/arity{arity}", f"honest {t}", arity, t.eval_letters, t)
            )
    for name in NONPRESERVING_BUILTINS:
        items.append(verdict_item(f"builtin/{name}", f"builtin {name}", lambda name=name: builtin(name, ABC), None))
    rng.shuffle(items)
    return items


def _refute_item(key: str, label: str, arity: int, f, honest: Template | None) -> Item:
    def make() -> BuiltinFunction:
        return BuiltinFunction(label, ABC, f, arity=arity, supports_extension=True)

    return verdict_item(key, label, make, honest)


def _agrees_within_validation(fn, template: Template) -> bool:
    bound = default_validation_len(fn.arity, fn.alphabet)
    return all(
        fn.evaluate(args).letters == template.eval_letters([a.letters for a in args])
        for args in iter_word_tuples(fn.alphabet, fn.arity, bound)
    )


def verdict_item(key: str, label: str, make, honest: Template | None) -> Item:
    def run():
        fn = make()
        return theorem_check(fn), fn.query_count

    def score(raw) -> Outcome:
        verdict, queries = raw
        def outcome(status: str, detail: str = "") -> Outcome:
            return Outcome(status, queries, detail, type(verdict).__name__)

        if isinstance(verdict, RefutedCP):
            if honest is not None:
                return outcome(INVALID, "refuted an honest template")
            if not verify_witness(make(), verdict.witness):
                return outcome(INVALID, "witness does not replay on a fresh oracle")
            return outcome(DECIDED)
        if isinstance(verdict, CertifiedCP):
            if honest is not None:
                if verdict.template == honest:
                    return outcome(DECIDED)
                return outcome(INVALID, f"certified {verdict.template}, hidden {honest}")
            if _agrees_within_validation(make(), verdict.template):
                return outcome(WRONG, "certified beyond the evidence it validated")
            return outcome(INVALID, "certified template disagrees within the validation bound")
        return outcome(UNDECIDED)

    return Item(key, label, run, score)


# --------------------------------------------------------------------------
# explore: a fixed grid of two-letter (and three-letter) searches

# (alphabet, maxlen, p, e, node_budget).  ab at maxlen 2 with (2, 2) does
# not finish, so it is left out; ab at maxlen 4 is capped by its node
# budget, which makes its counts deterministic.
EXPLORE_GRID = tuple(
    [("ab", 2, p, e, None) for p in range(3) for e in range(3) if (p, e) != (2, 2)]
    + [
        ("ab", 3, 1, 0, None),
        ("ab", 3, 0, 2, None),
        ("abc", 2, 1, 0, None),
        ("abc", 2, 0, 1, None),
        ("abc", 2, 1, 1, None),
        ("ab", 4, 1, 0, 20_000),
    ]
)
EXPLORE_GOLDEN = os.path.join(GOLDEN_DIR, "explore.json")


def explore_config(letters: str, maxlen: int, p: int, e: int, budget: int | None) -> SearchConfig:
    extra = {} if budget is None else {"node_budget": budget}
    return SearchConfig(Alphabet.of(letters), domain_len=maxlen, p=p, e=e, **extra)


def explore_name(letters: str, maxlen: int, p: int, e: int, budget: int | None) -> str:
    name = f"{letters}-maxlen{maxlen}-p{p}-e{e}"
    return name if budget is None else f"{name}-budget{budget}"


def explore_summary(report) -> dict:
    """What the golden file pins for one configuration."""
    text = report.render()
    return {
        "nodes": report.nodes,
        "consistent": report.consistent,
        "representable": report.representable,
        "non_representable": len(report.non_representable),
        "family": report.family_size,
        "exhausted": report.exhausted,
        "render_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "render_bytes": len(text.encode()),
    }


def explore_items(seed: int, grid=EXPLORE_GRID) -> list[Item]:
    with open(EXPLORE_GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    items = []
    for spec in grid:
        name = explore_name(*spec)
        items.append(_explore_item(f"explore/{spec[0]}/maxlen{spec[1]}", name, spec, golden[name]))
    random.Random(seed).shuffle(items)
    return items


def _explore_item(key: str, name: str, spec, want: dict) -> Item:
    def run():
        return explore_summary(explore(explore_config(*spec)))

    def score(got) -> Outcome:
        if got != want:
            return Outcome(INVALID, 0, f"differs from golden: {got}")
        return Outcome(DECIDED)

    return Item(key, name, run, score)


# --------------------------------------------------------------------------
# cli: fresh `python -m cpmonoid.cli` processes, byte-compared to golden files

CLI_GOLDEN_DIR = os.path.join(GOLDEN_DIR, "cli")
CLI_INPUT_DIR = os.path.join(GOLDEN_DIR, "inputs")
# The directory the package was imported from: src/ for the program under
# test, baseline/ for its frozen copy.  CLI children import from it too.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["cpmonoid"].__file__)))
BUILTINS = (
    "reverse",
    "sort_letters",
    "square",
    "collapse_b_to_a",
    "erase_a",
    "first_letter_or_empty",
)


def cli_script() -> list[tuple[str, list[str]]]:
    """(name, argv after ``python -m cpmonoid.cli``) for every scripted run.

    The ``exec:`` oracle runs the benchmark's own interpreter, which finds
    the package through ``PYTHONPATH`` (see :func:`use_source_tree`).
    """
    identity = f"exec:{sys.executable} -m cpmonoid.identity_oracle"
    script = [
        ("readme-extract-square", ["extract", "--oracle", "builtin:square"]),
        ("readme-profile-erase_a", ["profile", "--oracle", "builtin:erase_a"]),
        ("readme-eval", ["eval", "-t", os.path.join(CLI_INPUT_DIR, "quick_tour.tpl"), "ba", "cc"]),
        ("readme-morphism-apply", ["morphism", "apply", "-m", os.path.join(CLI_INPUT_DIR, "readme.morph"), "abcab"]),
    ]
    script += [(f"check-{name}", ["check", "--oracle", f"builtin:{name}"]) for name in BUILTINS]
    script.append(("explore-ab-maxlen2-1-1", ["explore", "--maxlen", "2", "--coeff", "1,1"]))
    script += [
        (f"extract-exec-identity-arity{k}", ["extract", "--oracle", identity, "--arity", str(k)])
        for k in (1, 2, 3)
    ]
    return script


def use_source_tree() -> None:
    """Make child interpreters import the package from :data:`SRC_DIR`."""
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC_DIR + (os.pathsep + path if path else "")
    os.environ.pop("CPMONOID_SEED", None)


def run_cli(argv: list[str]) -> tuple[bytes, int, int]:
    """Run one CLI child; returns (stdout, exit code, child peak RSS in KiB).

    The child is reaped with ``os.wait4`` so that its own peak RSS (which
    covers the oracle process it waited for) is read per run.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpmonoid.cli", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


def run_cli_in_process(argv: list[str]) -> tuple[bytes, int]:
    """``cli.run`` in this process with its stdout captured."""
    cli = sys.modules["cpmonoid.cli"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv)
    return buffer.getvalue().encode(), code


def cli_golden(name: str) -> tuple[bytes, int]:
    with open(os.path.join(CLI_GOLDEN_DIR, name + ".out"), "rb") as handle:
        out = handle.read()
    with open(os.path.join(CLI_GOLDEN_DIR, name + ".code"), encoding="ascii") as handle:
        code = int(handle.read())
    return out, code


def cli_items(seed: int, child_rss: list[int], in_process: bool = False) -> list[Item]:
    """The scripted runs in a seeded order.

    With ``in_process`` each run goes through ``cli.run`` in this process
    (for the traced run); otherwise it is a fresh child whose peak RSS is
    appended to ``child_rss``.
    """
    items = [_cli_item(name, argv, child_rss, in_process) for name, argv in cli_script()]
    random.Random(seed).shuffle(items)
    return items


def _cli_item(name: str, argv: list[str], child_rss: list[int], in_process: bool) -> Item:
    want = cli_golden(name)

    def run():
        if in_process:
            return run_cli_in_process(argv)
        out, code, rss = run_cli(argv)
        child_rss.append(rss)
        return out, code

    def score(got) -> Outcome:
        if got != want:
            return Outcome(INVALID, 0, f"exit {got[1]}, {len(got[0])} bytes differ from golden")
        return Outcome(DECIDED)

    return Item(f"cli/{argv[0]}", name, run, score)
