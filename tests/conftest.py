import importlib.util
import sys
from pathlib import Path

import hypothesis.strategies as strat
import pytest

from cpmonoid import Alphabet, Template, Word

ABC = Alphabet.of("abc")
AB = Alphabet.of("ab")
ABCD = Alphabet.of("abcd")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def corpus():
    """``bench/corpus.py``, the benchmark's item generators, as a module."""
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def words(alphabet=ABC, max_len=6):
    return strat.text(alphabet=list(alphabet.letters), max_size=max_len).map(
        lambda s: Word(alphabet, s)
    )


def count_word_constructions(monkeypatch):
    """Count every ``Word`` built from now on; returns a one-item list."""
    built = [0]
    original = Word.__post_init__

    def counting(self):
        built[0] += 1
        original(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    return built


def templates(alphabet=ABC, max_arity=3, max_slots=3, max_const=2):
    """Random templates: a slot sequence over 1..arity plus constants."""

    @strat.composite
    def build(draw):
        arity = draw(strat.integers(1, max_arity))
        slots = draw(
            strat.lists(strat.integers(1, arity), min_size=0, max_size=max_slots)
        )
        consts = [
            draw(strat.text(alphabet=list(alphabet.letters), max_size=max_const))
            for _ in range(len(slots) + 1)
        ]
        return Template(
            arity,
            alphabet,
            tuple(Word(alphabet, c) for c in consts),
            tuple(slots),
        )

    return build()
