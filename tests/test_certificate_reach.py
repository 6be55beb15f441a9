"""Certificate reach: how shallow a lie can escape ``extract``, by arity.

A liar is a template T that answers T's output passed through a deviation
D wherever a condition C on the argument lengths holds at depth d:

- T: three templates per arity from ``bench/corpus.py``'s
  ``random_template``, shapes from ``SHAPE_SEED`` and letters from
  ``Random(7)``, over ``abc`` with ``max_size=6`` and ``min_slots=1``, drawn
  in arity order;
- C: the total length exceeds d; some argument is longer than d; the first
  argument is; the last argument is; two arguments are (at arity 1, the
  argument is longer than 2d + 1);
- D: reverse the output; append ``a``; swap ``a`` and ``b``; sort it;
- d: 0 to 4.

A liar's *onset* is the total length of its first tuple, in total-length
order, on which it differs from T; a liar with none within the cap (7
letters at arity 1 and 2, 6 at arity 3) is dropped.  A certificate is wrong
when the liar differs from the certified template on a tuple within the
cap plus one; by the paper such a liar is not congruence preserving.  The
*reach* of an arity is the largest n such that no liar with onset at most
n is certified.

A change that lowers a reach or certifies another liar fails here; one that
raises a reach moves the pin on purpose.
"""

import itertools
import random

import pytest

from cpmonoid import Alphabet, BuiltinFunction, Extracted, extract
from cpmonoid.words import strings_of_length

ABC = Alphabet.of("abc")
CAP = {1: 7, 2: 7, 3: 6}
SWAP_AB = str.maketrans("ab", "ba")
DEVIATIONS = (
    lambda out: out[::-1],
    lambda out: out + "a",
    lambda out: out.translate(SWAP_AB),
    lambda out: "".join(sorted(out)),
)


def conditions(arity):
    """The five conditions, each on the argument lengths and the depth."""
    two = (
        (lambda lengths, d: lengths[0] > 2 * d + 1)
        if arity == 1
        else (lambda lengths, d: sum(n > d for n in lengths) >= 2)
    )
    return (
        lambda lengths, d: sum(lengths) > d,
        lambda lengths, d: max(lengths) > d,
        lambda lengths, d: lengths[0] > d,
        lambda lengths, d: lengths[-1] > d,
        two,
    )


def levels(arity, top):
    """For each total length up to ``top``, the argument tuples of that total
    length, each with its lengths."""
    out = []
    for total in range(top + 1):
        level = []
        for lengths in itertools.product(range(total + 1), repeat=arity):
            if sum(lengths) == total:
                words = [list(strings_of_length(ABC, n)) for n in lengths]
                level.extend((lengths, args) for args in itertools.product(*words))
        out.append(level)
    return out


def liar_tallies(templates, arity):
    """Liars and wrong certificates, each by onset."""
    cap = CAP[arity]
    grid = levels(arity, cap + 1)
    liars, wrong = {}, {}
    for t in templates:
        # each tuple with its lengths and T's output, by total length
        table = [[(n, args, t.eval_letters(args)) for n, args in level] for level in grid]
        for cond in conditions(arity):
            for dev in DEVIATIONS:
                for d in range(5):

                    def lies(n, out):
                        return cond(n, d) and dev(out) != out

                    onset = next(
                        (total for total in range(cap + 1) for n, _, out in table[total] if lies(n, out)),
                        None,
                    )
                    if onset is None:
                        continue
                    liars[onset] = liars.get(onset, 0) + 1

                    def f(args):
                        out = t.eval_letters(args)
                        return dev(out) if cond(tuple(map(len, args)), d) else out

                    outcome = extract(BuiltinFunction("liar", ABC, f, arity=arity))
                    if isinstance(outcome, Extracted):
                        g = outcome.template.eval_letters
                        if any(
                            g(args) != (dev(out) if cond(n, d) else out)
                            for level in table
                            for n, args, out in level
                        ):
                            wrong[onset] = wrong.get(onset, 0) + 1
    return liars, wrong


@pytest.fixture(scope="module")
def templates(corpus):
    shapes, letters = random.Random(corpus.SHAPE_SEED), random.Random(7)
    return {
        arity: [
            corpus.random_template(shapes, letters, ABC, arity, max_size=6, min_slots=1)
            for _ in range(3)
        ]
        for arity in (1, 2, 3)
    }


# arity -> (liars by onset, wrong certificates by onset, reach)
PINNED = {
    1: ({1: 48, 2: 60, 3: 48, 4: 60, 5: 48, 6: 12}, {4: 60, 5: 48, 6: 12}, 3),
    2: ({1: 47, 2: 61, 3: 48, 4: 60, 5: 48, 6: 12}, {3: 36, 4: 36, 5: 48, 6: 12}, 2),
    3: ({1: 30, 2: 65, 3: 51, 4: 60, 5: 48, 6: 18}, {3: 30, 4: 32, 5: 36, 6: 18}, 2),
}


@pytest.mark.parametrize("arity", (1, 2, 3))
def test_certificate_reach(templates, arity):
    liars, wrong = liar_tallies(templates[arity], arity)
    reach = min(wrong, default=CAP[arity] + 1) - 1
    assert (liars, wrong, reach) == PINNED[arity]
