"""The refute slice: where ``theorem_check``'s decisions stand.

The slice is ``bench/corpus.py``'s ``refute_items`` for seeds 1-3 with
counts ``{1: (2, 2), 2: (1, 2), 3: (1, 1)}``, each item scored with its own
``score``.  A change that loses a decision, or makes one wrong, fails here;
one that gains a decision moves the pinned counts on purpose.
"""

import collections


def test_refute_slice_decisions_and_costs(corpus):
    items = [
        item
        for seed in (1, 2, 3)
        for item in corpus.refute_items(seed, {1: (2, 2), 2: (1, 2), 3: (1, 1)})
    ]
    statuses = collections.Counter()
    checks = queries = 0
    for item in items:
        raw = item.run()
        verdict, item_queries = raw
        statuses[item.score(raw).status] += 1
        checks += getattr(verdict, "checks", 0)  # a certificate reports no checks
        queries += item_queries
    assert len(items) == 138
    assert statuses == {"decided": 120, "wrong": 6, "undecided": 12}
    assert (checks, queries) == (3_440_793, 72_179)
