"""Exhaustive search over a two-letter alphabet.

With only two letters the template characterization is not available,
and the search below shows why it is interesting: there exist finite
tables that are consistent with every endomorphism kernel up to the
bound yet are not restrictions of any template.  Reversal is the
canonical example.

Run: python3 demos/06_two_letter_search.py
"""

from cpmonoid import (
    Alphabet,
    SearchConfig,
    endomorphism_family,
    explore,
    template_index,
)

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")

config = SearchConfig(AB, domain_len=2, p=1, e=0)
family = endomorphism_family(AB, image_len=2, dedup_bound=2)
print(f"distinct endomorphism kernels over ab (images <= 2): {len(family)}")

report = explore(config)
print(f"length-preserving tables on words <= 2 consistent with all of them: "
      f"{report.consistent}")
print(f"of those, template restrictions: {report.representable}")
print()
# every template restricted to the domain, keyed by its table text
index = template_index(config)
for table in report.non_representable:
    print("consistent but not a template restriction:")
    for x, y in table.entries:
        print(f"  {x!r} -> {y!r}")
    assert table.text not in index
    print()

# Over three letters the anomaly disappears: every consistent table is
# the restriction of a template.
abc_report = explore(SearchConfig(ABC, domain_len=2, p=1, e=0))
print(f"over abc: {abc_report.consistent} consistent, "
      f"{len(abc_report.non_representable)} non-representable")
