"""Recovering a template from a black box, step by step.

The extractor only ever calls ``evaluate_letters``.  It first learns the
length law, then classifies the head of the output (constant letter, variable,
or empty), peels one symbol, and repeats until the budget given by the
length law is spent.  A final sweep cross-checks the candidate on a
batch of words.

Run: python3 demos/03_extraction_walkthrough.py
"""

from cpmonoid import (
    Alphabet,
    Template,
    TemplateFunction,
    classify_head,
    extract,
    length_profile,
    render_head_case,
)

abc = Alphabet.of("abc")
secret = Template.of(abc, "b", 1, "", 1, "ca")
fn = TemplateFunction(secret)

print(f"secret template (hidden from the extractor): {secret}")
print()

profile = length_profile(fn)
print(f"step 1 - length law:  |f(x)| = {profile.p[0]}*|x| + {profile.e}")
print(f"         peel budget: {profile.size} symbols")

head = classify_head(fn)
print(f"step 2 - head probe:  {render_head_case(head)}")
print()

got = extract(fn)
print(f"result: {got.template}")
print(f"queries spent: {got.query_count} (validation sweep included)")
assert got.template == secret

# The same machinery rejects functions that merely obey a length law.
from cpmonoid import NotRCP, builtin

verdict = extract(builtin("reverse", abc))
assert isinstance(verdict, NotRCP)
print()
print("reverse obeys |f(x)| = |x| but is not a template:")
print(f"  refusal reason: {verdict.reason}")
probe = verdict.probes[0]
print(f'  counterexample query: "{probe.args[0]}" -> "{probe.output}"')
