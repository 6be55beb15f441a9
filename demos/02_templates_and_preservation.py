"""Template functions and the congruence preservation law.

A template interleaves constant words with variable slots, for example
"ab" x1 "c" x2 "".  Functions of this shape commute with every
letter-to-word substitution, which makes them compatible with every
congruence induced by such a substitution.

Run: python3 demos/02_templates_and_preservation.py
"""

import random

from cpmonoid import (
    Alphabet,
    Morphism,
    RestrictedCongruence,
    Template,
    congruent_pairs,
    enumerate_templates,
)

abc = Alphabet.of("abc")
t = Template.of(abc, "ab", 1, "c", 2, "")

print(f"template:     {t}")
print(f"coefficients: p={t.coefficients().p} e={t.coefficients().e}")
print(f"eval on ('x1=ba', 'x2=cc'): {t.eval([abc.word('ba'), abc.word('cc')]).quoted()}")
print()

# The exchange identity: applying a substitution to the output equals
# evaluating the constant-rewritten template on substituted inputs.
phi = Morphism.make(abc, {"a": "cb", "b": "b", "c": ""})
args = (abc.word("ab"), abc.word("c"))
lhs = phi.apply(t.eval(args))
rhs = t.map_words(phi).eval([phi.apply(x) for x in args])
print(f"exchange identity under {{a->cb, b->b, c->eps}}:")
print(f"  phi(t(x))          = {lhs.quoted()}")
print(f"  t^phi(phi(x))      = {rhs.quoted()}")
assert lhs == rhs
print()

# Consequence: congruent inputs give congruent outputs.
theta = RestrictedCongruence(Morphism.make(abc, {"a": "a", "b": "a", "c": "c"}))
rng = random.Random(7)
pairs = list(congruent_pairs(theta, 2))
x, y = pairs[rng.randrange(len(pairs))]
print(f'congruent pair under identify(b->a): "{x}" ~ "{y}"')
u = Template.of(abc, "c", 1, "")
print(f"  images under u still congruent? "
      f"{theta.congruent(u.eval_letters([x]), u.eval_letters([y]))}")
assert theta.congruent(u.eval_letters([x]), u.eval_letters([y]))

print()
count = sum(1 for _ in enumerate_templates(abc, arity=1, p=(1,), e=1))
print(f"unary templates over abc with one slot and one constant letter: {count}")
