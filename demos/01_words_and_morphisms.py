"""Words, alphabets, and letter-to-word morphisms.

Run: python3 demos/01_words_and_morphisms.py
"""

from cpmonoid import (
    Alphabet,
    Morphism,
    collapse_to,
    erase,
    identify,
    iter_words,
    project,
)

abc = Alphabet.of("abc")
w = abc.word("abcba")

print(f"alphabet: {abc}")
print(f"word:     {w.quoted()}  length {len(w)}, {w.count('a')} a's")
print(f"concat:   {(w + abc.word('cc')).quoted()}")
print(f"power:    {abc.word('ab').power(3).quoted()}")
print()

# The four standard endomorphism shapes. Each one induces a congruence on
# the free monoid: two words are related when their images coincide.
for phi in [
    collapse_to(abc, "a"),
    project(abc, "a"),
    erase(abc, "a"),
    identify(abc, "b", "a"),
]:
    print(f"{phi.label:18s} {w.quoted()} -> {phi.apply(w).quoted()}")

print()

# Morphisms compose like functions, and apply distributes over concat.
phi = identify(abc, "c", "b")
psi = erase(abc, "b")
print(f"compose:  ({psi.label} . {phi.label})('abc') ->",
      (psi @ phi).apply(abc.word("abc")).quoted())

u, v = abc.word("ab"), abc.word("ca")
rho = Morphism.make(abc, {"a": "bc", "b": "", "c": "ab"})
assert rho.apply(u + v) == rho.apply(u) + rho.apply(v)
print("homomorphism law checked on a sample pair")

print()
print("words of length <= 2, in length-lex order:")
print(" ", " ".join(x.quoted() for x in iter_words(abc, 2)))
