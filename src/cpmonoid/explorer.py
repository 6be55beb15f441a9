"""Bounded search for congruence-respecting tables on small alphabets.

On three or more letters, functions that respect every endomorphism kernel
are exactly the templates.  On two letters nobody knows, and this module is
the instrument for poking at that question: enumerate *every* total map
from the words of length ≤ n to words of the forced lengths ``p·|x| + e``
that is consistent with a finite family of endomorphism kernels, then sort
the survivors into template restrictions and the interesting remainder.

A consistent non-representable table is a *candidate*, not a counterexample:
it satisfies finitely many constraints on a finite domain, and might be
ruled out by a longer domain, a richer family, or an extension argument.
The report says so explicitly.

A search builds its kernel family, each kernel a :class:`RestrictedCongruence`,
and its template index (:func:`template_index`) once, and the backtracker
asks each kernel that can prune whether a new output is congruent to the
output of the first word of its class (see :func:`enumerate_consistent`).
A table is its table text, the form it is classified, compared and printed
in; its entries are split back out of that text only on request.
:func:`recheck_table` checks every kernel on every congruent pair; it is
the independent reference the tests compare against.

Every candidate output obeys the letter-count law, so a kernel whose letter
images commute, which sees only letter counts, never prunes.  On two letters
every non-injective endomorphism is such a kernel (``{u, v}`` is a code iff
``uv != vu``), so the ``ab`` counts are exactly those of the law: there the
backtracker checks nothing and only walks the law's product of outputs.

So the search walks node by node only down to the last level a kernel
constrains.  The levels below it are free: once ``f(ε)`` fixes their options,
the innermost of them are laid out as one block of at most ``_BLOCK_MAX``
leaves, each leaf's tail of table text with its preorder node offset, and
the block is emitted whole under every accepted option of the level above
it, after the head of text down to that option.  Node counts, and a budget
cut, stay exactly those of a node-by-node walk.  :func:`explore` takes the
blocks whole: it classifies a block by one lookup of its head, and keeps it
as that head over the shared list of tails, so its report holds a few
strings per block rather than a table per leaf, and renders each block as
one string.  The report's tables are read only whole, by their count or a
walk in search order, never by position.  The kernel family itself is built
from the canonical image tuples alone, those whose letters first appear in
alphabet order, so no renaming of an earlier tuple is generated, and a tuple
whose images form a prefix or suffix code is dropped, its kernel never
computed, when an earlier such tuple had the same kernel shape.  Every other
tuple's kernel is told apart by one signature, the classes of the probe
words under it.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator

from .congruence import RestrictedCongruence, _class_heads, congruent_pairs
from .templates import Template, enumerate_templates
from .words import Alphabet, Morphism, _Value, arrangements, strings_of_length, strings_up_to

# At most this many leaves in the block of free levels laid out per f(ε).
_BLOCK_MAX = 256


class SearchConfig(_Value):
    """Search space: domain length bound, forced length law, and the
    constraint family (all endomorphisms with image length ≤ image_len)."""

    alphabet: Alphabet
    domain_len: int
    p: int
    e: int
    image_len: int = 2
    node_budget: int = 5_000_000

    def __post_init__(self) -> None:
        if self.domain_len < 0:
            raise ValueError("domain length bound must be nonnegative")
        if self.p < 0 or self.e < 0:
            raise ValueError("length coefficients must be nonnegative")
        if self.image_len < 0:
            raise ValueError("image length bound must be nonnegative")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")


class CandidateTable:
    """A total map from all words of length ≤ n to words, held as its table
    text: one ``input TAB output`` line per domain word, joined by newlines.
    Letters are never whitespace, so the text splits back into the entries.
    A table is a value, compared and hashed by alphabet and text."""

    __slots__ = ("alphabet", "text")

    def __init__(self, alphabet: Alphabet, entries: Iterable[tuple[str, str]]) -> None:
        self.alphabet = alphabet
        self.text = "\n".join(map("\t".join, entries))

    @property
    def entries(self) -> tuple[tuple[str, str], ...]:
        lines = self.text.split("\n") if self.text else ()
        return tuple(tuple(line.split("\t")) for line in lines)

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)

    def render(self) -> str:
        """Table file format: input TAB output, one line per domain word."""
        return self.text + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateTable):
            return NotImplemented
        return self.alphabet == other.alphabet and self.text == other.text

    def __hash__(self) -> int:
        return hash((self.alphabet, self.text))

    def __repr__(self) -> str:
        return f"CandidateTable({self.alphabet!r}, {self.entries!r})"


def _table(alphabet: Alphabet, text: str) -> CandidateTable:
    """The table with this text, set directly, past ``__init__``'s join."""
    table = object.__new__(CandidateTable)
    table.alphabet = alphabet
    table.text = text
    return table


class SearchStats(_Value, frozen=False):
    nodes: int = 0
    family_size: int = 0


class BudgetExhausted(Exception):
    """The node budget ran out mid-search."""

    def __init__(self, message: str, stats: SearchStats) -> None:
        super().__init__(message)
        self.stats = stats


def _canonical_tuples(letters: str, images: list[str]) -> list[tuple[str, ...]]:
    """The tuples of ``itertools.product(images, repeat=len(letters))``
    whose letters first appear in the order of ``letters``, in product order.

    ``steps[m]`` lists the images that may follow a tuple prefix using the
    first ``m`` letters, each with the number of letters the prefix then
    uses, so no other tuple is generated.
    """
    steps: list[list[tuple[str, int]]] = []
    for m in range(len(letters) + 1):
        row = []
        for img in images:
            new = "".join(dict.fromkeys(ch for ch in img if ch not in letters[:m]))
            if letters.startswith(new, m):
                row.append((img, m + len(new)))
        steps.append(row)
    tuples: list[tuple[tuple[str, ...], int]] = [((), 0)]
    for _ in letters:
        tuples = [(prefix + (img,), used) for prefix, m in tuples for img, used in steps[m]]
    return [prefix for prefix, _ in tuples]


def _is_code(images: Iterable[str]) -> bool:
    """Whether the distinct non-empty words among ``images`` form a prefix
    code or a suffix code.  In sorted order a word that is a prefix of
    another is a prefix of its successor, so neighbours are compared."""
    words = sorted(set(images).difference(("",)))
    if not any(map(str.startswith, words[1:], words)):
        return True
    words = sorted(word[::-1] for word in words)
    return not any(map(str.startswith, words[1:], words))


def endomorphism_family(
    alphabet: Alphabet, image_len: int, dedup_bound: int
) -> list[Morphism]:
    """All endomorphisms with letter images of length ≤ image_len, deduplicated.

    Two endomorphisms impose identical constraints when they induce the same
    kernel on every word that can ever be compared — domain words *and*
    outputs, hence ``dedup_bound`` should cover ``max(n, p·n + e)``.  Only
    the first representative of each kernel is kept; morphisms injective on
    that range constrain nothing but are kept (once) for honesty.  Probe
    words are in-alphabet, so each candidate acts as a ``str.translate``
    table, and the labelled :class:`Morphism` is built only for a kept kernel.

    Permuting the letters of the images keeps a kernel.  Of each class of
    such renamings, the member whose image letters first appear in alphabet
    order, the canonical one, comes first in the product of images, so only
    the canonical tuples are walked (:func:`_canonical_tuples`, in product
    order): the others would find their kernel already seen.

    A tuple's *shape* says which letters map to ε and which letters share
    an image.  When the distinct non-empty images form a prefix code or a
    suffix code they are uniquely decipherable, so ``φ(x)`` spells out the
    images of ``x``'s letters one by one and the kernel depends on the
    shape alone: a code tuple whose shape an earlier code tuple had finds
    its kernel already seen, and its probe signature is never computed.
    Every other tuple's signature is computed one way, by translating the
    probe words, whatever the probe length.
    """
    images = list(strings_up_to(alphabet, image_len))
    probe_words = list(strings_up_to(alphabet, dedup_bound))
    family: list[Morphism] = []
    seen_kernels: set[tuple[int, ...]] = set()
    code_shapes: set[tuple[int, ...]] = set()
    letters = alphabet.letters
    for combo in _canonical_tuples("".join(letters), images):
        if _is_code(combo):
            shape = _class_heads(("",) + combo)  # ε's class is 0
            if shape in code_shapes:
                continue
            code_shapes.add(shape)
        table = str.maketrans(dict(zip(letters, combo)))
        signature = _class_heads(map(str.translate, probe_words, itertools.repeat(table)))
        if signature in seen_kernels:
            continue
        seen_kernels.add(signature)
        mapping = dict(zip(letters, combo))
        family.append(Morphism.make(
            alphabet, mapping, label="endo(" + ",".join(
                f"{ch}->{img}" for ch, img in mapping.items()) + ")"
        ))
    return family


def enumerate_consistent(
    config: SearchConfig, stats: SearchStats | None = None
) -> Iterator[CandidateTable]:
    """Backtracking enumeration of all family-consistent tables.

    Domain words are assigned shortest-first.  Candidate outputs for ``x``
    are exactly the words whose per-letter counts obey
    ``|f(x)|_c = p·|x|_c + |f(ε)|_c`` (the letter-count law, which any
    kernel-respecting function of this length profile must satisfy, and
    which template restrictions do satisfy — so it prunes without losing
    solutions).  Each tentative assignment is checked against every earlier
    word congruent to it under some family morphism.

    Only kernels that can prune are checked.  A morphism whose letter images
    commute maps a word to a power of one word, whose exponent is a linear
    function of the word's letter counts, and the law makes the counts of
    ``f(x)`` an affine function of those of ``x``: such a kernel relates
    ``f(x)`` and ``f(y)`` whenever it relates ``x`` and ``y``.  A kernel
    injective on the domain relates no two domain words.  Neither is
    checked; every tried option still counts as a node, and
    ``stats.family_size`` still counts the whole family.  On two letters a
    non-injective morphism always has commuting images (``{u, v}`` is a code
    iff ``uv != vu``), so no kernel prunes and every table obeying the law
    is consistent.

    Each checked kernel asks at most one question per domain word.  The
    earlier words of one class already have congruent outputs, so a new
    output need only be congruent to the output of the class's first word.

    Repeated work is done once.  Each candidate list is built once, memoised
    on its per-letter counts; each level's options, each with its entry's
    line of table text, are laid out once per choice of ``f(ε)``; and the
    assigned outputs, and the assigned prefix its table text, sit on stacks
    beside the levels, so a table's text is one concatenation.

    The free levels, the trailing run of levels (from level 1 on) that no
    checked kernel constrains, are a plain product below any prefix.  Once
    ``f(ε)`` is fixed, as many of the innermost free levels as keep the
    product at most ``_BLOCK_MAX`` leaves are laid out once, as a block:
    each leaf's tail, its option lines joined, and its preorder node offset
    within the block, in search order.  Accepting an option on the level
    just above the block yields that prefix's text plus each tail, with
    ``stats.nodes`` set to the option's node count plus the leaf's offset;
    afterwards the count is that of the block's last node, its last leaf.
    When the budget ends inside the block, only the leaves whose offset is
    within it are yielded, and the search stops at the same node a
    node-by-node walk would, ``budget + 1``.  With no free level to take,
    the block is one empty tail at offset 0 below the last level.  Only the
    current ``f(ε)``'s block is kept.  The search itself is :func:`_blocks`,
    which hands each block over whole; this function only spells out its
    leaves.

    Pass a :class:`SearchStats` to observe node counts and the family size.
    Raises :class:`BudgetExhausted` when the node budget trips.
    """
    if stats is None:
        stats = SearchStats()
    alphabet = config.alphabet
    for head, tails, offsets in _blocks(config, stats):
        start = stats.nodes
        for tail, offset in zip(tails, offsets):
            stats.nodes = start + offset
            yield _table(alphabet, head + tail)


def _blocks(config: SearchConfig, stats: SearchStats) -> Iterator[tuple[str, list[str], list[int]]]:
    """The search of :func:`enumerate_consistent`, a block of leaves at a time.

    For each accepted option on the level just above the block, yields
    ``(head, tails, offsets)`` with ``stats.nodes`` at that option's node:
    ``head`` is the table text down to the option, and leaf ``i``'s table is
    ``head + tails[i]``, reached at node ``stats.nodes + offsets[i]``.  The
    two lists are the current f(ε)'s, shared by all its blocks, and must not
    be changed.  On resuming, ``stats.nodes`` is the block's last node, its
    last leaf.  A block the budget cuts is yielded with only the leaves it
    reaches, if any, and :class:`BudgetExhausted` follows at ``budget + 1``.
    """
    alphabet = config.alphabet
    letters = alphabet.letters
    domain = list(strings_up_to(alphabet, config.domain_len))
    dedup_bound = max(config.domain_len, config.p * config.domain_len + config.e)
    family = endomorphism_family(alphabet, config.image_len, dedup_bound)
    stats.family_size = len(family)

    # For each domain word: the kernels that can prune under which an earlier
    # word shares its class, each with that class's head, its first word.
    peers: list[list[tuple[RestrictedCongruence, int]]] = [[] for _ in domain]
    for phi in family:
        kernel = RestrictedCongruence(phi)
        if kernel.commutative:
            continue
        for w, head in enumerate(kernel.classes(config.domain_len).heads):
            if head != w:
                peers[w].append((kernel, head))

    # Levels free_from.. are unconstrained: no kernel relates their words to
    # earlier ones, so below a table prefix they are a plain product.
    free_from = len(domain)
    while free_from > 1 and not peers[free_from - 1]:
        free_from -= 1

    budget = config.node_budget
    arranged: dict[tuple[int, ...], list[str]] = {}
    # An option pairs the table text of an entry (x, y) with y: "\t" + y for
    # the empty word, "\n" + x + "\t" + y after it, so that a table's text
    # is its prefix's text plus its last option's line.
    # f(ε) is free apart from its forced length e.
    first_level = [("\t" + y, y) for y in strings_of_length(alphabet, config.e)]

    def levels_given(base: str) -> tuple[list[list[tuple[str, str]]], list[str], list[int], int]:
        """Every level's options once ``f(ε) = base`` is fixed (outputs with
        equal per-letter counts share one memoised arrangement list), then
        the block's tails and node offsets, and the level just above it."""
        levels = [first_level]
        for x in domain[1:]:
            counts = tuple(config.p * x.count(ch) + base.count(ch) for ch in letters)
            words = arranged.get(counts)
            if words is None:
                words = arranged[counts] = ["".join(t) for t in arrangements(letters, counts)]
            levels.append([(f"\n{x}\t{y}", y) for y in words])
        tails, offsets, above = [""], [0], len(domain) - 1
        while above >= free_from and len(levels[above]) * len(tails) <= _BLOCK_MAX:
            step = offsets[-1] + 1  # one option's node plus the subtree below it
            tails = [line + tail for line, _ in levels[above] for tail in tails]
            offsets = [i * step + 1 + o for i in range(len(levels[above])) for o in offsets]
            above -= 1
        return levels, tails, offsets, above

    # Depth-first search with one option iterator per assigned level above
    # the block, so a block is yielded in constant time instead of through a
    # generator chain as deep as the domain.
    options: list[list[tuple[str, str]]] = []  # per level, for the current f(ε)
    tails: list[str] = []
    offsets: list[int] = []
    above = 0
    iterators = [iter(first_level)]
    assigned: list[str] = []  # the outputs of the levels above the current one
    prefixes = [""]
    while iterators:
        idx = len(iterators) - 1
        row, prefix = peers[idx], prefixes[idx]
        for line, y in iterators[idx]:
            stats.nodes += 1
            if stats.nodes > budget:
                raise BudgetExhausted(f"node budget {budget} exhausted", stats)
            if row and not all(kernel.congruent(y, assigned[head]) for kernel, head in row):
                continue
            if idx == 0:
                options, tails, offsets, above = levels_given(y)
            if idx == above:
                # A cut yields the leaves it reaches and stops at the node
                # after the budget.
                start = stats.nodes
                if start + offsets[-1] <= budget:
                    yield prefix + line, tails, offsets
                    stats.nodes = start + offsets[-1]
                    continue
                reached = bisect.bisect_right(offsets, budget - start)
                if reached:
                    yield prefix + line, tails[:reached], offsets[:reached]
                stats.nodes = budget + 1
                raise BudgetExhausted(f"node budget {budget} exhausted", stats)
            assigned.append(y)
            prefixes.append(prefix + line)
            iterators.append(iter(options[idx + 1]))
            break
        else:
            iterators.pop()
            prefixes.pop()
            if idx:
                assigned.pop()


def template_index(config: SearchConfig) -> dict[str, Template]:
    """Every (p, e) template, keyed by its restriction to the search domain.

    The key is the restriction's table text, its entries in domain order
    exactly as :func:`enumerate_consistent` lays out a table, so classifying
    a table is one lookup of ``table.text``.  Templates that agree on the
    whole domain share a key; the first in enumeration order keeps it.
    """
    domain = list(strings_up_to(config.alphabet, config.domain_len))
    index: dict[str, Template] = {}
    for t in enumerate_templates(config.alphabet, 1, (config.p,), config.e):
        index.setdefault("\n".join(f"{x}\t{t.eval_letters([x])}" for x in domain), t)
    return index


def template_representable(
    table: CandidateTable, config: SearchConfig
) -> Template | None:
    """The first template (in enumeration order) restricting to this table.

    The table must list the whole domain in search order, as
    :func:`enumerate_consistent` yields it; anything else matches no template.
    """
    return template_index(config).get(table.text)


def recheck_table(table: CandidateTable, config: SearchConfig) -> bool:
    """Independent post-hoc constraint check, no incremental bookkeeping.

    Re-derives the family and tests every congruent domain pair under every
    morphism, plus the length law.  Used to cross-examine the backtracker.
    """
    mapping = table.as_dict()
    domain = list(strings_up_to(config.alphabet, config.domain_len))
    if sorted(mapping) != sorted(domain):
        return False
    base = mapping[""]
    if len(base) != config.e:
        return False
    for x, y in mapping.items():
        if len(y) != config.p * len(x) + config.e:
            return False
        for ch in config.alphabet.letters:
            if y.count(ch) != config.p * x.count(ch) + base.count(ch):
                return False
    dedup_bound = max(config.domain_len, config.p * config.domain_len + config.e)
    for phi in endomorphism_family(config.alphabet, config.image_len, dedup_bound):
        spec = RestrictedCongruence(phi)
        for u, v in congruent_pairs(spec, config.domain_len):
            if not spec.congruent(mapping[u], mapping[v]):
                return False
    return True


class _Tables:
    """The non-representable tables of a search, held as the blocks
    :func:`explore` kept: each a head of table text and the tails that
    complete it, the tails list often shared with other blocks.  It has a
    length, a truth value, equality and iteration in search order, building
    each :class:`CandidateTable` as the walk reaches it; it cannot be
    indexed."""

    __slots__ = ("alphabet", "_blocks")

    def __init__(self, alphabet: Alphabet, blocks: list[tuple[str, list[str]]]) -> None:
        self.alphabet = alphabet
        self._blocks = blocks

    def texts(self) -> Iterator[str]:
        """Each table's text, in search order."""
        return itertools.chain.from_iterable(map(head.__add__, tails) for head, tails in self._blocks)

    def __len__(self) -> int:
        return sum(len(tails) for _, tails in self._blocks)

    def __iter__(self) -> Iterator[CandidateTable]:
        return map(_table, itertools.repeat(self.alphabet), self.texts())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Tables):
            return NotImplemented
        return (self.alphabet == other.alphabet and len(self) == len(other)
                and all(map(str.__eq__, self.texts(), other.texts())))

    def __repr__(self) -> str:
        return f"<{len(self)} tables in {len(self._blocks)} blocks>"


class ExploreReport(_Value, frozen=False):
    """What one search found: its counts, and the consistent tables no
    template restricts to, held as :func:`explore` kept them, blocks of
    shared text (a :class:`_Tables`).  The report is printed a block at a
    time (:meth:`chunks`)."""

    config: SearchConfig
    family_size: int
    consistent: int
    representable: int
    non_representable: _Tables
    exhausted: bool
    nodes: int

    def chunks(self) -> Iterator[str]:
        """The report's text a block at a time, produced lazily and without
        trailing newlines: first the header lines as one string, then one
        string per block of tables, each table its heading line followed by
        its whole text, itself one line per entry.  A block's tables share
        its head of text, so each one is a single f-string over its tail; no
        :class:`CandidateTable` is built.

        :meth:`render` joins the chunks with newlines; ``cpmonoid explore``
        writes each one followed by a newline, so the whole report never
        sits in memory as text.
        """
        cfg = self.config
        tables = self.non_representable
        header = [
            f"explore alphabet {cfg.alphabet} maxlen {cfg.domain_len} "
            f"p {cfg.p} e {cfg.e} image-len {cfg.image_len}",
            f"family {self.family_size}",
            f"nodes {self.nodes}",
            f"consistent {self.consistent}",
            f"representable {self.representable}",
            f"non-representable {len(tables)}",
        ]
        if self.exhausted:
            header.append("budget exhausted: results are a lower bound")
        yield "\n".join(header)
        i = 0
        for head, tails in tables._blocks:  # explore() keeps no empty block
            note = " (consistent, not a template restriction; bounded evidence only)\n" + head
            yield "\n".join([f"candidate {j}{note}{tail}" for j, tail in enumerate(tails, i)])
            i += len(tails)

    def render(self) -> str:
        return "\n".join(self.chunks())


def explore(config: SearchConfig) -> ExploreReport:
    """Run the search and classify every consistent table, a block at a time.

    Output lengths are forced, so every table text has one length, and every
    head under one f(ε) another.  The template index (:func:`template_index`)
    is built once and regrouped by head once per head length, so a block is
    classified by one lookup of its head; only the few blocks whose head a
    template restriction shares are filtered leaf by leaf.  A block is kept as
    its head and tails: the search's shared list of tails, unless some leaf
    was a template restriction.
    """
    consistent = 0
    representable = 0
    blocks: list[tuple[str, list[str]]] = []
    exhausted = False
    stats = SearchStats()
    index = template_index(config)
    by_length: dict[int, dict[str, set[str]]] = {}  # head length -> head -> tails
    try:
        for head, tails, _ in _blocks(config, stats):
            consistent += len(tails)
            length = len(head)
            by_head = by_length.get(length)
            if by_head is None:
                by_head = by_length[length] = {}
                for key in index:
                    by_head.setdefault(key[:length], set()).add(key[length:])
            restricted = by_head.get(head)
            if restricted:
                kept = [tail for tail in tails if tail not in restricted]
                representable += len(tails) - len(kept)
                tails = kept
            if tails:
                blocks.append((head, tails))
    except BudgetExhausted:
        exhausted = True
    return ExploreReport(
        config,
        stats.family_size,
        consistent,
        representable,
        _Tables(config.alphabet, blocks),
        exhausted,
        stats.nodes,
    )
