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
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

from .templates import Template, enumerate_templates
from .words import Alphabet, Morphism, arrangements, strings_of_length, strings_up_to


@dataclass(frozen=True)
class SearchConfig:
    """Search space: domain length bound, forced length law, and the
    constraint family (all endomorphisms with image length ≤ image_len)."""

    alphabet: Alphabet
    domain_len: int
    p: int
    e: int
    image_len: int = 2
    node_budget: int = 5_000_000
    time_budget: float | None = None  # seconds; None = unlimited

    def __post_init__(self) -> None:
        if self.domain_len < 0:
            raise ValueError("domain length bound must be nonnegative")
        if self.p < 0 or self.e < 0:
            raise ValueError("length coefficients must be nonnegative")
        if self.image_len < 0:
            raise ValueError("image length bound must be nonnegative")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


@dataclass(frozen=True)
class CandidateTable:
    """A total map from all words of length ≤ n to words, as ordered pairs."""

    alphabet: Alphabet
    entries: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)

    def render(self) -> str:
        """Table file format: input TAB output, one line per domain word."""
        return "\n".join(f"{x}\t{y}" for x, y in self.entries) + "\n"


@dataclass
class SearchStats:
    nodes: int = 0
    deepest: int = 0
    tables: int = 0
    family_size: int = 0


class BudgetExhausted(Exception):
    """The node or time budget ran out mid-search."""

    def __init__(self, message: str, stats: SearchStats) -> None:
        super().__init__(message)
        self.stats = stats


def endomorphism_family(
    alphabet: Alphabet, image_len: int, dedup_bound: int
) -> list[Morphism]:
    """All endomorphisms with letter images of length ≤ image_len, deduplicated.

    Two endomorphisms impose identical constraints when they induce the same
    kernel on every word that can ever be compared — domain words *and*
    outputs, hence ``dedup_bound`` should cover ``max(n, p·n + e)``.  Only
    the first representative of each kernel is kept; morphisms injective on
    that range constrain nothing but are kept (once) for honesty.
    """
    images = list(strings_up_to(alphabet, image_len))
    probe_words = list(strings_up_to(alphabet, dedup_bound))
    family: list[Morphism] = []
    seen_kernels: set[tuple[int, ...]] = set()
    for combo in itertools.product(images, repeat=len(alphabet)):
        mapping = dict(zip(alphabet.letters, combo))
        phi = Morphism.make(
            alphabet, mapping, label="endo(" + ",".join(
                f"{ch}->{img}" for ch, img in mapping.items()) + ")"
        )
        signature = _kernel_signature(phi, probe_words)
        if signature in seen_kernels:
            continue
        seen_kernels.add(signature)
        family.append(phi)
    return family


def _kernel_signature(phi: Morphism, probe_words: list[str]) -> tuple[int, ...]:
    """Partition fingerprint: which probe words share an image under phi."""
    first_seen: dict[str, int] = {}
    signature = []
    for w in probe_words:
        img = phi.apply_letters(w)
        signature.append(first_seen.setdefault(img, len(first_seen)))
    return tuple(signature)


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

    Pass a :class:`SearchStats` to observe node counts and the family size.
    Raises :class:`BudgetExhausted` when the node or time budget trips.
    """
    alphabet = config.alphabet
    domain = list(strings_up_to(alphabet, config.domain_len))
    dedup_bound = max(config.domain_len, config.p * config.domain_len + config.e)
    family = endomorphism_family(alphabet, config.image_len, dedup_bound)
    if stats is None:
        stats = SearchStats()
    stats.family_size = len(family)

    # Group the domain by kernel class per morphism, recording for each word
    # the earlier words it must stay congruent-output with.
    peers: list[list[tuple[int, int]]] = [[] for _ in domain]  # (morphism, earlier)
    for m_idx, phi in enumerate(family):
        classes: dict[str, list[int]] = {}
        for w_idx, w in enumerate(domain):
            cls = classes.setdefault(phi.apply_letters(w), [])
            for earlier in cls:
                peers[w_idx].append((m_idx, earlier))
            cls.append(w_idx)

    apply_cache: list[dict[str, str]] = [{} for _ in family]

    def phi_of(m_idx: int, word: str) -> str:
        cache = apply_cache[m_idx]
        img = cache.get(word)
        if img is None:
            img = family[m_idx].apply_letters(word)
            cache[word] = img
        return img

    deadline = (
        time.monotonic() + config.time_budget if config.time_budget else None
    )
    assignment: list[str] = []

    def candidates_for(idx: int) -> list[str]:
        x = domain[idx]
        base = assignment[0]
        counts = [
            config.p * x.count(ch) + base.count(ch) for ch in alphabet.letters
        ]
        return ["".join(t) for t in arrangements(alphabet.letters, counts)]

    def rec(idx: int) -> Iterator[CandidateTable]:
        if idx == len(domain):
            stats.tables += 1
            yield CandidateTable(alphabet, tuple(zip(domain, assignment)))
            return
        if idx == 0:
            # f(ε) is free apart from its forced length e.
            options = list(strings_of_length(alphabet, config.e))
        else:
            options = candidates_for(idx)
        for y in options:
            stats.nodes += 1
            if stats.nodes > config.node_budget:
                raise BudgetExhausted(
                    f"node budget {config.node_budget} exhausted", stats
                )
            if deadline is not None and stats.nodes % 4096 == 0:
                if time.monotonic() > deadline:
                    raise BudgetExhausted("time budget exhausted", stats)
            ok = True
            for m_idx, earlier in peers[idx]:
                if phi_of(m_idx, y) != phi_of(m_idx, assignment[earlier]):
                    ok = False
                    break
            if not ok:
                continue
            assignment.append(y)
            stats.deepest = max(stats.deepest, idx + 1)
            yield from rec(idx + 1)
            assignment.pop()

    yield from rec(0)


def template_representable(
    table: CandidateTable, config: SearchConfig
) -> Template | None:
    """The first template (in enumeration order) restricting to this table."""
    entries = table.entries
    for t in enumerate_templates(config.alphabet, 1, (config.p,), config.e):
        if all(t.eval_letters([x]) == y for x, y in entries):
            return t
    return None


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
        images: dict[str, str] = {}
        for x in domain:
            img = phi.apply_letters(x)
            if img in images:
                other = images[img]
                if phi.apply_letters(mapping[x]) != phi.apply_letters(mapping[other]):
                    return False
            else:
                images[img] = x
    return True


@dataclass
class ExploreReport:
    config: SearchConfig
    family_size: int
    consistent: int
    representable: int
    non_representable: tuple[CandidateTable, ...] = field(default=())
    exhausted: bool = False
    nodes: int = 0

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"explore alphabet {cfg.alphabet} maxlen {cfg.domain_len} "
            f"p {cfg.p} e {cfg.e} image-len {cfg.image_len}",
            f"family {self.family_size}",
            f"nodes {self.nodes}",
            f"consistent {self.consistent}",
            f"representable {self.representable}",
            f"non-representable {len(self.non_representable)}",
        ]
        if self.exhausted:
            lines.append("budget exhausted: results are a lower bound")
        for i, table in enumerate(self.non_representable):
            lines.append(f"candidate {i} (consistent, not a template restriction; "
                         "bounded evidence only)")
            lines.append(table.render().rstrip("\n"))
        return "\n".join(lines)


def explore(config: SearchConfig) -> ExploreReport:
    """Run the search and classify every consistent table."""
    consistent = 0
    representable = 0
    leftovers: list[CandidateTable] = []
    exhausted = False
    stats = SearchStats()
    try:
        for table in enumerate_consistent(config, stats):
            consistent += 1
            if template_representable(table, config) is not None:
                representable += 1
            else:
                leftovers.append(table)
    except BudgetExhausted:
        exhausted = True
    return ExploreReport(
        config,
        stats.family_size,
        consistent,
        representable,
        tuple(leftovers),
        exhausted,
        stats.nodes,
    )
