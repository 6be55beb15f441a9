"""Layer tracing from outside the program: wrap cpmonoid's functions in place.

:class:`Tracer` replaces selected functions and methods of the ``cpmonoid``
modules with timing wrappers while it is installed, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.
Every name a wrapped function is bound to inside the package (``from .words
import iter_words`` makes a second binding in each importing module) is
patched, so calls between modules are seen too.

Each wrapper pushes a frame on a call stack.  When the frame pops, its
duration is added to its parent's child time, so a function's self time is
its duration minus the time its traced callees cover.  A layer is a module,
and a layer's self time is the sum of the self times of its functions.
Hot primitives are only aggregated; coarse calls also keep a span
``(item, id, parent, name, start, end)`` in memory, written out by
:meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass

import cpmonoid

# The package re-exports a function named ``audit``, so modules are fetched
# by their full names.
words, congruence, templates, oracles, extraction, audit, explorer, cli = (
    importlib.import_module("cpmonoid." + name)
    for name in ("words", "congruence", "templates", "oracles", "extraction", "audit", "explorer", "cli")
)

LAYERS = ("words", "congruence", "templates", "oracles", "extraction", "audit", "explorer", "cli")
AUDIT_FAMILIES = ("standard", "finite_monoids", "random_1", "random_2")
PACKAGE_MODULES = (cpmonoid, words, congruence, templates, oracles, extraction, audit, explorer, cli)
FAMILY_OF = {"standard_congruences": "standard", "finite_monoid_congruences": "finite_monoids"}
MAX_SPANS = 400_000


@dataclass
class Stat:
    layer: str
    calls: int = 0
    total_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0
    depth: int = 0
    yields: int = 0
    queries: int = 0  # oracle queries made during outermost calls


class _Frame:
    __slots__ = ("start", "child", "span")

    def __init__(self, start: float, span: int) -> None:
        self.start = start
        self.child = 0.0
        self.span = span


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as one frame."""

    def __init__(self, tracer: "Tracer", stat: Stat, it, tag: str = "") -> None:
        self.tracer = tracer
        self.stat = stat
        self.it = it
        self.tag = tag

    def __iter__(self):
        return self

    def __next__(self):
        frame = self.tracer._enter(self.stat, "")
        try:
            value = next(self.it)
        finally:
            self.tracer._exit(self.stat, frame)
        self.stat.yields += 1
        return value


class Tracer:
    def __init__(self, extra_modules: tuple = ()) -> None:
        self.modules = PACKAGE_MODULES + tuple(extra_modules)
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.family: dict[str, dict[str, float]] = {
            f: {"specs": 0, "checks": 0, "s": 0.0, "witnesses": 0} for f in AUDIT_FAMILIES
        }
        self.audit_truncated = 0
        self.refutations = 0
        self.refutation_checks = 0
        self.explorer_nodes = 0
        self.explorer_tables = 0
        self.lookups = 0
        self.hits = 0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.item = -1
        self._stack: list[_Frame] = []
        self._span_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter

    # -- frames ------------------------------------------------------------

    def _stat(self, name: str, layer: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(layer)
        return self.stats[name]

    def _enter(self, stat: Stat, span_name: str) -> _Frame:
        span = -1
        if span_name:
            if len(self.spans) < MAX_SPANS:
                span = len(self.spans)
                parent = self._span_stack[-1] if self._span_stack else -1
                self.spans.append([self.item, span, parent, span_name, 0.0, 0.0])
                self._span_stack.append(span)
            else:
                self.dropped_spans += 1
        stat.depth += 1
        frame = _Frame(self._clock(), span)
        self._stack.append(frame)
        return frame

    def _exit(self, stat: Stat, frame: _Frame) -> float:
        end = self._clock()
        self._stack.pop()
        duration = end - frame.start
        stat.calls += 1
        stat.self_s += duration - frame.child
        stat.depth -= 1
        if stat.depth == 0:
            stat.total_s += duration
        if self._stack:
            self._stack[-1].child += duration
        if frame.span >= 0:
            record = self.spans[frame.span]
            record[4], record[5] = frame.start, end
            self._span_stack.pop()
        return duration

    @contextlib.contextmanager
    def item_span(self, item_id: int, label: str):
        """One benchmark item: the root of its spans."""
        self.item = item_id
        stat = self._stat("bench.item", "bench")
        frame = self._enter(stat, "item " + label)
        try:
            yield
        finally:
            self._exit(stat, frame)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, name: str, layer: str, span: bool = False, queries: bool = False, after=None):
        stat = self._stat(name, layer)
        enter, exit_ = self._enter, self._exit
        span_name = name if span else ""

        def wrapper(*args, **kwargs):
            frame = enter(stat, span_name)
            outer = stat.depth == 1
            before = args[0].query_count if queries and outer else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = exit_(stat, frame)
            if queries and outer:
                stat.queries += args[0].query_count - before
            if after is not None:
                after(args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, fn, name: str, layer: str, tag=None):
        stat = self._stat(name, layer)
        tracer = self

        def wrapper(*args, **kwargs):
            label = tag(args, kwargs) if tag else ""
            return _TracedIterator(tracer, stat, iter(fn(*args, **kwargs)), label)

        wrapper.__wrapped__ = fn
        return wrapper

    def _evaluate(self, fn):
        stat = self._stat("oracles.evaluate", "oracles")
        enter, exit_ = self._enter, self._exit
        tracer = self

        def evaluate(self_, args):
            frame = enter(stat, "")
            cached = self_._cache is not None
            misses = self_._misses
            try:
                return fn(self_, args)
            finally:
                exit_(stat, frame)
                if cached:
                    tracer.lookups += 1
                    if self_._misses == misses:
                        tracer.hits += 1

        evaluate.__wrapped__ = fn
        return evaluate

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapper_factory) -> None:
        """Replace ``module.attr`` and every other package binding of it."""
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapped)

    def _patch_method(self, cls, attr: str, wrapped) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        timed, gen = self._timed, self._generator
        method = self._patch_method
        patch = self._patch_function

        # words
        method(words.Word, "__post_init__", timed(words.Word.__post_init__, "words.word_new", "words"))
        method(words.Morphism, "apply_letters", timed(words.Morphism.apply_letters, "words.apply_letters", "words"))
        patch(words, "iter_words", lambda f: gen(f, "words.iter_words", "words"))
        patch(words, "iter_word_tuples", lambda f: gen(f, "words.iter_word_tuples", "words"))

        # congruence
        for cls in (congruence.RestrictedCongruence, congruence.FiniteKernelCongruence):
            method(cls, "word_image", timed(cls.word_image, "congruence.word_image", "congruence"))
        method(congruence.FiniteMonoid, "op", self._counted(congruence.FiniteMonoid.op, "congruence.monoid_op"))
        patch(congruence, "congruent_pairs", lambda f: gen(f, "congruence.congruent_pairs", "congruence"))
        patch(congruence, "monoid_catalog", lambda f: timed(f, "congruence.monoid_catalog", "congruence", span=True))

        # templates
        method(templates.Template, "eval_letters", timed(templates.Template.eval_letters, "templates.eval_letters", "templates"))
        patch(templates, "enumerate_templates", lambda f: gen(f, "templates.enumerate_templates", "templates"))

        # oracles
        method(oracles.WordFunction, "evaluate", self._evaluate(oracles.WordFunction.evaluate))
        for cls in (oracles.TemplateFunction, oracles.BuiltinFunction, oracles.TableFunction):
            method(cls, "_compute", timed(cls.__dict__["_compute"], "oracles.backend", "oracles"))
        method(
            oracles.ExternalFunction,
            "_compute",
            timed(oracles.ExternalFunction._compute, "oracles.exec_roundtrip", "oracles"),
        )

        # extraction
        for attr in ("length_profile", "classify_head", "_validate"):
            patch(extraction, attr, lambda f, a=attr: timed(f, "extraction." + a, "extraction", span=True, queries=True))
        patch(extraction, "peel", lambda f: timed(f, "extraction.peel", "extraction"))
        for attr in ("extract", "extract_fresh"):
            patch(extraction, attr, lambda f, a=attr: timed(f, "extraction." + a, "extraction", span=True, queries=True))

        # audit: the family generators tag their iterators, so that
        # _audit_specs can charge its scan to the family it swept.
        for attr, family in FAMILY_OF.items():
            patch(audit, attr, lambda f, a=attr, fam=family: gen(f, "audit." + a, "audit", tag=lambda *_: fam))
        patch(
            audit,
            "random_congruences",
            lambda f: gen(f, "audit.random_congruences", "audit", tag=lambda args, kwargs: f"random_{args[3]}"),
        )
        patch(audit, "_audit_specs", lambda f: timed(f, "audit._audit_specs", "audit", span=True, after=self._after_audit_specs))
        patch(audit, "verify_witness", lambda f: timed(f, "audit.verify_witness", "audit", span=True))
        patch(audit, "theorem_check", lambda f: timed(f, "audit.theorem_check", "audit", span=True, after=self._after_theorem_check))
        patch(audit, "audit", lambda f: timed(f, "audit.audit", "audit", span=True))

        # explorer
        patch(explorer, "explore", lambda f: timed(f, "explorer.explore", "explorer", span=True, after=self._after_explore))
        patch(explorer, "enumerate_consistent", lambda f: gen(f, "explorer.enumerate_consistent", "explorer"))
        patch(explorer, "endomorphism_family", lambda f: timed(f, "explorer.endomorphism_family", "explorer", span=True))
        patch(explorer, "template_representable", lambda f: timed(f, "explorer.template_representable", "explorer"))

        # cli
        patch(cli, "run", lambda f: timed(f, "cli.run", "cli", span=True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- result hooks ------------------------------------------------------

    def _after_audit_specs(self, args, result, duration: float) -> None:
        specs = args[1]
        family = getattr(specs, "tag", "")
        if family in self.family:
            bucket = self.family[family]
            bucket["specs"] += result.specs_checked
            bucket["checks"] += result.checks
            bucket["s"] += duration
            bucket["witnesses"] += result.witness is not None
        self.audit_truncated += result.truncated

    def _after_theorem_check(self, args, verdict, duration: float) -> None:
        if isinstance(verdict, audit.RefutedCP):
            self.refutations += 1
            self.refutation_checks += verdict.checks

    def _after_explore(self, args, report, duration: float) -> None:
        self.explorer_nodes += report.nodes
        self.explorer_tables += report.consistent

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for everything traced since construction."""
        s = self.stats
        zero = Stat("")

        def st(name: str) -> Stat:
            return s.get(name, zero)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        extract_queries = st("extraction.extract").queries + st("extraction.extract_fresh").queries
        validate = st("extraction._validate")
        enumerate_s = st("explorer.enumerate_consistent").total_s
        roundtrip = st("oracles.exec_roundtrip")
        m: dict[str, float] = {
            "words.word_new": st("words.word_new").calls,
            "words.words_enumerated": st("words.iter_words").yields,
            "words.apply_letters_calls": st("words.apply_letters").calls,
            "words.apply_letters_s": st("words.apply_letters").total_s,
            "congruence.word_image_calls": st("congruence.word_image").calls,
            "congruence.word_image_s": st("congruence.word_image").total_s,
            "congruence.monoid_op_calls": self.counts.get("congruence.monoid_op", 0),
            "congruence.pairs": st("congruence.congruent_pairs").yields,
            "congruence.catalog_builds": st("congruence.monoid_catalog").calls,
            "congruence.catalog_s": st("congruence.monoid_catalog").total_s,
            "templates.eval_calls": st("templates.eval_letters").calls,
            "templates.eval_s": st("templates.eval_letters").total_s,
            "templates.enumerated": st("templates.enumerate_templates").yields,
            "oracles.evaluate_calls": st("oracles.evaluate").calls,
            "oracles.queries": st("oracles.backend").calls + roundtrip.calls,
            "oracles.hit_ratio": ratio(self.hits, self.lookups),
            "oracles.evaluate_s": st("oracles.evaluate").total_s,
            "oracles.backend_s": st("oracles.backend").total_s + roundtrip.total_s,
            "oracles.exec_roundtrip_us": 1e6 * ratio(roundtrip.total_s, roundtrip.calls),
            "extraction.profile_s": st("extraction.length_profile").total_s,
            "extraction.profile_queries": st("extraction.length_profile").queries,
            "extraction.classify_s": st("extraction.classify_head").total_s,
            "extraction.classify_calls": st("extraction.classify_head").calls,
            "extraction.peels": st("extraction.peel").calls,
            "extraction.fresh_s": st("extraction.extract_fresh").total_s,
            "extraction.validate_s": validate.total_s,
            "extraction.validate_queries": validate.queries,
            "extraction.validate_share": ratio(validate.queries, extract_queries),
        }
        for family, bucket in self.family.items():
            for key, value in bucket.items():
                m[f"audit.{family}.{key}"] = value
        m["audit.truncated"] = self.audit_truncated
        m["audit.verify_s"] = st("audit.verify_witness").total_s
        m["audit.checks_per_refutation"] = ratio(self.refutation_checks, self.refutations)
        m.update(
            {
                "explorer.nodes": self.explorer_nodes,
                "explorer.tables": self.explorer_tables,
                "explorer.yield_ratio": ratio(self.explorer_tables, self.explorer_nodes),
                "explorer.nodes_per_s": ratio(self.explorer_nodes, enumerate_s),
                "explorer.family_builds": st("explorer.endomorphism_family").calls,
                "explorer.family_s": st("explorer.endomorphism_family").total_s,
                "explorer.enumerate_s": enumerate_s,
                "explorer.representable_s": st("explorer.template_representable").total_s,
            }
        )
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(x.self_s for x in s.values() if x.layer == layer)
        return m

    def write_spans(self, path: str) -> None:
        """One JSON object per kept span, in the order the spans started."""
        with open(path, "w", encoding="utf-8") as handle:
            for item, span, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps({"item": item, "id": span, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )


def unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"
