"""The benchmark's layer tracer still fits the package it wraps.

``bench/layers.py`` patches functions and methods of ``cpmonoid`` by name.
Installing it fails when a refactor renames or moves one of them, and
uninstalling it must put every original back.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cpmonoid import (
    Alphabet,
    BuiltinFunction,
    Indeterminate,
    Template,
    TemplateFunction,
    builtin,
    extract,
    extract_fresh,
    theorem_check,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "bench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _bindings(layers):
    """Every attribute of the package modules and of the classes they define."""
    owners = list(layers.PACKAGE_MODULES)
    owners += [
        value
        for module in layers.PACKAGE_MODULES
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("cpmonoid.")
    ]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_install_uninstall_restores_every_binding(layers):
    before = _bindings(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        oracles = layers.oracles
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
        assert oracles.WordFunction.evaluate.__wrapped__ is before[(id(oracles.WordFunction), "evaluate")]
        for cls in (
            oracles.TemplateFunction,
            oracles.BuiltinFunction,
            oracles.TableFunction,
            oracles.ExternalFunction,
        ):
            assert (id(cls), "_compute") in patched, cls.__name__
        assert (id(layers.templates.Template), "eval_letters") in patched
        fn = builtin("reverse")
        extract(fn)
        template = Template.of(Alphabet.of("ab"), "a", 1, "")
        assert template.eval([template.alphabet.word("b")]).letters == "ab"
        metrics = tracer.metrics()
        assert metrics["oracles.queries"] == fn.query_count > 0
        assert metrics["templates.eval_calls"] >= 1
        assert metrics["extraction.peels"] > 0
    finally:
        tracer.uninstall()
    after = _bindings(layers)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


def test_tracer_charges_each_phase_of_the_audit_schedule(layers):
    # The tracer tags the iterators of the family generators by name, so the
    # schedule must call them through the module; every phase runs to its end.
    def reversed_beyond_2(args):
        (x,) = args
        return x[::-1] if len(x) > 2 else x

    fn = BuiltinFunction("reversed_beyond_2", Alphabet.of("abc"), reversed_beyond_2)
    tracer = layers.Tracer()
    tracer.install()
    try:
        verdict = theorem_check(fn)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert isinstance(verdict, Indeterminate) and verdict.checks == 24_033
    phases = {
        phase: (metrics[f"audit.{phase}.specs"], metrics[f"audit.{phase}.checks"])
        for phase in layers.AUDIT_FAMILIES
    }
    assert phases == {
        "standard": (15, 291),
        "finite_monoids": (971, 23_742),
        "random_1": (0, 0),
        "random_2": (0, 0),
    }


@pytest.mark.parametrize("method", [extract, extract_fresh], ids=["peel", "fresh"])
def test_tracer_sees_every_backend_call_of_an_extraction(layers, method):
    # The tracer counts queries through the class's _compute, so the
    # validation sweep must reach the backend through it too.
    t = Template.of(Alphabet.of("abc"), "a", 2, "bc", 1, "", 2, "c")
    fn = TemplateFunction(t)
    tracer = layers.Tracer()
    tracer.install()
    try:
        outcome = method(fn)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert outcome.template == t and outcome.query_count == fn.query_count >= 169  # the sweep is 13²
    assert metrics["oracles.queries"] == fn.query_count
