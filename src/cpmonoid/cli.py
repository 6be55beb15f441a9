"""Command-line front end.

Subcommands::

    cpmonoid eval -t FILE ARG...            evaluate a template file
    cpmonoid morphism apply -m FILE WORD    apply a morphism file
    cpmonoid profile  --oracle SPEC         length coefficients of an oracle
    cpmonoid classify --oracle SPEC         head case of an oracle
    cpmonoid extract  --oracle SPEC         recover a template (or NOT-RCP)
    cpmonoid audit    --oracle SPEC         hunt for a preservation witness
    cpmonoid check    --oracle SPEC         full verdict
    cpmonoid explore  --alphabet AB ...     two-letter candidate search

Oracles are named by scheme: ``template:FILE``, ``builtin:NAME``,
``table:FILE`` or ``exec:COMMANDLINE`` (split shell-style and spoken to over
the line protocol).  ``--arity`` (default 1) and ``--alphabet`` (default
``abc``) give an ``exec:`` oracle's signature; the other schemes carry their
own arity, which a given ``--arity`` must match.  A ``builtin:`` oracle takes
the given alphabet, and a table's alphabet is its own letters unless
``--alphabet`` is set; a template carries its own alphabet, which a given
``--alphabet`` must match.

Exit status: 0 success or passing verdict; 1 a witness, NOT-RCP outcome
(``check`` included, when every audit phase ran to its end) or
non-representable candidates; 2 usage or file-format errors; 3 external
oracle protocol failures; 4 a budget cut a check, audit or explore short of
its end, even in a phase's last congruence; 5 internal inconsistency (a
witness that failed its re-verification), reported on standard error; 141
standard output was closed early (as when piped into ``head``), which ends
the run quietly.  A negative ``--budget``, ``--bound``, ``--validate-len``,
``--image-len``, ``--arity`` or ``--maxlen``, or a ``--node-budget`` below 1,
exits 2 before any query.  Identical invocations print identical bytes.

The console script (:func:`main`, also ``python -m cpmonoid.cli``) flushes
its output and ends the process with ``os._exit``, skipping interpreter
teardown, so a profiler wrapped around it never reports.  Profile through
:func:`run`, which returns normally; the arguments after the code are the
command's::

    python -c 'import cProfile, sys; from cpmonoid.cli import run; cProfile.run("run(sys.argv[1:])", sort="cumtime")' check --oracle builtin:reverse
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

# Each command imports the modules it runs in its handler, so that start-up
# loads only those; run()'s except clauses and the argument types need these.
from .oracles import (
    DEFAULT_ALPHABET,
    ExternalFunction,
    OracleError,
    OracleProtocolError,
    TemplateFunction,
    WordFunction,
    builtin,
    parse_table,
)
from .templates import LengthCoefficients, format_template, parse_template
from .words import Alphabet, FormatError, Word, parse_morphism

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_PROTOCOL = 3
EXIT_BUDGET = 4
EXIT_INCONSISTENT = 5
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE: what a shell reports for a writer its reader left


class _UsageError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_oracle(
    spec: str, alphabet: Alphabet | None, arity: int | None, stack: contextlib.ExitStack
) -> WordFunction:
    scheme, sep, rest = spec.partition(":")
    if not sep:
        raise _UsageError(
            f"oracle spec {spec!r} needs a scheme: template:, builtin:, table: or exec:"
        )
    if scheme == "template":
        return TemplateFunction(parse_template(_read_file(rest)))
    if scheme == "builtin":
        try:
            return builtin(rest, alphabet)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    if scheme == "table":
        return parse_table(_read_file(rest), alphabet, name=f"table[{rest}]")
    if scheme == "exec":
        fn = ExternalFunction(rest, 1 if arity is None else arity, alphabet or DEFAULT_ALPHABET)
        stack.callback(fn.close)
        return fn
    raise _UsageError(f"unknown oracle scheme {scheme!r}")


def _alphabet_arg(text: str) -> Alphabet:
    try:
        return Alphabet.of(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _coeff_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected P,E (two comma-separated integers)")
    try:
        p, e = (int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers in P,E")
    if p < 0 or e < 0:
        raise argparse.ArgumentTypeError("coefficients must be nonnegative")
    return p, e


def _add_oracle_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--oracle", required=True, help="template:F | builtin:N | table:F | exec:CMD")
    sub.add_argument(
        "--alphabet",
        type=_alphabet_arg,
        help="alphabet for builtin/exec oracles (default: abc); "
        "a table's letters must lie in it (default: inferred from the file); "
        "a template's own alphabet must equal it",
    )
    sub.add_argument(
        "--arity", type=_int_at_least(0), help="exec oracle arity (default: 1); others must match"
    )


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bound", type=_int_at_least(0), default=2, help="input length bound")
    sub.add_argument(
        "--budget", type=_int_at_least(0), default=200_000, help="max pair checks per phase"
    )


def _add_validation_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--validate-len",
        type=_int_at_least(0),
        help="validation length bound (default: 3 unary / 2 k-ary, lowered until "
        "the sweep holds at most 100,000 tuples: 1 from arity 5 on abc, 0 from arity 9)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmonoid",
        description="Congruence preservation on free monoids: evaluate, extract, audit, explore.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a template file on words")
    p_eval.add_argument("-t", "--template", required=True, metavar="FILE")
    p_eval.add_argument("args", nargs="*", help="argument words ('' for the empty word)")

    p_mor = subs.add_parser("morphism", help="operations on morphism files")
    mor_subs = p_mor.add_subparsers(dest="morphism_command", required=True)
    p_apply = mor_subs.add_parser("apply", help="apply a morphism file to a word")
    p_apply.add_argument("-m", "--morphism", required=True, metavar="FILE")
    p_apply.add_argument("word")

    p_profile = subs.add_parser("profile", help="length coefficients of an oracle")
    _add_oracle_options(p_profile)

    p_classify = subs.add_parser("classify", help="head case of an oracle")
    _add_oracle_options(p_classify)

    p_extract = subs.add_parser("extract", help="recover a template from an oracle")
    _add_oracle_options(p_extract)
    p_extract.add_argument(
        "--fresh",
        action="store_true",
        help="use fresh-letter extraction (oracle must accept new letters)",
    )
    _add_validation_option(p_extract)

    p_audit = subs.add_parser("audit", help="hunt for a preservation witness")
    _add_oracle_options(p_audit)
    p_audit.add_argument(
        "--family",
        choices=("standard", "finite_monoids", "all"),
        default="standard",
        help="phases of check's audit schedule to sweep",
    )
    _add_sweep_options(p_audit)

    p_check = subs.add_parser("check", help="full verdict for an oracle")
    _add_oracle_options(p_check)
    _add_sweep_options(p_check)
    _add_validation_option(p_check)

    p_explore = subs.add_parser(
        "explore", help="search two-letter tables consistent with kernel constraints"
    )
    p_explore.add_argument(
        "--alphabet", type=_alphabet_arg, default=Alphabet.of("ab"),
        help="letters of the tables (default: ab)",
    )
    p_explore.add_argument(
        "--maxlen", type=_int_at_least(0), required=True, help="domain length bound"
    )
    p_explore.add_argument(
        "--coeff", type=_coeff_arg, required=True, metavar="P,E",
        help="forced length law |f(x)| = P|x| + E",
    )
    p_explore.add_argument(
        "--image-len", type=_int_at_least(0), default=2,
        help="constrain by the kernel of every endomorphism whose letter images "
        "have length at most this (default: 2)",
    )
    p_explore.add_argument(
        "--node-budget", type=_int_at_least(1), default=5_000_000,
        help="search nodes before the search stops with exit 4 (default: 5,000,000)",
    )

    return parser


def _render_profile(coeffs: LengthCoefficients) -> str:
    lines = [
        "p " + " ".join(str(c) for c in coeffs.p),
        f"e {coeffs.e}",
    ]
    lines.extend(f"offset {ch} {n}" for ch, n in coeffs.per_letter_offset)
    return "\n".join(lines)


def _cmd_eval(args: argparse.Namespace) -> int:
    template = parse_template(_read_file(args.template))
    if len(args.args) != template.arity:
        raise _UsageError(
            f"template has arity {template.arity}, got {len(args.args)} arguments"
        )
    words = [Word(template.alphabet, w) for w in args.args]
    print(template.eval(words).letters)
    return EXIT_OK


def _cmd_morphism(args: argparse.Namespace) -> int:
    morphism = parse_morphism(_read_file(args.morphism))
    word = Word(morphism.source, args.word)
    print(morphism.apply(word).letters)
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, fn: WordFunction) -> int:
    from .extraction import NotRCP, length_profile

    result = length_profile(fn)
    if isinstance(result, NotRCP):
        print(result.render())
        return EXIT_FINDING
    print(_render_profile(result))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace, fn: WordFunction) -> int:
    from .extraction import NotRCP, classify_head, render_head_case

    result = classify_head(fn)
    if isinstance(result, NotRCP):
        print(result.render())
        return EXIT_FINDING
    print(render_head_case(result))
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace, fn: WordFunction) -> int:
    from .extraction import Extracted, extract, extract_fresh

    runner = extract_fresh if args.fresh else extract
    outcome = runner(fn, validation_len=args.validate_len)
    if isinstance(outcome, Extracted):
        sys.stdout.write(format_template(outcome.template))
        return EXIT_OK
    print(outcome.render())
    return EXIT_FINDING


def _cmd_audit(args: argparse.Namespace, fn: WordFunction) -> int:
    from .audit import audit

    result = audit(fn, family=args.family, length_bound=args.bound, budget=args.budget)
    if result.witness is not None:
        print(result.witness.render())
        return EXIT_FINDING
    if result.truncated:
        print(f"budget exhausted after {result.checks} checks; no witness found")
        return EXIT_BUDGET
    print(f"ok ({result.specs_checked} congruences, {result.checks} checks)")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, fn: WordFunction) -> int:
    from .audit import CertifiedCP, Indeterminate, theorem_check

    verdict = theorem_check(
        fn, validation_len=args.validate_len, length_bound=args.bound, budget=args.budget
    )
    print(verdict.render())
    if isinstance(verdict, CertifiedCP):
        return EXIT_OK
    if isinstance(verdict, Indeterminate) and verdict.truncated:
        return EXIT_BUDGET
    return EXIT_FINDING  # a witness, or extraction's NOT-RCP after full sweeps


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explorer import SearchConfig, explore

    p, e = args.coeff
    config = SearchConfig(
        alphabet=args.alphabet,
        domain_len=args.maxlen,
        p=p,
        e=e,
        image_len=args.image_len,
        node_budget=args.node_budget,
    )
    report = explore(config)
    # the bytes of print(report.render()), a block of tables at a time
    for chunk in report.chunks():
        sys.stdout.write(chunk + "\n")
    if report.exhausted:
        return EXIT_BUDGET
    if report.non_representable:
        return EXIT_FINDING
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the exit status instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as stop:  # argparse reports usage errors itself
        code = stop.code
        return code if isinstance(code, int) else EXIT_USAGE

    try:
        with contextlib.ExitStack() as stack:
            if args.command == "eval":
                return _cmd_eval(args)
            if args.command == "morphism":
                return _cmd_morphism(args)
            if args.command == "explore":
                return _cmd_explore(args)
            fn = _load_oracle(args.oracle, args.alphabet, args.arity, stack)
            if args.arity not in (None, fn.arity):
                raise _UsageError(f"--arity {args.arity}, but the oracle has arity {fn.arity}")
            if args.alphabet not in (None, fn.alphabet):
                raise _UsageError(
                    f"--alphabet {args.alphabet}, but the oracle's alphabet is {fn.alphabet}"
                )
            handler = {
                "profile": _cmd_profile,
                "classify": _cmd_classify,
                "extract": _cmd_extract,
                "audit": _cmd_audit,
                "check": _cmd_check,
            }[args.command]
            return handler(args, fn)
    except (_UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleProtocolError as exc:
        print(f"oracle protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (OracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # internal, as when a witness fails its re-verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main() -> None:
    """The console script: :func:`run`, then exit without interpreter teardown.

    ``run`` has closed and reaped every oracle by the time it returns, and
    the process holds no other state worth tearing down, so once both
    streams are flushed ``os._exit`` ends it.  Output still unflushed after
    a closed pipe is dropped with the rest of the process.
    """
    try:
        status = run()
        sys.stdout.flush()  # os._exit flushes nothing; a closed pipe fails here
    except BrokenPipeError:
        status = EXIT_CLOSED_STDOUT
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
