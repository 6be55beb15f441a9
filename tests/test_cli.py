"""End-to-end CLI coverage through run(), plus golden text for key outputs."""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cpmonoid import BUILTIN_NAMES, Template, TemplateFunction, format_template, parse_template
from cpmonoid.cli import _build_parser, run
from cpmonoid.extraction import default_validation_len

from conftest import ABC, AB

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CLI = ROOT / "bench" / "golden" / "cli"
# fresh interpreters import the package from this checkout
FRESH_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def template_file(tmp_path):
    t = Template.of(ABC, "ab", 1, "c")
    path = tmp_path / "t.tmpl"
    path.write_text(format_template(t))
    return str(path)


@pytest.fixture
def morphism_file(tmp_path):
    path = tmp_path / "m.mor"
    path.write_text("alphabet abc\na=ab\nb=b\nc=a\n")
    return str(path)


def test_eval(capsys, template_file):
    code, out, _ = invoke(capsys, "eval", "-t", template_file, "ba")
    assert code == 0
    assert out.strip() == "abbac"


def test_eval_empty_word(capsys, template_file):
    code, out, _ = invoke(capsys, "eval", "-t", template_file, "")
    assert code == 0
    assert out.strip() == "abc"


def test_eval_template_body_with_trailing_whitespace(capsys, tmp_path, template_file):
    clean = Path(template_file).read_text()
    want = invoke(capsys, "eval", "-t", template_file, "ba")
    assert want[0] == 0
    # whitespace after each line, and a run of spaces between tokens
    for old, new in (("\n", " \t\n"), (" ", "  ")):
        padded = tmp_path / "padded.tmpl"
        padded.write_text(clean.replace(old, new))
        assert invoke(capsys, "eval", "-t", str(padded), "ba") == want
        assert format_template(parse_template(padded.read_text())) == clean


def test_eval_wrong_arity(capsys, template_file):
    code, _, err = invoke(capsys, "eval", "-t", template_file, "a", "b")
    assert code == 2
    assert "arity" in err


def test_eval_missing_file(capsys):
    code, _, err = invoke(capsys, "eval", "-t", "/no/such/file", "a")
    assert code == 2
    assert "cannot read" in err


def test_morphism_apply(capsys, morphism_file):
    code, out, _ = invoke(capsys, "morphism", "apply", "-m", morphism_file, "cab")
    assert code == 0
    assert out.strip() == "aabb"


def test_profile_builtin(capsys):
    code, out, _ = invoke(capsys, "profile", "--oracle", "builtin:reverse")
    assert code == 0
    assert "p 1" in out and "e 0" in out


def test_profile_rejects_erasure(capsys):
    code, out, _ = invoke(capsys, "profile", "--oracle", "builtin:erase_a")
    assert code == 1
    assert "NOT-RCP" in out


@pytest.mark.parametrize(
    "oracle, want_code, want_out",
    [
        pytest.param("builtin:reverse", 0, "variable 1\n", id="reverse"),
        pytest.param("builtin:erase_a", 1, (
            "NOT-RCP\n"
            "reason: ambiguous head probes\n"
            'query: "c"\n'
            'output: "c"\n'
            'query: "a"\n'
            'output: ""\n'
            "detail: output vanished on a nonempty probe\n"
        ), id="erase_a"),
    ],
)
def test_classify(capsys, oracle, want_code, want_out):
    code, out, _ = invoke(capsys, "classify", "--oracle", oracle)
    assert (code, out) == (want_code, want_out)


def test_extract_template_round_trip(capsys, template_file):
    code, out, _ = invoke(capsys, "extract", "--oracle", f"template:{template_file}")
    assert code == 0
    assert out == 'arity 1\nalphabet abc\n"ab" x1 "c"\n'


def test_extract_reverse_not_rcp(capsys):
    code, out, _ = invoke(capsys, "extract", "--oracle", "builtin:reverse")
    assert code == 1
    assert "reason: peel prefix violation" in out
    assert out == (
        "NOT-RCP\n"
        "reason: peel prefix violation\n"
        'query: "ab"\n'
        'output: "ba"\n'
        "detail: output \"ba\" on \"ab\" does not start with 'ab'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--oracle", "builtin:reverse", "--bound", "-1"),
        ("extract", "--oracle", "builtin:square", "--validate-len", "-1"),
        # square is certified by extraction alone, so only the flag's type
        # keeps it from printing a verdict without ever looking at the bound
        ("check", "--oracle", "builtin:square", "--bound", "-1"),
        ("check", "--oracle", "builtin:square", "--validate-len", "-1"),
    ],
)
def test_negative_length_bound_is_usage_error(capsys, monkeypatch, argv):
    import cpmonoid.cli

    def no_oracle(*_):
        raise AssertionError("oracle loaded despite a negative length bound")

    monkeypatch.setattr(cpmonoid.cli, "_load_oracle", no_oracle)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least 0, got -1" in err


def test_extract_fresh_flag(capsys, template_file):
    code, out, _ = invoke(
        capsys, "extract", "--fresh", "--oracle", f"template:{template_file}"
    )
    assert code == 0
    assert '"ab" x1 "c"' in out


def test_extract_fresh_needs_extension(capsys):
    code, _, err = invoke(
        capsys, "extract", "--fresh", "--oracle", "builtin:sort_letters"
    )
    assert code == 2
    assert "letters" in err or "extension" in err


def test_table_oracle(capsys, tmp_path):
    fn = TemplateFunction(Template.of(AB, "a", 1, ""))
    rows = []
    from cpmonoid import iter_words

    for w in iter_words(AB, 4):
        rows.append(f"{w.letters}\t{fn(w.letters).letters}")
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = invoke(
        capsys, "profile", "--oracle", f"table:{path}", "--alphabet", "ab"
    )
    assert code == 0
    assert "p 1" in out


def test_table_oracle_alphabet_flag(capsys, tmp_path):
    from cpmonoid import iter_words

    fn = TemplateFunction(Template.of(ABC, "a", 1, ""))
    rows = [f"{w.letters}\t{fn(w.letters).letters}" for w in iter_words(ABC, 4)]
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(rows) + "\n")
    # an explicit alphabet replaces inference, so the file's c rows break it
    code, out, err = invoke(
        capsys, "profile", "--oracle", f"table:{path}", "--alphabet", "ab"
    )
    assert code == 2
    assert out == ""
    assert "outside alphabet" in err
    # without the flag the alphabet is inferred from the file, as before
    code, out, _ = invoke(capsys, "profile", "--oracle", f"table:{path}")
    assert code == 0
    assert "p 1" in out


def test_audit_standard_collapse(capsys):
    code, out, _ = invoke(capsys, "audit", "--oracle", "builtin:collapse_b_to_a")
    assert code == 1
    assert "WITNESS" in out


def test_audit_pass_for_square(capsys):
    code, out, _ = invoke(capsys, "audit", "--oracle", "builtin:square")
    assert code == 0
    assert out.startswith("ok (")


def test_audit_budget_exit(capsys):
    code, out, _ = invoke(
        capsys, "audit", "--oracle", "builtin:reverse", "--budget", "5"
    )
    assert code == 4
    assert "budget exhausted" in out


def test_check_certifies(capsys, template_file):
    code, out, _ = invoke(capsys, "check", "--oracle", f"template:{template_file}")
    assert code == 0
    assert "certified-cp" in out


def test_check_refutes(capsys):
    code, out, _ = invoke(capsys, "check", "--oracle", "builtin:erase_a")
    assert code == 1
    assert "refuted-cp" in out
    assert "WITNESS" in out


def test_check_not_rcp_after_full_sweeps_exits_1(capsys, tmp_path):
    # "cc" x "ac", reversed beyond length 2: extraction's validation catches
    # it, every audit family runs to its end without a witness, and no
    # budget runs out, so the NOT-RCP diagnosis decides the exit status.
    from cpmonoid import iter_words

    rows = []
    for w in iter_words(ABC, 3):
        x = w.letters if len(w) <= 2 else w.letters[::-1]
        rows.append(f"{w.letters}\tcc{x}ac")
    path = tmp_path / "late_reverse.tsv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = invoke(capsys, "check", "--oracle", f"table:{path}")
    assert code == 1
    assert "verdict: indeterminate" in out
    assert "note: all families exhausted" in out
    assert "reason: validation mismatch" in out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_check_matches_golden(capsys, name):
    # byte-identical to the checked-in benchmark golden output, which covers
    # quoted word images and bare finite-monoid images in witnesses
    code, out, _ = invoke(capsys, "check", "--oracle", f"builtin:{name}")
    assert out.encode() == (GOLDEN_CLI / f"check-{name}.out").read_bytes()
    assert code == int((GOLDEN_CLI / f"check-{name}.code").read_text())


def test_check_budget_exit(capsys):
    code, out, _ = invoke(
        capsys, "check", "--oracle", "builtin:reverse", "--budget", "10"
    )
    assert code == 4
    assert "note: budget exhausted" in out


def test_check_failed_witness_verification_exits_5(capsys, monkeypatch):
    # A witness that fails its re-verification is an internal inconsistency:
    # exit 5 with one line on standard error, not a traceback.
    import importlib

    audit_module = importlib.import_module("cpmonoid.audit")
    monkeypatch.setattr(audit_module, "verify_witness", lambda fn, witness: False)
    code, out, err = invoke(capsys, "check", "--oracle", "builtin:erase_a")
    assert code == 5
    assert out == ""
    assert err == "error: internal inconsistency: witness failed re-verification\n"
    assert "Traceback" not in err


def test_explore_exit_codes(capsys):
    code, out, _ = invoke(capsys, "explore", "--maxlen", "2", "--coeff", "1,0")
    assert code == 1  # non-representable candidates exist over two letters
    assert "non-representable 3" in out

    code, out, _ = invoke(
        capsys, "explore", "--maxlen", "2", "--coeff", "0,1", "--alphabet", "abc"
    )
    assert code == 0
    assert "non-representable 0" in out


def test_explore_takes_a_length_law_past_the_recursion_limit(capsys):
    code, out, err = invoke(
        capsys, "explore", "--alphabet", "ab", "--maxlen", "0", "--coeff", "1000,0"
    )
    assert (code, err) == (0, "")
    assert out == (
        "explore alphabet ab maxlen 0 p 1000 e 0 image-len 2\n"
        "family 1\nnodes 1\nconsistent 1\nrepresentable 1\nnon-representable 0\n"
    )


def test_extract_and_check_a_template_of_600_slots(capsys, tmp_path):
    body = '""' + ' x1 ""' * 600
    path = tmp_path / "slots.tmpl"
    path.write_text(f"arity 1\nalphabet abc\n{body}\n")
    code, out, err = invoke(capsys, "extract", "--oracle", f"template:{path}")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == body
    code, out, err = invoke(capsys, "check", "--oracle", f"template:{path}")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["verdict: certified-cp", "queries: 40"]


def test_explore_budget_exit(capsys):
    code, out, _ = invoke(
        capsys, "explore", "--maxlen", "2", "--coeff", "1,1", "--node-budget", "10"
    )
    assert code == 4
    assert "budget exhausted" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        # argparse refuses these before SearchConfig could, with a usage message
        (("explore", "--maxlen", "-1", "--coeff", "1,0"), 2),
        (("explore", "--maxlen", "2", "--coeff", "1,0", "--node-budget", "0"), 2),
        (("audit", "--oracle", "builtin:reverse", "--budget", "-5"), 2),
        (("check", "--oracle", "builtin:reverse", "--budget", "-5"), 2),
        (("explore", "--maxlen", "two", "--coeff", "1,0"), 2),
        (("explore", "--maxlen", "2", "--coeff", "1,0", "--image-len", "-1"), 2),
        # echo would fail the handshake (exit 3): the flag is refused first
        (("extract", "--oracle", "exec:echo NOPE", "--arity", "-1"), 2),
        (("audit", "--oracle", "builtin:reverse", "--budget", "many"), 2),
        (("audit", "--oracle", "builtin:reverse", "--budget", "0"), 4),
        (("explore", "--maxlen", "2", "--coeff", "1,0", "--node-budget", "-1"), 2),
    ],
)
def test_numeric_flag_bounds(capsys, argv, code):
    got, out, err = invoke(capsys, *argv)
    assert got == code
    if code == 2:
        assert out == ""
        assert "must be at least" in err or "expected an integer" in err


VALIDATE_HELP = (
    "validation length bound (default: 3 unary / 2 k-ary, lowered until the sweep holds "
    "at most 100,000 tuples: 1 from arity 5 on abc, 0 from arity 9)"
)
SWEEP_OPTIONS = {
    "audit": {"input length bound": ("bound", 2), "max pair checks per phase": ("budget", 200_000)},
    "check": {
        "input length bound": ("bound", 2),
        "max pair checks per phase": ("budget", 200_000),
        VALIDATE_HELP: ("validate_len", None),
    },
    "extract": {VALIDATE_HELP: ("validate_len", None)},
}


@pytest.mark.parametrize("command", ["audit", "check", "extract"])
def test_sweep_options_have_one_declaration(capsys, command):
    # audit and check take --bound and --budget, check and extract take
    # --validate-len, each with one default and one help text
    with pytest.raises(SystemExit):
        _build_parser().parse_args([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())  # however argparse wraps it
    for text in SWEEP_OPTIONS[command]:
        assert text in out
    assert "seed" not in out and "random" not in out
    args = vars(_build_parser().parse_args([command, "--oracle", "builtin:square"]))
    for dest, default in SWEEP_OPTIONS[command].values():
        assert args[dest] == default
    # the --validate-len help states what default_validation_len does
    bounds = [default_validation_len(arity, ABC) for arity in (1, 2, 4, 5, 8, 9, 12)]
    assert bounds == [3, 2, 2, 1, 1, 0, 0]


@pytest.mark.parametrize("flag", ["--count 3", "--image-len 1"])
def test_audit_has_no_random_shape_flags(capsys, flag):
    # the audit schedule has no random phases to shape
    argv = ("audit", "--oracle", "builtin:square", "--family", "all", *flag.split())
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("audit", "--oracle", "builtin:square", "--family", "random"), "invalid choice: 'random'"),
        (("check", "--oracle", "builtin:square", "--seed", "1"), "unrecognized arguments: --seed 1"),
    ],
    ids=["audit-family-random", "check-seed"],
)
def test_random_phases_and_their_seed_are_gone(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "budget, code, line",
    [
        ("290", 4, "budget exhausted after 290 checks; no witness found"),
        ("291", 0, "ok (15 congruences, 291 checks)"),
    ],
)
def test_a_budget_that_cuts_the_last_congruence_exits_4(capsys, budget, code, line):
    # square's standard sweep runs to its end in 291 checks
    argv = ("audit", "--oracle", "builtin:square", "--family", "standard", "--budget", budget)
    assert invoke(capsys, *argv)[:2] == (code, line + "\n")


def test_audit_family_choices_are_the_schedule_selections():
    from cpmonoid.audit import _FAMILIES
    from cpmonoid.cli import _build_parser

    parser = _build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in subcommands.choices["audit"]._actions if a.dest == "family")
    assert list(family.choices) == list(_FAMILIES)


@pytest.mark.parametrize("oracle", ["builtin:reverse", "template:{template}", "table:{table}"])
def test_arity_must_match_an_oracle_that_carries_its_own(capsys, template_file, oracle, tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\n")
    oracle = oracle.format(template=template_file, table=table)
    code, out, err = invoke(capsys, "audit", "--oracle", oracle, "--arity", "3")
    assert code == 2
    assert out == ""
    assert "--arity 3, but the oracle has arity 1" in err


@pytest.mark.parametrize("letters", ["abcd", "cba"])
def test_alphabet_must_equal_a_templates_own(capsys, template_file, letters):
    # a template carries its alphabet; a different one is not silently ignored
    code, out, err = invoke(capsys, "check", "--oracle", f"template:{template_file}", "--alphabet", letters)
    assert code == 2
    assert out == ""
    assert f"--alphabet {letters}, but the oracle's alphabet is abc" in err
    code, out, _ = invoke(capsys, "check", "--oracle", f"template:{template_file}", "--alphabet", "abc")
    assert code == 0
    assert out.startswith("verdict: certified-cp\n")


def test_matching_arity_is_accepted(capsys):
    code, out, _ = invoke(capsys, "audit", "--oracle", "builtin:square", "--arity", "1")
    assert code == 0
    assert out == "ok (15 congruences, 291 checks)\n"


def test_closed_stdout_exits_quietly():
    # `cpmonoid check ... | head -1` without the race: the reader is gone
    # before the verdict is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpmonoid.cli", "check", "--oracle", "builtin:reverse"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=FRESH_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize(
    "coeff, reason",
    [
        pytest.param("1", "expected P,E (two comma-separated integers)", id="one"),
        pytest.param("1,x", "expected integers in P,E", id="letter"),
        pytest.param("1,-1", "coefficients must be nonnegative", id="negative"),
    ],
)
def test_explore_bad_coeff(capsys, coeff, reason):
    code, _, err = invoke(capsys, "explore", "--maxlen", "2", "--coeff", coeff)
    assert code == 2
    assert f"argument --coeff: {reason}" in err


def test_exec_oracle(capsys):
    cmd = f"{shlex.quote(sys.executable)} -m cpmonoid.identity_oracle"
    code, out, _ = invoke(capsys, "extract", "--oracle", f"exec:{cmd}")
    assert code == 0
    assert '"" x1 ""' in out


def test_exec_identity_oracle_at_arity_0(capsys):
    # the empty query line is the one query of arity 0; the reply is ""
    oracle = f"exec:{shlex.quote(sys.executable)} -m cpmonoid.identity_oracle"
    code, out, _ = invoke(capsys, "extract", "--oracle", oracle, "--arity", "0")
    assert (code, out) == (0, 'arity 0\nalphabet abc\n""\n')
    code, out, _ = invoke(capsys, "check", "--oracle", oracle, "--arity", "0")
    assert code == 0 and out.startswith("verdict: certified-cp\n")


def test_exec_protocol_failure(capsys):
    code, _, err = invoke(capsys, "extract", "--oracle", "exec:echo NOPE")
    assert code == 3
    assert "protocol" in err


@pytest.mark.parametrize(
    "args, reason",
    [
        pytest.param(("zip:whatever",), "scheme", id="zip"),
        pytest.param(("reverse",), "oracle spec 'reverse' needs a scheme", id="bare"),
        pytest.param(("builtin:nope",), "unknown builtin 'nope'", id="unknown-builtin"),
        pytest.param(
            ("builtin:collapse_b_to_a", "--alphabet", "acd"),
            "builtin 'collapse_b_to_a' needs letters ['b'] in the alphabet",
            id="builtin-letters",
        ),
        pytest.param(("builtin:reverse", "--alphabet", "aab"), "duplicate letter 'a'", id="alphabet"),
    ],
)
def test_unknown_scheme(capsys, args, reason):
    code, _, err = invoke(capsys, "extract", "--oracle", *args)
    assert code == 2
    assert reason in err


def test_unknown_subcommand(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_no_args_usage(capsys):
    code, _, _ = invoke(capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("eval", "-t", "{template}", "ba"), ()),
        (("morphism", "apply", "-m", "{morphism}", "cab"), ()),
        (("explore", "--maxlen", "2", "--coeff", "1,1"), ("congruence", "explorer")),
        (("extract", "--oracle", "builtin:square"), ("extraction",)),
        (("check", "--oracle", "builtin:reverse"), ("audit", "congruence", "extraction")),
    ],
    ids=("eval", "morphism", "explore", "extract", "check"),
)
def test_subcommand_loads_only_its_modules(template_file, morphism_file, argv, modules):
    argv = [arg.format(template=template_file, morphism=morphism_file) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "shunned = ('dataclasses', 'inspect', 'ast', 'dis')\n"
        "before = [m for m in shunned if m in sys.modules]\n"
        "from cpmonoid.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    run({argv!r})\n"
        "print(before, [m for m in shunned if m in sys.modules], sep='|')\n"
        "print(*sorted(m for m in sys.modules if m.startswith('cpmonoid.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=FRESH_ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    shunned_loaded, loaded = proc.stdout.split("\n", 1)
    before, after = shunned_loaded.split("|")
    # whatever loaded dataclasses, inspect, ast or dis at start-up, cpmonoid did not
    assert after == before
    expected = sorted({"cli", "oracles", "templates", "words", *modules})
    assert loaded.split() == [f"cpmonoid.{name}" for name in expected]


def test_identity_oracle_loads_only_itself():
    # -X importtime names every module the oracle child imports, on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cpmonoid.identity_oracle"],
        input="HELLO 1 abc\nab\nBYE\n",
        capture_output=True,
        text=True,
        env=FRESH_ENV,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "OK\nab\n"
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert "cpmonoid" in imported
    assert {m for m in imported if m.startswith("cpmonoid.")} <= {"cpmonoid.identity_oracle"}


def test_invalid_reply_characters_are_listed_in_sorted_order(tmp_path):
    # an oracle whose reply holds three characters no word may contain; the
    # report must not follow set order, which changes with the hash seed
    oracle = tmp_path / "oracle.py"
    oracle.write_text(
        "import sys\n"
        "input()\n"
        "print('OK', flush=True)\n"
        "for line in sys.stdin:\n"
        "    print('x\" \\\\y', flush=True)\n"
    )
    spec = f"exec:{shlex.quote(sys.executable)} {shlex.quote(str(oracle))}"
    runs = [
        subprocess.run(
            [sys.executable, "-m", "cpmonoid.cli", "extract", "--oracle", spec],
            capture_output=True,
            text=True,
            env=dict(FRESH_ENV, PYTHONHASHSEED=seed),
            timeout=60,
        )
        for seed in ("1", "2")
    ]
    assert [proc.returncode for proc in runs] == [3, 3]
    assert runs[0].stderr == runs[1].stderr == (
        "oracle protocol error: reply contains invalid characters "
        "[' ', '\"', '\\\\']\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("extract", "--oracle", "builtin:square"), ("check", "--oracle", "builtin:reverse")],
    ids=("extract", "check"),
)
def test_extraction_path_does_not_load_string(argv):
    code = (
        "import contextlib, io, sys\n"
        "before = 'string' in sys.modules\n"
        "from cpmonoid.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    run({list(argv)!r})\n"
        "print(before, 'string' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=FRESH_ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before  # whatever loaded it at start-up, cpmonoid did not


def test_fresh_pool_spells_out_the_string_constants():
    import string

    from cpmonoid import extraction

    assert extraction._FRESH_POOL == (
        string.digits + string.ascii_uppercase + string.ascii_lowercase + "@#$%&*+-/:;<>?^_~"
    )


EXPLORE_LARGE = ("explore", "--alphabet", "ab", "--maxlen", "3", "--coeff", "0,2")


def test_explore_streams_the_rendered_report(capsys, monkeypatch):
    from cpmonoid.explorer import ExploreReport, SearchConfig, explore

    report = explore(SearchConfig(AB, domain_len=3, p=0, e=2))
    want = report.render() + "\n"
    assert len(list(report.chunks())) > 3  # several blocks of tables

    def no_render(self):
        raise AssertionError("the CLI must not build the whole report")

    monkeypatch.setattr(ExploreReport, "render", no_render)
    code, out, _ = invoke(capsys, *EXPLORE_LARGE)
    assert code == 1
    assert out == want


@pytest.mark.parametrize(
    "argv, config, code",
    [
        pytest.param(
            (*EXPLORE_LARGE, "--node-budget", "30000"),
            dict(alphabet=AB, domain_len=3, p=0, e=2, node_budget=30_000),
            4,
            id="cut",
        ),
        pytest.param(
            ("explore", "--alphabet", "abc", "--maxlen", "2", "--coeff", "1,0"),
            dict(alphabet=ABC, domain_len=2, p=1, e=0),
            0,
            id="empty",
        ),
    ],
)
def test_explore_prints_cut_and_empty_reports_whole(capsys, argv, config, code):
    from cpmonoid.explorer import SearchConfig, explore

    want = explore(SearchConfig(**config)).render() + "\n"
    assert invoke(capsys, *argv) == (code, want, "")


def test_explore_with_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpmonoid.cli", *EXPLORE_LARGE],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=FRESH_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(EXPLORE_LARGE, 1, id="explore-5.7MB"),
        pytest.param(("explore", "--maxlen", "2", "--coeff", "1"), 2, id="usage-error"),
        pytest.param(("check", "--oracle", "table:/nonexistent/t.tsv"), 2, id="file-error"),
        pytest.param(("--help",), 0, id="help"),
    ],
)
def test_fast_exit_delivers_what_run_prints(capsys, monkeypatch, argv, code):
    # main() ends the process with os._exit: everything run() wrote must
    # still reach the pipes, byte for byte
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    want = invoke(capsys, *argv)
    # block-buffered standard streams, as where PYTHONUNBUFFERED is unset
    env = {name: value for name, value in FRESH_ENV.items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "cpmonoid.cli", *argv],
        capture_output=True,
        env=dict(env, COLUMNS="80"),
        timeout=120,
    )
    assert want[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        want[0],
        want[1].encode(),
        want[2].encode(),
    )


def test_eval_keeps_format_syntax_letters_literal(capsys, tmp_path):
    path = tmp_path / "braces.tmpl"
    path.write_text('arity 2\nalphabet a{}%0\n"{%" x1 "}0{" x2 "%}" x1 ""\n')
    code, out, _ = invoke(capsys, "eval", "-t", str(path), "}{", "%0")
    assert (code, out) == (0, "{%}{}0{%0%}}{\n")
