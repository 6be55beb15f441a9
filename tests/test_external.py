"""Line-protocol conformance, driven against small inline subprocess oracles.

Each misbehaving oracle is a one-liner Python script; the harness must turn
every deviation into OracleProtocolError rather than wrong answers.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

from cpmonoid import (
    Alphabet,
    Extracted,
    ExternalFunction,
    OracleError,
    OracleProtocolError,
    extract,
    extract_fresh,
)

from conftest import ABC


def script(body: str) -> str:
    return f"{shlex.quote(sys.executable)} -c {shlex.quote(body)}"


IDENTITY = f"{shlex.quote(sys.executable)} -m cpmonoid.identity_oracle"


def answering(reply: bytes, greeting: bytes = b"OK\n") -> str:
    """An oracle that greets with ``greeting`` and sends ``reply`` raw to every query."""
    return script(
        "import sys\n"
        "sys.stdin.buffer.readline()\n"
        f"sys.stdout.buffer.write({greeting!r})\n"
        "sys.stdout.buffer.flush()\n"
        "for line in sys.stdin.buffer:\n"
        f"    sys.stdout.buffer.write({reply!r})\n"
        "    sys.stdout.buffer.flush()\n"
    )


def test_identity_oracle_basic():
    with ExternalFunction(IDENTITY, 1, ABC) as fn:
        assert fn("").letters == ""
        assert fn("abc").letters == "abc"
        assert fn("aa").letters == "aa"


def test_identity_oracle_binary():
    # two TAB-separated fields, concatenated back
    with ExternalFunction(IDENTITY, 2, ABC) as fn:
        assert fn("ab", "c").letters == "abc"
        assert fn("", "").letters == ""
        assert fn("a", "").letters == "a"


def test_identity_oracle_extension_handshake():
    with ExternalFunction(IDENTITY + " --ext", 1, ABC) as fn:
        assert fn.supports_extension
    with ExternalFunction(IDENTITY, 1, ABC) as fn:
        assert not fn.supports_extension


@pytest.mark.parametrize("bad_key", [("a\nb",), ("a\tb", "c")], ids=["newline", "tab"])
def test_extension_oracle_is_never_sent_an_invalid_letter(bad_key):
    # a newline or TAB inside a field would break the line framing and shift
    # every later reply by one; the key is refused before anything is sent
    arity = len(bad_key)
    with ExternalFunction(IDENTITY + " --ext", arity, ABC) as fn:
        with pytest.raises(OracleError, match="invalid characters"):
            fn.evaluate_letters(bad_key)
        good_key = ("c",) + ("",) * (arity - 1)
        assert fn.evaluate_letters(good_key) == "c"
        assert bad_key not in fn._cache


def test_refused_key_is_not_counted_as_a_query():
    # the key is refused inside _compute, before a line is sent, so the
    # backend never answered it
    with ExternalFunction(IDENTITY + " --ext", 1, ABC) as fn:
        with pytest.raises(OracleError, match="invalid characters"):
            fn.evaluate_letters(("a\nb",))
        assert fn.query_count == 0
        assert fn._cache == {}
        with pytest.raises(OracleError, match="invalid characters"):
            fn.first_mismatch([("c",), ("a\nb",)], lambda key: key[0])
        assert fn.query_count == 1
        assert list(fn._cache) == [("c",)]


def test_extract_over_protocol():
    with ExternalFunction(IDENTITY, 1, ABC) as fn:
        got = extract(fn)
    assert isinstance(got, Extracted)
    assert str(got.template) == '"" x1 ""'


def test_extract_fresh_over_protocol():
    with ExternalFunction(IDENTITY + " --ext", 1, ABC) as fn:
        got = extract_fresh(fn)
    assert isinstance(got, Extracted)
    assert str(got.template) == '"" x1 ""'


def test_query_count_counts_lines():
    with ExternalFunction(IDENTITY, 1, ABC) as fn:
        fn("ab")
        fn("ab")  # cache hit, no second line
        fn("ba")
        assert fn.query_count == 2


def test_bad_handshake():
    bad = script("print('NOPE', flush=True)")
    with pytest.raises(OracleProtocolError):
        ExternalFunction(bad, 1, ABC)


def test_eof_before_handshake():
    bad = script("pass")
    with pytest.raises(OracleProtocolError):
        ExternalFunction(bad, 1, ABC)


def test_eof_mid_session(capsys):
    from cpmonoid.cli import run

    body = (
        "import sys\n"
        "input()\n"
        "print('OK', flush=True)\n"
    )
    with ExternalFunction(script(body), 1, ABC) as fn:
        with pytest.raises(OracleProtocolError):
            fn("a")
    assert run(["extract", "--oracle", "exec:" + script(body)]) == 3
    assert capsys.readouterr().err.startswith("oracle protocol error: oracle ")


def test_reply_with_tab_rejected():
    body = (
        "import sys\n"
        "input()\n"
        "print('OK', flush=True)\n"
        "for line in sys.stdin:\n"
        "    print('a\\tb', flush=True)\n"
    )
    with ExternalFunction(script(body), 1, ABC) as fn:
        with pytest.raises(OracleProtocolError, match="^reply holds 2 fields, expected one word$"):
            fn("a")


def test_reply_with_undeclared_letter_rejected():
    # plain 'OK' handshake promises outputs over the declared alphabet
    body = (
        "import sys\n"
        "input()\n"
        "print('OK', flush=True)\n"
        "for line in sys.stdin:\n"
        "    print('z', flush=True)\n"
    )
    with ExternalFunction(script(body), 1, ABC) as fn:
        with pytest.raises(
            OracleProtocolError,
            match=re.escape("reply uses letters ['z'] that were never declared or sent"),
        ):
            fn("a")


def test_ext_reply_may_echo_sent_letters():
    # with OK EXT, letters the tool itself sent are fair game
    body = (
        "import sys\n"
        "input()\n"
        "print('OK EXT', flush=True)\n"
        "for line in sys.stdin:\n"
        "    print(line.rstrip('\\n').replace('\\t', ''), flush=True)\n"
    )
    with ExternalFunction(script(body), 1, ABC) as fn:
        out = fn.evaluate((ABC.extended("Q").word("Qa"),))
        assert out.letters == "Qa"


def test_ext_reply_with_invented_letter_rejected():
    # even OK EXT does not allow letters nobody has mentioned
    body = (
        "import sys\n"
        "input()\n"
        "print('OK EXT', flush=True)\n"
        "for line in sys.stdin:\n"
        "    print('Z', flush=True)\n"
    )
    with ExternalFunction(script(body), 1, ABC) as fn:
        with pytest.raises(OracleProtocolError, match=re.escape("letters ['Z'] that were never")):
            fn("a")


def test_close_is_idempotent():
    fn = ExternalFunction(IDENTITY, 1, ABC)
    assert fn("ab").letters == "ab"
    fn.close()
    fn.close()


def test_close_releases_the_pipes():
    fn = ExternalFunction(IDENTITY, 1, ABC)
    assert fn("ab").letters == "ab"
    fn.close()
    assert fn._proc.stdin.closed and fn._proc.stdout.closed


def test_open_query_close_leaves_no_unclosed_file():
    # dev mode turns every unclosed pipe into a ResourceWarning on stderr
    body = (
        "from cpmonoid import Alphabet, ExternalFunction\n"
        f"fn = ExternalFunction({IDENTITY!r}, 1, Alphabet.of('abc'))\n"
        "assert fn('ab').letters == 'ab'\n"
        "fn.close()\n"
        "del fn\n"
    )
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", body],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr


def test_closed_oracle_refuses_queries():
    fn = ExternalFunction(IDENTITY, 1, ABC)
    fn.close()
    with pytest.raises(OracleProtocolError, match="^oracle process is gone$"):
        fn("ab")


def test_reply_may_end_in_crlf():
    with ExternalFunction(answering(b"ab\r\n", greeting=b"OK\r\n"), 1, ABC) as fn:
        assert fn("ba").letters == "ab"


def test_non_ascii_letters_travel_as_utf8():
    # the oracle echoes a query only if it arrived as these UTF-8 bytes
    body = (
        "import sys\n"
        "sys.stdin.buffer.readline()\n"
        "sys.stdout.buffer.write(b'OK EXT\\n')\n"
        "sys.stdout.buffer.flush()\n"
        "for line in sys.stdin.buffer:\n"
        "    ok = line == '\\u00e9a\\n'.encode('utf-8')\n"
        "    sys.stdout.buffer.write(line if ok else b'\\t\\n')\n"
        "    sys.stdout.buffer.flush()\n"
    )
    with ExternalFunction(script(body), 1, ABC) as fn:
        assert fn("\u00e9a").letters == "\u00e9a"
    # a declared non-ASCII letter, in the handshake and the replies
    with ExternalFunction(IDENTITY, 2, Alphabet.of("a\u00e9")) as fn:
        assert fn("\u00e9", "a\u00e9").letters == "\u00e9a\u00e9"


@pytest.mark.parametrize(
    "reply, message",
    [
        # text mode read a lone CR as a line end; binary pipes keep it in the reply
        pytest.param(b"a\rb\n", "reply contains invalid characters ['\\r']", id="lone-cr"),
        pytest.param(b"a\r\r\n", "reply contains invalid characters ['\\r']", id="cr-cr-lf"),
        pytest.param(b"\xe9\n", "reply is not UTF-8: b'\\xe9\\n'", id="latin-1"),
    ],
)
def test_malformed_reply_rejected(reply, message):
    with ExternalFunction(answering(reply), 1, ABC) as fn:
        with pytest.raises(OracleProtocolError, match=f"^{re.escape(message)}$"):
            fn("a")


def test_sent_non_letters_stay_invalid_in_replies():
    # an extension oracle is sent whatever it is asked; echoing a space back
    # is still an invalid reply, not a letter the tool sent
    with ExternalFunction(IDENTITY + " --ext", 1, ABC) as fn:
        with pytest.raises(OracleProtocolError, match=re.escape("invalid characters [' ']")):
            fn.evaluate_letters(("a b",))


@pytest.mark.parametrize(
    "session, code, out",
    [
        pytest.param("HELLO 1 abc\nab\nBYE\n", 0, "OK\nab\n", id="bye"),
        pytest.param("HELLO 2 abc\nab\tc\n", 0, "OK\nabc\n", id="eof"),
        pytest.param("HELO 1 abc\nab\n", 1, "ERROR bad hello\n", id="bad-hello"),
    ],
)
def test_identity_oracle_exit_status(session, code, out):
    proc = subprocess.run(
        [sys.executable, "-m", "cpmonoid.identity_oracle"],
        input=session,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_no_oracle_outlives_the_cli(tmp_path):
    pid_file = tmp_path / "oracle.pid"
    oracle = tmp_path / "pid_oracle.py"
    oracle.write_text(
        "import os, sys\n"
        f"with open({str(pid_file)!r}, 'w') as out:\n"
        "    out.write(str(os.getpid()))\n"
        "from cpmonoid.identity_oracle import main\n"
        "sys.exit(main())\n"
    )
    spec = f"exec:{shlex.quote(sys.executable)} {shlex.quote(str(oracle))}"
    proc = subprocess.run(
        [sys.executable, "-m", "cpmonoid.cli", "extract", "--oracle", spec, "--arity", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith('"" x1 "" x2 "" x3 ""\n')
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_check_sends_no_fresh_letter_and_refutes_a_leaking_oracle(capsys):
    # reverses its input and, once it has been sent a fresh letter, appends
    # that letter to every reply; check extracts by peeling and never sends
    # one, so the oracle stays plain reverse and the audit refutes it
    from cpmonoid.cli import run

    body = (
        "import sys\n"
        "input()\n"
        "print('OK EXT', flush=True)\n"
        "extra = ''\n"
        "for line in sys.stdin:\n"
        "    line = line.rstrip('\\n')\n"
        "    extra = extra or ''.join(c for c in line if c not in 'abc\\t')[:1]\n"
        "    print(line.replace('\\t', '')[::-1] + extra, flush=True)\n"
    )
    code = run(["check", "--oracle", "exec:" + script(body)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["verdict: refuted-cp", "family: finite_monoids", "checks: 1280"]
