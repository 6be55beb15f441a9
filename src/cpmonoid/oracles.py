"""Black-box word functions behind one uniform, memoizing interface.

Extraction and auditing only ever see a :class:`WordFunction`: something
with an arity, an alphabet, maybe the ability to accept letters outside that
alphabet, and an ``evaluate_letters`` method.  Backends exist for templates,
Python callables (the builtin catalog), finite lookup tables, and external
processes speaking a one-line-per-query protocol.

Each function keeps one memo of raw letter strings, with two entries.
:meth:`WordFunction.evaluate_letters` answers one argument tuple;
:meth:`WordFunction.first_mismatch` answers a whole sweep of them against a
prediction and stops at the first disagreement, without a method call per
tuple.  Both look a tuple up in the memo first, and only on a miss check its
arity and letters (one set of checks, one set of messages) and call the
backend's ``_compute``.  So repeated probes are free and ``query_count`` —
the number of *distinct* evaluations the backend answered — is
deterministic, whichever entry asked.  :meth:`WordFunction.evaluate` is the
:class:`Word` boundary around them, for callers outside the hot loops.
Extraction's derived oracles (peeled heads, fresh-letter factors) are one
class whose entries ask the parent and check a promise; they keep no memo of
their own, share the parent's, and report the root backend's count.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping, Sequence

from .templates import Template
from .words import Alphabet, FormatError, Word, _valid_letter


class OracleError(Exception):
    """Base class for oracle evaluation failures."""


class TableMissError(OracleError):
    """A table-backed oracle was asked about an input it does not define."""


class OracleProtocolError(OracleError):
    """An external oracle broke the line protocol."""


class WordFunction:
    """A deterministic total function from k-tuples of words to words.

    Subclasses implement :meth:`_compute` on raw letter strings;
    :meth:`evaluate_letters` validates arguments and consults the memo, and
    :meth:`evaluate` wraps it for :class:`Word` callers.  When
    ``supports_extension`` is true the function accepts (and may emit)
    letters outside its declared alphabet — the lever that fresh-letter
    extraction pulls.
    """

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        arity: int,
        supports_extension: bool = False,
    ) -> None:
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.name = name
        self.alphabet = alphabet
        self.arity = arity
        self.supports_extension = supports_extension
        self._cache: dict[tuple[str, ...], str] = {}
        self._misses = 0

    # -- subclass hook ----------------------------------------------------

    def _compute(self, key: tuple[str, ...]) -> str:
        """The letters of the result for the argument letters ``key``."""
        raise NotImplementedError

    # -- public surface ---------------------------------------------------

    @property
    def query_count(self) -> int:
        """Distinct argument tuples the underlying backend answered.  A key
        refused before it was sent, or whose backend call failed, is not one;
        a table's "no entry" is an answer."""
        return self._misses

    def _refuse(self, key: tuple[str, ...]) -> None:
        """Raise the error for a key the backend may not be asked.

        Only a failing check calls it, so the messages live in one place
        and the memo's hot paths test validity without building them.
        """
        if len(key) != self.arity:
            raise ValueError(
                f"{self.name}: expected {self.arity} arguments, got {len(key)}"
            )
        for letters in key:
            extraneous = set(letters) - self.alphabet.letter_set
            if extraneous:
                raise OracleError(
                    f"{self.name}: letters {sorted(extraneous)} outside "
                    f"alphabet {self.alphabet} (no extension support)"
                )

    def evaluate_letters(self, key: tuple[str, ...]) -> str:
        """The result letters for the argument letters ``key``, memoised."""
        out = self._cache.get(key)
        if out is not None:
            return out  # a memoised key already passed the checks below
        if len(key) != self.arity or not (
            self.supports_extension or self.alphabet.letter_set.issuperset("".join(key))
        ):
            self._refuse(key)
        out = self._cache[key] = self._compute(key)
        self._misses += 1  # only a key the backend answered counts
        return out

    def first_mismatch(
        self, keys: Iterable[tuple[str, ...]], predict: Callable[[tuple[str, ...]], str]
    ) -> tuple[tuple[str, ...], str] | None:
        """The first key whose result differs from ``predict(key)``, with
        that result, or ``None`` when every key agrees.

        The whole-sweep entry to the memo: each key is answered exactly as
        :meth:`evaluate_letters` answers it, in order, but inline, with
        ``_compute`` looked up once per sweep the way that method looks it
        up (so a patch on the class sees every backend call).  It stops at
        the first mismatch and takes ``keys`` lazily.
        """
        cache = self._cache
        get, compute, arity = cache.get, self._compute, self.arity
        extension, letter_set = self.supports_extension, self.alphabet.letter_set
        for key in keys:
            out = get(key)
            if out is None:
                if len(key) != arity or not (
                    extension or letter_set.issuperset("".join(key))
                ):
                    self._refuse(key)
                out = cache[key] = compute(key)
                self._misses += 1
            if out != predict(key):
                return key, out
        return None

    def evaluate(self, args: Sequence[Word]) -> Word:
        letters = self.evaluate_letters(tuple(a.letters for a in args))
        return Word(self.alphabet.extended(letters), letters)

    def __call__(self, *args: Word | str) -> Word:
        coerced = tuple(
            a if isinstance(a, Word) else Word(self.alphabet.extended(a), a)
            for a in args
        )
        return self.evaluate(coerced)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}/{self.arity} over {self.alphabet}>"


class TemplateFunction(WordFunction):
    """A template used as an oracle; the honest case extraction must recover.

    Each miss is one call of the template's f-string closure on the key
    (:meth:`Template.eval_letters` without the method call), bound once per
    template.
    """

    def __init__(self, template: Template, name: str = "") -> None:
        super().__init__(
            name or f"template[{template.body_text()}]",
            template.alphabet,
            template.arity,
            supports_extension=True,
        )
        self.template = template
        self._apply = template._apply

    def _compute(self, key: tuple[str, ...]) -> str:
        return self._apply(key)


class BuiltinFunction(WordFunction):
    """A named Python callable on raw letter strings."""

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        fn: Callable[[tuple[str, ...]], str],
        arity: int = 1,
        supports_extension: bool = False,
    ) -> None:
        super().__init__(name, alphabet, arity, supports_extension)
        self._fn = fn

    def _compute(self, key: tuple[str, ...]) -> str:
        return self._fn(key)


class TableFunction(WordFunction):
    """A finite lookup table; asking outside the table is an error."""

    def __init__(
        self,
        alphabet: Alphabet,
        arity: int,
        mapping: Mapping[tuple[str, ...], str],
        name: str = "table",
    ) -> None:
        super().__init__(name, alphabet, arity, supports_extension=False)
        self._table = dict(mapping)

    def _compute(self, key: tuple[str, ...]) -> str:
        try:
            return self._table[key]
        except KeyError:
            self._misses += 1  # "no entry" is the table's answer, so it counts
            raise TableMissError(
                f"{self.name}: no entry for ({', '.join(repr(k) for k in key)})"
            ) from None


# --------------------------------------------------------------------------
# Builtin catalog


DEFAULT_ALPHABET = Alphabet.of("abc")

# The builtin catalog, each builtin once: name -> (its value on the argument
# letters over the alphabet, letters the alphabet must hold, whether it
# accepts letters outside the alphabet).
_BUILTINS: dict[str, tuple[Callable[[str, Alphabet], str], str, bool]] = {
    "reverse": (lambda x, _: x[::-1], "", True),
    "sort_letters": (lambda x, ab: "".join(sorted(x, key=ab.letters.index)), "", False),
    "square": (lambda x, _: x + x, "", True),
    "collapse_b_to_a": (lambda x, _: x.replace("b", "a"), "ab", True),
    "erase_a": (lambda x, _: x.replace("a", ""), "a", True),
    "first_letter_or_empty": (lambda x, _: x[:1], "", True),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, alphabet: Alphabet | None = None) -> WordFunction:
    """Look up one builtin by name over the given alphabet (default ``abc``)."""
    alphabet = alphabet or DEFAULT_ALPHABET
    try:
        fn, needed, extension = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}") from None
    missing = [ch for ch in needed if ch not in alphabet]
    if missing:
        raise ValueError(f"builtin {name!r} needs letters {missing} in the alphabet")
    return BuiltinFunction(
        name, alphabet, lambda key: fn(key[0], alphabet), supports_extension=extension
    )


# --------------------------------------------------------------------------
# Table file format: one line per entry, k+1 TAB-separated fields
# (k arguments, then the result); an empty field is the empty word.


def parse_table(
    text: str, alphabet: Alphabet | None = None, name: str = "table"
) -> TableFunction:
    """Parse a table file; arity is inferred from the field count.

    Without an explicit alphabet, the letters appearing anywhere in the file
    (sorted by code point) become the alphabet.
    """
    entries: dict[tuple[str, ...], str] = {}
    arity: int | None = None
    for lineno, ln in enumerate(text.splitlines(), start=1):
        if not ln:
            continue
        fields = ln.split("\t")
        if arity is None:
            arity = len(fields) - 1
            if arity < 0:
                raise FormatError(f"line {lineno}: empty entry")
        elif len(fields) != arity + 1:
            raise FormatError(
                f"line {lineno}: expected {arity + 1} fields, got {len(fields)}"
            )
        if alphabet is None:
            bad = sorted({ch for field in fields for ch in field if not _valid_letter(ch)})
            if bad:
                raise FormatError(f"line {lineno}: invalid letters {bad!r}")
        key = tuple(fields[:-1])
        if key in entries:
            raise FormatError(f"line {lineno}: duplicate entry for {key}")
        entries[key] = fields[-1]
    if arity is None:
        raise FormatError("table file is empty")
    seen = sorted({
        ch
        for key, result in entries.items()
        for part in (*key, result)
        for ch in part
    })
    if alphabet is None:
        if not seen:
            raise FormatError("cannot infer an alphabet from an all-empty table")
        alphabet = Alphabet.of("".join(seen))
    else:
        bad = [ch for ch in seen if ch not in alphabet]
        if bad:
            raise FormatError(f"table uses letters {bad} outside alphabet {alphabet}")
    return TableFunction(alphabet, arity, entries, name=name)


# --------------------------------------------------------------------------
# External oracle protocol.
#
# The tool speaks first:   HELLO <arity> <alphabet>\n
# The oracle answers:      OK\n            (or `OK EXT\n` to accept letters
#                                           outside the declared alphabet)
# Each query is one line of exactly <arity> TAB-separated fields (an empty
# field is the empty word); the reply is a single line holding the result.
# `BYE\n` ends the session.  Lines are UTF-8; a reply may end in `\r\n`.


class ExternalFunction(WordFunction):
    """Client side of the line protocol, wrapping a child process.

    Replies are validated: a reply containing a TAB, letters never declared
    or sent, bytes that are not UTF-8, or an early EOF raises
    :class:`OracleProtocolError`.  Use as a context manager (or call
    :meth:`close`) to end the session politely.

    The pipes are binary: a query is one encoded write and flush, a reply
    one ``readline``.  A key holding an invalid letter (say a TAB or a
    newline, which an ``OK EXT`` oracle would otherwise be sent) raises
    :class:`OracleProtocolError` before anything is written: the protocol
    cannot carry it.  ``_known_letters`` holds the alphabet's letters and
    those sent, all valid, so a reply made of them alone needs no further
    check.
    """

    def __init__(
        self,
        command: Sequence[str] | str,
        arity: int,
        alphabet: Alphabet,
    ) -> None:
        import shlex  # only exec: oracles pay for these imports
        import subprocess

        argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not argv:
            raise ValueError("empty oracle command")
        self._lock = threading.Lock()
        self._known_letters = set(alphabet.letters)
        # close() may run from __del__ at interpreter shutdown, when an
        # import can fail, so it finds the exception class here
        self._timeout_expired = subprocess.TimeoutExpired
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise OracleProtocolError(f"cannot start oracle {argv[0]!r}: {exc}") from exc
        try:
            self._send(f"HELLO {arity} {alphabet}")
            greeting = self._recv()
            if greeting not in ("OK", "OK EXT"):
                raise OracleProtocolError(
                    f"bad handshake reply {greeting!r} (want 'OK' or 'OK EXT')"
                )
        except OracleProtocolError:
            self.close()
            raise
        super().__init__(f"exec[{argv[0]}]", alphabet, arity, greeting == "OK EXT")

    def _send(self, line: str) -> None:
        stdin = self._proc.stdin
        if stdin.closed:  # by close(); a child that died shows as a broken pipe
            raise OracleProtocolError("oracle process is gone")
        try:
            stdin.write(line.encode() + b"\n")
            stdin.flush()
        except OSError as exc:
            raise OracleProtocolError(f"oracle pipe closed: {exc}") from exc

    def _recv(self) -> str:
        line = self._proc.stdout.readline()
        if not line:
            raise OracleProtocolError("oracle closed its output mid-session")
        try:
            return line.removesuffix(b"\n").removesuffix(b"\r").decode()
        except UnicodeDecodeError:
            raise OracleProtocolError(f"reply is not UTF-8: {line!r}") from None

    def _compute(self, key: tuple[str, ...]) -> str:
        known = self._known_letters
        with self._lock:
            for letters in key:
                if not known.issuperset(letters):
                    # a TAB or newline in a field would break the framing,
                    # so no letter of an invalid key is sent or learnt
                    bad = sorted({ch for field in key for ch in field if not _valid_letter(ch)})
                    if bad:
                        raise OracleProtocolError(
                            f"{self.name}: query holds invalid characters {bad!r}, "
                            "which the line protocol cannot carry"
                        )
                    known.update(letters)
            self._send("\t".join(key))
            reply = self._recv()
        if not known.issuperset(reply):
            self._refuse_reply(reply)
        return reply

    def _refuse_reply(self, reply: str) -> None:
        """Raise the error for a reply holding a letter outside ``_known_letters``."""
        if "\t" in reply:
            raise OracleProtocolError(
                f"reply holds {reply.count(chr(9)) + 1} fields, expected one word"
            )
        bad = sorted({ch for ch in reply if not _valid_letter(ch)})
        if bad:
            raise OracleProtocolError(f"reply contains invalid characters {bad!r}")
        raise OracleProtocolError(
            f"reply uses letters {sorted(set(reply) - self._known_letters)} that were "
            "never declared or sent"
        )

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        if proc.poll() is None:
            try:
                if proc.stdin is not None:
                    proc.stdin.write(b"BYE\n")
                    proc.stdin.flush()
                    proc.stdin.close()
                proc.wait(timeout=5)
            except (OSError, ValueError, self._timeout_expired):
                proc.kill()
                proc.wait()
        # the child is reaped: release both pipes, whichever way it ended
        for pipe in (proc.stdin, proc.stdout):
            try:
                if pipe is not None:
                    pipe.close()
            except OSError:  # unflushed bytes for a child that is gone
                pass

    def __enter__(self) -> "ExternalFunction":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass
