"""Reference external oracle: the identity function, over any alphabet.

Run as a subprocess by the ``exec:`` oracle scheme, this module is the
minimal working example of the line protocol:

    tool:    HELLO <arity> <alphabet>
    oracle:  OK            (or `OK EXT` when started with --ext)
    tool:    one line, <arity> TAB-separated fields (empty field = empty word)
    oracle:  one line, the result
    ...
    tool:    BYE

For arity 1 the reply is the argument itself; for higher arities, the fields
concatenated ("give me back what I sent"); at arity 0, whose queries are
empty lines, the empty word.  Usage::

    python -m cpmonoid.identity_oracle [--ext]
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    ext = "--ext" in sys.argv[1:]
    hello = sys.stdin.readline()
    if not hello:
        return 1
    parts = hello.split()
    if len(parts) != 3 or parts[0] != "HELLO" or not parts[1].isdigit():
        sys.stdout.write("ERROR bad hello\n")
        sys.stdout.flush()
        return 1
    arity = int(parts[1])
    sys.stdout.write("OK EXT\n" if ext else "OK\n")
    sys.stdout.flush()
    while True:
        line = sys.stdin.readline()
        query = line.rstrip("\n")
        if line == "" or query == "BYE":
            return 0
        fields = query.split("\t") if arity or query else []
        if len(fields) != arity:
            return 1
        sys.stdout.write("".join(fields) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    # every reply is flushed as it is written; skipping interpreter teardown
    # lets the client's close() reap the process sooner
    status = main()
    sys.stdout.flush()
    os._exit(status)
