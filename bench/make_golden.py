#!/usr/bin/env python3
"""Regenerate the golden outputs the explore and cli workloads compare to.

    python3 bench/make_golden.py

Run it only on purpose, at a commit whose output is the reference: every
benchmark run byte-compares against these files, and a refactor counts only
if they stay identical.  Writes golden/explore.json (counts and the SHA-256
of each configuration's render), golden/explore/*.txt (renders small enough
to diff by eye) and golden/cli/*.out and *.code.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TEXT_LIMIT = 64 * 1024


def main() -> int:
    corpus = run.import_program()
    os.makedirs(os.path.join(corpus.GOLDEN_DIR, "explore"), exist_ok=True)
    os.makedirs(corpus.CLI_GOLDEN_DIR, exist_ok=True)
    summaries = {}
    for spec in corpus.EXPLORE_GRID:
        name = corpus.explore_name(*spec)
        report = corpus.explore(corpus.explore_config(*spec))
        summaries[name] = corpus.explore_summary(report)
        if summaries[name]["render_bytes"] <= TEXT_LIMIT:
            with open(os.path.join(corpus.GOLDEN_DIR, "explore", name + ".txt"), "w", encoding="utf-8") as h:
                h.write(report.render())
    with open(corpus.EXPLORE_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(summaries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, argv in corpus.cli_script():
        out, code, _ = corpus.run_cli(argv)
        with open(os.path.join(corpus.CLI_GOLDEN_DIR, name + ".out"), "wb") as handle:
            handle.write(out)
        with open(os.path.join(corpus.CLI_GOLDEN_DIR, name + ".code"), "w", encoding="ascii") as handle:
            handle.write(f"{code}\n")
    print(f"wrote {len(summaries)} explore and {len(corpus.cli_script())} cli golden outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
