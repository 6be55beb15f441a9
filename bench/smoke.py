"""Fast check of the whole benchmark: ``python3 bench/run.py --smoke``.

Runs every workload at reduced size, untraced and traced, one child run
each, and fails unless every run is correct and reports every metric named
in BENCHMARK.json.  It also checks that two seeds give the same workload mix
and that the human-readable explore renders match the golden digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import corpus

BENCHMARK_JSON = os.path.join(os.path.dirname(corpus.BENCH_DIR), "BENCHMARK.json")


def main(run_py: str, build_items) -> int:
    start = time.perf_counter()
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        mixes = [corpus.mix(build_items(corpus, workload, seed, "full", [])) for seed in (1, 2)]
        if mixes[0] != mixes[1]:
            problems.append(f"{workload}: seeds 1 and 2 give different mixes")
        for trace in (0, 1):
            argv = [sys.executable, run_py, "--workload", workload, "--seed", "1"]
            argv += ["--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            missing = wanted[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - wanted[trace]
            status = "ok" if result["correct"] and not missing and not extra else "FAIL"
            print(f"smoke {workload:8} trace {trace}: {status}, {result['attempted']} items, {result['failed']} failed")
            if status != "ok":
                problems.append(f"{workload} trace {trace}: correct={result['correct']} missing={sorted(missing)} extra={sorted(extra)}")
    with open(corpus.EXPLORE_GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    text_dir = os.path.join(corpus.GOLDEN_DIR, "explore")
    for name in sorted(os.listdir(text_dir)):
        with open(os.path.join(text_dir, name), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if digest != golden[name[: -len(".txt")]]["render_sha256"]:
            problems.append(f"golden/explore/{name} does not match golden/explore.json")
    print(f"smoke: {len(problems)} problems in {time.perf_counter() - start:.1f}s")
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0
