#!/usr/bin/env python3
"""cpmonoid benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload recover --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Workloads (see bench/README.md for why each was chosen): ``recover``,
``refute``, ``explore`` and ``cli``.  The run imports the package from
``src/`` next to this directory, checks the exact-count self-check in a
child process, measures set-up in fresh child processes, then runs whole
passes over the seeded corpus, one item after another in this process
(closed loop, one client), until ``--seconds`` have been measured and at
least two passes are done.

With ``--trace 0`` the end-to-end metrics are measured with tracing off,
and every item is also run, right next to it, by the frozen copy of the
program in ``baseline/`` (see :class:`Baseline`); the gated timings are
ratios to it, which a shared machine's changing speed does not move.
With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics and the gap between the two is the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
report (quartiles, workload mix, machine) goes to the line before it and
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
BASELINE_DIR = os.path.join(BENCH_DIR, "baseline")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("recover", "refute", "explore", "cli")
DEFAULT_SEED = 1

# Corpus sizes.  A refute pass holds at least 100 items so that its p90 has
# ten samples beyond it, three quarters of them perturbed; binary functions
# are fewer because one binary refutation costs as much as dozens of unary
# ones.  Smoke sizes still keep every layer of each workload busy.
SIZES = {
    "full": {"recover_per_stratum": 10, "refute": {1: (7, 21), 2: (1, 3)}, "setup_probes": 7, "min_passes": 2},
    "smoke": {"recover_per_stratum": 1, "refute": {1: (1, 1), 2: (1, 1)}, "setup_probes": 2, "min_passes": 1},
}
P90_MIN_ITEMS = 100
# Back-to-back reruns of an item within a pass (see time_item()).
REPEAT_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "throughput_vs_baseline": "ratio",
    "p50_vs_baseline": "ratio",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "oracle_queries": "count",
    "decided_ratio": "ratio",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics on the result line, the ones every workload has;
# the rest apply to some workloads only and appear in the full report.
RESULT_METRICS = ("setup_s", "throughput_vs_baseline", "p50_vs_baseline", "peak_rss_mb")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(src_dir: str = SRC_DIR):
    """Import cpmonoid from ``src_dir`` (this checkout's src/ unless the
    baseline is wanted), and nowhere else."""
    if not os.path.isfile(os.path.join(SRC_DIR, "cpmonoid", "__init__.py")):
        fail(f"no cpmonoid package under {SRC_DIR}")
    sys.path.insert(0, src_dir)
    import cpmonoid

    if os.path.dirname(os.path.dirname(os.path.abspath(cpmonoid.__file__))) != src_dir:
        fail(f"imported cpmonoid from {cpmonoid.__file__}, not from {src_dir}")
    import corpus

    corpus.use_source_tree()
    return corpus


# --------------------------------------------------------------------------
# Workload construction


def build_items(corpus, workload: str, seed: int, size: str, child_rss: list[int], in_process: bool = False):
    cfg = SIZES[size]
    if workload == "recover":
        return corpus.recover_items(seed, cfg["recover_per_stratum"])
    if workload == "refute":
        return corpus.refute_items(seed, cfg["refute"])
    if workload == "explore":
        grid = corpus.EXPLORE_GRID
        if size == "smoke":
            grid = [spec for spec in grid if spec[1] == 2 and spec[2] + spec[3] <= 1]
        return corpus.explore_items(seed, grid)
    items = corpus.cli_items(seed, child_rss, in_process)
    return items if size == "full" else items[:3]


def warmup_item(corpus, workload: str, child_rss: list[int]):
    """A fixed, cheap item that loads every code path the workload uses."""
    if workload == "recover":
        hidden = corpus.Template.of(corpus.Alphabet.of("abc"), "ab", 1, "c", 1, "")
        return corpus.recover_item("warmup", hidden, "extract")
    if workload == "refute":
        return corpus.verdict_item("warmup", "builtin reverse", lambda: corpus.builtin("reverse", corpus.ABC), None)
    if workload == "explore":
        return corpus.explore_items(0, [("ab", 2, 1, 1, None)])[0]
    return corpus.cli_items(0, child_rss)[0]


def set_up(workload: str, seed: int, size: str, child_rss: list[int], in_process: bool = False, src_dir: str = SRC_DIR):
    corpus = import_program(src_dir)
    items = build_items(corpus, workload, seed, size, child_rss, in_process)
    warm = warmup_item(corpus, workload, child_rss)
    outcome = warm.score(warm.run())
    if outcome.status != corpus.DECIDED:
        fail(f"warm-up item {warm.label} scored {outcome.status}: {outcome.detail}")
    return corpus, items


# --------------------------------------------------------------------------
# Child processes: self-check, set-up probes, interpreter and import probes


def child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=170, **kwargs)


def run_selfcheck() -> float:
    start = time.perf_counter()
    done = child([os.path.join(BENCH_DIR, "run.py"), "--selfcheck"])
    if done.returncode != 0:
        fail("self-check failed:\n" + done.stdout + done.stderr)
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Seconds from spawning a fresh interpreter to its first timed item."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--probe-setup"]
    argv += ["--workload", workload, "--seed", str(seed), "--size", size]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate(timeout=170)
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"set-up probe failed: {line}{err}")
    return elapsed


def probe_interpreter(repeats: int = 5) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of ``import cpmonoid``
    timed inside a fresh interpreter."""
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import cpmonoid; print(time.perf_counter() - t)"
    for _ in range(repeats):
        start = time.perf_counter()
        child(["-c", "pass"])
        bare.append(time.perf_counter() - start)
        imports.append(float(child(["-c", code]).stdout))
    return statistics.median(bare), statistics.median(imports)


# --------------------------------------------------------------------------
# Passes


def time_item(item, repeat_s: float = 0.0) -> tuple[float, object]:
    """Run one item untraced: (fastest latency, raw result).  The item is
    rerun back to back until ``repeat_s`` is spent, so that cheap items get
    as many tries as a noisy machine needs; an exception ends the runs and
    its traceback is the raw result."""
    clock = time.perf_counter
    fastest, spent = math.inf, 0.0
    try:
        while not spent or spent < repeat_s:
            start = clock()
            raw = item.run()
            took = clock() - start
            fastest, spent = min(fastest, took), spent + took
    except Exception:
        return clock() - start, traceback.format_exc()
    return fastest, raw


def run_pass(items, tracer=None) -> tuple[list[float], list[tuple[int, object]]]:
    """Run every item in turn, traced if a tracer is given: (latencies,
    runs), where a run is (item index, raw result)."""
    latencies, runs = [], []
    if tracer is not None:
        tracer.install()
    for index, item in enumerate(items):
        if tracer is None:
            took, raw = time_item(item)
        else:
            with tracer.item_span(index, item.label):
                took, raw = time_item(item)
        latencies.append(took)
        runs.append((index, raw))
    if tracer is not None:
        tracer.uninstall()
    return latencies, runs


class Baseline:
    """The frozen copy of the program in ``baseline/``, taken from ``src/``
    when the benchmark was defined, serving the same items in a child
    process (``run.py --serve-baseline``).

    The child builds the items from the same seed, so item ``i`` is the same
    work on both sides; it times an item the way :func:`time_item` does and
    sends back the latency.  Only one of the two processes runs at a time.
    A shared machine changes speed by tens of percent for minutes at a time,
    and an item of the same work timed right next to each item of the
    program slows down with it, so the ratio of the two stays put.
    """

    def __init__(self, workload: str, seed: int, size: str):
        argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--serve-baseline"]
        argv += ["--workload", workload, "--seed", str(seed), "--size", size]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply("ready")

    def _reply(self, want: str | None = None) -> str:
        line = self.proc.stdout.readline().strip()
        if not line or (want is not None and line != want):
            self.close()
            fail(f"baseline child answered {line!r}")
        return line

    def _ask(self, request: str) -> str:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def time_item(self, index: int) -> float:
        took, status = self._ask(str(index)).split()
        if status != "ok":
            self.close()
            fail(f"baseline item {index} raised")
        return float(took)

    def collect(self) -> None:
        self._ask("gc")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def serve_baseline(workload: str, seed: int, size: str) -> int:
    """The child side of :class:`Baseline`: one request per line, an item
    index (answered with its latency and ``ok`` or ``error``) or ``gc``."""
    corpus, items = set_up(workload, seed, size, [], src_dir=BASELINE_DIR)
    print("ready", flush=True)
    for line in sys.stdin:
        request = line.strip()
        if request == "gc":
            gc.collect()
            print("ok", flush=True)
            continue
        took, raw = time_item(items[int(request)], REPEAT_S)
        print(repr(took), "error" if isinstance(raw, str) else "ok", flush=True)
    return 0


def sample(items, baseline: Baseline, seconds: float, min_passes: int):
    """Time whole untraced passes over the items, each item followed or
    preceded (alternately) by the baseline's run of it: (latencies of each
    pass, the baseline's latencies of each pass, every run).

    At least ``min_passes`` passes run, and another starts while, taking as
    long as the last, it ends within ``seconds``.
    """
    clock = time.perf_counter
    passes, base_passes, runs = [], [], []
    start, pass_s = clock(), 0.0
    while len(passes) < min_passes or clock() - start + pass_s <= seconds:
        gc.collect()
        baseline.collect()
        pass_start = clock()
        latencies, base = [], []
        for index, item in enumerate(items):
            base_first = (index + len(passes)) % 2
            if base_first:
                base.append(baseline.time_item(index))
            took, raw = time_item(item, REPEAT_S)
            if not base_first:
                base.append(baseline.time_item(index))
            latencies.append(took)
            runs.append((index, raw))
        pass_s = clock() - pass_start
        passes.append(latencies)
        base_passes.append(base)
    return passes, base_passes, runs


def score_runs(corpus, items, runs: list[tuple[int, object]]) -> list[tuple[int, object]]:
    """Score every run: (item index, Outcome).  A run whose raw result
    equals the first run's of its item shares that run's outcome."""
    first: dict[int, tuple[object, object]] = {}
    scored = []
    for index, raw in runs:
        if index in first and first[index][0] == raw:
            outcome = first[index][1]
        elif isinstance(raw, str):
            outcome = corpus.Outcome(corpus.INVALID, 0, raw.strip().splitlines()[-1])
        else:
            try:
                outcome = items[index].score(raw)
            except Exception:
                outcome = corpus.Outcome(corpus.INVALID, 0, traceback.format_exc().strip().splitlines()[-1])
        first.setdefault(index, (raw, outcome))
        scored.append((index, outcome))
    return scored


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    n = len(latencies)
    m = {"items_per_s": n / sum(latencies), "item_p50_ms": 1e3 * statistics.median(latencies)}
    if n >= P90_MIN_ITEMS:
        m["item_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[8]
    return m


def baseline_metrics(latencies: list[float], base: list[float]) -> dict[str, float]:
    """The program's throughput and median latency as ratios to the
    baseline's over the same pass."""
    return {
        "throughput_vs_baseline": sum(base) / sum(latencies),
        "p50_vs_baseline": statistics.median(latencies) / statistics.median(base),
    }


def outcome_metrics(corpus, outcomes) -> dict[str, float]:
    n = len(outcomes)
    statuses = [o.status for o in outcomes]
    return {
        "oracle_queries": sum(o.queries for o in outcomes),
        "decided_ratio": statuses.count(corpus.DECIDED) / n,
        "failed_ratio": (statuses.count(corpus.WRONG) + statuses.count(corpus.INVALID)) / n,
    }


def summarize(value: float, per_pass: list[float]) -> dict:
    """A metric's value with the median and quartiles of its per-pass values."""
    if len(per_pass) == 1:
        return {"value": value, "median": per_pass[0], "q1": per_pass[0], "q3": per_pass[0], "samples": 1}
    q1, median, q3 = statistics.quantiles(per_pass, n=4, method="inclusive")
    return {"value": value, "median": median, "q1": q1, "q3": q3, "samples": len(per_pass)}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


# --------------------------------------------------------------------------
# Runs


def measure(workload: str, seed: int, seconds: int, size: str) -> tuple[dict, dict]:
    """End-to-end run with tracing off: (result-line metrics, full report).

    Each timing is the median of its per-pass values (see :func:`sample`);
    the quartiles across passes are reported too.  The absolute timings
    (``items_per_s``, ``item_p50_ms``, ``item_p90_ms``) move with the
    machine's speed; the ``*_vs_baseline`` ratios do not.
    """
    child_rss: list[int] = []
    setup = [probe_setup(workload, seed, size) for _ in range(SIZES[size]["setup_probes"])]
    corpus, items = set_up(workload, seed, size, child_rss)
    # The program and the baseline child share one CPU, so that each pair of
    # runs sees the same core.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    baseline = Baseline(workload, seed, size)
    try:
        start = time.perf_counter()
        passes, base_passes, runs = sample(items, baseline, seconds, SIZES[size]["min_passes"])
        measured_s = time.perf_counter() - start
    finally:
        baseline.close()
        os.sched_setaffinity(0, cpus)
    per_pass = [{**baseline_metrics(p, b), **latency_metrics(p)} for p, b in zip(passes, base_passes)]
    metrics = {"setup_s": summarize(statistics.median(setup), setup)}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = summarize(statistics.median(values), values)
    scored = score_runs(corpus, items, runs)
    for name, value in outcome_metrics(corpus, first_outcomes(items, scored)).items():
        metrics[name] = summarize(value, [value])
    if workload not in ("recover", "refute"):
        del metrics["oracle_queries"]
    if workload != "refute":
        del metrics["decided_ratio"]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        rss_kib = max([rss_kib, *child_rss])
    metrics["peak_rss_mb"] = summarize(rss_kib / 1024, [rss_kib / 1024])
    report = {
        "mix": corpus.mix(items),
        "items_per_pass": len(items),
        "passes": len(passes),
        "measured_s": measured_s,
        "metrics": metrics,
    }
    return {name: metrics[name]["value"] for name in RESULT_METRICS}, _scored(corpus, items, scored, report)


def first_outcomes(items, scored) -> list:
    first = {}
    for index, outcome in scored:
        first.setdefault(index, outcome)
    return [first[index] for index in range(len(items))]


def _scored(corpus, items, scored, report: dict) -> dict:
    outcomes = [o for _, o in scored]
    first = first_outcomes(items, scored)
    report["attempted"] = len(outcomes)
    report["failed"] = sum(o.status in (corpus.WRONG, corpus.INVALID) for o in outcomes)
    report["invalid"] = sum(o.status == corpus.INVALID for o in outcomes)
    report["not_decided"] = [
        {"item": item.label, "status": o.status, "verdict": o.verdict, "detail": o.detail}
        for item, o in zip(items, first)
        if o.status != corpus.DECIDED
    ]
    # Verdicts and query counts must repeat exactly from run to run.
    report["runs_agree"] = all(
        (o.status, o.queries) == (first[index].status, first[index].queries) for index, o in scored
    )
    return report


def traced(workload: str, seed: int, seconds: int, size: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes: (per-layer metrics, full report).

    Pairs of passes are run while the next pair, if it takes as long as
    the last one, ends within ``seconds``; the first pair always runs."""
    import layers

    interp_s, import_s = probe_interpreter()
    corpus, items = set_up(workload, seed, size, [], in_process=True)
    plain, traced_passes, layer_runs, runs = [], [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while not plain or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        latencies, pass_runs = run_pass(items)
        plain.append(latencies)
        runs += pass_runs
        tracer = layers.Tracer(extra_modules=(corpus,))
        latencies, pass_runs = run_pass(items, tracer)
        traced_passes.append(latencies)
        runs += pass_runs
        layer_runs.append(tracer.metrics())
        pair_s = time.perf_counter() - pair_start
    untraced_s = statistics.median(sum(p) for p in plain)
    traced_s = statistics.median(sum(p) for p in traced_passes)
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["cli.interp_s"] = interp_s
    metrics["cli.import_s"] = import_s
    metrics["cli.command_s"] = (
        statistics.median(statistics.median(p) for p in plain) if workload == "cli" else 0.0
    )
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    report = {
        "mix": corpus.mix(items),
        "items_per_pass": len(items),
        "measured_s": time.perf_counter() - start,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
    }
    return metrics, _scored(corpus, items, score_runs(corpus, items, runs), report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--smoke", action="store_true", help="every workload at reduced size, checked")
    parser.add_argument("--selfcheck", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve-baseline", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        import_program()
        import smoke

        return smoke.main(os.path.join(BENCH_DIR, "run.py"), build_items)
    if args.selfcheck:
        import_program()
        import selfcheck

        bad = selfcheck.mismatches()
        print("\n".join(bad) or "self-check ok")
        return 1 if bad else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        set_up(args.workload, args.seed, args.size, [])
        print("ready", flush=True)
        return 0
    if args.serve_baseline:
        return serve_baseline(args.workload, args.seed, args.size)

    import_program()
    import layers

    load_before = os.getloadavg()
    selfcheck_s = run_selfcheck()
    run = traced if args.trace else measure
    metrics, report = run(args.workload, args.seed, args.seconds, args.size)
    correct = report["invalid"] == 0 and report["runs_agree"]
    report.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "size": args.size,
            "selfcheck_s": selfcheck_s,
            "machine": {**machine(), "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
            "correct": correct,
        }
    )
    unit = END_TO_END.get if not args.trace else layers.unit
    for name, stats in report["metrics"].items():
        spread = ""
        if "q1" in stats:
            spread = f"  [passes: median {stats['median']:.6g}, q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['samples']}]"
        print(f"{args.workload:8} {name:34} {stats['value']:.6g} {unit(name)}{spread}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
