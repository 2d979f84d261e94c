"""metafib benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

* ``verify-full``    one cold ``verify.run_all("full")``; each of the 27
                     identities is one op.
* ``point-queries``  seeded random-order single-value library calls.
* ``cli-dumps``      in-process ``cli.main`` ascending range dumps.
* ``huge-n``         fresh ``python -m metafib`` processes at N in
                     [10**9, 10**18], each with a deadline and memory cap.

Set-up is timed in SETUP_SAMPLES fresh interpreters and reported as their
median.  Every pass then runs in a fresh worker interpreter (the CLI user
pays cold memo tables on every invocation), one closed-loop client issuing
one op at a time.  With ``--trace 0`` a run makes PASSES[workload] untraced
passes and its last stdout line carries the end-to-end metrics, each the
mean over the passes; with ``--trace 1`` one untraced and one traced pass run back
to back and it carries the per-layer metrics.  The line before the last,
and ``perfbench/out/<workload>-seed<N>-trace<T>.json``, hold the full
record: run metadata, every metric, outcome counts and per-kind latencies.

``--seconds`` sizes the point-queries op list (PQ_OPS_PER_SECOND ops per
second) and the huge-n op count; verify-full and cli-dumps do a fixed
amount of work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)
import ops as bench_ops  # noqa: E402
from tracing import LAYERS  # noqa: E402

SETUP_SAMPLES = 11
# Untraced passes per run; end-to-end metrics are their means.  One cold
# verify-full pass measures about 20 s of work; point-queries, whose tail
# latency spreads most from pass to pass, gets three.
PASSES = {"verify-full": 1, "point-queries": 3, "cli-dumps": 2, "huge-n": 1}
RUN_BUDGET_S = 170.0  # the whole command must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))
FUNCTIONS = (
    "sequences.SequenceTable.extend_to", "sequences.as_via_a0",
    "sequences.as_descent", "sequences.a0_fast",
    "codes.M", "codes.greedy_tree", "codes.greedy_tree_unbounded",
    "codes.shrink", "codes.enumerate_codes",
    "compositions.counts_up_to",
    "series.TruncatedSeries.__mul__", "series.gf_As",
    "trees.locate", "trees.leaf_count_scan",
    "words.dword_prefix",
)
VERIFY_CHECKS = (
    "check_steps", "check_evaluators", "check_tree_flags", "check_tree_counts",
    "check_first_hits", "check_p_differences", "check_ones_count",
    "check_doubling", "check_word_stream", "check_ruler_factorization",
    "check_morphism", "check_word_pair", "check_ruler_gf", "check_d_gf",
    "check_a_gf", "check_p_gf", "check_composition_counts",
    "check_composition_enum", "check_codes_optimum", "check_dominance",
    "check_bridge_amax", "check_bridge_bseq", "check_height_stability",
    "check_kraft", "check_shrink", "check_counts_roundtrip",
    "check_partition_ones",
)


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    for fn in FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    names += [(f"verify.{check}.total_s", "s") for check in VERIFY_CHECKS]
    for kind in bench_ops.PQ_KINDS:
        names += [(f"op.{kind}.p50_ms", "ms"), (f"op.{kind}.p99_ms", "ms")]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class BenchError(Exception):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last stdout line."""
    # a fixed hash seed keeps set and dict layouts, and so timings, the same
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time budget") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker {args} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(deadline: float) -> list:
    worker(["--setup-only"], deadline)  # untimed: leaves compiled bytecode behind
    return [worker(["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if (done.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "metafib")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def speed_wall(res: dict) -> float:
    """A pass's wall time without its probes, at the reference host speed."""
    return (res["wall_s"] - res["probe"]["total_s"]) / res["probe"]["slowdown"]


def end_to_end(setup_samples: list, passes: list) -> dict:
    """Each metric as the mean over the untraced passes, and the median
    set-up time.  Times are at the reference host speed (see
    worker.SpeedProbe); the raw ones stay in the record."""
    per_pass = [{
        "wall_s": speed_wall(res),
        "ops_per_s": (res["attempted"] - res["failed"]) / speed_wall(res),
        "latency_p50_ms": res["latency"]["all"]["p50_ms"],
        "latency_p99_ms": res["latency"]["all"]["p99_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    } for res in passes]
    values = {name: statistics.fmean(p[name] for p in per_pass) for name in per_pass[0]}
    values["setup_s"] = statistics.median(s["setup_s"] / s["slowdown"] for s in setup_samples)
    return values


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics; times are at the reference host speed."""
    trace, slow = traced["trace"], traced["probe"]["slowdown"]
    values = {}
    for layer, entry in trace["layers"].items():
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_s"] = entry["self_s"] / slow
    for name, entry in trace["names"].items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"] / slow
        if name.startswith("verify.check_"):
            values[f"{name}.total_s"] = entry["total_s"] / slow
    for kind, entry in untraced["latency"].items():
        if kind != "all":
            values[f"op.{kind}.p50_ms"] = entry["p50_ms"]
            values[f"op.{kind}.p99_ms"] = entry["p99_ms"]
    values["trace.overhead_ratio"] = speed_wall(traced) / speed_wall(untraced)
    return values


def pass_summary(res: dict) -> dict:
    keep = ("wall_s", "attempted", "failed", "outcomes", "first_failures",
            "latency", "raw_latency", "peak_rss_mb", "setup_s", "probe")
    summary = {key: res[key] for key in keep}
    summary["failed_ratio"] = res["failed"] / res["attempted"]
    if res["trace"] is not None:
        summary["spans"] = res["trace"]["spans"]
    return summary


def is_correct(res: dict) -> bool:
    """No op raised, exited non-zero or answered wrong; overruns only count
    as failures."""
    return all(res["outcomes"].get(o, 0) == 0
               for o in (bench_ops.ERROR, bench_ops.EXIT, bench_ops.WRONG))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "metafib", "__init__.py")):
        print(f"error: no metafib sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setup = measure_setup(deadline)
        count = 1 if args.trace else PASSES[args.workload]
        untraced = [worker(common + ["--trace", "0"], deadline) for _ in range(count)]
        passes = list(untraced)
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
            traced = worker(common + ["--trace", "1", "--spans-out", spans], deadline)
            passes.append(traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = end_to_end(setup, untraced)
    record = {
        "run": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "source_digest": source_digest(),
            "op_count": untraced[0]["op_count"], "op_digest": untraced[0]["op_digest"],
            "setup_samples": setup,
        },
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END},
        "passes": [pass_summary(res) for res in passes],
    }
    if args.trace:
        values = per_layer(untraced[0], traced)
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in per_layer_names()}
        # latencies of op kinds outside the list (identities, cli, huge-n)
        # go to the record only
        record["per_layer"] = dict(metrics, **{
            name: {"value": value, "unit": "ms"} for name, value in sorted(values.items())
            if name.startswith("op.") and name not in metrics})
        record["trace_names"] = traced["trace"]["names"]
    else:
        metrics = record["end_to_end"]
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": all(is_correct(res) for res in passes),
        "attempted": sum(res["attempted"] for res in passes),
        "failed": sum(res["failed"] for res in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
