"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --workloads verify-full,point-queries \
        --seeds 1-10 --seconds 20 [--trace-seed 1] [--out perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed, then reports each
end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread (interquartile distance over the median).  With ``--trace-seed`` it
adds one traced run per workload for the per-layer metrics.  Every run's
record (without per-kind latency tables, which only the traced run keeps)
goes into the output, so two output files can be compared without
rerunning anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list:
    """Seeds from an inclusive range such as ``1-10``."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def compact(record: dict) -> dict:
    """A run record without the per-kind latency tables."""
    keep = ("wall_s", "attempted", "failed", "failed_ratio", "outcomes",
            "first_failures", "peak_rss_mb", "probe")
    return {"run": record["run"],
            "end_to_end": {k: v["value"] for k, v in record["end_to_end"].items()},
            "passes": [{k: p[k] for k in keep} for p in record["passes"]]}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        records, results = [], []
        for seed in parse_seeds(args.seeds):
            record, result = run_once(workload, seed, args.seconds, 0)
            records.append(compact(record))
            results.append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        names = list(results[0]["metrics"])
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_ratio": [r["failed"] / r["attempted"] for r in results],
            "end_to_end": {name: spread([r["metrics"][name]["value"] for r in results])
                           for name in names},
            "runs": records,
        }
        for name, s in entry["end_to_end"].items():
            print(f"  {name:16s} median {s['median']:.6g} spread {s['spread']}")
        if args.trace_seed is not None:
            record, result = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["trace_run"] = record
            print(f"  traced: overhead "
                  f"{result['metrics']['trace.overhead_ratio']['value']:.3f}", flush=True)
        report[workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
