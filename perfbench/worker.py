"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Times the import of ``metafib`` and ``metafib.cli`` plus ``build_parser()``,
then (unless ``--setup-only``) runs the workload's op stream closed-loop,
checks every op by a second route after the stream, and prints one JSON
object as its last line of stdout.  ``run.py`` starts it; it needs
``PYTHONPATH`` to point at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

import ops as bench_ops
from tracing import Tracer


PROBE_LOOP = 5000            # one probe: about 0.4 ms of pure interpreter work
PROBE_INTERVAL_S = 0.02
REFERENCE_PROBE_S = 400e-6  # a probe's duration at the reference host speed
SETUP_PROBES = 30


def probe() -> float:
    """Time one fixed loop of interpreter work."""
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i
    return perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed while a pass runs.

    Co-tenants slow a shared host by a third or more for seconds to minutes
    at a time, and process CPU time slows with wall time.  A timer runs
    ``probe`` every PROBE_INTERVAL_S between the pass's own bytecodes.  The
    pass's ``slowdown`` is the median probe time over REFERENCE_PROBE_S;
    run.py divides the pass's wall time by it, and each op's latency is
    divided by the slowdown measured around that op.
    """

    def __init__(self):
        self.starts: list = []
        self.samples: list = []

    def _tick(self, signum, frame):
        self.starts.append(perf_counter())
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at_reference_speed(self, start: float, latency: float) -> float:
        """An op's latency without the probes inside it, divided by the
        slowdown of those probes and of the two on either side."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, start + latency)
        near = self.samples[max(0, i - 2):j + 2]
        if not near:  # an unprobed pass
            return latency
        busy = latency - sum(self.samples[i:j])
        return busy * REFERENCE_PROBE_S / statistics.median(near)

    def summary(self) -> dict:
        median = statistics.median(self.samples) if self.samples else REFERENCE_PROBE_S
        return {"samples": len(self.samples), "total_s": sum(self.samples),
                "slowdown": median / REFERENCE_PROBE_S}


def nearest_rank(count: int, percent: int) -> int:
    """1-based rank of the nearest-rank percentile among ``count`` values."""
    return max(1, -(-count * percent // 100))


def latency_summary(ops: list, latencies: list) -> dict:
    """Median and nearest-rank p99 latency in ms, overall and per op kind."""
    by_kind: dict = {}
    for op, latency in zip(ops, latencies):
        by_kind.setdefault(bench_ops.op_kind(op), []).append(latency)
    summary = {}
    for kind, lat in [("all", list(latencies))] + sorted(by_kind.items()):
        lat.sort()
        rank = nearest_rank(len(lat), 99)
        summary[kind] = {"count": len(lat), "p50_ms": 1e3 * statistics.median(lat),
                         "p99_ms": 1e3 * lat[rank - 1], "beyond_p99": len(lat) - rank}
    return summary


class _LineClock:
    """Stream that timestamps each line ``verify.run_all`` writes and moves
    the tracer on to the next identity."""

    def __init__(self, tracer: Tracer):
        self.lines: list = []
        self.tracer = tracer

    def write(self, text: str) -> None:
        stamp = perf_counter()
        for line in text.splitlines():
            self.lines.append((stamp, line))
        self.tracer.current_op = len(self.lines)


def run_verify(op_list: list, tracer: Tracer) -> list:
    """One cold ``run_all("full")``; each identity's latency runs from the
    previous PASS/FAIL line to its own."""
    from metafib import verify

    tracer.current_op = 0
    clock = _LineClock(tracer)
    t0 = perf_counter()
    try:
        verify.run_all("full", stream=clock)
        crash = None
    except Exception as exc:  # the remaining identities count as errors
        crash = repr(exc)
    records, last = [], t0
    for op, (stamp, line) in zip(op_list, clock.lines):
        records.append([stamp - last, bench_ops.OK, line, last])
        last = stamp
    for op in op_list[len(records):]:
        records.append([0.0, bench_ops.ERROR, crash or "no result line", last])
    return records


def verify_check(op, line) -> bool:
    return line.startswith("PASS  ")


def cli_check_factory():
    pinned = bench_ops.load_cli_digests()

    def check(op, digest) -> bool:
        return pinned.get(bench_ops.cli_key(op[1])) == digest

    return check


def huge_check(op, stdout) -> bool:
    return stdout == bench_ops.huge_expected(op[2])


def run_workload(workload: str, op_list: list, root: str, tracer: Tracer):
    deadline = bench_ops.DEADLINES[workload]
    if workload == "verify-full":
        return run_verify(op_list, tracer), verify_check
    if workload == "point-queries":
        call, check = bench_ops.point_query_call(), bench_ops.point_query_check
    elif workload == "cli-dumps":
        call, check = bench_ops.cli_call, cli_check_factory()
    else:
        call, check = bench_ops.huge_call(root), huge_check
    return bench_ops.run_stream(op_list, call, deadline, tracer), check


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=bench_ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import metafib
    import metafib.cli

    metafib.cli.build_parser()
    setup_s = perf_counter() - t0
    root = os.getcwd()
    if not os.path.abspath(metafib.__file__).startswith(os.path.join(root, "src", "")):
        print(f"metafib imported from {metafib.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2
    if args.setup_only:
        slowdown = statistics.median(probe() for _ in range(SETUP_PROBES)) / REFERENCE_PROBE_S
        print(json.dumps({"setup_s": setup_s, "slowdown": slowdown}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    op_list = bench_ops.make_ops(args.workload, args.seed, args.seconds)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    speed = SpeedProbe()
    # huge-n waits on child processes, so the parent's speed says nothing
    with speed if args.workload != "huge-n" else contextlib.nullcontext():
        start = perf_counter()
        records, check = run_workload(args.workload, op_list, root, tracer)
        wall_s = perf_counter() - start
    trace = None
    if args.trace:
        tracer.uninstall()
        trace = tracer.summarize()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    bench_ops.apply_checks(op_list, records, check)
    failures = [[op, r[1], str(r[2])[:200]] for op, r in zip(op_list, records)
                if r[1] != bench_ops.OK][:5]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "setup_s": setup_s, "wall_s": wall_s,
        **bench_ops.tally(records), "first_failures": failures,
        "latency": latency_summary(
            op_list, [speed.at_reference_speed(r[3], r[0]) for r in records]),
        "raw_latency": latency_summary(op_list, [r[0] for r in records]),
        "peak_rss_mb": peak_rss_mb(),
        "op_count": len(op_list), "op_digest": bench_ops.op_digest(op_list),
        "trace": trace,
        "probe": speed.summary(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
