"""Tests of the benchmark itself: failure accounting, seeded op lists, checks,
the span recorder, the speed probe and the metric names in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops as bench_ops  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_each_failure_kind_counts_as_one_failed_op():
    def call(op):
        if op[0] == "raise":
            raise RuntimeError("boom")
        if op[0] == "exit":
            raise bench_ops.OpExit("exit 3")
        if op[0] == "slow":
            time.sleep(0.05)
        return op[1]

    ops = [["fine", 1], ["raise", 0], ["exit", 0], ["slow", 1], ["wrong", 2]]
    records = bench_ops.run_stream(ops, call, deadline=0.02)
    bench_ops.apply_checks(ops, records, lambda op, value: value == 1)
    counts = bench_ops.tally(records)
    assert [r[1] for r in records] == ["ok", "error", "exit", "timeout", "wrong"]
    assert counts["attempted"] == 5 and counts["failed"] == 4
    assert all(counts["outcomes"][kind] == 1
               for kind in ("ok", "error", "exit", "timeout", "wrong"))


def test_cli_and_process_failures_are_classified(monkeypatch):
    records = bench_ops.run_stream([["cli", ["seq", "a", "--from", "5", "--to", "1"]]],
                                   bench_ops.cli_call, deadline=10.0)
    assert records[0][1] == bench_ops.EXIT
    monkeypatch.setitem(bench_ops.DEADLINES, "huge-n", 0.5)
    hang = ["huge", "seq-a", ["seq", "a", "--from", str(10**12), "--to", str(10**12 + 15)]]
    usage = ["huge", "seq-a", ["seq", "a", "--from", "5", "--to", "1"]]
    records = bench_ops.run_stream([hang, usage], bench_ops.huge_call(ROOT), deadline=0.5)
    assert [r[1] for r in records] == [bench_ops.TIMEOUT, bench_ops.EXIT]


def test_one_seed_gives_a_byte_identical_op_list():
    for workload in ("point-queries", "cli-dumps", "huge-n"):
        first = json.dumps(bench_ops.make_ops(workload, 7, 2))
        again = json.dumps(bench_ops.make_ops(workload, 7, 2))
        other = json.dumps(bench_ops.make_ops(workload, 8, 2))
        assert first == again and first != other
    script = ("import json, ops; "
              "print(ops.op_digest(ops.make_ops('point-queries', 7, 2)))")
    fresh = subprocess.run([sys.executable, "-c", script], cwd=BENCH_DIR,
                           capture_output=True, text=True, check=True, timeout=60)
    digest = bench_ops.op_digest(bench_ops.make_ops("point-queries", 7, 2))
    assert fresh.stdout.strip() == digest


def test_point_query_mix_and_ranges():
    ops = bench_ops.make_ops("point-queries", 3, 1)
    assert len(ops) == 1000
    kinds = {kind: 0 for kind in bench_ops.PQ_KINDS}
    for op in ops:
        kinds[op[0]] += 1
        if op[0] in ("as_via_a0", "as_descent", "locate"):
            assert 1 <= op[2] <= 10**18
    assert kinds == {kind: share * 10 for kind, share in bench_ops.PQ_MIX}


def test_point_query_checks_catch_wrong_answers():
    from metafib import codes, sequences, trees

    cases = [(["a", 3, 1000], sequences.a(3, 1000)),
             (["d", 2, 77], sequences.d(2, 77)),
             (["p", 4, 300], sequences.p(4, 300)),
             (["M", 40, 6], codes.M(40, 6)),
             (["a_max", 300], codes.a_max(300)),
             (["b_seq", 300], codes.b_seq(300)),
             (["as_via_a0", 5, 10**17], sequences.as_via_a0(5, 10**17)),
             (["as_descent", 5, 10**17], sequences.as_descent(5, 10**17)),
             (["locate", 1, 10**15], trees.locate(1, 10**15).is_leaf)]
    for op, value in cases:
        assert bench_ops.point_query_check(op, value), op
        assert not bench_ops.point_query_check(op, int(value) + 1), op
    code = codes.greedy_tree_unbounded(37)
    assert bench_ops.point_query_check(["greedy_tree_unbounded", 37], code)
    assert not bench_ops.point_query_check(["greedy_tree_unbounded", 38], code)


def test_huge_n_expectations_match_the_cli_at_small_n():
    for argv in (["seq", "a", "--s", "3", "--from", "1", "--to", "40"],
                 ["seq", "d", "--s", "2", "--from", "1", "--to", "40"],
                 ["seq", "p", "--s", "5", "--from", "1", "--to", "40"],
                 ["codes", "amax", "--from", "2", "--to", "40"],
                 ["codes", "bseq", "--from", "1", "--to", "40"]):
        digest = bench_ops.cli_call(["cli", argv])
        assert hashlib.sha256(bench_ops.huge_expected(argv).encode()).hexdigest() == digest


def test_pinned_digests_cover_the_catalog():
    pinned = bench_ops.load_cli_digests()
    keys = {bench_ops.cli_key(argv) for sweep in bench_ops.cli_sweeps() for argv in sweep}
    assert keys == set(pinned)


def test_tracer_self_time_and_restore():
    from metafib import sequences, verify

    original_a, original_extend = sequences.a, sequences.SequenceTable.extend_to
    original_checks = list(verify.IDENTITIES)
    tracer = Tracer()
    tracer.install()
    try:
        assert sequences.a is not original_a
        tracer.current_op = 0
        sequences.a(2, 5000)
    finally:
        tracer.uninstall()
    assert sequences.a is original_a
    assert sequences.SequenceTable.extend_to is original_extend
    assert verify.IDENTITIES == original_checks
    summary = tracer.summarize()
    names = summary["names"]
    assert names["sequences.a"]["calls"] == 1
    assert names["sequences.SequenceTable.extend_to"]["calls"] == 1
    outer = names["sequences.a"]
    inner = sum(names[n]["total_s"] for n in ("sequences.table", "sequences.SequenceTable.a"))
    assert abs(outer["self_s"] - (outer["total_s"] - inner)) < 1e-9
    assert summary["layers"]["sequences"]["calls"] == summary["spans"] == 4
    assert list(tracer.parent) == [-1, 0, 0, 2] and set(tracer.op) == {0}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} <= set(bench_ops.WORKLOADS)
    assert list(bench_run.VERIFY_CHECKS) == [op[1] for op in bench_ops.verify_ops()]


def test_speed_probe_samples_during_a_pass_and_stops():
    with worker.SpeedProbe() as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    summary = speed.summary()
    assert summary["samples"] >= 3 and summary["slowdown"] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_op_latency_is_scaled_by_the_probes_around_it():
    ref = worker.REFERENCE_PROBE_S
    speed = worker.SpeedProbe()
    speed.starts = [float(t) for t in range(8)]
    speed.samples = [2 * ref] * 8
    # an op from 2.5 s to 3.5 s contains the probe started at 3 s
    assert abs(speed.at_reference_speed(2.5, 1.0) - (1.0 - 2 * ref) / 2) < 1e-12
    assert worker.SpeedProbe().at_reference_speed(0.0, 0.5) == 0.5
