"""Seeded op lists for each workload, the closed-loop stream runner, and the
second-route checks applied after the timed stream.

Nothing here imports metafib at module level: the worker times the package
import itself, and ``pin_cli.py`` and the tests reuse the generators.

An op is a JSON-able list; ``op_kind`` names its kind.  Every op ends in
exactly one outcome: ``ok``, or one failure among ``error`` (it raised),
``exit`` (non-zero exit status), ``timeout`` (overran its deadline) and
``wrong`` (its output disagreed with the check).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from time import perf_counter

WORKLOADS = ("verify-full", "point-queries", "cli-dumps", "huge-n")

OK, ERROR, EXIT, TIMEOUT, WRONG = "ok", "error", "exit", "timeout", "wrong"

# Per-op deadlines in seconds.  In-process ops cannot be interrupted, so an
# overrun is detected when the op returns; huge-n ops are killed at it.
DEADLINES = {"verify-full": 120.0, "point-queries": 10.0, "cli-dumps": 20.0,
             "huge-n": 2.0}
HUGE_MEMORY_CAP = 1 << 30  # address-space limit of each huge-n process

PQ_OPS_PER_SECOND = 1000
# Share of point-query ops per kind, in percent.  The memo lookups (a to
# b_seq) take 40%, the O(log n) routes 55% and the greedy code 5%, so the
# median lands inside the as_via_a0 latencies and the 99th percentile
# inside greedy_tree_unbounded, away from a boundary between kinds.
PQ_MIX = (("a", 14), ("d", 10), ("p", 8), ("M", 4), ("a_max", 2), ("b_seq", 2),
          ("greedy_tree_unbounded", 5), ("as_via_a0", 20), ("as_descent", 17),
          ("locate", 18))
PQ_KINDS = tuple(kind for kind, _ in PQ_MIX)
HUGE_KINDS = ("seq-a", "seq-d", "seq-p", "codes-amax", "codes-bseq")
HUGE_LOW, HUGE_HIGH = 10**9, 10**18
ROUTE_CAP = 10**18
SHIFTS = 7  # s in 0..6


class OpExit(Exception):
    """An op that finished with a non-zero exit status."""


class OpTimeout(Exception):
    """An op that was stopped at its deadline."""


class Rng:
    """Seeded draws built on getrandbits only, so an op list is the same on
    every Python version that has the Mersenne Twister."""

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below needs n >= 1")
        k = n.bit_length()
        while True:
            x = self._r.getrandbits(k)
            if x < n:
                return x

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def octave(self, bits: int, cap: int | None = None) -> int:
        """Uniform integer with exactly ``bits`` bits, at most ``cap``."""
        lo = 1 << (bits - 1)
        hi = (1 << bits) - 1
        if cap is not None:
            hi = min(hi, cap)
        return self.between(lo, hi)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# --------------------------------------------------------------- op lists

def make_ops(workload: str, seed: int, seconds: int) -> list:
    if workload == "verify-full":
        return verify_ops()
    if workload == "point-queries":
        return point_query_ops(seed, seconds)
    if workload == "cli-dumps":
        return cli_dump_ops(seed)
    if workload == "huge-n":
        return huge_n_ops(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")


def op_digest(ops: list) -> str:
    blob = json.dumps(ops, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def verify_ops() -> list:
    """One op per identity, in registry order; the seed plays no part."""
    from metafib import verify

    return [["identity", check.__name__.lstrip("_")] for _, check in verify.IDENTITIES]


def point_query_ops(seed: int, seconds: int) -> list:
    """Single-value library calls, stratified per kind, in random order.

    Each kind gets a fixed share of the ops.  Shifts and bit lengths cycle
    through their ranges and only the value inside an octave is random, so
    every seed does nearly the same amount of work in a different order.
    """
    rng = Rng(seed)
    total = max(1000, PQ_OPS_PER_SECOND * seconds)
    ops = []
    for kind, share in PQ_MIX:
        for i in range(total * share // 100):
            s = i % SHIFTS
            if kind in ("a", "d"):
                ops.append([kind, s, rng.octave(1 + (i // SHIFTS) % 20)])
            elif kind == "p":
                ops.append([kind, s, rng.octave(1 + (i // SHIFTS) % 18)])
            elif kind == "M":
                h = 1 + i % 16
                ops.append([kind, rng.between(h + 1, 1 << h), h])
            elif kind == "a_max":
                ops.append([kind, max(2, rng.octave(1 + i % 16))])
            elif kind == "b_seq":
                ops.append([kind, rng.octave(1 + i % 16)])
            elif kind == "greedy_tree_unbounded":
                ops.append([kind, rng.between(2, 1 << 10)])
            else:  # as_via_a0, as_descent, locate
                bits = 1 + (i // SHIFTS) % 60
                ops.append([kind, s, rng.octave(bits, ROUTE_CAP)])
    rng.shuffle(ops)
    return ops


def cli_sweeps() -> list:
    """Ascending range dumps, one list of argument vectors per sweep.

    Ranges are cut into small windows so that a run has over 1000 ops and
    the 99th-percentile latency has at least 10 samples beyond it.
    """
    sweeps = []
    for which in "adp":
        for s in (0, 2, 5):
            sweeps.append([["seq", which, "--s", str(s), "--from", str(lo),
                            "--to", str(lo + 1999)] for lo in range(1, 200001, 2000)])
    for which in ("D", "A", "P"):
        for s in (0, 1, 3):
            sweeps.append([["gf", which, "--s", str(s), "--order", str(order)]
                           for order in (1024, 4096, 16384, 65536)])
    sweeps.append([["gf", "ruler", "--order", str(order)]
                   for order in (1024, 4096, 16384, 65536)])
    for s in (0, 1, 4):
        sweeps.append([["word", "stream", "--s", str(s), "--length", str(1 << k)]
                       for k in (12, 16, 20)])
        sweeps.append([["word", "runs", "--s", str(s), "--terms", str(1 << k)]
                       for k in (10, 14, 17)])
    sweeps.append([["word", "morphism", "--length", str(1 << k)] for k in (12, 16, 20)])
    for which in ("amax", "bseq"):
        sweeps.append([["codes", which, "--from", str(lo), "--to", str(lo + 511)]
                       for lo in range(2, 1 << 14, 512)])
    sweeps.append([["codes", "mtable", "--nmax", str(n)] for n in (16, 32, 64, 128)])
    sweeps.append([["oeis", "--bfile", f"tests/data/b{oeis_id}.txt", "--id", oeis_id]
                   for oeis_id in ("A001511", "A005187", "A006949", "A046699",
                                   "A079559", "A101925")])
    for s in (1, 2, 3):
        sweeps.append([["compositions", "--s", str(s), "--n", str(n)]
                       for n in (16, 32, 48)])
    sweeps.append([["tree", "--s", str(s), "--n", "127"] for s in range(4)])
    return sweeps


def cli_dump_ops(seed: int) -> list:
    """Every sweep of the catalog, interleaved at random; each sweep stays
    ascending, so the memo tables see their best case."""
    rng = Rng(seed)
    pending = [list(sweep) for sweep in cli_sweeps()]
    ops = []
    while pending:
        weights = [len(sweep) for sweep in pending]
        pick = rng.below(sum(weights))
        for k, w in enumerate(weights):
            if pick < w:
                break
            pick -= w
        ops.append(["cli", pending[k].pop(0)])
        if not pending[k]:
            pending.pop(k)
    return ops


def huge_n_ops(seed: int, seconds: int) -> list:
    """CLI range queries starting at a seeded N in [10**9, 10**18]."""
    rng = Rng(seed)
    ops = []
    for i in range(max(len(HUGE_KINDS), seconds // 2)):
        kind = HUGE_KINDS[i % len(HUGE_KINDS)]
        start = rng.between(HUGE_LOW, HUGE_HIGH)
        if kind.startswith("seq"):
            argv = ["seq", kind[-1], "--s", str(rng.below(SHIFTS)),
                    "--from", str(start), "--to", str(start + 15)]
        else:
            argv = ["codes", kind.split("-")[1], "--from", str(start),
                    "--to", str(start + 5)]
        ops.append(["huge", kind, argv])
    return ops


def op_kind(op: list) -> str:
    return op[1] if op[0] in ("identity", "huge") else op[0]


# ------------------------------------------------------------ the stream

def run_stream(ops: list, call, deadline: float, tracer=None) -> list:
    """Issue ops one at a time; return [latency_s, outcome, value, start]
    per op.

    ``tracer``, if given, has its ``current_op`` set to each op's index.
    """
    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
        t0 = perf_counter()
        try:
            value, outcome = call(op), OK
        except OpExit as exc:
            value, outcome = str(exc), EXIT
        except OpTimeout as exc:
            value, outcome = str(exc), TIMEOUT
        except Exception as exc:
            value, outcome = repr(exc), ERROR
        latency = perf_counter() - t0
        if outcome == OK and latency > deadline:
            outcome = TIMEOUT
        records.append([latency, outcome, value, t0])
    return records


def apply_checks(ops: list, records: list, check) -> None:
    """Mark every completed op whose value fails ``check`` as wrong."""
    for op, record in zip(ops, records):
        if record[1] == OK:
            try:
                good = check(op, record[2])
            except Exception:
                good = False
            if not good:
                record[1] = WRONG


def tally(records: list) -> dict:
    counts = Counter(record[1] for record in records)
    attempted = len(records)
    failed = attempted - counts[OK]
    return {"attempted": attempted, "failed": failed, "outcomes": dict(counts)}


# ------------------------------------------------------- calls per workload

def point_query_call():
    from metafib import codes, sequences, trees

    routes = {
        "a": sequences.a, "d": sequences.d, "p": sequences.p, "M": codes.M,
        "a_max": codes.a_max, "b_seq": codes.b_seq,
        "greedy_tree_unbounded": codes.greedy_tree_unbounded,
        "as_via_a0": sequences.as_via_a0, "as_descent": sequences.as_descent,
        "locate": lambda s, n: trees.locate(s, n).is_leaf,
    }

    def call(op):
        return routes[op[0]](*op[1:])

    return call


def cli_call(op):
    """Run one in-process ``cli.main``; the value is a digest of stdout."""
    from metafib import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op[1])
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OpExit(f"exit {code}: {err.getvalue().strip()[:200]}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (HUGE_MEMORY_CAP, HUGE_MEMORY_CAP))


def huge_call(root: str):
    """Run each op as a fresh ``python -m metafib`` process, killed at the
    deadline and capped at HUGE_MEMORY_CAP bytes of address space."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def call(op):
        try:
            done = subprocess.run(
                [sys.executable, "-m", "metafib", *op[2]], cwd=root, env=env,
                capture_output=True, text=True, timeout=DEADLINES["huge-n"],
                preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired as exc:
            raise OpTimeout(f"killed after {exc.timeout} s") from None
        if done.returncode != 0:
            raise OpExit(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        return done.stdout

    return call


# ----------------------------------------------------------------- checks

def p_closed(s: int, n: int) -> int:
    """p(s, n) = 1 + 2k - popcount(k) + s * bitlen(k) with k = n - 1."""
    k = n - 1
    return 1 + 2 * k - bin(k).count("1") + s * k.bit_length()


def d_closed(s: int, n: int) -> int:
    """d(s, n) as a difference of as_via_a0 values."""
    from metafib import sequences

    if n == 1:
        return 1
    return sequences.as_via_a0(s, n) - sequences.as_via_a0(s, n - 1)


def point_query_check(op, value) -> bool:
    from metafib import codes, sequences

    kind, args = op[0], op[1:]
    via_a0 = sequences.as_via_a0
    if kind == "a":
        return value == sequences.as_descent(*args)
    if kind in ("d", "locate"):
        leaf = d_closed(*args)
        return value == (leaf if kind == "d" else bool(leaf))
    if kind == "p":
        return value == p_closed(*args)
    if kind == "M":
        n, h = args
        return value == sequences.a0_fast(n - h)
    if kind == "a_max":
        return value == via_a0(1, args[0] - 1)
    if kind == "b_seq":
        return value == sequences.a0_fast(args[0])
    if kind == "greedy_tree_unbounded":
        n = args[0]
        levels = codes.validate_code(value)
        bottom_pairs = levels.count(levels[0]) // 2
        return len(levels) == n and bottom_pairs == via_a0(1, n - 1)
    if kind == "as_via_a0":
        return value == sequences.as_descent(*args)
    if kind == "as_descent":
        return value == via_a0(*args)
    raise ValueError(f"unknown point-query kind {kind!r}")


def huge_expected(argv: list) -> str:
    """The stdout a huge-n op must print, from closed forms."""
    from metafib import sequences

    via_a0 = sequences.as_via_a0
    if argv[0] == "seq":
        which, s = argv[1], int(argv[3])
        lo, hi = int(argv[5]), int(argv[7])
        if which == "a":
            values = [via_a0(s, n) for n in range(lo, hi + 1)]
        elif which == "d":
            values = [d_closed(s, n) for n in range(lo, hi + 1)]
        else:
            values = [p_closed(s, n) for n in range(lo, hi + 1)]
    else:
        which, lo, hi = argv[1], int(argv[3]), int(argv[5])
        if which == "amax":
            values = [via_a0(1, n - 1) for n in range(lo, hi + 1)]
        else:
            values = [sequences.a0_fast(n) for n in range(lo, hi + 1)]
    return "".join(f"{v}\n" for v in values)


def load_cli_digests() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def cli_key(argv: list) -> str:
    return " ".join(argv)
