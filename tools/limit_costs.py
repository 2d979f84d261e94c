#!/usr/bin/env python3
"""Measure the cost of every at-limit command that ``limits.py`` quotes.

    python3 tools/limit_costs.py

Runs each case in a fresh child interpreter (with ``src`` first on its
path and this interpreter's ``-X dev`` and ``-W`` options) and prints one
line per case: the seconds the call itself took in the child, and the
child's peak resident set size (``ru_maxrss``, which includes the
interpreter and the import of ``metafib``).  CLI output goes to
/dev/null.  The first case only imports ``metafib.cli``: it is the floor
under every other peak.  Exits 1 naming the first case whose child fails.
Each child is this script run with ``--case INDEX``.  Quote costs from a
run without ``-X dev``, whose debug allocator hooks add time and memory.
Stdlib only, POSIX only (``resource``); about 20 s.
"""

import contextlib
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from metafib import cli, codes, compositions, limits  # noqa: E402

OUT = limits.OUTPUT


def _cli(*argv):
    """The CLI on argv; its exit status is the child's."""
    return lambda: cli.main([str(a) for a in argv])


def _each(fn, calls):
    """fn(*args) for each args in calls, results dropped; exit status 0."""
    def run():
        for args in calls:
            fn(*args)
        return 0
    return run


# (what limits.py quotes, the call)
CASES = [
    ("import metafib.cli", lambda: 0),
    ("seq a --s 1 --to 2**22", _cli("seq", "a", "--s", 1, "--to", OUT)),
    ("seq d --s 1 --to 2**22", _cli("seq", "d", "--s", 1, "--to", OUT)),
    ("seq p --s 1 --to 2**22", _cli("seq", "p", "--s", 1, "--to", OUT)),
    ("word runs --terms 2097151", _cli("word", "runs", "--terms", 2**21 - 1)),
    ("word stream --length 2**22", _cli("word", "stream", "--length", OUT)),
    ("word morphism --length 2**22", _cli("word", "morphism", "--length", OUT)),
    ("codes mtable --nmax 2049", _cli("codes", "mtable", "--nmax", 2049)),
    ("codes amax --to 2**22 + 1", _cli("codes", "amax", "--to", OUT + 1)),
    ("codes bseq --to 2**22", _cli("codes", "bseq", "--to", OUT)),
    *[(f"gf {w} --order 2**16", _cli("gf", w, "--order", limits.GF_ORDER))
      for w in ("ruler", "D", "A", "P")],
    ("counts_up_to(1, 2**20)", _each(compositions.counts_up_to, [(1, limits.COUNT)])),
    ("counts_to_code, 2**22 leaves",
     _each(codes.counts_to_code, [([1 << k for k in range(OUT.bit_length() - 1)],)])),
    ("enumerate_codes(16)", _each(codes.enumerate_codes, [(limits.ENUM_CODES,)])),
    ("M_oracle(16, h), every h",
     _each(codes.M_oracle, [(limits.ENUM_CODES, h) for h in range(1, limits.ENUM_CODES)])),
    ("enumerate_compositions(s, 64), every s in 1..64",
     _each(compositions.enumerate_compositions,
           [(s, limits.ENUM_COMPOSITIONS) for s in range(1, limits.ENUM_COMPOSITIONS + 1)])),
    ("max_ones_partition_brute(n, 6), every n",
     _each(codes.max_ones_partition_brute, [(n, 6) for n in range(2, 2**6 + 1)])),
    ("tree --n 127", _cli("tree", "--n", limits.RENDER)),
]


def _child(index: int) -> int:
    """Run one case with stdout sent to /dev/null; report on the real one."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        status = CASES[index][1]()
        seconds = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"{seconds:.3f} {peak_kb / 1024:.1f}")
    return status


def main() -> int:
    flags = [f"-W{w}" for w in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    width = max(len(label) for label, _ in CASES)
    print(f"{'case':<{width}}  {'seconds':>7}  {'peak_rss_mb':>11}")
    for index, (label, _) in enumerate(CASES):
        child = subprocess.run([sys.executable, *flags, __file__, "--case", str(index)],
                               capture_output=True, text=True)
        if child.returncode != 0:
            print(f"FAILED: {label} (exit {child.returncode})\n{child.stderr}")
            return 1
        seconds, peak_mb = child.stdout.split()
        print(f"{label:<{width}}  {seconds:>7}  {peak_mb:>11}", flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        sys.exit(_child(int(sys.argv[2])))
    sys.exit(main())
