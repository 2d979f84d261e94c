"""Every CLI subcommand at extreme integer arguments, each in a child process.

Each integer option is run at -1, at one past its limit (where it has one)
and at 10**18, the other options at small values, under a 1 GiB
address-space cap set on the child only.  The command must exit 0, or exit
2 with one "error: " line; one past a limit, it must exit 2 and name that
limit.  It never prints a traceback, and exits 1 only for an `oeis`
comparison that finds a mismatch: any shift of a matching role's index or
value deltas is one, by the CLI's exit-code contract.  `verify` takes no
integer option.

Not swept: values exactly at a limit.  Those are accepted, and some are
slow: `codes mtable --nmax 2049` runs for more than 60 s (one O(h) greedy
descent per cell), and `codes amax --to 2**22 + 1` takes 21 s.  Only the
`seq` dumps at `--to limits.OUTPUT` are run, under a far tighter cap.
"""

import functools
import os
import subprocess

import pytest

from metafib import limits, sequences

from _run import cap_child_memory, run_metafib

HUGE = 10**18
OUT = limits.OUTPUT
BFILE = os.path.join(os.path.dirname(__file__), "data", "bA006949.txt")

# (fixed arguments, swept option, largest accepted value or None, its limit).
# A swept --from moves --to along with it, so the window holds one value.
SWEEP = [
    *[(["seq", w, "--to", "5"], "--s", OUT - 3 if w != "p" else None, "OUTPUT")
      for w in "adp"],
    *[(["seq", w, "--to", "5"], "--from", None, None) for w in "adp"],
    *[(["seq", w], "--to", OUT, "OUTPUT") for w in "adp"],
    *[(["gf", w, "--order", "8"], "--s", None, None) for w in ("ruler", "D", "A", "P")],
    *[(["gf", w], "--order", limits.GF_ORDER, "GF_ORDER") for w in ("ruler", "D", "A", "P")],
    (["codes", "greedy", "--height", "3"], "--n", OUT, "OUTPUT"),
    (["codes", "greedy", "--n", "5"], "--height", None, None),
    (["codes", "enumerate"], "--n", limits.ENUM_CODES, "ENUM_CODES"),
    (["codes", "enumerate", "--n", "5"], "--height", None, None),
    (["codes", "mtable"], "--nmax", 2049, "OUTPUT"),  # (nmax - 1)**2 cells
    (["codes", "amax", "--to", "5"], "--from", None, None),
    (["codes", "amax"], "--to", OUT + 1, "OUTPUT"),
    (["codes", "bseq", "--to", "5"], "--from", None, None),
    (["codes", "bseq"], "--to", OUT, "OUTPUT"),
    (["word", "d"], "--n", 21, "OUTPUT"),
    (["word", "e"], "--n", 21, "OUTPUT"),
    (["word", "stream", "--length", "5"], "--s", None, None),
    (["word", "stream"], "--length", OUT, "OUTPUT"),
    (["word", "runs", "--terms", "5"], "--s", None, None),
    (["word", "runs"], "--terms", 2**21 + 1, "OUTPUT"),
    (["word", "morphism"], "--length", OUT, "OUTPUT"),
    (["compositions", "--n", "5"], "--s", OUT, "OUTPUT"),
    (["compositions", "--s", "2"], "--n", limits.ENUM_COMPOSITIONS, "ENUM_COMPOSITIONS"),
    (["tree", "--n", "5"], "--s", None, None),
    (["tree"], "--n", limits.RENDER, "RENDER"),
    (["tree", "--n", "5"], "--max-width", None, None),
    (["oeis", "--bfile", BFILE, "--seq", "a"], "--s", None, None),
    (["oeis", "--bfile", BFILE, "--seq", "a", "--s", "1"], "--index-delta", None, None),
    (["oeis", "--bfile", BFILE, "--seq", "a", "--s", "1"], "--value-delta", None, None),
]

# A seq a|d window at or above 10**12 still grows the shift table up to its
# last index (ROADMAP item 3), so at 10**18 it runs until it is stopped.
TABLE_WINDOW = pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                                 reason="seq a|d windows grow the table to --to")


def _cases():
    for fixed, option, limit, name in SWEEP:
        shown = " ".join(a for a in fixed if a != BFILE)
        values = [(-1, "-1"), (HUGE, "10**18")]
        if limit is not None:
            values.insert(1, (limit + 1, "limit+1"))
        for value, label in values:
            argv = [*fixed, option, str(value)]
            if option == "--from":
                argv += ["--to", str(value)]
            refused = name if limit is not None and value > limit else None
            hole = fixed[0] == "seq" and fixed[1] != "p" and option == "--from" and value == HUGE
            yield pytest.param(argv, refused, 2 if hole else 10,
                               marks=[TABLE_WINDOW] if hole else [],
                               id=f"{shown} {option}={label}")


@pytest.mark.parametrize("argv, refused, timeout", _cases())
def test_extreme_argument_exits_cleanly(argv, refused, timeout):
    result = run_metafib(*argv, timeout=timeout, preexec_fn=cap_child_memory)
    assert "Traceback" not in result.stderr
    if refused is not None:
        assert result.returncode == 2
        assert f"(limits.{refused})" in result.stderr
    if result.returncode == 1:
        assert argv[0] == "oeis" and result.stdout.startswith("MISMATCH at n=")
    elif result.returncode == 2:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    else:
        assert result.returncode == 0, result.stderr


# A range dump is written in chunks, so its memory is set by the shift table
# (8 bytes a value) and one chunk's strings, not by the window: a `seq a`
# dump at the limit peaks at ~60 MB of address space.  Formatted in one
# piece, the same dump took ~550 MB (Python 3.11, x86-64 Linux).
DUMP_CAP = 256 << 20


@pytest.mark.parametrize("which", ["a", "p"])
def test_seq_dump_at_the_limit_fits_a_small_address_space(which):
    result = run_metafib("seq", which, "--s", "1", "--to", str(OUT), timeout=60,
                         preexec_fn=functools.partial(cap_child_memory, DUMP_CAP))
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.count("\n") == OUT
    last = getattr(sequences, which)(1, OUT)
    assert result.stdout.endswith(f"\n{last}\n")
