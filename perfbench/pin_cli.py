"""Regenerate ``cli_digests.json``, the pinned stdout digests of cli-dumps.

    PYTHONPATH=src python3 perfbench/pin_cli.py

Run from the repository root.  The CLI promises byte-identical stdout for
the same argument vector, so the digests are pinned once and every later
benchmark run must reproduce them.  Before pinning, each ``seq`` and
``codes amax|bseq`` dump is checked line by line against closed forms, so a
pin never records a wrong sequence value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import ops as bench_ops


def run(argv: list) -> str:
    from metafib import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
    return out.getvalue()


def closed_form(argv: list) -> str | None:
    """Expected stdout of range dumps with a closed form, else None."""
    if argv[0] == "seq" or (argv[0] == "codes" and argv[1] in ("amax", "bseq")):
        return bench_ops.huge_expected(argv)
    return None


def main() -> int:
    digests = {}
    for sweep in bench_ops.cli_sweeps():
        for argv in sweep:
            text = run(argv)
            want = closed_form(argv)
            if want is not None and text != want:
                raise SystemExit(f"{argv}: output disagrees with the closed form")
            digests[bench_ops.cli_key(argv)] = hashlib.sha256(text.encode()).hexdigest()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
