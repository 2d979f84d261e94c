#!/usr/bin/env python3
"""Check the CLI's stdout against the pinned cli-dumps digests.

    python3 tools/check_cli_digests.py

Runs every argument vector of ``perfbench/ops.cli_sweeps()`` through
``metafib.cli.main`` in-process and compares the SHA-256 of its stdout with
``perfbench/cli_digests.json``.  It reads both and writes neither (to
re-pin after an intended output change, run ``perfbench/pin_cli.py``).
Exits 0 when every digest matches, else 1 naming the first argument
vector that does not (a non-zero exit status is named by ``pin_cli.run``).
Stdlib only; takes about 2 s.
"""

import hashlib
import os
import sys
import traceback

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/

import ops  # noqa: E402
import pin_cli  # noqa: E402


def main() -> int:
    os.chdir(ROOT)  # the oeis sweep names its b-files relative to the root
    pinned = ops.load_cli_digests()
    argvs = [argv for sweep in ops.cli_sweeps() for argv in sweep]
    for argv in argvs:
        key = ops.cli_key(argv)
        try:
            text = pin_cli.run(argv)  # a non-zero exit raises SystemExit naming argv
        except Exception:  # a crash is a mismatch too
            traceback.print_exc()
            text = None
        if text is None or hashlib.sha256(text.encode()).hexdigest() != pinned.get(key):
            print(f"MISMATCH: metafib {key}")
            return 1
    print(f"OK: {len(argvs)} pinned CLI digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
