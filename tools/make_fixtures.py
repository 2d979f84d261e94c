#!/usr/bin/env python3
"""Regenerate the vendored OEIS b-file fixtures in tests/data/.

The build is hermetic, so the fixtures are produced locally:

* A001511 comes from an independent closed form (the 2-adic valuation
  plus one);
* A005187 comes from 2n - popcount(n), which is exactly the closed form
  that ``sequences.p(0, n + 1) - 1`` serves, so it pins those values but
  is not an independent check of ``p``;
* the other four come from the tree-structural oracle, so checking them
  against the recurrence evaluators still compares two different routes.
  A101925 is the fixture that checks ``p`` independently.

``tests/test_oeis.py`` runs ``main`` into a temporary directory and
compares the result with ``tests/data`` byte for byte.

Index 0 entries of A046699/A006949 are the base-value seed 1 (the tree
prefix of length 0 has no leaves; the convention here is value 1).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from metafib import oeis, trees  # noqa: E402

TERMS = 1020
OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")


def leaf_flags(s, n_max):
    return [0] + [trees.is_leaf_oracle(s, i) for i in range(1, n_max + 1)]


def write(name, pairs):
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# generated by tools/make_fixtures.py, {len(pairs)} terms\n")
        oeis.write_bfile(fh, pairs)
    print(f"wrote {path}")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)

    flags0 = leaf_flags(0, 3 * TERMS)
    counts0 = [0]
    for f in flags0[1:]:
        counts0.append(counts0[-1] + f)
    positions0 = [i for i in range(1, len(flags0)) if flags0[i]]

    flags1 = leaf_flags(1, TERMS + 1)
    counts1 = [1]  # index 0: base-value seed, not part of the running sum
    running = 0
    for f in flags1[1:]:
        running += f
        counts1.append(running)

    # A046699(n) = a(0, n-1) for n >= 1, with a(0, 0) = 1
    write("bA046699.txt",
          [(1, 1)] + [(n, counts0[n - 1]) for n in range(2, TERMS + 2)])
    # A006949(n) = a(1, n) for n >= 0
    write("bA006949.txt", [(n, counts1[n]) for n in range(0, TERMS + 1)])
    # A079559(n) = d(0, n+1) for n >= 0
    write("bA079559.txt", [(n, flags0[n + 1]) for n in range(0, TERMS + 1)])
    # A101925(n) = p(0, n+1) for n >= 0
    write("bA101925.txt",
          [(n, positions0[n]) for n in range(0, TERMS + 1)])
    # A005187(n) = 2n - popcount(n): the closed form that sequences.p serves
    write("bA005187.txt",
          [(n, 2 * n - bin(n).count("1")) for n in range(0, TERMS + 1)])
    # A001511(n) = 2-adic valuation of n, plus one
    write("bA001511.txt",
          [(n, (n & -n).bit_length()) for n in range(1, TERMS + 2)])


if __name__ == "__main__":
    main()
