"""The 0/1 words behind the leaf streams, with their block factorizations.

Words are plain strings over "01", read 1-indexed (bit i of word w is
w[i-1]) so that string positions line up with series exponents.
"""

from __future__ import annotations

from . import limits, sequences

# D_n and E_n have 2**(n+1) - 1 characters; past n = 64, 2**65 - 1 stands in.


def word_D(n: int) -> str:
    """D_0 = "1", D_{n+1} = "0" + D_n + D_n; the leaf word of one subtree."""
    if n < 0:
        raise ValueError("word_D needs n >= 0")
    limits.check("word_D length", (2 << min(n, 64)) - 1, "OUTPUT", f"2**{n + 1} - 1")
    w = "1"
    for _ in range(n):
        w = "0" + w + w
    return w


def word_E(n: int) -> str:
    """E_0 = "1", E_{n+1} = E_n + E_n + "0"; each E_n extends the last."""
    if n < 0:
        raise ValueError("word_E needs n >= 0")
    limits.check("word_E length", (2 << min(n, 64)) - 1, "OUTPUT", f"2**{n + 1} - 1")
    w = "1"
    for _ in range(n):
        w = w + w + "0"
    return w


def dword_prefix(s: int, length: int) -> str:
    """Prefix of the infinite leaf stream for shift s.

    Built by block concatenation: D_0, then alternately 0**s and the next
    D_m.  Bit i equals d(s, i).
    """
    if s < 0 or length < 1:
        raise ValueError("dword_prefix needs s >= 0, length >= 1")
    limits.check("dword_prefix length", length, "OUTPUT")
    parts = ["1"]
    total = 1
    m = 0
    while total < length:
        parts.append("0" * min(s, length - total))  # s may dwarf the prefix
        total += s
        if total >= length:
            break
        block = word_D(m)[: length - total]  # slicing the join would copy the word
        parts.append(block)
        total += len(block)
        m += 1
    return "".join(parts)


def ruler_factorization(s: int, terms: int) -> str:
    """The leaf stream as runs: 1 followed by (ruler(j) + bonus - 1) zeros.

    The bonus is s whenever j is a power of two (1 included).  The runs
    are the gaps of p, so the output has p(s, terms + 1) - 1 characters.
    Doubling: leaves 2**k + 1 .. 2**(k+1) - 1 repeat the runs of 1 .. 2**k - 1.
    """
    if s < 0 or terms < 1:
        raise ValueError("ruler_factorization needs s >= 0, terms >= 1")
    limits.check("ruler_factorization length", sequences.p(s, terms + 1) - 1, "OUTPUT")
    top = terms.bit_length() - 1
    runs = plain = ""  # leaves 1 .. 2**k - 1, with and without the bonus
    for k in range(top):  # leaf 2**k: ruler(2**k) - 1 = k zeros, then the bonus
        runs += "1" + "0" * (k + s) + plain
        plain += "1" + "0" * k + plain
    # leaf 2**top, then r = terms - 2**top runs of plain: ruler(1..r) sums to p(0, r + 1) - 1
    return runs + "1" + "0" * (top + s) + plain[: sequences.p(0, terms - (1 << top) + 1) - 1]


def morphism_fixed_point(length: int) -> str:
    """Prefix of the fixed point of 0 -> 0, 1 -> 110, started from "1"."""
    if length < 1:
        raise ValueError("morphism_fixed_point needs length >= 1")
    limits.check("morphism_fixed_point length", length, "OUTPUT")
    w = "1"
    while len(w) < length:
        w = w.replace("1", "110")  # 0 is fixed, so only the 1s expand
    return w[:length]
