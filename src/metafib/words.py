"""The 0/1 words behind the leaf streams, with their block factorizations.

Words are plain strings over "01", read 1-indexed (bit i of word w is
w[i-1]) so that string positions line up with series exponents.
"""

from __future__ import annotations

from . import sequences

WORD_GUARD = 25          # |D_25| = 2**26 - 1 chars; refuse anything bigger
LENGTH_GUARD = 1 << 22


def word_D(n: int) -> str:
    """D_0 = "1", D_{n+1} = "0" + D_n + D_n; the leaf word of one subtree."""
    if n < 0:
        raise ValueError("word_D needs n >= 0")
    if n > WORD_GUARD:
        raise ValueError(f"word_D guard: n <= {WORD_GUARD}")
    w = "1"
    for _ in range(n):
        w = "0" + w + w
    return w


def word_E(n: int) -> str:
    """E_0 = "1", E_{n+1} = E_n + E_n + "0"; each E_n extends the last."""
    if n < 0:
        raise ValueError("word_E needs n >= 0")
    if n > WORD_GUARD:
        raise ValueError(f"word_E guard: n <= {WORD_GUARD}")
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
    if length > LENGTH_GUARD:
        raise ValueError(f"dword_prefix guard: length <= {LENGTH_GUARD}")
    parts = ["1"]
    total = 1
    m = 0
    while total < length:
        parts.append("0" * s)
        total += s
        if total >= length:
            break
        block = word_D(m)
        parts.append(block)
        total += len(block)
        m += 1
    return "".join(parts)[:length]


def ruler_factorization(s: int, terms: int) -> str:
    """The leaf stream as runs: 1 followed by (ruler(j) + bonus - 1) zeros.

    The bonus is s whenever j is a power of two (1 included).  The runs
    are the gaps of p, so the output has p(s, terms + 1) - 1 characters.
    """
    if s < 0 or terms < 1:
        raise ValueError("ruler_factorization needs s >= 0, terms >= 1")
    if sequences.p(s, terms + 1) - 1 > LENGTH_GUARD:
        raise ValueError(f"ruler_factorization guard: length <= {LENGTH_GUARD}")
    chunks = []
    for j in range(1, terms + 1):
        run = sequences.ruler(j) + (s if sequences.is_power_of_two(j) else 0)
        chunks.append("1" + "0" * (run - 1))
    return "".join(chunks)


def morphism_fixed_point(length: int) -> str:
    """Prefix of the fixed point of 0 -> 0, 1 -> 110, started from "1"."""
    if length < 1:
        raise ValueError("morphism_fixed_point needs length >= 1")
    if length > LENGTH_GUARD:
        raise ValueError(f"morphism_fixed_point guard: length <= {LENGTH_GUARD}")
    w = "1"
    while len(w) < length:
        w = "".join("110" if c == "1" else "0" for c in w)
    return w[:length]
