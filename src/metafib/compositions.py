"""Compositions with position-dependent parts, counted and enumerated.

For shift s >= 1 a composition of n is a sequence x_0, x_1, ..., x_k with
x_0 in {1, ..., s} and x_i in {s, 2**i + s - 1} for i >= 1, summing to n.
The number of them is a(s, n); the count here is a layered dynamic program,
one 32-bit field a target, that never touches the recurrence.  The layers
run only while the big part 2**i + s - 1 fits under the limit; past that
only the part s fits, so the rest is the last layer times 1/(1 - z**s),
the product of the (1 + z**(s * 2**j)) with s * 2**j <= limit.
"""

from __future__ import annotations

import struct

from . import limits


def part_choices(s: int, i: int) -> tuple:
    """Allowed parts at position i."""
    if s < 1:
        raise ValueError("composition rules need s >= 1")
    if i < 0:
        raise ValueError("position must be >= 0")
    if i == 0:
        limits.check("part_choices first parts s", s, "OUTPUT")
        return tuple(range(1, s + 1))
    limits.check("part_choices position i", i, "OUTPUT")  # before 2**i is built
    return (s, (1 << i) + s - 1)


def counts_up_to(s: int, limit: int) -> list:
    """Composition counts for every target 0..limit (index 0 is 0).

    Field r (32 bits) of layer counts the ways to reach sum r using
    positions 0..i exactly; each finished layer is added to the total.
    Once the big part 2**i + s - 1 exceeds limit, every later position
    takes only the part s, so the layers to come are the current one times
    z**s, z**2s, ...: the product of (1 + z**(s * 2**j)) adds them all.  No
    field carries: each holds at most a(s, r) <= r < 2**31.  O(log limit)
    Python steps, each a C-level shift, add and mask.
    """
    if s < 1:
        raise ValueError("composition rules need s >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    limits.check("counts_up_to target", limit, "COUNT")
    mask = (1 << 32 * (limit + 1)) - 1
    layer = ((1 << 32 * min(s, limit)) - 1) // 0xFFFFFFFF << 32
    total = 0
    i = 1
    while (big := (1 << i) + s - 1) <= limit:
        total += layer
        layer = ((layer << 32 * s) + (layer << 32 * big)) & mask
        i += 1
    for j in range((limit // s).bit_length()):  # s * 2**j <= limit
        layer += (layer << 32 * (s << j)) & mask
    return list(struct.unpack(f"<{limit + 1}I",
                              (total + layer).to_bytes(4 * (limit + 1), "little")))


def count_compositions(s: int, n: int) -> int:
    """Number of compositions of n; ``counts_up_to(s, n)[n]``, so n is
    bounded by limits.COUNT."""
    if n < 1:
        raise ValueError("count_compositions needs n >= 1")
    return counts_up_to(s, n)[n]


def enumerate_compositions(s: int, n: int) -> list:
    """All compositions of n, as part lists in lexicographic order."""
    if n < 1:
        raise ValueError("enumerate_compositions needs n >= 1")
    limits.check("enumerate_compositions n", n, "ENUM_COMPOSITIONS")
    out = []
    prefix = []

    def extend(i, remaining):
        if remaining == 0:
            out.append(list(prefix))
            return
        for c in part_choices(s, i):
            if c <= remaining:
                prefix.append(c)
                extend(i + 1, remaining - c)
                prefix.pop()

    extend(0, n)
    return out
