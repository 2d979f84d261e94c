"""Compositions with position-dependent parts, counted and enumerated.

For shift s >= 1 a composition of n is a sequence x_0, x_1, ..., x_k with
x_0 in {1, ..., s} and x_i in {s, 2**i + s - 1} for i >= 1, summing to n.
The number of them is a(s, n); the count here is computed by a layered
dynamic program that never touches the recurrence.  The layers are run
only while the big part 2**i + s - 1 still fits under the limit; past
that, only the part s fits, so the remaining layers are shifts of the last
one by s, 2s, ... and are folded in with one strided running sum.
"""

from __future__ import annotations

from operator import add

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

    layer[r] holds the number of ways to reach sum r using positions
    0..i exactly; each finished layer is folded into the totals.  Once the
    big part 2**i + s - 1 exceeds limit, position i and every later one can
    only take the part s, so the layers still to come are the current one
    shifted by s, 2s, ...; a strided running sum adds them all at once.
    O(limit * log limit) in all.
    """
    if s < 1:
        raise ValueError("composition rules need s >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    limits.check("counts_up_to target", limit, "COUNT")
    total = [0] * (limit + 1)
    layer = [0] * (limit + 1)
    for x in range(1, min(s, limit) + 1):
        layer[x] = 1
    i = 1
    while (big := (1 << i) + s - 1) <= limit:
        total = list(map(add, total, layer))
        nxt = [0] * s + layer[: limit + 1 - s]
        nxt[big:] = map(add, nxt[big:], layer[: limit + 1 - big])
        layer = nxt
        i += 1
    for r in range(s, limit + 1):
        layer[r] += layer[r - s]
    return list(map(add, total, layer))


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
