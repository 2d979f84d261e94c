"""Binary compact codes, the greedy deepest-level optimizer, and its bridges.

A code is the non-increasing tuple of leaf levels of an extended binary
tree; validity means the Kraft sum of 2**(-level) is exactly 1.  The same
code is its internal nodes per level, tau: tau_0 = 1, each count between 1
and twice the one above (level_counts and counts_to_code convert), and
enumerate_codes, the brute force behind M_oracle, walks every tau.  M(n, h)
is the most sibling leaf pairs any n-leaf height-h code can park at the
bottom level; the greedy construction attains it, and two slices of the
M table reproduce the shift-0 and shift-1 sequences.

Closed form served, greedy verified: M(n, h) = a(0, n - h) on its feasible
band, so the point calls M and b_seq are served by sequences.a0_fast and
a_max by a1_fast in O(log n), and the CLI's `codes mtable|amax|bseq`
dumps by the leaf-label walk sequences.a_window over the same slices.
The greedy bottom count _M_greedy stays the private route that ``verify``
compares them with, beside the exhaustive M_oracle.
"""

from __future__ import annotations

import operator
from collections import Counter

from . import limits, sequences


def _ceil_lg(n: int) -> int:
    return (n - 1).bit_length()


def validate_code(levels) -> tuple:
    """Check non-increasing positive levels with an exact Kraft sum of 1."""
    levels = tuple(levels)
    if len(levels) < 2:
        raise ValueError("codes need at least 2 leaves")
    if min(levels) < 1:
        raise ValueError("levels must be positive")
    if any(map(operator.lt, levels, levels[1:])):
        raise ValueError("levels must be non-increasing")
    h = levels[0]
    if h >= len(levels):  # n leaves reach height n - 1 at most; 2**h is not built
        raise ValueError("Kraft sum is not exactly 1")
    # one term per distinct level: a code of n leaves has at most h of them
    if sum(k << (h - l) for l, k in Counter(levels).items()) != 1 << h:
        raise ValueError("Kraft sum is not exactly 1")
    return levels


def validate_counts(tau) -> list:
    tau = list(tau)
    if not tau:
        raise ValueError("counts must be nonempty")
    if tau[0] != 1:
        raise ValueError("counts must start with a single root")
    for i in range(1, len(tau)):
        if not 1 <= tau[i] <= 2 * tau[i - 1]:
            raise ValueError("each count is between 1 and twice the previous")
    return tau


def level_counts(code) -> list:
    """Internal nodes per level, top down: tau_0 = 1, then 2*prev - leaves."""
    levels = validate_code(code)
    h = levels[0]
    leaves = [0] * (h + 1)
    for l in levels:
        leaves[l] += 1
    tau = [1]
    for i in range(1, h):
        tau.append(2 * tau[i - 1] - leaves[i])
    if 2 * tau[h - 1] != leaves[h]:
        raise ValueError("level counts do not close at the bottom")
    return tau


def counts_to_code(tau) -> tuple:
    """Inverse of level_counts: leaves at level i are 2*tau[i-1] - tau[i],
    deepest level first; n = sum(tau) + 1 is capped at limits.OUTPUT."""
    tau = validate_counts(tau)
    limits.check("counts_to_code leaves sum(tau) + 1", sum(tau) + 1, "OUTPUT")
    h = len(tau)
    levels = [h] * (2 * tau[-1])
    for i in range(h - 1, 0, -1):
        levels += [i] * (2 * tau[i - 1] - tau[i])
    return tuple(levels)


def enumerate_codes(n: int, h: int | None = None) -> list:
    """Every code with n leaves (and height exactly h, if given), sorted.

    Exhaustive over level counts: tau starts [1], each next count runs
    over 1..2*tau[-1] until the n - 1 internal nodes are placed, and
    counts_to_code turns each tau into its code; n is capped at
    limits.ENUM_CODES.
    """
    if n < 2:
        raise ValueError("codes need n >= 2")
    limits.check("enumerate_codes leaves n", n, "ENUM_CODES")
    if h is not None and h < 1:
        raise ValueError("height must be >= 1")
    results = []

    def grow(tau, left):
        if left == 0:
            if h is None or len(tau) == h:
                results.append(counts_to_code(tau))
        elif h is None or len(tau) < h <= len(tau) + left:
            for count in range(1, min(2 * tau[-1], left) + 1):
                tau.append(count)
                grow(tau, left - count)
                tau.pop()

    grow([1], n - 2)
    return sorted(results)


def _greedy_leaves(n: int, h: int) -> list:
    """Leaves per depth 0..h of the greedy code with n leaves and height h.

    Greedy splits a deepest leaf above the bottom, so a left subtree is
    complete before its right sibling is ever split.  Walking down the
    left spine with m leaves still to place at depth d, either the right
    child stays a single leaf and the walk goes left with m - 1, or the
    left subtree is complete and the walk goes right with the rest.
    """
    leaves = [0] * (h + 1)
    m, d = n, 0
    while m > 1:
        k = h - d - 1  # a child's subtree holds 2**k leaves at the bottom
        if (m - 2).bit_length() <= k:  # m - 1 <= 2**k, without building 2**k
            leaves[d + 1] += 1
            m -= 1
        else:
            leaves[h] += 1 << k
            m -= 1 << k
        d += 1
    leaves[d] += 1
    return leaves


def greedy_tree(n: int, h: int) -> tuple:
    """The greedy code with n leaves and height h.

    Greedy starts from (h, h, h-1, ..., 2, 1) and repeatedly splits the
    leftmost leaf lying above the bottom into a sibling pair one level
    down.  The code is read off the left-first descent of _greedy_leaves:
    O(h) plus the output size, with no state kept.
    """
    if h < 1:
        raise ValueError("height must be >= 1")
    limits.check("greedy_tree leaves n", n, "OUTPUT")  # before 1 << h is built
    if not h + 1 <= n <= 1 << h:
        raise ValueError(f"greedy_tree needs h+1 <= n <= 2**h, got n={n}, h={h}")
    leaves = _greedy_leaves(n, h)
    levels = [h] * leaves[h]  # all but at most two leaves a level sit at the bottom
    for depth in range(h - 1, 0, -1):
        levels += [depth] * leaves[depth]
    return tuple(levels)


def greedy_step_counts(tau) -> list:
    """One greedy step on level counts: bump the deepest slack level."""
    tau = validate_counts(tau)
    for k in range(len(tau) - 1, 0, -1):
        if tau[k] < 2 * tau[k - 1]:
            tau[k] += 1
            return tau
    raise ValueError("complete tree: every level is saturated")


def greedy_tree_unbounded(n: int) -> tuple:
    """The greedy code with n leaves at the minimum possible height.

    Built by the same stateless left-first descent as greedy_tree, in
    O(log n) plus the output size.
    """
    if n < 2:
        raise ValueError("codes need n >= 2")
    return greedy_tree(n, _ceil_lg(n))


def shrink(code) -> tuple:
    """Undo one growth step: the rightmost equal pair becomes one leaf above."""
    levels = validate_code(code)
    if len(levels) < 3:
        raise ValueError("shrink needs n >= 3")
    for j in range(len(levels) - 2, -1, -1):
        if levels[j] == levels[j + 1]:
            return levels[:j] + (levels[j] - 1,) + levels[j + 2 :]
    raise ValueError("no equal pair to shrink")  # impossible for valid codes


def _feasible(n: int, h: int) -> bool:
    """Check M's arguments; True iff some code has n leaves and height h."""
    if n < 2:
        raise ValueError("codes need n >= 2")
    if h < 1:
        raise ValueError("height must be >= 1")
    return _ceil_lg(n) <= h < n  # h + 1 <= n <= 2**h, without building 2**h


def M(n: int, h: int) -> int:
    """Most sibling leaf pairs at the bottom of an n-leaf height-h code.

    Zero when no such code exists (h too small for n leaves, or n too
    small for height h); otherwise the closed form a(0, n - h), served by
    a0_fast in O(log n) with no state.  ``verify`` checks it against the
    greedy bottom count _M_greedy and the brute force M_oracle.
    """
    return sequences.a0_fast(n - h) if _feasible(n, h) else 0


def _M_greedy(n: int, h: int) -> int:
    """M as the bottom of the greedy code, which is optimal, read off its
    left-first descent in O(h): the route ``verify`` checks M against."""
    if not _feasible(n, h):
        return 0
    limits.check("greedy M height h", h, "OUTPUT")  # _greedy_leaves builds h + 1 counts
    return _greedy_leaves(n, h)[h] // 2


def M_oracle(n: int, h: int) -> int:
    """M by brute force over all codes; n is bounded by enumerate_codes."""
    best = 0
    for code in enumerate_codes(n, h):
        best = max(best, level_counts(code)[h - 1])
    return best


def a_max(n: int) -> int:
    """Best bottom pair count over all heights; attained at the minimum one.

    Served in closed form as M(n, ceil(lg n)) = a(1, n - 1) by a1_fast;
    ``verify`` checks it on the greedy route.
    """
    if n < 2:
        raise ValueError("a_max needs n >= 2")
    return sequences.a1_fast(n - 1)


def b_seq(n: int) -> int:
    """M(n + h, h) for the smallest height h with n + h <= 2**h.

    Served in closed form as a(0, n); taking any larger height gives the
    same count, which ``verify`` checks on the greedy route.
    """
    if n < 1:
        raise ValueError("b_seq needs n >= 1")
    return sequences.a0_fast(n)


def max_ones_partition_brute(n: int, h: int) -> int:
    """Largest count of 1-parts in a partition of 2**h into n powers of two.

    Exhaustive search, independent of the code machinery; equals twice the
    pair optimum whenever a partition with 1s exists.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if h < 1:
        raise ValueError("height must be >= 1")
    limits.check("partition total 2**h", 1 << min(h, 64), "PARTITION", f"2**{h}")
    total = 1 << h
    best = -1

    def search(remaining, parts_left, largest, ones):
        nonlocal best
        if parts_left == 0:
            if remaining == 0:
                best = max(best, ones)
            return
        if remaining < parts_left or remaining > parts_left * largest:
            return
        part = largest
        while part >= 1:
            if part <= remaining:
                search(remaining - part, parts_left - 1, part,
                       ones + (part == 1))
            part >>= 1

    search(total, n, total, 0)
    return max(best, 0)
