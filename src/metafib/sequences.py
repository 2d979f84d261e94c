"""Self-referential leaf-count sequences and their fast evaluators.

The forest with delay ``s`` strings together complete binary trees of sizes
1, 1, 3, 7, ..., 2**h - 1, ... along a path whose nodes each absorb ``s``
preorder labels.  Three sequences describe it:

* ``a(s, n)``  leaves among the first ``n`` preorder labels,
* ``d(s, n)``  1 if label ``n`` is a leaf, else 0,
* ``p(s, n)``  label of the n-th leaf.

``a`` satisfies a nested recurrence (its own values feed back into its
indices).  One engine, ``SequenceTable``, grows it for each shift s;
``d`` is a difference of ``a`` and ``p`` has a closed form.  The public
``a`` reads the shared tables only for s + 1 < n <= ``_MEMO_TOP``, so no
point query grows a table past that bound or builds one for the s + 1 base
values; elsewhere it answers in closed form.  The public ``d`` is the leaf
test p(s, a(s, n)) == n at every n and reads no table.  ``SequenceTable``
itself is uncapped and stays the oracle.  Everything else in this module is
a faster or structurally different route to the same numbers so that they
can be cross-checked.

Both memos hold machine integers from the stdlib ``array`` module, not
boxed ints: a table takes 8 bytes a value, and the ``as_descent`` memo is
one fixed array of _DESCENT_MEMO_TOP + 1 slots shared by every shift,
allocated once at import.
"""

from __future__ import annotations

import operator
import threading
from array import array

from . import limits

# The public a reads the shared tables only for s + 1 < n <= _MEMO_TOP; at
# the s + 1 base values and above the bound it uses the O(log n) closed
# forms, which cost less than growing a table.  The public d reads no table
# at any n: its leaf test costs less than a table read (200k calls at
# n <= 2^13: ~0.2 s against ~0.5 s, 2-core host).  The smallest power of two
# that keeps a(2, 5000) on the table path, which the perfbench tracer test
# follows.  On perfbench point-queries (2-core host) the median wall_s was
# 0.23 s here, 0.30 s at 2^15 and 0.55 s at 2^17.
_MEMO_TOP = 1 << 13

# Largest start the descent memo keeps.  The smallest power of two at which
# verify full's ascending 7 x 100000 as_descent sweep takes as few descent
# steps as an unbounded memo (within 0.02%; 2^15 takes 17% more), with a
# third fewer entries than 2^17.  The memo is one array("I") of
# _DESCENT_MEMO_TOP + 1 slots for every shift together, 256 KiB where a C
# unsigned int is 4 bytes, so its size does not grow with the shifts seen.
_DESCENT_MEMO_TOP = 1 << 16


def ruler(n: int) -> int:
    """One plus the exponent of the largest power of 2 dividing n."""
    if n < 1:
        raise ValueError("ruler(n) needs n >= 1")
    return (n & -n).bit_length()


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ...  (1 counts as a power of two)."""
    return n >= 1 and n & (n - 1) == 0


class SequenceTable:
    """Append-only memo of the shift-s recurrence
    a(n) = a(n - s - a(n-1)) + a(n - s - 1 - a(n-2)), seeded with s + 2
    ones and a final 2.

    The values are held as 8-byte machine integers (``array("q")``); every
    reader hands out ints or fresh lists.  Its indices provably never
    escape the values already defined; if one does, that is a bug and
    ``RuntimeError`` is raised.  Values already handed out never change;
    growth is serialized by an internal lock so a table may be shared
    across threads.
    """

    def __init__(self, shift: int):
        if shift < 0:
            raise ValueError("shift must be >= 0")
        limits.check("shift table seed values s + 3", shift + 3, "OUTPUT")
        self.shift = shift
        self._a = array("q", [1]) * (shift + 2)
        self._a.append(2)
        self._lock = threading.Lock()

    def extend_to(self, n: int) -> None:
        """Grow the memo through index n."""
        with self._lock:
            vals = self._a
            s = self.shift
            m = len(vals)
            if m > n:
                return
            # a(m - 2) and a(m - 1) ride in locals, so each step reads
            # (and boxes) two array items, not four
            append = vals.append
            older, last = vals[m - 2], vals[m - 1]
            while m <= n:
                i = m - s - last
                j = m - s - 1 - older
                if not (0 <= i < m and 0 <= j < m):
                    # Cannot happen if the recurrence is implemented correctly.
                    raise RuntimeError(
                        f"recurrence argument out of range at shift={s} n={m}: {i}, {j}"
                    )
                older, last = last, vals[i] + vals[j]
                append(last)
                m += 1

    def a(self, n: int) -> int:
        if n < 0:
            raise ValueError("a(s, n) needs n >= 0")
        self.extend_to(n)
        return self._a[n]

    def values(self, lo: int, hi: int) -> list:
        """Values a(lo..hi) as a list (a copy; safe to mutate); one growth."""
        if lo < 0:
            raise ValueError("a(s, n) needs n >= 0")
        self.extend_to(hi)
        return self._a[lo : hi + 1].tolist()

    def d_values(self, lo: int, hi: int) -> list:
        """Values d(lo..hi), differences of one window ``values(lo - 1, hi)``."""
        if lo < 1:
            raise ValueError("d(s, n) needs n >= 1")
        window = self.values(lo - 1, hi)
        out = list(map(operator.sub, window[1:], window))
        if lo == 1 and out:
            out[0] = 1  # label 1 is a leaf; a(0) = a(1) = 1 by the base values
        return out


# One shared table per shift s.
_tables: dict = {}
_tables_lock = threading.Lock()


def table(s: int) -> SequenceTable:
    """Shared memo table for shift ``s``."""
    with _tables_lock:
        t = _tables.get(s)
        if t is None:
            t = _tables[s] = SequenceTable(s)
        return t


def a(s: int, n: int) -> int:
    """a(s, n): a shared table for s + 1 < n <= _MEMO_TOP, a closed form elsewhere."""
    if s + 1 < n <= _MEMO_TOP:
        return table(s).a(n)
    return as_via_a0(s, n)


def d(s: int, n: int) -> int:
    """d(s, n): label n is a leaf exactly when it is the label of the
    a(s, n)-th leaf.  O(log n) at every n, no table."""
    if s < 0 or n < 1:
        raise ValueError("d(s, n) needs s >= 0, n >= 1")
    return 1 if p(s, as_via_a0(s, n)) == n else 0


def p(s: int, n: int) -> int:
    """Label of the n-th leaf, in closed form: with k = n - 1,

        p(s, n) = 1 + 2k - popcount(k) + s * bitlen(k).

    The gaps p(s, m+1) - p(s, m) are ruler(m), plus s when m is a power of
    two; summing them over m < n gives the formula.  O(1) bit arithmetic,
    no memo.  ``verify`` checks it against the recurrence (first hits),
    the leaf stream and the generating function.
    """
    if s < 0 or n < 1:
        raise ValueError("p(s, n) needs s >= 0, n >= 1")
    k = n - 1
    return 1 + 2 * k - k.bit_count() + s * k.bit_length()


def a0_fast(n: int) -> int:
    """Shift-0 values in O(log n) by peeling doubling blocks.

    Each peel writes n = 2**h - 1 + k with 0 <= k < 2**h, collects 2**(h-1)
    and goes on with k; in terms of x = n + 1 it maps x to
    x - top_bit(x) + 1.  The peels stop at x <= 2, which adds x - 1: the
    terminal k = 0 contributes nothing, and only the top-level call maps
    n = 0 to the base value 1.  Below x = 256 the remaining peels are read
    from a table built by the same peel.

    Band invariant: split x = high + low with low = x & 255.  While high is
    nonzero each peel takes the top bit of high and adds 1 to low.  When
    low + popcount(high) <= 256, the j-th of those peels starts from
    low + j - 1 <= 255, so no +1 carries into high before high is used up
    (only the last one may reach bit 8); all popcount(high) peels together
    collect high // 2 and leave x = low + popcount(high).  The bound is
    tight: at 257 the carry can land on bit 8 of high.  Otherwise one
    ordinary peel is taken and the test repeats.
    """
    if n < 0:
        raise ValueError("a0_fast(n) needs n >= 0")
    return _a0_peel(n + 1) if n else 1


def _a0_peel(x: int) -> int:
    """The peels of a0_fast for x = n + 1 >= 1 (x = 1 gives the terminal 0)."""
    total = 0
    while x > 255:
        low = x & 255
        ones = (x >> 8).bit_count()
        if low + ones <= 256:
            total += (x - low) >> 1
            x = low + ones
        else:
            top = 1 << (x.bit_length() - 1)
            total += top >> 1
            x += 1 - top
    return total + _A0_PEELS[x]


def _small_peels() -> tuple:
    """_a0_peel(x) for 0 < x < 256 (entry 0 unused), one ordinary peel at a
    time: x > 2 peels to x - top_bit(x) + 1 < x, collecting top_bit(x) // 2."""
    out = [0, 0, 1]
    for x in range(3, 256):
        top = 1 << (x.bit_length() - 1)
        out.append((top >> 1) + out[x + 1 - top])
    return tuple(out)


_A0_PEELS = _small_peels()


def a1_fast(n: int) -> int:
    """Shift-1 values via a0_fast(n - floor(lg n))."""
    if n < 1:
        raise ValueError("a1_fast(n) needs n >= 1")
    return a0_fast(n - n.bit_length() + 1)


def _block(s: int, n: int) -> int:
    """Index h >= 1 of the block (path nodes + subtree h) holding label n >= 2.

    Block h covers labels 2**h + (s-1)h - s + 1 .. 2**(h+1) + (s-1)h - 1;
    consecutive blocks tile everything from label 2 on.  The guess
    h = bitlen(n) - 1 errs one way only: for s >= 1 its block ends at or
    after 2**(h+1) - 1 >= n, so h can only be too large; for s = 0 its
    block starts at or before 2**h <= n, so h can only be too small, and
    by one at most.
    """
    h = n.bit_length() - 1
    if s:
        while (1 << h) + (s - 1) * h - s + 1 > n:
            h -= 1
    elif (1 << (h + 1)) - h - 1 < n:
        h += 1
    return h


def as_via_a0(s: int, n: int) -> int:
    """a(s, n) by translating subtree labels back to the shift-0 forest.

    Inside subtree h the label exceeds its shift-0 twin by s*h; on the
    path between subtrees h-1 and h the answer is 2**(h-1) outright.
    """
    if s < 0 or n < 0:
        raise ValueError("as_via_a0 needs s >= 0, n >= 0")
    if n <= s + 1:
        return 1
    h = _block(s, n)
    if n <= (1 << h) + (s - 1) * h:
        return 1 << (h - 1)
    return _a0_peel(n - s * h + 1)  # a0_fast(n - s*h); that argument is >= 1


# Slot n holds (s + 1) << 16 | a(s, n) for the last shift s whose descent
# started at n; 0 means empty.  Both halves fit in 16 bits: a start n <= 2^16
# takes a step only when n > s + 2, and a(s, n) <= 32769 there.  One item
# store writes a slot, so no reader sees one shift's tag with another's value.
_descent_memo = array("I", [0]) * (_DESCENT_MEMO_TOP + 1)


def as_descent(s: int, n: int) -> int:
    """a(s, n) by descending into the left or right half of the subtree.

    Each step maps the query to the same place in subtree h - 1 (both
    halves of subtree h start where subtree h - 1 starts), accumulating
    the leaves skipped over, and bottoms out in the small-n base values or
    at a subtree root.  A descent memoizes its own start, and only a start
    up to _DESCENT_MEMO_TOP, so ascending sweeps cost O(1) a call while
    huge-n descents write nothing.  The memo is read before the descent and
    after each step, at nodes up to that bound; a slot counts only when its
    tag is this shift's, so every shift shares the one array.
    """
    if s < 0 or n < 1:
        raise ValueError("as_descent needs s >= 0, n >= 1")
    top = _DESCENT_MEMO_TOP
    memo = _descent_memo
    # a slot XOR the tag is its value when the tags match, else >= 2^16;
    # a tag past 32 bits (s >= 2^16 - 1) matches no slot
    tag = (s + 1) << 16
    if n <= top:
        known = memo[n] ^ tag
        if known < 1 << 16:
            return known
    if n <= s + 2:
        return 1 if n <= s + 1 else 2
    h = _block(s, n)
    root = (1 << h) + (s - 1) * h + 1
    if n <= root:
        # a path node, or the subtree root itself (internal for h >= 2)
        return 1 << (h - 1)
    start = n
    total = 0
    while True:
        half = 1 << (h - 1)
        if n < root + half:
            total += half >> 1
            n -= half + s
        else:
            total += half
            n -= (half << 1) + s - 1
        h -= 1
        if n <= top:
            known = memo[n] ^ tag
            if known < 1 << 16:
                break
        if h == 1:  # subtree 1 is the single leaf s + 2
            known = 2
            break
        root -= half + s - 1
        if n == root:
            known = half >> 1
            break
    value = total + known
    if start <= top:
        memo[start] = tag | value
    return value
