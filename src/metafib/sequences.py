"""Self-referential leaf-count sequences and their fast evaluators.

The forest with delay ``s`` strings together complete binary trees of sizes
1, 1, 3, 7, ..., 2**h - 1, ... along a path whose nodes each absorb ``s``
preorder labels.  Three sequences describe it:

* ``a(s, n)``  leaves among the first ``n`` preorder labels,
* ``d(s, n)``  1 if label ``n`` is a leaf, else 0,
* ``p(s, n)``  label of the n-th leaf.

``a`` satisfies a nested recurrence (its own values feed back into its
indices).  One engine, ``SequenceTable``, grows every instance of that
recurrence family (``GenericMetaFibSpec``), the shift-s forests included;
``d`` is a difference of ``a`` and ``p`` has a closed form.  Everything else
in this module is a faster or structurally different route to the same
numbers so that they can be cross-checked.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


def ruler(n: int) -> int:
    """One plus the exponent of the largest power of 2 dividing n."""
    if n < 1:
        raise ValueError("ruler(n) needs n >= 1")
    return (n & -n).bit_length()


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ...  (1 counts as a power of two)."""
    return n >= 1 and n & (n - 1) == 0


class _Dead:
    """Outcome of a self-referential recurrence that ran off its own tape."""

    __slots__ = ()

    def __repr__(self):
        return "DEAD"


DEAD = _Dead()


@dataclass(frozen=True)
class GenericMetaFibSpec:
    """Recurrence a(n) = a(n - alpha - a(n-1)) + a(n - beta - a(n-2)).

    ``initial_values`` seed indices 0..len-1.  The shift-s family is the
    instance alpha = s, beta = s + 1 seeded with ones and a final 2.
    """

    alpha: int
    beta: int
    initial_values: tuple

    def __post_init__(self):
        object.__setattr__(self, "initial_values", tuple(self.initial_values))
        if not self.initial_values:
            raise ValueError("initial_values must be nonempty")
        if any(v < 1 for v in self.initial_values):
            raise ValueError("initial_values must all be >= 1")


def shift_family_spec(s: int) -> GenericMetaFibSpec:
    """The generic-recurrence instance that reproduces a(s, .)."""
    if s < 0:
        raise ValueError("shift must be >= 0")
    return GenericMetaFibSpec(s, s + 1, tuple([1] * (s + 2) + [2]))


# SequenceTable builds its spec through this private name, so a wrapper put
# over the public ``shift_family_spec`` (perfbench's span tracer installs
# one) never adds a call to the path of ``a`` and ``d``.
_shift_spec = shift_family_spec


class SequenceTable:
    """Append-only memo of one instance of the recurrence family.

    ``SequenceTable(s)`` is the shift-s instance (``shift_family_spec``),
    whose indices provably never escape: if one does, that is a bug and
    ``RuntimeError`` is raised.  A generic instance (``generic_metafib``)
    instead stops growing at its first escaping index and answers DEAD
    from there on.  Values already handed out never change; growth is
    serialized by an internal lock so a table may be shared across threads.
    """

    def __init__(self, shift: int):
        self._start(_shift_spec(shift), shift)

    @classmethod
    def _generic(cls, spec: GenericMetaFibSpec) -> SequenceTable:
        table = cls.__new__(cls)
        table._start(spec, None)
        return table

    def _start(self, spec: GenericMetaFibSpec, shift) -> None:
        self._spec = spec
        self.shift = shift  # None for a generic instance
        self._a = list(spec.initial_values)
        self._dead = False
        self._lock = threading.Lock()

    def extend_to(self, n: int) -> None:
        """Grow the memo through index n, or up to the escape of a generic one."""
        with self._lock:
            vals = self._a
            alpha, beta = self._spec.alpha, self._spec.beta
            m = len(vals)
            while m <= n and not self._dead:
                i = m - alpha - vals[m - 1]
                j = m - beta - vals[m - 2]
                if m < 2 or not (0 <= i < m and 0 <= j < m):
                    if self.shift is not None:
                        # Cannot happen if the recurrence is implemented correctly.
                        raise RuntimeError(
                            f"recurrence argument out of range at shift={self.shift} "
                            f"n={m}: {i}, {j}"
                        )
                    self._dead = True
                    break
                vals.append(vals[i] + vals[j])
                m += 1

    def a(self, n: int):
        if n < 0:
            raise ValueError("a(s, n) needs n >= 0")
        self.extend_to(n)
        return self._a[n] if n < len(self._a) else DEAD

    def d(self, n: int) -> int:
        if n < 1:
            raise ValueError("d(s, n) needs n >= 1")
        if n == 1:
            return 1
        return self.a(n) - self.a(n - 1)

    def prefix(self, n: int) -> list:
        """Values a(0..n) as a list (a copy; safe to mutate)."""
        self.extend_to(n)
        return self._a[: n + 1]


# One table per shift s (key: the int) and per generic spec (key: the spec).
_tables: dict = {}
_tables_lock = threading.Lock()


def _shared(key, make) -> SequenceTable:
    with _tables_lock:
        t = _tables.get(key)
        if t is None:
            t = _tables[key] = make()
        return t


def table(s: int) -> SequenceTable:
    """Shared memo table for shift ``s``."""
    return _shared(s, lambda: SequenceTable(s))


def a(s: int, n: int) -> int:
    return table(s).a(n)


def d(s: int, n: int) -> int:
    return table(s).d(n)


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

    Repeatedly writes n = 2**h - 1 + k with 0 <= k < 2**h and collects
    2**(h-1).  The terminal k = 0 contributes nothing; only the top-level
    call maps 0 to the base value 1.
    """
    if n < 0:
        raise ValueError("a0_fast(n) needs n >= 0")
    if n == 0:
        return 1
    total = 0
    while n > 1:
        h = (n + 1).bit_length() - 1  # 2**h <= n+1 < 2**(h+1)
        total += 1 << (h - 1)
        n -= (1 << h) - 1
    return total + n


def a1_fast(n: int) -> int:
    """Shift-1 values via a0_fast(n - floor(lg n))."""
    if n < 1:
        raise ValueError("a1_fast(n) needs n >= 1")
    return a0_fast(n - n.bit_length() + 1)


def _block(s: int, n: int) -> int:
    """Index h >= 1 of the block (path nodes + subtree h) containing label n.

    Block h covers labels 2**h + (s-1)h - s + 1 .. 2**(h+1) + (s-1)h - 1;
    consecutive blocks tile everything from label 2 on.
    """
    h = max(1, n.bit_length() - 1)
    while (1 << h) + (s - 1) * h - s + 1 > n:
        h -= 1
    while (1 << (h + 1)) + (s - 1) * h - 1 < n:
        h += 1
    return h


def as_via_a0(s: int, n: int) -> int:
    """a(s, n) by translating subtree labels back to the shift-0 forest.

    Inside subtree h the label exceeds its shift-0 twin by s*h; on the
    path between subtrees h-1 and h the answer is 2**(h-1) outright.
    """
    if s < 0 or n < 1:
        raise ValueError("as_via_a0 needs s >= 0, n >= 1")
    if n <= s + 1:
        return 1
    h = _block(s, n)
    if n <= (1 << h) + (s - 1) * h:
        return 1 << (h - 1)
    return a0_fast(n - s * h)


_descent_memo: dict = {}


def as_descent(s: int, n: int) -> int:
    """a(s, n) by descending into the left or right half of the subtree.

    Each step maps the query into the previous block, accumulating the
    leaves skipped over, and bottoms out in the small-n base values.
    Results are memoized per shift, so ascending sweeps cost O(1) a call.
    """
    if s < 0 or n < 1:
        raise ValueError("as_descent needs s >= 0, n >= 1")
    memo = _descent_memo.setdefault(s, {})
    total = 0
    trail = []
    while True:
        known = memo.get(n)
        if known is not None:
            value = total + known
            break
        if n <= s + 1:
            value = total + 1
            break
        if n == s + 2:
            value = total + 2
            break
        h = _block(s, n)
        root = (1 << h) + (s - 1) * h + 1
        if n <= root:
            # a path node, or the subtree root itself (internal for h >= 2)
            value = total + (1 << (h - 1))
            break
        trail.append((n, total))
        if n < root + (1 << (h - 1)):
            total += 1 << (h - 2)
            n -= (1 << (h - 1)) + s
        else:
            total += 1 << (h - 1)
            n -= (1 << h) + s - 1
    for start, base in trail:
        memo[start] = value - base
    return value


def generic_metafib(spec: GenericMetaFibSpec, n: int):
    """Evaluate any instance of the recurrence; DEAD once an index escapes.

    An out-of-range argument is not an error: the sequence simply stops
    existing from that point on, and DEAD is returned for it and every
    larger index.  Each spec gets one shared ``SequenceTable``, kept beside
    the shift tables of ``table``.
    """
    if n < 0:
        raise ValueError("generic_metafib needs n >= 0")
    return _shared(spec, lambda: SequenceTable._generic(spec)).a(n)
