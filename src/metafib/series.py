"""Exact truncated power series and the generating functions of the streams.

A TruncatedSeries holds any integer coefficients c_0..c_N (negative, or past
2^64 as in gf_Ps at s = 10^18) of a series known mod z^(N+1), as one
read-only tuple: ``coeffs`` is that tuple, uncopied.  Builders refuse an
order above ``limits.OUTPUT`` before they allocate.  Builders whose
docstrings bound the coefficients work in one packed int, decoded once,
coefficient i in bits [w*i, w*(i+1)).  Evaluation at z = 2**w maps
Z[z]/z^(N+1) onto Z/2^(w(N+1)) as rings, so ``+`` adds,
``(x << w*k) & mask`` multiplies by z**k, and fields may carry or go
negative midway: only the final ones must fit.  A shift with k > N is 0 at
once, never a w*k-bit int.
"""

from __future__ import annotations

import itertools
import sys
from array import array

from . import limits


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")
    limits.check("series order", order, "OUTPUT")


class TruncatedSeries:
    """Integer coefficients modulo z**(order+1), read-only."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs, order: int):
        _check_order(order)
        coeffs = tuple(itertools.islice(coeffs, order + 1))
        self.order, self._c = order, coeffs + (0,) * (order + 1 - len(coeffs))

    @classmethod
    def _adopt(cls, cells, order: int) -> "TruncatedSeries":
        """Wrap exactly order + 1 coefficients as a tuple, unchecked."""
        series = cls.__new__(cls)
        series.order, series._c = order, tuple(cells)
        return series

    @property
    def coeffs(self) -> tuple:
        return self._c

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside order {self.order}")
        return self._c[n]

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self._c) if c)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._c == other._c

    def __repr__(self):
        shown = ", ".join(f"{c}*z^{i}" for i, c in enumerate(self._c) if c)
        return f"TruncatedSeries(order={self.order}: {shown or '0'})"


def _packing(order: int, cell: str):
    """Check the order; up(x, k) is x * z**k cut at it, unpack(x) x's cell-wide fields."""
    _check_order(order)
    w = 8 * array(cell).itemsize
    mask = (1 << w * (order + 1)) - 1

    def up(x: int, k: int) -> int:
        return (x << w * k) & mask if k <= order else 0

    def unpack(x: int) -> TruncatedSeries:
        cells = (x & mask).to_bytes(w // 8 * (order + 1), "little")
        if w > 8:
            cells = array(cell, cells)
            if sys.byteorder == "big":
                cells.byteswap()
        return TruncatedSeries._adopt(cells, order)

    return up, unpack


def gf_ruler(order: int) -> TruncatedSeries:
    """Sum over k = 2**j of z**k / (1 - z**k); coefficient n is ruler(n) <= 23,
    a byte.  From the largest k down, ``multiples`` gains the factor 1 + z**k:
    it is 1 / (1 - z**k) = prod (1 + z**(k * 2**i)), a 1 at each multiple."""
    up, unpack = _packing(order, "B")
    multiples, total = 1, 0
    for j in range(order.bit_length() - 1, -1, -1):
        multiples += up(multiples, 1 << j)
        total += up(multiples, 1 << j)
    return unpack(total)


def _doubling_product(order: int, start: int, top: int) -> TruncatedSeries:
    """z**start times prod (1 + z**(2**j - 1)), j = 1..top: 0s and 1s in bytes."""
    up, unpack = _packing(order, "B")
    x = up(1, start)
    for j in range(1, min(top, order.bit_length()) + 1):
        x += up(x, (1 << j) - 1)
    return unpack(x)


def gf_Dn(n: int, order: int) -> TruncatedSeries:
    """z**(n+1) times the product of (1 + z**(2**j - 1)) for j = 1..n: the
    generating function of the word D_n, supported on its 1-positions."""
    if n < 0:
        raise ValueError("gf_Dn needs n >= 0")
    return _doubling_product(order, n + 1, n)


def gf_D0(order: int) -> TruncatedSeries:
    """z times the product over n >= 1 of (1 + z**(2**n - 1)); z**n has d(0, n)."""
    return _doubling_product(order, 1, order)


def gf_Ds_sum(s: int, order: int) -> TruncatedSeries:
    """The shift-s leaf stream as a sum of shifted block series.

    z plus, for each m >= 0, the series of D_m shifted to the block offset
    2**(m+1) + (s-1)(m+1).  Coefficient of z**n is d(s, n), a byte.
    """
    if s < 0:
        raise ValueError("gf_Ds_sum needs s >= 0")
    up, unpack = _packing(order, "B")
    out = dm = up(1, 1)  # z, and D_0 = z
    m = 0
    while (offset := (1 << (m + 1)) + (s - 1) * (m + 1)) <= order:
        out += up(dm, offset)
        # D_{m+1}(z) = z * (1 + z**(2**(m+1) - 1)) * D_m(z), cut at the order
        dm = up(dm + up(dm, (1 << (m + 1)) - 1), 1)
        m += 1
    return unpack(out)


def gf_Ds_nested(s: int, order: int) -> TruncatedSeries:
    """The same stream, 0s and 1s in bytes, from the nested product form
    evaluated inside out.  The nesting is cut at the smallest depth with
    2**depth > order; the levels below that depth only reach powers of z
    above 2**depth, so the cut is exact."""
    if s < 0:
        raise ValueError("gf_Ds_nested needs s >= 0")
    up, unpack = _packing(order, "B")
    t = 1
    for k in range(max(1, order.bit_length()), 0, -1):
        t = 1 + up(t + up(t, (1 << k) - 1), s + (1 << k))
    return unpack(up(1 + up(t, s + 1), 1))


def gf_As(s: int, order: int) -> TruncatedSeries:
    """Closed product form for the shift-s leaf counts; s = 0 is gf_A_from_D.

    (1 + z + ... + z**(s-1)) * (z + z * sum over n >= 1 of prod_{k=1..n}
    (z**s + z**(2**k + s - 1))); z**n has a(s, n) <= n, in 32 bits.  Once
    2**n + s - 1 passes the order every factor is z**s, and the front factor
    (1 - z**s) / (1 - z) cancels the tail's 1 - z**s: the series is
    (acc * (1 - z**s) + prod * z**s) * z / (1 - z), acc = 1 + the sum.
    """
    if s < 1:
        raise ValueError("gf_As needs s >= 1 (use gf_A_from_D for s = 0)")
    up, unpack = _packing(order, "I")
    prod = acc = n = 1
    while (t := (1 << n) + s - 1) <= order:
        prod = up(prod, s) + up(prod, t)
        acc += prod
        n += 1
    out = up(acc + up(prod - acc, s), 1)  # fields < 0 are exact mod the mask
    for j in range(order.bit_length()):  # 1 / (1 - z) = prod (1 + z**(2**j))
        out += up(out, 1 << j)
    return unpack(out)


def gf_A_from_D(s: int, order: int) -> TruncatedSeries:
    """Leaf counts as prefix sums of the leaf stream; valid for every s >= 0."""
    return TruncatedSeries._adopt(itertools.accumulate(gf_Ds_sum(s, order).coeffs), order)


def gf_Ps(s: int, order: int) -> TruncatedSeries:
    """Leaf positions, z**n with p(s, n) for n >= 1 and z**0 with 1: prefix sums
    of 1 + z * gf_ruler + s * (sum over k >= 0 of z**(2**k + 1)), since p's
    differences are the ruler plus s at powers of two."""
    if s < 0:
        raise ValueError("gf_Ps needs s >= 0")
    steps = [1, *gf_ruler(order).coeffs[:order]]
    for j in range(max(order - 1, 0).bit_length()):  # each power of two k < order
        steps[(1 << j) + 1] += s
    return TruncatedSeries._adopt(itertools.accumulate(steps), order)
