"""Exact truncated power series and the generating functions of the streams.

A TruncatedSeries holds integer coefficients c_0..c_N for a series known
mod z^(N+1).  All arithmetic is exact; the only divisions anywhere are by
units of the form 1 - z^m, handled by prefix sums.  Every series is built
through the constructor, which refuses an order above ``limits.OUTPUT``
before it allocates a coefficient.
"""

from __future__ import annotations

import itertools
import operator

from . import limits


class TruncatedSeries:
    """Integer coefficients modulo z**(order+1)."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs, order: int):
        coeffs = list(coeffs)
        if order < 0:
            raise ValueError("order must be >= 0")
        limits.check("series order", order, "OUTPUT")
        if len(coeffs) < order + 1:
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        else:
            del coeffs[order + 1 :]
        self.order = order
        self._c = coeffs

    @classmethod
    def _adopt(cls, coeffs: list, order: int) -> "TruncatedSeries":
        """Wrap a fresh list of exactly order + 1 coefficients, uncopied."""
        series = cls.__new__(cls)
        series.order = order
        series._c = coeffs
        return series

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def monomial(cls, exponent: int, order: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        out = cls.zero(order)
        if exponent <= order:
            out._c[exponent] = 1
        return out

    @property
    def coeffs(self) -> tuple:
        return tuple(self._c)

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

    # Every _c holds exactly order + 1 coefficients, so map stops at the
    # lower order of the two operands.
    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries._adopt(list(map(operator.add, self._c, other._c)), n)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries._adopt(list(map(operator.sub, self._c, other._c)), n)

    def shift_by_power(self, k: int) -> "TruncatedSeries":
        """Multiply by z**k (coefficients above the order fall off)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        n = self.order
        keep = max(n + 1 - k, 0)
        out = [0] * (n + 1 - keep)
        out += self._c[:keep]
        return TruncatedSeries._adopt(out, n)

    def prefix_sums(self) -> "TruncatedSeries":
        """Divide by 1 - z: running sums of the coefficients."""
        return TruncatedSeries._adopt(list(itertools.accumulate(self._c)), self.order)


def gf_ruler(order: int) -> TruncatedSeries:
    """Sum over k of z**(2**k) / (1 - z**(2**k)); coefficient n is ruler(n)."""
    out = TruncatedSeries.zero(order)
    c = out._c
    k = 1
    while k <= order:
        for i in range(k, order + 1, k):
            c[i] += 1
        k <<= 1
    return out


def _times_one_plus_power(series: TruncatedSeries, t: int) -> TruncatedSeries:
    return series + series.shift_by_power(t)


def gf_Dn(n: int, order: int) -> TruncatedSeries:
    """Generating function of the word D_n.

    Equals z**(n+1) times the product of (1 + z**(2**j - 1)) for j = 1..n;
    its support is exactly the set of 1-positions of word_D(n).
    """
    if n < 0:
        raise ValueError("gf_Dn needs n >= 0")
    out = TruncatedSeries.monomial(n + 1, order)
    for j in range(1, n + 1):
        t = (1 << j) - 1
        if t > order:
            break
        out = _times_one_plus_power(out, t)
    return out


def gf_D0(order: int) -> TruncatedSeries:
    """z times the product over n >= 1 of (1 + z**(2**n - 1)).

    Coefficient of z**n is d(0, n).
    """
    out = TruncatedSeries.monomial(1, order)
    n = 1
    while (1 << n) - 1 <= order:
        out = _times_one_plus_power(out, (1 << n) - 1)
        n += 1
    return out


def gf_Ds_sum(s: int, order: int) -> TruncatedSeries:
    """The shift-s leaf stream as a sum of shifted block series.

    z plus, for each m >= 0, the series of D_m shifted to the block offset
    2**(m+1) + (s-1)(m+1).  Coefficient of z**n is d(s, n).
    """
    if s < 0:
        raise ValueError("gf_Ds_sum needs s >= 0")
    out = TruncatedSeries.monomial(1, order)
    c = out._c
    dm = [0, 1]  # coefficients of D_0 = z, up to its degree
    m = 0
    while True:
        offset = (1 << (m + 1)) + (s - 1) * (m + 1)
        if offset > order:
            break
        # add the block into its own window only
        end = min(offset + len(dm), order + 1)
        c[offset:end] = map(operator.add, c[offset:end], dm)
        # D_{m+1}(z) = z * (1 + z**(2**(m+1) - 1)) * D_m(z), cut at the order
        t = (1 << (m + 1)) - 1
        nxt = [0, *dm] + [0] * t
        nxt[t + 1 :] = map(operator.add, nxt[t + 1 :], dm)
        dm = nxt[: order + 1]
        m += 1
    return out


def gf_Ds_nested(s: int, order: int) -> TruncatedSeries:
    """The same stream from the nested product form, evaluated inside out.

    The nesting is cut at the smallest depth with 2**depth > order; the
    levels below that depth only reach powers of z above 2**depth, so the
    cut is exact.
    """
    if s < 0:
        raise ValueError("gf_Ds_nested needs s >= 0")
    one = TruncatedSeries.one(order)
    t = one
    for k in range(max(1, order.bit_length()), 0, -1):
        t = one + _times_one_plus_power(t, (1 << k) - 1).shift_by_power(s + (1 << k))
    return (one + t.shift_by_power(s + 1)).shift_by_power(1)


def _strided_tail(series: TruncatedSeries, stride: int) -> TruncatedSeries:
    """series * (z**stride + z**(2*stride) + ...)."""
    n = series.order
    src = series._c
    out = [0] * (n + 1)
    for i in range(stride, n + 1):
        out[i] = out[i - stride] + src[i - stride]
    return TruncatedSeries._adopt(out, n)


def gf_As(s: int, order: int) -> TruncatedSeries:
    """Closed product form for the shift-s leaf counts; needs s >= 1.

    (1 + z + ... + z**(s-1)) * (z + z * sum over n >= 1 of the products
    prod_{k=1..n} (z**s + z**(2**k + s - 1))).  Coefficient of z**n is
    a(s, n).  For s = 0 use gf_A_from_D.
    """
    if s < 1:
        raise ValueError("gf_As needs s >= 1 (use gf_A_from_D for s = 0)")
    prod = TruncatedSeries.one(order)
    acc = TruncatedSeries.zero(order)
    n = 1
    while n * s <= order:
        t = (1 << n) + s - 1
        if t > order:
            # every later factor reduces to z**s; close the geometric tail
            acc = acc + _strided_tail(prod, s)
            break
        prod = prod.shift_by_power(s) + prod.shift_by_power(t)
        acc = acc + prod
        n += 1
    inner = (TruncatedSeries.one(order) + acc).shift_by_power(1)
    # times the front factor (1 - z**s) / (1 - z)
    return (inner - inner.shift_by_power(s)).prefix_sums()


def gf_A_from_D(s: int, order: int) -> TruncatedSeries:
    """Leaf counts as prefix sums of the leaf stream; valid for every s >= 0."""
    return gf_Ds_sum(s, order).prefix_sums()


def gf_Ps(s: int, order: int) -> TruncatedSeries:
    """Generating function of the leaf positions.

    Prefix sums of 1 + z * sum over k >= 0 of z**(2**k) (s + 1/(1-z**(2**k))).
    Coefficient of z**n is p(s, n) for n >= 1; the constant term is 1.
    """
    if s < 0:
        raise ValueError("gf_Ps needs s >= 0")
    out = TruncatedSeries.one(order)
    c = out._c
    k = 1
    while k + 1 <= order:
        c[k + 1] += s
        for i in range(k + 1, order + 1, k):
            c[i] += 1
        k <<= 1
    return out.prefix_sums()
