"""The list builders the packed series builders replaced, kept as test-only
references: the same formulas, one Python list of coefficients each, so a
fault in the packed form's masks, shifts or decoding shows as a mismatch.
Each list holds exactly order + 1 coefficients, and each builder wraps its
list in a TruncatedSeries only at the end."""

import itertools
import operator

from metafib.series import TruncatedSeries


def _zeros(order: int) -> list:
    """order + 1 zeros; the public constructor checks the order first."""
    return list(TruncatedSeries((), order).coeffs)


def _monomial(k: int, order: int) -> list:
    """z**k cut at the order."""
    c = _zeros(order)
    if k <= order:
        c[k] = 1
    return c


def _add(x: list, y: list) -> list:
    return list(map(operator.add, x, y))


def _sub(x: list, y: list) -> list:
    return list(map(operator.sub, x, y))


def _shift(x: list, k: int) -> list:
    """x times z**k; coefficients above the order fall off."""
    keep = max(len(x) - k, 0)
    return [0] * (len(x) - keep) + x[:keep]


def gf_ruler(order: int) -> TruncatedSeries:
    """Sum over k of z**(2**k) / (1 - z**(2**k)); coefficient n is ruler(n)."""
    c = _zeros(order)
    k = 1
    while k <= order:
        for i in range(k, order + 1, k):
            c[i] += 1
        k <<= 1
    return TruncatedSeries(c, order)


def _times_doubling_product(c: list, top: int) -> list:
    """c times prod (1 + z**(2**j - 1)), j = 1..top; past the order a factor is 1."""
    for j in range(1, min(top, (len(c) - 1).bit_length()) + 1):
        c = _add(c, _shift(c, (1 << j) - 1))
    return c


def gf_Dn(n: int, order: int) -> TruncatedSeries:
    """Generating function of the word D_n.

    Equals z**(n+1) times the product of (1 + z**(2**j - 1)) for j = 1..n;
    its support is exactly the set of 1-positions of word_D(n).
    """
    if n < 0:
        raise ValueError("gf_Dn needs n >= 0")
    return TruncatedSeries(_times_doubling_product(_monomial(n + 1, order), n), order)


def gf_D0(order: int) -> TruncatedSeries:
    """z times the product over n >= 1 of (1 + z**(2**n - 1)).

    Coefficient of z**n is d(0, n).
    """
    return TruncatedSeries(_times_doubling_product(_monomial(1, order), order), order)


def gf_Ds_sum(s: int, order: int) -> TruncatedSeries:
    """The shift-s leaf stream as a sum of shifted block series.

    z plus, for each m >= 0, the series of D_m shifted to the block offset
    2**(m+1) + (s-1)(m+1).  Coefficient of z**n is d(s, n).
    """
    if s < 0:
        raise ValueError("gf_Ds_sum needs s >= 0")
    c = _monomial(1, order)
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
    return TruncatedSeries(c, order)


def gf_Ds_nested(s: int, order: int) -> TruncatedSeries:
    """The same stream from the nested product form, evaluated inside out.

    The nesting is cut at the smallest depth with 2**depth > order; the
    levels below that depth only reach powers of z above 2**depth, so the
    cut is exact.
    """
    if s < 0:
        raise ValueError("gf_Ds_nested needs s >= 0")
    one = _monomial(0, order)
    t = one
    for k in range(max(1, order.bit_length()), 0, -1):
        t = _add(one, _shift(_add(t, _shift(t, (1 << k) - 1)), s + (1 << k)))
    return TruncatedSeries(_shift(_add(one, _shift(t, s + 1)), 1), order)


def gf_As(s: int, order: int) -> TruncatedSeries:
    """Closed product form for the shift-s leaf counts; needs s >= 1.

    (1 + z + ... + z**(s-1)) * (z + z * sum over n >= 1 of the products
    prod_{k=1..n} (z**s + z**(2**k + s - 1))).  Coefficient of z**n is
    a(s, n).  For s = 0 use gf_A_from_D.  Once 2**n + s - 1 passes the
    order every factor is z**s, so the tail is prod * z**s / (1 - z**s); the
    front factor (1 - z**s) / (1 - z) cancels that denominator, leaving
    (acc * (1 - z**s) + prod * z**s) * z prefix-summed, acc = 1 + the sum.
    """
    if s < 1:
        raise ValueError("gf_As needs s >= 1 (use gf_A_from_D for s = 0)")
    prod = acc = _monomial(0, order)
    n = 1
    while (t := (1 << n) + s - 1) <= order:
        prod = _add(_shift(prod, s), _shift(prod, t))
        acc = _add(acc, prod)
        n += 1
    terms = _shift(_add(acc, _shift(_sub(prod, acc), s)), 1)
    return TruncatedSeries(itertools.accumulate(terms), order)


def gf_A_from_D(s: int, order: int) -> TruncatedSeries:
    """Leaf counts as prefix sums of the leaf stream; valid for every s >= 0."""
    return TruncatedSeries(itertools.accumulate(gf_Ds_sum(s, order).coeffs), order)


def gf_Ps(s: int, order: int) -> TruncatedSeries:
    """Generating function of the leaf positions.

    Prefix sums of 1 + z * gf_ruler + s * (sum over k >= 0 of z**(2**k + 1)):
    p's differences are the ruler plus s at powers of two.  Coefficient of z**n is p(s, n) for n >= 1; the
    constant term is 1.
    """
    if s < 0:
        raise ValueError("gf_Ps needs s >= 0")
    c = _shift(list(gf_ruler(order).coeffs), 1)
    c[0] = 1
    k = 1
    while k < order:
        c[k + 1] += s
        k <<= 1
    return TruncatedSeries(itertools.accumulate(c), order)
