"""Exact arithmetic for the free 2-nilpotent group on two generators, its
positive monoid with the integral chain order, and the dyadic ordered group
used as the non-Hamiltonian witness chain.

Elements of the free 2-nilpotent group are written in the normal form
x^alpha y^beta [y,x]^gamma and stored as integer triples.  The product law

    (a1,b1,g1)(a2,b2,g2) = (a1+a2, b1+b2, g1+g2+b1*a2)

agrees with multiplication of 3x3 unitriangular integer matrices under the
assignment alpha -> (2,3) entry, beta -> (1,2), gamma -> (1,3); the matrix
route is kept alongside as an independent oracle.

Every triple is built as `HeisTriple(a, b, g)`.  `heis_mul` wraps the
private `_mul`, the product on plain int triples; `omon.S2Instance.mul` is
`_mul`, so its products (and `eval_term` products on S2) are plain triples
equal to their `HeisTriple` form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from ._check import check_instance, check_int

__all__ = [
    "HeisTriple",
    "HEIS_UNIT",
    "heis_mul",
    "heis_inv",
    "heis_pow",
    "heis_commutator",
    "to_matrix",
    "from_matrix",
    "mat_mul",
    "s2_member",
    "s2_require",
    "heis_cmp",
    "s2_cmp",
    "s2_box",
    "nth_root",
    "DyadicPair",
    "DYADIC_UNIT",
    "parse_fraction",
    "dyadic_mul",
    "dyadic_inv",
    "dyadic_pow",
    "DYADIC_POW_BOUND",
    "dyadic_cmp",
    "dyadic_conjugate",
]


class HeisTriple(NamedTuple):
    """Normal-form exponents (alpha, beta, gamma); arbitrary precision.

    A plain int tuple: it equals and hashes like (alpha, beta, gamma), and
    compares lexicographically.  On a tuple `*` means repetition, so
    multiply with `heis_mul` and take powers with `heis_pow`."""

    alpha: int
    beta: int
    gamma: int

    def triple(self) -> tuple[int, int, int]:
        return tuple(self)


HEIS_UNIT = HeisTriple(0, 0, 0)


def _mul(g: tuple, h: tuple) -> tuple[int, int, int]:
    a1, b1, g1 = g
    a2, b2, g2 = h
    return (a1 + a2, b1 + b2, g1 + g2 + b1 * a2)


def heis_mul(g: HeisTriple, h: HeisTriple) -> HeisTriple:
    return HeisTriple._make(_mul(g, h))


def heis_inv(g: HeisTriple) -> HeisTriple:
    a, b, c = g
    return HeisTriple(-a, -b, a * b - c)


def _check_triple(g) -> None:
    if not (isinstance(g, tuple) and len(g) == 3 and all(x.__class__ is int for x in g)):
        raise ValueError(f"g must be a triple of ints, got {g!r}")


def heis_pow(g: HeisTriple, n: int) -> HeisTriple:
    """g**n in closed form: (n*alpha, n*beta, n*gamma + C(n,2)*alpha*beta).
    Raises ValueError unless g is a triple of ints."""
    check_int(n, "exponent")
    _check_triple(g)
    if n < 0:
        g, n = heis_inv(g), -n
    a, b, c = g
    return HeisTriple(n * a, n * b, n * c + n * (n - 1) // 2 * a * b)


def heis_commutator(g: HeisTriple, h: HeisTriple) -> HeisTriple:
    return heis_mul(heis_mul(heis_inv(g), heis_inv(h)), heis_mul(g, h))


# --- matrix oracle -----------------------------------------------------------

Matrix = tuple[tuple[int, int, int], ...]


def to_matrix(g: HeisTriple) -> Matrix:
    a, b, c = g
    return ((1, b, c), (0, 1, a), (0, 0, 1))


def from_matrix(m: Matrix) -> HeisTriple:
    return HeisTriple(m[1][2], m[0][1], m[0][2])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


# --- the positive monoid and its chain order ---------------------------------


def s2_member(g) -> bool:
    """Whether g is in the positive monoid: False, never an error, for any other value."""
    if not isinstance(g, tuple):
        return False
    try:
        alpha, beta, gamma = g
    except ValueError:  # not a triple
        return False
    return (alpha.__class__ is int and beta.__class__ is int and gamma.__class__ is int
            and alpha >= 0 and beta >= 0 and 0 <= gamma <= alpha * beta)


def s2_require(*gs: HeisTriple) -> None:
    """Raise ValueError naming the first of `gs` outside the positive monoid."""
    for g in gs:
        if not s2_member(g):
            shown = tuple(g) if isinstance(g, tuple) else repr(g)
            raise ValueError(f"{shown} is not in the positive monoid")


def heis_cmp(g: HeisTriple, h: HeisTriple) -> int:
    """The reverse-lexicographic order: g below h iff the triple of g is
    lexicographically above that of h.  Returns -1 / 0 / 1.  On the positive
    monoid it is the chain order, with the unit on top; it checks nothing."""
    if g == h:
        return 0
    return -1 if g > h else 1


def s2_cmp(g: HeisTriple, h: HeisTriple) -> int:
    """`heis_cmp` on two elements checked to be in the positive monoid."""
    s2_require(g, h)
    return heis_cmp(g, h)


def s2_box(bound: int, *, gmax: Optional[int] = None) -> Iterator[HeisTriple]:
    """All monoid elements with alpha, beta <= bound and
    gamma <= min(alpha*beta, gmax), in ascending lexicographic triple order
    (which is descending chain order).  Both ints >= 0, checked at the call."""
    check_int(bound, "bound", 0)
    if gmax is not None:
        check_int(gmax, "gmax", 0)
    side = range(bound + 1)
    return (HeisTriple(a, b, g) for a in side for b in side
            for g in range(a * b + 1 if gmax is None else min(a * b, gmax) + 1))


def nth_root(g: HeisTriple, n: int) -> Optional[HeisTriple]:
    """The unique h with h**n == g, or None.  Closed form: h exists iff n
    divides alpha and beta and the corrected central exponent.  Raises
    ValueError unless g is a triple of ints."""
    check_int(n, "root degree", 1)
    _check_triple(g)
    alpha, beta, gamma = g
    if alpha % n or beta % n:
        return None
    a, b = alpha // n, beta // n
    rem = gamma - n * (n - 1) // 2 * a * b
    if rem % n:
        return None
    return HeisTriple(a, b, rem // n)


# --- the dyadic ordered group -------------------------------------------------


@dataclass(frozen=True)
class DyadicPair:
    """Element (r, n) of the semidirect product of the dyadic rationals by
    the integers, n acting by multiplication by 2**n.  Product:
    (r, n)(s, m) = (r + 2**n * s, n + m).  Ordered lexicographically with n
    dominant; this order is bi-invariant."""

    r: Fraction
    n: int

    def __post_init__(self):
        check_int(self.n, "n")
        if not isinstance(self.r, Fraction) and self.r.__class__ is not int:
            raise ValueError(f"r must be an int or a Fraction, got {self.r!r}")
        r = self.r if isinstance(self.r, Fraction) else Fraction(self.r)
        object.__setattr__(self, "r", r)
        if r.denominator & (r.denominator - 1):  # not a power of 2
            raise ValueError(f"{r} is not a dyadic rational")


DYADIC_UNIT = DyadicPair(Fraction(0), 0)


def dyadic_mul(g: DyadicPair, h: DyadicPair) -> DyadicPair:
    check_instance(g, "g", DyadicPair)
    check_instance(h, "h", DyadicPair)
    return DyadicPair(g.r + Fraction(2) ** g.n * h.r, g.n + h.n)


def dyadic_inv(g: DyadicPair) -> DyadicPair:
    check_instance(g, "g", DyadicPair)
    return DyadicPair(-(Fraction(2) ** (-g.n)) * g.r, -g.n)


DYADIC_POW_BOUND = 10_000
"""dyadic_pow refuses g**k with |k * g.n| above this: the result's numerator
or denominator would pass 2**10000, and printing it would approach
Python's limit on int-to-str conversion."""


def parse_fraction(text: str) -> Fraction:
    """`Fraction(text)`, raising ValueError for a non-str, a malformed literal,
    a zero denominator ("1/0") and a decimal exponent above DYADIC_POW_BOUND
    ("1e99999999"), which Fraction would expand in full."""
    if not isinstance(text, str):
        raise ValueError(f"fraction must be a string, got {text!r}")
    m = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", text)
    if m and abs(int(m.group(1))) > DYADIC_POW_BOUND:
        raise ValueError(f"exponent {m.group(1)} exceeds the dyadic power bound {DYADIC_POW_BOUND}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from None


def dyadic_pow(g: DyadicPair, k: int) -> DyadicPair:
    """g**k in closed form: (r*(2**(k*n) - 1)/(2**n - 1), k*n), or (k*r, 0)
    when n = 0."""
    check_instance(g, "g", DyadicPair)
    check_int(k, "exponent")
    if abs(k * g.n) > DYADIC_POW_BOUND:
        raise ValueError(f"|k*n| = {abs(k * g.n)} exceeds the dyadic power bound {DYADIC_POW_BOUND}")
    if k < 0:
        return dyadic_pow(dyadic_inv(g), -k)
    if g.n == 0:
        return DyadicPair(k * g.r, 0)
    q = Fraction(2) ** g.n
    return DyadicPair(g.r * (q**k - 1) / (q - 1), k * g.n)


def dyadic_cmp(g: DyadicPair, h: DyadicPair) -> int:
    check_instance(g, "g", DyadicPair)
    check_instance(h, "h", DyadicPair)
    if (g.n, g.r) == (h.n, h.r):
        return 0
    return -1 if (g.n, g.r) < (h.n, h.r) else 1


def dyadic_conjugate(g: DyadicPair, b: DyadicPair) -> DyadicPair:
    check_instance(g, "g", DyadicPair)
    check_instance(b, "b", DyadicPair)
    return dyadic_mul(dyadic_mul(dyadic_inv(b), g), b)

