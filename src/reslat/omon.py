"""Infinite residuated chains given by rules, with residuals by bounded search.

Every infinite example is one `Chain` record: the free commutative chain
`M1Instance`, the positive 2-nilpotent monoid `S2Instance`, the dyadic
group `DyadicInstance` here, and the group of fractions `ore.F2Instance`.

For an integral total order on a finitely generated monoid the sets
{c : a*c <= b} always have greatest elements (the order satisfies the
ascending chain condition), so a residual can be found by streaming
candidates strictly descending from the unit and returning the first hit.
`residual_search` implements that first-hit search over a bounded box and
reports exhaustion explicitly; the closed forms (`m1_residual`,
`s2_residual`) are the production path and are tested against it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .nilpotent import (
    DYADIC_UNIT,
    DyadicPair,
    HEIS_UNIT,
    HeisTriple,
    dyadic_conjugate,
    dyadic_cmp,
    dyadic_inv,
    dyadic_mul,
    dyadic_pow,
    heis_cmp,
    heis_mul,
    s2_box,
    s2_member,
    s2_require,
)

__all__ = [
    "ResidualExhausted",
    "SEARCH_BOUND",
    "check_bound",
    "Chain",
    "M1Instance",
    "S2Instance",
    "DyadicInstance",
    "residual_search",
    "m1_mul",
    "m1_cmp",
    "m1_residual",
    "s2_residual",
    "m1_word",
    "m1_parse",
    "WitnessRow",
    "HamiltonianFailureReport",
    "hamvty_witness",
]


class ResidualExhausted(RuntimeError):
    """A bounded search ran out before a hit; the bound was too small.
    `what` names the object searched for: a residual, or an order witness."""

    def __init__(self, bound: int, what: str = "residual"):
        super().__init__(f"{what} search exhausted within bound {bound}")
        self.bound = bound
        self.what = what


SEARCH_BOUND = 32
"""residual_search and ore.frac_cmp_witness refuse a bound above this: an s2
residual scan visits about bound**4/4 candidates (279,873 at bound 32)."""


def check_bound(bound: int, least: int = 1) -> None:
    """Refuse a search bound below `least` or above SEARCH_BOUND with
    ValueError."""
    if bound < least:
        raise ValueError(f"bound must be >= {least}")
    if bound > SEARCH_BOUND:
        raise ValueError(f"bound {bound} exceeds the search bound {SEARCH_BOUND}")


@dataclass(frozen=True)
class Chain:
    """A totally ordered residuated monoid given by rules.

    `cmp(a, b)` is the total order (negative means strictly below).  The
    residuals follow the `a\\b`, `a/b` convention of `terms`: `ldiv(a, b)`
    is the greatest c with a*c <= b and `rdiv(a, b)` the greatest c with
    c*b <= a.  A chain that `residual_search` can scan also gives
    `candidates(bound)`, streaming elements strictly descending from the
    unit within a finite box, and `member(a)`, which the search checks its
    operands with before scanning, so that `cmp` itself validates nothing.
    """

    name: str
    unit: object
    mul: Callable
    cmp: Callable
    ldiv: Callable
    rdiv: Callable
    candidates: Optional[Callable[[int], Iterator]] = None
    member: Optional[Callable[[object], bool]] = None

    def meet(self, a, b):
        return a if self.cmp(a, b) <= 0 else b

    def join(self, a, b):
        return a if self.cmp(a, b) >= 0 else b


def residual_search(inst: Chain, a, b, side: str = "left", bound: Optional[int] = None):
    """Greatest c with a*c <= b (left) or c*a <= b (right), by first-hit
    scan of the descending candidate stream.  Raises ResidualExhausted when
    the bound is too small; never returns a wrong answer.  Raises ValueError
    for an operand outside the chain, or a bound below 1 or above
    SEARCH_BOUND (the default is sum(a) + sum(b) + 4, the exponent sums of
    the operands plus 4)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if inst.candidates is None:
        raise ValueError(f"chain {inst.name!r} has no candidate stream to search")
    for x in (a, b):
        if not inst.member(x):
            raise ValueError(f"{x!r} is not an element of chain {inst.name!r}")
    if bound is None:
        bound = sum(a) + sum(b) + 4
    check_bound(bound)
    mul, cmp, left = inst.mul, inst.cmp, side == "left"
    for c in inst.candidates(bound):
        if cmp(mul(a, c) if left else mul(c, a), b) <= 0:
            return c
    raise ResidualExhausted(bound)


# ---------------------------------------------------------------------------
# the free commutative monoid on two generators with the dual shortlex order

M1Element = tuple[int, int]  # exponents of the two generators

M1_UNIT: M1Element = (0, 0)


def m1_mul(u: M1Element, v: M1Element) -> M1Element:
    return (u[0] + v[0], u[1] + v[1])


def m1_cmp(u: M1Element, v: M1Element) -> int:
    """Dual shortlex: longer words are smaller; at equal length the word
    with the larger first exponent is greater."""
    if u == v:
        return 0
    ka = (-(u[0] + u[1]), u[0])
    kb = (-(v[0] + v[1]), v[0])
    return -1 if ka < kb else 1


def m1_candidates(bound: int) -> Iterator[M1Element]:
    for d in range(bound + 1):
        for a in range(d, -1, -1):
            yield (a, d - a)


def m1_residual(w: M1Element, z: M1Element) -> M1Element:
    """Greatest c with z*c <= w (the monoid is commutative, so both
    residuals coincide).  Closed form by case analysis on total degree."""
    d = (w[0] + w[1]) - (z[0] + z[1])
    if d < 0:
        return M1_UNIT
    # candidates of degree d: need z+c == w, or first coordinate strictly low
    if w[0] - z[0] >= 0 and w[1] - z[1] >= 0:
        return (w[0] - z[0], w[1] - z[1])
    if w[0] - z[0] > d:
        # every degree-d candidate stays strictly below in the first slot
        return (d, 0)
    # no degree-d candidate; degree d+1 wins on length alone
    return (d + 1, 0)


def m1_word(u: M1Element) -> str:
    if u == (0, 0):
        return "e"
    parts = []
    for sym, k in zip("xy", u):
        if k == 1:
            parts.append(sym)
        elif k > 1:
            parts.append(f"{sym}{k}")
    return "".join(parts)


def m1_parse(text: str) -> M1Element:
    """A word (`x2y`, `e`) or a JSON pair of int exponents >= 0 (`[2, 1]`)."""
    text = text.strip()
    if text.startswith("["):
        u = json.loads(text)
        if (isinstance(u, list) and len(u) == 2 and all(type(k) is int for k in u)
                and M1Instance.member(u)):
            return tuple(u)
        raise ValueError(f"cannot parse monoid word {text!r}")
    if text == "e":
        return (0, 0)
    m = re.fullmatch(r"(?:x(\d*))?(?:y(\d*))?", text)
    if not m or not text:
        raise ValueError(f"cannot parse monoid word {text!r}")
    a = int(m.group(1)) if m.group(1) else (1 if "x" in text else 0)
    b = int(m.group(2)) if m.group(2) else (1 if "y" in text else 0)
    return (a, b)


M1Instance = Chain(
    name="m1",
    unit=M1_UNIT,
    mul=m1_mul,
    cmp=m1_cmp,
    ldiv=lambda a, b: m1_residual(b, a),
    rdiv=m1_residual,
    candidates=m1_candidates,
    member=lambda u: u[0] >= 0 and u[1] >= 0,
)


# ---------------------------------------------------------------------------
# the positive 2-nilpotent monoid


def s2_residual(a: HeisTriple, b: HeisTriple, side: str = "left") -> HeisTriple:
    """Closed-form residual in the integral chain on the positive monoid:
    the lexicographically least exponent triple c (hence chain-greatest
    element) with a*c lex-above b (left) or c*a lex-above b (right)."""
    s2_require(a, b)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a1, b1, g1 = a
    a2, b2, g2 = b
    if a2 < a1:
        return HEIS_UNIT
    al = a2 - a1
    if b2 < b1:
        return HeisTriple(al, 0, 0)
    be = b2 - b1
    # with the first two coordinates matched, minimize the central exponent
    cross = b1 * al if side == "left" else be * a1
    lo = g2 - g1 - cross
    if lo <= al * be:
        return HeisTriple(al, be, max(0, lo))
    return HeisTriple(al, be + 1, 0)


S2Instance = Chain(
    name="s2",
    unit=HEIS_UNIT,
    mul=heis_mul,
    cmp=heis_cmp,
    ldiv=s2_residual,
    rdiv=lambda a, b: s2_residual(b, a, "right"),
    candidates=s2_box,
    member=s2_member,
)


# ---------------------------------------------------------------------------
# the dyadic group Z[1/2] x| Z and the truncated-product Hamiltonian-failure
# witness

# a total order on a group is residuated: a\b = a^-1 b and a/b = a b^-1
DyadicInstance = Chain(
    name="dyadic",
    unit=DYADIC_UNIT,
    mul=dyadic_mul,
    cmp=dyadic_cmp,
    ldiv=lambda a, b: dyadic_mul(dyadic_inv(a), b),
    rdiv=lambda a, b: dyadic_mul(a, dyadic_inv(b)),
)


@dataclass(frozen=True)
class WitnessRow:
    n: int
    coordinate: Optional[int]
    power: Optional[DyadicPair] = None
    conjugate: Optional[DyadicPair] = None


@dataclass(frozen=True)
class HamiltonianFailureReport:
    truncation: int
    base: DyadicPair
    conjugator: DyadicPair
    rows: tuple[WitnessRow, ...]

    def all_certified(self) -> bool:
        return all(r.coordinate is not None for r in self.rows if r.n >= 1)


def hamvty_witness(
    N: int,
    a: Optional[DyadicPair] = None,
    b: Optional[DyadicPair] = None,
) -> HamiltonianFailureReport:
    """Build the truncated product over coordinates 0..N with the constant
    tuple of `a` and the tuple of powers of `b`, and for each n <= N report
    a coordinate where the n-th power of the constant tuple fails to lie
    below the conjugate tuple.  A row for every n certifies the failure of
    the Hamiltonian property up to the truncation."""
    if N < 1:
        raise ValueError("truncation must be >= 1")
    a = a if a is not None else DyadicPair(Fraction(-1), 0)
    b = b if b is not None else DyadicPair(Fraction(0), -2)
    conj = [dyadic_conjugate(a, dyadic_pow(b, i)) for i in range(N + 1)]
    rows = []
    for n in range(0, N + 1):
        if n == 0:
            rows.append(WitnessRow(0, None))
            continue
        an = dyadic_pow(a, n)
        hit = next(
            (i for i in range(N + 1) if dyadic_cmp(an, conj[i]) > 0),
            None,
        )
        rows.append(
            WitnessRow(n, hit, an, conj[hit] if hit is not None else None)
        )
    return HamiltonianFailureReport(N, a, b, tuple(rows))
