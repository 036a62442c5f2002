"""Infinite residuated chains given by rules, with residuals by bounded search.

Every infinite example is one `Chain` record: the free commutative chain
`M1Instance`, the positive 2-nilpotent monoid `S2Instance`, the dyadic
group `DyadicInstance` here, and the group of fractions `ore.F2Instance`.

For an integral total order on a finitely generated monoid the sets
{c : a*c <= b} always have greatest elements (the order satisfies the
ascending chain condition), so a residual can be found by streaming
candidates strictly descending from the unit and returning the first hit.
`residual_search` implements it over a bounded box, a row of candidates at a
time, and reports exhaustion explicitly; the closed forms (`m1_residual`,
`s2_residual`) are the production path and are tested against it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import chain, product, starmap
from typing import Callable, Iterable, Iterator, Optional

from ._check import check_int
from .nilpotent import (
    DYADIC_POW_BOUND,
    DYADIC_UNIT,
    DyadicPair,
    HEIS_UNIT,
    HeisTriple,
    _mul,
    dyadic_conjugate,
    dyadic_cmp,
    dyadic_inv,
    dyadic_mul,
    dyadic_pow,
    heis_cmp,
    s2_member,
    s2_require,
)

__all__ = [
    "ResidualExhausted",
    "SEARCH_BOUND",
    "Chain",
    "M1Instance",
    "S2Instance",
    "group_chain",
    "DyadicInstance",
    "residual_search",
    "residual_scan",
    "m1_mul",
    "m1_cmp",
    "m1_residual",
    "s2_residual",
    "m1_word",
    "m1_parse",
    "WitnessRow",
    "HamiltonianFailureReport",
    "HAMVTY_BASE",
    "HAMVTY_CONJUGATOR",
    "hamvty_witness",
]


class ResidualExhausted(RuntimeError):
    """A residual search (residual_search or residual_scan) ran out before
    a hit; the bound was too small."""

    def __init__(self, bound: int):
        super().__init__(f"residual search exhausted within bound {bound}")
        self.bound = bound


SEARCH_BOUND = 32
"""The residual searches and the candidate streams refuse a bound above
this: residual_search tests one element per row plus one row, while the s2
row memo and residual_scan reach 279,873 triples at bound 32."""


@dataclass(frozen=True)
class Chain:
    """A totally ordered residuated monoid given by rules.

    `cmp(a, b)` is the total order (negative means strictly below).  The
    residuals follow the `a\\b`, `a/b` convention of `terms`: `ldiv(a, b)`
    is the greatest c with a*c <= b and `rdiv(a, b)` the greatest c with
    c*b <= a.  `S2Instance`, `F2Instance` and `M1Instance.mul`/`cmp` trust
    their operands, checked once where they enter; `m1_residual` (the m1
    `ldiv`/`rdiv`) and every `DyadicInstance` operation check theirs.  A
    chain that `residual_search` and `residual_scan` can scan gives
    `candidates(bound)`, streaming a finite box strictly descending from the
    unit in rows (tuples) along which a*c and c*a descend for each a, and
    `member(a)`, False (never an error) for any value that is not an
    element, which the scans check operands with; `check_equation_sampled`
    checks values with `member` alone, which the group chains give too.
    `box_holds(b, bound)` is False where that box may miss a residual into
    b (None: it is an up-set).
    """

    name: str
    unit: object
    mul: Callable
    cmp: Callable
    ldiv: Callable
    rdiv: Callable
    candidates: Optional[Callable[[int], Iterable]] = None
    member: Optional[Callable[[object], bool]] = None
    box_holds: Optional[Callable[[object, int], bool]] = None

    def meet(self, a, b):
        return a if self.cmp(a, b) <= 0 else b

    def join(self, a, b):
        return a if self.cmp(a, b) >= 0 else b


def _check_search(inst: Chain, side: str, *operands) -> None:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if inst.candidates is None or inst.member is None:
        raise ValueError(f"chain {inst.name!r} has no candidate stream to search")
    for x in operands:
        if not inst.member(x):
            raise ValueError(f"{x!r} is not an element of chain {inst.name!r}")


def residual_search(inst: Chain, a, b, side: str = "left", bound: int = SEARCH_BOUND):
    """Greatest c with a*c <= b (left) or c*a <= b (right): the first hit of
    the descending candidates, read past a row's least element only in the
    first row where it hits.  Raises ResidualExhausted when the bound is too
    small; never returns a wrong answer.  Raises ValueError for an operand
    outside the chain, or a bound that is not an int in 1..SEARCH_BOUND; the
    default is SEARCH_BOUND, the largest box."""
    member = inst.member  # the checks in one test; _check_search raises the first refusal
    if not (side in ("left", "right") and inst.candidates and member and member(a) and member(b)):
        _check_search(inst, side, a, b)
    if bound.__class__ is not int or not 0 < bound <= SEARCH_BOUND:
        check_int(bound, "bound", 1, SEARCH_BOUND)
    if inst.box_holds is not None and not inst.box_holds(b, bound):
        raise ResidualExhausted(bound)
    mul, cmp = inst.mul, inst.cmp
    if side == "left":
        for row in inst.candidates(bound):
            if cmp(mul(a, row[-1]), b) <= 0:
                for c in row[:-1]:
                    if cmp(mul(a, c), b) <= 0:
                        return c
                return row[-1]
    else:
        for row in inst.candidates(bound):
            if cmp(mul(row[-1], a), b) <= 0:
                for c in row[:-1]:
                    if cmp(mul(c, a), b) <= 0:
                        return c
                return row[-1]
    raise ResidualExhausted(bound)


def residual_scan(inst: Chain, a, bs, side: str, bound: int) -> dict:
    """{b: residual_search(inst, a, b, side, bound) for b in bs}, in one pass
    over the candidates using only `mul` and `cmp`: the b wait greatest first,
    and a product p answers every waiting b >= p, always a prefix of them, so
    each b gets the first hit of its own scan.  Raises ResidualExhausted if
    the stream ends first, or the box may miss a residual into some b."""
    bs = tuple(bs)  # read twice: by the checks and by the scan
    _check_search(inst, side, a, *bs)
    check_int(bound, "bound", 1, SEARCH_BOUND)
    if inst.box_holds is not None and not all(inst.box_holds(b, bound) for b in bs):
        raise ResidualExhausted(bound)
    waiting = sorted(dict.fromkeys(bs), key=cmp_to_key(inst.cmp), reverse=True)
    found, mul, cmp, left = {}, inst.mul, inst.cmp, side == "left"
    if not waiting:
        return found
    for c in chain.from_iterable(inst.candidates(bound)):
        p = mul(a, c) if left else mul(c, a)
        while cmp(p, waiting[len(found)]) <= 0:
            found[waiting[len(found)]] = c
            if len(found) == len(waiting):
                return found
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
    (a, b), (c, d) = u, v
    s, t = a + b, c + d
    if s != t:
        return -1 if s > t else 1
    return 0 if a == c else -1 if a < c else 1


# the levels (d, 0) ... (0, d) of every length d a stream may reach
_M1_LEVELS = tuple(tuple((a, d - a) for a in range(d, -1, -1)) for d in range(SEARCH_BOUND + 1))


def m1_candidates(bound: int) -> tuple[tuple[M1Element, ...], ...]:
    """Words of length <= bound, descending, as the levels (d, 0) ... (0, d)."""
    check_int(bound, "bound", 0, SEARCH_BOUND)
    return _M1_LEVELS[:bound + 1]


def m1_residual(w: M1Element, z: M1Element) -> M1Element:
    """Greatest c with z*c <= w (the monoid is commutative, so both
    residuals coincide).  Closed form by case analysis on total degree."""
    try:
        (w0, w1), (z0, z1) = w, z
    except (TypeError, ValueError):  # not two pairs: refused below
        w0 = w1 = z0 = z1 = None
    # M1Instance.member inline: two calls of it would double this closed form's cost
    if not (w.__class__ is z.__class__ is tuple
            and w0.__class__ is w1.__class__ is z0.__class__ is z1.__class__ is int
            and w0 >= 0 and w1 >= 0 and z0 >= 0 and z1 >= 0):
        raise ValueError(f"{z if M1Instance.member(w) else w!r} is not in the free commutative monoid")
    d = (w0 + w1) - (z0 + z1)
    if d < 0:
        return M1_UNIT
    # candidates of degree d: need z+c == w, or first coordinate strictly low
    if w0 - z0 >= 0 and w1 - z1 >= 0:
        return (w0 - z0, w1 - z1)
    if w0 - z0 > d:
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
    if not isinstance(text, str):
        raise ValueError(f"monoid word must be a string, got {text!r}")
    text = text.strip()
    if text.startswith("["):
        u = json.loads(text)
        if isinstance(u, list) and M1Instance.member(tuple(u)):
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


def _m1_member(u) -> bool:
    # one unpacking, not len() and four subscripts: residual_search calls this twice
    if u.__class__ is not tuple:
        return False
    try:
        a, b = u
    except ValueError:  # not a pair
        return False
    return a.__class__ is b.__class__ is int and a >= 0 and b >= 0


M1Instance = Chain(
    name="m1",
    unit=M1_UNIT,
    mul=m1_mul,
    cmp=m1_cmp,
    ldiv=lambda a, b: m1_residual(b, a),
    rdiv=m1_residual,
    candidates=m1_candidates,
    member=_m1_member,
)


# ---------------------------------------------------------------------------
# the positive 2-nilpotent monoid


@cache
def _s2_row(alpha: int, beta: int) -> tuple[HeisTriple, ...]:
    return tuple(HeisTriple(alpha, beta, g) for g in range(alpha * beta + 1))


def s2_candidates(bound: int) -> Iterator[tuple[HeisTriple, ...]]:
    """`nilpotent.s2_box(bound)` as the rows (alpha, beta, 0..alpha*beta),
    each memoised once a scan reaches it, so a scan allocates only its products."""
    check_int(bound, "bound", 0, SEARCH_BOUND)
    return starmap(_s2_row, product(range(bound + 1), repeat=2))


def s2_residual(a: HeisTriple, b: HeisTriple, side: str = "left") -> HeisTriple:
    """Closed-form residual in the integral chain on the positive monoid:
    the lexicographically least exponent triple c (hence chain-greatest
    element) with a*c lex-above b (left) or c*a lex-above b (right)."""
    s2_require(a, b)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _s2_div(a, b, side == "left")


def _s2_div(a: HeisTriple, b: HeisTriple, left: bool = True) -> HeisTriple:
    a1, b1, g1 = a
    a2, b2, g2 = b
    if a2 < a1:
        return HEIS_UNIT
    al = a2 - a1
    if b2 < b1:
        return HeisTriple(al, 0, 0)
    be = b2 - b1
    # with the first two coordinates matched, minimize the central exponent
    cross = b1 * al if left else be * a1
    lo = g2 - g1 - cross
    if lo <= al * be:
        return HeisTriple(al, be, max(0, lo))
    return HeisTriple(al, be + 1, 0)


S2Instance = Chain(
    name="s2",
    unit=HEIS_UNIT,
    mul=_mul,  # plain triples: the scans compare products and drop them
    cmp=heis_cmp,
    ldiv=_s2_div,  # unchecked, as mul and cmp are: s2_residual is the checked form
    rdiv=lambda a, b: _s2_div(b, a, False),
    candidates=s2_candidates,
    member=s2_member,
    box_holds=lambda b, bound: bound >= max(b[0], b[1] + 1),  # residuals into b lie in the box
)


# ---------------------------------------------------------------------------
# totally ordered groups, the dyadic group Z[1/2] x| Z and the
# truncated-product Hamiltonian-failure witness


def group_chain(name: str, unit, mul: Callable, inv: Callable, cmp: Callable,
                member: Callable[[object], bool]) -> Chain:
    """A totally ordered group as a residuated chain: a\\b = a^-1 b and
    a/b = a b^-1; a sampled check refuses a value that the rule `member` refuses."""
    return Chain(name, unit, mul, cmp, ldiv=lambda a, b: mul(inv(a), b),
                 rdiv=lambda a, b: mul(a, inv(b)), member=member)


# a DyadicPair checks its fields when it is built, so every instance is an element
DyadicInstance = group_chain("dyadic", DYADIC_UNIT, dyadic_mul, dyadic_inv, dyadic_cmp,
                             member=lambda g: isinstance(g, DyadicPair))

# the pair of `hamvty_witness`, which the battery's dyadic claims check too
HAMVTY_BASE = DyadicPair(Fraction(-1), 0)
HAMVTY_CONJUGATOR = DyadicPair(Fraction(0), -2)


@dataclass(frozen=True)
class WitnessRow:
    n: int
    coordinate: Optional[int]
    power: Optional[DyadicPair] = None
    conjugate: Optional[DyadicPair] = None


@dataclass(frozen=True)
class HamiltonianFailureReport:
    truncation: int
    rows: tuple[WitnessRow, ...]

    def all_certified(self) -> bool:
        return all(r.coordinate is not None for r in self.rows if r.n >= 1)


def hamvty_witness(N: int) -> HamiltonianFailureReport:
    """Build the truncated product over coordinates 0..N with the constant
    tuple of HAMVTY_BASE and the tuple of powers of HAMVTY_CONJUGATOR, and
    for each n <= N report a coordinate where the n-th power of the constant
    tuple fails to lie below the conjugate tuple.  A row for every n
    certifies the failure of the Hamiltonian property up to the truncation.
    N is an int in 1..DYADIC_POW_BOUND // 2: b**N stays in the power bound."""
    check_int(N, "truncation", 1, DYADIC_POW_BOUND // 2)
    a, b = HAMVTY_BASE, HAMVTY_CONJUGATOR
    conj = [dyadic_conjugate(a, dyadic_pow(b, i)) for i in range(N + 1)]
    rows = [WitnessRow(0, None)]
    for n in range(1, N + 1):
        an = dyadic_pow(a, n)
        hit = next(
            (i for i in range(N + 1) if dyadic_cmp(an, conj[i]) > 0),
            None,
        )
        rows.append(
            WitnessRow(n, hit, an, conj[hit] if hit is not None else None)
        )
    return HamiltonianFailureReport(N, tuple(rows))
