"""Fractions over the positive 2-nilpotent monoid, the extension of its
chain order to the whole group, and the conucleus picking out the monoid.

Every group element factors as den^-1 * num with both parts in the positive
monoid, so fractions are keyed by their group value.  The extended order is
realized concretely as the reverse-lexicographic order on exponent triples;
it restricts to the monoid's chain order, and is validated against the
witness-pair definition (f below g iff m*num_f <= n*num_g for some monoid
pair m, n with m*den_f = n*den_g) rather than assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .nilpotent import (
    HEIS_UNIT,
    HeisTriple,
    heis_cmp,
    heis_inv,
    heis_mul,
    s2_member,
    s2_require,
)
from .omon import Chain, ResidualExhausted, check_bound, s2_residual

__all__ = [
    "OreFraction",
    "f2_cmp",
    "f2_le",
    "frac_cmp_group",
    "frac_cmp_witness",
    "conucleus_sigma",
    "ConucleusReport",
    "verify_conucleus",
    "F2Instance",
    "random_fraction",
    "random_triple",
]


@dataclass(frozen=True)
class OreFraction:
    """A fraction den^-1 * num with den, num in the positive monoid.

    Equality and hashing go through the group value, never through witness
    search: two fractions are equal iff they name the same group element.
    """

    den: HeisTriple
    num: HeisTriple

    def __post_init__(self):
        s2_require(self.den, self.num)

    @property
    def value(self) -> HeisTriple:
        return heis_mul(heis_inv(self.den), self.num)

    @classmethod
    def from_group(cls, g: HeisTriple) -> "OreFraction":
        """A canonical monoid factorization of an arbitrary group element."""
        alpha, beta, gamma = g
        B = abs(beta) + 1
        A = abs(gamma) + (B + 1) * abs(alpha) + 1
        t = gamma + B * alpha
        ga = max(0, -t)
        den = HeisTriple(A, B, ga)
        assert s2_member(den)
        num = heis_mul(den, g)
        assert s2_member(num)
        return cls(den, num)

    def __eq__(self, other) -> bool:
        return isinstance(other, OreFraction) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return f"{self.den.triple()}^-1*{self.num.triple()}"


f2_cmp = heis_cmp  # the monoid's chain order extends to the group as reverse-lex order


def f2_le(g: HeisTriple, h: HeisTriple) -> bool:
    return f2_cmp(g, h) <= 0


def frac_cmp_group(f: OreFraction, g: OreFraction) -> int:
    return f2_cmp(f.value, g.value)


def _witness_below(f: OreFraction, g: OreFraction, bound: int) -> bool:
    """Search monoid pairs (m, n) with m*den_f = n*den_g and
    m*num_f <= n*num_g, ascending by exponent sum of m."""
    shift = heis_mul(f.den, heis_inv(g.den))  # n = m * shift
    sa, sb, sg = shift
    # offset the box so that n has a chance of landing in the monoid
    lo_a, lo_b = max(0, -sa), max(0, -sb)
    ms = []
    for ma in range(lo_a, lo_a + bound + 1):
        for mb in range(lo_b, lo_b + bound + 1):
            lo_g = max(0, -(sg + mb * sa))
            for mg in range(lo_g, min(ma * mb, lo_g + bound) + 1):
                ms.append(HeisTriple(ma, mb, mg))
    ms.sort(key=lambda t: (sum(t), t))
    for m in ms:
        n = heis_mul(m, shift)
        if not s2_member(n):
            continue
        mb = heis_mul(m, f.num)
        nd = heis_mul(n, g.num)
        if heis_cmp(mb, nd) <= 0:
            return True
    return False


def frac_cmp_witness(f: OreFraction, g: OreFraction, bound: int = 8) -> int:
    """Decide the extended order from the witness-pair definition alone.
    Raises ResidualExhausted if neither direction yields a witness within
    the bound, and ValueError for a bound below 0 or above SEARCH_BOUND."""
    check_bound(bound, least=0)
    below = _witness_below(f, g, bound)
    above = _witness_below(g, f, bound)
    if below and above:
        return 0
    if below:
        return -1
    if above:
        return 1
    raise ResidualExhausted(bound, "witness")


def conucleus_sigma(f: OreFraction) -> HeisTriple:
    """The sharpest monoid element below the fraction: den \\ num."""
    return s2_residual(f.den, f.num, "left")


# the whole group under the extended order, as a residuated chain
F2Instance = Chain(
    name="f2",
    unit=HEIS_UNIT,
    mul=heis_mul,
    cmp=heis_cmp,
    ldiv=lambda a, b: heis_mul(heis_inv(a), b),
    rdiv=lambda a, b: heis_mul(a, heis_inv(b)),
)


def random_triple(rng: random.Random, box: int) -> HeisTriple:
    return HeisTriple(
        rng.randint(-box, box), rng.randint(-box, box), rng.randint(-box, box)
    )


def random_fraction(rng: random.Random, box: int) -> OreFraction:
    return OreFraction.from_group(random_triple(rng, box))


@dataclass
class ConucleusReport:
    samples: int
    violations: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_conucleus(samples: int = 1000, box: int = 8, seed: int = 0) -> ConucleusReport:
    """Random battery for the conucleus laws: unit fixed, contracting,
    order-preserving, idempotent, lax multiplicative, image equal to the
    positive monoid, and representative-independence."""
    rng = random.Random(seed)
    bad: list[tuple[str, str]] = []

    def note(law: str, detail: str):
        if len(bad) < 10:
            bad.append((law, detail))

    unit_frac = OreFraction(HEIS_UNIT, HEIS_UNIT)
    if conucleus_sigma(unit_frac) != HEIS_UNIT:
        note("unit", "sigma(e) != e")

    for _ in range(samples):
        f = random_fraction(rng, box)
        g = random_fraction(rng, box)
        sf, sg = conucleus_sigma(f), conucleus_sigma(g)
        if not s2_member(sf):
            note("image", f"sigma({f}) escapes the monoid")
        if not f2_le(sf, f.value):
            note("contracting", f"sigma({f}) above {f}")
        if f2_le(f.value, g.value) and not f2_le(sf, sg):
            note("monotone", f"{f} <= {g} but images disagree")
        refix = conucleus_sigma(OreFraction(HEIS_UNIT, sf))
        if refix != sf:
            note("idempotent", f"sigma^2 moved {sf}")
        prod = conucleus_sigma(OreFraction.from_group(heis_mul(f.value, g.value)))
        if not f2_le(heis_mul(sf, sg), prod):
            note("lax-multiplicative", f"sigma(f)sigma(g) above sigma(fg) at {f}, {g}")
        # representative independence: multiply den and num by a common factor
        m = HeisTriple(rng.randint(0, 3), rng.randint(0, 3), 0)
        f2 = OreFraction(heis_mul(m, f.den), heis_mul(m, f.num))
        if conucleus_sigma(f2) != sf:
            note("representative", f"sigma depends on the representative of {f}")
        # monoid elements are fixed points
        s = HeisTriple(rng.randint(0, box), rng.randint(0, box), 0)
        if conucleus_sigma(OreFraction(HEIS_UNIT, s)) != s:
            note("fixpoint", f"monoid element {s} moved")

    return ConucleusReport(samples, bad)
