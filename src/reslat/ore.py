"""Fractions over the positive 2-nilpotent monoid, the extension of its
chain order to the whole group, and the conucleus picking out the monoid.

Every group element factors as den^-1 * num with both parts in the positive
monoid, so fractions are keyed by their group value.  The extended order is
realized concretely as the reverse-lexicographic order on exponent triples;
it restricts to the monoid's chain order, and is validated against the
witness-pair definition (f below g iff m*num_f <= n*num_g for some monoid
pair m, n with m*den_f = n*den_g) rather than assumed.  The pair is not
searched for: the monoid satisfies Malcev's law L_2, whose two sides with
z1 = e read (a*b*b)*a and (b*a*a)*b, so m = a*b*b and n = b*a*a make
m*a = n*b a common left multiple of any denominators a and b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._check import check_int
from .nilpotent import (
    HEIS_UNIT,
    HeisTriple,
    _mul,
    heis_cmp,
    heis_inv,
    heis_mul,
    s2_member,
    s2_require,
)
from .omon import group_chain, s2_residual

__all__ = [
    "OreFraction",
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
        den = HeisTriple(A, B, max(0, -(gamma + B * alpha)))
        return cls(den, heis_mul(den, g))

    def __eq__(self, other) -> bool:
        return isinstance(other, OreFraction) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return f"{tuple(self.den)}^-1*{tuple(self.num)}"


def _refuse(**named) -> None:
    """Raise ValueError naming the first argument that is not an OreFraction."""
    for name, x in named.items():
        if not isinstance(x, OreFraction):
            raise ValueError(f"{name} must be an OreFraction, got {x!r}")


def frac_cmp_group(f: OreFraction, g: OreFraction) -> int:
    """The extended order, read off the group values (reverse-lex order)."""
    if not (isinstance(f, OreFraction) and isinstance(g, OreFraction)):
        _refuse(f=f, g=g)
    return heis_cmp(f.value, g.value)


def frac_cmp_witness(f: OreFraction, g: OreFraction) -> int:
    """Decide the extended order from the witness-pair definition alone.

    L_2 with z1 = e names the pair: for a = den_f and b = den_g, m = a*b*b
    and n = b*a*a satisfy m*a = n*b =: D.  Then f = D^-1 * (m*num_f) and
    g = D^-1 * (n*num_g), and the order is left-invariant, so f and g
    compare as the monoid elements m*num_f and n*num_g do; (m, n) is the
    witness pair of whichever direction holds.  Raises ValueError for an
    argument that is not an OreFraction, and RuntimeError if m*a != n*b,
    which only a bug can cause."""
    if not (isinstance(f, OreFraction) and isinstance(g, OreFraction)):
        _refuse(f=f, g=g)
    a, b = f.den, g.den
    m, n = _mul(_mul(a, b), b), _mul(_mul(b, a), a)
    if _mul(m, a) != _mul(n, b):
        raise RuntimeError(f"m*a != n*b for a = {tuple(a)}, b = {tuple(b)}, m = {m}, n = {n}")
    return heis_cmp(_mul(m, f.num), _mul(n, g.num))


def conucleus_sigma(f: OreFraction) -> HeisTriple:
    """The sharpest monoid element below the fraction: den \\ num."""
    if not isinstance(f, OreFraction):
        _refuse(f=f)
    return s2_residual(f.den, f.num, "left")


# the whole group under the extended order, as a residuated chain
F2Instance = group_chain("f2", HEIS_UNIT, heis_mul, heis_inv, heis_cmp)


def random_triple(rng: random.Random, box: int) -> HeisTriple:
    """A triple with every exponent in -box..box; box is an int >= 0."""
    check_int(box, "box", 0)
    return HeisTriple(rng.randint(-box, box), rng.randint(-box, box), rng.randint(-box, box))


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
    positive monoid, and representative-independence.  Raises ValueError
    unless `samples` is an int >= 1 and `box` an int >= 0."""
    check_int(samples, "samples", 1)
    check_int(box, "box", 0)
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
        elif conucleus_sigma(OreFraction(HEIS_UNIT, sf)) != sf:
            note("idempotent", f"sigma^2 moved {sf}")
        if heis_cmp(sf, f.value) > 0:
            note("contracting", f"sigma({f}) above {f}")
        if heis_cmp(f.value, g.value) <= 0 and heis_cmp(sf, sg) > 0:
            note("monotone", f"{f} <= {g} but images disagree")
        prod = conucleus_sigma(OreFraction.from_group(heis_mul(f.value, g.value)))
        if heis_cmp(heis_mul(sf, sg), prod) > 0:
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
