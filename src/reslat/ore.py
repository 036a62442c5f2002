"""Fractions over the positive 2-nilpotent monoid, the extension of its
chain order to the whole group, and the conucleus picking out the monoid.

Every group element factors as den^-1 * num with both parts in the positive
monoid, checked once when the fraction is built.  A fraction's value is the
group's left residual den\\num (`F2Instance.ldiv`), sigma is the monoid's
(`S2Instance.ldiv`), and the extended order `F2Instance.cmp` is the
reverse-lexicographic order on exponent triples.  It restricts to the
monoid's chain order, and is validated against the witness-pair definition
(f below g iff m*num_f <= n*num_g for some monoid pair m, n with
m*den_f = n*den_g) rather than assumed.  The pair is not searched for: the
monoid satisfies Malcev's law L_2, whose two sides with z1 = e read
(a*b*b)*a and (b*a*a)*b, so m = a*b*b and n = b*a*a make m*a = n*b a
common left multiple of any denominators a and b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._check import check_instance, check_int, is_int_triple
from .nilpotent import HEIS_UNIT, HeisTriple, heis_cmp, heis_inv, heis_mul, s2_member, s2_require
from .omon import S2Instance, group_chain

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


# the whole group under the extended order, as a residuated chain
F2Instance = group_chain("f2", HEIS_UNIT, heis_mul, heis_inv, heis_cmp, member=is_int_triple)


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
        return F2Instance.ldiv(self.den, self.num)

    @classmethod
    def from_group(cls, g: HeisTriple) -> "OreFraction":
        """A canonical monoid factorization of an arbitrary group element."""
        alpha, beta, gamma = g
        B = abs(beta) + 1
        A = abs(gamma) + (B + 1) * abs(alpha) + 1
        den = HeisTriple(A, B, max(0, -(gamma + B * alpha)))
        return cls(den, F2Instance.mul(den, g))

    def __eq__(self, other) -> bool:
        return isinstance(other, OreFraction) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return f"{tuple(self.den)}^-1*{tuple(self.num)}"


def frac_cmp_group(f: OreFraction, g: OreFraction) -> int:
    """The extended order, read off the group values (reverse-lex order)."""
    if not (isinstance(f, OreFraction) and isinstance(g, OreFraction)):
        check_instance(f, "f", OreFraction)
        check_instance(g, "g", OreFraction)
    return F2Instance.cmp(f.value, g.value)


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
        check_instance(f, "f", OreFraction)
        check_instance(g, "g", OreFraction)
    a, b, mul = f.den, g.den, S2Instance.mul
    m, n = mul(mul(a, b), b), mul(mul(b, a), a)
    if mul(m, a) != mul(n, b):
        raise RuntimeError(f"m*a != n*b for a = {tuple(a)}, b = {tuple(b)}, m = {m}, n = {n}")
    return S2Instance.cmp(mul(m, f.num), mul(n, g.num))


def conucleus_sigma(f: OreFraction) -> HeisTriple:
    """The sharpest monoid element below the fraction: den \\ num."""
    check_instance(f, "f", OreFraction)
    return S2Instance.ldiv(f.den, f.num)


def random_triple(rng: random.Random, box: int) -> HeisTriple:
    """A triple of exponents in -box..box drawn from `rng`, a random.Random; box is an int >= 0."""
    check_instance(rng, "rng", random.Random)
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
    unless `samples` is an int >= 1, `box` an int >= 0 and `seed` an int."""
    check_int(samples, "samples", 1)
    check_int(box, "box", 0)
    check_int(seed, "seed")
    rng = random.Random(seed)
    bad: list[tuple[str, str]] = []

    def note(law: str, detail: str):
        if len(bad) < 10:
            bad.append((law, detail))

    # sigma(den^-1 num) = den\num on the monoid parts built here; mul and cmp are the group's
    e, sigma, mul, cmp = HEIS_UNIT, S2Instance.ldiv, F2Instance.mul, F2Instance.cmp
    if sigma(e, e) != e:
        note("unit", "sigma(e) != e")

    for _ in range(samples):
        f = random_fraction(rng, box)
        g = random_fraction(rng, box)
        fv, gv = f.value, g.value
        sf, sg = sigma(f.den, f.num), sigma(g.den, g.num)
        if not s2_member(sf):
            note("image", f"sigma({f}) escapes the monoid")
        elif sigma(e, sf) != sf:
            note("idempotent", f"sigma^2 moved {sf}")
        if cmp(sf, fv) > 0:
            note("contracting", f"sigma({f}) above {f}")
        if cmp(fv, gv) <= 0 and cmp(sf, sg) > 0:
            note("monotone", f"{f} <= {g} but images disagree")
        fg = OreFraction.from_group(mul(fv, gv))
        if cmp(mul(sf, sg), sigma(fg.den, fg.num)) > 0:
            note("lax-multiplicative", f"sigma(f)sigma(g) above sigma(fg) at {f}, {g}")
        # representative independence: multiply den and num by a common factor
        m = HeisTriple(rng.randint(0, 3), rng.randint(0, 3), 0)
        if sigma(S2Instance.mul(m, f.den), S2Instance.mul(m, f.num)) != sf:
            note("representative", f"sigma depends on the representative of {f}")
        # monoid elements are fixed points
        s = HeisTriple(rng.randint(0, box), rng.randint(0, box), 0)
        if sigma(e, s) != s:
            note("fixpoint", f"monoid element {s} moved")

    return ConucleusReport(samples, bad)
