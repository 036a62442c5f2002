import random

import pytest

import reslat as R
from reslat.nilpotent import HEIS_UNIT, HeisTriple, heis_inv, heis_mul
from reslat.omon import ResidualExhausted, s2_residual
from reslat.ore import (
    F2Instance,
    OreFraction,
    conucleus_sigma,
    f2_cmp,
    f2_le,
    frac_cmp_group,
    frac_cmp_witness,
    random_fraction,
    random_triple,
    verify_conucleus,
)

X, Y = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)
E = HEIS_UNIT


def test_fraction_value_and_equality():
    f = OreFraction(X, heis_mul(X, Y))  # x^{-1}(xy) = y
    g = OreFraction(E, Y)               # e^{-1}y
    assert f.value == Y == g.value
    assert f == g and hash(f) == hash(g)


def test_fraction_requires_monoid_elements():
    with pytest.raises(ValueError):
        OreFraction(HeisTriple(-1, 0, 0), X)
    with pytest.raises(ValueError):
        OreFraction(X, HeisTriple(0, 0, 5))


def test_from_group_canonical():
    rng = random.Random(3)
    for _ in range(500):
        g = random_triple(rng, 6)
        f = OreFraction.from_group(g)
        assert f.value == g
        assert heis_mul(f.den, g) == f.num  # num = den * g


def test_extended_order_examples():
    # x^{-1}(xy) = y and e^{-1}y compare equal
    f = OreFraction(X, heis_mul(X, Y))
    g = OreFraction(E, Y)
    assert frac_cmp_group(f, g) == 0
    assert frac_cmp_witness(f, g) == 0
    # x sits strictly below e in the extended chain
    assert frac_cmp_group(OreFraction(E, X), OreFraction(E, E)) == -1
    assert frac_cmp_witness(OreFraction(E, X), OreFraction(E, E)) == -1


def test_extended_order_restricted_to_monoid():
    rng = random.Random(41)
    for _ in range(500):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        g = HeisTriple(a, b, rng.randint(0, a * b))
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        h = HeisTriple(a, b, rng.randint(0, a * b))
        assert f2_cmp(g, h) == R.s2_cmp(g, h)


def test_witness_route_agrees_with_group_route():
    rng = random.Random(17)
    for _ in range(60):
        f, g = random_fraction(rng, 3), random_fraction(rng, 3)
        assert frac_cmp_witness(f, g, bound=10) == frac_cmp_group(f, g)


def test_witness_exhaustion():
    # x^{-1} vs y^{-1}: at bound 0 neither direction admits a monoid pair
    f = OreFraction(X, E)
    g = OreFraction(Y, E)
    with pytest.raises(ResidualExhausted) as info:
        frac_cmp_witness(f, g, bound=0)
    assert (info.value.bound, info.value.what) == (0, "witness")
    with pytest.raises(ValueError, match="bound must be >= 0"):
        frac_cmp_witness(f, g, bound=-1)
    assert frac_cmp_witness(f, g, bound=4) == frac_cmp_group(f, g) == 1


def test_order_is_total_and_biinvariant_on_samples():
    rng = random.Random(23)
    for _ in range(300):
        g, h, k = (random_triple(rng, 5) for _ in range(3))
        c = f2_cmp(g, h)
        assert c in (-1, 0, 1)
        assert f2_cmp(heis_mul(k, g), heis_mul(k, h)) == c
        assert f2_cmp(heis_mul(g, k), heis_mul(h, k)) == c
        assert f2_le(g, h) == (c <= 0)


def test_conucleus_examples():
    assert conucleus_sigma(OreFraction.from_group(heis_inv(X))) == E
    assert conucleus_sigma(OreFraction(X, heis_mul(X, Y))) == Y
    # on monoid elements sigma is the identity
    for g in (E, X, Y, HeisTriple(2, 3, 4)):
        assert conucleus_sigma(OreFraction(E, g)) == g


def test_conucleus_representative_independent():
    rng = random.Random(5)
    for _ in range(200):
        g = random_triple(rng, 5)
        f = OreFraction.from_group(g)
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        m = HeisTriple(a, b, rng.randint(0, a * b))
        f2 = OreFraction(heis_mul(m, f.den), heis_mul(m, f.num))
        assert f == f2
        assert conucleus_sigma(f) == conucleus_sigma(f2)


def test_verify_conucleus_battery():
    rep = verify_conucleus(samples=500, box=7, seed=2024)
    assert rep.ok, rep.violations
    assert rep.samples == 500


def test_chain_algebra_division_law():
    # x * (x \ e) = e holds in the group chain
    eq = R.parse_equation("x*(x\\e) = e")
    rng = random.Random(9)
    asn = [{"x": random_triple(rng, 6)} for _ in range(200)]
    v = R.check_equation_sampled(eq, F2Instance, asn)
    assert v.holds


def test_hamiltonian_law_on_group_chain():
    eq = R.PROPERTIES["hamilt-eq"][0]
    rng = random.Random(100)
    asn = [{v: random_triple(rng, 6) for v in ("x", "y", "z")} for _ in range(300)]
    assert R.check_equation_sampled(eq, F2Instance, asn).holds


def test_weakly_abelian_fails_on_dyadic():
    from fractions import Fraction
    from reslat.nilpotent import DyadicPair
    from reslat.omon import DyadicInstance

    wa = R.PROPERTIES["weakly-abelian"][0]
    a = DyadicPair(Fraction(-1), 0)
    b = DyadicPair(Fraction(0), -2)
    v = R.check_equation_sampled(wa, DyadicInstance, [{"x": a, "y": b}])
    assert not v.holds
