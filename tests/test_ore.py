import itertools
import random

import pytest

import reslat as R
from reslat import ore
from reslat.nilpotent import HEIS_UNIT, HeisTriple, heis_cmp, heis_inv, heis_mul
from reslat.omon import ResidualExhausted, s2_residual
from reslat.ore import (
    F2Instance,
    OreFraction,
    conucleus_sigma,
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
        assert heis_cmp(g, h) == R.s2_cmp(g, h)


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
    with pytest.raises(ValueError, match=r"^bound must be an integer in 0\.\.32, got -1$"):
        frac_cmp_witness(f, g, bound=-1)
    assert frac_cmp_witness(f, g, bound=4) == frac_cmp_group(f, g) == 1


def test_order_is_total_and_biinvariant_on_samples():
    rng = random.Random(23)
    for _ in range(300):
        g, h, k = (random_triple(rng, 5) for _ in range(3))
        c = heis_cmp(g, h)
        assert c in (-1, 0, 1)
        assert heis_cmp(heis_mul(k, g), heis_mul(k, h)) == c
        assert heis_cmp(heis_mul(g, k), heis_mul(h, k)) == c


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


@pytest.mark.parametrize("sigma, laws", [
    (lambda f: E, {"contracting", "fixpoint"}),
    (lambda f: f.value, {"image"}),  # leaves the monoid, so idempotence is not tried
    (lambda f: s2_residual(f.den, f.num, "right"), {"contracting"}),
], ids=["unit", "value", "right-residual"])
def test_verify_conucleus_reports_a_planted_sigma(monkeypatch, sigma, laws):
    monkeypatch.setattr(ore, "conucleus_sigma", sigma)
    rep = verify_conucleus(200, 8, 0)
    assert not rep.ok and len(rep.violations) == 10
    assert {law for law, _ in rep.violations} == laws


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


def test_every_triple_returning_function_returns_a_heistriple():
    # the CLI and the benchmark call .triple() on these results
    from reslat import nilpotent
    from reslat.omon import S2Instance, residual_scan, residual_search, s2_candidates

    g, h = HeisTriple(1, 2, 1), HeisTriple(2, 1, 0)
    f = OreFraction.from_group(HeisTriple(-1, 2, -3))
    results = {
        "heis_mul": heis_mul(g, h),
        "heis_inv": heis_inv(g),
        "heis_pow": nilpotent.heis_pow(g, 3),
        "heis_pow negative": nilpotent.heis_pow(g, -2),
        "heis_commutator": nilpotent.heis_commutator(g, h),
        "nth_root": nilpotent.nth_root(nilpotent.heis_pow(g, 3), 3),
        "from_matrix": nilpotent.from_matrix(nilpotent.to_matrix(g)),
        "s2_residual left": s2_residual(g, h),
        "s2_residual right": s2_residual(g, h, "right"),
        "residual_search": residual_search(S2Instance, g, h, "left", bound=8),
        "conucleus_sigma": conucleus_sigma(f),
        "OreFraction.value": f.value,
        "from_group den": f.den,
        "from_group num": f.num,
        "random_triple": random_triple(random.Random(0), 3),
    }
    results.update((f"s2_box item {i}", t) for i, t in enumerate(nilpotent.s2_box(2)))
    results.update((f"s2_candidates item {i}", t)
                   for i, t in enumerate(itertools.chain.from_iterable(s2_candidates(2))))
    box = list(nilpotent.s2_box(2))
    for side in ("left", "right"):
        scan = residual_scan(S2Instance, g, box, side, 8)
        results.update((f"residual_scan {side} {b}", c) for b, c in scan.items())
    wrong = {name: type(r).__name__ for name, r in results.items() if type(r) is not HeisTriple}
    assert wrong == {}


def test_every_triple_function_accepts_a_plain_int_triple():
    # S2Instance.mul multiplies plain triples; each public function treats one
    # like its HeisTriple, and still returns a HeisTriple
    from reslat import nilpotent
    from reslat.omon import S2Instance

    g, h = HeisTriple(2, 3, 4), HeisTriple(1, 1, 0)
    assert S2Instance.mul(g, h) == heis_mul(g, h) and type(S2Instance.mul(g, h)) is tuple
    table = {
        "heis_mul": lambda g, h: heis_mul(g, h),
        "heis_inv": lambda g, h: heis_inv(g),
        "heis_pow": lambda g, h: nilpotent.heis_pow(g, 3),
        "heis_pow negative": lambda g, h: nilpotent.heis_pow(g, -2),
        "heis_commutator": lambda g, h: nilpotent.heis_commutator(g, h),
        "nth_root": lambda g, h: nilpotent.nth_root(g, 1),
        "to_matrix": lambda g, h: nilpotent.from_matrix(nilpotent.to_matrix(g)),
        "s2_residual left": lambda g, h: s2_residual(g, h),
        "s2_residual right": lambda g, h: s2_residual(g, h, "right"),
        "OreFraction.value": lambda g, h: OreFraction(g, h).value,
        "conucleus_sigma": lambda g, h: conucleus_sigma(OreFraction(g, h)),
        "from_group den": lambda g, h: OreFraction.from_group(heis_inv(g)).den,
        "from_group num": lambda g, h: OreFraction.from_group(heis_inv(g)).num,
    }
    for name, fn in table.items():
        want, got = fn(g, h), fn(tuple(g), tuple(h))
        assert (got, type(got), type(want)) == (want, HeisTriple, HeisTriple), name
    assert nilpotent.to_matrix((1, 2, 3)) == nilpotent.to_matrix(HeisTriple(1, 2, 3))
    assert nilpotent.nth_root((2, 2, 3), 2) == HeisTriple(1, 1, 1)
    assert type(nilpotent.nth_root((2, 2, 3), 2)) is HeisTriple
    assert nilpotent.nth_root((2, 2, 2), 2) is None
    plain, named = OreFraction((1, 1, 0), (1, 0, 0)), OreFraction(HeisTriple(1, 1, 0), X)
    assert str(plain) == str(named) == "(1, 1, 0)^-1*(1, 0, 0)"
    assert plain == named and hash(plain) == hash(named)
    unit = OreFraction(E, E)
    assert frac_cmp_witness(plain, unit) == frac_cmp_group(plain, unit) == 1


def _witness_below_reference(f, g, bound):
    # the witness search with every triple a HeisTriple built through heis_mul
    shift = heis_mul(f.den, heis_inv(g.den))
    sa, sb, sg = shift
    lo_a, lo_b = max(0, -sa), max(0, -sb)
    for ma in range(lo_a, lo_a + bound + 1):
        for mb in range(lo_b, lo_b + bound + 1):
            lo_g = max(0, -(sg + mb * sa))
            for mg in range(lo_g, min(ma * mb, lo_g + bound) + 1):
                m = HeisTriple(ma, mb, mg)
                n = heis_mul(m, shift)
                if R.s2_member(n) and heis_cmp(heis_mul(m, f.num), heis_mul(n, g.num)) <= 0:
                    return True
    return False


def test_witness_search_matches_its_heistriple_reference():
    import itertools

    fracs = [OreFraction.from_group(HeisTriple(*t))
             for t in itertools.product((-1, 0, 1), repeat=3)]
    exhausted = 0
    for f, g in itertools.product(fracs, repeat=2):
        below, above = _witness_below_reference(f, g, 8), _witness_below_reference(g, f, 8)
        assert (below or above) and frac_cmp_witness(f, g, 8) == above - below, (f, g)
        below, above = _witness_below_reference(f, g, 0), _witness_below_reference(g, f, 0)
        if below or above:
            assert frac_cmp_witness(f, g, 0) == above - below, (f, g)
        else:
            exhausted += 1
            with pytest.raises(ResidualExhausted):
                frac_cmp_witness(f, g, 0)
    assert 0 < exhausted < len(fracs) ** 2


def test_witness_search_tests_the_least_mg_of_each_row():
    # one m per (alpha, beta) row decides as the full row does; the last mg of
    # a row would not, on about 1% of these checks
    import itertools

    from reslat.ore import _witness_below

    rng = random.Random(2024)

    def monoid():
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        return HeisTriple(a, b, rng.randint(0, a * b))

    raw = [(OreFraction(monoid(), monoid()), OreFraction(monoid(), monoid())) for _ in range(150)]
    grouped = [(random_fraction(rng, 4), random_fraction(rng, 4)) for _ in range(150)]
    for pairs, bounds in ((raw, range(6)), (grouped, range(4))):
        for (f, g), bound in itertools.product(pairs, bounds):
            for x, y in ((f, g), (g, f)):
                assert _witness_below(x, y, bound) == _witness_below_reference(x, y, bound), (x, y, bound)
