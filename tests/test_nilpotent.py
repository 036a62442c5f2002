import random
from fractions import Fraction

import pytest

import reslat as R
from reslat.nilpotent import (
    DYADIC_POW_BOUND,
    DYADIC_UNIT,
    DyadicPair,
    HEIS_UNIT,
    HeisTriple,
    dyadic_cmp,
    dyadic_conjugate,
    dyadic_inv,
    dyadic_mul,
    dyadic_pow,
    from_matrix,
    heis_commutator,
    heis_inv,
    heis_mul,
    heis_pow,
    mat_mul,
    nth_root,
    s2_box,
    s2_cmp,
    s2_member,
    to_matrix,
)

X, Y = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)


def test_product_examples():
    assert heis_mul(X, Y).triple() == (1, 1, 0)
    assert heis_mul(Y, X).triple() == (1, 1, 1)


def test_triple_is_a_plain_tuple():
    g = HeisTriple(1, 0, 5)
    assert g == (1, 0, 5) and hash(g) == hash((1, 0, 5))
    assert g.triple() == (1, 0, 5) and type(g.triple()) is tuple
    assert repr(g) == "HeisTriple(alpha=1, beta=0, gamma=5)"
    assert (g.alpha, g.beta, g.gamma) == (1, 0, 5)
    # on a tuple `*` repeats; heis_mul is the product
    assert X * 2 == (1, 0, 0, 1, 0, 0)
    assert heis_mul(X, X) == HeisTriple(2, 0, 0) == heis_pow(X, 2)


def test_inverse():
    for g in [X, Y, HeisTriple(2, -3, 5), HeisTriple(-1, 4, -7)]:
        assert heis_mul(g, heis_inv(g)) == HEIS_UNIT
        assert heis_mul(heis_inv(g), g) == HEIS_UNIT


def test_matrix_oracle_random():
    rng = random.Random(12345)
    for _ in range(10_000):
        g = HeisTriple(*(rng.randint(-1000, 1000) for _ in range(3)))
        h = HeisTriple(*(rng.randint(-1000, 1000) for _ in range(3)))
        assert to_matrix(heis_mul(g, h)) == mat_mul(to_matrix(g), to_matrix(h))
        assert from_matrix(to_matrix(g)) == g


def test_power_against_iterated_product():
    rng = random.Random(6)
    for _ in range(300):
        g = HeisTriple(*(rng.randint(-9, 9) for _ in range(3)))
        up = down = HEIS_UNIT
        for n in range(31):
            assert heis_pow(g, n) == up and heis_pow(g, -n) == down
            up, down = heis_mul(up, g), heis_mul(down, heis_inv(g))
    # closed form: no iteration, so huge exponents are instant
    assert heis_pow(HeisTriple(1, 1, 1), 10**8) == HeisTriple(10**8, 10**8, 10**8 + 10**8 * (10**8 - 1) // 2)


def test_commutators_generate_center():
    c = heis_commutator(X, Y)
    assert c.triple() == (0, 0, -1)
    assert heis_commutator(Y, X) == heis_inv(c)
    # central: commutes with everything
    for g in (X, Y, HeisTriple(3, -2, 7)):
        assert heis_mul(c, g) == heis_mul(g, c)


def test_s2_membership():
    assert s2_member(HeisTriple(2, 3, 6))
    assert s2_member(HEIS_UNIT)
    assert not s2_member(HeisTriple(1, 2, 5))  # gamma > alpha*beta
    assert not s2_member(HeisTriple(-1, 0, 0))
    assert not s2_member(HeisTriple(1.5, 1, 0))  # every exponent must be of class int
    assert not s2_member(HeisTriple(1, 1, True))
    # a value that is not a tuple of three is not an element either
    assert not s2_member(None)
    assert not s2_member((1, 2))
    assert not s2_member([1, 1, 0])


def test_s2_order_examples():
    # higher lex triple sits lower in the chain; the unit is the top
    assert s2_cmp(X, Y) == -1
    assert s2_cmp(X, HEIS_UNIT) <= 0
    assert s2_cmp(HeisTriple(1, 1, 1), HeisTriple(1, 1, 0)) == -1
    with pytest.raises(ValueError):
        s2_cmp(HeisTriple(-1, 0, 0), X)
    with pytest.raises(ValueError, match=r"^\(1, 0, 5\) is not in the positive monoid$"):
        s2_cmp(X, HeisTriple(1, 0, 5))


def test_s2_box_shape():
    box = list(s2_box(6))
    assert len(box) == sum((a * b + 1) for a in range(7) for b in range(7))
    assert len(box) == 490
    assert all(s2_member(g) for g in box)
    assert box == sorted(box)  # ascending triple order
    capped = list(s2_box(6, gmax=2))
    assert capped == [g for g in box if g[2] <= 2]
    with pytest.raises(TypeError):
        s2_box(6, 6)  # gmax is keyword-only: no second bound


def test_nth_root_examples():
    assert nth_root(HeisTriple(2, 2, 3), 2) == HeisTriple(1, 1, 1)
    assert nth_root(HeisTriple(2, 2, 1), 2) == HeisTriple(1, 1, 0)
    assert nth_root(HeisTriple(1, 0, 0), 2) is None
    assert nth_root(HeisTriple(0, 0, 1), 2) is None  # gamma - C(2,2)*0 = 1 odd


def test_unique_roots_exhaustive():
    # collision map over a box: g -> g^n is injective, and nth_root inverts it
    box = [HeisTriple(a, b, c)
           for a in range(-4, 5) for b in range(-4, 5) for c in range(-4, 5)]
    for n in (2, 3):
        seen = {}
        for g in box:
            p = heis_pow(g, n)
            assert seen.setdefault(p, g) == g
            r = nth_root(p, n)
            assert r is not None and heis_pow(r, n) == p


def test_dyadic_group_ops():
    a = DyadicPair(Fraction(-1), 0)
    b = DyadicPair(Fraction(0), -2)
    assert dyadic_mul(a, b) == DyadicPair(Fraction(-1), -2)
    assert dyadic_mul(b, dyadic_pow(a, 2)) == DyadicPair(Fraction(-1, 2), -2)
    assert dyadic_mul(a, dyadic_inv(a)) == DYADIC_UNIT
    assert dyadic_conjugate(a, b) == DyadicPair(Fraction(-4), 0)


def test_dyadic_rejects_non_dyadic():
    with pytest.raises(ValueError):
        DyadicPair(Fraction(1, 3), 0)


def test_dyadic_power_against_iterated_product():
    rng = random.Random(8)
    for _ in range(100):
        g = DyadicPair(Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3)), rng.randint(-3, 3))
        up = down = DYADIC_UNIT
        for k in range(31):
            assert dyadic_pow(g, k) == up and dyadic_pow(g, -k) == down
            up, down = dyadic_mul(up, g), dyadic_mul(down, dyadic_inv(g))


def test_dyadic_power_bound():
    assert dyadic_pow(DyadicPair(Fraction(1), 1), DYADIC_POW_BOUND).n == DYADIC_POW_BOUND
    for g, k in [(DyadicPair(Fraction(1), 1), DYADIC_POW_BOUND + 1),
                 (DyadicPair(Fraction(1), -2), -(DYADIC_POW_BOUND // 2 + 1))]:
        with pytest.raises(ValueError):
            dyadic_pow(g, k)
    assert dyadic_pow(DyadicPair(Fraction(3, 4), 0), -(10**9)) == DyadicPair(Fraction(-3 * 10**9, 4), 0)


def test_dyadic_order_is_biinvariant():
    rng = random.Random(77)

    def rand():
        return DyadicPair(Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3)),
                          rng.randint(-3, 3))

    for _ in range(400):
        g, h, k = rand(), rand(), rand()
        c = dyadic_cmp(g, h)
        assert dyadic_cmp(dyadic_mul(k, g), dyadic_mul(k, h)) == c
        assert dyadic_cmp(dyadic_mul(g, k), dyadic_mul(h, k)) == c


def test_dyadic_claims_small_n():
    a = DyadicPair(Fraction(-1), 0)
    b = DyadicPair(Fraction(0), -2)
    for n in range(1, 13):
        assert dyadic_cmp(dyadic_mul(dyadic_pow(a, n), b),
                          dyadic_mul(b, dyadic_pow(a, 2 * n))) == -1
        assert dyadic_cmp(dyadic_mul(a, dyadic_pow(b, n)),
                          dyadic_mul(dyadic_pow(b, n), dyadic_pow(a, 2 ** n))) == -1
        conj = dyadic_mul(dyadic_mul(dyadic_pow(b, -n), a), dyadic_pow(b, n))
        assert dyadic_cmp(conj, dyadic_pow(a, n)) == -1
