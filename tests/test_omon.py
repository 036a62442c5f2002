import importlib
import itertools
from fractions import Fraction

import pytest

import reslat as R
from reslat.nilpotent import DyadicPair, HEIS_UNIT, HeisTriple
from reslat.omon import (
    DyadicInstance,
    M1Instance,
    S2Instance,
    ResidualExhausted,
    hamvty_witness,
    m1_cmp,
    m1_mul,
    m1_parse,
    m1_residual,
    m1_word,
    residual_search,
    s2_residual,
)
from reslat.ore import F2Instance

X, Y = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)


def test_m1_chain_prefix():
    want = ["e", "x", "y", "x2", "xy", "y2", "x3", "x2y", "xy2", "y3"]
    got = list(itertools.islice(M1Instance.candidates(4), len(want)))
    assert [m1_word(g) for g in got] == want
    # strictly descending in the chain order
    for a, b in zip(got, got[1:]):
        assert m1_cmp(a, b) == 1


def test_m1_word_round_trip():
    for w in [(0, 0), (1, 0), (0, 3), (2, 5)]:
        assert m1_parse(m1_word(w)) == w
    with pytest.raises(ValueError):
        m1_parse("z2")


def test_m1_residual_examples():
    x, y, e = (1, 0), (0, 1), (0, 0)
    assert m1_residual(y, x) == x   # y/x = x: greatest w with w+x <= y is x^1
    assert m1_residual(x, y) == e   # x/y = e
    assert m1_residual((2, 1), (1, 0)) == (1, 1)  # componentwise divides
    assert m1_residual(e, x) == e


def test_m1_residual_against_search():
    words = [(a, d - a) for d in range(9) for a in range(d + 1)]
    for w in words:
        for z in words:
            assert m1_residual(w, z) == residual_search(M1Instance, z, w, "left",
                                                        bound=18)
            # commutative, so both sides agree
            assert m1_residual(w, z) == residual_search(M1Instance, z, w, "right",
                                                        bound=18)


def test_m1_divisibility_fails():
    x, y = (1, 0), (0, 1)
    r = m1_residual(y, x)
    assert m1_mul(r, x) == (2, 0)
    assert m1_cmp(m1_mul(r, x), M1Instance.meet(x, y)) != 0


def test_s2_residual_examples():
    e = HEIS_UNIT
    assert s2_residual(X, e, "left") == e
    assert s2_residual(Y, X, "right") == X
    assert s2_residual(e, Y, "left") == Y
    xy = HeisTriple(1, 1, 0)
    assert s2_residual(X, xy, "left") == Y  # x\(xy) = y exactly


def test_s2_residual_against_search_box():
    box = [HeisTriple(a, b, c)
           for a in range(4) for b in range(4) for c in range(a * b + 1)]
    for a in box:
        for b in box:
            for side in ("left", "right"):
                assert s2_residual(a, b, side) == residual_search(
                    S2Instance, a, b, side, bound=12), (a, b, side)


def test_s2_divisibility_fails():
    r = s2_residual(Y, X, "right")
    prod = R.heis_mul(r, Y)
    assert prod == HeisTriple(1, 1, 0)
    assert R.s2_cmp(prod, S2Instance.meet(X, Y)) != 0


def test_residual_search_exhaustion():
    with pytest.raises(ResidualExhausted):
        residual_search(M1Instance, (0, 0), (5, 5), "left", bound=1)


@pytest.mark.parametrize("inst, good, bad", [
    (S2Instance, X, HeisTriple(1, 0, 5)),
    (M1Instance, (1, 0), (-1, 0)),
])
def test_residual_search_checks_operands_at_entry(inst, good, bad):
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=f"is not an element of chain {inst.name!r}"):
            residual_search(inst, a, b, "left", bound=4)


def test_chain_algebra_interfaces():
    eq = R.parse_equation("x*(x\\y) ^ y = x*(x\\y)")
    v = R.check_equation_sampled(eq, S2Instance,
                                 [{"x": X, "y": Y}, {"x": Y, "y": X}])
    assert v.holds  # x(x\y) <= y always


def test_chain_records_follow_the_terms_convention():
    # a\b is the greatest c with a*c <= b, and b/a the greatest c with c*a <= b
    for inst, box in ((M1Instance, [(a, d - a) for d in range(5) for a in range(d + 1)]),
                      (S2Instance, list(R.s2_box(2, 2)))):
        for a in box:
            for b in box:
                assert inst.ldiv(a, b) == residual_search(inst, a, b, "left", bound=10)
                assert inst.rdiv(b, a) == residual_search(inst, a, b, "right", bound=10)
                lo, hi = inst.meet(a, b), inst.join(a, b)
                assert {lo, hi} == {a, b} and inst.cmp(lo, hi) <= 0
    # in the group chains both residuals are exact quotients
    g, h = HeisTriple(2, -1, 3), HeisTriple(-1, 4, 0)
    p, q = DyadicPair(Fraction(3, 4), 1), DyadicPair(Fraction(-5), -2)
    for inst, a, b in ((F2Instance, g, h), (DyadicInstance, p, q)):
        assert inst.mul(a, inst.ldiv(a, b)) == b
        assert inst.mul(inst.rdiv(b, a), a) == b
    with pytest.raises(ValueError):
        residual_search(F2Instance, g, h)


@pytest.mark.parametrize("module", ["finite", "nilpotent", "omon", "ore"])
def test_public_names_resolve(module):
    mod = importlib.import_module(f"reslat.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exec(f"from reslat.{module} import *", {})


def test_hamvty_witness_small():
    rep = hamvty_witness(1)
    assert rep.rows[1].n == 1 and rep.rows[1].coordinate == 1
    rep = hamvty_witness(4)
    assert rep.all_certified()
    by_n = {row.n: row for row in rep.rows}
    assert by_n[3].coordinate == 1  # 4^1 = 4 > 3
    assert by_n[4].coordinate == 2  # needs 4^2 = 16 > 4
    for row in rep.rows:
        if row.coordinate is not None:
            # the conjugate coordinate really fails to dominate the power
            assert R.dyadic_cmp(row.conjugate, row.power) == -1


def test_hamvty_rejects_bad_truncation():
    with pytest.raises(ValueError):
        hamvty_witness(0)
