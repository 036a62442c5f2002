import argparse
import dataclasses
import importlib
import itertools
import re
import types
from fractions import Fraction

import pytest

import reslat as R
from reslat import omon
from reslat.cli import cmd_omon
from reslat.nilpotent import DyadicPair, HEIS_UNIT, HeisTriple, heis_cmp
from reslat.omon import (
    Chain,
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
    residual_scan,
    residual_search,
    s2_residual,
)
from reslat.ore import F2Instance

X, Y = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)


def test_m1_chain_prefix():
    want = ["e", "x", "y", "x2", "xy", "y2", "x3", "x2y", "xy2", "y3"]
    stream = itertools.chain.from_iterable(M1Instance.candidates(4))
    got = list(itertools.islice(stream, len(want)))
    assert [m1_word(g) for g in got] == want
    # strictly descending in the chain order
    for a, b in zip(got, got[1:]):
        assert m1_cmp(a, b) == 1


def test_m1_cmp_is_the_dual_shortlex_order():
    words = [(a, d - a) for d in range(13) for a in range(d + 1)]
    key = lambda u: (-(u[0] + u[1]), u[0])  # the reference: longer is smaller, then x first
    for u in words:
        for v in words:
            c = m1_cmp(u, v)
            assert c == (key(u) > key(v)) - (key(u) < key(v)), (u, v)
            assert m1_cmp(v, u) == -c and (c == 0) == (u == v)


def test_m1_word_round_trip():
    for w in [(0, 0), (1, 0), (0, 3), (2, 5)]:
        assert m1_parse(m1_word(w)) == w
    assert m1_parse("[2, 1]") == (2, 1)
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
    (S2Instance, X, HeisTriple(1.5, 1, 0)),
    (S2Instance, X, HeisTriple(True, 0, 0)),
    (M1Instance, (1, 0), (1.0, 0.0)),
])
def test_residual_search_checks_operands_at_entry(inst, good, bad):
    message = f"^{re.escape(repr(bad))} is not an element of chain {inst.name!r}$"
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=message):
            residual_search(inst, a, b, "left", bound=4)
        with pytest.raises(ValueError, match=message):
            residual_scan(inst, a, [good, b], "left", 4)
    with pytest.raises(ValueError, match=message):
        residual_search(inst, bad, good)  # at the default bound too


def test_closed_forms_refuse_a_non_int_exponent():
    assert not R.s2_member(HeisTriple(1.5, 1, 0)) and not M1Instance.member((2.5, 0))
    with pytest.raises(ValueError, match=r"^\(1\.5, 1, 0\) is not in the positive monoid$"):
        s2_residual(HeisTriple(1.5, 1, 0), HeisTriple(2, 2, 0))
    with pytest.raises(ValueError, match=r"^\(2\.5, 0\) is not in the free commutative monoid$"):
        m1_residual((2.5, 0), (1, 0))
    with pytest.raises(ValueError, match=r"^\(1, True\) is not in the free commutative monoid$"):
        m1_residual((2, 0), (1, True))
    # two ints that unpack, but not as the tuple that M1Instance.member asks for
    for w, z, bad in (([1, 0], (0, 0), "[1, 0]"), ({0: 1, 1: 0}, (0, 0), "{0: 1, 1: 0}"),
                      ((1, 0), {1, 2}, "{1, 2}")):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not in the free commutative monoid$"):
            m1_residual(w, z)


def _old_m1_candidates(bound):
    for d in range(bound + 1):
        for a in range(d, -1, -1):
            yield (a, d - a)


def test_candidate_streams_match_their_generators():
    for bound in (1, 2, 14, 32):
        stream = itertools.chain.from_iterable(S2Instance.candidates(bound))
        assert list(stream) == list(R.s2_box(bound))
    for bound in range(omon.SEARCH_BOUND + 1):
        stream = itertools.chain.from_iterable(M1Instance.candidates(bound))
        assert list(stream) == list(_old_m1_candidates(bound))


def test_s2_rows_are_memoised_only_as_far_as_a_scan_reads():
    omon._s2_row.cache_clear()
    # the hit (0, 3, 0) is the only triple of row (0, 3), the fourth row
    assert residual_search(S2Instance, HEIS_UNIT, HeisTriple(0, 3, 0), "left", bound=32) == (0, 3, 0)
    assert omon._s2_row.cache_info().currsize == 4
    assert residual_search(S2Instance, X, HeisTriple(1, 3, 0), "left", bound=32) == (0, 3, 0)
    assert omon._s2_row.cache_info().currsize == 4  # rows are reused, not rebuilt


def _per_b_scan(stream, mul, cmp, a, b, side):
    """The first-hit scan of one b, as residual_search made it before
    residual_scan existed."""
    for c in stream:
        if cmp(mul(a, c) if side == "left" else mul(c, a), b) <= 0:
            return c
    raise ResidualExhausted(0)


def test_residual_scan_matches_the_per_b_scan():
    box = list(R.s2_box(3, gmax=3))
    for a in box:
        for side in ("left", "right"):
            want = {b: _per_b_scan(R.s2_box(8), R.heis_mul, heis_cmp, a, b, side) for b in box}
            assert residual_scan(S2Instance, a, box[::-1] + box, side, 8) == want
    assert residual_scan(S2Instance, X, [], "left", 8) == {}


def test_residual_scan_reads_an_iterator_of_bs_once():
    # the checks and the scan both read bs; an iterator answers as its list does
    want = residual_scan(S2Instance, X, list(R.s2_box(2)), "left", 8)
    assert len(want) == 18 and residual_scan(S2Instance, X, R.s2_box(2), "left", 8) == want
    assert residual_scan(M1Instance, (1, 0), iter([(0, 1), (2, 0)]), "left", 8) == {
        (0, 1): (1, 0), (2, 0): (1, 0)}


# a chain on the ints <= 0 whose product is not monotone in either factor
TOY = Chain("toy", 0, mul=lambda x, y: (3 * x + 7 * y) % 11 - 10,
            cmp=lambda x, y: (x > y) - (x < y), ldiv=None, rdiv=None,
            candidates=lambda bound: zip(range(0, -bound - 1, -1)), member=lambda x: x.__class__ is int)


def test_residual_scan_needs_no_monotone_product():
    bs = list(range(-10, 1))
    for a in bs:
        for side in ("left", "right"):
            want = {b: _per_b_scan(range(0, -11, -1), TOY.mul, TOY.cmp, a, b, side) for b in bs}
            assert residual_scan(TOY, a, bs, side, 10) == want
            with pytest.raises(ResidualExhausted, match="^residual search exhausted within bound 10$"):
                residual_scan(TOY, a, bs + [-11], side, 10)  # no product is below -10
    with pytest.raises(ResidualExhausted):
        residual_scan(M1Instance, (0, 0), [(0, 0), (5, 5)], "left", 1)


def test_residual_search_defaults_to_the_search_bound():
    # TOY's elements are ints, not exponent tuples: the default reads nothing off them
    for a, b in itertools.product(range(-10, 1), repeat=2):
        for side in ("left", "right"):
            stream = itertools.chain.from_iterable(TOY.candidates(omon.SEARCH_BOUND))
            assert residual_search(TOY, a, b, side) == _per_b_scan(
                stream, TOY.mul, TOY.cmp, a, b, side)


M1_WORDS = [(a, d - a) for d in range(13) for a in range(d + 1)]  # the 91 words of length <= 12


@pytest.mark.parametrize("inst, box, bounds", [
    (S2Instance, list(R.s2_box(6, gmax=6)), (3, 14)),
    (M1Instance, M1_WORDS, (4, 26)),
])
def test_residual_search_is_the_flat_first_hit_scan(inst, box, bounds):
    # the row rule alone: without the s2 box guard, every answer and every
    # exhaustion is that of the first-hit scan of the flattened stream
    rows = dataclasses.replace(inst, box_holds=None)
    for bound in bounds:
        for a in box:
            for side in ("left", "right"):
                try:  # one pass answers every b, if none exhausts (as at the larger bounds)
                    flat = residual_scan(rows, a, box, side, bound)
                except ResidualExhausted:  # so the per-b scans below run at the smaller bound only
                    assert bound == bounds[0], (a, side, bound)
                    flat = {}
                for b in box:
                    stream = itertools.chain.from_iterable(inst.candidates(bound))
                    try:
                        want = flat.get(b) or _per_b_scan(stream, inst.mul, inst.cmp, a, b, side)
                    except ResidualExhausted:
                        want = None
                    try:
                        got = residual_search(rows, a, b, side, bound)
                    except ResidualExhausted:
                        got = None
                    assert got == want, (a, b, side, bound)


def test_rows_and_their_products_descend():
    # the premise of the row rule: along a row, c, a*c and c*a all descend
    for inst, box in ((S2Instance, list(R.s2_box(3))), (M1Instance, M1_WORDS[:15])):
        for bound in range(9):
            for row in inst.candidates(bound):
                for a in box:
                    for seq in (row, [inst.mul(a, c) for c in row], [inst.mul(c, a) for c in row]):
                        assert all(inst.cmp(x, y) > 0 for x, y in zip(seq, seq[1:])), (a, row)


def test_s2_search_refuses_a_box_that_may_miss_the_residual():
    # (0, 40, 0) lies above (1, 0, 0) but outside every box up to bound 32,
    # so a first hit in a box with bound < max(b.alpha, b.beta + 1) may be wrong
    for a, b, bound, residual in ((X, HeisTriple(1, 1, 1), 1, (0, 2, 0)),
                                  (HEIS_UNIT, HeisTriple(0, 40, 0), 32, (0, 40, 0))):
        assert s2_residual(a, b) == residual
        with pytest.raises(ResidualExhausted, match=f"^residual search exhausted within bound {bound}$"):
            residual_search(S2Instance, a, b, "left", bound)
        with pytest.raises(ResidualExhausted):
            residual_scan(S2Instance, a, [HEIS_UNIT, b], "left", bound)
    assert residual_search(S2Instance, X, HeisTriple(1, 1, 1), "left", 2) == (0, 2, 0)
    box = list(R.s2_box(4))
    for bound in range(1, 5):
        for a in box:
            for b in box:
                for side in ("left", "right"):
                    try:
                        got = residual_search(S2Instance, a, b, side, bound)
                    except ResidualExhausted:
                        got = None
                    want = None if bound < max(b.alpha, b.beta + 1) else s2_residual(a, b, side)
                    assert got == want, (a, b, side, bound)


def test_a_bool_bound_is_refused_before_any_scan():
    # True == 1 would scan one candidate; the same rule guards `omon prefix`
    prefix = argparse.Namespace(monoid="s2", op="prefix", count=None, bound=True, size=None)
    for search in (lambda: residual_search(S2Instance, X, Y, bound=True), lambda: cmd_omon(prefix)):
        with pytest.raises(ValueError, match=r"^bound must be an integer in 1\.\.32, got True$"):
            search()


def test_a_chain_is_built_with_an_element_rule():
    # every chain states its member rule, so a search never meets a chain without one
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'member'"):
        Chain("toy", 0, m1_mul, m1_cmp, ldiv=None, rdiv=None)
    with pytest.raises(ValueError, match="^member must be a Callable, got None$"):
        dataclasses.replace(S2Instance, member=None)


def test_an_object_with_a_chains_fields_is_not_searched():
    # the search's fast path tests the class, so both searches refuse what is not a Chain
    duck = types.SimpleNamespace(**{f.name: getattr(M1Instance, f.name)
                                    for f in dataclasses.fields(Chain)})
    refusal = re.escape(f"inst must be a Chain, got {duck!r}")
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        residual_search(duck, (1, 0), (2, 1), "left", 8)
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        residual_scan(duck, (1, 0), [(2, 1)], "left", 8)


def test_chain_algebra_interfaces():
    eq = R.parse_equation("x*(x\\y) ^ y = x*(x\\y)")
    v = R.check_equation_sampled(eq, S2Instance,
                                 [{"x": X, "y": Y}, {"x": Y, "y": X}])
    assert v.holds  # x(x\y) <= y always


def test_chain_records_follow_the_terms_convention():
    # a\b is the greatest c with a*c <= b, and b/a the greatest c with c*a <= b
    for inst, box in ((M1Instance, [(a, d - a) for d in range(5) for a in range(d + 1)]),
                      (S2Instance, list(R.s2_box(2)))):
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


@pytest.mark.parametrize("module", ["terms", "finite", "models", "nilpotent", "omon", "ore", "battery"])
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
    with pytest.raises(ValueError, match=r"^truncation must be an integer in 1\.\.5000, got 0$"):
        hamvty_witness(0)
