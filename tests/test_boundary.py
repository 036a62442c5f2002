"""The library's input boundary: every public integer argument follows one
rule with one message, and malformed tables, structure documents and term
text end in one of the library's typed errors."""

import argparse
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from reslat import battery, finite, models, nilpotent, omon, ore, terms
from reslat.cli import cmd_omon
from reslat.nilpotent import DyadicPair, HeisTriple

X, Y = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)
FRACTION = ore.OreFraction(X, Y)


def _prefix(**options):
    return cmd_omon(argparse.Namespace(monoid="m1", op="prefix", json=False,
                                       **{"count": None, "bound": None, "size": None, **options}))


# site -> (call with the value, argument name, least, most, range text in the message);
# a site without a range accepts any int, so its "ends" are two ints of either sign
SITES = {
    "residual_search": (lambda v: omon.residual_search(omon.M1Instance, (0, 0), (0, 0), bound=v),
                        "bound", 1, 32, " in 1..32"),
    "residual_scan": (lambda v: omon.residual_scan(omon.M1Instance, (0, 0), [(0, 0)], "left", v),
                      "bound", 1, 32, " in 1..32"),
    "M1Instance.candidates": (omon.M1Instance.candidates, "bound", 0, 32, " in 0..32"),
    "S2Instance.candidates": (omon.S2Instance.candidates, "bound", 0, 32, " in 0..32"),
    "omon prefix --bound": (lambda v: _prefix(bound=v), "bound", 1, 32, " in 1..32"),
    "omon prefix --count": (lambda v: _prefix(count=v), "count", 0, None, " >= 0"),
    "hamvty_witness": (omon.hamvty_witness, "truncation", 1, 5000, " in 1..5000"),
    "enumerate_chain_models cap": (lambda v: finite.enumerate_chain_models(1, cap=v),
                                   "cap", 1, None, " >= 1"),
    "enumerate_chain_models n": (lambda v: finite.enumerate_chain_models(v, cap=3),
                                 "chain size", 1, 3, " in 1..3"),
    "chain_leq": (finite.chain_leq, "chain size", 1, 64, " in 1..64"),
    "gen_Lc": (terms.gen_Lc, "nilpotency class", 1, 8, " in 1..8"),
    "s2_box": (nilpotent.s2_box, "bound", 0, None, " >= 0"),
    "s2_box gmax": (lambda v: nilpotent.s2_box(1, gmax=v), "gmax", 0, None, " >= 0"),
    "nth_root": (lambda v: nilpotent.nth_root(X, v), "root degree", 1, None, " >= 1"),
    "heis_pow": (lambda v: nilpotent.heis_pow(X, v), "exponent", None, None, ""),
    "dyadic_pow": (lambda v: nilpotent.dyadic_pow(DyadicPair(1, 0), v), "exponent", None, None, ""),
    "DyadicPair n": (lambda v: DyadicPair(1, v), "n", None, None, ""),
    "verify_conucleus samples": (lambda v: ore.verify_conucleus(v), "samples", 1, None, " >= 1"),
    "verify_conucleus box": (lambda v: ore.verify_conucleus(1, box=v), "box", 0, None, " >= 0"),
    "verify_conucleus seed": (lambda v: ore.verify_conucleus(1, seed=v), "seed", None, None, ""),
    "random_triple box": (lambda v: ore.random_triple(random.Random(0), v), "box", 0, None, " >= 0"),
    "load_structure max_n": (lambda v: finite.load_structure("one.json", max_n=v),
                             "max_n", 1, None, " >= 1"),
    "BatteryConfig max_size": (lambda v: battery.BatteryConfig(max_size=v),
                               "max_size", 1, None, " >= 1"),
    "BatteryConfig samples": (lambda v: battery.BatteryConfig(samples=v), "samples", 1, None, " >= 1"),
    "BatteryConfig seed": (lambda v: battery.BatteryConfig(seed=v), "seed", None, None, ""),
}


@pytest.mark.parametrize("site", SITES)
def test_every_integer_argument_follows_one_rule(site, tmp_path, monkeypatch):
    call, name, least, most, span = SITES[site]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.json").write_text('{"leq": [[1]], "mul": [[0]], "unit": 0}')
    refused = [True, 2.5, "3"]
    refused += [] if least is None else [least - 1]
    refused += [] if most is None else [most + 1]
    for value in refused:
        message = f"{name} must be an integer{span}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call(value)
        assert info.type is ValueError  # a bad argument, not a bad table (StructureError)
    ends = (-7, 7) if least is None else (least,) if most is None else (least, most)
    for value in ends:
        call(value)  # accepted: no ValueError


# site -> (call, message of its ValueError); arguments that are not integers
REFUSALS = {
    "residual_search side": (lambda: omon.residual_search(omon.M1Instance, (0, 0), (0, 0), "up", 4),
                             "side must be 'left' or 'right'"),
    "residual_scan side": (lambda: omon.residual_scan(omon.M1Instance, (0, 0), [(0, 0)], "up", 4),
                           "side must be 'left' or 'right'"),
    "s2_residual side": (lambda: omon.s2_residual(X, Y, "up"), "side must be 'left' or 'right'"),
    # a search refuses a non-chain once its one-test fast path fails
    "residual_search None": (lambda: omon.residual_search(None, (0, 0), (0, 0)),
                             "inst must be a Chain, got None"),
    "residual_scan None": (lambda: omon.residual_scan(None, (0, 0), [(0, 0)], "left", 3),
                           "inst must be a Chain, got None"),
    "Term leaf with a child": (lambda: terms.Term("e", left=terms.var("x")), "leaf node with children"),
    "Term variable name": (lambda: terms.Term("var", "X"), "bad variable name 'X'"),
    "Term binary with one child": (lambda: terms.Term("*", left=terms.var("x")),
                                   "binary node needs two children"),
    "Term kind": (lambda: terms.Term("?"), "unknown node kind '?'"),
    "Term kind list": (lambda: terms.Term(["*"]), "unknown node kind ['*']"),
    "Term int children": (lambda: terms.Term("*", left=1, right=2), "a child must be a Term, got 1"),
    "Term unhashable child": (lambda: terms.Term("v", left=terms.var("x"), right=[1]),
                              "a child must be a Term, got [1]"),
    "Term binary with a name": (lambda: terms.Term("*", [1], terms.var("x"), terms.var("y")),
                                "a binary node takes no name, got [1]"),
    "var None": (lambda: terms.var(None), "bad variable name None"),
    "var list": (lambda: terms.var(["x"]), "bad variable name ['x']"),
    "eval_term unbound": (lambda: terms.eval_term(terms.var("y"), {"x": 0}, models.godel3()),
                          "unbound variable 'y'"),
    "check_named_property name": (lambda: finite.check_named_property(models.godel3(), ["LPL"]),
                                  str(finite._unknown_property(["LPL"]))),
    # a law is an Equation or a QuasiEquation, refused before the compile cache is read
    "check_equation str": (lambda: terms.check_equation("x*y = y*x", models.godel3()),
                           "law must be an Equation or a QuasiEquation, got 'x*y = y*x'"),
    "check_equation None": (lambda: terms.check_equation(None, models.godel3()),
                            "law must be an Equation or a QuasiEquation, got None"),
    "check_equation Term": (lambda: terms.check_equation(terms.var("x"), models.godel3()),
                            f"law must be an Equation or a QuasiEquation, got {terms.var('x')!r}"),
    "check_equation list": (lambda: terms.check_equation([1], models.godel3()),
                            "law must be an Equation or a QuasiEquation, got [1]"),
    "compile_law str": (lambda: terms.compile_law("x*y = y*x"),
                        "law must be an Equation or a QuasiEquation, got 'x*y = y*x'"),
    "compile_law list": (lambda: terms.compile_law([1]),
                         "law must be an Equation or a QuasiEquation, got [1]"),
    "check_equation_sampled str": (
        lambda: terms.check_equation_sampled("x = x", models.godel3(), [{"x": 0}]),
        "law must be an Equation or a QuasiEquation, got 'x = x'"),
    "check_equation_sampled assignment int": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x = x"), models.godel3(), [1]),
        "assignments[0] must be a Mapping, got 1"),
    # a value the structure's `member` rule refuses, named with its assignment and variable
    "check_equation_sampled value -1": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x = x*x"), models.godel3(),
                                             [{"x": -1}]),
        "assignments[0]['x'] = -1 is not an element of 'godel3'"),
    "check_equation_sampled value True": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x = x*x"), models.godel3(),
                                             [{"x": True}]),
        "assignments[0]['x'] = True is not an element of 'godel3'"),
    "check_equation_sampled value 7": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x*y = y*x"), models.godel3(),
                                             [{"x": 0, "y": 1}, {"x": 7, "y": 1}]),
        "assignments[1]['x'] = 7 is not an element of 'godel3'"),
    "check_equation_sampled s None": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x = x"), None, [{"x": 1}]),
        "s must be a structure with a member rule, got None"),
    "check_equation_sampled assignments None": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x = x"), models.godel3(), None),
        "assignments must be iterable, got None"),
    "check_equation_sampled s2 value": (
        lambda: terms.check_equation_sampled(terms.gen_Lc(1), omon.S2Instance,
                                             [{"x": X, "y": (-1, 0, 0)}]),
        "assignments[0]['y'] = (-1, 0, 0) is not an element of 's2'"),
    "check_equation_sampled m1 value": (
        lambda: terms.check_equation_sampled(terms.gen_Lc(1), omon.M1Instance,
                                             [{"x": (0, 1), "y": [1, 0]}]),
        "assignments[0]['y'] = [1, 0] is not an element of 'm1'"),
    "check_equation_sampled f2 value": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x*y = y*x"), ore.F2Instance,
                                             [{"x": (1.5, 0, 0), "y": (0, 1, 0)}]),
        "assignments[0]['x'] = (1.5, 0, 0) is not an element of 'f2'"),
    "check_equation_sampled dyadic value": (
        lambda: terms.check_equation_sampled(terms.parse_equation("x*y = y*x"), omon.DyadicInstance,
                                             [{"x": DyadicPair(1, 0), "y": (0, 1)}]),
        "assignments[0]['y'] = (0, 1) is not an element of 'dyadic'"),
    # a law is typed when it is built, so the compile never sees a non-term
    "check_equation Equation of ints": (
        lambda: terms.check_equation(terms.Equation(1, 2), models.godel3()),
        "lhs must be a Term, got 1"),
    "check_equation QuasiEquation list of ints": (
        lambda: terms.check_equation(terms.QuasiEquation([1], terms.parse_equation("x=x")),
                                     models.godel3()),
        "premises[0] must be an Equation, got 1"),
    "Equation rhs None": (lambda: terms.Equation(terms.var("x"), None), "rhs must be a Term, got None"),
    "QuasiEquation premises str": (lambda: terms.QuasiEquation("x=x", terms.parse_equation("x=x")),
                                   "premises must be a list or tuple of Equations, got 'x=x'"),
    "QuasiEquation conclusion Term": (lambda: terms.QuasiEquation((), terms.var("x")),
                                      f"conclusion must be an Equation, got {terms.var('x')!r}"),
    "enumerate_chain_models constraint": (
        lambda: finite.enumerate_chain_models(3, constraints=[["LPL"]]),
        str(finite._unknown_property(["LPL"]))),
    "enumerate_chain_models constraints None": (
        lambda: finite.enumerate_chain_models(3, constraints=None),
        "constraints must be a list of property names, got None"),
    "enumerate_chain_models constraints str": (
        lambda: finite.enumerate_chain_models(3, constraints="LPL"),
        "constraints must be a list of property names, got 'LPL'"),
    # text parsers take a str
    "parse_term dict": (lambda: terms.parse_term({"a": 1}), "term text must be a string, got {'a': 1}"),
    "parse_term bytes": (lambda: terms.parse_term(b"ab"), "term text must be a string, got b'ab'"),
    "parse_equation None": (lambda: terms.parse_equation(None), "term text must be a string, got None"),
    "parse_quasiequation list": (lambda: terms.parse_quasiequation(["x=x"]),
                                 "term text must be a string, got ['x=x']"),
    "m1_parse int": (lambda: omon.m1_parse(123), "monoid word must be a string, got 123"),
    "parse_fraction int": (lambda: nilpotent.parse_fraction(123), "fraction must be a string, got 123"),
    # group elements have int exponents: no floats in, none out
    "heis_pow float": (lambda: nilpotent.heis_pow((1.5, 0, 0), 2),
                       "g must be a triple of ints, got (1.5, 0, 0)"),
    "nth_root float": (lambda: nilpotent.nth_root((3.0, 0, 0), 1),
                       "g must be a triple of ints, got (3.0, 0, 0)"),
    # the order and the conucleus take fractions, not their group values
    "frac_cmp_group triple": (lambda: ore.frac_cmp_group(FRACTION, (1, 0, 0)),
                              "g must be an OreFraction, got (1, 0, 0)"),
    "frac_cmp_witness None": (lambda: ore.frac_cmp_witness(FRACTION, None),
                              "g must be an OreFraction, got None"),
    "frac_cmp_witness triple first": (lambda: ore.frac_cmp_witness((1, 0, 0), FRACTION),
                                      "f must be an OreFraction, got (1, 0, 0)"),
    "conucleus_sigma triple": (lambda: ore.conucleus_sigma((1, 0, 0)),
                               "f must be an OreFraction, got (1, 0, 0)"),
    "random_triple rng None": (lambda: ore.random_triple(None, 3), "rng must be a Random, got None"),
    "random_fraction rng int": (lambda: ore.random_fraction(7, 3), "rng must be a Random, got 7"),
    # operands that are not exactly two (m1) or three (s2) int entries in range
    "residual_search m1 triple": (
        lambda: omon.residual_search(omon.M1Instance, (1, 0, 9), (0, 1), "left", 8),
        "(1, 0, 9) is not an element of chain 'm1'"),
    "residual_search m1 int": (lambda: omon.residual_search(omon.M1Instance, (0, 1), 5, "left", 8),
                               "5 is not an element of chain 'm1'"),
    "residual_scan m1 single": (
        lambda: omon.residual_scan(omon.M1Instance, (0, 1), [(0, 0), (1,)], "left", 8),
        "(1,) is not an element of chain 'm1'"),
    "residual_scan m1 list": (
        lambda: omon.residual_scan(omon.M1Instance, [1, 0], [(0, 0)], "left", 8),
        "[1, 0] is not an element of chain 'm1'"),
    "residual_search s2 int": (lambda: omon.residual_search(omon.S2Instance, 5, Y, "left", 8),
                               "5 is not an element of chain 's2'"),
    "residual_search s2 pair": (
        lambda: omon.residual_search(omon.S2Instance, X, (1, 0), "right", 8),
        "(1, 0) is not an element of chain 's2'"),
    "residual_scan s2 None": (lambda: omon.residual_scan(omon.S2Instance, X, [Y, None], "left", 8),
                              "None is not an element of chain 's2'"),
    # finite elements are ints in range(n): no wrapping of negatives, no bools, no IndexError
    "absolute_value negative": (lambda: finite.absolute_value(models.godel3(), -1),
                                "element -1 is not in range(3)"),
    "conjugates past the carrier": (lambda: finite.conjugates(models.godel3(), 9, 0),
                                    "element 9 is not in range(3)"),
    "convex_closure bool": (lambda: finite.convex_closure(models.godel3(), [True]),
                            "element True is not in range(3)"),
    "convex_closure past the carrier": (lambda: finite.convex_closure(models.godel3(), [7]),
                                        "element 7 is not in range(3)"),
    "convex_closure_fixpoint negative": (
        lambda: finite.convex_closure_fixpoint(models.godel3(), [-3]),
        "element -3 is not in range(3)"),
    # a structure argument is a FiniteResLat, named in the message
    "validate_axioms None": (lambda: finite.validate_axioms(None), "s must be a FiniteResLat, got None"),
    "structure_to_json dict": (lambda: finite.structure_to_json({"leq": [[1]]}),
                               "s must be a FiniteResLat, got {'leq': [[1]]}"),
    "negative_cone str": (lambda: finite.negative_cone("godel3"),
                          "s must be a FiniteResLat, got 'godel3'"),
    "absolute_value None": (lambda: finite.absolute_value(None, 0), "s must be a FiniteResLat, got None"),
    "conjugates int": (lambda: finite.conjugates(3, 0, 0), "s must be a FiniteResLat, got 3"),
    "convex_closure None": (lambda: finite.convex_closure(None, [0]),
                            "s must be a FiniteResLat, got None"),
    "convex_closure_fixpoint None": (lambda: finite.convex_closure_fixpoint(None, [0]),
                                     "s must be a FiniteResLat, got None"),
    "all_convex_subuniverses None": (lambda: finite.all_convex_subuniverses(None),
                                     "s must be a FiniteResLat, got None"),
    "is_hamiltonian_structure list": (lambda: finite.is_hamiltonian_structure([]),
                                      "s must be a FiniteResLat, got []"),
    "direct_product first str": (lambda: models.direct_product("godel3", models.godel3()),
                                 "s must be a FiniteResLat, got 'godel3'"),
    "direct_product second None": (lambda: models.direct_product(models.godel3(), None),
                                   "t must be a FiniteResLat, got None"),
    # a dyadic operand is a DyadicPair, named in the message
    "dyadic_mul tuple": (lambda: nilpotent.dyadic_mul((1, 0), DyadicPair(1, 0)),
                         "g must be a DyadicPair, got (1, 0)"),
    "dyadic_mul second None": (lambda: nilpotent.dyadic_mul(DyadicPair(1, 0), None),
                               "h must be a DyadicPair, got None"),
    "dyadic_inv tuple": (lambda: nilpotent.dyadic_inv((1, 0)), "g must be a DyadicPair, got (1, 0)"),
    "dyadic_pow tuple": (lambda: nilpotent.dyadic_pow((1, 0), 2), "g must be a DyadicPair, got (1, 0)"),
    "dyadic_cmp second tuple": (lambda: nilpotent.dyadic_cmp(DyadicPair(1, 0), (1, 0)),
                                "h must be a DyadicPair, got (1, 0)"),
    "dyadic_conjugate second tuple": (lambda: nilpotent.dyadic_conjugate(DyadicPair(1, 0), (0, 1)),
                                      "b must be a DyadicPair, got (0, 1)"),
    # r is an int or a Fraction: a float or a str is not exact, and a bool is not an int
    "DyadicPair r float": (lambda: DyadicPair(0.1, 0), "r must be an int or a Fraction, got 0.1"),
    "DyadicPair r str": (lambda: DyadicPair("1", 0), "r must be an int or a Fraction, got '1'"),
    "DyadicPair r bool": (lambda: DyadicPair(True, 0), "r must be an int or a Fraction, got True"),
    # heyting_algebra refuses its order as derive_residuals does
    "heyting_algebra leq None": (lambda: finite.heyting_algebra(None), "leq must be a list of rows"),
    "heyting_algebra short row": (lambda: finite.heyting_algebra([[1, 0], [1]]),
                                  "leq row 1 must be a list of 2 entries"),
    "heyting_algebra leq cell": (lambda: finite.heyting_algebra([[2]]),
                                 "leq cell (0,0) = 2 is not 0, 1, true or false"),
    "heyting_algebra name": (lambda: finite.heyting_algebra([[1]], 5), "name must be a string, got 5"),
    "heyting_algebra not a lattice": (lambda: finite.heyting_algebra([[1, 1, 1], [0, 1, 0], [0, 0, 1]]),
                                      "missing meet or join for (1,2)"),
    "heyting_algebra empty": (lambda: finite.heyting_algebra([]),
                              "leq has no rows, so no top to be the unit"),
}


@pytest.mark.parametrize("site", REFUSALS)
def test_every_other_bad_argument_is_refused_with_one_message(site):
    call, message = REFUSALS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# every structure the library reads states the rule its values must pass
STRUCTURES = {**{name: build() for name, build in models.MODEL_BUILDERS.items()},
              "m1": omon.M1Instance, "s2": omon.S2Instance, "f2": ore.F2Instance,
              "dyadic": omon.DyadicInstance}


@pytest.mark.parametrize("name", STRUCTURES)
def test_every_structure_has_an_element_rule(name):
    s = STRUCTURES[name]
    assert s.member(s.unit) is True
    assert [s.member(v) for v in (None, True, 1.5)] == [False, False, False]


# --- malformed input at the boundary ----------------------------------------

TYPED = ValueError  # with its subclasses StructureError and TermSyntaxError

_CELL = st.one_of(st.integers(-1, 3), st.booleans(), st.none(), st.floats(allow_nan=False),
                  st.text(max_size=2), st.just([0]))


@st.composite
def _tables(draw):
    """An order, a product table and a unit on n elements, with at most one
    order cell, product cell, product row or the unit replaced by junk."""
    n = draw(st.integers(1, 4))
    cells = st.integers(0, n - 1)
    square = lambda cell: st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    leq = [list(row) for row in draw(st.one_of(st.just(finite.chain_leq(n)), square(st.booleans())))]
    mul, unit = draw(square(cells)), draw(cells)
    spot, junk, i, j = draw(st.sampled_from(["", "leq", "mul", "row", "unit"])), draw(_CELL), \
        draw(cells), draw(cells)
    if spot == "leq":
        leq[i][j] = junk
    elif spot == "mul":
        mul[i][j] = junk
    elif spot == "row":
        mul[i] = junk
    elif spot == "unit":
        unit = junk
    return leq, mul, unit


_JSON = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.text(max_size=3)),
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12)
_DOCUMENT = st.one_of(
    _JSON,
    st.fixed_dictionaries({}, optional={key: _JSON for key in ("leq", "mul", "unit", "ldiv", "rdiv",
                                                              "name")}),
    st.tuples(_tables(), st.dictionaries(st.sampled_from(["ldiv", "rdiv", "name"]), _JSON)).map(
        lambda t: {**t[1], **dict(zip(("leq", "mul", "unit"), t[0]))}),
)
_TEXT = st.one_of(st.text(alphabet="xyzeEvV*\\/^()=,> 1", max_size=24), st.text(max_size=12))


def _typed(call, *args):
    """The result of `call(*args)`, or None when it raised a typed error."""
    try:
        return call(*args)
    except TYPED:
        return None


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(tables=_tables())
def test_derive_residuals_raises_only_typed_errors(tables):
    _typed(finite.derive_residuals, *tables)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(document=_DOCUMENT)
def test_structure_documents_raise_only_typed_errors(document):
    s = _typed(finite.structure_from_json, document)
    if s is not None:
        _typed(terms.check_equation, terms.parse_equation("x*(x\\y) = x ^ y"), s)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=_TEXT)
def test_term_text_raises_only_typed_errors(text):
    law = _typed(terms.parse_quasiequation, text)
    if law is not None:
        _typed(terms.check_equation, law, models.godel3())


_ENTRY = st.one_of(st.integers(-2, 4), st.none(), st.floats(allow_nan=False), st.text(max_size=2),
                   st.booleans())
_OPERAND = st.one_of(
    _ENTRY,
    st.lists(_ENTRY, max_size=4).map(tuple),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),  # m1 elements
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9)),  # s2 elements, near misses
)
_GODEL3 = models.godel3()
_OPERAND_TARGETS = [
    lambda x, y: omon.residual_search(omon.M1Instance, x, y, "left", 8),
    lambda x, y: omon.residual_search(omon.S2Instance, x, y, "right", 8),
    lambda x, y: omon.residual_scan(omon.M1Instance, x, [y], "right", 8),
    lambda x, y: omon.residual_scan(omon.S2Instance, x, [y], "left", 8),
    omon.m1_residual,
    omon.s2_residual,
    nilpotent.s2_cmp,
    ore.OreFraction,
    ore.frac_cmp_group,
    ore.frac_cmp_witness,
    lambda x, y: ore.conucleus_sigma(x),
    lambda x, y: finite.absolute_value(_GODEL3, x),
    lambda x, y: finite.convex_closure(_GODEL3, [x, y]),
]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(x=_OPERAND, y=_OPERAND)
def test_chain_and_element_operands_raise_only_typed_errors(x, y):
    for target in _OPERAND_TARGETS:
        try:
            target(x, y)
        except (TYPED, omon.ResidualExhausted):
            pass
