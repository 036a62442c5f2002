"""The library's input boundary: every public integer argument follows one
rule with one message, and malformed tables, structure documents and term
text end in one of the library's typed errors."""

import argparse
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
    "frac_cmp_witness": (lambda v: ore.frac_cmp_witness(FRACTION, FRACTION, v),
                         "bound", 0, 32, " in 0..32"),
    "omon prefix --bound": (lambda v: _prefix(bound=v), "bound", 1, 32, " in 1..32"),
    "omon prefix --count": (lambda v: _prefix(count=v), "count", 0, None, " >= 0"),
    "hamvty_witness": (omon.hamvty_witness, "truncation", 1, 5000, " in 1..5000"),
    "enumerate_chain_models cap": (lambda v: finite.enumerate_chain_models(1, cap=v),
                                   "cap", 1, None, " >= 1"),
    "enumerate_chain_models n": (lambda v: finite.enumerate_chain_models(v, cap=3),
                                 "chain size", 1, 3, " in 1..3"),
    "gen_Lc": (terms.gen_Lc, "nilpotency class", 1, 8, " in 1..8"),
    "nth_root": (lambda v: nilpotent.nth_root(X, v), "root degree", 1, None, " >= 1"),
    "heis_pow": (lambda v: nilpotent.heis_pow(X, v), "exponent", None, None, ""),
    "dyadic_pow": (lambda v: nilpotent.dyadic_pow(DyadicPair(1, 0), v), "exponent", None, None, ""),
    "verify_conucleus samples": (lambda v: ore.verify_conucleus(v), "samples", 1, None, " >= 1"),
    "verify_conucleus box": (lambda v: ore.verify_conucleus(1, box=v), "box", 0, None, " >= 0"),
    "load_structure max_n": (lambda v: finite.load_structure("one.json", max_n=v),
                             "max_n", 1, None, " >= 1"),
    "BatteryConfig max_size": (lambda v: battery.BatteryConfig(max_size=v),
                               "max_size", 1, None, " >= 1"),
    "BatteryConfig samples": (lambda v: battery.BatteryConfig(samples=v), "samples", 1, None, " >= 1"),
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


# --- malformed input at the boundary ----------------------------------------

TYPED = ValueError  # with its subclasses StructureError and TermSyntaxError

_CELL = st.one_of(st.integers(-1, 3), st.booleans(), st.none(), st.floats(allow_nan=False),
                  st.text(max_size=2))


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
