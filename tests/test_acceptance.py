"""Acceptance suite: the twelve headline checks, one test each.

Every test drives the corresponding claim in reslat.battery at its full
verification box and prints a single PASS/FAIL line.  All checks are exact
(integer / rational arithmetic); there are no numeric tolerances.  Planted
faults pin the detail a failing claim reports, and the last tests check that
the battery refuses a configuration that gathers no evidence.
"""

import dataclasses

import pytest

from reslat import battery, finite, models, omon, terms
from reslat.nilpotent import HeisTriple

CFG = battery.BatteryConfig(max_size=5, samples=1000, seed=battery.DEFAULT_SEED)

CRITERIA = [
    ("01-adjunction-exhaustive", "adjunction-suite"),
    ("02-prelinearity-implications", "prelinearity-suite"),
    ("03-heisenberg-matrix-oracle", "heis-matrix-oracle"),
    ("04-nilpotency-laws", "nilpotency-laws"),
    ("05-unique-roots", "unique-roots"),
    ("06-divisibility-failures", "divisibility-failures"),
    ("07-residual-closed-form-agreement", "residual-agreement"),
    ("08-conucleus-battery", "conucleus-battery"),
    ("09-dyadic-chain-claims", "dyadic-claims"),
    ("10-hamiltonian-law-positive", "hamiltonian-law"),
    ("11-convex-subuniverse-suite", "convex-suite"),
    ("12-enumeration-count", "enumeration-count"),
]


@pytest.mark.parametrize("label,claim", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, claim):
    (result,) = battery.run_battery(CFG, only=claim)
    line = f"{'PASS' if result.status == 'pass' else 'FAIL'} {label}: {result.detail}"
    print(line)
    assert result.status == "pass", line


def test_nilpotency_claim_fails_when_the_class_2_law_is_the_commutative_law(monkeypatch):
    monkeypatch.setattr(battery, "gen_Lc", lambda c: terms.gen_Lc(1 if c == 2 else c))
    (result,) = battery.run_battery(CFG, only="nilpotency-laws")
    assert result.status == "fail" and result.detail.startswith("class-2 law fails at {")


def test_hamiltonian_claim_fails_on_a_law_of_groups_but_not_of_the_monoid(monkeypatch):
    # x*(x\e) = e holds in the group F2 and fails in the integral monoid S2
    monkeypatch.setitem(finite.PROPERTIES, "hamilt-eq", [terms.parse_equation("x*(x\\e) = e")])
    (result,) = battery.run_battery(CFG, only="hamiltonian-law")
    assert result.status == "fail" and result.detail.startswith("positive monoid: {")


def _planted(inst, bad, wrong):
    """`inst` whose ldiv and rdiv answer `wrong` at the calls (op, x, y) in `bad`."""
    return dataclasses.replace(
        inst, ldiv=lambda x, y: wrong if ("ldiv", x, y) in bad else inst.ldiv(x, y),
        rdiv=lambda x, y: wrong if ("rdiv", x, y) in bad else inst.rdiv(x, y))


def test_residual_claim_reports_the_first_mismatch_in_loop_order(monkeypatch):
    # two planted faults per chain; the claim names the one its loops reach first:
    # the chains in turn, then a, then the side, then b (the right side reads rdiv(b, a))
    m1_bad = {("ldiv", (1, 0), (0, 0)), ("rdiv", (2, 0), (0, 1))}
    monkeypatch.setattr(battery, "M1Instance", _planted(omon.M1Instance, m1_bad, (9, 9)))
    (result,) = battery.run_battery(CFG, only="residual-agreement")
    assert (result.status, result.detail) == ("fail", "m1 right (0, 1), (2, 0): (9, 9) vs (1, 0)")
    monkeypatch.undo()
    a, b1, b2 = HeisTriple(1, 1, 0), HeisTriple(0, 2, 0), HeisTriple(1, 0, 0)
    s2_bad = {("rdiv", b1, a), ("ldiv", a, b2)}
    monkeypatch.setattr(battery, "S2Instance", _planted(omon.S2Instance, s2_bad, HeisTriple(9, 9, 9)))
    (result,) = battery.run_battery(CFG, only="residual-agreement")
    want = omon.s2_residual(a, b2, "left")
    assert (result.status, result.detail) == (
        "fail", f"s2 left (1, 1, 0), (1, 0, 0): (9, 9, 9) vs {tuple(want)}")


def test_residual_claim_reads_the_records_operand_order(monkeypatch):
    # m1's ldiv(a, b) is m1_residual(b, a); the unswapped form answers b\a on the first pair
    monkeypatch.setattr(battery, "M1Instance",
                        dataclasses.replace(omon.M1Instance, ldiv=omon.m1_residual))
    (result,) = battery.run_battery(CFG, only="residual-agreement")
    assert (result.status, result.detail) == ("fail", "m1 left (0, 0), (0, 1): (0, 0) vs (0, 1)")


def test_divisibility_claim_names_the_chain_whose_product_is_wrong(monkeypatch):
    # the product with the cross term of the opposite convention: x*y = (1, 1, 1)
    def mul(g, h):
        return g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1]

    monkeypatch.setattr(battery, "S2Instance", dataclasses.replace(omon.S2Instance, mul=mul))
    (result,) = battery.run_battery(CFG, only="divisibility-failures")
    assert (result.status, result.detail) == (
        "fail", "s2 (0, 1, 0), (1, 0, 0): (b/a)a = (1, 1, 1), want (1, 1, 0) != a meet b")


@pytest.mark.parametrize("library, tag", [(None, "godel3"), ("unnamed", "3-element")])
def test_adjunction_claim_names_the_structure_that_fails(monkeypatch, library, tag):
    # a planted violation on godel3, or on a library of godel3 without its name
    if library == "unnamed":
        monkeypatch.setattr(models, "model_library",
                            lambda: [dataclasses.replace(models.godel3(), name="")])
    monkeypatch.setattr(battery, "validate_axioms",
                        lambda s: [("meet-glb", {"a": 0, "b": 1})] if s.name in ("godel3", "") else [])
    (result,) = battery.run_battery(CFG, only="adjunction-suite")
    assert (result.status, result.detail) == (
        "fail", f"<FiniteResLat {tag}>: meet-glb at {{'a': 0, 'b': 1}}")


@pytest.mark.parametrize("field", ["max_size", "samples"])
@pytest.mark.parametrize("value", [0, -4])
def test_config_without_evidence_is_refused(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {value}$"):
        battery.BatteryConfig(**{field: value})


def test_run_battery_builds_every_outcome(monkeypatch):
    def refuted(cfg):
        raise battery.ClaimFailed("counterexample at 3")

    claims = {"refuted": refuted, "holds": lambda cfg: "evidence",
              "enumeration-count": battery.CLAIMS["enumeration-count"]}
    monkeypatch.setattr(battery, "CLAIMS", claims)
    results = battery.run_battery(battery.BatteryConfig(max_size=2))
    assert [(r.claim, r.status, r.detail) for r in results] == [
        ("refuted", "fail", "counterexample at 3"),
        ("holds", "pass", "evidence"),
        ("enumeration-count", "skipped", "enumeration cap too low"),
    ]
    assert all(r.seconds >= 0 for r in results)


def test_unknown_claim_is_refused_before_any_claim_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(battery, "CLAIMS", {"a": ran.append, "b": ran.append})
    with pytest.raises(ValueError, match="^unknown claim 'bogus'; known: a, b$"):
        battery.run_battery(CFG, only="bogus")
    assert ran == []
