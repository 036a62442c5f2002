"""Acceptance suite: the twelve headline checks, one test each.

Every test drives the corresponding claim in reslat.battery at its full
verification box and prints a single PASS/FAIL line.  All checks are exact
(integer / rational arithmetic); there are no numeric tolerances.  A last
test checks that the battery refuses a configuration that gathers no evidence.
"""

import pytest

from reslat import battery, finite, terms

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
