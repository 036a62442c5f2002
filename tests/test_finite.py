import itertools
import json

import pytest

import reslat as R
from reslat import finite, models


def test_derive_residuals_godel3():
    g3 = models.godel3()
    # a\b is the greatest c with a*c <= b
    assert g3.ldiv(2, 1) == 1
    assert g3.ldiv(1, 0) == 0
    assert g3.ldiv(0, 0) == 2  # bottom times anything is bottom
    assert g3.rdiv(1, 2) == 1  # 1/2: greatest c with c*2 <= 1


def test_derive_residuals_oracle_agreement():
    # independent route: brute-force maxima straight from the definition
    for build in models.MODEL_BUILDERS.values():
        s = build()
        for a in s.elements:
            for b in s.elements:
                cand = [c for c in s.elements if s.leq[s.mul_table[a][c]][b]]
                best = max(cand, key=lambda c: sum(s.leq[d][c] for d in s.elements))
                assert s.ldiv(a, b) == best, (s.name, a, b)
                cand = [c for c in s.elements if s.leq[s.mul_table[c][a]][b]]
                best = max(cand, key=lambda c: sum(s.leq[d][c] for d in s.elements))
                assert s.rdiv(b, a) == best, (s.name, a, b)


def test_adjunction_all_models():
    for build in models.MODEL_BUILDERS.values():
        s = build()
        for a, b, c in itertools.product(s.elements, repeat=3):
            ab_le_c = s.leq[s.mul(a, b)][c]
            assert ab_le_c == s.leq[a][s.rdiv(c, b)]
            assert ab_le_c == s.leq[b][s.ldiv(a, c)]


def test_not_residuated_rejected():
    # a*a = e on a 3-chain breaks order preservation
    leq = finite.chain_leq(3)
    mul = [[2, 0, 0], [0, 1, 1], [0, 1, 2]]
    with pytest.raises(finite.StructureError):
        finite.derive_residuals(leq, mul, 2)


def test_not_a_monoid_rejected():
    leq = finite.chain_leq(3)
    mul = [[0, 0, 0], [0, 0, 1], [0, 1, 1]]  # unit row broken
    with pytest.raises(finite.NotAMonoid):
        finite.derive_residuals(leq, mul, 2)


def test_sugihara_residuals():
    s = models.sugihara3()
    # indices: 0 = f, 1 = e, 2 = t
    assert s.ldiv(2, 1) == 0  # t\e = f
    assert s.ldiv(0, 0) == 2  # f\f = t
    assert s.rdiv(1, 2) == 0  # e/t = f


def test_validate_axioms_clean_and_defect():
    g3 = models.godel3()
    assert R.validate_axioms(g3) == []
    broken = finite.FiniteResLat(
        n=g3.n,
        leq=g3.leq,
        mul_table=g3.mul_table,
        unit=g3.unit,
        ldiv_table=tuple(tuple(2 for _ in row) for row in g3.ldiv_table),
        rdiv_table=g3.rdiv_table,
        meet_table=g3.meet_table,
        join_table=g3.join_table,
        name="broken",
    )
    defects = R.validate_axioms(broken)
    assert defects and any("adjunction" in d[0] or "residual" in d[0] for d in defects)


def test_named_properties_on_library():
    g3, l3, s3 = models.godel3(), models.lukasiewicz3(), models.sugihara3()
    assert R.check_named_property(g3, "integral").holds
    assert R.check_named_property(l3, "integral").holds
    assert not R.check_named_property(s3, "integral").holds
    assert R.check_named_property(s3, "e-cyclic").holds
    assert R.check_named_property(g3, "LPL").holds
    assert not R.check_named_property(g3, "cancellative").holds
    assert R.check_named_property(models.trivial1(), "cancellative").holds
    with pytest.raises(KeyError):
        R.check_named_property(g3, "nonsense")


def test_prelinearity_implications_exhaustive():
    # the three one-way implications, checked over every chain up to size 4
    # and the hand library
    universe = list(models.model_library())
    for n in (1, 2, 3, 4):
        universe.extend(R.enumerate_chain_models(n))
    assert len(universe) > 20
    for s in universe:
        p = {
            k: R.check_named_property(s, k).holds
            for k in ("LPL", "LPL2", "LPL3", "e-join-dist",
                      "selfdiv-left", "distributive")
        }
        if p["LPL"]:
            assert p["LPL2"] and p["LPL3"], s.name
        if p["e-join-dist"]:
            assert p["LPL"] == p["LPL2"] == p["LPL3"], s.name
        if p["LPL3"] and p["selfdiv-left"]:
            assert p["distributive"], s.name


def test_heyting5_fails_lpl_but_not_lpl3():
    h5 = models.heyting5()
    v = R.check_named_property(h5, "LPL")
    assert not v.holds and v.witness == {"x": 1, "y": 2}


def test_negative_cone():
    s3 = models.sugihara3()
    cone = R.negative_cone(s3)
    assert cone.n == 2  # {f, e} is a 2-element Boolean chain
    assert R.check_named_property(cone, "integral").holds
    g3 = models.godel3()
    assert R.negative_cone(g3).n == 3  # already integral


def test_absolute_values_and_conjugates():
    s3 = models.sugihara3()
    # |a| = a meet (e/a) meet e
    assert R.absolute_value(s3, 2) == 0
    assert R.absolute_value(s3, 1) == 1
    assert R.absolute_value(s3, 0) == 0
    g3 = models.godel3()
    for a in g3.elements:
        assert R.absolute_value(g3, a) == a  # integral: |a| = a
        for b in g3.elements:
            lam, rho = R.conjugates(g3, a, b)
            assert g3.leq[lam][g3.unit] and g3.leq[rho][g3.unit]


def test_convex_closure_against_fixpoint_oracle():
    for s in models.model_library(max_size=6):
        if not R.check_named_property(s, "e-cyclic").holds:
            continue
        for r in range(s.n + 1):
            for gens in itertools.combinations(s.elements, r):
                got = R.convex_closure(s, gens).members
                want = R.convex_closure_fixpoint(s, gens)
                assert got == want, (s.name, gens)


def test_convex_families():
    g3 = models.godel3()
    fam = R.all_convex_subuniverses(g3)
    assert set(fam.members) == {frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})}
    s3 = models.sugihara3()
    fam = R.all_convex_subuniverses(s3)
    assert set(fam.members) == {frozenset({1}), frozenset({0, 1, 2})}
    assert fam.is_distributive() is None


def test_convex_family_lattice_ops():
    g3 = models.godel3()
    fam = R.all_convex_subuniverses(g3)
    a, b = frozenset({2}), frozenset({1, 2})
    assert fam.meet(a, b) == a
    assert fam.join(a, b) == b


def test_hamiltonian_finite():
    # every commutative finite model is Hamiltonian
    for name in ("godel3", "lukasiewicz3", "sugihara3", "heyting5"):
        s = models.MODEL_BUILDERS[name]()
        assert R.is_hamiltonian_structure(s), name


def test_enumerate_n3_against_raw_oracle():
    got = [s for s in R.enumerate_chain_models(3, constraints=("integral",))
           if s.unit == 2]
    assert len(got) == 2
    tables = {tuple(map(tuple, s.mul_table)) for s in got}
    godel = ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    luka = ((0, 0, 0), (0, 0, 1), (0, 1, 2))
    assert tables == {godel, luka}

    # independent oracle: all 3^9 raw tables
    leq = finite.chain_leq(3)
    oracle = set()
    for cells in itertools.product(range(3), repeat=9):
        mul = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
        try:
            s = finite.derive_residuals(leq, mul, 2)
        except finite.StructureError:
            continue
        if R.check_named_property(s, "integral").holds:
            oracle.add(tuple(map(tuple, s.mul_table)))
    assert oracle == tables


def test_enumerate_trivial_and_cap():
    assert len(R.enumerate_chain_models(1)) == 1
    with pytest.raises(finite.StructureError):
        R.enumerate_chain_models(9, cap=6)


def test_enumerate_env_cap(monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    with pytest.raises(finite.StructureError):
        R.enumerate_chain_models(3)
    monkeypatch.setenv("RESLAT_MAX_SIZE", "3")
    assert len(R.enumerate_chain_models(3)) == 3
    for raw in ("abc", "-1"):
        monkeypatch.setenv("RESLAT_MAX_SIZE", raw)
        with pytest.raises(finite.StructureError, match="RESLAT_MAX_SIZE"):
            R.enumerate_chain_models(3)


def test_json_round_trip(tmp_path):
    g3 = models.godel3()
    blob = R.structure_to_json(g3)
    s = R.structure_from_json(json.loads(json.dumps(blob)))
    assert s.mul_table == g3.mul_table
    assert s.ldiv_table == g3.ldiv_table
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(blob))
    s2 = R.load_structure(str(path))
    assert s2.mul_table == g3.mul_table


def test_json_rejects_bad_tables():
    g3 = models.godel3()
    blob = R.structure_to_json(g3)
    blob["ldiv"][0][0] = (blob["ldiv"][0][0] + 1) % 3
    with pytest.raises(finite.StructureError):
        R.structure_from_json(blob)


def test_direct_product():
    g3, c2 = models.godel3(), models.chain2()
    p = models.direct_product(g3, c2)
    assert p.n == 6
    assert R.validate_axioms(p) == []
    assert R.check_named_property(p, "integral").holds
