import dataclasses
import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading

import pytest

import reslat as R
from reslat import battery, finite, models


def test_derive_residuals_godel3():
    g3 = models.godel3()
    # a\b is the greatest c with a*c <= b
    assert g3.ldiv(2, 1) == 1
    assert g3.ldiv(1, 0) == 0
    assert g3.ldiv(0, 0) == 2  # bottom times anything is bottom
    assert g3.rdiv(1, 2) == 1  # 1/2: greatest c with c*2 <= 1


def test_derive_residuals_oracle_agreement():
    # independent route: brute-force maxima straight from the definition
    structures = [build() for build in models.MODEL_BUILDERS.values()]
    structures += [s for n in range(1, 6) for s in R.enumerate_chain_models(n)]
    structures.append(models.direct_product(models.heyting5(), models.godel3()))
    for s in structures:
        for a in s.elements:
            for b in s.elements:
                cand = [c for c in s.elements if s.leq[s.mul_table[a][c]][b]]
                best = max(cand, key=lambda c: sum(s.leq[d][c] for d in s.elements))
                assert s.ldiv(a, b) == best, (s.name, a, b)
                cand = [c for c in s.elements if s.leq[s.mul_table[c][a]][b]]
                best = max(cand, key=lambda c: sum(s.leq[d][c] for d in s.elements))
                assert s.rdiv(b, a) == best, (s.name, a, b)


def _reference_greatest(leq, members):
    if not members:
        return None
    top = members[0]
    for c in members:
        if leq[top][c]:
            top = c
    return top if all(leq[c][top] for c in members) else None


def _reference_derive(leq, mul, unit):
    """The derivation by the plain O(n^3) route: for every cell, list the
    candidates and climb to their greatest element.  Takes tables that
    passed the shape checks; returns the fields or (error class, message)."""
    leq = tuple(tuple(bool(x) for x in row) for row in leq)
    mul = tuple(map(tuple, mul))
    n = len(leq)
    rng = range(n)
    for a in rng:
        if not leq[a][a]:
            return finite.NotALattice, f"order not reflexive at {a}"
        for b in rng:
            if a != b and leq[a][b] and leq[b][a]:
                return finite.NotALattice, f"order not antisymmetric at ({a},{b})"
            for c in rng:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    return finite.NotALattice, f"order not transitive at ({a},{b},{c})"
    geq = tuple(tuple(leq[y][x] for y in rng) for x in rng)
    meet = [[0] * n for _ in rng]
    join = [[0] * n for _ in rng]
    for a in rng:
        for b in rng:
            m = _reference_greatest(leq, [c for c in rng if leq[c][a] and leq[c][b]])
            j = _reference_greatest(geq, [c for c in rng if leq[a][c] and leq[b][c]])
            if m is None or j is None:
                return finite.NotALattice, f"missing meet or join for ({a},{b})"
            meet[a][b], join[a][b] = m, j
    for a in rng:
        if mul[unit][a] != a or mul[a][unit] != a:
            return finite.NotAMonoid, f"unit law fails at {a}"
        for b in rng:
            for c in rng:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return finite.NotAMonoid, f"associativity fails at ({a},{b},{c})"
    for a in rng:
        for b in rng:
            for c in rng:
                if leq[a][b] and (not leq[mul[a][c]][mul[b][c]] or not leq[mul[c][a]][mul[c][b]]):
                    return finite.NotResiduated, (f"product not order-preserving: {a}<={b} but "
                                                  f"multiplication by {c} breaks it")
    ldiv = [[0] * n for _ in rng]
    rdiv = [[0] * n for _ in rng]
    for a in rng:
        for b in rng:
            cand = [c for c in rng if leq[mul[a][c]][b]]
            ldiv[a][b] = _reference_greatest(leq, cand)
            if ldiv[a][b] is None:
                return finite.NotResiduated, (f"no left residual {a}\\{b}; maximal candidates "
                                              f"{finite._two_maximal(leq, cand)}")
            cand = [c for c in rng if leq[mul[c][a]][b]]
            rdiv[b][a] = _reference_greatest(leq, cand)
            if rdiv[b][a] is None:
                return finite.NotResiduated, (f"no right residual {b}/{a}; maximal candidates "
                                              f"{finite._two_maximal(leq, cand)}")
    return tuple(tuple(map(tuple, t)) for t in (meet, join, ldiv, rdiv))


def test_enumerated_residual_tables_match_the_reference_derivation():
    # the tables enumerate_chain_models builds itself, from its shared memo of
    # residual rows, not a second derivation of its (leq, mul, unit)
    chains = [s for n in range(1, 7) for s in R.enumerate_chain_models(n)]
    assert len(chains) == 679
    for s in chains:
        want = _reference_derive(s.leq, s.mul_table, s.unit)
        assert (s.meet_table, s.join_table, s.ldiv_table, s.rdiv_table) == want, s.name


def _mutants(structures, count, seed):
    """`count` seeded mutants: each flips a leq cell, changes a mul cell or
    moves the unit, one to three times."""
    rng = random.Random(seed)
    for _ in range(count):
        s = rng.choice(structures)
        leq, mul, unit = [list(r) for r in s.leq], [list(r) for r in s.mul_table], s.unit
        for _ in range(rng.randint(1, 3)):
            i, j, kind = rng.randrange(s.n), rng.randrange(s.n), rng.randrange(3)
            if kind == 0:
                leq[i][j] = not leq[i][j]
            elif kind == 1:
                mul[i][j] = rng.randrange(s.n)
            else:
                unit = i
        yield leq, mul, unit


def test_bitset_derivation_matches_the_reference_derivation():
    structures = list(models.model_library())
    structures += [s for n in range(1, 7) for s in R.enumerate_chain_models(n)]
    structures.append(models.direct_product(models.heyting5(), models.godel3()))
    inputs = [(s.leq, s.mul_table, s.unit) for s in structures]
    inputs += _mutants(structures, 3000, seed=20240826)
    outcomes = set()
    for leq, mul, unit in inputs:
        want = _reference_derive(leq, mul, unit)
        try:
            s = finite.derive_residuals(leq, mul, unit)
            got = (s.meet_table, s.join_table, s.ldiv_table, s.rdiv_table)
            assert (s.n, s.leq, s.mul_table, s.unit) == (
                len(leq), tuple(tuple(map(bool, r)) for r in leq), tuple(map(tuple, mul)), unit)
        except finite.StructureError as exc:
            got = type(exc), str(exc)
        assert got == want, (leq, mul, unit)
        outcomes.add(got[1].split(" ")[0] if isinstance(got[1], str) else "ok")
    # every outcome the derivation can have is reached
    assert outcomes == {"ok", "order", "missing", "unit", "associativity", "product", "no"}


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


HEYTING_MODELS = ("trivial1", "chain2", "godel3", "godel4", "diamond4", "heyting5")


@pytest.mark.parametrize("name", HEYTING_MODELS)
def test_heyting_algebra_rebuilds_each_heyting_model(name):
    s = models.MODEL_BUILDERS[name]()
    assert finite.heyting_algebra(s.leq, s.name) == s
    # the fully checked route: the meet as product, the top as unit
    assert finite.derive_residuals(s.leq, s.meet_table, s.n - 1, s.name) == s


@pytest.mark.parametrize("leq, message", [
    # the pentagon N5: 0 < 1 < 3 < 4 and 0 < 2 < 4
    ([[1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
     "no left residual 3\\1; maximal candidates [1, 2]"),
    # the diamond M3: three atoms 1, 2, 3
    ([[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
     "no left residual 1\\0; maximal candidates [2, 3]"),
])
def test_heyting_algebra_refuses_a_non_distributive_lattice(leq, message):
    with pytest.raises(finite.NotResiduated, match=f"^{re.escape(message)}$"):
        finite.heyting_algebra(leq)


def test_the_model_library_keeps_its_order():
    # the library's order fixes the universe that the battery's finite claims run over
    assert list(models.MODEL_BUILDERS) == [
        "trivial1", "chain2", "godel3", "lukasiewicz3", "sugihara3", "godel4", "lukasiewicz4",
        "diamond4", "heyting5"]
    assert [s.name for s in models.model_library()] == [
        *models.MODEL_BUILDERS, "godel3xchain2", "godel3xgodel3"]


@pytest.mark.parametrize("name", models.MODEL_BUILDERS)
def test_each_model_builder_takes_no_argument(name):
    build = models.MODEL_BUILDERS[name]
    assert build is getattr(models, name) and build.__name__ == name
    with pytest.raises(TypeError):
        build(name="x")


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
        leq=g3.leq,
        mul_table=g3.mul_table,
        unit=g3.unit,
        ldiv_table=tuple(tuple(2 for _ in row) for row in g3.ldiv_table),
        rdiv_table=g3.rdiv_table,
        meet_table=g3.meet_table,
        join_table=g3.join_table,
        name="broken",
    )
    # a\c = 2 everywhere, so b <= a\c holds where ab = min(a, b) <= c fails
    assert R.validate_axioms(broken) == [("adjunction", {"a": a, "b": b, "c": c}) for a, b, c in (
        (1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1))]
    # (1·2)·1 = 0 ≠ 1 = 1·(2·1) and (2·1)·1 = 2 ≠ 0 = 2·(1·1): only the first is reported
    mul = ((0, 0, 0), (0, 0, 1), (0, 2, 2))
    defects = R.validate_axioms(finite.FiniteResLat(**{**g3.__dict__, "mul_table": mul}))
    assert [d for d in defects if d[0] == "monoid-associative"] == [
        ("monoid-associative", {"a": 1, "b": 2, "c": 1})]


@pytest.mark.parametrize("fields, witness", [
    ({"mul_table": ((0,),)}, {"field": "mul_table", "value": ((0,),)}),
    ({"unit": -1}, {"field": "unit", "value": -1}),
    ({"unit": True}, {"field": "unit", "value": True}),
    ({"mul_table": ((0, 0, 0), (0, True, 1), (0, 1, 2))},
     {"field": "mul_table", "cell": (1, 1), "value": True}),
    # n is len(leq): a table of another length is refused as a whole
    ({"leq": ((True, True), (False, True))},
     {"field": "mul_table", "value": models.godel3().mul_table}),
    # an empty leq leaves no element to be the unit
    ({key: () for key in finite._TABLES}, {"field": "unit", "value": models.godel3().unit}),
    ({"leq": None}, {"field": "leq", "value": None}),
    ({"leq": ((True, True, 2), (False, True, True), (False, False, True))},
     {"field": "leq", "cell": (0, 2), "value": 2}),
    ({"meet_table": ((0, 0, 0), (0, 1, 1), (0, 1, 2, 0))},
     {"field": "meet_table", "row": 2, "value": (0, 1, 2, 0)}),
    ({"join_table": ((0, 1, 2), (1, 1, 2), (2, 2, -1))},
     {"field": "join_table", "cell": (2, 2), "value": -1}),
    ({"ldiv_table": ((2, 2, 2), (0, 2, 2), {0, 1, 2})},
     {"field": "ldiv_table", "row": 2, "value": {0, 1, 2}}),
    # a table derived for another structure is walked like any other
    ({"mul_table": models.godel4().mul_table},
     {"field": "mul_table", "value": models.godel4().mul_table}),
    # the first defect in field order: the rdiv cell comes before the unit
    ({"rdiv_table": ((2, 0, 0), (2, 2, 1), (2, 2, 2.0)), "unit": 3},
     {"field": "rdiv_table", "cell": (2, 2), "value": 2.0}),
    ({"unit": 7}, {"field": "unit", "value": 7}),
])
def test_validate_axioms_reports_a_malformed_structure_by_its_first_defect(fields, witness):
    # the constructor refuses the structure, so `validate_axioms` never sees it
    n = len(fields.get("leq", models.godel3().leq) or ())
    with pytest.raises(finite.StructureError, match=f"^{re.escape(_refusal(witness, n))}$"):
        finite.FiniteResLat(**{**models.godel3().__dict__, **fields})


def _refusal(witness, n):
    """The constructor's message for the shape defect `witness`, {"field": ...,
    "row" or "cell" where it lies, "value": ...}, of a structure whose leq
    has n rows."""
    key, value = witness["field"], witness["value"]
    if "cell" in witness:
        rule = "0, 1, true or false" if key == "leq" else f"in range({n})"
        return f"{key} cell ({witness['cell'][0]},{witness['cell'][1]}) = {value!r} is not {rule}"
    if "row" in witness:
        return f"{key} row {witness['row']} must be a list of {n} entries"
    if key == "unit":
        return f"unit {value!r} is not in range({n})"
    return "leq must be a list of rows" if key == "leq" else f"{key} must be a list of {n} rows"


def test_size_is_the_length_of_leq():
    assert "n" not in {f.name for f in dataclasses.fields(finite.FiniteResLat)}
    structures = [*models.model_library(),
                  *(s for n in range(1, 7) for s in R.enumerate_chain_models(n))]
    assert all(s.n == len(s.leq) and s.elements == range(len(s.leq)) for s in structures)


def test_a_nameless_structure_without_leq_is_reported_and_shown():
    with pytest.raises(finite.StructureError, match="^leq must be a list of rows$"):
        finite.FiniteResLat(**{**models.godel3().__dict__, "leq": None, "name": ""})
    assert repr(dataclasses.replace(models.godel3(), name="")) == "<FiniteResLat 3-element>"


def _with_list_rows(s):
    return finite.FiniteResLat(**{key: [list(row) for row in value] if key in finite._TABLES
                                  else value for key, value in s.__dict__.items()})


def test_validate_axioms_reports_exactly_the_malformed_cells():
    g3 = models.godel3()
    assert R.validate_axioms(_with_list_rows(g3)) == []  # rows may be lists
    for key, junk in itertools.product(finite._TABLES,
                                       [True, False, -1, 3, 2, 1.0, None, "1", [0]]):
        rows = [list(row) for row in getattr(g3, key)]
        rows[2][1] = junk
        proper = (isinstance(junk, int) and junk in (0, 1) if key == "leq"
                  else junk.__class__ is int and junk in (0, 1, 2))
        refusal = _refusal({"field": key, "cell": (2, 1), "value": junk}, 3)
        try:
            s = finite.FiniteResLat(**{**g3.__dict__, key: rows})
        except finite.StructureError as exc:
            assert not proper and str(exc) == refusal, (key, junk, exc)
        else:
            assert proper and getattr(s, key)[2][1] is junk, (key, junk)  # kept as given


def test_a_structure_with_list_rows_hashes_and_equals_its_tuple_form():
    g3 = models.godel3()
    lists = _with_list_rows(g3)
    assert hash(lists) == hash(g3) and lists == g3
    assert all(type(row) is tuple for key in finite._TABLES for row in getattr(lists, key))


def test_every_derived_structure_passes_the_constructor_unchanged():
    # `_residuated` skips the constructor's shape check: whatever it returns,
    # rebuilt through the check, is accepted and equal
    assert [f.name for f in dataclasses.fields(finite.FiniteResLat)] == [
        "leq", "mul_table", "unit", "meet_table", "join_table", "ldiv_table", "rdiv_table", "name"]
    library = models.model_library()
    structures = [*library, *(s for n in range(1, 7) for s in R.enumerate_chain_models(n))]
    structures += [R.structure_from_json(R.structure_to_json(s)) for s in structures]
    structures += map(R.negative_cone, library)
    for s in structures:
        rebuilt = dataclasses.replace(s)
        assert rebuilt == s and hash(rebuilt) == hash(s), s


def _reference_validate_axioms(s):
    """validate_axioms with one loop per check, no helper of `finite`, and
    every table read through its attribute on every step: the report to
    match, order included."""
    n, leq, mul = s.n, s.leq, s.mul_table
    rng = range(n)
    out = []
    for a in rng:
        if not leq[a][a]:
            out.append(("order-reflexive", {"a": a}))
        for b in rng:
            if leq[a][b] and a != b and leq[b][a]:
                out.append(("order-antisymmetric", {"a": a, "b": b}))
            for c in rng:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    out.append(("order-transitive", {"a": a, "b": b, "c": c}))
    for a in rng:
        for b in rng:
            m = s.meet_table[a][b]
            if not (leq[m][a] and leq[m][b]) or any(
                    leq[d][a] and leq[d][b] and not leq[d][m] for d in rng):
                out.append(("meet-glb", {"a": a, "b": b}))
            j = s.join_table[a][b]
            if not (leq[a][j] and leq[b][j]) or any(
                    leq[a][d] and leq[b][d] and not leq[j][d] for d in rng):
                out.append(("join-lub", {"a": a, "b": b}))
    for a in rng:
        if mul[s.unit][a] != a or mul[a][s.unit] != a:
            out.append(("monoid-unit", {"a": a}))
    bad = next(((a, b, c) for a in rng for b in rng for c in rng
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]), None)
    if bad is not None:
        out.append(("monoid-associative", dict(zip("abc", bad))))
    for a in rng:
        for b in rng:
            for c in rng:
                adj = leq[mul[a][b]][c]
                if adj != leq[a][s.rdiv_table[c][b]] or adj != leq[b][s.ldiv_table[a][c]]:
                    out.append(("adjunction", {"a": a, "b": b, "c": c}))
    return out


def _one_cell_corruptions(s):
    """s with one cell of leq flipped, or one cell of mul, ldiv, rdiv, meet or
    join set to another element."""
    for field in ("leq", "mul_table", "ldiv_table", "rdiv_table", "meet_table", "join_table"):
        table = getattr(s, field)
        for a, b in itertools.product(s.elements, repeat=2):
            for v in ((not table[a][b],) if field == "leq" else s.elements):
                if v != table[a][b]:
                    rows = [list(row) for row in table]
                    rows[a][b] = v
                    yield finite.FiniteResLat(**{**s.__dict__, field: finite._freeze(rows)})


def test_validate_axioms_report_matches_the_reference_under_one_cell_corruptions():
    # the 9-element godel3 x godel3 alone would triple the run time
    structures = [s for s in models.model_library() if s.n <= 6] + [
        s for n in range(1, 5) for s in R.enumerate_chain_models(n)]
    laws, count = set(), 0
    for s in structures:
        assert R.validate_axioms(s) == _reference_validate_axioms(s) == [], s
        for broken in _one_cell_corruptions(s):
            report = R.validate_axioms(broken)
            assert report == _reference_validate_axioms(broken), broken.__dict__
            laws.update(law for law, _ in report)
            count += 1
    assert count == 6_713
    assert laws == {"order-reflexive", "order-antisymmetric", "order-transitive", "meet-glb",
                    "join-lub", "monoid-unit", "monoid-associative", "adjunction"}


def test_validate_axioms_at_the_size_bound_reports_as_the_reference():
    # the byte encoding at its largest size: rows of 64 elements padded with 192 bytes
    s = R.heyting_algebra(R.chain_leq(finite.MAX_SIZE))
    assert R.validate_axioms(s) == _reference_validate_axioms(s) == []
    rows = [list(row) for row in s.mul_table]
    rows[63][62] = 61  # 63 is the unit, so unit times 62 is 62
    broken = finite.FiniteResLat(**{**s.__dict__, "mul_table": rows})
    report = R.validate_axioms(broken)
    assert report == _reference_validate_axioms(broken)
    assert [law for law, _ in report] == ["monoid-unit", "monoid-associative", "adjunction"]


def test_the_lattice_report_memo_is_bounded_like_the_order_memo():
    assert finite._lattice_report.cache_info().maxsize == finite._ORDER_CACHE_SIZE


def test_the_lattice_report_memo_is_keyed_on_meet_and_join_too():
    s = R.enumerate_chain_models(4)[0]
    assert R.validate_axioms(s) == []
    for field in ("meet_table", "join_table"):
        rows = [list(row) for row in getattr(s, field)]
        rows[1][2] = 0 if field == "meet_table" else 3
        broken = finite.FiniteResLat(**{**s.__dict__, field: rows})
        assert broken.leq == s.leq
        report = R.validate_axioms(broken)
        assert report == _reference_validate_axioms(broken)
        assert ({law for law, _ in report}
                == {"meet-glb" if field == "meet_table" else "join-lub"}), report


def test_a_report_is_the_callers_to_mutate():
    s = R.enumerate_chain_models(4)[0]
    rows = [list(row) for row in s.meet_table]
    rows[1][2] = 0
    broken = finite.FiniteResLat(**{**s.__dict__, "meet_table": rows})
    report = R.validate_axioms(broken)
    expected = _reference_validate_axioms(broken)
    assert report == expected
    report[0][1]["a"] = 99
    report[0][1].clear()
    report.append(("extra", {}))
    assert R.validate_axioms(broken) == expected


def test_a_residuated_product_that_is_not_associative_is_reported():
    # on a chain, a monotone product with 0 absorbing has both residuals, so
    # only associativity fails: (2·2)·1 = 0 but 2·(2·1) = 1
    mul = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3))
    rng = range(4)
    s = finite.FiniteResLat(
        leq=finite.chain_leq(4), mul_table=mul, unit=3,
        meet_table=[[min(a, b) for b in rng] for a in rng],
        join_table=[[max(a, b) for b in rng] for a in rng],
        ldiv_table=[[max(c for c in rng if mul[a][c] <= b) for b in rng] for a in rng],
        rdiv_table=[[max(c for c in rng if mul[c][b] <= a) for b in rng] for a in rng])
    assert R.validate_axioms(s) == _reference_validate_axioms(s) == [
        ("monoid-associative", {"a": 2, "b": 2, "c": 1})]


def test_the_byte_test_passes_every_clean_structure():
    structures = [*models.model_library(), *(s for n in range(1, 6) for s in R.enumerate_chain_models(n))]
    for s in structures:
        assert finite._product_law_report(s.leq, s.mul_table, s.ldiv_table, s.rdiv_table) == [], s


def test_equal_orders_share_one_lattice_order():
    for leq in ([list(row) for row in finite.chain_leq(4)], finite.chain_leq(5)):
        n = len(leq)
        godel = [[min(a, b) for b in range(n)] for a in range(n)]
        first, second = (finite.derive_residuals(leq, godel, n - 1) for _ in range(2))
        assert first.meet_table is second.meet_table
        assert first.join_table is second.join_table
    assert finite._lattice_order.cache_info().maxsize == finite._ORDER_CACHE_SIZE
    # same size, different orders
    heyting5 = models.heyting5()
    assert heyting5.leq != finite.chain_leq(5)
    assert finite._lattice_order(heyting5.leq) is not finite._lattice_order(finite.chain_leq(5))
    assert heyting5.meet_table != R.enumerate_chain_models(5)[0].meet_table


def test_a_non_lattice_is_refused_on_every_call():
    # 0 and 1 are both below 2 and 3, with nothing between: no join of 0 and 1
    leq = [[a == b or (a < 2 <= b) for b in range(4)] for a in range(4)]
    mul = [[0] * 4 for _ in range(4)]
    messages = []
    for _ in range(2):
        with pytest.raises(finite.NotALattice) as caught:
            finite.derive_residuals(leq, mul, 0)
        messages.append(str(caught.value))
    assert messages == ["missing meet or join for (0,1)"] * 2


def test_named_properties_on_library():
    g3, l3, s3 = models.godel3(), models.lukasiewicz3(), models.sugihara3()
    assert R.check_named_property(g3, "integral").holds
    assert R.check_named_property(l3, "integral").holds
    assert not R.check_named_property(s3, "integral").holds
    assert R.check_named_property(s3, "e-cyclic").holds
    assert R.check_named_property(g3, "LPL").holds
    assert not R.check_named_property(g3, "cancellative").holds
    assert R.check_named_property(models.trivial1(), "cancellative").holds
    with pytest.raises(ValueError):
        R.check_named_property(g3, "nonsense")


def test_inequality_properties_are_in_meet_form():
    # t <= s is registered as t ^ s = t; built here from separately parsed
    # sides, so a misplaced parenthesis in the registry text would show
    t = R.parse_term("(x ^ e)*(x ^ e)")
    for name, s in [("weakly-abelian", "y\\((x ^ e)*y)"),
                    ("hamilt-eq", "(y\\(x*y) ^ e) ^ ((z*x)/z ^ e)")]:
        assert R.PROPERTIES[name] == [R.Equation(R.meet(t, R.parse_term(s)), t)]


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


def _first_failing_law(s, name):
    for law in R.PROPERTIES[name]:
        v = R.check_equation(law, s)
        if not v.holds:
            return v
    return R.HOLDS


def test_a_named_property_is_the_verdict_of_its_first_failing_law():
    universe = models.model_library() + [s for n in range(1, 6) for s in R.enumerate_chain_models(n)]
    chains6 = R.enumerate_chain_models(6)
    assert (len(universe), len(chains6), len(R.PROPERTY_NAMES)) == (115, 575, 19)
    for s in universe + chains6:
        for name in R.PROPERTY_NAMES:
            got, want = R.check_named_property(s, name), _first_failing_law(s, name)
            assert got == want and got.witness == want.witness, (s, name)
            assert (got is R.HOLDS) == want.holds


def test_a_named_property_checks_its_laws_in_order(monkeypatch):
    # no registered property has two laws that fail at different witnesses on
    # the chains up to size 7 or the library, so plant one
    laws = [R.parse_equation("x*y = y*x"), R.parse_equation("x ^ e = x")]
    s = next(s for s in R.enumerate_chain_models(4)
             if not any(R.check_equation(law, s).holds for law in laws))
    for order in (laws, laws[::-1]):
        monkeypatch.setitem(finite.PROPERTIES, "commutative", order)
        monkeypatch.setattr(finite, "_CHECKERS", {})  # built from PROPERTIES on a name's first check
        assert R.check_named_property(s, "commutative") == R.check_equation(order[0], s)


def test_an_unknown_property_is_refused_before_anything_compiles():
    before = R.terms._compile.cache_info()
    for name in ("nonsense", "lpl", None, ["LPL"], ("LPL",)):
        with pytest.raises(ValueError, match="^unknown property "):
            R.check_named_property(models.godel3(), name)
    assert R.terms._compile.cache_info() == before
    assert set(finite._CHECKERS) <= set(R.PROPERTY_NAMES)


def test_negative_cone():
    s3 = models.sugihara3()
    cone = R.negative_cone(s3)
    assert cone.n == 2  # {f, e} is a 2-element Boolean chain
    assert R.check_named_property(cone, "integral").holds
    g3 = models.godel3()
    assert R.negative_cone(g3).n == 3  # already integral
    # the cone's derived residuals are the parent's, truncated at the unit
    for s in battery._model_universe(battery.BatteryConfig()):
        cone = R.negative_cone(s)
        members = [a for a in s.elements if s.le(a, s.unit)]
        for (i, a), (j, b) in itertools.product(enumerate(members), repeat=2):
            assert cone.ldiv(i, j) == members.index(s.meet(s.ldiv(a, b), s.unit))
            assert cone.rdiv(i, j) == members.index(s.meet(s.rdiv(a, b), s.unit))


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


def _convex_subuniverses_by_subsets(s):
    """Oracle: every subset holding e that is closed under the operations and
    convex, in the family's order."""
    ops = (s.mul, s.meet, s.join, s.ldiv, s.rdiv)
    rest = [a for a in s.elements if a != s.unit]
    found = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            h = frozenset(combo) | {s.unit}
            if all(op(a, b) in h for a in h for b in h for op in ops) and all(
                c in h for a in h for b in h for c in s.elements if s.le(a, c) and s.le(c, b)
            ):
                found.append(h)
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def test_convex_families_match_the_subset_search():
    structures = models.model_library() + [
        models.direct_product(models.heyting5(), models.chain2()),
        models.direct_product(models.diamond4(), models.godel3()),
    ]
    tested = 0
    for s in structures:
        if not R.check_named_property(s, "e-cyclic").holds:
            continue
        assert R.all_convex_subuniverses(s) == _convex_subuniverses_by_subsets(s), s.name
        for a in s.elements:
            assert R.convex_closure(s, [a]) == R.convex_closure_fixpoint(s, [a]), (s.name, a)
        tested += 1
    assert tested == 13


def test_convex_families():
    g3 = models.godel3()
    fam = R.all_convex_subuniverses(g3)
    assert set(fam) == {frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})}
    s3 = models.sugihara3()
    fam = R.all_convex_subuniverses(s3)
    assert set(fam) == {frozenset({1}), frozenset({0, 1, 2})}


def test_convex_family_lattice_ops():
    g3 = models.godel3()
    a, b = frozenset({2}), frozenset({1, 2})
    assert a & b == a
    assert R.convex_closure(g3, a | b) == b


def test_hamiltonian_finite():
    # every commutative finite model is Hamiltonian
    for name in ("godel3", "lukasiewicz3", "sugihara3", "heyting5"):
        s = models.MODEL_BUILDERS[name]()
        assert R.is_hamiltonian_structure(s), name
    assert R.is_hamiltonian_structure(models.direct_product(models.godel3(), models.godel3()))


def test_the_non_hamiltonian_chains_of_size_at_most_4():
    rho_only = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 2), (0, 1, 2, 3))
    lam_only = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2), (0, 1, 2, 3))
    failing = [
        s for n in range(1, 5) for s in R.enumerate_chain_models(n)
        if R.check_named_property(s, "e-cyclic").holds and not R.is_hamiltonian_structure(s)
    ]
    assert [(s.name, s.mul_table) for s in failing] == [
        ("chain4-u3", rho_only), ("chain4-u3", lam_only)
    ]
    # the first leaves H = {2, 3} through rho alone, the second through lambda alone
    for s, kept in zip(failing, ((True, False), (False, True))):
        assert R.is_hamiltonian_structure(s).witness == {"H": [2, 3], "a": 2, "b": 1}
        lam, rho = R.conjugates(s, 2, 1)
        assert (lam in {2, 3}, rho in {2, 3}) == kept


def test_convex_code_refuses_a_chain_that_is_not_e_cyclic():
    mul = ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 3, 3, 3))
    s = R.derive_residuals(R.chain_leq(4), mul, 2)
    for call in (lambda: R.convex_closure(s, [1]), lambda: R.all_convex_subuniverses(s),
                 lambda: R.is_hamiltonian_structure(s)):
        with pytest.raises(finite.NotECyclic) as err:
            call()
        assert str(err.value) == "structure is not e-cyclic, witness {'x': 1}"
    # up to size 4, it and one other chain4-u2 table are the only chains that are not e-cyclic
    refused = [(t.name, t.mul_table) for n in range(1, 5) for t in R.enumerate_chain_models(n)
               if not R.check_named_property(t, "e-cyclic").holds]
    assert len(refused) == 2 and ("chain4-u2", mul) in refused


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


def _reference_chain_tables(n, unit):
    """The chain tables by the plain route: fill the free cells row-major
    with every value monotone against all set cells, and keep the full
    tables that are associative."""
    rng = range(n)
    grid = [[None] * n for _ in rng]
    for j in rng:
        grid[unit][j] = grid[j][unit] = j
        grid[0][j] = grid[j][0] = 0
    free = [(i, j) for i in rng for j in rng if i not in (0, unit) and j not in (0, unit)]

    def monotone(i, j, v):
        column = [grid[k][j] for k in rng]
        return all(w is None or (w <= v if k < pos else w >= v)
                   for line, pos in ((column, i), (grid[i], j))
                   for k, w in enumerate(line) if k != pos)

    def rec(k):
        if k == len(free):
            if all(grid[grid[a][b]][c] == grid[a][grid[b][c]]
                   for a in rng for b in rng for c in rng):
                yield tuple(map(tuple, grid))
            return
        i, j = free[k]
        for v in rng:
            if monotone(i, j, v):
                grid[i][j] = v
                yield from rec(k + 1)
        grid[i][j] = None

    yield from rec(0)


@pytest.mark.parametrize("n", range(1, 6))
def test_pruned_fill_matches_the_reference_fill(n):
    for unit in ([0] if n == 1 else range(1, n)):
        assert list(finite._chain_tables(n, unit)) == list(_reference_chain_tables(n, unit))


def test_enumeration_counts():
    assert [len(R.enumerate_chain_models(n)) for n in range(1, 7)] == [1, 1, 3, 15, 84, 575]


def test_equal_rows_of_one_enumeration_are_one_object():
    chains6 = R.enumerate_chain_models(6)
    assert len(chains6) == 575
    rows = [row for s in chains6 for table in (s.mul_table, s.ldiv_table, s.rdiv_table)
            for row in table]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows) // 20
    # the shared rows are the rows each table derives on its own
    for s in chains6[::23]:
        alone = R.derive_residuals(s.leq, s.mul_table, s.unit, s.name)
        assert alone == s and alone.rdiv_table == s.rdiv_table


def _derived(leq, mul, unit):
    """What `derive_residuals` gives, in the form `_reference_derive` does."""
    try:
        s = finite.derive_residuals(leq, mul, unit)
    except finite.StructureError as exc:
        return type(exc), str(exc)
    return s.meet_table, s.join_table, s.ldiv_table, s.rdiv_table


def _memo_inputs(mutants):
    structures = models.model_library()
    structures += [s for n in range(1, 7) for s in R.enumerate_chain_models(n)]
    return [(s.leq, s.mul_table, s.unit) for s in structures] + list(
        _mutants(structures, mutants, seed=20240827))


def test_a_derivation_on_a_known_order_repeats_the_first():
    # each order's memo of residual rows starts empty, then serves the second pass
    inputs = _memo_inputs(1000)
    finite._lattice_order.cache_clear()
    first = [_derived(*args) for args in inputs]
    second = [_derived(*args) for args in inputs]
    assert first == second == [_reference_derive(*args) for args in inputs]
    assert sum(isinstance(got[1], str) for got in first) > 500  # refusals are repeated too


def test_the_row_memo_is_emptied_past_its_bound(monkeypatch):
    inputs = _memo_inputs(300)
    want = [_reference_derive(*args) for args in inputs]
    chains = [R.enumerate_chain_models(n) for n in range(1, 7)]
    monkeypatch.setattr(finite, "_ROW_MEMO_SIZE", 16)
    finite._lattice_order.cache_clear()
    for args, expected in zip(inputs, want):
        assert _derived(*args) == expected
        if expected[0] is not finite.NotALattice:
            order = finite._lattice_order(tuple(tuple(map(bool, row)) for row in args[0]))
            # a derivation adds at most its 2n lines, their rows and the n rows of rdiv
            assert len(order.lines) + len(order.rows) <= 16 + 5 * len(args[0])
    assert [R.enumerate_chain_models(n) for n in range(1, 7)] == chains


def test_threads_deriving_on_one_order_while_its_memo_is_emptied_agree(monkeypatch):
    monkeypatch.setattr(finite, "_ROW_MEMO_SIZE", 1)
    chains6 = R.enumerate_chain_models(6)
    inputs = [(s.leq, s.mul_table, s.unit) for s in chains6]
    inputs += _mutants(chains6, 200, seed=20240828)
    want = [_reference_derive(*args) for args in inputs] * 2
    results, errors = {}, []

    def derive_all(key):
        try:
            results[key] = [_derived(*args) for args in inputs * 2]
        except Exception as exc:  # the test asserts there is none
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that clears land mid-derivation
    try:
        threads = [threading.Thread(target=derive_all, args=(key,)) for key in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == {0: want, 1: want}


def test_equal_rows_of_two_enumerations_are_one_object():
    first, second = R.enumerate_chain_models(5), R.enumerate_chain_models(5)
    assert first == second
    rows = [row for s in first + second for table in (s.mul_table, s.ldiv_table, s.rdiv_table)
            for row in table]
    assert len({id(row) for row in rows}) == len(set(rows))


def test_the_seven_element_chains_fit_in_the_row_memo():
    finite._lattice_order.cache_clear()
    first = R.enumerate_chain_models(7, cap=7)
    order = finite._lattice_order(finite.chain_leq(7))
    assert (len(first), len(order.lines)) == (4687, 439)
    assert len(order.lines) + len(order.rows) <= finite._ROW_MEMO_SIZE
    # the second enumeration starts with the memo of the first, not an emptied one
    kept = dict(order.lines)
    second = R.enumerate_chain_models(7, cap=7)
    assert order.lines == kept and second[-1].ldiv_table[-1] is first[-1].ldiv_table[-1]


def test_seven_element_tables_are_closed_under_transpose():
    # the opposite monoid of each table is reached by a different fill path
    tables = [t for unit in range(1, 7) for t in finite._chain_tables(7, unit)]
    assert len(tables) == 4687
    assert len(set(tables)) == len(tables)
    transposed = {tuple(zip(*t)) for t in tables}
    assert transposed == set(tables)
    assert sum(t == tuple(zip(*t)) for t in tables) == 1073


def test_enumerate_trivial_and_cap():
    assert len(R.enumerate_chain_models(1)) == 1
    with pytest.raises(ValueError, match=r"^chain size must be an integer in 1\.\.6, got 9$"):
        R.enumerate_chain_models(9, cap=6)
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^chain size must be an integer in 1\.\.6, got {n}$"):
            R.enumerate_chain_models(n)
    # a bool is an int to Python, but not a size: True would build chainTrue-u0
    with pytest.raises(ValueError, match=r"^chain size must be an integer in 1\.\.6, got True$"):
        R.enumerate_chain_models(True)
    with pytest.raises(ValueError, match="^cap must be an integer >= 1, got True$"):
        R.enumerate_chain_models(3, cap=True)


def test_enumerate_refuses_a_size_above_64_whatever_its_cap(monkeypatch):
    # the stated range is the one enforced: a cap above 64 does not admit 65
    monkeypatch.setattr(finite, "chain_leq", lambda n: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match=r"^chain size must be an integer in 1\.\.64, got 65$"):
        R.enumerate_chain_models(65, cap=100)


def test_enumerate_refuses_an_unknown_constraint_before_enumerating():
    known = ", ".join(finite.PROPERTY_NAMES)
    # "cancellative" rejects every 3-chain, so a lazy lookup never reaches "bogus"
    for constraints in (("cancellative", "bogus"), ("bogus",)):
        with pytest.raises(ValueError, match=f"^unknown property 'bogus'; known: {re.escape(known)}$"):
            R.enumerate_chain_models(3, constraints=constraints)


def test_enumerate_cap_comes_only_from_its_argument(monkeypatch):
    # RESLAT_MAX_SIZE is the CLI's setting; the library never reads it
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    assert len(R.enumerate_chain_models(3)) == 3
    with pytest.raises(ValueError, match=r"^chain size must be an integer in 1\.\.6, got 7$"):
        R.enumerate_chain_models(7)


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


def test_load_structure_refuses_a_model_above_its_cap(tmp_path):
    path = tmp_path / "h5.json"
    path.write_text(json.dumps(R.structure_to_json(models.heyting5())))
    with pytest.raises(finite.ModelTooLarge, match=r"^model has 5 elements, above max_n=2$") as info:
        R.load_structure(str(path), max_n=2)
    assert isinstance(info.value, R.StructureError)
    assert R.load_structure(str(path), max_n=5).n == 5


def test_every_route_refuses_a_structure_above_the_size_bound(tmp_path):
    # one message on every route, ahead of any cell: a junk (0,0) is not reached
    n = finite.MAX_SIZE + 1
    leq = [[a <= b for b in range(n)] for a in range(n)]
    junk = [["no", *leq[0][1:]], *leq[1:]]
    mul = [[0] * n] * n
    message = f"leq has {n} rows, above MAX_SIZE={finite.MAX_SIZE}"
    g3 = models.godel3()
    routes = [
        lambda leq: finite.FiniteResLat(**{**g3.__dict__, "leq": leq}),
        lambda leq: dataclasses.replace(g3, leq=leq),
        lambda leq: R.derive_residuals(leq, mul, 0),
        R.heyting_algebra,
        lambda leq: R.structure_from_json({"leq": leq, "mul": mul, "unit": 0}),
    ]
    path = tmp_path / "big.json"
    for table in (leq, junk):
        for route in routes:
            with pytest.raises(R.StructureError, match=f"^{re.escape(message)}$"):
                route(table)
        path.write_text(json.dumps({"leq": table, "mul": mul, "unit": 0}))
        for max_n in (None, 100):  # a cap above the bound admits no larger structure
            with pytest.raises(R.StructureError,
                               match=f"^{re.escape(f'cannot load model {str(path)!r}: {message}')}$"):
                R.load_structure(str(path), max_n=max_n)


def test_load_structure_refuses_a_path_that_is_not_a_str_or_pathlike(tmp_path):
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(R.structure_to_json(models.godel3())))
    assert R.load_structure(path).n == 3  # an os.PathLike is a path
    fd = os.open(path, os.O_RDONLY)  # an int would be read, and closed, as a file descriptor
    try:
        for bad in (fd, 1.5, None, bytes(path)):
            message = f"cannot load model {bad!r}: a path must be a str or os.PathLike, " \
                      f"got {type(bad).__name__}"
            with pytest.raises(R.StructureError, match=f"^{re.escape(message)}$"):
                R.load_structure(bad)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


def test_json_rejects_bad_tables():
    g3 = models.godel3()
    blob = R.structure_to_json(g3)
    blob["ldiv"][0][0] = (blob["ldiv"][0][0] + 1) % 3
    with pytest.raises(finite.StructureError):
        R.structure_from_json(blob)


def _godel3_json(**changes):
    blob = R.structure_to_json(models.godel3())
    blob.update(changes)
    return blob


_G3_MUL = _godel3_json()["mul"]


@pytest.mark.parametrize("blob, message", [
    ([1, 2], "a structure must be a JSON object, got list"),
    ({"leq": [[True]], "unit": 0}, "structure has no 'mul' key"),
    ({"mul": [[0]], "unit": 0}, "structure has no 'leq' key"),
    (_godel3_json(leq=3), "leq must be a list of rows"),
    (_godel3_json(leq=[[1, 1, 1], [0, 1], [0, 0, 1]]), "leq row 1 must be a list of 3 entries"),
    (_godel3_json(mul=5), "mul must be a list of 3 rows"),
    (_godel3_json(mul=_G3_MUL[:2]), "mul must be a list of 3 rows"),
    (_godel3_json(mul=[[0, 0, 0], [0, 1], [0, 1, 2]]), "mul row 1 must be a list of 3 entries"),
    (_godel3_json(mul=[[0, 0, 0], [0, 9, 1], [0, 1, 2]]), "mul cell (1,1) = 9 is not in range(3)"),
    (_godel3_json(mul=[[0, 0, 0], [0, -1, 1], [0, 1, 2]]), "mul cell (1,1) = -1 is not in range(3)"),
    (_godel3_json(mul=[[0, 0, 0], [0, 1.0, 1], [0, 1, 2]]), "mul cell (1,1) = 1.0 is not in range(3)"),
    (_godel3_json(unit=7), "unit 7 is not in range(3)"),
    (_godel3_json(unit=-1), "unit -1 is not in range(3)"),
    ({"leq": [], "mul": [], "unit": 0}, "unit 0 is not in range(0)"),
    (_godel3_json(ldiv=4), "stored ldiv table disagrees with recomputation"),
    # the order axioms, with the messages derive_residuals has always given
    (_godel3_json(leq=[[0, 1, 1], [0, 1, 1], [0, 0, 1]]), "order not reflexive at 0"),
    (_godel3_json(leq=[[1, 1, 1], [1, 1, 1], [0, 0, 1]]), "order not antisymmetric at (0,1)"),
    (_godel3_json(leq=[[1, 1, 0], [0, 1, 1], [0, 0, 1]]), "order not transitive at (0,1,2)"),
    # no meet, no join, no residual: an empty and a non-empty set without a greatest element
    ({"leq": [[1, 0], [0, 1]], "mul": [[0, 0], [0, 1]], "unit": 1}, "missing meet or join for (0,1)"),
    ({"leq": [[1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
      "mul": [[0] * 5] * 5, "unit": 0}, "missing meet or join for (1,2)"),
    ({"leq": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
      "mul": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]], "unit": 3},
     "no left residual 1\\0; maximal candidates [1, 2]"),
    # cells of the wrong type: a bool is not an element, and only booleans and 0/1 are order cells
    (_godel3_json(unit=True), "unit True is not in range(3)"),
    (_godel3_json(mul=[[0, 0, 0], [0, False, 1], [0, 1, 2]]), "mul cell (1,1) = False is not in range(3)"),
    ({"leq": [[1, "no"], [0, 1]], "mul": [[0, 0], [0, 1]], "unit": 1},
     "leq cell (0,1) = 'no' is not 0, 1, true or false"),
    (_godel3_json(leq=[[1, 1, 1], [0, 1, 1], [0, 0.0, 1]]), "leq cell (2,1) = 0.0 is not 0, 1, true or false"),
    # a stored size is an int equal to the number of rows; True == 1, but a bool is not a size
    (_godel3_json(size=7), "size 7 disagrees with the 3 rows of leq"),
    (_godel3_json(size="two"), "size 'two' disagrees with the 3 rows of leq"),
    (_godel3_json(size=3.0), "size 3.0 disagrees with the 3 rows of leq"),
    ({"size": True, "leq": [[1]], "mul": [[0]], "unit": 0}, "size True disagrees with the 1 rows of leq"),
    # a structure is hashed, so its name must be a str
    (_godel3_json(name=[1]), "name must be a string, got [1]"),
    (_godel3_json(name=None), "name must be a string, got None"),
    # an unhashable cell or unit is refused by its class, never looked up in a set
    (_godel3_json(leq=[[1, 1, 1], [0, 1, 1], [0, [0], 1]]),
     "leq cell (2,1) = [0] is not 0, 1, true or false"),
    (_godel3_json(mul=[[0, 0, 0], [0, [0], 1], [0, 1, 2]]), "mul cell (1,1) = [0] is not in range(3)"),
    (_godel3_json(unit=[0]), "unit [0] is not in range(3)"),
])
def test_malformed_structure_is_refused(blob, message):
    with pytest.raises(finite.StructureError, match=f"^{re.escape(message)}$"):
        R.structure_from_json(blob)


_G3_LEQ = _godel3_json()["leq"]


def _junk_at(spot, junk):
    """A row of the test below: godel3's tables with `junk` at one spot."""
    leq, mul, unit = [list(row) for row in _G3_LEQ], [list(row) for row in _G3_MUL], 2
    if spot == "leq cell":
        leq[2][1] = junk
        message = f"leq cell (2,1) = {junk!r} is not 0, 1, true or false"
        witness = {"field": "leq", "cell": (2, 1), "value": junk}
    elif spot == "mul cell":
        mul[1][1] = junk
        message = f"mul cell (1,1) = {junk!r} is not in range(3)"
        witness = {"field": "mul_table", "cell": (1, 1), "value": junk}
    elif spot == "mul row":
        mul[1] = junk
        message = "mul row 1 must be a list of 3 entries"
        witness = {"field": "mul_table", "row": 1, "value": junk}
    else:
        unit = junk
        message = f"unit {junk!r} is not in range(3)"
        witness = {"field": "unit", "value": junk}
    return pytest.param(leq, mul, unit, message, witness, id=f"{spot} {junk!r}")


@pytest.mark.parametrize("leq, mul, unit, message, witness", [
    # a leq cell comes before a short mul row, a mul cell and the unit
    ([[1, 1, 1], [0, 1, 1], [0, "x", 1]], [[0, 9, 0], [0, 1], [0, 1, 2]], 7,
     "leq cell (2,1) = 'x' is not 0, 1, true or false", {"field": "leq", "cell": (2, 1), "value": "x"}),
    # row-major: a cell of mul row 0 before short row 1, and short row 1 before a cell of row 2
    (_G3_LEQ, [[0, 9, 0], [0, 1], [0, 1, 2]], 7,
     "mul cell (0,1) = 9 is not in range(3)", {"field": "mul_table", "cell": (0, 1), "value": 9}),
    (_G3_LEQ, [[0, 0, 0], [0, 1], [0, -1, 2]], 7,
     "mul row 1 must be a list of 3 entries", {"field": "mul_table", "row": 1, "value": [0, 1]}),
    # a table before the unit
    (_G3_LEQ, [[0, 0, 0], [0, 1, 1], [0, 1, True]], -1,
     "mul cell (2,2) = True is not in range(3)", {"field": "mul_table", "cell": (2, 2), "value": True}),
    # every junk value at every spot where the shape rule refuses it (True is an order cell)
    *(_junk_at(spot, junk) for spot in ("leq cell", "mul cell", "mul row", "unit")
      for junk in (-1, 3, True, None, 1.5, "x", [0]) if (spot, junk) != ("leq cell", True)),
])
def test_both_routes_report_the_first_defect_in_field_order(leq, mul, unit, message, witness):
    with pytest.raises(finite.StructureError, match=f"^{re.escape(message)}$"):
        R.derive_residuals(leq, mul, unit)
    # the same defect, where `derive_residuals` names `mul` and the constructor `mul_table`
    with pytest.raises(finite.StructureError, match=f"^{re.escape(_refusal(witness, 3))}$"):
        finite.FiniteResLat(**{**models.godel3().__dict__, "leq": leq, "mul_table": mul, "unit": unit})


def test_order_violations_reported_in_full():
    s = models.godel3()
    broken = finite.FiniteResLat(**{**s.__dict__, "leq": ((False, True, False),) + s.leq[1:]})
    laws = [law for law, _ in R.validate_axioms(broken) if law.startswith("order-")]
    assert laws == ["order-reflexive", "order-transitive"]


def test_package_exports_every_module_all_once():
    modules = [importlib.import_module(f"reslat.{m}")
               for m in ("terms", "finite", "models", "nilpotent", "omon", "ore", "battery")]
    assert R.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(R.__all__)) == len(R.__all__)  # no name is public in two modules
    assert [(m.__name__, n) for m in modules for n in m.__all__
            if getattr(R, n) is not getattr(m, n)] == []
    star: dict = {}
    exec("from reslat import *", star)
    assert set(star) - {"__builtins__"} == set(R.__all__)
    # every parser is on the package, so a quasi-equation needs no import from reslat.terms
    assert {n for n in R.__all__ if n.startswith("parse_")} >= {
        "parse_term", "parse_equation", "parse_quasiequation"}


def test_import_reslat_loads_neither_the_cli_nor_argparse():
    src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, reslat; print(sorted({'reslat.cli', 'argparse'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_direct_product():
    g3, c2 = models.godel3(), models.chain2()
    p = models.direct_product(g3, c2)
    assert p.n == 6
    assert R.validate_axioms(p) == []
    assert R.check_named_property(p, "integral").holds


def test_direct_product_refuses_a_product_above_the_size_bound():
    h9, h8 = (R.heyting_algebra(R.chain_leq(n)) for n in (9, 8))
    with pytest.raises(R.StructureError, match=r"^a product of 9 and 8 elements is above MAX_SIZE=64$"):
        models.direct_product(h9, h8)
    assert models.direct_product(h8, h8).n == finite.MAX_SIZE
