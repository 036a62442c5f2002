"""Finite residuated lattices given by tables.

A structure is built from a partial-order relation, a monoid table and a
unit via `derive_residuals`, which computes meet/join/residual tables and
refuses anything that is not a residuated lattice.  On top of that live the
derived constructions: negative cones, absolute values, conjugates, convex
subuniverses, the named-property battery, and a chain-model enumerator.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import (
    Equation,
    QuasiEquation,
    Verdict,
    check_equation,
    check_quasiequation,
    le_equation,
    parse_equation,
    parse_quasiequation,
    parse_term,
)

__all__ = [
    "FiniteResLat",
    "ConvexSubuniverse",
    "ConvexFamily",
    "StructureError",
    "NotALattice",
    "NotAMonoid",
    "NotResiduated",
    "NotECyclic",
    "derive_residuals",
    "validate_axioms",
    "PROPERTY_NAMES",
    "check_named_property",
    "negative_cone",
    "absolute_value",
    "conjugates",
    "convex_closure",
    "convex_closure_fixpoint",
    "all_convex_subuniverses",
    "is_hamiltonian_structure",
    "enumerate_chain_models",
    "chain_leq",
    "structure_to_json",
    "structure_from_json",
    "DEFAULT_ENUM_CAP",
    "max_size",
]


class StructureError(ValueError):
    pass


class NotALattice(StructureError):
    pass


class NotAMonoid(StructureError):
    pass


class NotResiduated(StructureError):
    pass


class NotECyclic(StructureError):
    pass


DEFAULT_ENUM_CAP = 6
DEFAULT_CONVEX_CAP = 8

Table = tuple[tuple[int, ...], ...]


def _freeze(rows: Iterable[Iterable[int]]) -> Table:
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class FiniteResLat:
    """Finite residuated lattice; construct via `derive_residuals`."""

    n: int
    leq: tuple[tuple[bool, ...], ...]
    mul_table: Table
    unit: int
    meet_table: Table
    join_table: Table
    ldiv_table: Table
    rdiv_table: Table
    name: str = ""

    # algebra interface used by the term evaluator
    @property
    def elements(self) -> range:
        return range(self.n)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def ldiv(self, a: int, b: int) -> int:
        return self.ldiv_table[a][b]

    def rdiv(self, a: int, b: int) -> int:
        return self.rdiv_table[a][b]

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]

    def is_chain(self) -> bool:
        return all(
            self.leq[a][b] or self.leq[b][a]
            for a in range(self.n)
            for b in range(self.n)
        )

    def __repr__(self) -> str:
        tag = self.name or f"{self.n}-element"
        return f"<FiniteResLat {tag}>"


def _greatest(leq, members: Sequence[int]) -> Optional[int]:
    for m in members:
        if all(leq[c][m] for c in members):
            return m
    return None


def _two_maximal(leq, members: Sequence[int]) -> list[int]:
    maximal = [m for m in members if all(not leq[m][c] or c == m for c in members)]
    return maximal[:2]


def derive_residuals(
    leq: Sequence[Sequence[bool]],
    mul: Sequence[Sequence[int]],
    unit: int,
    name: str = "",
) -> FiniteResLat:
    """Build a FiniteResLat, computing meets, joins and residual tables.

    Raises NotALattice / NotAMonoid / NotResiduated with a witness in the
    message when the input fails the corresponding requirement.
    """
    n = len(leq)
    leq = tuple(tuple(bool(x) for x in row) for row in leq)
    mul = _freeze(mul)
    rng = range(n)

    for a in rng:
        if not leq[a][a]:
            raise NotALattice(f"order not reflexive at {a}")
        for b in rng:
            if a != b and leq[a][b] and leq[b][a]:
                raise NotALattice(f"order not antisymmetric at ({a},{b})")
            for c in rng:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise NotALattice(f"order not transitive at ({a},{b},{c})")

    meet_t = [[0] * n for _ in rng]
    join_t = [[0] * n for _ in rng]
    geq = tuple(tuple(leq[y][x] for y in rng) for x in rng)
    for a in rng:
        for b in rng:
            lower = [c for c in rng if leq[c][a] and leq[c][b]]
            upper = [c for c in rng if leq[a][c] and leq[b][c]]
            m = _greatest(leq, lower)
            j = _greatest(geq, upper)
            if m is None or j is None:
                raise NotALattice(f"missing meet or join for ({a},{b})")
            meet_t[a][b] = m
            join_t[a][b] = j

    for a in rng:
        if mul[unit][a] != a or mul[a][unit] != a:
            raise NotAMonoid(f"unit law fails at {a}")
        for b in rng:
            for c in rng:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise NotAMonoid(f"associativity fails at ({a},{b},{c})")

    for a in rng:
        for b in rng:
            if leq[a][b]:
                for c in rng:
                    if not leq[mul[a][c]][mul[b][c]] or not leq[mul[c][a]][mul[c][b]]:
                        raise NotResiduated(
                            f"product not order-preserving: {a}<={b} but "
                            f"multiplication by {c} breaks it"
                        )

    ldiv_t = [[0] * n for _ in rng]
    rdiv_t = [[0] * n for _ in rng]
    for a in rng:
        for b in rng:
            cand = [c for c in rng if leq[mul[a][c]][b]]
            g = _greatest(leq, cand) if cand else None
            if g is None:
                raise NotResiduated(
                    f"no left residual {a}\\{b}; maximal candidates "
                    f"{_two_maximal(leq, cand) if cand else []}"
                )
            ldiv_t[a][b] = g
            cand = [c for c in rng if leq[mul[c][a]][b]]
            g = _greatest(leq, cand) if cand else None
            if g is None:
                raise NotResiduated(
                    f"no right residual {b}/{a}; maximal candidates "
                    f"{_two_maximal(leq, cand) if cand else []}"
                )
            rdiv_t[b][a] = g

    return FiniteResLat(
        n=n,
        leq=leq,
        mul_table=mul,
        unit=unit,
        meet_table=_freeze(meet_t),
        join_table=_freeze(join_t),
        ldiv_table=_freeze(ldiv_t),
        rdiv_table=_freeze(rdiv_t),
        name=name,
    )


# ---------------------------------------------------------------------------
# axiom validation (report-valued; works on possibly-broken tables)


def validate_axioms(s: FiniteResLat) -> list[tuple[str, dict]]:
    """Re-check every axiom from the raw tables; returns a violation list.

    Each entry is (law name, witness).  Empty list means all checks pass.
    Covers the lattice and monoid axioms, the residuation adjunction, and
    its standard consequences (product preserves joins, the left residual
    preserves meets in the numerator).
    """
    out: list[tuple[str, dict]] = []
    n, leq, mul = s.n, s.leq, s.mul_table
    rng = range(n)

    for a in rng:
        if not leq[a][a]:
            out.append(("order-reflexive", {"a": a}))
    for a in rng:
        for b in rng:
            if a != b and leq[a][b] and leq[b][a]:
                out.append(("order-antisymmetric", {"a": a, "b": b}))
            for c in rng:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    out.append(("order-transitive", {"a": a, "b": b, "c": c}))

    for a in rng:
        for b in rng:
            m = s.meet_table[a][b]
            if not (leq[m][a] and leq[m][b]) or any(
                leq[c][a] and leq[c][b] and not leq[c][m] for c in rng
            ):
                out.append(("meet-glb", {"a": a, "b": b}))
            j = s.join_table[a][b]
            if not (leq[a][j] and leq[b][j]) or any(
                leq[a][c] and leq[b][c] and not leq[j][c] for c in rng
            ):
                out.append(("join-lub", {"a": a, "b": b}))

    for a in rng:
        if mul[s.unit][a] != a or mul[a][s.unit] != a:
            out.append(("monoid-unit", {"a": a}))
    for a in rng:
        for b in rng:
            for c in rng:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    out.append(("monoid-associative", {"a": a, "b": b, "c": c}))
                    break
            else:
                continue
            break
        else:
            continue
        break

    for a in rng:
        for b in rng:
            for c in rng:
                adj = leq[mul[a][b]][c]
                if adj != leq[a][s.rdiv_table[c][b]] or adj != leq[b][s.ldiv_table[a][c]]:
                    out.append(("adjunction", {"a": a, "b": b, "c": c}))

    for a in rng:
        for b in rng:
            for c in rng:
                j = s.join_table[b][c]
                if mul[a][j] != s.join_table[mul[a][b]][mul[a][c]]:
                    out.append(("product-preserves-joins", {"a": a, "b": b, "c": c}))
                m = s.meet_table[b][c]
                if s.ldiv_table[a][m] != s.meet_table[s.ldiv_table[a][b]][s.ldiv_table[a][c]]:
                    out.append(("ldiv-preserves-meets", {"a": a, "b": b, "c": c}))

    return out


# ---------------------------------------------------------------------------
# named property registry

_half = "(x ^ e)*(x ^ e)"

_PROPERTY_SOURCES: dict[str, object] = {
    "LPL": "(x\\y ^ e) v (y\\x ^ e) = e",
    "RPL": "(x/y ^ e) v (y/x ^ e) = e",
    "LPL2": "(y ^ z)\\x = (y\\x) v (z\\x)",
    "LPL3": "x\\(y v z) = (x\\y) v (x\\z)",
    "RPL2": "x/(y ^ z) = (x/y) v (x/z)",
    "RPL3": "(y v z)/x = (y/x) v (z/x)",
    "integral": ["x\\e = e", "e/x = e"],
    "cancellative": ["x*y/y = x", "y\\(y*x) = x"],
    "divisibility": "(w/z)*z = w ^ z",
    "e-cyclic": "x\\e = e/x",
    "commutative": "x*y = y*x",
    "invertible": ["x*(x\\e) = e", "(e/x)*x = e"],
    "distributive": "x ^ (y v z) = (x ^ y) v (x ^ z)",
    "e-join-dist": "e ^ (y v z) = (e ^ y) v (e ^ z)",
    "selfdiv-left": "x\\x = e",
    "selfdiv-right": "x/x = e",
    "weakly-abelian": ("le", _half, "y\\((x ^ e)*y)"),
    "hamilt-eq": ("le", _half, "(y\\(x*y) ^ e) ^ ((z*x)/z ^ e)"),
    "semilin-qeq": "x v y = e => (u\\(x*u) ^ e) v ((w*y)/w ^ e) = e",
}


def _compile_property(src) -> list[Union[Equation, QuasiEquation]]:
    if isinstance(src, tuple) and src[0] == "le":
        return [le_equation(parse_term(src[1]), parse_term(src[2]))]
    if isinstance(src, list):
        return [parse_equation(x) for x in src]
    if "=>" in src:
        return [parse_quasiequation(src)]
    return [parse_equation(src)]


PROPERTIES: dict[str, list[Union[Equation, QuasiEquation]]] = {
    name: _compile_property(src) for name, src in _PROPERTY_SOURCES.items()
}
PROPERTY_NAMES = tuple(sorted(PROPERTIES))


def check_named_property(s, name: str) -> Verdict:
    """Check a registered property on any finite structure."""
    if name not in PROPERTIES:
        raise KeyError(f"unknown property {name!r}; known: {', '.join(PROPERTY_NAMES)}")
    for law in PROPERTIES[name]:
        if isinstance(law, QuasiEquation):
            v = check_quasiequation(law, s)
        else:
            v = check_equation(law, s)
        if not v.holds:
            return v
    return Verdict(True)


# ---------------------------------------------------------------------------
# negative cone, absolute value, conjugates


def negative_cone(s: FiniteResLat) -> FiniteResLat:
    """The structure on {a <= e} with residuals truncated at the unit."""
    members = [a for a in s.elements if s.le(a, s.unit)]
    index = {a: i for i, a in enumerate(members)}
    leq = [[s.le(a, b) for b in members] for a in members]
    mul = [[index[s.mul(a, b)] for b in members] for a in members]
    cone = derive_residuals(leq, mul, index[s.unit], name=f"{s.name or s.n}-negcone")
    # derived residuals on the cone must agree with truncation in the parent
    for a in members:
        for b in members:
            assert cone.ldiv_table[index[a]][index[b]] == index[
                s.meet(s.ldiv(a, b), s.unit)
            ]
            assert cone.rdiv_table[index[a]][index[b]] == index[
                s.meet(s.rdiv(a, b), s.unit)
            ]
    return cone


def absolute_value(s: FiniteResLat, a: int) -> int:
    return s.meet(s.meet(a, s.rdiv(s.unit, a)), s.unit)


def conjugates(s: FiniteResLat, a: int, b: int) -> tuple[int, int]:
    lam = s.meet(s.ldiv(b, s.mul(a, b)), s.unit)
    rho = s.meet(s.rdiv(s.mul(b, a), b), s.unit)
    return lam, rho


# ---------------------------------------------------------------------------
# convex subuniverses


@dataclass(frozen=True)
class ConvexSubuniverse:
    members: frozenset[int]
    parent: FiniteResLat

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted(self) -> list[int]:
        return sorted(self.members)


def _require_ecyclic(s: FiniteResLat):
    v = check_named_property(s, "e-cyclic")
    if not v.holds:
        raise NotECyclic(f"structure is not e-cyclic, witness {v.witness}")


def convex_closure(s: FiniteResLat, gens: Iterable[int]) -> ConvexSubuniverse:
    """Least convex subuniverse containing `gens`, via the interval description:
    an element c belongs iff t <= |c| for some t in the submonoid generated
    by the absolute values of the generators."""
    _require_ecyclic(s)
    absgens = {absolute_value(s, a) for a in gens}
    monoid = {s.unit} | absgens
    while True:
        new = {s.mul(a, b) for a in monoid for b in monoid} - monoid
        if not new:
            break
        monoid |= new
    members = frozenset(
        c for c in s.elements if any(s.le(t, absolute_value(s, c)) for t in monoid)
    )
    return ConvexSubuniverse(members, s)


def convex_closure_fixpoint(s: FiniteResLat, gens: Iterable[int]) -> frozenset[int]:
    """Independent oracle: close {gens, e} under the operations and convexity
    until a fixpoint is reached."""
    cur = set(gens) | {s.unit}
    while True:
        new: set[int] = set()
        for a in cur:
            for b in cur:
                new.update(
                    (s.mul(a, b), s.meet(a, b), s.join(a, b), s.ldiv(a, b), s.rdiv(a, b))
                )
        for a in cur:
            for b in cur:
                for c in s.elements:
                    if s.le(a, c) and s.le(c, b):
                        new.add(c)
        if new <= cur:
            return frozenset(cur)
        cur |= new


def _is_convex_subuniverse(s: FiniteResLat, members: frozenset[int]) -> bool:
    if s.unit not in members:
        return False
    for a in members:
        for b in members:
            if not all(
                op(a, b) in members for op in (s.mul, s.meet, s.join, s.ldiv, s.rdiv)
            ):
                return False
            for c in s.elements:
                if s.le(a, c) and s.le(c, b) and c not in members:
                    return False
    return True


@dataclass
class ConvexFamily:
    """All convex subuniverses of a structure, with lattice operations."""

    parent: FiniteResLat
    members: list[frozenset[int]]

    def meet(self, h: frozenset[int], k: frozenset[int]) -> frozenset[int]:
        return h & k

    def join(self, h: frozenset[int], k: frozenset[int]) -> frozenset[int]:
        return min(
            (m for m in self.members if h | k <= m),
            key=len,
        )

    def is_distributive(self) -> Optional[tuple]:
        """None if distributive, else a witnessing triple."""
        for h in self.members:
            for k in self.members:
                for j in self.members:
                    if self.meet(h, self.join(k, j)) != self.join(
                        self.meet(h, k), self.meet(h, j)
                    ):
                        return (h, k, j)
        return None


def all_convex_subuniverses(
    s: FiniteResLat, cap: int = DEFAULT_CONVEX_CAP
) -> ConvexFamily:
    """Enumerate every convex subuniverse by subset filtering (desk scale)."""
    _require_ecyclic(s)
    if s.n > cap:
        raise StructureError(f"carrier size {s.n} exceeds enumeration cap {cap}")
    rest = [a for a in s.elements if a != s.unit]
    found = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            members = frozenset(combo) | {s.unit}
            if _is_convex_subuniverse(s, members):
                found.append(members)
    found.sort(key=lambda m: (len(m), sorted(m)))
    return ConvexFamily(s, found)


def is_hamiltonian_structure(s: FiniteResLat, cap: int = DEFAULT_CONVEX_CAP) -> Verdict:
    """Holds iff every convex subuniverse is closed under both conjugations."""
    family = all_convex_subuniverses(s, cap=cap)
    for h in family.members:
        for a in h:
            for b in s.elements:
                lam, rho = conjugates(s, a, b)
                if lam not in h or rho not in h:
                    return Verdict(False, {"H": sorted(h), "a": a, "b": b})
    return Verdict(True)


# ---------------------------------------------------------------------------
# chain-model enumeration


def chain_leq(n: int) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(a <= b for b in range(n)) for a in range(n))


def _chain_tables(n: int, unit: int) -> Iterator[Table]:
    """All monotone monoid tables on the n-chain with the given unit whose
    bottom is absorbing (a necessary condition for residuation).  Emitted in
    row-major lexicographic order of the table entries."""
    grid: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for j in range(n):
        grid[unit][j] = j
        grid[j][unit] = j
        grid[0][j] = 0
        grid[j][0] = 0
    free = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i not in (0, unit) and j not in (0, unit)
    ]

    def monotone_ok(i: int, j: int, v: int) -> bool:
        for i2 in range(n):
            w = grid[i2][j]
            if w is None:
                continue
            if (i2 < i and w > v) or (i2 > i and w < v):
                return False
        for j2 in range(n):
            w = grid[i][j2]
            if w is None:
                continue
            if (j2 < j and w > v) or (j2 > j and w < v):
                return False
        return True

    def associative(mul: Table) -> bool:
        r = range(n)
        return all(
            mul[mul[a][b]][c] == mul[a][mul[b][c]] for a in r for b in r for c in r
        )

    def rec(k: int) -> Iterator[Table]:
        if k == len(free):
            mul = _freeze(grid)
            if associative(mul):
                yield mul
            return
        i, j = free[k]
        for v in range(n):
            if monotone_ok(i, j, v):
                grid[i][j] = v
                yield from rec(k + 1)
        grid[i][j] = None

    yield from rec(0)


def max_size(default: int) -> int:
    """The size cap set by the RESLAT_MAX_SIZE environment variable, or
    `default` when it is unset."""
    raw = os.environ.get("RESLAT_MAX_SIZE")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise StructureError(f"RESLAT_MAX_SIZE must be a positive integer, got {raw!r}")
    return cap


def enumerate_chain_models(
    n: int,
    constraints: Sequence[str] = (),
    cap: Optional[int] = None,
) -> list[FiniteResLat]:
    """All residuated lattices on the n-chain, any unit position, in a
    deterministic order (unit ascending, then row-major table order),
    filtered by the named-property constraints."""
    if cap is None:
        cap = max_size(DEFAULT_ENUM_CAP)
    if n > cap:
        raise StructureError(f"chain size {n} exceeds enumeration cap {cap}")
    leq = chain_leq(n)
    units = [0] if n == 1 else range(1, n)
    found = []
    for unit in units:
        for mul in _chain_tables(n, unit):
            s = derive_residuals(leq, mul, unit, name=f"chain{n}-u{unit}")
            if all(check_named_property(s, c).holds for c in constraints):
                found.append(s)
    return found


# ---------------------------------------------------------------------------
# JSON interchange


def structure_to_json(s: FiniteResLat) -> dict:
    return {
        "size": s.n,
        "leq": [[1 if x else 0 for x in row] for row in s.leq],
        "mul": [list(row) for row in s.mul_table],
        "unit": s.unit,
        "ldiv": [list(row) for row in s.ldiv_table],
        "rdiv": [list(row) for row in s.rdiv_table],
    }


def structure_from_json(d: dict) -> FiniteResLat:
    s = derive_residuals(d["leq"], d["mul"], d["unit"], name=d.get("name", ""))
    for key, table in (("ldiv", s.ldiv_table), ("rdiv", s.rdiv_table)):
        if key in d and _freeze(d[key]) != table:
            raise StructureError(f"stored {key} table disagrees with recomputation")
    return s


def load_structure(path: str) -> FiniteResLat:
    with open(path) as fh:
        return structure_from_json(json.load(fh))
