"""Finite residuated lattices given by tables.

A structure is built from a partial-order relation, a monoid table and a
unit via `derive_residuals`, which computes meet/join/residual tables and
refuses anything that is not a residuated lattice, or, when the product is
the meet and the unit the top, from the order alone via `heyting_algebra`.
Both refuse a malformed table or unit, and more than MAX_SIZE elements, by
one shape rule (`_check_shape`), as does the `FiniteResLat` constructor, so
every structure has n x n tables of elements; `validate_axioms` checks laws.
On top of that live the derived constructions: negative cones, absolute
values, conjugates, convex subuniverses, the named-property battery, and a
chain-model enumerator.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from ._check import check_instance, check_int
from .terms import (
    HOLDS,
    Equation,
    QuasiEquation,
    Verdict,
    compile_law,
    parse_equation,
    parse_quasiequation,
)

__all__ = [
    "FiniteResLat",
    "StructureError",
    "NotALattice",
    "NotAMonoid",
    "NotResiduated",
    "NotECyclic",
    "derive_residuals",
    "heyting_algebra",
    "validate_axioms",
    "PROPERTIES",
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
    "load_structure",
    "ModelTooLarge",
    "DEFAULT_ENUM_CAP",
    "MAX_SIZE",
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


class ModelTooLarge(StructureError):
    """A structure file with more elements than the cap it was loaded under."""


DEFAULT_ENUM_CAP = 6
MAX_SIZE = 64
"""The most elements of a structure (`_check_shape`), so of a chain (`chain_leq`),
and the default size cap of `reslat check` (RESLAT_MAX_SIZE)."""
_ORDER_CACHE_SIZE = 16
_ROW_MEMO_SIZE = 2048  # entries in an order's `lines` and `rows` that `_checked_order` allows

Table = tuple[tuple[int, ...], ...]


def _freeze(rows: Iterable[Iterable[int]]) -> Table:
    return tuple(tuple(r) for r in rows)


_TABLES = ("leq", "mul_table", "meet_table", "join_table", "ldiv_table", "rdiv_table")


@dataclass(frozen=True)
class FiniteResLat:
    """Finite residuated lattice; construct via `derive_residuals` or
    `heyting_algebra`.  Its size `n` is len(leq), at most MAX_SIZE, stored
    nowhere else.  Built directly or by `dataclasses.replace`, it raises
    StructureError at the first defect of the shape rule (`_check_shape`:
    the name, the size, the tables in field order, then the unit) and stores
    each table as tuples of tuples, cells as given, so every structure
    hashes.  `validate_axioms` checks the laws."""

    leq: tuple[tuple[bool, ...], ...]
    mul_table: Table
    unit: int
    meet_table: Table
    join_table: Table
    ldiv_table: Table
    rdiv_table: Table
    name: str = ""

    def __post_init__(self) -> None:
        tables = tuple((key, getattr(self, key)) for key in _TABLES)
        _check_shape(self.name, tables, self.unit)
        for key, table in tables:
            object.__setattr__(self, key, _freeze(table))

    @property
    def n(self) -> int:
        return len(self.leq)

    # algebra interface used by the term evaluator
    @property
    def elements(self) -> range:
        return range(len(self.leq))

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

    def member(self, a) -> bool:
        """The element rule: an int, not a bool, in range(n)."""
        return _is_element(a, len(self.leq))

    def __repr__(self) -> str:
        return f"<FiniteResLat {self.name or f'{len(self.leq)}-element'}>"


def _two_maximal(leq, members: Sequence[int]) -> list[int]:
    maximal = [m for m in members if all(not leq[m][c] or c == m for c in members)]
    return maximal[:2]


def _is_element(v, n: int) -> bool:
    return v.__class__ is int and 0 <= v < n


def _masks(leq) -> tuple[list[int], list[int]]:
    """Up-sets and down-sets as int bitmasks: bit c of up[a] and of down[c] is leq[a][c]."""
    bit = [1 << c for c in range(len(leq))]
    return [sum(compress(bit, row)) for row in leq], [sum(compress(bit, col)) for col in zip(*leq)]


def _order_violations(leq, up: list[int]) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every failure of reflexivity, antisymmetry and transitivity, as
    (property, witness), given the up-sets of `_masks`: `derive_residuals`
    raises on the first one, `validate_axioms` reports them all."""
    n = len(up)
    for a in range(n):
        if not leq[a][a]:
            yield "reflexive", (a,)
        for b in range(n):
            if leq[a][b]:
                if a != b and leq[b][a]:
                    yield "antisymmetric", (a, b)
                bad = up[b] & ~up[a]
                if bad:
                    yield from (("transitive", (a, b, c)) for c in range(n) if bad >> c & 1)


class _LatticeOrder(NamedTuple):
    """A checked lattice order with its meet and join tables, and what the
    monoid part of `derive_residuals` needs of it: `principal` maps each
    down-set mask to the element it is the down-set of, and `covers` lists
    every pair (b, d) with d a lower cover of b, with b running along a
    linear extension.  Records are memoised and shared between calls: the
    fields above are read-only; `lines` and `rows` are `_residuated`'s memo."""

    leq: tuple[tuple[bool, ...], ...]
    meet: Table
    join: Table
    principal: dict[int, int]
    covers: tuple[tuple[int, int], ...]
    lines: dict
    rows: dict


@functools.lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _lattice_order(leq: tuple[tuple[bool, ...], ...]) -> _LatticeOrder:
    """Check that `leq` is a lattice order and tabulate its meets and joins.
    In a partial order the meet of a and b exists iff down[a] & down[b] is
    the down-set of some element, which is then the meet; joins likewise
    with up-sets.  Memoised on `leq`; a refusal is not cached, so it is
    raised again on every call."""
    rng = range(len(leq))
    up, down = _masks(leq)
    for prop, witness in _order_violations(leq, up):
        at = witness[0] if len(witness) == 1 else f"({','.join(map(str, witness))})"
        raise NotALattice(f"order not {prop} at {at}")
    principal = {m: a for a, m in enumerate(down)}
    above = {m: a for a, m in enumerate(up)}
    meet = tuple(tuple(principal.get(x & y) for y in down) for x in down)
    join = tuple(tuple(above.get(x & y) for y in up) for x in up)
    if any(None in row for row in (*meet, *join)):
        a, b = next((a, b) for a in rng for b in rng if meet[a][b] is None or join[a][b] is None)
        raise NotALattice(f"missing meet or join for ({a},{b})")
    # d is a lower cover of b iff the interval [d, b] is {d, b}
    covers = tuple((b, d) for b in sorted(rng, key=lambda b: down[b].bit_count())
                   for d in rng if (down[b] & up[d]).bit_count() == 2)
    return _LatticeOrder(leq, meet, join, principal, covers, {}, {})


def _residual_row(order: _LatticeOrder, line: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """For each b, the c whose down-set is {c : line[c] <= b}, the union of
    the preimages of everything below b, accumulated along lower covers; put
    in the order's memo, or None, kept nowhere, if a set is not principal."""
    below = [0] * len(line)
    for c, v in enumerate(line):
        below[v] |= 1 << c
    for b, d in order.covers:
        below[b] |= below[d]
    try:
        row = tuple(map(order.principal.__getitem__, below))
    except KeyError:
        return None
    row = order.lines[line] = order.rows.setdefault(row, row)
    return row


def _residuated(order: _LatticeOrder, mul: Table, unit: int, name: str) -> FiniteResLat:
    """The residuation part of `derive_residuals`: derive both residual
    tables of a monoid table `mul` over a checked lattice order.  The
    order's `lines` maps each row or column of a product on it to its
    `_residual_row`, and its `rows` each row of those tables to one equal
    row object; a line is read from them once, so emptying them in another
    thread costs a re-derivation, never a KeyError.  Monotonicity has no
    test of its own: when every {c : a*c <= b} and {c : c*a <= b} is a
    principal down-set, c <= c' gives a*c <= a*c' and c*a <= c'*a.  So a
    product that is not order-preserving always leaves a residual gap, and
    a gap is first reported as that failure, at its lex-first witness;
    else at the first (a, b) whose set, a down-set now, has no or two
    maximal elements."""
    leq, n = order.leq, len(order.leq)
    rng = range(n)
    lines = (*mul, *zip(*mul))
    get = order.lines.get
    found = tuple(map(get, lines))
    if None in found:  # a line new to the memo, or one with a gap, which it does not keep
        found = tuple(row or get(line) or _residual_row(order, line)
                      for row, line in zip(found, lines))
        if None in found:
            for a in rng:
                for b in rng:
                    if leq[a][b]:
                        for c in rng:
                            if not leq[mul[a][c]][mul[b][c]] or not leq[mul[c][a]][mul[c][b]]:
                                raise NotResiduated(f"product not order-preserving: {a}<={b} but "
                                                    f"multiplication by {c} breaks it")
            a = next(a for a in rng if found[a] is None or found[n + a] is None)
            for b in rng:
                top = _two_maximal(leq, [c for c in rng if leq[mul[a][c]][b]])
                if len(top) != 1:
                    raise NotResiduated(f"no left residual {a}\\{b}; maximal candidates {top}")
                top = _two_maximal(leq, [c for c in rng if leq[mul[c][a]][b]])
                if len(top) != 1:
                    raise NotResiduated(f"no right residual {b}/{a}; maximal candidates {top}")

    rdiv = tuple(zip(*found[n:]))
    rdiv = tuple(map(order.rows.setdefault, rdiv, rdiv))
    # the tables built here are n x n tuples of elements: skip the shape check,
    # and set the fields in their declared order, so that the instance dict shares its keys
    s, set_ = object.__new__(FiniteResLat), object.__setattr__
    set_(s, "leq", leq)
    set_(s, "mul_table", mul)
    set_(s, "unit", unit)
    set_(s, "meet_table", order.meet)
    set_(s, "join_table", order.join)
    set_(s, "ldiv_table", found[:n])
    set_(s, "rdiv_table", rdiv)
    set_(s, "name", name)
    return s


def _check_shape(name, tables, *units) -> None:
    """Raise StructureError at the first defect of the shape rule: `name` is
    a str, `leq` (the first of the (field, table) `tables`) a list or tuple
    of n <= MAX_SIZE rows, the one size bound, tested before any cell, and
    each table a list or tuple of n rows that are lists or tuples of n
    cells, each `leq` cell a bool or 0/1 and each other cell and each of
    `units` an int (not a bool) in range(n).  Defects come in that order,
    tables as given, row-major; a table of another length than `leq` is a
    defect of its whole field."""
    if not isinstance(name, str):
        raise StructureError(f"name must be a string, got {name!r}")
    if not isinstance(tables[0][1], (list, tuple)):
        raise StructureError("leq must be a list of rows")
    n = len(tables[0][1])
    if n > MAX_SIZE:
        raise StructureError(f"leq has {n} rows, above MAX_SIZE={MAX_SIZE}")
    for key, table in tables:
        if not isinstance(table, (list, tuple)) or len(table) != n:
            raise StructureError(f"{key} must be a list of {n} rows")
        for a, row in enumerate(table):
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise StructureError(f"{key} row {a} must be a list of {n} entries")
            for b, x in enumerate(row):
                if not (isinstance(x, int) and x in (0, 1) if key == "leq"
                        else x.__class__ is int and 0 <= x < n):
                    rule = "0, 1, true or false" if key == "leq" else f"in range({n})"
                    raise StructureError(f"{key} cell ({a},{b}) = {x!r} is not {rule}")
    for unit in units:
        if not _is_element(unit, n):
            raise StructureError(f"unit {unit!r} is not in range({n})")


def _checked_order(name, tables, *units) -> _LatticeOrder:
    """The lattice order of the first of `tables`, the `leq` table, once
    `_check_shape` passes, its memo emptied past _ROW_MEMO_SIZE entries."""
    _check_shape(name, tables, *units)
    order = _lattice_order(tuple(tuple(map(bool, row)) for row in tables[0][1]))
    if len(order.lines) + len(order.rows) > _ROW_MEMO_SIZE:
        order.lines.clear()
        order.rows.clear()
    return order


def derive_residuals(
    leq: Sequence[Sequence[bool]],
    mul: Sequence[Sequence[int]],
    unit: int,
    name: str = "",
) -> FiniteResLat:
    """Build a FiniteResLat, computing meets, joins and residual tables.

    Raises StructureError when `name` is not a str (the structure is
    hashed), then at the first defect of `leq`, `mul`, `unit` (row-major)
    against the shape rule: n x n tables for n = len(leq) <= MAX_SIZE, `leq` cells
    booleans or 0/1, `mul` cells and `unit` ints in range(n).  Raises
    NotALattice / NotAMonoid / NotResiduated with a witness in the message
    when the input fails the corresponding requirement.
    """
    order = _checked_order(name, (("leq", leq), ("mul", mul)), unit)
    n = len(leq)
    mul = _freeze(mul)
    # row a*b is row a gathered by row b; itemgetter of one index gives no 1-tuple
    gather = [itemgetter(*row) if n > 1 else lambda r, c=row[0]: (r[c],) for row in mul]
    rng = range(n)
    for a in rng:
        if mul[unit][a] != a or mul[a][unit] != a:
            raise NotAMonoid(f"unit law fails at {a}")
        row = mul[a]
        for b in rng:
            if gather[b](row) != mul[row[b]]:
                c = next(c for c in rng if mul[row[b]][c] != row[mul[b][c]])
                raise NotAMonoid(f"associativity fails at ({a},{b},{c})")
    return _residuated(order, mul, unit, name)


def heyting_algebra(leq: Sequence[Sequence[bool]], name: str = "") -> FiniteResLat:
    """The residuated lattice on the lattice order `leq` whose product is the
    meet and whose unit is the top.  Refuses a malformed `leq` or `name`, or
    an order that is not a lattice, as `derive_residuals` does, and a lattice
    that is not distributive (where the meet has no residual) with
    NotResiduated.  An empty `leq` has no top and is refused."""
    order = _checked_order(name, (("leq", leq),))
    if not leq:
        raise StructureError("leq has no rows, so no top to be the unit")
    return _residuated(order, order.meet, order.principal[(1 << len(leq)) - 1], name)


# ---------------------------------------------------------------------------
# axiom validation (report-valued; works on tables that break laws)


@functools.lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _lattice_report(leq, meet: Table, join: Table) -> tuple[tuple[str, tuple], ...]:
    """The order, `meet-glb` and `join-lub` entries of `validate_axioms`,
    each witness a tuple of (key, element) items.  Memoised on the three
    tables, so the caller builds fresh dicts from it."""
    rng = range(len(leq))
    up, down = _masks(leq)
    out = [(f"order-{prop}", tuple(zip("abc", witness)))
           for prop, witness in _order_violations(leq, up)]
    for a in rng:
        for b in rng:
            m = meet[a][b]
            if not (leq[m][a] and leq[m][b]) or down[a] & down[b] & ~down[m]:
                out.append(("meet-glb", (("a", a), ("b", b))))
            j = join[a][b]
            if not (leq[a][j] and leq[b][j]) or up[a] & up[b] & ~up[j]:
                out.append(("join-lub", (("a", a), ("b", b))))
    return tuple(out)


def _differences(p, q, n: int):  # the (y, z) where p and q differ at y*n + z, in order
    return ((y, z) for y in range(n) if p[y * n:y * n + n] != q[y * n:y * n + n]
            for z in range(n) if p[y * n + z] != q[y * n + z])


def _product_law_report(leq, mul: Table, ldiv: Table, rdiv: Table) -> list[tuple[str, dict]]:
    """The `monoid-associative` entry of the first (a, b, c) where a(bc) !=
    (ab)c, then an `adjunction` entry for each (a, b, c), in order, where
    [ab <= c] differs from [a <= c/b] or [b <= a\\c].  Per x over all (y, z),
    at y*n + z, the flattened mul, rdiv by divisor and ldiv translated by row
    x of mul or leq give x(yz), [x <= z/y] and [x <= y\\z], and the mul or
    leq rows that row or column x of mul names, joined, give (xy)z, [xy <= z]
    and [yx <= z]; a pair that differs is decoded as (x, y, z), or (y, x, z)
    in the third.  An element is a byte, and a row padded to 256 bytes is a
    table for `bytes.translate`."""
    n = len(leq)
    pad, join = bytes(256 - n), b"".join
    rows, ups = [bytes(row) for row in mul], [bytes(row) for row in leq]
    flat, by_divisor = join(rows), join(map(bytes, zip(*rdiv)))  # [y][z] = z/y
    flat_ldiv = join(map(bytes, ldiv))
    out, adjunction = [], set()
    for x, (mul_x, col_x) in enumerate(zip(mul, zip(*mul))):
        up = ups[x] + pad
        x_yz, xy_z = flat.translate(rows[x] + pad), join(map(rows.__getitem__, mul_x))
        x_le_zy, xy_le_z = by_divisor.translate(up), join(map(ups.__getitem__, mul_x))
        x_le_yz, yx_le_z = flat_ldiv.translate(up), join(map(ups.__getitem__, col_x))
        if x_yz == xy_z and x_le_zy == xy_le_z and x_le_yz == yx_le_z:
            continue
        if not out and x_yz != xy_z:
            y, z = next(_differences(x_yz, xy_z, n))
            out.append(("monoid-associative", {"a": x, "b": y, "c": z}))
        adjunction.update((x, y, z) for y, z in _differences(x_le_zy, xy_le_z, n))
        adjunction.update((y, x, z) for y, z in _differences(x_le_yz, yx_le_z, n))
    return (out + [("adjunction", dict(zip("abc", t))) for t in sorted(adjunction)]
            if adjunction else out)


def validate_axioms(s: FiniteResLat) -> list[tuple[str, dict]]:
    """Re-check every axiom from the raw tables; returns a violation list.

    Each entry is (law name, witness).  Empty list means all checks pass.
    Covers the order, lattice and monoid axioms and the residuation
    adjunction, not its consequences: where those hold, the product
    preserves joins, since for every d, a(b v c) <= d iff b v c <= a\\d
    iff ab <= d and ac <= d iff ab v ac <= d, and antisymmetry gives
    a(b v c) = ab v ac; the left residual preserves meets by the dual.  The
    tables need not obey any law, but their shape is sound: the constructor
    refuses a structure that is not n x n tables of elements.

    The order and lattice entries are computed once per (leq, meet, join)
    by the memo `_lattice_report`, and each call gets fresh dicts.  The
    product laws are tested, and their witnesses named, by whole-row
    gathers, one element x at a time (`_product_law_report`).
    """
    check_instance(s, "s", FiniteResLat)
    leq, mul = s.leq, s.mul_table
    out = [(law, dict(witness)) for law, witness in _lattice_report(leq, s.meet_table, s.join_table)]
    for a in range(len(leq)):
        if mul[s.unit][a] != a or mul[a][s.unit] != a:
            out.append(("monoid-unit", {"a": a}))
    return out + _product_law_report(leq, mul, s.ldiv_table, s.rdiv_table)


# ---------------------------------------------------------------------------
# named property registry

_half = "(x ^ e)*(x ^ e)"

# An entry is one law or a list of laws; a law with "=>" is a quasi-equation.
# weakly-abelian and hamilt-eq are inequalities t <= s, written as t ^ s = t.
# semilin-qeq follows from semilinearity but does not characterise it: it
# holds on heyting5, which fails LPL and so is not semilinear.
_PROPERTY_SOURCES: dict[str, Union[str, list[str]]] = {
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
    "weakly-abelian": f"{_half} ^ y\\((x ^ e)*y) = {_half}",
    "hamilt-eq": f"{_half} ^ ((y\\(x*y) ^ e) ^ ((z*x)/z ^ e)) = {_half}",
    "semilin-qeq": "x v y = e => (u\\(x*u) ^ e) v ((w*y)/w ^ e) = e",
}


PROPERTIES: dict[str, list[Union[Equation, QuasiEquation]]] = {
    name: [parse_quasiequation(law) if "=>" in law else parse_equation(law)
           for law in ([src] if isinstance(src, str) else src)]
    for name, src in _PROPERTY_SOURCES.items()
}
PROPERTY_NAMES = tuple(sorted(PROPERTIES))


def _unknown_property(name: str) -> ValueError:
    return ValueError(f"unknown property {name!r}; known: {', '.join(PROPERTY_NAMES)}")


_CHECKERS: dict[str, tuple] = {}  # a name's compiled laws, built on its first check, not at import


def check_named_property(s, name: str) -> Verdict:
    """The first failing law's verdict, as `check_equation` gives it, or
    HOLDS.  Raises ValueError for an unknown name, before anything compiles,
    and for a structure without tables."""
    try:
        checks = _CHECKERS[name]
    except (KeyError, TypeError):  # not checked before, or unhashable
        if not isinstance(name, str) or name not in PROPERTIES:
            raise _unknown_property(name) from None
        checks = _CHECKERS[name] = tuple(map(compile_law, PROPERTIES[name]))
    for check in checks:
        v = check(s)
        if v is not HOLDS:
            return v
    return HOLDS


# ---------------------------------------------------------------------------
# negative cone, absolute value, conjugates


def negative_cone(s: FiniteResLat) -> FiniteResLat:
    """The structure on {a <= e} with residuals truncated at the unit."""
    check_instance(s, "s", FiniteResLat)
    members = [a for a in s.elements if s.le(a, s.unit)]
    index = {a: i for i, a in enumerate(members)}
    leq = [[s.le(a, b) for b in members] for a in members]
    mul = [[index[s.mul(a, b)] for b in members] for a in members]
    return derive_residuals(leq, mul, index[s.unit], name=f"{s.name or s.n}-negcone")


def _require_elements(s: FiniteResLat, *elements) -> None:
    check_instance(s, "s", FiniteResLat)
    for a in elements:
        if not s.member(a):
            raise ValueError(f"element {a!r} is not in range({s.n})")


def absolute_value(s: FiniteResLat, a: int) -> int:
    """a ^ e/a ^ e.  Raises ValueError if `a` is not an element of s."""
    _require_elements(s, a)
    return _absolute_value(s, a)


def _absolute_value(s: FiniteResLat, a: int) -> int:
    return s.meet(s.meet(a, s.rdiv(s.unit, a)), s.unit)


def conjugates(s: FiniteResLat, a: int, b: int) -> tuple[int, int]:
    """(b\\ab ^ e, ba/b ^ e).  Raises ValueError if `a` or `b` is not an element of s."""
    _require_elements(s, a, b)
    return _conjugates(s, a, b)


def _conjugates(s: FiniteResLat, a: int, b: int) -> tuple[int, int]:
    lam = s.meet(s.ldiv(b, s.mul(a, b)), s.unit)
    rho = s.meet(s.rdiv(s.mul(b, a), b), s.unit)
    return lam, rho


# ---------------------------------------------------------------------------
# convex subuniverses


def _require_ecyclic(s: FiniteResLat):
    v = check_named_property(s, "e-cyclic")
    if not v.holds:
        raise NotECyclic(f"structure is not e-cyclic, witness {v.witness}")


def convex_closure(s: FiniteResLat, gens: Iterable[int]) -> frozenset[int]:
    """Least convex subuniverse containing `gens`: the up-set of one idempotent.
    Each |g| lies at or below e, so the submonoid of the |g| has a least element
    p, the idempotent that the powers of their product reach, and an element c
    belongs iff p <= |c|.  Raises ValueError if a generator is not an element of s."""
    gens = tuple(gens)
    _require_elements(s, *gens)
    _require_ecyclic(s)
    p = s.unit
    for g in gens:
        p = s.mul(p, _absolute_value(s, g))
    while s.mul(p, p) != p:
        p = s.mul(p, p)
    return _above(s, p)


def _above(s: FiniteResLat, p: int) -> frozenset[int]:
    return frozenset(c for c in s.elements if s.le(p, _absolute_value(s, c)))


def convex_closure_fixpoint(s: FiniteResLat, gens: Iterable[int]) -> frozenset[int]:
    """Independent oracle: close {gens, e} under the operations and convexity
    until a fixpoint is reached.  Raises ValueError if a generator is not an
    element of s."""
    gens = tuple(gens)
    _require_elements(s, *gens)
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


def all_convex_subuniverses(s: FiniteResLat) -> list[frozenset[int]]:
    """One convex subuniverse per idempotent p <= e: the up-set of p.  For such
    p, |p| = p is the least element of its up-set, so the members differ."""
    check_instance(s, "s", FiniteResLat)
    _require_ecyclic(s)
    found = [_above(s, p) for p in s.elements if s.le(p, s.unit) and s.mul(p, p) == p]
    return sorted(found, key=lambda m: (len(m), sorted(m)))


def is_hamiltonian_structure(s: FiniteResLat) -> Verdict:
    """Holds iff every convex subuniverse is closed under both conjugations."""
    for h in all_convex_subuniverses(s):
        for a in h:
            for b in s.elements:
                lam, rho = _conjugates(s, a, b)
                if lam not in h or rho not in h:
                    return Verdict(False, {"H": sorted(h), "a": a, "b": b})
    return HOLDS


# ---------------------------------------------------------------------------
# chain-model enumeration


def chain_leq(n: int) -> tuple[tuple[bool, ...], ...]:
    """The order of the n-chain, n in 1..MAX_SIZE."""
    check_int(n, "chain size", 1, MAX_SIZE)
    return tuple(tuple(a <= b for b in range(n)) for a in range(n))


def _chain_tables(n: int, unit: int, rows: Optional[dict] = None) -> Iterator[Table]:
    """All monotone monoid tables on the n-chain with the given unit whose
    bottom is absorbing (a necessary condition for residuation).  Emitted in
    row-major lexicographic order of the table entries.

    The free cells are filled row-major, so when (i, j) is reached the cells
    above it and to its left are set, and the only set cells below it or to
    its right are in the unit's row and column: monotonicity bounds the value
    by those neighbours.  After each cell is set, every associativity triple
    that uses it and has all four cells set is tested, so each triple is
    tested as soon as its last cell is set and a failing table is cut there.
    A triple through 0 or the unit holds, since their rows and columns are 0
    and the identity, so only triples of free rows and columns are tested:
    `at[v]` lists the set free cells that hold v, so the triples through a
    cell that is a product a·b are found without scanning the grid.  A table
    shares the rows unchanged since the last one, and `rows` maps each row
    it freezes to one equal row object."""
    grid: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for j in range(n):
        grid[unit][j] = j
        grid[j][unit] = j
        grid[0][j] = 0
        grid[j][0] = 0
    inner = [c for c in range(n) if c not in (0, unit)]  # the free rows and columns
    inner_rows = [grid[c] for c in inner]
    free = [(i, j) for i in inner for j in inner]
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rows = {} if rows is None else rows
    frozen: list = [None] * n  # the rows of the table last yielded
    dirty = 0  # the first row set since then

    def associative_at(i: int, j: int) -> bool:
        # the triples whose a·b, b·c, (a·b)·c or a·(b·c) is the cell (i, j),
        # each tested once its four cells are set: (a·b)·c against a·(b·c)
        row_i, row_j, v = grid[i], grid[j], grid[i][j]
        row_v = grid[v]
        for c in inner:  # (i, j, c)
            jc = row_j[c]
            if jc is not None:
                left, right = row_v[c], row_i[jc]
                if left is not None and right is not None and left != right:
                    return False
        for row_c in inner_rows:  # (c, i, j)
            ci = row_c[i]
            if ci is not None:
                left, right = grid[ci][j], row_c[v]
                if left is not None and right is not None and left != right:
                    return False
        for a, b in at[i]:  # (a, b, j) with a·b = i, so (a·b)·j is v
            bj = grid[b][j]
            if bj is not None:
                other = grid[a][bj]
                if other is not None and other != v:
                    return False
        for b, c in at[j]:  # (i, b, c) with b·c = j, so i·(b·c) is v
            ib = row_i[b]
            if ib is not None:
                other = grid[ib][c]
                if other is not None and other != v:
                    return False
        return True

    def rec(k: int) -> Iterator[Table]:
        nonlocal dirty
        if k == len(free):
            for r in range(dirty, n):
                row = tuple(grid[r])
                frozen[r] = rows.setdefault(row, row)
            dirty = n
            yield tuple(frozen)
            return
        i, j = free[k]
        lo = max(grid[i - 1][j], grid[i][j - 1])
        hi = min(j if i < unit else n - 1, i if j < unit else n - 1)
        for v in range(lo, hi + 1):
            grid[i][j] = v
            if i < dirty:
                dirty = i
            at[v].append((i, j))
            if associative_at(i, j):
                yield from rec(k + 1)
            at[v].pop()
        grid[i][j] = None

    yield from rec(0)


def enumerate_chain_models(
    n: int,
    constraints: Sequence[str] = (),
    cap: int = DEFAULT_ENUM_CAP,
) -> list[FiniteResLat]:
    """All residuated lattices on the n-chain, any unit position, in a
    deterministic order (unit ascending, then row-major table order),
    filtered by the named-property constraints.  Raises ValueError, before
    enumerating anything, unless `cap` is an int >= 1, `n` an int in
    1..min(cap, MAX_SIZE) (the sizes `chain_leq` builds) and `constraints`
    a list or tuple of known names."""
    check_int(cap, "cap", 1)
    check_int(n, "chain size", 1, min(cap, MAX_SIZE))
    if not isinstance(constraints, (list, tuple)):
        raise ValueError(f"constraints must be a list of property names, got {constraints!r}")
    for c in constraints:
        if not isinstance(c, str) or c not in PROPERTIES:
            raise _unknown_property(c)
    order = _checked_order("", (("leq", chain_leq(n)),))
    names = {unit: f"chain{n}-u{unit}" for unit in ([0] if n == 1 else range(1, n))}
    models = (_residuated(order, mul, unit, name) for unit, name in names.items()
              for mul in _chain_tables(n, unit, order.rows))
    return [s for s in models if all(check_named_property(s, c).holds for c in constraints)]


# ---------------------------------------------------------------------------
# JSON interchange


def structure_to_json(s: FiniteResLat) -> dict:
    check_instance(s, "s", FiniteResLat)
    return {
        "size": s.n,
        "leq": [[1 if x else 0 for x in row] for row in s.leq],
        "mul": [list(row) for row in s.mul_table],
        "unit": s.unit,
        "ldiv": [list(row) for row in s.ldiv_table],
        "rdiv": [list(row) for row in s.rdiv_table],
    }


def structure_from_json(d: dict) -> FiniteResLat:
    if not isinstance(d, dict):
        raise StructureError(f"a structure must be a JSON object, got {type(d).__name__}")
    for key in ("leq", "mul", "unit"):
        if key not in d:
            raise StructureError(f"structure has no {key!r} key")
    s = derive_residuals(d["leq"], d["mul"], d["unit"], name=d.get("name", ""))
    size = d.get("size", s.n)
    if size.__class__ is not int or size != s.n:
        raise StructureError(f"size {size!r} disagrees with the {s.n} rows of leq")
    for key, table in (("ldiv", s.ldiv_table), ("rdiv", s.rdiv_table)):
        if key in d and d[key] != [list(row) for row in table]:
            raise StructureError(f"stored {key} table disagrees with recomputation")
    return s


def load_structure(path: str, max_n: Optional[int] = None) -> FiniteResLat:
    """Read a structure JSON file.  Any failure, from opening the file to
    checking its tables, raises StructureError naming the path.  A `leq` of
    more than `max_n` (an int >= 1) rows, or than MAX_SIZE whatever `max_n`
    is, is refused before any table is derived.
    A path that is not a str or an os.PathLike (an int would be opened as a
    file descriptor) is refused before anything is opened."""
    if max_n is not None:
        check_int(max_n, "max_n", 1)
    if not isinstance(path, (str, os.PathLike)):
        raise StructureError(f"cannot load model {path!r}: a path must be a str or os.PathLike, "
                             f"got {type(path).__name__}")
    try:
        with open(path) as fh:
            d = json.load(fh)
        leq = d.get("leq") if isinstance(d, dict) else None
        if max_n is None or not isinstance(leq, list) or len(leq) <= max_n:
            return structure_from_json(d)
    except (OSError, ValueError) as exc:
        raise StructureError(f"cannot load model {path!r}: {exc}") from exc
    raise ModelTooLarge(f"model has {len(leq)} elements, above max_n={max_n}")
