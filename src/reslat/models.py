"""Hand-built finite models used throughout the test batteries."""

from __future__ import annotations

from .finite import FiniteResLat, _lattice_order, _residuated, chain_leq, derive_residuals

__all__ = [
    "trivial1",
    "chain2",
    "godel3",
    "lukasiewicz3",
    "sugihara3",
    "godel4",
    "lukasiewicz4",
    "diamond4",
    "heyting5",
    "direct_product",
    "MODEL_BUILDERS",
    "model_library",
]


def trivial1() -> FiniteResLat:
    return derive_residuals([[True]], [[0]], 0, name="trivial1")


def chain2() -> FiniteResLat:
    # {0 < e}, product = min
    return derive_residuals(chain_leq(2), [[0, 0], [0, 1]], 1, name="chain2")


def godel3() -> FiniteResLat:
    # {0 < a < e}, product = min
    mul = [[min(i, j) for j in range(3)] for i in range(3)]
    return derive_residuals(chain_leq(3), mul, 2, name="godel3")


def lukasiewicz3() -> FiniteResLat:
    # {0 < a < e} with a*a = 0 (truncated addition)
    mul = [[max(i + j - 2, 0) for j in range(3)] for i in range(3)]
    return derive_residuals(chain_leq(3), mul, 2, name="lukasiewicz3")


def sugihara3() -> FiniteResLat:
    # {0 < e < t}: a non-integral commutative chain, unit in the middle
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    return derive_residuals(chain_leq(3), mul, 1, name="sugihara3")


def godel4() -> FiniteResLat:
    mul = [[min(i, j) for j in range(4)] for i in range(4)]
    return derive_residuals(chain_leq(4), mul, 3, name="godel4")


def lukasiewicz4() -> FiniteResLat:
    mul = [[max(i + j - 3, 0) for j in range(4)] for i in range(4)]
    return derive_residuals(chain_leq(4), mul, 3, name="lukasiewicz4")


def _meet_algebra(leq, name: str) -> FiniteResLat:
    """The lattice on the 0/1 order `leq` with product = meet and unit = top."""
    order = _lattice_order(tuple(tuple(map(bool, row)) for row in leq))
    top = order.principal[(1 << len(leq)) - 1]
    return _residuated(order, order.meet, top, name)


def diamond4() -> FiniteResLat:
    # 0 < a,b < e with a,b incomparable; product = meet (Boolean algebra)
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    return _meet_algebra(leq, "diamond4")


def heyting5() -> FiniteResLat:
    # 0 < a,b < c < e with a,b incomparable; product = meet.
    # Indices: 0=bottom, 1=a, 2=b, 3=c, 4=e.
    leq = [
        [1, 1, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1],
    ]
    return _meet_algebra(leq, "heyting5")


def direct_product(s: FiniteResLat, t: FiniteResLat) -> FiniteResLat:
    """Componentwise product of two structures."""
    pairs = [(a, b) for a in s.elements for b in t.elements]
    idx = {p: i for i, p in enumerate(pairs)}
    leq = [
        [s.le(a1, a2) and t.le(b1, b2) for (a2, b2) in pairs] for (a1, b1) in pairs
    ]
    mul = [
        [idx[(s.mul(a1, a2), t.mul(b1, b2))] for (a2, b2) in pairs]
        for (a1, b1) in pairs
    ]
    return derive_residuals(leq, mul, idx[(s.unit, t.unit)], name=f"{s.name}x{t.name}")


MODEL_BUILDERS = {
    "trivial1": trivial1,
    "chain2": chain2,
    "godel3": godel3,
    "lukasiewicz3": lukasiewicz3,
    "sugihara3": sugihara3,
    "godel4": godel4,
    "lukasiewicz4": lukasiewicz4,
    "diamond4": diamond4,
    "heyting5": heyting5,
}


def model_library(max_size: int | None = None) -> list[FiniteResLat]:
    """The standard hand-built models, plus two small products of chains."""
    out = [build() for build in MODEL_BUILDERS.values()]
    out.append(direct_product(godel3(), chain2()))
    out.append(direct_product(godel3(), godel3()))
    if max_size is not None:
        out = [s for s in out if s.n <= max_size]
    return out
