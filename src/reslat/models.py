"""Hand-built finite models used throughout the test batteries."""

from __future__ import annotations

from typing import Callable

from ._check import check_instance
from .finite import MAX_SIZE, FiniteResLat, StructureError, chain_leq, derive_residuals, heyting_algebra

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


def _lukasiewicz(n: int) -> tuple:
    # the n-chain 0 < ... < e with truncated addition: i*j = max(i + j - (n-1), 0)
    return chain_leq(n), [[max(i + j - n + 1, 0) for j in range(n)] for i in range(n)], n - 1


# name -> (order,) of a Heyting algebra, built by `heyting_algebra`, or (order, product
# table, unit), built by `derive_residuals`; in the order of `model_library`.
_SPECS = {
    "trivial1": (chain_leq(1),),
    "chain2": (chain_leq(2),),
    "godel3": (chain_leq(3),),
    "lukasiewicz3": _lukasiewicz(3),
    # {0 < e < t}: a non-integral commutative chain, unit in the middle
    "sugihara3": (chain_leq(3), ((0, 0, 0), (0, 1, 2), (0, 2, 2)), 1),
    "godel4": (chain_leq(4),),
    "lukasiewicz4": _lukasiewicz(4),
    # 0 < a,b < e with a,b incomparable (the Boolean algebra 2 x 2)
    "diamond4": (((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)),),
    # 0 < a,b < c < e with a,b incomparable; 0 = bottom, 1 = a, 2 = b, 3 = c, 4 = e
    "heyting5": (((1, 1, 1, 1, 1), (0, 1, 0, 1, 1), (0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
                  (0, 0, 0, 0, 1)),),
}


def _builder(name: str, spec: tuple) -> Callable[[], FiniteResLat]:
    """The builder of the model `name` from its spec; it takes no argument."""
    build = heyting_algebra if len(spec) == 1 else derive_residuals
    model = lambda: build(*spec, name=name)  # noqa: E731
    model.__name__ = model.__qualname__ = name
    return model


MODEL_BUILDERS = {name: _builder(name, spec) for name, spec in _SPECS.items()}
(trivial1, chain2, godel3, lukasiewicz3, sugihara3, godel4, lukasiewicz4, diamond4,
 heyting5) = MODEL_BUILDERS.values()


def direct_product(s: FiniteResLat, t: FiniteResLat) -> FiniteResLat:
    """Componentwise product of two structures, refused above MAX_SIZE elements
    before any table is built."""
    check_instance(s, "s", FiniteResLat)
    check_instance(t, "t", FiniteResLat)
    if s.n * t.n > MAX_SIZE:
        raise StructureError(f"a product of {s.n} and {t.n} elements is above MAX_SIZE={MAX_SIZE}")
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


def model_library() -> list[FiniteResLat]:
    """The standard hand-built models, plus two small products of chains."""
    out = [build() for build in MODEL_BUILDERS.values()]
    out.append(direct_product(godel3(), chain2()))
    out.append(direct_product(godel3(), godel3()))
    return out
