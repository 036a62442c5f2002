"""Seeded input generators.  Each takes a `random.Random`; the same seed
gives the same inputs.  Outputs are plain data (tuples, strings, argv
lists) so that the library receives only generated inputs."""

from __future__ import annotations

import itertools
from fractions import Fraction

OPS = ("*", "\\", "/", "^", "v")


def random_term(rng, leaves: int, names) -> tuple:
    """A random term in oracle tuple form with exactly `leaves` leaves."""
    if leaves == 1:
        return ("e",) if rng.random() < 0.15 else ("var", rng.choice(names))
    left = rng.randint(1, leaves - 1)
    return (rng.choice(OPS), random_term(rng, left, names), random_term(rng, leaves - left, names))


def term_text(t: tuple) -> str:
    """Fully parenthesized concrete syntax accepted by reslat's parser."""
    if t[0] == "var":
        return t[1]
    if t[0] == "e":
        return "e"
    return f"({term_text(t[1])} {t[0]} {term_text(t[2])})"


def random_equation(rng, max_vars: int = 3) -> tuple:
    """(text, oracle law) for a random equation in at most `max_vars`
    variables, each side with 2 to 5 leaves."""
    names = ("x", "y", "z")[: rng.randint(1, max_vars)]
    lhs = random_term(rng, rng.randint(2, 5), names)
    rhs = random_term(rng, rng.randint(2, 5), names)
    return f"{term_text(lhs)} = {term_text(rhs)}", ("eq", lhs, rhs)


def s2_box(amax: int, gmax: int) -> list:
    """Positive-monoid triples with alpha, beta <= amax and
    gamma <= min(alpha*beta, gmax), in ascending lexicographic order."""
    return [
        (a, b, g)
        for a in range(amax + 1)
        for b in range(amax + 1)
        for g in range(min(a * b, gmax) + 1)
    ]


def residual_cases(rng, stride: int) -> list:
    """A stratified sample of (a, b, side) from the (6,6,6) box: every
    `stride`-th a from a seeded offset, both sides, and for each (alpha, beta)
    of b one b with a seeded gamma.  The stratification keeps the total
    search work nearly the same for every seed."""
    box = s2_box(6, 6)
    offset = rng.randrange(stride)
    cases = []
    for a in box[offset::stride]:
        for side in ("left", "right"):
            for al, be in itertools.product(range(7), repeat=2):
                cases.append((a, (al, be, rng.randint(0, min(al * be, 6))), side))
    return cases


def group_triple(rng, box: int) -> tuple:
    return tuple(rng.randint(-box, box) for _ in range(3))


def s2_member(rng, box: int) -> tuple:
    a, b = rng.randint(0, box), rng.randint(0, box)
    return (a, b, rng.randint(0, a * b))


def dyadic_text(rng) -> str:
    """A dyadic-group element as the CLI reads it: "r,n" with r a fraction."""
    num, shift, n = rng.randint(-9, 9), rng.randint(0, 3), rng.randint(-3, 3)
    return f"{num}/{2 ** shift},{n}"


def parse_dyadic(text: str) -> tuple:
    r, n = text.split(",")
    return Fraction(r), int(n)


def triple_text(t) -> str:
    return ",".join(map(str, t))
