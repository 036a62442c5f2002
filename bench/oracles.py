"""Independent correctness oracles for the benchmark.

None of these routes calls the library code they check: finite structures
are re-read from their raw order and product tables, group arithmetic is
redone with plain integers, fractions and 3x3 matrices, and the chain
enumerator is compared with a scan of every raw table.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

# ---------------------------------------------------------------------------
# naive table evaluator for terms on finite structures

# A term is ("var", name), ("e",) or (op, left, right) with op one of
# "*", "\\", "/", "^", "v".  A law is ("eq", lhs, rhs) or
# ("qeq", ((lhs, rhs), ...), (lhs, rhs)).


def term_from_ast(t) -> tuple:
    """Convert a library Term into the oracle's tuple form."""
    if t.kind == "var":
        return ("var", t.name)
    if t.kind == "e":
        return ("e",)
    return (t.kind, term_from_ast(t.left), term_from_ast(t.right))


def law_from_ast(law) -> tuple:
    if hasattr(law, "premises"):
        return (
            "qeq",
            tuple((term_from_ast(p.lhs), term_from_ast(p.rhs)) for p in law.premises),
            (term_from_ast(law.conclusion.lhs), term_from_ast(law.conclusion.rhs)),
        )
    return ("eq", term_from_ast(law.lhs), term_from_ast(law.rhs))


def term_vars(t: tuple) -> set:
    if t[0] == "var":
        return {t[1]}
    if t[0] == "e":
        return set()
    return term_vars(t[1]) | term_vars(t[2])


def law_vars(law: tuple) -> list:
    if law[0] == "eq":
        vs = term_vars(law[1]) | term_vars(law[2])
    else:
        vs = set()
        for lhs, rhs in law[1] + (law[2],):
            vs |= term_vars(lhs) | term_vars(rhs)
    return sorted(vs)


class Tables:
    """Meet, join and both residuals recomputed by definition from a raw
    order relation and product table."""

    def __init__(self, leq, mul, unit: int):
        n = len(leq)
        r = range(n)
        self.n, self.unit = n, unit
        self.mul = [list(row) for row in mul]

        def greatest(cands, le):
            return next(c for c in cands if all(le(d, c) for d in cands))

        def below(a, b):
            return bool(leq[a][b])

        def above(a, b):
            return bool(leq[b][a])

        meet = [[greatest([c for c in r if leq[c][a] and leq[c][b]], below) for b in r] for a in r]
        join = [[greatest([c for c in r if leq[a][c] and leq[b][c]], above) for b in r] for a in r]
        # a\b: greatest c with a*c <= b;  a/b: greatest c with c*b <= a
        ldiv = [[greatest([c for c in r if leq[mul[a][c]][b]], below) for b in r] for a in r]
        rdiv = [[greatest([c for c in r if leq[mul[c][b]][a]], below) for b in r] for a in r]
        self.op = {"*": self.mul, "\\": ldiv, "/": rdiv, "^": meet, "v": join}

    @classmethod
    def of(cls, s) -> "Tables":
        return cls(s.leq, s.mul_table, s.unit)

    def commutative(self) -> bool:
        m = self.mul
        return all(m[a][b] == m[b][a] for a in range(self.n) for b in range(self.n))

    def eval(self, t: tuple, env: dict) -> int:
        kind = t[0]
        if kind == "var":
            return env[t[1]]
        if kind == "e":
            return self.unit
        return self.op[kind][self.eval(t[1], env)][self.eval(t[2], env)]

    def fails_at(self, law: tuple, env: dict) -> bool:
        if law[0] == "eq":
            return self.eval(law[1], env) != self.eval(law[2], env)
        if any(self.eval(lhs, env) != self.eval(rhs, env) for lhs, rhs in law[1]):
            return False
        lhs, rhs = law[2]
        return self.eval(lhs, env) != self.eval(rhs, env)

    def first_witness(self, law: tuple):
        """(holds, witness, assignments) with the lexicographically first
        witness: variables in sorted order, elements in index order."""
        names = law_vars(law)
        for rank, combo in enumerate(itertools.product(range(self.n), repeat=len(names))):
            env = dict(zip(names, combo))
            if self.fails_at(law, env):
                return False, env, rank + 1
        return True, None, self.n ** len(names)

    def check_laws(self, laws) -> tuple:
        """Check a conjunction of laws in order, stopping at the first failure."""
        total = 0
        for law in laws:
            holds, witness, count = self.first_witness(law)
            total += count
            if not holds:
                return False, witness, total
        return True, None, total


def assignments_evaluated(laws, holds: bool, witness, tb: Tables) -> int:
    """Assignments a first-hit checker visits to reach `holds`/`witness`:
    n^k for each law that holds, and the witness rank + 1 for the law that
    fails.  Derived from the verdict alone, without re-running the check."""
    total = 0
    for law in laws:
        names = law_vars(law)
        if not holds and witness is not None and sorted(witness) == names and tb.fails_at(law, witness):
            rank = 0
            for v in names:
                rank = rank * tb.n + witness[v]
            return total + rank + 1
        total += tb.n ** len(names)
    return total


# ---------------------------------------------------------------------------
# chain enumeration: pinned results and the raw-table scan

# Residuated lattices on the n-chain, as emitted by the enumerator at the
# commit that introduced this benchmark.  The digest is the sha256 of the
# compact, key-sorted JSON list of structure_to_json records (the exact
# bytes of `reslat enumerate n --json` without the newline), so a model list
# that changes or reorders fails.
CHAIN_MODEL_COUNTS = {1: 1, 2: 1, 3: 3, 4: 15, 5: 84, 6: 575}
CHAIN_MODEL_SHA256 = {
    1: "897f0473d3475ab7ba1f6b0d94abee6130affef52ca2c30c1cf0ffe220e8871a",
    2: "5e7c0694e1b7224b6c6d6c153a9813df9de73a8b79acb24a7f53f5a6eccf7d78",
    3: "b5a658fa4c11a09b0283516367139284e4fc2ae331b3627ce60f271df366f2ed",
    4: "5b61b87f43a0ebbd9d86b1c4c0decbbcd4b3f880fbe8c50d7a113aaf99b577d0",
    5: "6463a8f98e496571b0f0bc4b044d6418dfd2be72af2a9d00e1a514ec33006099",
    6: "6e705b67c1220f87607a6dce834c9448672d18bd3764f43dcc9fa5a35990a730",
}


def models_digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def raw_chain_models(n: int) -> list:
    """Every residuated lattice on the n-chain as (unit, table), found by
    scanning all n^(n*n) product tables for each unit, in unit-then-row-major
    order.  On a finite chain a monotone monoid table is residuated iff its
    bottom is absorbing."""
    r = range(n)
    out = []
    for unit in r:
        for cells in itertools.product(r, repeat=n * n):
            m = [cells[i * n:(i + 1) * n] for i in r]
            if any(m[unit][a] != a or m[a][unit] != a for a in r):
                continue
            if any(m[m[a][b]][c] != m[a][m[b][c]] for a in r for b in r for c in r):
                continue
            if any(
                m[a][c] > m[b][c] or m[c][a] > m[c][b]
                for a in r for b in r if a <= b for c in r
            ):
                continue
            if any(m[a][0] != 0 or m[0][a] != 0 for a in r):
                continue
            out.append((unit, tuple(tuple(row) for row in m)))
    return out


# ---------------------------------------------------------------------------
# the free class-2 group, its positive monoid, and the dyadic group


def _mat(t):
    a, b, g = t
    return ((1, b, g), (0, 1, a), (0, 0, 1))


def _matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def heis_mul(g: tuple, h: tuple) -> tuple:
    """Product of exponent triples through 3x3 unitriangular matrices."""
    m = _matmul(_mat(g), _mat(h))
    return (m[1][2], m[0][1], m[0][2])


def heis_inv(g: tuple) -> tuple:
    a, b, c = g
    return (-a, -b, a * b - c)


def heis_pow(g: tuple, n: int) -> tuple:
    acc = (0, 0, 0)
    for _ in range(n):
        acc = heis_mul(acc, g)
    return acc


def heis_commutator(g: tuple, h: tuple) -> tuple:
    return heis_mul(heis_mul(heis_inv(g), heis_inv(h)), heis_mul(g, h))


def s2_cmp(g: tuple, h: tuple) -> int:
    """Integral chain order on the positive monoid: lex-larger is lower."""
    if g == h:
        return 0
    return -1 if g > h else 1


def dyadic_mul(g: tuple, h: tuple) -> tuple:
    (r, n), (s, m) = g, h
    return (r + Fraction(2) ** n * s, n + m)


def dyadic_inv(g: tuple) -> tuple:
    r, n = g
    return (-(Fraction(2) ** -n) * r, -n)


def dyadic_pow(g: tuple, k: int) -> tuple:
    if k < 0:
        return dyadic_pow(dyadic_inv(g), -k)
    acc = (Fraction(0), 0)
    for _ in range(k):
        acc = dyadic_mul(acc, g)
    return acc


def dyadic_conjugate(g: tuple, b: tuple) -> tuple:
    return dyadic_mul(dyadic_mul(dyadic_inv(b), g), b)


def dyadic_cmp(g: tuple, h: tuple) -> int:
    kg, kh = (g[1], g[0]), (h[1], h[0])
    return 0 if kg == kh else (-1 if kg < kh else 1)


def hamvty_rows(size: int) -> list:
    """Rows of the truncated-product Hamiltonian-failure witness for the
    default pair a = (-1, 0), b = (0, -2), recomputed from the definition."""
    a, b = (Fraction(-1), 0), (Fraction(0), -2)
    conj = [dyadic_conjugate(a, dyadic_pow(b, i)) for i in range(size + 1)]
    rows = [{"n": 0, "coordinate": None, "conjugate": None, "power": None}]
    for n in range(1, size + 1):
        an = dyadic_pow(a, n)
        hit = next((i for i in range(size + 1) if dyadic_cmp(an, conj[i]) > 0), None)
        rows.append({
            "n": n,
            "coordinate": hit,
            "conjugate": None if hit is None else [str(conj[hit][0]), conj[hit][1]],
            "power": [str(an[0]), an[1]],
        })
    return rows
