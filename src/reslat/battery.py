"""The claim battery: every headline check, individually addressable.

Each claim runs an oracle-backed or exhaustive verification at desk scale
and returns a short summary of its evidence, or raises ClaimFailed;
`run_battery` turns that into a pass / fail / skipped ClaimResult.  The CLI's
verify-paper subcommand and the acceptance test suite both drive this
module, so a claim failing here fails the build.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import finite, models, omon
from ._check import check_int
from .finite import check_named_property, enumerate_chain_models, validate_axioms
from .nilpotent import (
    HEIS_UNIT,
    HeisTriple,
    dyadic_cmp,
    dyadic_mul,
    dyadic_pow,
    from_matrix,
    heis_mul,
    mat_mul,
    nth_root,
    s2_box,
    s2_cmp,
    to_matrix,
)
from .omon import (
    HAMVTY_BASE,
    HAMVTY_CONJUGATOR,
    DyadicInstance,
    M1Instance,
    S2Instance,
    hamvty_witness,
    m1_residual,
    residual_scan,
    residual_search,
    s2_residual,
)
from .ore import (
    F2Instance,
    OreFraction,
    frac_cmp_group,
    frac_cmp_witness,
    random_fraction,
    random_triple,
    verify_conucleus,
)
from .terms import check_equation_sampled, eval_term, gen_Lc

__all__ = ["BatteryConfig", "ClaimFailed", "ClaimResult", "CLAIMS", "run_battery"]

DEFAULT_SEED = 20240826
UNIVERSE_CAP = 5  # the largest chains in the finite-model universe


@dataclass
class BatteryConfig:
    max_size: int = UNIVERSE_CAP  # chain cap of the finite-model universe, at most UNIVERSE_CAP
    samples: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        check_int(self.max_size, "max_size", 1)
        check_int(self.samples, "samples", 1)


@dataclass
class ClaimResult:
    claim: str
    status: str  # pass | fail | skipped
    detail: str
    seconds: float


class ClaimFailed(Exception):
    """Raised by a claim that found a counterexample, with the detail as
    its message.  A claim that holds returns its evidence as a string."""


def _model_universe(cfg: BatteryConfig):
    """The hand library plus every chain of size <= min(max_size, UNIVERSE_CAP)."""
    universe = list(models.model_library())
    for n in range(1, min(cfg.max_size, UNIVERSE_CAP) + 1):
        universe.extend(enumerate_chain_models(n))
    return universe


# --- individual claims --------------------------------------------------------


def claim_adjunction(cfg: BatteryConfig) -> str:
    count = 0
    for s in _model_universe(cfg):
        bad = validate_axioms(s)
        if bad:
            raise ClaimFailed(f"{s!r}: {bad[0][0]} at {bad[0][1]}")
        count += 1
    return f"{count} structures validated"


def claim_prelinearity(cfg: BatteryConfig) -> str:
    checked = 0
    for s in _model_universe(cfg):
        p = {
            name: check_named_property(s, name).holds
            for name in (
                "LPL",
                "LPL2",
                "LPL3",
                "RPL",
                "RPL2",
                "RPL3",
                "e-join-dist",
                "selfdiv-left",
                "distributive",
            )
        }
        if p["LPL"] and not (p["LPL2"] and p["LPL3"]):
            raise ClaimFailed(f"(a) fails on {s!r}")
        if p["RPL"] and not (p["RPL2"] and p["RPL3"]):
            raise ClaimFailed(f"(a-dual) fails on {s!r}")
        if p["e-join-dist"] and len({p["LPL"], p["LPL2"], p["LPL3"]}) != 1:
            raise ClaimFailed(f"(b) fails on {s!r}")
        if p["LPL3"] and p["selfdiv-left"] and not p["distributive"]:
            raise ClaimFailed(f"(c) fails on {s!r}")
        checked += 1
    return f"{checked} models, 0 counterexamples"


def claim_heis_oracle(cfg: BatteryConfig) -> str:
    rng = random.Random(cfg.seed)
    for _ in range(10_000):
        g = random_triple(rng, 1000)
        h = random_triple(rng, 1000)
        if to_matrix(heis_mul(g, h)) != mat_mul(to_matrix(g), to_matrix(h)):
            raise ClaimFailed(f"disagree at {g}, {h}")
    return "10^4 random triples agree"


def _random_s2(rng: random.Random, box: int) -> HeisTriple:
    """A positive-monoid element: alpha, beta in [0, box], gamma in [0, alpha*beta]."""
    al, be = rng.randint(0, box), rng.randint(0, box)
    return HeisTriple(al, be, rng.randint(0, al * be))


def claim_nilpotency_laws(cfg: BatteryConfig) -> str:
    x, y = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)
    l1 = gen_Lc(1)
    alg = S2Instance
    a = {"x": x, "y": y}
    lhs, rhs = eval_term(l1.lhs, a, alg), eval_term(l1.rhs, a, alg)
    if lhs != HeisTriple(1, 1, 0) or rhs != HeisTriple(1, 1, 1):
        raise ClaimFailed("commutativity witness wrong")
    rng = random.Random(cfg.seed)
    samples = ({v: _random_s2(rng, 6) for v in ("x", "y", "z1")} for _ in range(cfg.samples))
    v = check_equation_sampled(gen_Lc(2), alg, samples)
    if not v.holds:
        raise ClaimFailed(f"class-2 law fails at {v.witness}")
    return f"L1 fails at (x,y); L2 holds on {cfg.samples} samples"


def _matrix_pow(g: HeisTriple, n: int) -> HeisTriple:
    """g**n (n >= 0) by iterated unitriangular matrix products, a route
    independent of the closed form that nth_root inverts."""
    m = to_matrix(HEIS_UNIT)
    for _ in range(n):
        m = mat_mul(m, to_matrix(g))
    return from_matrix(m)


def claim_unique_roots(cfg: BatteryConfig) -> str:
    box = list(s2_box(6))
    for n in range(1, 5):
        seen: dict = {}
        for g in box:
            p = _matrix_pow(g, n)
            if p in seen and seen[p] != g:
                raise ClaimFailed(f"{seen[p]}^{n} == {g}^{n}")
            seen[p] = g
            r = nth_root(p, n)
            if r is None or _matrix_pow(r, n) != p:
                raise ClaimFailed(f"root of {p} (n={n}) wrong")
        for g in box:
            r = nth_root(g, n)
            if r is not None and _matrix_pow(r, n) != g:
                raise ClaimFailed(f"spurious root of {g}")
    return f"{len(box)} elements, n <= 4, exact"


def claim_divisibility_failures(cfg: BatteryConfig) -> str:
    # free commutative chain: (y/x)x = x^2 != y = x meet y
    x, y = (1, 0), (0, 1)
    r = residual_search(M1Instance, x, y, "right", bound=6)
    if r != (1, 0) or omon.m1_mul(r, x) != (2, 0):
        raise ClaimFailed("commutative case wrong")
    if omon.m1_cmp(omon.m1_mul(r, x), M1Instance.meet(x, y)) == 0:
        raise ClaimFailed("divisibility unexpectedly holds")
    # positive nilpotent monoid: (x/y)y = xy != x = x meet y
    xs, ys = HeisTriple(1, 0, 0), HeisTriple(0, 1, 0)
    r2 = residual_search(S2Instance, ys, xs, "right", bound=6)
    if r2 != xs or heis_mul(r2, ys) != HeisTriple(1, 1, 0):
        raise ClaimFailed("nilpotent case wrong")
    if s2_cmp(heis_mul(r2, ys), S2Instance.meet(xs, ys)) == 0:
        raise ClaimFailed("divisibility unexpectedly holds")
    return "both failure witnesses certified by brute force"


def claim_residual_agreement(cfg: BatteryConfig) -> str:
    # commutative instance, words up to length 12; one scan per z answers every w
    words = [(a, d - a) for d in range(13) for a in range(d + 1)]
    scans = {z: residual_scan(M1Instance, z, words, "left", 26) for z in words}
    for w in words:
        for z in words:
            got, want = m1_residual(w, z), scans[z][w]
            if got != want:
                raise ClaimFailed(f"m1 {w}/{z}: {got} vs {want}")
    # nilpotent instance, box alpha, beta, gamma <= 6; one scan per (a, side)
    box = list(s2_box(6, gmax=6))
    for a in box:
        scans = {side: residual_scan(S2Instance, a, box, side, 14) for side in ("left", "right")}
        for b in box:
            for side in ("left", "right"):
                got, want = s2_residual(a, b, side), scans[side][b]
                if got != want:
                    raise ClaimFailed(f"s2 {side} {a.triple()}, {b.triple()}: {got} vs {want}")
    return f"m1 {len(words)}^2 pairs, s2 {len(box)}^2 pairs x 2 sides"


def claim_conucleus(cfg: BatteryConfig) -> str:
    rep = verify_conucleus(samples=cfg.samples, box=8, seed=cfg.seed)
    if not rep.ok:
        law, detail = rep.violations[0]
        raise ClaimFailed(f"{law}: {detail}")
    # the order on group values against the witness-pair definition
    rng = random.Random(cfg.seed + 1)
    sampled = [(random_fraction(rng, 2), random_fraction(rng, 2)) for _ in range(cfg.samples)]
    cube = [OreFraction.from_group(HeisTriple(*t)) for t in itertools.product((-1, 0, 1), repeat=3)]
    wide = [(random_fraction(rng, 40), random_fraction(rng, 40)) for _ in range(300)]
    for f, g in itertools.chain(sampled, itertools.product(cube, repeat=2), wide):
        if frac_cmp_witness(f, g) != frac_cmp_group(f, g):
            raise ClaimFailed(f"order mismatch at {f}, {g}")
    return (f"all laws on {cfg.samples} random fractions;"
            f" witness order = group order on {cfg.samples} pairs,"
            f" on all {len(cube) ** 2} pairs over [-1,1]^3"
            f" and on {len(wide)} pairs over [-40,40]^3")


def claim_dyadic(cfg: BatteryConfig) -> str:
    a, b = HAMVTY_BASE, HAMVTY_CONJUGATOR
    if dyadic_cmp(dyadic_mul(a, b), dyadic_mul(b, dyadic_pow(a, 2))) >= 0:
        raise ClaimFailed("base inequality ab < ba^2 fails")
    for n in range(1, 13):
        lhs = dyadic_mul(dyadic_pow(a, n), b)
        rhs = dyadic_mul(b, dyadic_pow(a, 2 * n))
        if dyadic_cmp(lhs, rhs) >= 0:
            raise ClaimFailed(f"claim 1 fails at n={n}")
        lhs = dyadic_mul(a, dyadic_pow(b, n))
        rhs = dyadic_mul(dyadic_pow(b, n), dyadic_pow(a, 2**n))
        if dyadic_cmp(lhs, rhs) >= 0:
            raise ClaimFailed(f"claim 2 fails at n={n}")
        conj = dyadic_mul(dyadic_mul(dyadic_pow(b, -n), a), dyadic_pow(b, n))
        if dyadic_cmp(conj, dyadic_pow(a, n)) >= 0:
            raise ClaimFailed(f"conjugate bound fails at n={n}")
    rep = hamvty_witness(8)
    if not rep.all_certified():
        raise ClaimFailed("truncated product witness missing")
    # the weakly-abelian inequality fails at the fixed witness
    wa = finite.PROPERTIES["weakly-abelian"][0]
    v = check_equation_sampled(wa, DyadicInstance, [{"x": a, "y": b}])
    if v.holds:
        raise ClaimFailed("weakly-abelian unexpectedly holds")
    return "claims 1-2 and conjugate bound for n <= 12; witness at N=8"


def claim_hamiltonian_law(cfg: BatteryConfig) -> str:
    eq8 = finite.PROPERTIES["hamilt-eq"][0]
    rng = random.Random(cfg.seed + 2)
    for label, inst, draw in (("extended chain", F2Instance, random_triple),
                              ("positive monoid", S2Instance, _random_s2)):
        samples = ({v: draw(rng, 8) for v in ("x", "y", "z")} for _ in range(cfg.samples))
        v = check_equation_sampled(eq8, inst, samples)
        if not v.holds:
            raise ClaimFailed(f"{label}: {v.witness}")
    return f"{cfg.samples} samples in each chain"


def claim_convex(cfg: BatteryConfig) -> str:
    tested = 0
    for s in models.model_library():
        if not check_named_property(s, "e-cyclic").holds:
            continue
        for r in range(s.n + 1):
            for gens in itertools.combinations(range(s.n), r):
                got = finite.convex_closure(s, gens)
                want = finite.convex_closure_fixpoint(s, gens)
                if got != want:
                    raise ClaimFailed(f"{s!r} gens {gens}: {got} vs {want}")
        family = finite.all_convex_subuniverses(s)
        if set(family) != {finite.convex_closure(s, [a]) for a in s.elements}:
            raise ClaimFailed(f"{s!r}: idempotent up-sets differ from principal closures")
        for h, k, j in itertools.product(family, repeat=3):
            if h & finite.convex_closure(s, k | j) != finite.convex_closure(s, (h & k) | (h & j)):
                raise ClaimFailed(f"{s!r}: lattice not distributive")
        for a in s.elements:
            for b in s.elements:
                aa, ab = finite.absolute_value(s, a), finite.absolute_value(s, b)
                ca, cb = finite.convex_closure(s, [a]), finite.convex_closure(s, [b])
                if finite.convex_closure(s, [s.join(aa, ab)]) != ca & cb:
                    raise ClaimFailed(f"{s!r}: join identity at ({a},{b})")
                if finite.convex_closure(s, [s.meet(aa, ab)]) != finite.convex_closure(s, ca | cb):
                    raise ClaimFailed(f"{s!r}: meet identity at ({a},{b})")
        tested += 1
    return f"{tested} e-cyclic models, all pairs"


def claim_enumeration_count(cfg: BatteryConfig) -> str:
    got = [s for s in enumerate_chain_models(3, constraints=("integral",)) if s.unit == 2]
    # independent oracle: filter all 3^9 raw tables directly
    leq = finite.chain_leq(3)
    oracle = 0
    for cells in itertools.product(range(3), repeat=9):
        mul = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
        try:
            s = finite.derive_residuals(leq, mul, 2)
        except finite.StructureError:
            continue
        if check_named_property(s, "integral").holds:
            oracle += 1
    if len(got) != 2 or oracle != 2:
        raise ClaimFailed(f"enumerator {len(got)}, oracle {oracle}, expected 2")
    return "exactly 2 integral 3-chains (both routes)"


CLAIMS: dict[str, Callable[[BatteryConfig], str]] = {
    "adjunction-suite": claim_adjunction,
    "prelinearity-suite": claim_prelinearity,
    "heis-matrix-oracle": claim_heis_oracle,
    "nilpotency-laws": claim_nilpotency_laws,
    "unique-roots": claim_unique_roots,
    "divisibility-failures": claim_divisibility_failures,
    "residual-agreement": claim_residual_agreement,
    "conucleus-battery": claim_conucleus,
    "dyadic-claims": claim_dyadic,
    "hamiltonian-law": claim_hamiltonian_law,
    "convex-suite": claim_convex,
    "enumeration-count": claim_enumeration_count,
}

# the claims over enumerated chains, skipped when the cap leaves out the 3-chains
_ENUMERATIVE = {claim_adjunction, claim_prelinearity, claim_enumeration_count}


def run_battery(
    cfg: Optional[BatteryConfig] = None, only: Optional[str] = None
) -> list[ClaimResult]:
    """Run every claim, or only the one named, and time each.  Raises
    ValueError for an unknown claim name before running anything."""
    if only is not None and only not in CLAIMS:
        raise ValueError(f"unknown claim {only!r}; known: {', '.join(CLAIMS)}")
    cfg = cfg or BatteryConfig()
    results = []
    for name, fn in CLAIMS.items():
        if only is not None and name != only:
            continue
        t0 = time.perf_counter()
        if fn in _ENUMERATIVE and cfg.max_size < 3:
            status, detail = "skipped", "enumeration cap too low"
        else:
            try:
                status, detail = "pass", fn(cfg)
            except ClaimFailed as exc:
                status, detail = "fail", str(exc)
        results.append(ClaimResult(name, status, detail, time.perf_counter() - t0))
    return results
