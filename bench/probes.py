"""The probe pass of a traced run.

Primitives that the workloads reach only indirectly are timed by short
loops over seeded inputs (`loop_probes`, nanoseconds or microseconds per
call).  `coverage_jobs` then makes a few small traced calls into every
layer, so that every per-layer metric is measured on every workload; a
layer the workload itself leaves idle shows only this small probe cost.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import gen
import workloads


def _per_call(fn, inputs, repeats: int = 3) -> float:
    """Median over `repeats` loops of seconds per call of fn(*x)."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for x in inputs:
            fn(*x)
        times.append((perf_counter() - start) / len(inputs))
    return statistics.median(times)


def loop_probes(seed: int, scale: str) -> dict:
    from reslat import finite, models, nilpotent, omon, terms

    rng = random.Random(seed)
    k = 10 if scale == "tiny" else 1
    product = models.direct_product(models.heyting5(), models.godel3())
    l4 = terms.gen_Lc(4).lhs
    names = ("x", "y", "z1", "z2", "z3")
    assignments = [({v: rng.randrange(15) for v in names}, product) for _ in range(2000 // k)]
    heis = [
        (nilpotent.HeisTriple(*gen.group_triple(rng, 50)), nilpotent.HeisTriple(*gen.group_triple(rng, 50)))
        for _ in range(20000 // k)
    ]
    s2 = [
        (nilpotent.HeisTriple(*gen.s2_member(rng, 8)), nilpotent.HeisTriple(*gen.s2_member(rng, 8)))
        for _ in range(20000 // k)
    ]
    dyadic = [
        tuple(nilpotent.DyadicPair(*gen.parse_dyadic(gen.dyadic_text(rng))) for _ in range(2))
        for _ in range(5000 // k)
    ]
    residual_cases = [
        (nilpotent.HeisTriple(*gen.s2_member(rng, 6)), nilpotent.HeisTriple(*gen.s2_member(rng, 6)),
         rng.choice(("left", "right")))
        for _ in range(10000 // k)
    ]
    m1_pairs = [
        ((rng.randint(0, 12), rng.randint(0, 12)), (rng.randint(0, 12), rng.randint(0, 12)))
        for _ in range(20000 // k)
    ]
    chain6 = (finite.chain_leq(6), [[min(i, j) for j in range(6)] for i in range(6)], 5)
    prod15 = (product.leq, product.mul_table, product.unit)
    return {
        "terms.eval_term_ns": 1e9 * _per_call(lambda a, s: terms.eval_term(l4, a, s), assignments),
        "finite.derive_residuals_chain6_us": 1e6 * _per_call(finite.derive_residuals, [chain6] * (50 // k)),
        "finite.derive_residuals_prod15_us": 1e6 * _per_call(finite.derive_residuals, [prod15] * (10 // k)),
        "nilpotent.heis_mul_ns": 1e9 * _per_call(nilpotent.heis_mul, heis),
        "nilpotent.s2_cmp_ns": 1e9 * _per_call(nilpotent.s2_cmp, s2),
        "nilpotent.dyadic_mul_ns": 1e9 * _per_call(nilpotent.dyadic_mul, dyadic),
        "omon.s2_residual_ns": 1e9 * _per_call(omon.s2_residual, residual_cases),
        "omon.m1_residual_ns": 1e9 * _per_call(omon.m1_residual, m1_pairs),
    }


def coverage_jobs(runner, lib, seed: int, workdir: str) -> None:
    """A few traced calls into every layer: jobs of kind 'probe', and one
    CLI request of each kind as a 'cli.<kind>' job."""
    from reslat import battery, models, nilpotent, ore

    rng = random.Random(seed)
    job = runner.job
    godel3, heyting5 = models.godel3(), models.heyting5()
    for _ in range(20):
        eq = job("probe", lib.parse_equation, gen.random_equation(rng)[0])
        job("probe", lib.check_equation, eq, godel3)
    for name in ("LPL", "integral", "semilin-qeq"):
        job("probe", lib.check_named_property, heyting5, name)
    for _ in range(3):
        job("probe", lib.direct_product, heyting5, godel3)
    for s in job("probe", lib.enumerate_chain_models, 4):
        job("probe", lib.validate_axioms, s)
        job("probe", lambda s: lib.structure_from_json(lib.structure_to_json(s)), s)
    for a, b, side in gen.residual_cases(rng, 200)[:20]:
        a, b = nilpotent.HeisTriple(*a), nilpotent.HeisTriple(*b)
        job("probe", lib.residual_search, lib.S2Instance, a, b, side, 14)
    for _ in range(5):
        f, g = (ore.OreFraction.from_group(nilpotent.HeisTriple(*gen.group_triple(rng, 2))) for _ in range(2))
        job("probe", lib.frac_cmp_witness, f, g)
    job("probe", lib.verify_conucleus, 50, 8, seed)
    for _ in range(3):
        job("probe", lib.run_battery, battery.BatteryConfig(), "divisibility-failures")
    cli = workloads.Cli()
    request = workloads.cli_request(lib)
    path = workloads.write_product(lib, workdir)
    for kind in cli.MIX:
        _, argv, _ = getattr(cli, "_" + kind.replace("-", "_"))(rng, path)
        job("cli." + kind, request, argv)
