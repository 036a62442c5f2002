"""Time the residuated-chain enumerator and the per-structure calls on its
models at fixed sizes, and record the result.

Two jobs per size: table generation alone (`finite._chain_tables` over every
unit) and the whole `enumerate_chain_models(n)`, which also derives the
residuals of every table.  Sizes are 5 and 6, and 7 with `cap=7`.  Four
per-call jobs time `derive_residuals` on the 575 tables of size 6 and 100
times on the 15-element `heyting5 x godel3`, `validate_axioms` on the 575
models of size 6, and their JSON round trip; their inputs are built before
the clock starts.  One law-check job runs every named property on the
library models and the chains up to size 5, 100 times; a pass before the
clock compiles the laws, so it times the fixed cost of one small check,
which dominates there, and its count is the checks that hold.  Each job
runs in a fresh interpreter, REPEAT times; a run that exceeds TIMEOUT_S
seconds is recorded as timed out and the job is not repeated.

    python tools/bench_enumerate.py --label after
    python tools/bench_enumerate.py --src OTHER_CHECKOUT/src --label before

Each call stores its numbers under its label in `BENCH_enumerate.json` at
the repository root and keeps the other labels, so a before/after pair is
two calls against two checkouts.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

from bench_record import ROOT, record

OUT = os.path.join(ROOT, "BENCH_enumerate.json")
REPEAT = 3
TIMEOUT_S = 120.0

CHAINS6 = "chains6 = finite.enumerate_chain_models(6)"
PRODUCT = "product = models.direct_product(models.heyting5(), models.godel3())"
UNIVERSE = ("universe = models.model_library() + [s for n in range(1, 6)"
            " for s in finite.enumerate_chain_models(n)]\n"
            "checks = [(s, p) for s in universe for p in finite.PROPERTY_NAMES]\n"
            "[finite.check_named_property(s, p) for s, p in checks]")

# name -> (untimed set-up, timed expression whose value is the count)
JOBS = {
    "tables_n5": ("", "sum(1 for u in range(1, 5) for _ in finite._chain_tables(5, u))"),
    "tables_n6": ("", "sum(1 for u in range(1, 6) for _ in finite._chain_tables(6, u))"),
    "tables_n7": ("", "sum(1 for u in range(1, 7) for _ in finite._chain_tables(7, u))"),
    "enumerate_n5": ("", "len(finite.enumerate_chain_models(5))"),
    "enumerate_n6": ("", "len(finite.enumerate_chain_models(6))"),
    "enumerate_n7_cap7": ("", "len(finite.enumerate_chain_models(7, cap=7))"),
    "derive_residuals_chains6": (
        CHAINS6, "len([finite.derive_residuals(s.leq, s.mul_table, s.unit) for s in chains6])"),
    "derive_residuals_product_x100": (
        PRODUCT, "len([finite.derive_residuals(product.leq, product.mul_table, product.unit)"
                 " for _ in range(100)])"),
    "validate_axioms_chains6": (CHAINS6, "sum(not finite.validate_axioms(s) for s in chains6)"),
    "json_round_trip_chains6": (
        CHAINS6, "len([finite.structure_from_json(finite.structure_to_json(s)) for s in chains6])"),
    "named_properties_x100": (
        UNIVERSE, "sum(finite.check_named_property(s, p).holds"
                  " for _ in range(100) for s, p in checks)"),
}

# runs in the child: import, set up, time one evaluation, print count and seconds
_CHILD = """
import time
from reslat import finite, models
{setup}
t = time.perf_counter()
count = {expr}
print(count, time.perf_counter() - t)
"""


def _run(src: str, setup: str, expr: str):
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("RESLAT_MAX_SIZE", None)
    try:
        done = subprocess.run([sys.executable, "-c", _CHILD.format(setup=setup, expr=expr)], env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    count, seconds = done.stdout.split()
    return int(count), float(seconds)


def measure(src: str) -> dict:
    results = {}
    for name, (setup, expr) in JOBS.items():
        runs, count = [], None
        for _ in range(REPEAT):
            got = _run(src, setup, expr)
            if got is None:
                break
            count, seconds = got
            runs.append(round(seconds, 4))
        results[name] = (
            {"count": count, "median_s": round(statistics.median(runs), 4), "runs_s": runs}
            if runs else {"timed_out_after_s": TIMEOUT_S}
        )
        print(f"{name:20s} {results[name]}", flush=True)
    return results


def main(argv=None) -> int:
    return record(OUT, JOBS, __doc__, measure, argv, repeat=REPEAT)


if __name__ == "__main__":
    sys.exit(main())
