"""Time one layer of the library, one suite of jobs, and record the result.

    python tools/bench_layers.py SUITE --label after
    python tools/bench_layers.py SUITE --src OTHER_CHECKOUT/src --label before

SUITE is one of:

- `cli`: one in-process request of each kind of the benchmark's `cli` job
  list, CALLS calls per run.  `first_ms` is each run's first call, which
  also pays for one-time set-up; `median_ms` is the median of the others.
- `enumerate`: the chain enumerator (table generation alone, and whole
  `enumerate_chain_models`) at sizes 5, 6 and 7, `derive_residuals`,
  `validate_axioms` and the JSON round trip on fixed inputs, and every
  named property on the library and the chains up to size 5, 100 times
  (after an untimed pass that compiles the laws), one evaluation per run.
- `triples`: triple construction (`nilpotent._triple` where the sources
  have it) against the `HeisTriple` class call, `heis_mul`, one
  `residual_search` candidate on `S2Instance` at bound 14, one on
  `M1Instance` at bound 26 (over the 91**2 pairs of words up to length 12)
  and one `frac_cmp_witness` at bound 8, on seeded inputs; a run reports
  the best of ROUNDS rounds per unit of work.

Every job runs REPEAT times (TRIPLES_REPEAT for `triples`), each in a fresh
interpreter with PYTHONPATH set to `--src`, RESLAT_MAX_SIZE unset and a
temporary working directory: untimed set-up, then timed evaluations of one
expression, after which it prints the last value (a count or an exit code)
and the times.  A run over TIMEOUT_S seconds is recorded as
`timed_out_after_s` and ends the job.  Each call stores its numbers under
its label in `BENCH_<SUITE>.json` at the repository root, keeping the other
labels, so a before/after pair is two calls against two checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 3
TRIPLES_REPEAT = 5
CALLS = 200
ROUNDS = 7
SEED = 20240826
TIMEOUT_S = 120.0

# runs in the child: set up, then time `reps` evaluations of one expression
_CHILD = """
import json, sys, time
setup, expr, reps = json.loads(sys.argv[1])
ns = {}
exec(setup, ns)
expr = compile(expr, "<job>", "eval")
times = []
for _ in range(reps):
    t = time.perf_counter()
    value = eval(expr, ns)
    times.append(time.perf_counter() - t)
print(json.dumps([value, times]))
"""


class Suite(NamedTuple):
    prelude: str  # set-up shared by every job of the suite
    jobs: dict  # name -> (set-up, expression, *extra arguments of `summary`)
    reps: int  # evaluations per run
    repeat: int  # runs per job
    summary: Callable  # (runs, *extra) -> result fields; a run is (value, times)
    settings: dict  # recorded with the results, after `repeat`


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 4)


def _cli_summary(runs) -> dict:
    return {"exit": sorted({code for code, _ in runs}),
            "median_ms": _ms(statistics.median(t for _, times in runs for t in times[1:])),
            "run_medians_ms": [_ms(statistics.median(times[1:])) for _, times in runs],
            "first_ms": [_ms(times[0]) for _, times in runs]}


def _enumerate_summary(runs) -> dict:
    seconds = [round(times[0], 4) for _, times in runs]
    return {"count": runs[-1][0], "median_s": round(statistics.median(seconds), 4),
            "runs_s": seconds}


def _triples_summary(runs, unit: str) -> dict:
    scale = {"ns": 1e9, "us": 1e6}[unit.split()[0]]
    best = [round(min(times) / count * scale, 3) for count, times in runs]
    return {"count": runs[-1][0], "median": round(statistics.median(best), 3), "runs": best}


_REQUEST = """
import contextlib, io, json
def request(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))
"""
_PRODUCT = """
with open("product.json", "w") as fh:
    product = models.direct_product(models.heyting5(), models.godel3())
    json.dump(finite.structure_to_json(product), fh)
"""
_CHAINS6 = "chains6 = finite.enumerate_chain_models(6)"
_UNIVERSE = """
universe = models.model_library() + [
    s for n in range(1, 6) for s in finite.enumerate_chain_models(n)]
checks = [(s, p) for s in universe for p in finite.PROPERTY_NAMES]
[finite.check_named_property(s, p) for s, p in checks]
"""
_BUILDS = """
args = [(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 81)) for _ in range(1000)]
def builds(fn, n=200_000):
    for _ in range(n // 1000):
        for a, b, g in args:
            fn(a, b, g)
    return n
"""
_PRODUCTS = """
g, h, mul = HeisTriple(3, -2, 5), HeisTriple(-1, 4, 2), nilpotent.heis_mul
def products(n=200_000):
    for _ in range(n):
        mul(g, h)
    return n
"""
_SEARCHES = """
def search_job(inst, cases, bound):
    # count the candidates that residual_search scans on `cases` once, untimed,
    # through a counting copy of the stream; the timed function returns it
    count, stream = 0, inst.candidates
    def counted(b):
        nonlocal count
        for c in stream(b):
            count += 1
            yield c
    counting = dataclasses.replace(inst, candidates=counted)
    for a, b, side in cases:
        omon.residual_search(counting, a, b, side, bound=bound)
    def searches():
        for a, b, side in cases:
            omon.residual_search(inst, a, b, side, bound=bound)
        return count
    return searches
"""
_S2_CASES = _SEARCHES + """
box = list(nilpotent.s2_box(6, 6, 6))
cases = [(a, HeisTriple(al, be, rng.randint(0, min(al * be, 6))), side)
         for a in box[::8] for side in ("left", "right")
         for al, be in itertools.product(range(7), repeat=2)]
searches = search_job(omon.S2Instance, cases, 14)
"""
_M1_CASES = _SEARCHES + """
words = [(a, d - a) for d in range(13) for a in range(d + 1)]
searches = search_job(omon.M1Instance, [(z, w, "left") for w in words for z in words], 26)
"""
_FRACTIONS = """
def fraction():
    return ore.OreFraction.from_group(HeisTriple(*(rng.randint(-2, 2) for _ in range(3))))
pairs = [(fraction(), fraction()) for _ in range(100)]
def comparisons():
    for f, g in pairs:
        ore.frac_cmp_witness(f, g, 8)
    return len(pairs)
"""

SUITES = {
    "cli": Suite(
        "from reslat import cli, finite, models\n" + _REQUEST, {
            "check": ("", 'request(["check", "heyting5", "x*(y v z) = x*y v x*z", "--json"])'),
            "check_file": (_PRODUCT, 'request(["check", "product.json", "LPL", "-p", "--json"])'),
            "residual": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0", "--json"])'),
            "residual_search": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0", "--json",'
                                    ' "--search", "--bound", "14"])'),
            "heis": ("", 'request(["heis", "-n", "3", "--json", "--", "pow", "-2,5,7"])'),
            "s2": ("", 'request(["s2", "cmp", "1,2,1", "2,1,0", "--json"])'),
            "dyadic": ("", 'request(["dyadic", "-n", "3", "--json", "--", "conjugate", "(-1,0)",'
                           ' "(0,-2)"])'),
            "ore": ("", 'request(["ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2",'
                        ' "0,1,0", "--witness", "--json"])'),
            "omon": ("", 'request(["omon", "s2", "hamvty", "--size", "6", "--json"])'),
            "enumerate": ("", 'request(["enumerate", "4", "--json"])'),
            "verify-paper": ("", 'request(["verify-paper", "--only", "divisibility-failures",'
                                 ' "--json"])'),
        }, CALLS, REPEAT, _cli_summary, {"calls": CALLS}),
    "enumerate": Suite(
        "from reslat import finite, models", {
            "tables_n5": ("", "sum(1 for u in range(1, 5) for _ in finite._chain_tables(5, u))"),
            "tables_n6": ("", "sum(1 for u in range(1, 6) for _ in finite._chain_tables(6, u))"),
            "tables_n7": ("", "sum(1 for u in range(1, 7) for _ in finite._chain_tables(7, u))"),
            "enumerate_n5": ("", "len(finite.enumerate_chain_models(5))"),
            "enumerate_n6": ("", "len(finite.enumerate_chain_models(6))"),
            "enumerate_n7_cap7": ("", "len(finite.enumerate_chain_models(7, cap=7))"),
            "derive_residuals_chains6": (
                _CHAINS6,
                "len([finite.derive_residuals(s.leq, s.mul_table, s.unit) for s in chains6])"),
            "derive_residuals_product_x100": (
                "product = models.direct_product(models.heyting5(), models.godel3())",
                "len([finite.derive_residuals(product.leq, product.mul_table, product.unit)"
                " for _ in range(100)])"),
            "validate_axioms_chains6": (
                _CHAINS6, "sum(not finite.validate_axioms(s) for s in chains6)"),
            "json_round_trip_chains6": (
                _CHAINS6,
                "len([finite.structure_from_json(finite.structure_to_json(s)) for s in chains6])"),
            "named_properties_x100": (
                _UNIVERSE, "sum(finite.check_named_property(s, p).holds"
                           " for _ in range(100) for s, p in checks)"),
        }, 1, REPEAT, _enumerate_summary, {}),
    "triples": Suite(
        "import dataclasses, itertools, random\n"
        "from reslat import nilpotent, omon, ore\n"
        f"rng, HeisTriple = random.Random({SEED}), nilpotent.HeisTriple", {
            "triple_build": (_BUILDS, 'builds(getattr(nilpotent, "_triple", HeisTriple))',
                             "ns per triple"),
            "class_call": (_BUILDS, "builds(HeisTriple)", "ns per HeisTriple(a, b, g)"),
            "heis_mul": (_PRODUCTS, "products()", "ns per product"),
            "s2_search": (_S2_CASES, "searches()", "ns per candidate"),
            "m1_search": (_M1_CASES, "searches()", "ns per candidate"),
            "frac_cmp_witness": (_FRACTIONS, "comparisons()", "us per pair"),
        }, ROUNDS, TRIPLES_REPEAT, _triples_summary, {"rounds": ROUNDS, "seed": SEED}),
}


def run_child(src: str, cwd: str, setup: str, expr: str, reps: int):
    """(last value, seconds per evaluation) of one child, or None if it
    took more than TIMEOUT_S seconds."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    env.pop("RESLAT_MAX_SIZE", None)
    try:
        done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([setup, expr, reps])],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout)


def measure(suite: Suite, src: str) -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as cwd:
        for name, (setup, expr, *extra) in suite.jobs.items():
            runs = []
            for _ in range(suite.repeat):
                run = run_child(src, cwd, suite.prelude + "\n" + setup, expr, suite.reps)
                if run is None:
                    break
                runs.append(run)
            results[name] = (suite.summary(runs, *extra) if runs
                             else {"timed_out_after_s": TIMEOUT_S})
            print(f"{name:30s} {results[name]}", flush=True)
    return results


def source_commit(src: str) -> str:
    def git(*argv):
        return subprocess.run(["git", "-C", src, *argv], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + (" (modified)" if git("status", "--porcelain", "--", ".") else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="source directory that holds the reslat package")
    p.add_argument("--label", required=True, help="key for these numbers, e.g. before/after")
    args = p.parse_args(argv)
    suite = SUITES[args.suite]

    out = os.path.join(ROOT, f"BENCH_{args.suite}.json")
    saved = {"runs": {}}
    if os.path.exists(out):
        with open(out) as fh:
            saved = json.load(fh)
    saved["jobs"] = suite.jobs
    saved["runs"][args.label] = {
        "source": source_commit(args.src),
        "date": time.strftime("%Y-%m-%d"),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeat": suite.repeat,
        **suite.settings,
        "results": measure(suite, args.src),
    }
    with open(out, "w") as fh:
        json.dump(saved, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
