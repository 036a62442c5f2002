"""Time one layer of the library, one suite of jobs, and record the result.

    python tools/bench_layers.py SUITE --label after
    python tools/bench_layers.py SUITE --src OTHER_CHECKOUT/src --label before
    python tools/bench_layers.py SUITE --src OTHER_CHECKOUT/src --src src --labels before,after

SUITE is one of:

- `cli`: one in-process request of each kind of the benchmark's `cli` job
  list, in us per request; a request that exits with another code than
  its job expects (1 for `check_file`, 0 for the others) fails the job.
- `enumerate`: the chain enumerator (table generation alone, and whole
  `enumerate_chain_models`) at sizes 5, 6 and 7, `derive_residuals`,
  `validate_axioms` and the JSON round trip on fixed inputs, in us per
  table, model or structure; and every named property on the library and
  the chains up to size 5, 100 times (after an untimed pass that compiles
  the laws), in us per check; and building `models.model_library()`, in
  us per structure.
- `triples`: triple construction by the `HeisTriple` class call,
  `heis_mul`, one `residual_search` on `S2Instance` at bound 14, one on
  `M1Instance` at bound 26 (over the 91**2 pairs of words up to length
  12), `m1_cmp` on the same pairs (ten times a round) and one
  `frac_cmp_witness` (the witness pair read off `L_2`), on seeded inputs;
  and `verify_conucleus(1000, 8, 20240826)`, the conucleus battery that the
  benchmark's `residuals` job list runs once a pass, in ms per call (a
  report with a violation fails the job).
- `battery`: each `verify-paper` claim at the acceptance config
  (`BatteryConfig()`: `max_size=5, samples=1000, seed=20240826`), in ms per
  claim; a claim that does not pass fails its job.
- `laws`: the compiled law checks.  `L_3` (ten checks a round), `L_4` and
  `L_5` on the 15-element `heyting5 x godel3`, after an untimed check that
  compiles the law, in ms per check; and compiling `L_4` (20 times a round)
  and every named property (5 times a round), each compile after
  `_compile.cache_clear()`, in us per compile; and parsing the source text
  of every named property (20 times a round), in us per parse.

A job is (set-up, expression, unit): the expression does some units of
work and returns how many.  Every job runs REPEAT times, each run in a
fresh interpreter with PYTHONPATH set to `--src`, RESLAT_MAX_SIZE unset and
a temporary working directory: the untimed set-up, then ROUNDS timed
evaluations of the expression.  A run records its best round and its first
round, which also pays for what the set-up left cold, each per unit; a
job's result is the count of units a round, the `runs` (best per run),
their `median` and the `first` of each run.  A run over TIMEOUT_S seconds
is recorded as `timed_out_after_s` and ends the job.  Each call stores its
numbers under its label in `BENCH_<SUITE>.json` at the repository root,
keeping the other labels.

A before/after pair is best timed in one call: `--src` given twice, with
`--labels before,after`, runs the two sources in turn for each run of each
job (before first in even runs, after first in odd ones), so that a slow
or fast phase of the host falls on both.  Each label's numbers are stored
as a one-source call stores them, and `paired` holds, per job, the pairs of
`runs` figures ([before, after], lower is better) and the number of runs
that `after` won.
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
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 5
ROUNDS = 7
SEED = 20240826
TIMEOUT_S = 120.0

# runs in the child: set up, then time `rounds` evaluations of one expression
_CHILD = """
import json, sys, time
setup, expr, rounds = json.loads(sys.argv[1])
ns = {}
exec(setup, ns)
expr = compile(expr, "<job>", "eval")
times = []
for _ in range(rounds):
    t = time.perf_counter()
    count = eval(expr, ns)
    times.append(time.perf_counter() - t)
print(json.dumps([count, times]))
"""


class Suite(NamedTuple):
    prelude: str  # set-up shared by every job of the suite
    jobs: dict  # name -> (set-up, expression returning its count of units, unit)


def summary(runs, unit: str) -> dict:
    """A job's result from its runs, each (count, seconds per round)."""
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3}[unit.split()[0]]
    best = [round(min(times) / count * scale, 3) for count, times in runs]
    first = [round(times[0] / count * scale, 3) for count, times in runs]
    return {"count": runs[-1][0], "median": round(statistics.median(best), 3), "runs": best,
            "first": first}


_REQUEST = """
import contextlib, io, json
def request(argv, expect=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != expect:
        raise RuntimeError(f"{argv} exited {code}, not {expect}")
    return 1
"""
US = "us per request"
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
    def searches():
        for a, b, side in cases:
            omon.residual_search(inst, a, b, side, bound=bound)
        return len(cases)
    return searches
"""
_S2_CASES = _SEARCHES + """
box = list(nilpotent.s2_box(6, gmax=6))
cases = [(a, HeisTriple(al, be, rng.randint(0, min(al * be, 6))), side)
         for a in box[::8] for side in ("left", "right")
         for al, be in itertools.product(range(7), repeat=2)]
searches = search_job(omon.S2Instance, cases, 14)
"""
_M1_WORDS = """
words = [(a, d - a) for d in range(13) for a in range(d + 1)]
"""
_M1_CASES = _SEARCHES + _M1_WORDS + """
searches = search_job(omon.M1Instance, [(z, w, "left") for w in words for z in words], 26)
"""
_M1_PAIRS = _M1_WORDS + """
pairs = [(u, v) for u in words for v in words]
def m1_comparisons(n=10):
    cmp = omon.m1_cmp
    for _ in range(n):
        for u, v in pairs:
            cmp(u, v)
    return n * len(pairs)
"""
_FRACTIONS = """
def fraction():
    return ore.OreFraction.from_group(HeisTriple(*(rng.randint(-2, 2) for _ in range(3))))
pairs = [(fraction(), fraction()) for _ in range(100)]
def comparisons():
    for f, g in pairs:
        ore.frac_cmp_witness(f, g)
    return len(pairs)
"""
_CONUCLEUS = f"""
def conucleus():
    report = ore.verify_conucleus(1000, 8, {SEED})
    if not report.ok:
        raise RuntimeError(f"verify_conucleus: {{report.violations[0]}}")
    return 1
"""
_LAWS = """
product = models.direct_product(models.heyting5(), models.godel3())
named = [law for laws in finite.PROPERTIES.values() for law in laws]
def checks(c, n=1):
    law = terms.gen_Lc(c)
    terms.check_equation(law, product)
    def timed():
        for _ in range(n):
            assert terms.check_equation(law, product).holds
        return n
    return timed
def compiles(laws):
    def timed():
        for law in laws:
            terms._compile.cache_clear()
            terms._compile(law)
        return len(laws)
    return timed
def parses(n):
    texts = [text for src in finite._PROPERTY_SOURCES.values()
             for text in ([src] if isinstance(src, str) else src)]
    def timed():
        for _ in range(n):
            for text in texts:
                (terms.parse_quasiequation if "=>" in text else terms.parse_equation)(text)
        return n * len(texts)
    return timed
"""
_CLAIM = """
def claim(name):
    (result,) = battery.run_battery(battery.BatteryConfig(), only=name)
    if result.status != "pass":
        raise RuntimeError(f"{name}: {result.status}: {result.detail}")
    return 1
"""
# battery.CLAIMS by name: this script imports no reslat, each child its own --src
_CLAIMS = ("adjunction-suite", "prelinearity-suite", "heis-matrix-oracle", "nilpotency-laws",
           "unique-roots", "divisibility-failures", "residual-agreement", "conucleus-battery",
           "dyadic-claims", "hamiltonian-law", "convex-suite", "enumeration-count")

SUITES = {
    "cli": Suite(
        "from reslat import cli, finite, models\n" + _REQUEST, {
            "check": ("", 'request(["check", "heyting5", "x*(y v z) = x*y v x*z", "--json"])', US),
            "check_file": (_PRODUCT, 'request(["check", "product.json", "LPL", "-p", "--json"], 1)',
                           US),
            "residual": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0", "--json"])', US),
            "residual_search": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0", "--json",'
                                    ' "--search", "--bound", "14"])', US),
            "heis": ("", 'request(["heis", "-n", "3", "--json", "--", "pow", "-2,5,7"])', US),
            "s2": ("", 'request(["s2", "cmp", "1,2,1", "2,1,0", "--json"])', US),
            "dyadic": ("", 'request(["dyadic", "-n", "3", "--json", "--", "conjugate", "(-1,0)",'
                           ' "(0,-2)"])', US),
            "ore": ("", 'request(["ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2",'
                        ' "0,1,0", "--witness", "--json"])', US),
            "omon": ("", 'request(["omon", "s2", "hamvty", "--size", "6", "--json"])', US),
            "enumerate": ("", 'request(["enumerate", "4", "--json"])', US),
            "verify-paper": ("", 'request(["verify-paper", "--only", "divisibility-failures",'
                                 ' "--json"])', US),
        }),
    "enumerate": Suite(
        "from reslat import finite, models", {
            "tables_n5": ("", "sum(1 for u in range(1, 5) for _ in finite._chain_tables(5, u))",
                          "us per table"),
            "tables_n6": ("", "sum(1 for u in range(1, 6) for _ in finite._chain_tables(6, u))",
                          "us per table"),
            "tables_n7": ("", "sum(1 for u in range(1, 7) for _ in finite._chain_tables(7, u))",
                          "us per table"),
            "enumerate_n5": ("", "len(finite.enumerate_chain_models(5))", "us per model"),
            "enumerate_n6": ("", "len(finite.enumerate_chain_models(6))", "us per model"),
            "enumerate_n7_cap7": ("", "len(finite.enumerate_chain_models(7, cap=7))",
                                  "us per model"),
            "derive_residuals_chains6": (
                _CHAINS6,
                "len([finite.derive_residuals(s.leq, s.mul_table, s.unit) for s in chains6])",
                "us per structure"),
            "derive_residuals_product_x100": (
                "product = models.direct_product(models.heyting5(), models.godel3())",
                "len([finite.derive_residuals(product.leq, product.mul_table, product.unit)"
                " for _ in range(100)])", "us per structure"),
            "validate_axioms_chains6": (
                _CHAINS6, "sum(not finite.validate_axioms(s) for s in chains6)",
                "us per structure"),
            "json_round_trip_chains6": (
                _CHAINS6,
                "len([finite.structure_from_json(finite.structure_to_json(s)) for s in chains6])",
                "us per structure"),
            "named_properties_x100": (
                _UNIVERSE, "len([finite.check_named_property(s, p)"
                           " for _ in range(100) for s, p in checks])", "us per check"),
            "model_library": ("", "len(models.model_library())", "us per structure"),
        }),
    "triples": Suite(
        "import itertools, random\n"
        "from reslat import nilpotent, omon, ore\n"
        f"rng, HeisTriple = random.Random({SEED}), nilpotent.HeisTriple", {
            "class_call": (_BUILDS, "builds(HeisTriple)", "ns per HeisTriple(a, b, g)"),
            "heis_mul": (_PRODUCTS, "products()", "ns per product"),
            "s2_search": (_S2_CASES, "searches()", "us per search"),
            "m1_search": (_M1_CASES, "searches()", "us per search"),
            "m1_cmp": (_M1_PAIRS, "m1_comparisons()", "ns per comparison"),
            "frac_cmp_witness": (_FRACTIONS, "comparisons()", "us per pair"),
            "verify_conucleus": (_CONUCLEUS, "conucleus()", "ms per call"),
        }),
    "battery": Suite(
        "from reslat import battery\n" + _CLAIM,
        {name: ("", f"claim({name!r})", "ms per claim") for name in _CLAIMS}),
    "laws": Suite(
        "from reslat import finite, models, terms\n" + _LAWS, {
            "L3": ("timed = checks(3, 10)", "timed()", "ms per check"),
            "L4": ("timed = checks(4)", "timed()", "ms per check"),
            "L5": ("timed = checks(5)", "timed()", "ms per check"),
            "compile_L4": ("timed = compiles([terms.gen_Lc(4)] * 20)", "timed()",
                           "us per compile"),
            "compile_named": ("timed = compiles(named * 5)", "timed()", "us per compile"),
            "parse_named": ("timed = parses(20)", "timed()", "us per parse"),
        }),
}


def run_child(src: str, cwd: str, setup: str, expr: str):
    """(count of the last round, seconds per round) of one child, or None if
    it took more than TIMEOUT_S seconds.  A child that fails, as a request
    with an unexpected exit code does, shows its traceback and raises."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    env.pop("RESLAT_MAX_SIZE", None)
    try:
        done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([setup, expr, ROUNDS])],
                              env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout)


def measure(suite: Suite, srcs: list) -> list:
    """One result dict per source; each run of a job runs every source, in
    the order of `srcs` in even runs and reversed in odd ones."""
    results = [{} for _ in srcs]
    with tempfile.TemporaryDirectory() as cwd:
        for name, (setup, expr, unit) in suite.jobs.items():
            runs = [[] for _ in srcs]
            turns = [k for i in range(REPEAT)
                     for k in (range(len(srcs)) if i % 2 == 0 else reversed(range(len(srcs))))]
            for k in turns:
                run = run_child(srcs[k], cwd, suite.prelude + "\n" + setup, expr)
                if run is None:
                    break
                runs[k].append(run)
            for result, src, src_runs in zip(results, srcs, runs):
                result[name] = (summary(src_runs, unit) if src_runs
                                else {"timed_out_after_s": TIMEOUT_S})
                label = f" {src}" if len(srcs) > 1 else ""
                print(f"{name:30s}{label} {result[name]}", flush=True)
    return results


def pair_up(before: dict, after: dict) -> dict:
    """Per job: the `runs` figures of two sources timed in turn, as
    [before, after] pairs, and the number of pairs that `after` won."""
    paired = {}
    for name in before:
        pairs = [list(pair) for pair in zip(before[name].get("runs", []),
                                              after[name].get("runs", []))]
        paired[name] = {"pairs": pairs, "after_won": sum(a < b for b, a in pairs)}
    return paired


def source_commit(src: str) -> str:
    def git(*argv):
        return subprocess.run(["git", "-C", src, *argv], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + (" (modified)" if git("status", "--porcelain", "--", ".") else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--src", action="append",
                   help="source directory that holds the reslat package (default: this "
                        "checkout's src); give it twice, with --labels, to time two in turn")
    named = p.add_mutually_exclusive_group(required=True)
    named.add_argument("--label", help="key for the numbers of one --src, e.g. before/after")
    named.add_argument("--labels", help="keys for the numbers of two --src, e.g. before,after")
    args = p.parse_args(argv)
    suite = SUITES[args.suite]
    srcs = args.src or [os.path.join(ROOT, "src")]
    labels = args.labels.split(",") if args.labels else [args.label]
    if len(srcs) != len(labels) or len(set(labels)) != (2 if args.labels else 1) or not all(labels):
        p.error("one --src takes --label NAME, two take --labels BEFORE,AFTER")

    out = os.path.join(ROOT, f"BENCH_{args.suite}.json")
    saved = {"runs": {}}
    if os.path.exists(out):
        with open(out) as fh:
            saved = json.load(fh)
    saved["jobs"] = suite.jobs
    date = time.strftime("%Y-%m-%d")
    results = measure(suite, srcs)
    for label, src, result in zip(labels, srcs, results):
        saved["runs"][label] = {
            "source": source_commit(src),
            "date": date,
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "repeat": REPEAT,
            "rounds": ROUNDS,
            "results": result,
        }
    if len(srcs) == 2:
        saved.setdefault("paired", {})[",".join(labels)] = {
            "date": date, "results": pair_up(*results)}
    with open(out, "w") as fh:
        json.dump(saved, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
