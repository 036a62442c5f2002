"""Time one layer of the library, one suite of jobs, and record the result.

    python tools/bench_layers.py SUITE --label after
    python tools/bench_layers.py SUITE --src OLD/src --label before --src src --label after

SUITE is one of (each job's set-up, expression and unit are in SUITES):

- `cli`: one in-process request of each kind in the benchmark's `cli` job
  list; `check_qeq_fails`, a quasi-equation that fails, so that its
  witness is re-checked; and `residual_search_eq`, the `residual_search`
  request with `--bound=14`, an argv that argparse parses; a request that
  exits with another code than its job expects fails.
- `enumerate`: the chain enumerator at sizes 5 to 7, `derive_residuals`
  and `validate_axioms` on the size-6 chains and on the 15-element
  `heyting5 x godel3`, `validate_axioms` on the 64-element Gödel chain (the
  size bound), `derive_residuals_chains6_cold` (each size-6 chain
  derived after emptying its order's memo of residual rows, so each is a
  first derivation on the order), the JSON round trip, the named properties on the
  library and the chains up to size 5, the four per-model properties of
  the benchmark's `finite` workload on the size-6 chains, and
  `models.model_library()`.
- `triples`: the `HeisTriple` class call, `heis_mul`, `residual_search` on
  `S2Instance` and `M1Instance`, `m1_cmp`, `frac_cmp_witness`, and
  `verify_conucleus(1000, 8, 20240826)`, the conucleus battery that the
  benchmark's `residuals` job list runs once a pass.
- `battery`: each `verify-paper` claim at the acceptance config
  `BatteryConfig()`; a claim that does not pass fails its job.
- `laws`: `L_3`, `L_4` and `L_5` on the 15-element `heyting5 x godel3`,
  compiling `L_4` and every named property, and parsing the source text
  of every named property and the `finite` workload's 330 random
  equations (bench/gen.py at seed 1, generated here and passed to the
  child as literals).

A job is (set-up, expression, unit): the expression does some units of
work and returns how many.  Each job runs REPEAT times, each run in one
fresh interpreter for all sources, with RESLAT_MAX_SIZE and PYTHONPATH
unset, in a temporary directory.  For each source in turn, the child puts
it first on `sys.path`, runs the set-up into a namespace of its own and
deletes every `reslat` entry from `sys.modules`; the package's imports of
its own modules are all top-level and relative, so each namespace keeps
its own tree and module-level caches.  Then each of ROUNDS timed rounds
evaluates the expression once in every namespace in turn.  Odd runs take
the sources in reverse order, set-up included.  The trees still share the
allocator, the garbage collector, `argparse` and `re`'s cache.

Per source, a run records its best round, per unit; a job's result is
the `count` of units a round, the `runs` (best per run) and their
`median`.  A run over TIMEOUT_S seconds is recorded as
`timed_out_after_s` and ends the job.  Each source's numbers go under its
`--label` in `BENCH_<SUITE>.json` at the repository root, beside the other
labels, with its commit (`source`) and the sha256 of its `reslat/*.py`
(`sha256`), both read before the first child.  For two sources, before
then after, `paired` holds per job the after/before ratio of time per unit
in each round of each run: the number of `rounds`, the ratio's `median`
and `quartiles`, and the rounds that `after` won.

A source outside a git checkout (a `git archive` copy, say) is recorded as
`source: unknown`, with one line on stderr.  So time a before/after pair
against a `git clone` of the parent commit:

    git clone -q . ../parent && git -C ../parent checkout -q PARENT
    python tools/bench_layers.py SUITE --src ../parent/src --label before --src src --label after
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import random
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

# runs in the child: each source's set-up in a namespace of its own, then
# `rounds` rounds that time the expression once in each namespace, in turn
_CHILD = """
import json, sys, time
srcs, setup, expr, rounds = json.loads(sys.argv[1])
spaces = []
for src in srcs:
    sys.path.insert(0, src)
    spaces.append({})
    exec(setup, spaces[-1])
    sys.path.remove(src)
    for name in [name for name in sys.modules if name.split(".")[0] == "reslat"]:
        del sys.modules[name]
expr = compile(expr, "<job>", "eval")
runs = [[None, []] for _ in srcs]
for _ in range(rounds):
    for ns, run in zip(spaces, runs):
        t = time.perf_counter()
        run[0] = eval(expr, ns)
        run[1].append(time.perf_counter() - t)
print(json.dumps(runs))
"""


class Suite(NamedTuple):
    prelude: str  # set-up shared by every job of the suite
    jobs: dict  # name -> (set-up, expression returning its count of units, unit)


def summary(runs, unit: str) -> dict:
    """A job's result from its runs, each (count, seconds per round)."""
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3}[unit.split()[0]]
    best = [round(min(times) / count * scale, 3) for count, times in runs]
    return {"count": runs[-1][0], "median": round(statistics.median(best), 3), "runs": best}


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
# the size-6 chains share one order; a source without its memo of residual
# rows empties two dicts of its own, so that both sides pay for two clears
_COLD = _CHAINS6 + """
order = finite._lattice_order(finite.chain_leq(6))
memo = [getattr(order, key, {}) for key in ("lines", "rows")]
def cold_derivations():
    for s in chains6:
        for table in memo:
            table.clear()
        finite.derive_residuals(s.leq, s.mul_table, s.unit)
    return len(chains6)
"""
# the four properties that the benchmark's `finite` workload checks on each enumerated chain
_PER_MODEL = _CHAINS6 + """
checks = [(s, p) for s in chains6 for p in ("integral", "commutative", "e-cyclic", "LPL")]
[finite.check_named_property(s, p) for s, p in checks]
"""
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
named_texts = [text for src in finite._PROPERTY_SOURCES.values()
               for text in ([src] if isinstance(src, str) else src)]
def parses(n, texts):
    def timed():
        for _ in range(n):
            for text in texts:
                (terms.parse_quasiequation if "=>" in text else terms.parse_equation)(text)
        return n * len(texts)
    return timed
"""


def _random_equations() -> list:
    """The texts of the `finite` workload's 330 random equations (11 library
    models, 30 each), drawn by bench/gen.py from `random.Random(1)`."""
    spec = importlib.util.spec_from_file_location("gen", os.path.join(ROOT, "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(1)
    return [gen.random_equation(rng)[0] for _ in range(330)]


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
            "check_qeq_fails": ("", 'request(["check", "godel3", "x*y = x => y = e", "--json"], 1)',
                                US),
            "residual": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0", "--json"])', US),
            "residual_search": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0", "--json",'
                                    ' "--search", "--bound", "14"])', US),
            "residual_search_eq": ("", 'request(["residual", "s2", "left", "1,2,1", "2,1,0",'
                                       ' "--json", "--search", "--bound=14"])', US),
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
            "derive_residuals_chains6_cold": (_COLD, "cold_derivations()", "us per structure"),
            "derive_residuals_product_x100": (
                "product = models.direct_product(models.heyting5(), models.godel3())",
                "len([finite.derive_residuals(product.leq, product.mul_table, product.unit)"
                " for _ in range(100)])", "us per structure"),
            "validate_axioms_chains6": (
                _CHAINS6, "sum(not finite.validate_axioms(s) for s in chains6)",
                "us per structure"),
            "validate_axioms_prod15": (
                "product = models.direct_product(models.heyting5(), models.godel3())",
                "sum(not finite.validate_axioms(product) for _ in range(100))", "us per structure"),
            "validate_axioms_chain64": (
                "chain64 = finite.heyting_algebra(finite.chain_leq(64))",
                "sum(not finite.validate_axioms(chain64) for _ in range(10))", "us per structure"),
            "json_round_trip_chains6": (
                _CHAINS6,
                "len([finite.structure_from_json(finite.structure_to_json(s)) for s in chains6])",
                "us per structure"),
            "named_properties_x100": (
                _UNIVERSE, "len([finite.check_named_property(s, p)"
                           " for _ in range(100) for s, p in checks])", "us per check"),
            "named_properties_chains6": (
                _PER_MODEL, "len([finite.check_named_property(s, p) for s, p in checks])",
                "us per check"),
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
            "parse_named": ("timed = parses(20, named_texts)", "timed()", "us per parse"),
            "parse_random": (f"timed = parses(3, {_random_equations()!r})", "timed()",
                             "us per parse"),
        }),
}


def run_child(srcs: list, cwd: str, setup: str, expr: str):
    """Per source, in the order of `srcs`: (count of the last round, seconds
    per round), from one child, or None if it took over TIMEOUT_S seconds.
    A child that fails, as a request with an unexpected exit code does,
    shows its traceback and raises."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RESLAT_MAX_SIZE")}
    argv = json.dumps([[os.path.abspath(src) for src in srcs], setup, expr, ROUNDS])
    try:
        done = subprocess.run([sys.executable, "-c", _CHILD, argv], env=env, cwd=cwd,
                              stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout)


def ratios(runs) -> dict:
    """Per-round after/before ratios of time per unit over the runs of two
    sources: their number, median and quartiles, and the rounds after won.
    The quartiles are inclusive, so they lie within the observed ratios."""
    rounds = [(a / after[0]) / (b / before[0]) for before, after in runs
              for b, a in zip(before[1], after[1])]
    q1, median, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
    return {"rounds": len(rounds), "median": round(median, 4),
            "quartiles": [round(q1, 4), round(q3, 4)], "after_won": sum(r < 1 for r in rounds)}


def measure(suite: Suite, srcs: list) -> tuple:
    """One result dict per source, and for two sources the `ratios` of each
    job; the runs take `srcs` in order, odd runs reversed."""
    results, paired = [{} for _ in srcs], {}
    with tempfile.TemporaryDirectory() as cwd:
        for name, (setup, expr, unit) in suite.jobs.items():
            runs = []
            for i in range(REPEAT):
                turn = -1 if i % 2 else 1
                run = run_child(srcs[::turn], cwd, suite.prelude + "\n" + setup, expr)
                if run is None:
                    break
                runs.append(run[::turn])
            for k, result in enumerate(results):
                result[name] = (summary([run[k] for run in runs], unit) if runs
                                else {"timed_out_after_s": TIMEOUT_S})
            if len(srcs) == 2 and runs:
                paired[name] = ratios(runs)
            print(f"{name:30s}", *(result[name] for result in results), paired.get(name, ""),
                  flush=True)
    return results, paired


def pin(src: str) -> dict:
    """The commit of `src`, marked if its tree has changes, and a sha256 over
    the name and bytes of each of its reslat/*.py, in name order."""
    def git(*argv):
        return subprocess.run(["git", "-C", src, *argv], capture_output=True,
                              text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "reslat", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    head = git("rev-parse", "--short", "HEAD")
    if not head:
        print(f"bench_layers: {src} is not inside a git checkout, so its runs are recorded "
              "as source: unknown (only the sha256 names them)", file=sys.stderr)
        head = "unknown"
    return {"source": head + (" (modified)" if git("status", "--porcelain", "--", ".") else ""),
            "sha256": digest.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--src", action="append",
                   help="source directory that holds the reslat package (default: this "
                        "checkout's src); give it twice to time a before/after pair, the "
                        "before one in a git clone of the parent, so that its commit is recorded")
    p.add_argument("--label", action="append", required=True,
                   help="key for the numbers of each --src, given once per --src")
    args = p.parse_args(argv)
    suite = SUITES[args.suite]
    srcs, labels = args.src or [os.path.join(ROOT, "src")], args.label
    if not len(srcs) == len(labels) == len(set(labels)) <= 2 or not all(labels):
        p.error("give one or two --src, each with its own --label NAME")

    out = os.path.join(ROOT, f"BENCH_{args.suite}.json")
    saved = {"runs": {}}
    if os.path.exists(out):
        with open(out) as fh:
            saved = json.load(fh)
    saved["jobs"] = suite.jobs
    date = time.strftime("%Y-%m-%d")
    sources = [pin(src) for src in srcs]
    results, paired = measure(suite, srcs)
    host = {"python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count()}
    for label, source, result in zip(labels, sources, results):
        saved["runs"][label] = {**source, "date": date, "host": host, "repeat": REPEAT,
                                "rounds": ROUNDS, "results": result}
    if len(srcs) == 2:
        saved.setdefault("paired", {})[",".join(labels)] = {"date": date, "results": paired}
    with open(out, "w") as fh:
        json.dump(saved, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
