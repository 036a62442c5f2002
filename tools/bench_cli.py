"""Time in-process command-line requests, one fixed argv per request kind.

The eleven kinds are those of the benchmark's `cli` job list.  Each kind
runs in a fresh interpreter, REPEAT times; each run calls
`reslat.cli.main(argv)` CALLS times with stdout and stderr captured and
times every call.  The first call of a run is reported apart (`first_ms`),
since it also pays for whatever the process sets up once; `median_ms` is
the median of the other calls over all runs.

    python tools/bench_cli.py --label after
    python tools/bench_cli.py --src OTHER_CHECKOUT/src --label before

Each call stores its numbers under its label in `BENCH_cli.json` at the
repository root and keeps the other labels, so a before/after pair is two
calls against two checkouts.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile

from bench_record import ROOT, record

OUT = os.path.join(ROOT, "BENCH_cli.json")
REPEAT = 3
CALLS = 200
PRODUCT = "{product}"  # stands for a structure file holding heyting5 x godel3

KINDS = {
    "check": ["check", "heyting5", "x*(y v z) = x*y v x*z", "--json"],
    "check_file": ["check", PRODUCT, "LPL", "-p", "--json"],
    "residual": ["residual", "s2", "left", "1,2,1", "2,1,0", "--json"],
    "residual_search": ["residual", "s2", "left", "1,2,1", "2,1,0", "--json",
                        "--search", "--bound", "14"],
    "heis": ["heis", "-n", "3", "--json", "--", "pow", "-2,5,7"],
    "s2": ["s2", "cmp", "1,2,1", "2,1,0", "--json"],
    "dyadic": ["dyadic", "-n", "3", "--json", "--", "conjugate", "(-1,0)", "(0,-2)"],
    "ore": ["ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2", "0,1,0",
            "--witness", "--json"],
    "omon": ["omon", "s2", "hamvty", "--size", "6", "--json"],
    "enumerate": ["enumerate", "4", "--json"],
    "verify-paper": ["verify-paper", "--only", "divisibility-failures", "--json"],
}

_WRITE_PRODUCT = """
import json, sys
from reslat import finite, models
product = models.direct_product(models.heyting5(), models.godel3())
with open(sys.argv[1], "w") as fh:
    json.dump(finite.structure_to_json(product), fh)
"""

# runs in the child: CALLS timed requests; prints the last exit code and the times
_CHILD = """
import contextlib, io, json, sys, time
from reslat.cli import main
argv, calls = json.loads(sys.argv[1]), int(sys.argv[2])
times = []
for _ in range(calls):
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    times.append(time.perf_counter() - t)
print(code, json.dumps(times))
"""


def _python(src: str, script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("RESLAT_MAX_SIZE", None)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 4)


def measure(src: str) -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        product = os.path.join(tmp, "heyting5xgodel3.json")
        _python(src, _WRITE_PRODUCT, product)
        for kind, argv in KINDS.items():
            argv = [product if a == PRODUCT else a for a in argv]
            firsts, rest, medians, codes = [], [], [], set()
            for _ in range(REPEAT):
                code, times = _python(src, _CHILD, json.dumps(argv), str(CALLS)).split(" ", 1)
                times = json.loads(times)
                codes.add(int(code))
                firsts.append(times[0])
                rest += times[1:]
                medians.append(_ms(statistics.median(times[1:])))
            results[kind] = {"exit": sorted(codes), "median_ms": _ms(statistics.median(rest)),
                             "run_medians_ms": medians, "first_ms": [_ms(t) for t in firsts]}
            print(f"{kind:16s} {results[kind]}", flush=True)
    return results


def main(argv=None) -> int:
    return record(OUT, KINDS, __doc__, measure, argv, repeat=REPEAT, calls=CALLS)


if __name__ == "__main__":
    sys.exit(main())
