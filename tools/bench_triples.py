"""Time how the library builds 2-nilpotent triples, and the two brute-force
loops that build most of them, and record the result.

Five jobs, each on fixed inputs:

- `triple_build`: ns per triple as the library builds it on its hot paths
  (`nilpotent._triple` where the sources have it, else the `HeisTriple`
  class), and `class_call`: ns per `HeisTriple(a, b, g)`;
- `heis_mul`: ns per product of two fixed triples;
- `s2_search`: ns per candidate of `omon.residual_search` on `S2Instance` at
  bound 14, over a fixed sample of the (6,6,6) box: every 8th a, both
  sides, and for each (alpha, beta) of b one b with a seeded gamma.  The
  candidate count is taken in a separate, untimed pass;
- `frac_cmp_witness`: us per `ore.frac_cmp_witness` at bound 8, over 100
  pairs of fractions of seeded group elements in [-2, 2]^3.

Each job runs in a fresh interpreter, REPEAT times; a run reports the best
of ROUNDS timed rounds, and the record keeps every run and their median.

    python tools/bench_triples.py --label after
    python tools/bench_triples.py --src OTHER_CHECKOUT/src --label before

Each call stores its numbers under its label in `BENCH_triples.json` at the
repository root and keeps the other labels, so a before/after pair is two
calls against two checkouts.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

from bench_record import ROOT, record

OUT = os.path.join(ROOT, "BENCH_triples.json")
REPEAT = 5
ROUNDS = 7
SEED = 20240826

# runs in the child: set-up, then ROUNDS timed rounds of one job; prints
# the job's count and its best round's time per unit of work
_CHILD = """
import dataclasses, itertools, random, sys, time
from reslat import nilpotent, omon, ore
job, rounds, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(seed)
HeisTriple = nilpotent.HeisTriple
build = getattr(nilpotent, "_triple", HeisTriple)

def best(run, units, scale):
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        run()
        times.append(time.perf_counter() - t)
    return min(times) / units * scale

if job in ("triple_build", "class_call"):
    fn, n = (build if job == "triple_build" else HeisTriple), 200_000
    args = [(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 81)) for _ in range(1000)]
    def run():
        for _ in range(n // 1000):
            for a, b, g in args:
                fn(a, b, g)
    print(n, best(run, n, 1e9))
elif job == "heis_mul":
    g, h, n = HeisTriple(3, -2, 5), HeisTriple(-1, 4, 2), 200_000
    mul = nilpotent.heis_mul
    def run():
        for _ in range(n):
            mul(g, h)
    print(n, best(run, n, 1e9))
elif job == "s2_search":
    box = list(nilpotent.s2_box(6, 6, 6))
    cases = [(a, HeisTriple(al, be, rng.randint(0, min(al * be, 6))), side)
             for a in box[::8] for side in ("left", "right")
             for al, be in itertools.product(range(7), repeat=2)]
    count = 0
    def counted(bound):
        global count
        for c in nilpotent.s2_box(bound):
            count += 1
            yield c
    counting = dataclasses.replace(omon.S2Instance, candidates=counted)
    for a, b, side in cases:
        omon.residual_search(counting, a, b, side, bound=14)
    def run():
        for a, b, side in cases:
            omon.residual_search(omon.S2Instance, a, b, side, bound=14)
    print(count, best(run, count, 1e9))
elif job == "frac_cmp_witness":
    def fraction():
        return ore.OreFraction.from_group(HeisTriple(*(rng.randint(-2, 2) for _ in range(3))))
    pairs = [(fraction(), fraction()) for _ in range(100)]
    def run():
        for f, g in pairs:
            ore.frac_cmp_witness(f, g, 8)
    print(len(pairs), best(run, len(pairs), 1e6))
"""

# job -> the unit of its time
JOBS = {
    "triple_build": "ns per triple",
    "class_call": "ns per HeisTriple(a, b, g)",
    "heis_mul": "ns per product",
    "s2_search": "ns per candidate",
    "frac_cmp_witness": "us per pair",
}


def _run(src: str, job: str) -> tuple[int, float]:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _CHILD, job, str(ROUNDS), str(SEED)], env=env,
                          capture_output=True, text=True, check=True)
    count, per_unit = done.stdout.split()
    return int(count), float(per_unit)


def measure(src: str) -> dict:
    results = {}
    for job in JOBS:
        runs = [_run(src, job) for _ in range(REPEAT)]
        times = [round(t, 3) for _, t in runs]
        results[job] = {"count": runs[0][0], "median": round(statistics.median(times), 3),
                        "runs": times}
        print(f"{job:18s} {results[job]}", flush=True)
    return results


def main(argv=None) -> int:
    return record(OUT, JOBS, __doc__, measure, argv, repeat=REPEAT, rounds=ROUNDS, seed=SEED)


if __name__ == "__main__":
    sys.exit(main())
