"""Run one reslat benchmark workload and print its metrics.

    python3 bench/run.py --workload finite --seed 1 --seconds 40 --trace 0

Workloads: finite, residuals-cli (see workloads.py).  The run
imports reslat from the checkout's own src/ directory.

--trace 0 measures the end-to-end metrics with tracing off.  A run makes a
fixed number of passes over the workload's fixed job list: --seconds over
the workload's nominal mean pass time, rounded, and at least one.  Heavy
jobs (single jobs of seconds) run only in some of them.  The numbers do not
depend on how fast the code is, so the fastest-over-passes statistics
compare like with like between commits.  Between the passes,
and before and after them, set-up is timed in fresh interpreters, and the
median is reported.
--trace 1 runs an untraced, a traced and another untraced pass, then a
probe pass, and reports the per-layer metrics.  Either way every answer is checked against
an independent route after the timed passes, every metric is printed by
name with its unit, the results are written to bench/results/, and the
last line of stdout is one JSON object.  The exit code is 1 when any answer
was wrong or a job raised, 2 on a usage error or when the sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 21  # cold set-ups per timed run, spread over the run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
CLI_KINDS = (
    "check", "check_file", "residual", "residual_search", "heis", "s2",
    "dyadic", "ore", "omon", "enumerate", "verify-paper",
)
PER_LAYER = {
    "terms.check_s": "s",
    "terms.assignments": "count",
    "terms.assignments_L4": "count",
    "terms.assignment_ns": "ns",
    "terms.eval_term_ns": "ns",
    "terms.parse_equation_us": "us",
    "finite.enumerate_s": "s",
    "finite.models_emitted": "count",
    "finite.models_emitted_n6": "count",
    "finite.derive_residuals_chain6_us": "us",
    "finite.derive_residuals_prod15_us": "us",
    "finite.validate_axioms_us": "us",
    "finite.roundtrip_us": "us",
    "models.direct_product_ms": "ms",
    "nilpotent.heis_mul_ns": "ns",
    "nilpotent.s2_cmp_ns": "ns",
    "nilpotent.dyadic_mul_ns": "ns",
    "omon.residual_search_s": "s",
    "omon.candidates_scanned": "count",
    "omon.candidate_ns": "ns",
    "omon.s2_residual_ns": "ns",
    "omon.m1_residual_ns": "ns",
    "ore.frac_cmp_witness_us": "us",
    "ore.verify_conucleus_s": "s",
    "battery.claim_ms": "ms",
    **{f"cli.{kind}_us": "us" for kind in CLI_KINDS},
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("finite", "residuals-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every job list, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up (import reslat, build the inputs) and print its seconds")
    return p.parse_args(argv)


def cold_setup_seconds(args) -> float:
    """Seconds of one set-up in a fresh interpreter (see set_up)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--scale", args.scale, "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def set_up(workload, args, workdir) -> float:
    """Import reslat and build the workload's inputs; returns the seconds."""
    from harness import Lib

    start = perf_counter()
    import reslat  # noqa: F401

    workload.build(Lib(), random.Random(args.seed), args.scale, workdir)
    return perf_counter() - start


def repeats(first, runner) -> tuple:
    """(jobs run, indices of jobs whose answer differs from the first
    pass's) for a later pass; jobs the pass skipped are not counted.  Its
    answers are then dropped, so that memory does not grow with the number
    of passes."""
    n = max(len(first.answers), len(runner.answers))
    skipped = set(runner.skipped)
    differ = [
        i for i in range(n)
        if i not in skipped and (
            i >= len(first.answers) or i >= len(runner.answers) or runner.answers[i] != first.answers[i]
        )
    ]
    runner.answers = runner.args = None
    return n - len(skipped), differ, skipped


def verify(workload, inp, first, later) -> tuple:
    """Check the first pass's answers against the oracles; `later` holds
    repeats() of every later pass.  Returns (attempted, failed, messages)."""
    from harness import Failed

    check = workload.checker(inp)
    verdicts = []
    for kind, args, answer in zip(first.kinds, first.args, first.answers):
        if isinstance(answer, Failed):
            verdicts.append(f"{kind} {args!r:.120}: {answer.error}")
            continue
        try:
            verdicts.append(check(kind, args, answer))
        except Exception as exc:  # a malformed answer is a wrong answer
            verdicts.append(f"{kind}: check raised {type(exc).__name__}: {exc}")
    errors = [v for v in verdicts if v is not None]
    attempted, failed = len(verdicts), len(errors)
    for p, (n, differ, skipped) in enumerate(later, start=1):
        wrong = {i for i, v in enumerate(verdicts) if v is not None and i not in skipped} | set(differ)
        attempted += n
        failed += len(wrong)
        if differ:
            errors.append(f"pass {p}: {len(differ)} answers differ from the first pass's")
    return attempted, failed, errors


def timed_run(workload, args, workdir):
    from harness import CpuPicker, Lib, Runner, percentile

    picker = CpuPicker()
    lib = Lib()
    inp = workload.build(lib, random.Random(args.seed), args.scale, workdir)
    passes = max(1, round(args.seconds / workload.pass_seconds))
    n_setups = 3 if args.scale == "tiny" else SETUP_REPEATS
    # cold set-ups in the passes' gaps, so that their median spans the run
    per_gap = [len(range(g, n_setups, passes + 1)) for g in range(passes + 1)]
    setups = []
    for _ in range(per_gap[0]):
        picker.pick()
        setups.append(cold_setup_seconds(args))
    # each job's fastest time over the passes: interference from the rest of
    # a shared host only ever adds time, and it comes in phases of seconds
    first, later, walls, parts, best = None, [], [], [], None
    for index, gap in enumerate(per_gap[1:]):
        runner = Runner(picker=picker, skip=workload.skip(index), reuse=first)
        start = perf_counter()
        workload.run_pass(runner, lib, inp)
        walls.append(perf_counter() - start)
        parts.append(runner.part_seconds)
        best = runner.seconds if best is None else list(map(min, best, runner.seconds))
        if first is None:
            first = runner
        else:
            later.append(repeats(first, runner))
        for _ in range(gap):
            picker.pick()
            setups.append(cold_setup_seconds(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, errors = verify(workload, inp, first, later)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "job_p50_ms": 1e3 * percentile(best, 0.50),
        "job_p99_ms": 1e3 * percentile(best, 0.99),
        "peak_rss_mb": peak_rss_mb,
    }
    by_list = {}
    for name, jobs in first.part_jobs.items():
        times = best[jobs.start:jobs.stop]
        by_list[name] = {
            "wall_s": sum(times),
            "job_p50_ms": 1e3 * percentile(times, 0.50),
            "job_p99_ms": 1e3 * percentile(times, 0.99),
            "job_samples": len(times),
        }
    extra = {
        "passes": len(walls),
        "heavy_passes": [i for i in range(len(walls)) if not workload.skip(i)],
        "pass_wall_s": walls,
        "part_wall_s": parts,
        "by_list": by_list,
        "job_samples": len(best),
        "heavy_jobs": sum(kind in workload.heavy for kind in first.kinds),
        "setup_s": setups,
    }
    return metrics, END_TO_END, attempted, failed, errors, extra


def traced_run(workload, args, workdir):
    import probes
    from harness import Lib, Runner, Tracer, self_times

    tracer = Tracer()
    traced, plain = Lib(tracer), Lib()
    inp = workload.build(traced, random.Random(args.seed), args.scale, workdir)
    # untraced, traced, untraced: the mean of the two untraced passes is
    # the base of the overhead ratio, which cancels a steady drift in
    # machine speed
    walls, runners = [], []
    for lib in (plain, traced, plain):
        runner = Runner(tracer if lib is traced else None)
        start = perf_counter()
        workload.run_pass(runner, lib, inp)
        walls.append(perf_counter() - start)
        runners.append(runner)
    probes.coverage_jobs(Runner(tracer), traced, args.seed, workdir)
    loops = probes.loop_probes(args.seed, args.scale)
    first = runners[0]
    later = [repeats(first, runner) for runner in runners[1:]]
    attempted, failed, errors = verify(workload, inp, first, later)
    counts = derive_counts(tracer)
    untraced_s = (walls[0] + walls[2]) / 2
    metrics = layer_metrics(tracer, counts, loops, walls[1] / untraced_s)
    extra = {
        "untraced_wall_s": [walls[0], walls[2]],
        "traced_wall_s": walls[1],
        "counts": counts,
        "self_time_s": self_times(tracer.spans),
        "spans": tracer.spans,
    }
    return metrics, PER_LAYER, attempted, failed, errors, extra


def derive_counts(tracer) -> dict:
    """Work counts, derived from the recorded calls' arguments and results."""
    import oracles
    import workloads
    from reslat import terms

    tables = workloads.TableCache()
    l4 = terms.gen_Lc(4)
    assignments = l4_assignments = 0
    for (eq, s), verdict in tracer.calls["terms.check_equation"]:
        k = oracles.assignments_evaluated([oracles.law_from_ast(eq)], verdict.holds, verdict.witness, tables(s))
        assignments += k
        if eq == l4:
            l4_assignments += k
    laws_of = {}
    for (s, name), verdict in tracer.calls["finite.check_named_property"]:
        if name not in laws_of:
            laws_of[name] = workloads.property_laws(name)
        assignments += oracles.assignments_evaluated(laws_of[name], verdict.holds, verdict.witness, tables(s))
    emitted: dict = defaultdict(int)
    for (n, *_), found in tracer.calls["finite.enumerate_chain_models"]:
        emitted[n] += len(found)
    return {
        "terms.assignments": assignments,
        "terms.assignments_L4": l4_assignments,
        "finite.models_emitted": sum(emitted.values()),
        "finite.models_emitted_by_n": dict(sorted(emitted.items())),
        "omon.candidates_scanned": tracer.candidates,
    }


def layer_metrics(tracer, counts, loops, overhead_ratio) -> dict:
    durations = defaultdict(list)
    job_name = {}
    per_job = defaultdict(float)  # job id -> seconds in the JSON round trip
    for i, (name, start, end, parent, job) in enumerate(tracer.spans):
        durations[name].append(end - start)
        if name.startswith("job."):
            job_name[i] = name
        elif name in ("finite.structure_to_json", "finite.structure_from_json"):
            per_job[job] += end - start
    cli_by_kind = defaultdict(list)
    for name, start, end, parent, job in tracer.spans:
        if name == "cli.main":
            cli_by_kind[job_name[parent][len("job.cli."):]].append(end - start)

    def busy(*names):
        return sum(sum(durations[n]) for n in names)

    def median(values):
        return statistics.median(values) if values else 0.0

    check_s = busy("terms.check_equation", "finite.check_named_property")
    search_s = busy("omon.residual_search")
    metrics = {
        "terms.check_s": check_s,
        "terms.assignments": counts["terms.assignments"],
        "terms.assignments_L4": counts["terms.assignments_L4"],
        "terms.assignment_ns": 1e9 * check_s / max(1, counts["terms.assignments"]),
        "terms.parse_equation_us": 1e6 * median(durations["terms.parse_equation"]),
        "finite.enumerate_s": busy("finite.enumerate_chain_models"),
        "finite.models_emitted": counts["finite.models_emitted"],
        "finite.models_emitted_n6": counts["finite.models_emitted_by_n"].get(6, 0),
        "finite.validate_axioms_us": 1e6 * median(durations["finite.validate_axioms"]),
        "finite.roundtrip_us": 1e6 * median(list(per_job.values())),
        "models.direct_product_ms": 1e3 * median(durations["models.direct_product"]),
        "omon.residual_search_s": search_s,
        "omon.candidates_scanned": counts["omon.candidates_scanned"],
        "omon.candidate_ns": 1e9 * search_s / max(1, counts["omon.candidates_scanned"]),
        "ore.frac_cmp_witness_us": 1e6 * median(durations["ore.frac_cmp_witness"]),
        "ore.verify_conucleus_s": busy("ore.verify_conucleus"),
        "battery.claim_ms": 1e3 * median(durations["battery.run_battery"]),
        **{f"cli.{kind}_us": 1e6 * median(cli_by_kind[kind]) for kind in CLI_KINDS},
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics.update(loops)
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reslat" / "__init__.py").is_file():
        print(f"error: reslat sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports no reslat module yet

    workload = WORKLOADS[args.workload]
    workdir = RESULTS / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        seconds = set_up(workload, args, str(workdir))
    import reslat

    if Path(reslat.__file__).resolve().parent != SRC / "reslat":
        print(f"error: reslat was imported from {reslat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(seconds)
        return 0
    run = traced_run if args.trace else timed_run
    metrics, units, attempted, failed, errors, extra = run(workload, args, str(workdir))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, scale {args.scale}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'job samples':36s} {extra['job_samples']:14d} (best of {extra['passes']} passes each; "
              f"heavy jobs run in passes {extra['heavy_passes']})")
        for name, part in extra["by_list"].items():
            print(f"  {name + ' list':36s} wall {part['wall_s']:.6g} s, p50 {part['job_p50_ms']:.6g} ms, "
                  f"p99 {part['job_p99_ms']:.6g} ms over {part['job_samples']} jobs")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} ({failed} of {attempted} jobs)")
    for message in errors[:10]:
        print(f"error: {message}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": errors[:100],
        **extra,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
