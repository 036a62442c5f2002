"""Run the benchmark repeatedly and summarize each metric's spread.

    python3 bench/baseline.py --runs 10 [--workloads finite,residuals-cli] [--trace 0] [--write]

Each run is a fresh `bench/run.py` process with its own seed (seeds
first-seed .. first-seed + runs - 1).  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  For end-to-end metrics it
also shows the bound from BENCHMARK.json and whether the spread is below a
third of it ("ok"), within it, or over it, and how far the median lies from
the one recorded in bench/baseline.json.  --write merges the summary, with
the Python version, nproc, the CPU model and the number of runs, into
bench/baseline.json, the file later performance changes compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode or not done.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        return platform.processor()


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="default: every workload in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    path = BENCH / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    key = "end_to_end" if args.trace == 0 else "per_layer"
    for workload in workloads:
        before = baseline["workloads"].get(workload, {}).get(key, {}).get("metrics", {})
        results = [
            run_once(workload, seed, seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        summary = summarize(results)
        print(f"{workload} (trace {args.trace}, {args.runs} runs of {seconds} s)")
        for name, s in summary.items():
            line = f"  {name:36s} median {s['median']:12.6g} {s['unit']:6s} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.4f}"
            if name in bounds:
                bound = bounds[name]
                verdict = "ok" if s["spread"] < bound / 3 else "within bound" if s["spread"] <= bound else "OVER BOUND"
                line += f"  bound {bound}: {verdict}"
                if name in before:
                    shift = s["median"] / before[name]["median"] - 1
                    line += f"; median {shift:+.3f} vs baseline.json" + (" OVER BOUND" if shift > bound else "")
            print(line, flush=True)
        baseline["workloads"].setdefault(workload, {})[key] = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "runs": args.runs,
            "run_seconds": seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "metrics": summary,
        }
    if args.write:
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
