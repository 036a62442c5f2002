"""Shared command line and record keeping of the `tools/bench_*.py` scripts.

Each script measures a fixed set of jobs against the reslat sources under
`--src` and stores the numbers under `--label` in its `BENCH_*.json`,
keeping the other labels, so a before/after pair is two calls against two
checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_commit(src: str) -> str:
    def git(*argv):
        return subprocess.run(["git", "-C", src, *argv], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + (" (modified)" if git("status", "--porcelain", "--", ".") else "")


def record(out: str, jobs: dict, doc: str, measure, argv=None, **settings) -> int:
    """Parse `--src` and `--label`, run `measure(src)` and store its results,
    with the host and `settings`, under the label in the JSON file `out`."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="source directory that holds the reslat package")
    p.add_argument("--label", required=True, help="key for these numbers, e.g. before/after")
    args = p.parse_args(argv)

    saved = {"runs": {}}
    if os.path.exists(out):
        with open(out) as fh:
            saved = json.load(fh)
    saved["jobs"] = jobs
    saved["runs"][args.label] = {
        "source": source_commit(args.src),
        "date": time.strftime("%Y-%m-%d"),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        **settings,
        "results": measure(args.src),
    }
    with open(out, "w") as fh:
        json.dump(saved, fh, indent=2)
        fh.write("\n")
    return 0
