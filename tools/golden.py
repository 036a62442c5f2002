"""Check or rewrite the golden record in tests/golden/: what the CLI and the
demos print for fixed input, so that tier-1 fails when an answer moves.

    python tools/golden.py           # name and diff each record that differs, exit 1 if any
    python tools/golden.py --write   # rewrite every record

The records are the stdout of `reslat verify-paper --json` (acceptance
config), of each walkthrough in demos/, and the model count and sha256 of
`reslat enumerate 6 --json`, whose 224 kB are pinned by their digest.  Each
is run from src/ in a fresh interpreter with RESLAT_MAX_SIZE unset.  A
change that rewrites a record says which and why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIFF_LINES = 20  # the most lines of a record's diff that are printed


def digest(text: str) -> str:
    """The record of a long JSON list: its length and the sha256 of its text."""
    return json.dumps({"models": len(json.loads(text)),
                       "sha256": hashlib.sha256(text.encode()).hexdigest()}, indent=2) + "\n"


def stdout(*argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("RESLAT_MAX_SIZE", None)
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def records() -> dict:
    """File name in tests/golden/ -> the text it should hold."""
    out = {"verify-paper.json": stdout("-m", "reslat.cli", "verify-paper", "--json"),
           "enumerate-6.json": digest(stdout("-m", "reslat.cli", "enumerate", "6", "--json"))}
    out.update((f"{demo.stem}.txt", stdout(str(demo))) for demo in DEMOS)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true", help="rewrite every record")
    args = p.parse_args(argv)
    differ = False
    for name, text in records().items():
        path = GOLDEN / name
        if args.write:
            GOLDEN.mkdir(exist_ok=True)
            path.write_text(text)
            continue
        held = path.read_text() if path.exists() else None
        if held != text:
            differ = True
            print(f"differs: tests/golden/{name}")
            diff = difflib.unified_diff((held or "").splitlines(), text.splitlines(),
                                        f"tests/golden/{name}", "now", lineterm="")
            for line in itertools.islice(diff, DIFF_LINES):
                print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
