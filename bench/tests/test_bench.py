"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from reslat import finite, models, nilpotent, omon, terms  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(capsys, workload):
    names = ("terms.assignments", "omon.candidates_scanned", "finite.models_emitted")
    first = bench(capsys, workload, 1, seed=7)[1]["metrics"]
    second = bench(capsys, workload, 1, seed=7)[1]["metrics"]
    assert [first[n]["value"] for n in names] == [second[n]["value"] for n in names]
    assert all(first[n]["value"] > 0 for n in names)


def test_light_passes_skip_only_the_heavy_jobs(capsys):
    # at 40 s, finite makes 6 passes and runs its heavy jobs in passes 0 and 3
    code = run.main(["--workload", "finite", "--seed", "3", "--seconds", "40", "--trace", "0", "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads((BENCH / "results" / "finite-seed3-trace0.json").read_text())
    assert code == 0 and result["failed"] == 0
    assert (record["passes"], record["heavy_passes"], record["heavy_jobs"]) == (6, [0, 3], 2 + 4)  # L_c; n = 1..4
    assert result["attempted"] == 6 * record["job_samples"] - 4 * record["heavy_jobs"]


def test_assignment_count_of_L4_on_the_product():
    product = models.direct_product(models.heyting5(), models.godel3())
    law = oracles.law_from_ast(terms.gen_Lc(4))
    assert oracles.assignments_evaluated([law], True, None, oracles.Tables.of(product)) == 15 ** 5


def test_assignment_count_of_a_failing_law_is_witness_rank_plus_one():
    s = models.lukasiewicz3()
    law = oracles.law_from_ast(terms.parse_equation("x*x = x"))
    holds, witness, visited = oracles.Tables.of(s).first_witness(law)
    verdict = terms.check_equation(terms.parse_equation("x*x = x"), s)
    assert (verdict.holds, verdict.witness) == (holds, witness) == (False, {"x": 1})
    assert oracles.assignments_evaluated([law], False, witness, oracles.Tables.of(s)) == visited == 2


def test_raw_table_scan_matches_the_enumerator():
    for n in (1, 2, 3):
        found = finite.enumerate_chain_models(n)
        assert [(s.unit, s.mul_table) for s in found] == oracles.raw_chain_models(n)


def test_injected_wrong_verdict_raises_fail_ratio(capsys, monkeypatch):
    real = finite.check_named_property

    def flipped(s, name):
        v = real(s, name)
        return terms.Verdict(True) if name == "LPL" else v

    monkeypatch.setattr(finite, "check_named_property", flipped)
    code, result = bench(capsys, "finite", 0)
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_injected_wrong_residual_raises_fail_ratio(capsys, monkeypatch):
    real = omon.s2_residual

    def shifted(a, b, side="left"):
        r = real(a, b, side)
        return nilpotent.HeisTriple(r.alpha, r.beta + 1, r.gamma)

    monkeypatch.setattr(omon, "s2_residual", shifted)
    code, result = bench(capsys, "residuals-cli", 0)
    assert code == 1 and result["failed"] > 0


def test_refuses_to_run_without_the_sources():
    bare = BENCH / "results" / "bare-checkout"  # BENCHMARK.json and bench/ only
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "finite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
