"""tools/bench_layers.py: one short job of each suite, run through the child
runner against src/, with the record written under a temporary root."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_layers", REPO / "tools" / "bench_layers.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


# each suite's result fields, and those that hold one number per run
FIELDS = {"cli": ({"exit", "median_ms", "run_medians_ms", "first_ms"},
                  ("run_medians_ms", "first_ms")),
          "enumerate": ({"count", "median_s", "runs_s"}, ("runs_s",)),
          "triples": ({"count", "median", "runs"}, ("runs",))}


@pytest.mark.parametrize("suite, job, reps, value", [
    ("cli", "check_file", 3, {"exit": [1]}),
    ("enumerate", "tables_n5", 1, {"count": 84}),
    ("triples", "triple_build", 1, {"count": 200_000}),
])
def test_one_short_job_of_each_suite(tmp_path, monkeypatch, capsys, suite, job, reps, value):
    short = bench.SUITES[suite]._replace(jobs={job: bench.SUITES[suite].jobs[job]},
                                         reps=reps, repeat=2)
    monkeypatch.setitem(bench.SUITES, suite, short)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    out = tmp_path / f"BENCH_{suite}.json"
    out.write_text('{"runs": {"a": {}}}')
    assert bench.main([suite, "--src", str(REPO / "src"), "--label", "b"]) == 0
    assert job in capsys.readouterr().out

    saved = json.loads(out.read_text())
    assert saved["runs"]["a"] == {}  # a new label keeps the others
    assert list(saved["jobs"]) == [job]
    run = saved["runs"]["b"]
    assert {k: run[k] for k in ["repeat", *short.settings]} == {"repeat": 2, **short.settings}
    result = run["results"][job]
    fields, per_run = FIELDS[suite]
    assert result.keys() == fields
    assert {k: result[k] for k in value} == value
    for key in per_run:
        assert len(result[key]) == 2 and all(t > 0 for t in result[key])


def test_a_child_over_the_timeout_is_recorded_and_not_repeated(monkeypatch):
    monkeypatch.setattr(bench, "TIMEOUT_S", 0.2)
    children, run_child = [], bench.run_child
    monkeypatch.setattr(bench, "run_child", lambda *args: children.append(args) or run_child(*args))
    slow = bench.Suite("import time", {"sleep": ("", "time.sleep(5)")}, 1, 3,
                       bench._enumerate_summary, {})
    assert bench.measure(slow, str(REPO / "src")) == {"sleep": {"timed_out_after_s": 0.2}}
    assert len(children) == 1


def test_a_child_sees_src_and_no_size_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    value, times = bench.run_child(str(REPO / "src"), str(tmp_path), "import os, reslat",
                                   "[os.environ.get('RESLAT_MAX_SIZE'), reslat.__file__]", 2)
    assert value == [None, str(REPO / "src" / "reslat" / "__init__.py")]
    assert len(times) == 2
