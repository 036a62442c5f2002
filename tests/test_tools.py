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
          "triples": ({"count", "median", "runs"}, ("runs",)),
          "laws": ({"count", "median", "runs"}, ("runs",))}


@pytest.mark.parametrize("suite, job, reps, value", [
    ("cli", "check_file", 3, {"exit": [1]}),
    ("enumerate", "tables_n5", 1, {"count": 84}),
    ("triples", "triple_build", 1, {"count": 200_000}),
    ("laws", "compile_L4", 1, {"count": 20}),
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
    assert bench.measure(slow, [str(REPO / "src")]) == [{"sleep": {"timed_out_after_s": 0.2}}]
    assert len(children) == 1


def test_a_child_sees_src_and_no_size_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    value, times = bench.run_child(str(REPO / "src"), str(tmp_path), "import os, reslat",
                                   "[os.environ.get('RESLAT_MAX_SIZE'), reslat.__file__]", 2)
    assert value == [None, str(REPO / "src" / "reslat" / "__init__.py")]
    assert len(times) == 2


def test_two_sources_run_in_turn_and_store_their_pairs(tmp_path, monkeypatch, capsys):
    short = bench.SUITES["laws"]._replace(jobs={"L3": bench.SUITES["laws"].jobs["L3"],
                                                "L4": bench.SUITES["laws"].jobs["L4"]},
                                          repeat=3)
    monkeypatch.setitem(bench.SUITES, "laws", short)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    children = []

    def child(src, cwd, setup, expr, reps):  # new is faster, but in L4's second run (children 9, 10)
        children.append((expr, src))
        slow = src == old or len(children) in (9, 10)
        return 1, [0.002 if slow else 0.001] * reps

    monkeypatch.setattr(bench, "run_child", child)
    out = tmp_path / "BENCH_laws.json"
    out.write_text('{"runs": {"a": {}}}')
    assert bench.main(["laws", "--src", old, "--src", new, "--labels", "before,after"]) == 0
    assert "L4" in capsys.readouterr().out

    # each run runs both sources, the order flipping from run to run
    assert [src for _, src in children] == [old, new, new, old, old, new] * 2
    saved = json.loads(out.read_text())
    assert saved["runs"]["a"] == {}
    for label in ("before", "after"):
        run = saved["runs"][label]
        assert run["repeat"] == 3 and run["rounds"] == bench.ROUNDS
        assert run["results"]["L3"].keys() == FIELDS["laws"][0]
    assert saved["runs"]["before"]["results"]["L3"]["runs"] == [2.0] * 3
    paired = saved["paired"]["before,after"]
    assert paired["per_run"] == "runs"
    assert paired["results"] == {
        "L3": {"pairs": [[2.0, 1.0]] * 3, "after_won": 3},
        "L4": {"pairs": [[2.0, 1.0], [2.0, 2.0], [2.0, 1.0]], "after_won": 2}}


@pytest.mark.parametrize("argv", [
    ["--src", "a", "--src", "b", "--label", "after"],
    ["--src", "a", "--src", "b"],
    ["--src", "a", "--labels", "before,after"],
    ["--src", "a", "--src", "b", "--src", "c", "--labels", "x,y,z"],
    ["--src", "a", "--src", "b", "--labels", "before"],
    ["--src", "a", "--src", "b", "--labels", "same,same"],
    ["--src", "a", "--labels", "before"],
    ["--src", "a", "--label", ""],
    [],
])
def test_labels_must_match_the_sources(monkeypatch, argv):
    monkeypatch.setattr(bench, "measure", lambda *args: pytest.fail("measured"))
    with pytest.raises(SystemExit) as exc:
        bench.main(["laws", *argv])
    assert exc.value.code == 2
