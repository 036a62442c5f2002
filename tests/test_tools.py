"""tools/bench_layers.py: one short job of each suite, src/ paired with
itself through the child runner, with the record written under a
temporary root."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

from reslat import battery

REPO = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_layers", REPO / "tools" / "bench_layers.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


FIELDS = {"count", "median", "runs", "first"}  # of every job's result


@pytest.mark.parametrize("suite, job, rounds, value", [
    ("cli", "check_file", 3, {"count": 1}),
    ("enumerate", "tables_n5", 1, {"count": 84}),
    ("triples", "class_call", 1, {"count": 200_000}),
    ("laws", "compile_L4", 1, {"count": 20}),
    ("laws", "parse_named", 1, {"count": 440}),
    ("battery", "divisibility-failures", 1, {"count": 1}),
    ("triples", "verify_conucleus", 1, {"count": 1}),
    ("enumerate", "model_library", 1, {"count": 11}),
])
def test_one_short_job_of_each_suite(tmp_path, monkeypatch, capsys, suite, job, rounds, value):
    short = bench.SUITES[suite]._replace(jobs={job: bench.SUITES[suite].jobs[job]})
    monkeypatch.setitem(bench.SUITES, suite, short)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "REPEAT", 2)
    monkeypatch.setattr(bench, "ROUNDS", rounds)
    out = tmp_path / f"BENCH_{suite}.json"
    out.write_text('{"runs": {"a": {}}}')
    src = str(REPO / "src")
    assert bench.main([suite, "--src", src, "--src", src, "--labels", "b,c"]) == 0
    assert job in capsys.readouterr().out

    saved = json.loads(out.read_text())
    assert saved["runs"]["a"] == {}  # new labels keep the others
    assert list(saved["jobs"]) == [job]
    for label in "bc":
        run = saved["runs"][label]
        assert (run["repeat"], run["rounds"]) == (2, rounds)
        result = run["results"][job]
        assert result.keys() == FIELDS and {k: result[k] for k in value} == value
        for key in ("runs", "first"):
            assert len(result[key]) == 2 and all(t > 0 for t in result[key])
    pairs = saved["paired"]["b,c"]["results"][job]["pairs"]
    assert pairs == [list(p) for p in zip(saved["runs"]["b"]["results"][job]["runs"],
                                          saved["runs"]["c"]["results"][job]["runs"])]


def test_a_request_with_an_unexpected_exit_code_fails_its_job():
    cli = bench.SUITES["cli"]
    wrong = cli.jobs["check_file"][:1] + (cli.jobs["check_file"][1].replace("], 1)", "])"), "us")
    with pytest.raises(subprocess.CalledProcessError):
        bench.measure(cli._replace(jobs={"check_file": wrong}), [str(REPO / "src")])


def test_the_battery_suite_times_every_claim():
    assert list(bench.SUITES["battery"].jobs) == list(battery.CLAIMS)


def test_a_claim_that_does_not_pass_fails_its_job():
    refuted = ("def refuted(cfg):\n    raise battery.ClaimFailed('counterexample')\n"
               "battery.CLAIMS['refuted'] = refuted", "claim('refuted')", "ms per claim")
    with pytest.raises(subprocess.CalledProcessError):
        bench.measure(bench.SUITES["battery"]._replace(jobs={"refuted": refuted}), [str(REPO / "src")])


def test_a_child_over_the_timeout_is_recorded_and_not_repeated(monkeypatch):
    monkeypatch.setattr(bench, "TIMEOUT_S", 0.2)
    children, run_child = [], bench.run_child
    monkeypatch.setattr(bench, "run_child", lambda *args: children.append(args) or run_child(*args))
    slow = bench.Suite("import time", {"sleep": ("", "time.sleep(5)", "ms")})
    assert bench.measure(slow, [str(REPO / "src")]) == [{"sleep": {"timed_out_after_s": 0.2}}]
    assert len(children) == 1


def test_a_child_sees_src_and_no_size_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    monkeypatch.setattr(bench, "ROUNDS", 2)
    value, times = bench.run_child(str(REPO / "src"), str(tmp_path), "import os, reslat",
                                   "[os.environ.get('RESLAT_MAX_SIZE'), reslat.__file__]")
    assert value == [None, str(REPO / "src" / "reslat" / "__init__.py")]
    assert len(times) == 2


def test_two_sources_run_in_turn_and_store_their_pairs(tmp_path, monkeypatch, capsys):
    short = bench.SUITES["laws"]._replace(jobs={"L3": bench.SUITES["laws"].jobs["L3"],
                                                "L4": bench.SUITES["laws"].jobs["L4"]})
    monkeypatch.setitem(bench.SUITES, "laws", short)
    monkeypatch.setattr(bench, "REPEAT", 3)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    children = []

    def child(src, cwd, setup, expr):  # new is faster, but in L4's second run (children 9, 10)
        children.append((expr, src))
        slow = src == old or len(children) in (9, 10)
        return 1, [0.003] + [0.002 if slow else 0.001] * (bench.ROUNDS - 1)

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
        assert run["results"]["L3"].keys() == FIELDS
    assert saved["runs"]["before"]["results"]["L3"] == {
        "count": 1, "median": 2.0, "runs": [2.0] * 3, "first": [3.0] * 3}
    paired = saved["paired"]["before,after"]
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
