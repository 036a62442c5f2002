"""tools/bench_layers.py: one short job of each suite, src/ paired with
itself through the child runner, with the record written under a
temporary root; and tools/golden.py's report of a record that moved."""

import hashlib
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
_spec = importlib.util.spec_from_file_location("golden", REPO / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


FIELDS = {"count", "median", "runs"}  # of every job's result


@pytest.mark.parametrize("suite, job, rounds, value", [
    ("cli", "check_file", 3, {"count": 1}),
    ("enumerate", "tables_n5", 1, {"count": 84}),
    ("triples", "class_call", 1, {"count": 200_000}),
    ("laws", "compile_L4", 1, {"count": 20}),
    ("laws", "parse_named", 1, {"count": 440}),
    ("battery", "divisibility-failures", 1, {"count": 1}),
    ("triples", "verify_conucleus", 1, {"count": 1}),
    ("enumerate", "model_library", 1, {"count": 11}),
    ("laws", "parse_random", 1, {"count": 990}),
    ("cli", "check_qeq_fails", 3, {"count": 1}),
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
    assert bench.main([suite, "--src", src, "--label", "b", "--src", src, "--label", "c"]) == 0
    assert job in capsys.readouterr().out

    saved = json.loads(out.read_text())
    assert saved["runs"]["a"] == {}  # new labels keep the others
    assert list(saved["jobs"]) == [job]
    for label in "bc":
        run = saved["runs"][label]
        assert (run["repeat"], run["rounds"]) == (2, rounds)
        result = run["results"][job]
        assert result.keys() == FIELDS and {k: result[k] for k in value} == value
        assert len(result["runs"]) == 2 and all(t > 0 for t in result["runs"])
    paired = saved["paired"]["b,c"]["results"][job]
    assert paired["rounds"] == 2 * rounds and 0 <= paired["after_won"] <= 2 * rounds
    q1, q3 = paired["quartiles"]
    assert 0 < q1 <= paired["median"] <= q3


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
    assert bench.measure(slow, [str(REPO / "src")]) == ([{"sleep": {"timed_out_after_s": 0.2}}], {})
    assert len(children) == 1


def test_a_child_sees_src_and_no_size_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setattr(bench, "ROUNDS", 2)
    [(value, times)] = bench.run_child(
        [str(REPO / "src")], str(tmp_path), "import os, sys, reslat",
        "[os.environ.get(k) for k in ('RESLAT_MAX_SIZE', 'PYTHONPATH')]"
        " + [reslat.__file__, 'reslat' in sys.modules]")
    # the set-up imported src's reslat, and the child then dropped it from sys.modules
    assert value == [None, None, str(REPO / "src" / "reslat" / "__init__.py"), False]
    assert len(times) == 2


def test_each_run_is_one_child_for_both_sources_and_pairs_their_rounds(
        tmp_path, monkeypatch, capsys):
    short = bench.SUITES["laws"]._replace(jobs={"L3": bench.SUITES["laws"].jobs["L3"],
                                                "L4": bench.SUITES["laws"].jobs["L4"]})
    monkeypatch.setitem(bench.SUITES, "laws", short)
    monkeypatch.setattr(bench, "REPEAT", 3)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    children = []

    def child(srcs, cwd, setup, expr):  # new is faster, but in L4's second run (child 5)
        children.append(srcs)
        slow = {old} if len(children) != 5 else {old, new}
        return [[1, [0.003] + [0.002 if src in slow else 0.001] * (bench.ROUNDS - 1)]
                for src in srcs]

    monkeypatch.setattr(bench, "run_child", child)
    out = tmp_path / "BENCH_laws.json"
    out.write_text('{"runs": {"a": {}}}')
    assert bench.main(["laws", "--src", old, "--label", "before",
                       "--src", new, "--label", "after"]) == 0
    assert "L4" in capsys.readouterr().out

    # one child a run takes both sources, the order flipping from run to run
    assert children == [[old, new], [new, old], [old, new]] * 2
    saved = json.loads(out.read_text())
    assert saved["runs"]["a"] == {}
    for label in ("before", "after"):
        run = saved["runs"][label]
        assert run["repeat"] == 3 and run["rounds"] == bench.ROUNDS
        assert run["results"]["L3"].keys() == FIELDS
    assert saved["runs"]["before"]["results"]["L3"] == {
        "count": 1, "median": 2.0, "runs": [2.0] * 3}
    assert saved["runs"]["after"]["results"]["L4"]["runs"] == [1.0, 2.0, 1.0]
    # 21 rounds: L3's read 1.0 in each run's first round and 0.5 in the others;
    # L4's second run reads 1.0 throughout
    assert saved["paired"]["before,after"]["results"] == {
        "L3": {"rounds": 21, "median": 0.5, "quartiles": [0.5, 0.5], "after_won": 18},
        "L4": {"rounds": 21, "median": 0.5, "quartiles": [0.5, 1.0], "after_won": 12}}


def _tree(root: pathlib.Path, job: str) -> str:
    """A source directory whose reslat package exports `job()`, defined in
    a submodule that the package imports relatively."""
    (root / "reslat").mkdir(parents=True)
    (root / "reslat" / "__init__.py").write_text("from .work import job\n")
    (root / "reslat" / "work.py").write_text(f"import time\n\ndef job():\n{job}")
    return str(root)


def test_each_namespace_runs_its_own_tree(tmp_path, monkeypatch):
    slow = _tree(tmp_path / "slow", "    time.sleep(0.002)\n    return 2\n")
    fast = _tree(tmp_path / "fast", "    return 1\n")
    suite = bench.Suite("from reslat import job", {"job": ("", "job()", "ms per call")})
    monkeypatch.setitem(bench.SUITES, "laws", suite)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "REPEAT", 2)
    monkeypatch.setattr(bench, "ROUNDS", 3)
    assert bench.main(["laws", "--src", slow, "--label", "slow",
                       "--src", fast, "--label", "fast"]) == 0

    saved = json.loads((tmp_path / "BENCH_laws.json").read_text())
    # each tree's job counts its own units, and the slowed tree loses every round
    assert [saved["runs"][k]["results"]["job"]["count"] for k in ("slow", "fast")] == [2, 1]
    paired = saved["paired"]["slow,fast"]["results"]["job"]
    assert (paired["rounds"], paired["after_won"]) == (6, 6)
    assert paired["quartiles"][1] < 0.5


def test_the_source_is_pinned_before_the_first_child(tmp_path, monkeypatch):
    src = _tree(tmp_path / "src", "    return 1\n")
    git = ["git", "-C", src, "-c", "user.name=t", "-c", "user.email=t@example.org",
           "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + argv, check=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    work = pathlib.Path(src, "reslat", "work.py")
    digest = hashlib.sha256(b"__init__.py\0" + pathlib.Path(src, "reslat", "__init__.py")
                            .read_bytes() + b"work.py\0" + work.read_bytes()).hexdigest()

    def child(srcs, cwd, setup, expr):  # the tree is edited while the call runs
        work.write_text(work.read_text() + "# edited\n")
        return [[1, [0.001] * bench.ROUNDS]]

    short = bench.SUITES["laws"]._replace(jobs={"L3": bench.SUITES["laws"].jobs["L3"]})
    monkeypatch.setitem(bench.SUITES, "laws", short)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "run_child", child)
    assert bench.main(["laws", "--src", src, "--label", "x"]) == 0

    saved = json.loads((tmp_path / "BENCH_laws.json").read_text())
    run = saved["runs"]["x"]
    assert (run["source"], run["sha256"]) == (head, digest)
    assert run["results"]["L3"].keys() == FIELDS and "paired" not in saved  # one source
    now = bench.pin(src)
    assert now["source"] == f"{head} (modified)" and now["sha256"] != digest


def test_a_source_outside_git_is_named_on_stderr(tmp_path, monkeypatch, capsys):
    src = _tree(tmp_path / "src", "    return 1\n")
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no checkout above it either
    assert bench.pin(src)["source"] == "unknown"
    assert capsys.readouterr().err == (
        f"bench_layers: {src} is not inside a git checkout, so its runs are recorded as "
        "source: unknown (only the sha256 names them)\n")


@pytest.mark.parametrize("argv", [
    ["--src", "a", "--src", "b", "--label", "after"],
    ["--src", "a", "--src", "b"],
    ["--src", "a", "--label", "before", "--label", "after"],
    ["--label", "before", "--label", "after"],
    ["--src", "a", "--label", "x", "--src", "b", "--label", "y", "--src", "c", "--label", "z"],
    ["--src", "a", "--label", "same", "--src", "b", "--label", "same"],
    ["--src", "a", "--label", ""],
    ["--src", "a", "--src", "b", "--labels", "before,after"],
    [],
])
def test_labels_must_match_the_sources(monkeypatch, argv):
    monkeypatch.setattr(bench, "measure", lambda *args: pytest.fail("measured"))
    with pytest.raises(SystemExit) as exc:
        bench.main(["laws", *argv])
    assert exc.value.code == 2


def test_golden_diffs_each_record_that_moved(monkeypatch, capsys):
    held = {p.name: p.read_text() for p in golden.GOLDEN.iterdir()}
    moved = held["nilpotent_group.txt"].replace("yx = (1, 1, 1)", "yx = (1, 1, 2)")
    monkeypatch.setattr(golden, "records", lambda: {**held, "nilpotent_group.txt": moved})
    assert golden.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "differs: tests/golden/nilpotent_group.txt"
    assert "-yx = (1, 1, 1)  (the generators do not commute)" in out
    assert "+yx = (1, 1, 2)  (the generators do not commute)" in out
    assert len(out) <= 1 + golden.DIFF_LINES


def test_golden_caps_the_diff_of_a_record(monkeypatch, capsys):
    held = {p.name: p.read_text() for p in golden.GOLDEN.iterdir()}
    moved = "".join(f"line {i}\n" for i in range(100))
    monkeypatch.setattr(golden, "records", lambda: {**held, "finite_models.txt": moved})
    assert golden.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "differs: tests/golden/finite_models.txt"
    assert len(out) == 1 + golden.DIFF_LINES
