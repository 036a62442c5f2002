import contextlib
import importlib.util
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reslat import battery, cli, finite, models, terms
from reslat.cli import build_parser, main

_spec = importlib.util.spec_from_file_location(
    "golden", pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "godel3", "x ^ y = y ^ x")
    assert code == 0 and "holds" in out


def test_check_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "heyting5", "LPL", "-p")
    assert code == 1
    assert "x=1" in out and "y=2" in out


def test_internal_error_exits_4_with_its_traceback(capsys, monkeypatch):
    def planted(law, s):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(terms, "check_equation", planted)
    code, out, err = run(capsys, "check", "godel3", "x = x")
    assert (code, out) == (4, "")
    first, second, *_, last = err.splitlines()
    assert first == "internal error: ZeroDivisionError: planted"
    assert second == "Traceback (most recent call last):"
    assert "in planted" in err and last == "ZeroDivisionError: planted"


@pytest.mark.parametrize("argv, module, witness", [
    # godel3 is commutative, and its unit 2 is idempotent
    (("godel3", "x ^ y = y ^ x"), terms, {"x": 0, "y": 1}),
    (("godel3", "x = e => x*x = x"), terms, {"x": 2}),
    (("godel3", "x = e => x*x = x"), terms, {"x": 0}),  # the premise fails there
    (("godel3", "integral", "-p"), finite, {"x": 0}),  # both laws hold there
    (("heyting5", "LPL", "-p"), finite, {"x": 1, "y": 1}),
    (("heyting5", "LPL", "-p"), finite, {"z": 0}),  # binds no law's variables
])
def test_a_witness_the_terms_do_not_refute_is_an_internal_error(
        capsys, monkeypatch, argv, module, witness):
    # plant the witness in the function whose verdict `check` reports on each route
    planted = "check_equation" if module is terms else "check_named_property"
    monkeypatch.setattr(module, planted, lambda *args: terms.Verdict(False, witness))
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (4, "")
    assert err.startswith(f"internal error: RuntimeError: {argv[1]} does not fail at the witness")


@pytest.mark.parametrize("witness", [{"x": 7, "y": 1}, {"x": -1, "y": 0}, {"x": True, "y": 0}])
def test_a_witness_outside_the_model_is_an_internal_error(capsys, monkeypatch, witness):
    monkeypatch.setattr(terms, "check_equation", lambda *args: terms.Verdict(False, witness))
    code, out, err = run(capsys, "check", "godel3", "x*y = y*x")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: RuntimeError: x*y = y*x does not fail at the witness")


def test_check_quasiequation(capsys):
    assert run(capsys, "check", "godel3", "x = e => x*x = x") == (
        0, "holds: x = e => x*x = x on godel3\n", "")
    # sugihara3's top t is idempotent and above the unit
    assert run(capsys, "check", "sugihara3", "x*x = x => x ^ e = x") == (
        1, "fails: x*x = x => x ^ e = x on sugihara3 at x=2\n", "")
    code, out, _ = run(capsys, "check", "sugihara3", "x*x = x => x ^ e = x", "--json")
    assert code == 1 and json.loads(out) == {
        "holds": False, "statement": "x*x = x => x ^ e = x", "model": "sugihara3",
        "witness": {"x": 2}}


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "godel3", "x \\")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("equation, offset", [
    ("X = X", 0), ("é = x", 0), ("x = (y", 6), ("x ^ y", 5),
    ("x" + "*x" * 101 + " = x", 203), ("(" * 2000 + "x" + ")" * 2000 + " = x", 100),
])
def test_check_parse_error_is_one_line(capsys, equation, offset):
    code, out, err = run(capsys, "check", "godel3", equation)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(f" at offset {offset}\n")
    assert err.count("\n") == 1


def test_check_unknown_model(capsys):
    code, _, err = run(capsys, "check", "no-such-model", "e = e")
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ('{"leq": [[true]], "unit": 0}', "structure has no 'mul' key"),
    ("[1,2]", "a structure must be a JSON object, got list"),
    ('{"leq": [[1,1],[0,1]], "mul": [[0,0],[0]], "unit": 1}', "mul row 1 must be a list of 2 entries"),
    ('{"leq": [[1,1],[0,1]], "mul": [[0,0],[0,1]], "unit": 7}', "unit 7 is not in range(2)"),
    ('{"leq": [[1,"no"],[0,1]], "mul": [[0,0],[0,1]], "unit": 1}',
     "leq cell (0,1) = 'no' is not 0, 1, true or false"),
    ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"size": 7, "leq": [[1,1],[0,1]], "mul": [[0,0],[0,1]], "unit": 1}',
     "size 7 disagrees with the 2 rows of leq"),
    ('{"name": [1], "leq": [[1,1],[0,1]], "mul": [[0,0],[0,1]], "unit": 1}',
     "name must be a string, got [1]"),
])
def test_check_malformed_structure_file(capsys, tmp_path, text, message):
    path = tmp_path / "s.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path), "x = x")
    assert (code, out, err) == (2, "", f"error: cannot load model {str(path)!r}: {message}\n")


def test_model_size_is_checked_before_the_tables(capsys, tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    # four elements, and an order that is not reflexive
    path.write_text(json.dumps({"leq": [[0] * 4] * 4, "mul": [[0] * 4] * 4, "unit": 0}))
    assert run(capsys, "check", str(path), "x = x") == (
        2, "", f"error: cannot load model {str(path)!r}: order not reflexive at 0\n")
    monkeypatch.setenv("RESLAT_MAX_SIZE", "3")
    assert run(capsys, "check", str(path), "x = x") == (2, "", "error: model exceeds RESLAT_MAX_SIZE\n")
    assert run(capsys, "check", "heyting5", "x = x") == (2, "", "error: model exceeds RESLAT_MAX_SIZE\n")


def test_a_cap_above_the_size_bound_admits_no_larger_structure(capsys, tmp_path, monkeypatch):
    n = finite.MAX_SIZE + 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"leq": [[int(a <= b) for b in range(n)] for a in range(n)],
                                "mul": [[0] * n] * n, "unit": 0}))
    monkeypatch.setenv("RESLAT_MAX_SIZE", "100")
    assert run(capsys, "check", str(path), "x = x") == (
        2, "", f"error: cannot load model {str(path)!r}: leq has {n} rows, above MAX_SIZE=64\n")


def test_check_json_stable(capsys):
    code1, out1, _ = run(capsys, "check", "godel3", "x*y = y*x", "--json")
    code2, out2, _ = run(capsys, "check", "godel3", "x*y = y*x", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--require", "integral")
    assert code == 0 and out.startswith("2 residuated chain")


def test_enumerate_6_json_is_its_golden_record(capsys, monkeypatch):
    monkeypatch.delenv("RESLAT_MAX_SIZE", raising=False)
    code, out, _ = run(capsys, "enumerate", "6", "--json")
    assert code == 0
    assert golden.digest(out) == (golden.GOLDEN / "enumerate-6.json").read_text()


def test_enumerate_cap(capsys, monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    code, _, err = run(capsys, "enumerate", "3")
    assert code == 2 and err == "error: chain size must be an integer in 1..2, got 3\n"


def test_max_size_not_a_positive_integer(capsys, monkeypatch):
    for raw in ("abc", "0", "-1"):
        monkeypatch.setenv("RESLAT_MAX_SIZE", raw)
        code, out, err = run(capsys, "enumerate", "3")
        assert code == 2 and out == ""
        assert err == f"error: RESLAT_MAX_SIZE must be a positive integer, got {raw!r}\n"


def test_enumerate_unknown_property(capsys):
    code, out, err = run(capsys, "enumerate", "3", "--require", "bogus")
    known = ", ".join(finite.PROPERTY_NAMES)
    assert (code, out, err) == (2, "", f"error: unknown property 'bogus'; known: {known}\n")


def test_residual_m1(capsys):
    code, out, _ = run(capsys, "residual", "m1", "right", "y", "x")
    assert code == 0 and out.strip() == "e"
    assert run(capsys, "residual", "m1", "left", "[1, 0]", "[0, 1]") == (0, "x\n", "")


def test_residual_s2_search_agrees(capsys):
    code1, out1, _ = run(capsys, "residual", "s2", "left", "1,0,0", "1,1,0")
    code2, out2, _ = run(capsys, "residual", "s2", "left", "1,0,0", "1,1,0",
                         "--search", "--bound", "8")
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("a, b, bound", [("1,0,0", "1,1,1", "1"), ("0,0,0", "0,40,0", "32")])
def test_residual_s2_search_exhausts_below_the_box_of_the_residual(capsys, a, b, bound):
    # the residuals (0, 2, 0) and (0, 40, 0) lie outside these boxes, above (1, 0, 0)
    assert run(capsys, "residual", "s2", "left", a, b, "--search", "--bound", bound) == (
        3, "", f"exhausted: no residual within bound {bound}\n")


def test_residual_search_without_bound_searches_the_largest_box(capsys):
    # the default bound is omon.SEARCH_BOUND, never one above it
    assert run(capsys, "residual", "s2", "left", "0,0,0", "60,0,0", "--search") == (
        3, "", "exhausted: no residual within bound 32\n")
    assert run(capsys, "residual", "m1", "left", "x15", "x14", "--search") == (0, "e\n", "")


def test_residual_bad_input(capsys):
    code, _, err = run(capsys, "residual", "s2", "left", "1,0", "0,0,0")
    assert code == 2


@pytest.mark.parametrize("extra", [(), ("--search",)])
def test_residual_s2_non_member(capsys, extra):
    code, out, err = run(capsys, "residual", "s2", "left", "1,0,5", "0,0,0", *extra)
    assert code == 2 and out == ""
    assert err == "error: (1, 0, 5) is not in the positive monoid\n"


def test_residual_search_bound_zero(capsys):
    code, out, err = run(capsys, "residual", "m1", "left", "x", "y",
                         "--search", "--bound", "0")
    assert code == 2 and out == ""
    assert err == "error: bound must be an integer in 1..32, got 0\n"


def test_heis_ops(capsys):
    code, out, _ = run(capsys, "heis", "mul", "1,0,0", "0,1,0")
    assert code == 0 and out.strip() == "(1, 1, 0)"
    code, out, _ = run(capsys, "heis", "root", "2,2,1", "-n", "2")
    assert code == 0 and out.strip() == "(1, 1, 0)"
    code, out, _ = run(capsys, "heis", "root", "1,0,0", "-n", "2")
    assert code == 1 and "no root" in out


def test_s2_cmp_and_member(capsys):
    code, out, _ = run(capsys, "s2", "cmp", "1,0,0", "0,1,0")
    assert code == 0 and out.strip() == "<"
    code, out, _ = run(capsys, "s2", "member", "1,2,5")
    assert code == 1 and "not" in out


def test_dyadic(capsys):
    code, out, _ = run(capsys, "dyadic", "conjugate", "(-1,0)", "(0,-2)")
    assert code == 0 and out.strip() == "(-4, 0)"
    code, out, _ = run(capsys, "dyadic", "cmp", "(-1,0)", "(0,-2)")
    assert code == 0 and out.strip() == ">"


@pytest.mark.parametrize("argv, message", [
    (("s2", "cmp", "1,0,0"), "cmp needs a second operand"),
    (("heis", "mul", "1,0,0"), "mul needs a second operand"),
    (("heis", "commutator", "1,0,0"), "commutator needs a second operand"),
    (("dyadic", "mul", "1,1"), "mul needs a second operand"),
    (("dyadic", "conjugate", "1,1"), "conjugate needs a second operand"),
    (("dyadic", "cmp", "1,1"), "cmp needs a second operand"),
    (("ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0"), "--den2 needs --num2"),
    (("heis", "root", "1,0,0", "-n", "0"), "root degree must be an integer >= 1, got 0"),
    (("dyadic", "pow", "1,1", "-n", "100000"),
     "|k*n| = 100000 exceeds the dyadic power bound 10000"),
    (("omon", "s2", "hamvty", "--size", "0"), "truncation must be an integer in 1..5000, got 0"),
    (("omon", "s2", "hamvty", "--size", "5001"),
     "truncation must be an integer in 1..5000, got 5001"),
    (("enumerate", "0"), "chain size must be an integer in 1..6, got 0"),
    (("enumerate", "-1"), "chain size must be an integer in 1..6, got -1"),
    (("ore", "cmp", "1,0,0", "0,0,0", "--den2", "0,1,0", "--num2", "0,0,5", "--witness"),
     "(0, 0, 5) is not in the positive monoid"),
    (("dyadic", "mul", "1,20000", "1,0"), "|n| = 20000 exceeds the dyadic power bound 10000"),
    (("dyadic", "inv", "1,-20000"), "|n| = 20000 exceeds the dyadic power bound 10000"),
    (("dyadic", "inv", "1/0,1"), "Fraction(1, 0)"),
    (("dyadic", "inv", "1e10001,0"), "exponent 10001 exceeds the dyadic power bound 10000"),
    (("residual", "m1", "left", "x", "[null,1]"), "cannot parse monoid word '[null,1]'"),
    (("residual", "m1", "left", "[-1,0]", "x"), "cannot parse monoid word '[-1,0]'"),
    (("residual", "m1", "left", "[-1,0]", "x", "--search"), "cannot parse monoid word '[-1,0]'"),
    (("residual", "m1", "left", "[1.5,0]", "x"), "cannot parse monoid word '[1.5,0]'"),
    (("residual", "m1", "right", "x", "[true,0]"), "cannot parse monoid word '[true,0]'"),
    (("residual", "m1", "right", "x", "[1,2,3]"), "cannot parse monoid word '[1,2,3]'"),
    (("residual", "m1", "left", "x", "y", "--search", "--bound", "33"),
     "bound must be an integer in 1..32, got 33"),
    (("residual", "m1", "left", "x15", "x14", "--search", "--bound", "33"),
     "bound must be an integer in 1..32, got 33"),
    (("residual", "s2", "left", "0,0,0", "60,0,0", "--search", "--bound", "64"),
     "bound must be an integer in 1..32, got 64"),
    (("ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2", "0,1", "--witness"),
     "expected three integers, got '0,1'"),
    (("omon", "s2", "prefix", "--bound", "33"), "bound must be an integer in 1..32, got 33"),
    (("omon", "m1", "prefix", "--bound", "33"), "bound must be an integer in 1..32, got 33"),
    (("omon", "s2", "prefix", "--bound", "0"), "bound must be an integer in 1..32, got 0"),
    (("omon", "m1", "prefix", "--bound", "-5"), "bound must be an integer in 1..32, got -5"),
    (("omon", "s2", "prefix", "--count", "-1"), "count must be an integer >= 0, got -1"),
    (("verify-paper", "--only", "hamiltonian-law", "--samples", "0"),
     "samples must be an integer >= 1, got 0"),
    (("verify-paper", "--samples", "-4"), "samples must be an integer >= 1, got -4"),
    (("heis", "inv", "1,2,3", "junk"), "inv takes one operand"),
    (("s2", "member", "1,1,1", "2,2,2"), "member takes one operand"),
    (("dyadic", "inv", "1,0", "2,0"), "inv takes one operand"),
    (("ore", "sigma", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2", "0,1,0"),
     "sigma takes one operand"),
    (("ore", "value", "1,0,0", "1,1,0", "--den2", "0,0,0"), "value takes one operand"),
    (("ore", "sigma", "1,0,0", "1,1,0", "--num2", "0,1,0"), "sigma takes one operand"),
    (("ore", "cmp", "1,0,0", "1,1,0", "--num2", "0,1,0"), "cmp needs --den2/--num2"),
    (("ore", "sigma", "1,0,0", "1,1,0", "--witness"), "sigma takes no --witness"),
    (("ore", "value", "1,0,0", "1,1,0", "--witness"), "value takes no --witness"),
    (("ore", "sigma", "0,0,1", "1,1,0"), "(0, 0, 1) is not in the positive monoid"),
    (("ore", "value", "1,0,0", "1,1,2"), "(1, 1, 2) is not in the positive monoid"),
    (("residual", "s2", "left", "1,0,0", "1,1,0", "--bound", "99"), "--bound needs --search"),
    (("residual", "m1", "right", "x", "y", "--bound", "8"), "--bound needs --search"),
    (("ore", "cmp", "1,0,0", "1,1,0", "--den2", "2,2,5", "--num2", "0,1,0"),
     "(2, 2, 5) is not in the positive monoid"),
    (("omon", "s2", "hamvty", "--size", "2", "--bound", "99", "--count", "5"),
     "hamvty takes no --count"),
    (("omon", "s2", "hamvty", "--bound", "8"), "hamvty takes no --bound"),
    (("omon", "m1", "prefix", "--size", "99"), "prefix takes no --size"),
    (("heis", "inv", "--", "--"), "'--' cannot be an operand"),
])
def test_missing_or_bad_operand_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


OPERAND = {"heis": "1,0,0", "s2": "1,0,0", "dyadic": "1,1"}  # an element of each command's group


@pytest.mark.parametrize("cmd, op, takes", [
    pytest.param(cmd, op, takes, id=f"{cmd}-{op}")
    for cmd, table in (("heis", cli._HEIS), ("s2", cli._S2), ("dyadic", cli._DYADIC))
    for op, (_, takes) in table.items()
])
def test_each_op_takes_h_exactly_when_its_table_row_says_so(capsys, cmd, op, takes):
    g = OPERAND[cmd]
    if takes == "h":
        argv, message = (cmd, op, g), f"{op} needs a second operand"
    else:
        argv, message = (cmd, op, g, g), f"{op} takes one operand"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_powers_in_closed_form(capsys):
    code, out, _ = run(capsys, "heis", "pow", "1,1,1", "-n", "100000000")
    assert code == 0 and out.strip() == "(100000000, 100000000, 5000000050000000)"
    code, out, _ = run(capsys, "dyadic", "pow", "1,1", "-n", "10000", "--json")
    assert code == 0 and json.loads(out)["result"][1] == 10000


def test_ore_sigma_and_cmp(capsys):
    code, out, _ = run(capsys, "ore", "sigma", "1,0,0", "1,1,0")
    assert code == 0 and out.strip() == "(0, 1, 0)"
    code, out, _ = run(capsys, "ore", "cmp", "1,0,0", "1,1,0",
                       "--den2", "0,0,0", "--num2", "0,1,0", "--witness")
    assert code == 0 and out.strip() == "="


def test_ore_witness_decides_past_any_search_box(capsys):
    # x^-k above y^-k: the least witness pair has exponent k, so a search of
    # bound 8 answered k = 8 and exhausted at k = 9; L_2's pair answers both
    for k in (8, 9, 40):
        assert run(capsys, "ore", "cmp", f"{k},0,0", "0,0,0", "--den2", f"0,{k},0",
                   "--num2", "0,0,0", "--witness") == (0, ">\n", "")


def test_ore_witness_has_no_bound_to_exhaust(capsys):
    # the pair that exhausted a bound-0 search is decided, and no bound is read
    argv = ("ore", "cmp", "1,0,0", "0,0,0", "--den2", "0,1,0", "--num2", "0,0,0", "--witness")
    assert run(capsys, *argv) == (0, ">\n", "")
    code, out, err = run(capsys, *argv, "--bound", "8")
    assert (code, out) == (2, "")
    assert err.startswith("usage: reslat ore ")
    assert err.endswith("error: unrecognized arguments: --bound 8\n")


def test_omon_prefix(capsys):
    code, out, _ = run(capsys, "omon", "m1", "prefix", "--count", "6")
    assert code == 0 and out.strip() == "e > x > y > x2 > xy > y2"


def test_omon_prefix_count_zero(capsys):
    code, out, _ = run(capsys, "omon", "m1", "prefix", "--count", "0")
    assert code == 0 and out.strip() == ""
    code, out, _ = run(capsys, "omon", "m1", "prefix", "--count", "0", "--json")
    assert code == 0 and json.loads(out)["prefix"] == []


def test_omon_hamvty(capsys):
    code, out, _ = run(capsys, "omon", "s2", "hamvty", "--size", "3")
    assert code == 0 and "all_certified=True" in out


def test_verify_paper_single_claim_json(capsys):
    code, out1, _ = run(capsys, "verify-paper", "--only", "nilpotency-laws",
                        "--json", "--samples", "50")
    assert code == 0
    code, out2, _ = run(capsys, "verify-paper", "--only", "nilpotency-laws",
                        "--json", "--samples", "50")
    assert out1 == out2  # byte-stable
    data = json.loads(out1)
    assert data[0]["status"] == "pass"


def test_verify_paper_unknown_claim(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "bogus")
    known = ", ".join(battery.CLAIMS)
    assert (code, out, err) == (2, "", f"error: unknown claim 'bogus'; known: {known}\n")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [("check", "godel3", "x = x", "extra"),
                                  ("omon", "m1", "prefix", "--bogus")])
def test_unrecognized_arguments_name_their_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: reslat {argv[0]} ")
    assert err.endswith(f"reslat {argv[0]}: error: unrecognized arguments: {argv[-1]}\n")


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    assert build_parser() is build_parser()  # built once per process
    build_parser.cache_clear()
    first = run(capsys, "heis", "pow", "1,1,1")  # the default -n 2
    assert first == (0, "(2, 2, 3)\n", "")
    # an argparse usage error that had already read -n 5, then a ValueError
    assert run(capsys, "heis", "-n", "5", "bogus", "1,0,0")[0] == 2
    assert run(capsys, "heis", "pow", "1,1,1") == first
    assert run(capsys, "heis", "root", "1,0,0", "-n", "0")[0] == 2
    assert run(capsys, "heis", "pow", "1,1,1") == first
    # --require appends to a fresh list each time; every 3-chain is
    # commutative, so only an integral filter tells the lists apart
    filtered = json.loads(run(capsys, "enumerate", "3", "--require", "integral", "--json")[1])
    unfiltered = json.loads(run(capsys, "enumerate", "3", "--json")[1])
    assert (len(filtered), len(unfiltered)) == (2, 3)
    for argv in (["--help"], ["check", "--help"]):
        assert run(capsys, *argv) == run(capsys, *argv)
    # RESLAT_MAX_SIZE is read by each request, not by the parser
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    assert run(capsys, "enumerate", "3")[0] == 2
    monkeypatch.delenv("RESLAT_MAX_SIZE")
    assert run(capsys, "enumerate", "3")[0] == 0


# --- fuzz: every request ends in an exit code, never in a traceback ---------

_FAST_CLAIMS = ["nilpotency-laws", "divisibility-failures", "conucleus-battery",
                "dyadic-claims", "hamiltonian-law", "convex-suite"]
_OPERAND = st.one_of(
    st.sampled_from([
        "1,0,0", "0,1,0", "0,0,0", "2,2,1", "(1,1,1)", "1,0,5", "-1,2,3", "(3,-4,5)",
        "1,1", "(-1,0)", "(0,-2)", "1/2,3", "1/3,0", "1/0,1", "-1/0,2", "1,10000", "1,20000",
        "1,-20000", "e", "x", "y", "x2y3", "[1,2]", "[null,1]", "[1e400,1]", "[1,2,3]", "zz",
        "1e99999,0", "2.5e1,0", "", "a,b,c", "1,2,3,4", "--", "-n", "9" * 5000 + ",0,0",
    ]),
    st.text(alphabet="0123456789,-/().exy[] ", max_size=10),
)
_SMALL = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "x"])


def _choice(*values):
    return st.sampled_from(values).map(lambda v: [v])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _mostly(valid, anything):
    """`valid` two times in three, else `anything`: most requests reach a
    computed answer, and `anything` still draws every refusal."""
    return st.sampled_from([valid, valid, anything]).flatmap(lambda part: part)


_UNARY_OR_BINARY = st.one_of(_OPERAND.map(lambda g: [g]), st.tuples(_OPERAND, _OPERAND).map(list))
_EQUATION = st.one_of(
    st.sampled_from(["x*y = y*x", "x\\x = e", "x = e", "x v y = e => x = e", "LPL", "bogus", ""]),
    st.text(alphabet="xyzeXv*\\/^()= ", max_size=12),
)
# well-formed parts: monoid triples (valid for heis, s2 and ore), m1 words,
# dyadic pairs, and equations that hold on some models and fail on others
_TRIPLE = st.sampled_from(["1,0,0", "0,1,0", "0,0,0", "2,2,1", "(1,1,1)", "3,2,5"])
_WORD = st.sampled_from(["e", "x", "y", "x2y3", "[1,2]"])
_PAIR = st.sampled_from(["1,1", "(-1,0)", "(0,-2)", "1/2,3", "3/4,-1"])
_LAW = st.sampled_from(["x*y = y*x", "x\\x = e", "x = e", "x ^ y = y ^ x",
                        "(x\\y ^ e) v (y\\x ^ e) = e", "x*(y v z) = x*y v x*z"])
_POSITIVE = st.sampled_from(["1", "2", "3"])


def _two(values):
    return st.tuples(values, values).map(list)


def _specs(models, bad_models):
    """(subcommand, positional parts, option parts); each part draws a list,
    mostly a well-formed one.  `ore` and `omon` have a spec per group of
    ops, so each option is drawn mostly with the ops that read it."""
    second_fraction = st.tuples(_opt("--den2", _OPERAND), _opt("--num2", _OPERAND)).map(
        lambda parts: sum(parts, []))
    witness = _flag("--witness")
    size = _opt("--size", _mostly(st.sampled_from(["3", "8"]),
                                  st.sampled_from(["-1", "0", "3", "8", "5001"])))
    return [
        ("check", [_mostly(st.sampled_from(models), st.sampled_from(models + bad_models))
                   .map(lambda m: [m]),
                   _mostly(_LAW, _EQUATION).map(lambda q: [q])],
         [_mostly(st.just([]), _flag("-p"))]),
        ("enumerate", [_mostly(_choice("1", "2", "3", "4"),
                               _choice("-3", "-1", "0", "1", "2", "3", "4", "7", "x"))],
         [_opt("--require", _mostly(st.sampled_from(["integral", "commutative"]),
                                    st.sampled_from(["integral", "commutative", "bogus"])))]),
        ("residual", [_mostly(
            st.tuples(_choice("m1"), _choice("left", "right"), _two(_WORD)) | st.tuples(
                _choice("s2"), _choice("left", "right"), _two(_TRIPLE)),
            st.tuples(_choice("m1", "s2", "z3"), _choice("left", "right"), _two(_OPERAND)),
        ).map(lambda parts: sum(parts, []))],
         [_mostly(st.sampled_from([[], ["--search"], ["--search", "--bound", "8"]]),
                  st.sampled_from([[], ["--search", "--bound", "-1"], ["--search", "--bound", "0"],
                                   ["--search", "--bound", "3"], ["--search", "--bound", "8"],
                                   ["--search", "--bound", "33"]]))]),
        ("heis", [_choice("mul", "inv", "pow", "commutator", "root"),
                  _mostly(_two(_TRIPLE), _UNARY_OR_BINARY)],
         [_opt("-n", _mostly(_POSITIVE, _SMALL))]),
        ("s2", [_choice("member", "cmp"), _mostly(_two(_TRIPLE), _UNARY_OR_BINARY)], []),
        ("dyadic", [_choice("mul", "inv", "pow", "conjugate", "cmp"),
                    _mostly(_two(_PAIR), _UNARY_OR_BINARY)],
         [_opt("-n", _mostly(_POSITIVE, _SMALL))]),
        ("ore", [_choice("cmp"), _mostly(_two(_TRIPLE), _two(_OPERAND))],
         [_mostly(_two(_TRIPLE).map(lambda g: ["--den2", g[0], "--num2", g[1]]), second_fraction),
          witness]),
        ("ore", [_choice("sigma", "value"), _mostly(_two(_TRIPLE), _two(_OPERAND))],
         [_mostly(st.just([]), second_fraction), _mostly(st.just([]), witness)]),
        ("omon", [_choice("m1", "s2"), _choice("prefix")],
         [_opt("--count", _mostly(_POSITIVE, _SMALL)), _opt("--bound", _mostly(_POSITIVE, _SMALL)),
          _mostly(st.just([]), size)]),
        ("omon", [_choice("m1", "s2"), _choice("hamvty")],
         [_mostly(st.just([]), _opt("--count", _SMALL)),
          _mostly(st.just([]), _opt("--bound", _SMALL)), size]),
        ("verify-paper", [],
         [_mostly(st.sampled_from(_FAST_CLAIMS), st.sampled_from(_FAST_CLAIMS + ["bogus", ""]))
          .map(lambda c: ["--only", c]),
          _mostly(st.just(["--samples", "5"]), _opt("--samples", st.sampled_from(["-1", "0", "5"])))]),
    ]


@st.composite
def _argv(draw, models, bad_models):
    name, positionals, options = draw(st.sampled_from(_specs(models, bad_models)))
    argv = [name]
    for part in options + [_flag("--json")]:
        argv += draw(part)
    # "--" lets an operand with a leading minus through; with no operands
    # after it, it is a usage error
    if draw(st.booleans() if positionals else _mostly(st.just(False), st.booleans())):
        argv.append("--")
    for part in positionals:
        argv += draw(part)
    return argv


@pytest.fixture(scope="module")
def structure_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("structures")
    texts = {"good": json.dumps(finite.structure_to_json(models.godel3())),
             "no-mul": '{"leq": [[true]], "unit": 0}', "list": "[1,2]",
             "unit7": '{"leq": [[1,1],[0,1]], "mul": [[0,0],[0,1]], "unit": 7}',
             "short-row": '{"leq": [[1,1],[0,1]], "mul": [[0,0],[0]], "unit": 1}',
             "not-json": "{"}
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text)
    return [str(root / f"{name}.json") for name in texts] + [str(root / "missing.json")]


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_every_request_ends_in_an_exit_code(structure_files, data):
    good, *bad = structure_files
    argv = data.draw(_argv(["godel3", "heyting5", good], ["no-such-model"] + bad))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err  # 4 is an internal error
    if err.startswith("usage:"):  # refused by argparse
        assert code == 2 and out == ""
    elif code in (2, 3):
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: " if code == 2 else "exhausted: ")
    else:
        assert err == ""
        assert code == 0 or out  # a failure comes with its witness


# --- the plain-argv parse: argparse's Namespace, or argparse itself ---------

@pytest.mark.parametrize("argv", [[1], ["heis", 1], [["x"]], ["check", "godel3", "x = x", None],
                                  "heis", ("s2", b"cmp")])
def test_an_argv_that_is_not_a_list_of_strings_is_a_usage_error(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: argv must be a list of strings\n")


def _plain(argv):
    return cli._parse_plain(build_parser().commands[argv[0]], argv[1:])


# one argv per shape that argparse alone reads: help, an abbreviation, an
# attached value, a value with a leading "-", an option between operands,
# a second "--" or an empty run after it, a repeated or appended option, too
# few or too many operands, a missing value, an operand with a leading "-"
# before any "--", and a failed conversion or choice
_ARGPARSE_ONLY = [
    ["heis", "--help"], ["check", "-h"],
    ["ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2", "0,1,0", "--wit"],
    ["residual", "s2", "left", "1,2,1", "2,1,0", "--search", "--bound=14"],
    ["heis", "-n3", "pow", "1,1,1"], ["heis", "-n", "-3", "pow", "1,1,1"],
    ["s2", "cmp", "1,2,1", "--json", "2,1,0"], ["heis", "pow", "--json", "1,1,1"],
    ["heis", "--", "pow", "--", "1,1,1"], ["heis", "--", "pow", "1,1,1", "--"],
    ["heis", "pow", "--", "1,1,1"], ["verify-paper", "--"], ["heis", "pow", "1,1,1", "--"],
    ["s2", "cmp", "1,2,1", "2,1,0", "--json", "--json"], ["check", "godel3", "LPL", "-p", "--property"],
    ["enumerate", "3", "--require", "integral"], ["s2", "cmp"], ["s2", "cmp", "1,0,0", "1,0,0", "1,0,0"],
    ["heis", "pow", "1,1,1", "-n"], ["heis", "pow", "-1,0,0"], ["enumerate", "x"],
    ["heis", "-n", "x", "pow", "1,1,1"], ["heis", "bogus", "1,1,1"], ["residual", "z3", "left", "e", "e"],
]
# one argv per request of the layer bench's cli suite
_PLAIN = [
    ["check", "heyting5", "x*(y v z) = x*y v x*z", "--json"],
    ["check", "product.json", "LPL", "-p", "--json"],
    ["check", "godel3", "x*y = x => y = e", "--json"],
    ["residual", "s2", "left", "1,2,1", "2,1,0", "--json"],
    ["residual", "s2", "left", "1,2,1", "2,1,0", "--json", "--search", "--bound", "14"],
    ["heis", "-n", "3", "--json", "--", "pow", "-2,5,7"],
    ["s2", "cmp", "1,2,1", "2,1,0", "--json"],
    ["dyadic", "-n", "3", "--json", "--", "conjugate", "(-1,0)", "(0,-2)"],
    ["ore", "cmp", "1,0,0", "1,1,0", "--den2", "0,0,0", "--num2", "0,1,0", "--witness", "--json"],
    ["omon", "s2", "hamvty", "--size", "6", "--json"],
    ["enumerate", "4", "--json"],
    ["verify-paper", "--only", "divisibility-failures", "--json"],
]


@pytest.mark.parametrize("argv", _ARGPARSE_ONLY)
def test_every_other_argv_is_left_to_argparse(argv):
    assert _plain(argv) is None


@pytest.mark.parametrize("argv", _PLAIN)
def test_each_benchmarked_request_is_plain(argv):
    plain = _plain(argv)
    assert plain is not None and plain == build_parser().commands[argv[0]].parse_args(argv[1:])


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_plain_argv_parses_as_argparse_parses_it(data):
    argv = data.draw(_argv(["godel3", "heyting5"], ["no-such-model"]))
    plain = _plain(argv)
    if plain is not None:  # argparse exits on an argv it refuses, failing the test
        assert plain == build_parser().commands[argv[0]].parse_args(argv[1:])
