import json

import pytest

from reslat.cli import main


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


def test_check_json_stable(capsys):
    code1, out1, _ = run(capsys, "check", "godel3", "x*y = y*x", "--json")
    code2, out2, _ = run(capsys, "check", "godel3", "x*y = y*x", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--require", "integral")
    assert code == 0 and out.startswith("2 residuated chain")


def test_enumerate_cap(capsys, monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    code, _, err = run(capsys, "enumerate", "3")
    assert code == 2 and "cap" in err


def test_max_size_not_a_positive_integer(capsys, monkeypatch):
    for raw in ("abc", "0"):
        monkeypatch.setenv("RESLAT_MAX_SIZE", raw)
        code, out, err = run(capsys, "enumerate", "3")
        assert code == 2 and out == ""
        assert err == f"error: RESLAT_MAX_SIZE must be a positive integer, got {raw!r}\n"


def test_enumerate_unknown_property(capsys):
    code, _, err = run(capsys, "enumerate", "3", "--require", "bogus")
    assert code == 2


def test_residual_m1(capsys):
    code, out, _ = run(capsys, "residual", "m1", "right", "y", "x")
    assert code == 0 and out.strip() == "e"


def test_residual_s2_search_agrees(capsys):
    code1, out1, _ = run(capsys, "residual", "s2", "left", "1,0,0", "1,1,0")
    code2, out2, _ = run(capsys, "residual", "s2", "left", "1,0,0", "1,1,0",
                         "--search", "--bound", "8")
    assert code1 == code2 == 0 and out1 == out2


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
    assert err == "error: bound must be >= 1\n"


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
    (("heis", "root", "1,0,0", "-n", "0"), "root degree must be >= 1"),
    (("dyadic", "pow", "1,1", "-n", "100000"),
     "|k*n| = 100000 exceeds the dyadic power bound 10000"),
    (("omon", "s2", "hamvty", "--size", "0"), "truncation must be >= 1"),
    (("omon", "s2", "hamvty", "--size", "5001"),
     "|k*n| = 10002 exceeds the dyadic power bound 10000"),
])
def test_missing_or_bad_operand_is_a_usage_error(capsys, argv, message):
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


def test_ore_witness_exhausted(capsys):
    code, _, err = run(capsys, "ore", "cmp", "1,0,0", "0,0,0",
                       "--den2", "0,1,0", "--num2", "0,0,0",
                       "--witness", "--bound", "0")
    assert code == 3 and "exhausted" in err


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
    code, _, err = run(capsys, "verify-paper", "--only", "bogus")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
