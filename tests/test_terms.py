import collections
import copy
import dataclasses
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import weakref

import pytest

import reslat as R
from reslat.terms import HOLDS, MAX_DEPTH, _TERMS, _compile, parse_quasiequation
from reslat import finite, models, terms
from reslat.terms import E, join, ldiv, meet, mul, rdiv, var


def test_parse_precedence():
    # product binds tighter than the divisions, which bind tighter than
    # meet, which binds tighter than join
    t = R.parse_term("x*y \\ z v e")
    assert t == join(ldiv(mul(var("x"), var("y")), var("z")), E)


def test_parse_juxtaposition():
    # identifiers are maximal-munch, so "xy" is one variable; juxtaposed
    # atoms need a separator
    assert R.parse_term("xy") == var("xy")
    assert R.parse_term("x y") == mul(var("x"), var("y"))
    assert R.parse_term("x(y)(z)") == mul(mul(var("x"), var("y")), var("z"))


def test_parse_left_assoc_divisions():
    assert R.parse_term("x\\y/z") == rdiv(ldiv(var("x"), var("y")), var("z"))


def test_v_is_a_variable_prefix():
    # "v" followed by an alphanumeric continues an identifier
    t = R.parse_term("v1 v v2")
    assert t == join(var("v1"), var("v2"))


def test_parse_error_offset():
    with pytest.raises(R.TermSyntaxError) as exc:
        R.parse_term("x\\")
    assert exc.value.offset == 2


def test_parse_error_unbalanced():
    with pytest.raises(R.TermSyntaxError):
        R.parse_term("(x v y")


@pytest.mark.parametrize("text, offset", [
    ("X = X", 0),
    ("é = x", 0),
    ("x = xY", 5),
    ("x = (y", 6),
    ("x ^ y", 5),
    ("x => y = y", 2),
    ("x = y = z", 6),
])
def test_equation_error_offsets_count_from_the_whole_input(text, offset):
    with pytest.raises(R.TermSyntaxError) as exc:
        R.parse_equation(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("x = y, y = (x => x = y", 14),
    ("x = y, z => x = y", 9),
    ("x = y, y = x => x = Y", 20),
    ("x = y z = x => e = e", 8),
    ("x = y => e = e => x = x", 15),
])
def test_quasiequation_error_offsets_count_from_the_whole_input(text, offset):
    with pytest.raises(R.TermSyntaxError) as exc:
        parse_quasiequation(text)
    assert exc.value.offset == offset


def test_quasiequation_syntax():
    q = parse_quasiequation(" , x = y,, y ≈ x , => e = e")
    assert q.premises == (R.parse_equation("x = y"), R.parse_equation("y = x"))
    assert q.conclusion == R.Equation(E, E)
    assert parse_quasiequation("=> x = x") == R.QuasiEquation((), R.parse_equation("x = x"))
    assert parse_quasiequation("x = x").premises == ()


def test_depth_bound():
    x = var("x")
    right_nested = x
    for _ in range(MAX_DEPTH):
        right_nested = mul(x, right_nested)
    # depth MAX_DEPTH parses, prints and checks, written with and without
    # parentheses; one more level is refused where it is crossed
    product = "*".join(["x"] * (MAX_DEPTH + 1))
    for text in (product, str(right_nested), "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH):
        eq = R.parse_equation(f"{text} = x")
        assert R.parse_equation(str(eq)) == eq
        assert R.check_equation(eq, models.godel3()).holds
    assert R.parse_term(product).depth == MAX_DEPTH
    with pytest.raises(R.TermSyntaxError) as exc:
        R.parse_equation(product + "*x = x")
    assert exc.value.offset == len(product) + 2
    with pytest.raises(R.TermSyntaxError) as exc:
        R.parse_equation("x = " + "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
    assert exc.value.offset == 4 + MAX_DEPTH
    with pytest.raises(R.TermSyntaxError) as exc:
        R.parse_term("(" * 2000 + "x" + ")" * 2000)
    assert exc.value.offset == MAX_DEPTH
    with pytest.raises(R.TermSyntaxError):
        R.parse_term("x*(" + str(right_nested) + ")")


def test_a_term_deeper_than_max_depth_is_refused_however_built():
    # so str, free_vars, eval_term and check_equation never recurse past MAX_DEPTH
    x, t = var("x"), var("x")
    with pytest.raises(ValueError, match=f"^term deeper than {MAX_DEPTH}$"):
        for _ in range(3000):
            t = mul(t, x)
    assert t.depth == MAX_DEPTH and R.check_equation(R.Equation(t, x), models.godel3()).holds
    for build in (mul, ldiv, rdiv, meet, join):
        for left, right in ((t, x), (x, t)):
            with pytest.raises(ValueError, match=f"^term deeper than {MAX_DEPTH}$"):
                build(left, right)


def test_e_is_reserved():
    assert R.parse_term("e") == E
    with pytest.raises(R.TermSyntaxError):
        R.parse_term("x = y")  # '=' only allowed in equations
    # a term that would print as the unit or as a join is refused where it is built
    for name in ("e", "v"):
        with pytest.raises(ValueError, match=f"^bad variable name '{name}'$"):
            var(name)
    with pytest.raises(ValueError, match="^the unit takes no name, got 'x'$"):
        terms.Term("e", name="x")


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return E if rng.random() < 0.2 else var(rng.choice("xyzuw"))
    op = rng.choice([mul, ldiv, rdiv, meet, join])
    return op(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def test_round_trip_property():
    rng = random.Random(99)
    for _ in range(500):
        t = _random_term(rng, 5)
        assert R.parse_term(str(t)) == t


def test_parse_equation():
    eq = R.parse_equation("x ^ y = y ^ x")
    assert eq.lhs == meet(var("x"), var("y"))
    assert eq.rhs == meet(var("y"), var("x"))


def test_gen_Lc_shapes():
    l1 = R.gen_Lc(1)
    assert str(l1.lhs) == "x*y" and str(l1.rhs) == "y*x"
    for c in (1, 2, 3):
        lc = R.gen_Lc(c)
        # each side is a product word with 2^c + 2^(c-1) - 1 leaves
        assert lc.lhs.atoms() == 2**c + 2 ** (c - 1) - 1
        assert lc.rhs.atoms() == 2**c + 2 ** (c - 1) - 1
        assert lc.lhs.free_vars() == {"x", "y"} | {f"z{i}" for i in range(1, c)}
    for c in (0, True, 9):
        with pytest.raises(ValueError, match=f"^nilpotency class must be an integer in 1..8, "
                                             f"got {c}$"):
            R.gen_Lc(c)
    assert R.gen_Lc(8).lhs.atoms() == 383


def test_eval_term_on_godel3():
    g3 = models.godel3()
    t = R.parse_term("x \\ y")
    assert R.eval_term(t, {"x": 2, "y": 1}, g3) == 1
    assert R.eval_term(t, {"x": 1, "y": 2}, g3) == 2


def test_check_equation_witness_is_lex_first():
    h5 = models.heyting5()
    lpl = R.PROPERTIES["LPL"][0]
    v = R.check_equation(lpl, h5)
    assert not v.holds
    assert v.witness == {"x": 1, "y": 2}


def test_check_equation_holds():
    g3 = models.godel3()
    v = R.check_equation(R.parse_equation("x*y = y*x"), g3)
    assert v.holds and v.witness is None


def test_check_quasiequation():
    g3 = models.godel3()
    # cancellativity fails on the Goedel chain: 0*0 = 0*1 but 0 != 1
    q = R.QuasiEquation(
        premises=(R.parse_equation("x*y = x*z"),),
        conclusion=R.parse_equation("y = z"),
    )
    v = R.check_equation(q, g3)
    assert not v.holds
    # and the premise really holds at the witness
    w = v.witness
    assert g3.mul(w["x"], w["y"]) == g3.mul(w["x"], w["z"]) and w["y"] != w["z"]


def test_check_equation_sampled():
    g3 = models.godel3()
    eq = R.parse_equation("x*y = y*x")
    v = R.check_equation_sampled(eq, g3, [{"x": 0, "y": 2}, {"x": 1, "y": 1}])
    assert v.holds


def test_a_rule_given_chain_is_refused_by_the_exhaustive_checks():
    refusal = "cannot check a law exhaustively on a Chain, which has no tables; use check_equation_sampled"
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        R.check_equation(R.gen_Lc(2), R.S2Instance)
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        R.check_named_property(R.S2Instance, "LPL")


def test_a_sampled_check_refuses_a_quasi_equation():
    law = finite.PROPERTIES["semilin-qeq"][0]
    with pytest.raises(ValueError, match="^check_equation_sampled takes an Equation, not a QuasiEquation$"):
        R.check_equation_sampled(law, R.S2Instance, [])


# ---------------------------------------------------------------------------
# the parser against the recursive-descent parser it replaced, one method per level


_JOIN_OP = re.compile(r"v(?![a-z0-9])")
_IDENT = re.compile(r"[a-z][a-z0-9]*")


class _ReferenceParser:
    def __init__(self, text):
        if not isinstance(text, str):
            raise ValueError(f"term text must be a string, got {text!r}")
        self.text = text
        self.pos = 0
        self.nesting = 0

    def error(self, msg):
        return R.TermSyntaxError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at(self, token):
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def end(self):
        if self.peek():
            raise self.error(f"unexpected {self.text[self.pos]!r}")

    def node(self, build, left, right):
        if 1 + max(left.depth, right.depth) > MAX_DEPTH:  # Term would refuse it
            raise self.error(f"term deeper than {MAX_DEPTH}")
        return build(left, right)

    def equation(self):
        lhs = self.join_()
        if self.peek() not in ("=", "≈") or self.at("=>"):
            raise self.error("expected '='")
        self.pos += 1
        return R.Equation(lhs, self.join_())

    def quasiequation(self):
        if "=>" not in self.text:
            return R.QuasiEquation((), self.equation())
        premises = []
        while not self.at("=>"):
            if self.at(","):
                self.pos += 1
                continue
            premises.append(self.equation())
            if not (self.at(",") or self.at("=>")):
                raise self.error("expected ',' or '=>'")
        self.pos += 2
        return R.QuasiEquation(tuple(premises), self.equation())

    def join_(self):
        t = self.meet_()
        while self.peek() == "v" and _JOIN_OP.match(self.text, self.pos):
            self.pos += 1
            t = self.node(join, t, self.meet_())
        return t

    def meet_(self):
        t = self.resid_()
        while self.peek() == "^":
            self.pos += 1
            t = self.node(meet, t, self.resid_())
        return t

    def resid_(self):
        t = self.prod_()
        while self.peek() in ("\\", "/"):
            op = self.text[self.pos]
            self.pos += 1
            t = self.node(ldiv if op == "\\" else rdiv, t, self.prod_())
        return t

    def prod_(self):
        t = self.atom_()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
            elif not (c == "(" or (c.isalpha() and not _JOIN_OP.match(self.text, self.pos))):
                return t
            t = self.node(mul, t, self.atom_())

    def atom_(self):
        if self.peek() == "(":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_DEPTH}")
            self.pos += 1
            t = self.join_()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            self.nesting -= 1
            return t
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a term")
        if m.group() == "v":
            raise self.error("'v' is the join operator, not an identifier")
        self.pos = m.end()
        return E if m.group() == "e" else var(m.group())


def _outcome(parse, text):
    """The parsed object, or the refusal: its message and, for a syntax error, offset."""
    try:
        return parse(text)
    except R.TermSyntaxError as exc:
        return "syntax", str(exc), exc.offset
    except ValueError as exc:
        return "value", str(exc)


def _reference_parse(rule):
    def parse(text):
        p = _ReferenceParser(text)
        found = getattr(p, rule)()
        p.end()
        return found
    return parse


_ENTRY_POINTS = [(R.parse_term, _reference_parse("join_")),
                 (R.parse_equation, _reference_parse("equation")),
                 (parse_quasiequation, _reference_parse("quasiequation"))]
_SPACES = ["", " ", " ", "  ", "\t", "\u2003"]
_OP_TEXT = {"*": ["*", " * ", " ", ""], "\\": ["\\"], "/": ["/"], "^": ["^"], "v": ["v"]}
_EDITS = ["*", "\\", "/", "^", "v", "(", ")", "=", "≈", "=>", ",", "\u2003", "x", "y", "e", "1"]


def _written(t, rng):
    """`t` written with random spacing, '*' or juxtaposition, and each compound
    operand in parentheses or not, so that the text may parse to another term."""
    if t.kind in ("var", "e"):
        return str(t)
    op = rng.choice(_OP_TEXT[t.kind])
    if op == t.kind:
        op = rng.choice(_SPACES) + op + rng.choice(_SPACES)
        if t.kind == "v":
            op = " " + op + " "
    sides = [_written(side, rng) for side in (t.left, t.right)]
    sides = [f"({s})" if side.kind not in ("var", "e") and rng.random() < 0.6 else s
             for side, s in zip((t.left, t.right), sides)]
    return sides[0] + op + sides[1]


def _named_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return E if rng.random() < 0.2 else var(rng.choice(["x", "y", "z1", "v1", "ve"]))
    op = rng.choice([mul, ldiv, rdiv, meet, join])
    return op(_named_term(rng, depth - 1), _named_term(rng, depth - 1))


def _edited(text, rng):
    """`text` after one to three edits: a token inserted, a character deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        kind = rng.randrange(3)
        token = rng.choice(_EDITS)
        text = text[:i] + (token if kind != 1 else "") + text[i + (kind != 0):]
    return text


def _depth_edges():
    """Texts at MAX_DEPTH and one past it: chains of each operator, operands
    nested to the right, and nested parentheses."""
    edges = []
    for n in (MAX_DEPTH, MAX_DEPTH + 1):
        for op in ("*", " ", "\\", "/", " ^ ", " v "):
            edges.append(op.join(["x"] * (n + 1)))
            edges.append("x" + "".join(f"{op}(x" for _ in range(n - 1)) + f"{op}x" + ")" * (n - 1))
        edges += [f"x = {edges[-1]} ", "x v x*" + "*".join(["x"] * n) + "  = x", "(" * n + "x" + ")" * n]
    return edges


def test_the_parser_agrees_with_the_recursive_descent_reference():
    rng = random.Random(33)
    laws, texts = [], []  # the laws stay alive, so a text that parses to one builds no term
    for i in range(380):
        depth = 2 + i % 2
        eqs = [R.Equation(_named_term(rng, depth), _named_term(rng, depth)) for _ in range(1 + i % 3)]
        laws.append(R.QuasiEquation(tuple(eqs[:-1]), eqs[-1]) if i % 3 else eqs[0])
        written = [_written(eq.lhs, rng) + rng.choice([" = ", "=", " ≈ ", "≈"]) + _written(eq.rhs, rng)
                   for eq in eqs]
        texts += [", ".join(written[:-1]) + " => " + written[-1] if i % 3 else written[0], str(laws[-1])]
        texts += [] if i % 2 else [_written(eqs[0].lhs, rng)]
    texts += [_edited(rng.choice(texts), rng) for _ in range(2000)]
    texts += _depth_edges() + [None, 12, b"x = x"]
    kinds = collections.Counter()
    for text in texts:
        for parse, reference in _ENTRY_POINTS:
            # terms compare by identity, so equal outcomes are the same interned terms
            expected = _outcome(reference, text)
            assert _outcome(parse, text) == expected, (parse.__name__, text)
            kinds[expected[0] if isinstance(expected, tuple) else type(expected).__name__] += 1
    assert len(texts) == 2983 and min(kinds.values()) >= 9, kinds


# ---------------------------------------------------------------------------
# the compiled checker against a per-assignment eval_term loop


def _reference(law, s):
    """The first failing assignment in lexicographic order, by eval_term."""
    if isinstance(law, R.QuasiEquation):
        premises, conclusion = law.premises, law.conclusion
    else:
        premises, conclusion = (), law
    names = sorted(law.free_vars())
    for values in itertools.product(s.elements, repeat=len(names)):
        a = dict(zip(names, values))
        if all(R.eval_term(p.lhs, a, s) == R.eval_term(p.rhs, a, s) for p in premises):
            if R.eval_term(conclusion.lhs, a, s) != R.eval_term(conclusion.rhs, a, s):
                return R.Verdict(False, a)
    return R.Verdict(True)


def _small_models():
    return models.model_library() + [
        s for n in range(1, 6) for s in finite.enumerate_chain_models(n)
    ]


def test_compiled_agrees_on_named_properties():
    for s in _small_models():
        for laws in R.PROPERTIES.values():
            for law in laws:
                assert R.check_equation(law, s) == _reference(law, s), (s, law)


def test_compiled_agrees_on_random_laws():
    rng = random.Random(2024)
    structures = [models.godel3(), models.lukasiewicz3(), models.diamond4(), models.heyting5()]
    structures += finite.enumerate_chain_models(4)
    closed = 0
    premise_only = 0
    for i in range(400):
        conclusion = R.Equation(_random_term(rng, 3), _random_term(rng, 3))
        premises = tuple(
            R.Equation(_random_term(rng, 2), _random_term(rng, 2))
            for _ in range(rng.choice((0, 0, 1, 2)))
        )
        law = R.QuasiEquation(premises, conclusion) if premises else conclusion
        if i % 10 == 0:  # no variables at all
            law = R.Equation(_closed_term(rng, 3), _closed_term(rng, 3))
        elif i % 10 == 1:  # a variable that only a premise mentions
            law = R.QuasiEquation(
                (R.Equation(var("q"), _random_term(rng, 2)),) + premises, conclusion
            )
        closed += not law.free_vars()
        premise_only += "q" in law.free_vars()
        s = structures[i % len(structures)]
        assert R.check_equation(law, s) == _reference(law, s), (s, law)
    assert closed == 40 and premise_only == 40


def _closed_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return E
    op = rng.choice([mul, ldiv, rdiv, meet, join])
    return op(_closed_term(rng, depth - 1), _closed_term(rng, depth - 1))


def test_closed_premise_and_premise_only_variables():
    s = models.chain2()
    # every closed term evaluates to e, so a closed premise always holds
    v = R.check_equation(parse_quasiequation("e = e ^ (e/e) => x = e"), s)
    assert v == R.Verdict(False, {"x": 0})
    v = R.check_equation(parse_quasiequation("y = e => x = e"), s)
    assert v == R.Verdict(False, {"x": 0, "y": 1})
    assert R.check_equation(parse_quasiequation("x = e => e = e"), s).holds


def test_L4_holds_on_the_15_element_product():
    product = models.direct_product(models.heyting5(), models.godel3())
    assert R.check_equation(R.gen_Lc(4), product).holds


def test_L2_fails_on_a_noncommutative_chain_with_the_reference_witness():
    l2 = R.gen_Lc(2)
    failing = [s for s in finite.enumerate_chain_models(4) if not R.check_equation(l2, s).holds]
    assert failing and {s.name for s in failing} == {"chain4-u2"}
    for s in failing:
        assert R.check_equation(l2, s) == _reference(l2, s)


def test_many_variables_share_the_innermost_loop():
    # more variables than the compiler opens nested loops for
    names = [f"x{i}" for i in range(18)]
    lhs = var(names[0])
    for name in names[1:]:
        lhs = mul(lhs, var(name))
    s = models.chain2()
    assert R.check_equation(R.Equation(lhs, lhs), s).holds
    v = R.check_equation(R.Equation(lhs, var("x9")), s)
    assert v == _reference(R.Equation(lhs, var("x9")), s)


# ---------------------------------------------------------------------------
# memo levels: a loop skipped for an outer key already proven


def _source(law, monkeypatch) -> str:
    """The source that _compile generates for `law`."""
    sources = []
    with monkeypatch.context() as patch:
        patch.setattr(terms, "compile", lambda src, *args: sources.append(src) or compile(src, *args),
                      raising=False)
        _compile.cache_clear()
        _compile(law)
    return sources[0]


def _memo_keys(law, monkeypatch) -> dict[str, tuple[str, ...]]:
    """seen<L> -> the names of loop L's memo key, read from the generated source."""
    found = re.findall(r"k = \((.*)\)\n *if k in (seen\d+): continue", _source(law, monkeypatch))
    return {seen: tuple(name for name in key.split(", ") if name) for key, seen in found}


_SHAPED_OPS = (mul, mul, mul, ldiv, rdiv, meet, join)


def _shaped_pairs(rng, names):
    """L_c-shaped pairs of terms, one pair per variable past the second: like
    q(x, y) and q(y, x), each loop reads the last loop's pair and one new
    variable, through random operations; now and then one side also reads
    an outer variable, which widens the key."""
    x, y, *zs = [var(name) for name in names]
    op = rng.choice(_SHAPED_OPS)
    p, q = op(x, y), (op if rng.random() < 0.7 else rng.choice(_SHAPED_OPS))(y, x)
    pairs = [(p, q)]
    for z in zs:
        o1, o2 = rng.choice(_SHAPED_OPS), rng.choice(_SHAPED_OPS)
        if rng.random() < 0.7:
            p, q = o1(o2(p, z), q), o1(o2(q, z), p)
        else:
            p, q = o1(o2(p, z), q), rng.choice(_SHAPED_OPS)(
                rng.choice(_SHAPED_OPS)(q, z), rng.choice((p, x, y)))
        pairs.append((p, q))
    return pairs


def test_memoised_loops_agree_on_random_laws_of_four_and_five_variables(monkeypatch):
    rng = random.Random(7)
    structures = [s for s in models.model_library() + finite.enumerate_chain_models(3)
                  + finite.enumerate_chain_models(4) if len(s.elements) in (3, 4)]
    laws = 160
    memoised = failing = 0
    for i in range(laws):
        names = ["x", "y", "z1", "z2", "z3"][:4 + i % 2]
        pairs = _shaped_pairs(rng, names)
        premises = ()
        if i % 3 == 0:  # a premise bound one loop out
            premises = (R.Equation(*pairs[-2]),)
        elif i % 3 == 1:  # a premise bound innermost
            z = var(names[-1])
            premises = (R.Equation(rng.choice(_SHAPED_OPS)(pairs[-2][0], z), z),)
        law = R.QuasiEquation(premises, R.Equation(*pairs[-1])) if premises else R.Equation(*pairs[-1])
        memoised += any(name.startswith("seen") for name in _compile(law)[1].__code__.co_varnames)
        assert all(len(key) <= 2 for key in _memo_keys(law, monkeypatch).values()), law
        # five variables on 3 elements, four on 4: 243 or 256 assignments
        sized = [s for s in structures if len(s.elements) == 8 - len(names)]
        s = sized[i % len(sized)]
        verdict = R.check_equation(law, s)
        assert verdict == _reference(law, s), (s, law)
        failing += not verdict.holds
    assert memoised >= laws * 3 // 4
    assert laws // 4 <= failing <= laws * 3 // 4


def test_L2_and_L3_on_every_noncommutative_chain_match_the_reference():
    commutes = R.parse_equation("x*y = y*x")
    chains = [s for n in range(1, 6) for s in finite.enumerate_chain_models(n)
              if not R.check_equation(commutes, s).holds]
    assert len(chains) == 42
    holding = {}
    for c in (2, 3):
        law = R.gen_Lc(c)
        verdicts = [R.check_equation(law, s) for s in chains]
        assert verdicts == [_reference(law, s) for s in chains], c
        holding[c] = sum(v.holds for v in verdicts)
    assert holding == {2: 30, 3: 30}  # so 12 witnesses each are compared too


def test_Lc_keys_have_two_names_and_no_named_property_is_memoised(monkeypatch):
    for c in range(2, 9):
        # L_c opens c + 1 loops; from loop 4 on, a key is the pair
        # q(x, y), q(y, x) of the loop before.  L_2's only candidate,
        # loop 3, has two names under two loops, so it gets none
        keys = _memo_keys(R.gen_Lc(c), monkeypatch)
        assert sorted(keys) == sorted(f"seen{at}" for at in range(4, c + 2)), c
        assert all(len(key) == 2 and all(re.fullmatch(r"t\d+", name) for name in key)
                   for key in keys.values()), (c, keys)
    for name, laws in R.PROPERTIES.items():
        for law in laws:
            assert _memo_keys(law, monkeypatch) == {}, name


def test_rows_for_a_memoised_loop_are_fetched_after_its_check(monkeypatch):
    # in L_4, loop 3 hoists r2 = mul[t6] and r5 = mul[t10] for loop 4 only;
    # a key that loop 4 skips must not fetch them
    for c in range(3, 9):
        lines = _source(R.gen_Lc(c), monkeypatch).splitlines()
        checks = [i for i, line in enumerate(lines) if line.strip().startswith("if k in seen")]
        assert checks, c
        for i in checks:
            block = itertools.takewhile(lambda line: not line.strip().startswith("for "),
                                        reversed(lines[:i]))
            assert not any(re.match(r" *r\d+ = ", line) for line in block), (c, lines[i])
            assert re.match(r" *r\d+ = ", lines[i + 2]), (c, lines[i])


# ---------------------------------------------------------------------------
# interned terms: copies, unpickled terms and reparses compare and hash like the live term


_PICKLE_LAWS = """
import pickle, sys
from reslat import finite, gen_Lc
laws = [law for laws in finite.PROPERTIES.values() for law in laws] + [gen_Lc(3)]
sys.stdout.buffer.write(pickle.dumps(laws))
"""

# prints the position of every loaded law that does not hash like a fresh one
_LOAD_LAWS = """
import pickle, sys
from reslat import finite, gen_Lc
fresh = [law for laws in finite.PROPERTIES.values() for law in laws] + [gen_Lc(3)]
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded == fresh
fresh_set = set(fresh)
print([i for i, (old, new) in enumerate(zip(loaded, fresh))
       if hash(old) != hash(new) or old not in fresh_set])
"""


def _run_python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_a_law_pickled_under_one_hash_seed_hashes_like_a_fresh_parse_under_another():
    pickled = _run_python(_PICKLE_LAWS, seed=1)
    assert _run_python(_LOAD_LAWS, seed=2, stdin=pickled).decode().strip() == "[]"


def test_copies_and_replacements_hash_like_fresh_terms():
    for law in [law for laws in R.PROPERTIES.values() for law in laws] + [R.gen_Lc(3)]:
        copied = copy.deepcopy(law)
        assert copied == law and hash(copied) == hash(law)
    t = R.parse_term("x*(y v z)")
    replaced = dataclasses.replace(t, kind="\\", right=dataclasses.replace(t.right, kind="^"))
    assert replaced == R.parse_term("x\\(y ^ z)")
    assert hash(replaced) == hash(R.parse_term("x\\(y ^ z)"))


def test_every_registered_property_hashes_like_its_reparsed_source():
    for name, src in finite._PROPERTY_SOURCES.items():
        texts = [src] if isinstance(src, str) else src
        for text, law in zip(texts, R.PROPERTIES[name], strict=True):
            parse = parse_quasiequation if "=>" in text else R.parse_equation
            for again in (parse(text), parse(str(law))):
                assert again is not law
                assert again == law and hash(again) == hash(law), (name, text)


def test_equal_terms_built_apart_are_one_object():
    first, second = R.gen_Lc(4), R.gen_Lc(4)
    assert first is not second  # an Equation is not interned, its sides are
    assert first.lhs is second.lhs and first.rhs is second.rhs
    src = finite._PROPERTY_SOURCES["hamilt-eq"]
    one, two = R.parse_equation(src), R.parse_equation(src)
    assert one.lhs is two.lhs and one.rhs is two.rhs
    assert one.lhs is R.PROPERTIES["hamilt-eq"][0].lhs
    assert copy.deepcopy(one.lhs) is one.lhs
    assert R.parse_term("x*y") is not R.parse_term("y*x")


def test_the_intern_table_keeps_no_term_alive():
    t = R.parse_term("fresh1 * (fresh2 v fresh3)")
    dead = weakref.ref(t)
    assert (t.kind, t.name, t.left, t.right) in _TERMS
    del t
    gc.collect()
    assert dead() is None
    assert not any(key[1].startswith("fresh") for key in list(_TERMS.keys()))


def test_an_equal_law_parsed_again_hits_the_compile_cache():
    h5 = models.heyting5()
    first = R.check_equation(R.PROPERTIES["LPL"][0], h5)
    before = _compile.cache_info()
    again = R.check_equation(R.parse_equation(finite._PROPERTY_SOURCES["LPL"]), h5)
    after = _compile.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert again == first and again.witness == {"x": 1, "y": 2}


def test_a_holding_check_returns_the_shared_verdict_and_a_failing_one_its_own_witness():
    g3, h5 = models.godel3(), models.heyting5()
    commutative = R.parse_equation("x*y = y*x")
    assert R.check_equation(commutative, g3) is HOLDS
    assert R.check_equation_sampled(commutative, g3, [{"x": 0, "y": 2}]) is HOLDS
    assert R.check_named_property(g3, "LPL") is HOLDS
    assert R.is_hamiltonian_structure(g3) is HOLDS
    assert HOLDS == R.Verdict(True) and HOLDS.witness is None
    lpl = R.PROPERTIES["LPL"][0]
    first = R.check_equation(lpl, h5)
    first.witness["x"] = 4
    assert R.check_equation(lpl, h5).witness == {"x": 1, "y": 2}
    assert R.check_named_property(h5, "LPL").witness == {"x": 1, "y": 2}
