"""Terms, equations and quasi-equations over the residuated-lattice signature.

The signature is {*, \\, /, ^, v, e}: monoid product, left residual a\\b
(greatest c with a*c <= b), right residual a/b (greatest c with c*b <= a),
meet, join, and the monoid unit.

Concrete syntax (ASCII):

    term  := join
    join  := meet ("v" meet)*
    meet  := resid ("^" resid)*
    resid := prod (("\\" | "/") prod)*
    prod  := atom ("*"? atom)*
    atom  := "e" | ident | "(" term ")"
    ident := [a-z][a-z0-9]*        ("e" and "v" are reserved)

Product binds tightest, then the residuals (equal strength), then meet,
then join, and every operator is left-associative.  One table, `_OPS`,
gives each operator's binding strength to both the parser and the printer.
Equations are written "t = s" (or with the unicode approx sign),
quasi-equations "p1, p2 => c".  `Term` refuses a term deeper than
MAX_DEPTH, and the parser parentheses nested deeper than it.

The parser reads the text as one list of tokens (`_TOKEN`): an identifier,
taken as long as it goes, "=>", or any other single character.  Whitespace,
exactly the characters that str.isspace accepts, only separates tokens, so
"v" alone is the join and "v1" a variable.  A TermSyntaxError's offset
counts characters from the start of the whole text: it is the start of the
token where the problem is found, except for a product deeper than
MAX_DEPTH, which is refused at the end of its right operand.  The tests
hold every offset and message to a character-by-character reference parser.

Exhaustive checks on finite structures compile each law once into nested
loops over the tables it reads (see `_compile`), a function of the
structure that `compile_law` returns, so a sweep checks many structures
on one compile.  `check_equation_sampled` is the interpreted route, which
shares no code with those loops: it decides a law by `eval_term` at given
assignments, on any structure, and `reslat check` re-checks each witness
of a compiled check through it.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ._check import check_instance, check_int

__all__ = [
    "Term",
    "Equation",
    "QuasiEquation",
    "Verdict",
    "HOLDS",
    "TermSyntaxError",
    "EvalError",
    "MAX_DEPTH",
    "var",
    "E",
    "mul",
    "ldiv",
    "rdiv",
    "meet",
    "join",
    "parse_term",
    "parse_equation",
    "parse_quasiequation",
    "eval_term",
    "compile_law",
    "check_equation",
    "check_equation_sampled",
    "gen_Lc",
]


class TermSyntaxError(ValueError):
    """Raised on malformed input; carries the problem's offset, in characters."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    pass


MAX_DEPTH = 100
"""`Term` refuses a term deeper than this with a ValueError (a variable or `e`
has depth 0, `x*y` depth 1), and the parser parentheses nested deeper."""


_OPS = {"v": (0, "join"), "^": (1, "meet"), "\\": (2, "ldiv"), "/": (2, "rdiv"), "*": (3, "mul")}
"""Each binary operator's binding strength (higher binds tighter) and the
name of its table and of its method on a structure."""
_TIGHTEST = max(strength for strength, _ in _OPS.values())
_IDENT = re.compile(r"[a-z][a-z0-9]*")


_TERMS: "weakref.WeakValueDictionary[tuple, Term]" = weakref.WeakValueDictionary()
_TERMS_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class Term:
    """AST node: kind is 'var', 'e', or a binary operator.  Terms are
    interned: building a term equal to a live one returns that object, so
    terms compare and hash by identity, in O(1).  The intern table holds
    terms weakly and keeps none alive."""

    kind: str
    name: str = ""
    left: Optional["Term"] = None
    right: Optional["Term"] = None
    depth: int = field(default=0, init=False, repr=False)

    def __new__(cls, kind: str, name: str = "", left: Optional[Term] = None,
                right: Optional[Term] = None):
        key = (kind, name, left, right)
        try:
            t = _TERMS.get(key)
        except TypeError:  # an unhashable part, refused below
            t = None
        if t is not None:
            return t
        depth = 0
        if kind in ("var", "e"):
            if left is not None or right is not None:
                raise ValueError("leaf node with children")
            if kind == "var" and (not isinstance(name, str) or name in ("e", "v")
                                  or not _IDENT.fullmatch(name)):
                raise ValueError(f"bad variable name {name!r}")  # "e" and "v" are reserved
            if kind == "e" and name != "":
                raise ValueError(f"the unit takes no name, got {name!r}")
        elif isinstance(kind, str) and kind in _OPS:
            if left is None or right is None:
                raise ValueError("binary node needs two children")
            if name != "":
                raise ValueError(f"a binary node takes no name, got {name!r}")
            for child in (left, right):
                if not isinstance(child, Term):
                    raise ValueError(f"a child must be a Term, got {child!r}")
            depth = 1 + max(left.depth, right.depth)
            if depth > MAX_DEPTH:  # the recursive walks over a term stay within the stack
                raise ValueError(f"term deeper than {MAX_DEPTH}")
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        t = super().__new__(cls)
        vars(t).update(kind=kind, name=name, left=left, right=right, depth=depth)
        with _TERMS_LOCK:  # two threads building one term get the same object
            return _TERMS.setdefault(key, t)

    def __reduce__(self):
        # rebuild through the constructor, so a copy or an unpickled term is interned
        return Term, (self.kind, self.name, self.left, self.right)

    def free_vars(self) -> frozenset[str]:
        if self.kind == "var":
            return frozenset((self.name,))
        if self.kind == "e":
            return frozenset()
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self) -> str:
        if self.kind == "var":
            return self.name
        if self.kind == "e":
            return "e"
        strength = _OPS[self.kind][0]
        left, right = str(self.left), str(self.right)
        # parenthesize an operator that binds looser, and on the right one that binds
        # as tight, since every operator is left-associative
        if self.left.kind in _OPS and _OPS[self.left.kind][0] < strength:
            left = "(" + left + ")"
        if self.right.kind in _OPS and _OPS[self.right.kind][0] <= strength:
            right = "(" + right + ")"
        # the lattice operations, which bind looser than the residuals, print spaced
        return left + (self.kind if strength >= _OPS["/"][0] else f" {self.kind} ") + right


def var(name: str) -> Term:
    return Term("var", name=name)


E = Term("e")


def mul(a: Term, b: Term) -> Term:
    return Term("*", left=a, right=b)


def ldiv(a: Term, b: Term) -> Term:
    return Term("\\", left=a, right=b)


def rdiv(a: Term, b: Term) -> Term:
    return Term("/", left=a, right=b)


def meet(a: Term, b: Term) -> Term:
    return Term("^", left=a, right=b)


def join(a: Term, b: Term) -> Term:
    return Term("v", left=a, right=b)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        check_instance(self.lhs, "lhs", Term)
        check_instance(self.rhs, "rhs", Term)

    def free_vars(self) -> frozenset[str]:
        return self.lhs.free_vars() | self.rhs.free_vars()

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class QuasiEquation:
    """Premises given as a list are stored as a tuple, so the law hashes."""

    premises: tuple[Equation, ...]
    conclusion: Equation

    def __post_init__(self):
        if not isinstance(self.premises, (list, tuple)):
            raise ValueError(f"premises must be a list or tuple of Equations, got {self.premises!r}")
        for i, p in enumerate(self.premises):
            check_instance(p, f"premises[{i}]", Equation)
        check_instance(self.conclusion, "conclusion", Equation)
        object.__setattr__(self, "premises", tuple(self.premises))

    def free_vars(self) -> frozenset[str]:
        vs = self.conclusion.free_vars()
        for p in self.premises:
            vs |= p.free_vars()
        return vs

    def __str__(self) -> str:
        if not self.premises:
            return str(self.conclusion)
        return ", ".join(map(str, self.premises)) + " => " + str(self.conclusion)


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(_IDENT.pattern + r"|=>|\S|\Z")  # "" is the end of the text


class _Parser:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ValueError(f"term text must be a string, got {text!r}")
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.i = 0  # the next token
        self.nesting = 0

    def peek(self) -> str:
        return self.tokens[self.i]

    def error(self, msg: str, end: bool = False) -> TermSyntaxError:
        """A syntax error at the next token's start, or with `end` at the last one's end."""
        spans = [m.span() for m in _TOKEN.finditer(self.text)]
        return TermSyntaxError(msg, spans[self.i - 1][1] if end else spans[self.i][0])

    def whole(self, rule: Callable[["_Parser"], object]):
        """What `rule` parses from the text, which it must use up."""
        found = rule(self)
        if self.peek():
            raise self.error(f"unexpected {self.peek()[0]!r}")
        return found

    def equation(self) -> Equation:
        lhs = self.term()
        if self.peek() not in ("=", "≈"):
            raise self.error("expected '='")
        self.i += 1
        return Equation(lhs, self.term())

    def quasiequation(self) -> QuasiEquation:
        if "=>" not in self.text:
            return QuasiEquation((), self.equation())
        premises = []
        while self.peek() != "=>":
            if self.peek() == ",":
                self.i += 1
                continue
            premises.append(self.equation())
            if self.peek() not in (",", "=>"):
                raise self.error("expected ',' or '=>'")
        self.i += 1
        return QuasiEquation(tuple(premises), self.equation())

    def term(self, lowest: int = 0) -> Term:
        """A term whose operators outside parentheses bind at least `lowest`.
        An atom juxtaposed to the term is a product."""
        t = self.atom()
        while True:
            token = self.peek()
            if token in _OPS:
                op = token
            elif token == "(" or token[:1].isalpha():
                op = "*"
            else:
                return t
            strength = _OPS[op][0]
            if strength < lowest:
                return t
            if op == token:
                self.i += 1
            # the right operand binds tighter than op, so op is left-associative; that
            # of the tightest op is an atom, so a depth error points at the atom's end
            right = self.atom() if strength == _TIGHTEST else self.term(strength + 1)
            try:
                t = Term(op, left=t, right=right)
            except ValueError as exc:  # deeper than MAX_DEPTH
                raise self.error(str(exc), end=strength == _TIGHTEST) from None

    def atom(self) -> Term:
        token = self.peek()
        if token == "(":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_DEPTH}")
            self.i += 1
            t = self.term()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.i += 1
            self.nesting -= 1
            return t
        if not _IDENT.fullmatch(token):
            raise self.error("expected a term")
        if token == "v":
            raise self.error("'v' is the join operator, not an identifier")
        self.i += 1
        return E if token == "e" else var(token)


def parse_term(text: str) -> Term:
    """Parse `text` into a Term; a TermSyntaxError gives the problem's offset in `text`."""
    return _Parser(text).whole(_Parser.term)


def parse_equation(text: str) -> Equation:
    return _Parser(text).whole(_Parser.equation)


def parse_quasiequation(text: str) -> QuasiEquation:
    return _Parser(text).whole(_Parser.quasiequation)


# ---------------------------------------------------------------------------
# evaluation and checking


def eval_term(t: Term, a: Mapping[str, object], s) -> object:
    """Evaluate `t` in the algebra `s` under the assignment `a`.

    `s` must provide mul/ldiv/rdiv/meet/join methods and a `unit` attribute.
    """
    if t.kind == "var":
        if t.name not in a:
            raise EvalError(f"unbound variable {t.name!r}")
        return a[t.name]
    if t.kind == "e":
        return s.unit
    x = eval_term(t.left, a, s)
    y = eval_term(t.right, a, s)
    return getattr(s, _OPS[t.kind][1])(x, y)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.holds


HOLDS = Verdict(True)  # every check that holds returns this one: it is frozen, with no witness


_COMPILE_CACHE_SIZE = 512
_MAX_LOOPS = 16  # CPython refuses more than 20 statically nested blocks

Law = Union[Equation, QuasiEquation]


_GENERATED = {  # one globals dict for every compiled law, not one each
    "product": itertools.product, "Verdict": Verdict, "HOLDS": HOLDS,
    "no_tables": lambda s: ValueError(f"cannot check a law exhaustively on a {type(s).__name__}, "
                                      "which has no tables; use check_equation_sampled")}


@functools.lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _compile(law: Law) -> Callable[[object], Verdict]:
    """Compile `law` into nested loops over the tables of a finite structure.

    Returns a function of the structure `s` that reads `s.elements`,
    `s.unit` and only the tables the law indexes (`s.mul_table` for `*`,
    and so on), and raises ValueError when one is missing.  It then runs
    one loop per variable, the variables in sorted name order (variables
    past the _MAX_LOOPS-th share the innermost loop through
    itertools.product, which keeps the order).  Each distinct subterm is
    computed once per assignment of the variables it depends on, at the
    outermost loop where they are all bound.  A premise is tested at that
    level too and skips the inner loops when it fails; the conclusion is
    tested innermost.  The function returns HOLDS when the law holds, else
    a Verdict whose witness maps each variable to its value at the first
    failing assignment.

    From the second loop on, a loop may be memoised.  Loop L's key is the
    set of names bound in loops 1..L-1 that loop L and the loops inside it
    read (a hoisted row counts as the value it indexes; the witness is not
    a read).  When the key has at most two names, and fewer names than
    there are enclosing loops, the code skips loop L for a key it has
    already seen in this call.  This is exact: the inner loops' verdict
    depends only on the key, and a key whose inner loops fail ends the
    check, so a key seen before held throughout, and the first failure is
    still the lexicographically first.  Each such set holds at most n**2
    keys, and lives for one call.  A row hoisted in the loop just outside a
    memoised loop is fetched after the check, so a skipped key fetches none.

    The generated source names `s`, the fetched `elements`, `unit` and
    tables (`mul`, `ldiv`, `rdiv`, `meet`, `join`), the globals in
    _GENERATED, and generated variables: v<i> for the i-th variable, t<j>
    for a subterm, r<j> for a table row hoisted out of inner loops, and k
    and seen<L> for the memo.
    """
    if isinstance(law, QuasiEquation):
        premises, conclusion = law.premises, law.conclusion
    else:
        premises, conclusion = (), law
    names = tuple(sorted(law.free_vars()))
    level = {name: min(i, _MAX_LOOPS - 1) + 1 for i, name in enumerate(names)}
    loops = max(level.values(), default=0)
    body: list[list[str]] = [[] for _ in range(loops + 1)]
    slots: dict[Term, tuple[str, int]] = {}
    rows: dict[str, str] = {}
    tables: set[str] = set()
    reads: list[set[tuple[str, int]]] = [set() for _ in range(loops + 1)]  # of outer values, by level

    def emit(t: Term) -> tuple[str, int]:
        """The expression naming `t`'s value, and the level it is bound at."""
        if t not in slots:
            if t.kind == "var":
                slots[t] = (f"v{names.index(t.name)}", level[t.name])
            elif t.kind == "e":
                slots[t] = ("unit", 0)
            else:
                a, la = emit(t.left)
                b, lb = emit(t.right)
                at = max(la, lb)
                tables.add(_OPS[t.kind][1])
                row = f"{_OPS[t.kind][1]}[{a}]"
                if la < lb:  # hoist the table row out of the loops over b's variables
                    if row not in rows:
                        rows[row] = f"r{len(rows)}"
                        body[la].append(f"{rows[row]} = {row}")
                    row = rows[row]
                    reads[at].add((a, la))
                elif lb < la:
                    reads[at].add((b, lb))
                slot = f"t{len(slots)}"
                body[at].append(f"{slot} = {row}[{b}]")
                slots[t] = (slot, at)
        return slots[t]

    def differs(eq: Equation, at: Optional[int] = None) -> tuple[str, int]:
        """The test that `eq` fails, placed at level `at` (default: where it is bound)."""
        (a, la), (b, lb) = emit(eq.lhs), emit(eq.rhs)
        at = max(la, lb) if at is None else at
        reads[at].update(((a, la), (b, lb)))
        return f"{a} != {b}", at

    for p in premises:
        test, at = differs(p)
        body[at].append(f"if {test}: " + ("continue" if at else "return HOLDS"))
    test, _ = differs(conclusion, loops)
    witness = ", ".join(f"{name!r}: v{i}" for i, name in enumerate(names))
    body[loops].append(f"if {test}: return Verdict(False, {{{witness}}})")

    memo: dict[int, list[str]] = {}
    inner: set[tuple[str, int]] = set()  # the outer values that levels at..loops read
    for at in range(loops, 1, -1):
        inner |= reads[at]
        key = sorted({name for name, bound in inner if 0 < bound < at})
        if len(key) <= 2 and len(key) < at - 1:
            memo[at] = key

    hoisted = {f"{r} = {row}" for row, r in rows.items()}
    lines = ["def law(s):", "    try:", "        elements = s.elements", "        unit = s.unit"]
    lines += [f"        {table} = s.{table}_table" for table in sorted(tables)]
    lines += ["    except AttributeError:", "        raise no_tables(s) from None"]
    lines += [f"    seen{at} = set()" for at in sorted(memo)]
    lines += ["    " + stmt for stmt in body[0]]
    deferred: list[str] = []  # rows of the loop before a memoised one, fetched after its check
    for at in range(1, loops + 1):
        if at in memo:
            lines += ["    " * at + stmt for stmt in (
                f"k = ({''.join(name + ', ' for name in memo[at])})",
                f"if k in seen{at}: continue", f"seen{at}.add(k)", *deferred)]
        bound = [f"v{i}" for i, name in enumerate(names) if level[name] == at]
        source = "elements" if len(bound) == 1 else f"product(elements, repeat={len(bound)})"
        lines.append("    " * at + f"for {', '.join(bound)} in {source}:")
        deferred = [stmt for stmt in body[at] if stmt in hoisted] if at + 1 in memo else []
        lines += ["    " * (at + 1) + stmt for stmt in body[at] if stmt not in deferred]
    lines.append("    return HOLDS")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<law>", "exec"), _GENERATED, namespace)
    return namespace["law"]


def compile_law(law: Law) -> Callable[[object], Verdict]:
    """The exhaustive check of an equation or quasi-equation, compiled once:
    a function of a finite structure (any object with `elements`, `unit`
    and the tables the law indexes) that returns HOLDS or the
    lexicographically-first witness (variables in sorted name order,
    elements in carrier index order), and raises ValueError for a structure
    without tables, such as a rule-given chain.  Raises ValueError for a
    `law` that is neither, before the compile cache is read."""
    check_instance(law, "law", (Equation, QuasiEquation))
    return _compile(law)


def check_equation(law: Law, s) -> Verdict:
    """Exhaustive check of an equation or quasi-equation over a finite
    structure: `compile_law(law)(s)`, with its verdicts and refusals."""
    return compile_law(law)(s)


def check_equation_sampled(law: Law, s, assignments: Iterable[Mapping]) -> Verdict:
    """The interpreted route: decide an equation or quasi-equation by `eval_term`
    in `s`, any structure with a `member` rule, at the given assignments only.
    The first assignment where every premise holds, tested in order, and the
    conclusion's sides differ is the witness (a copy); else HOLDS.  Raises
    ValueError for a `law` that is neither, `assignments` that are not
    iterable, an assignment that is not a Mapping, an `s` without a `member`
    rule, then one without `unit` or an operation, or a value that rule
    refuses; and EvalError when it evaluates a variable left unbound."""
    check_instance(law, "law", (Equation, QuasiEquation))
    premises, conclusion = getattr(law, "premises", ()), getattr(law, "conclusion", law)
    try:
        assignments = iter(assignments)
    except TypeError:
        raise ValueError(f"assignments must be iterable, got {assignments!r}") from None
    member = getattr(s, "member", None)
    if not callable(member):
        raise ValueError(f"s must be a structure with a member rule, got {s!r}")
    for field in ("unit", *(op for _, op in _OPS.values())):
        if not hasattr(s, field):
            raise ValueError(f"s must be a structure with {field}, got {s!r}")

    for i, a in enumerate(assignments):
        check_instance(a, f"assignments[{i}]", Mapping)
        for x, v in a.items():
            if not member(v):
                raise ValueError(f"assignments[{i}][{x!r}] = {v!r} is not an element of {s.name!r}")
        if all(eval_term(p.lhs, a, s) == eval_term(p.rhs, a, s) for p in premises) \
                and eval_term(conclusion.lhs, a, s) != eval_term(conclusion.rhs, a, s):
            return Verdict(False, dict(a))
    return HOLDS


# ---------------------------------------------------------------------------
# Malcev nilpotency laws


def _q(c: int, x: Term, y: Term, zs: Sequence[Term]) -> Term:
    if c == 1:
        return mul(x, y)
    return mul(mul(_q(c - 1, x, y, zs), zs[c - 2]), _q(c - 1, y, x, zs))


MAX_LC_CLASS = 8  # the largest class gen_Lc builds: each side of L_8 has 383 leaves


def gen_Lc(c: int) -> Equation:
    """The nilpotency-class-c law: the recursive commutation terms made equal.

    Uses variables x, y, z1..z(c-1); each side has 2**c + 2**(c-1) - 1 leaves.
    """
    check_int(c, "nilpotency class", 1, MAX_LC_CLASS)
    x, y = var("x"), var("y")
    zs = [var(f"z{i}") for i in range(1, c)]
    return Equation(_q(c, x, y, zs), _q(c, y, x, zs))
