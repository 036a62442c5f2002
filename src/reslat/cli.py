"""Command line front door.

Exit codes: 0 the checked statement holds (or the command succeeded),
1 it fails and a witness was printed, 2 usage or parse error,
3 a residual search exhausted its bound, 4 an internal error (a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain

from . import battery, finite, models, nilpotent, omon, ore, terms
from ._check import check_int

__all__ = ["main"]

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4

_REL = {-1: "<", 0: "=", 1: ">"}  # a comparison result as printed


def _json(payload) -> str:
    """The `--json` text of every command: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, as_json: bool, text: str) -> None:
    print(_json(payload) if as_json else text)


def _max_size(default: int) -> int:
    """The size cap set by the RESLAT_MAX_SIZE environment variable, or
    `default` when it is unset.  No other module reads the environment: the
    CLI passes each cap on as an argument."""
    raw = os.environ.get("RESLAT_MAX_SIZE")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"RESLAT_MAX_SIZE must be a positive integer, got {raw!r}")
    return cap


def _load_model(spec: str) -> finite.FiniteResLat:
    cap = _max_size(finite.MAX_SIZE)
    if spec in models.MODEL_BUILDERS:
        s = models.MODEL_BUILDERS[spec]()
        if s.n <= cap:
            return s
    else:
        try:
            return finite.load_structure(spec, max_n=cap)
        except finite.ModelTooLarge:
            pass
    raise ValueError("model exceeds RESLAT_MAX_SIZE")


def cmd_check(args) -> int:
    s = _load_model(args.model)
    if args.property:
        v = finite.check_named_property(s, args.equation)
        label, laws = args.equation, finite.PROPERTIES[args.equation]
    else:
        law = terms.parse_quasiequation(args.equation)
        v = terms.check_equation(law, s)
        label, laws = str(law), [law]
    if v.holds:
        _emit({"holds": True, "statement": label, "model": args.model}, args.json,
              f"holds: {label} on {args.model}")
        return EXIT_HOLDS
    def refutes(law) -> bool:  # by the route that did not find the witness
        try:
            return not terms.check_equation_sampled(law, s, [v.witness])
        except ValueError:  # a variable of this law unbound, or a value not in s
            return False

    if not any(map(refutes, laws)):
        raise RuntimeError(f"{label} does not fail at the witness {v.witness}")
    at = ", ".join(f"{x}={v.witness[x]}" for x in sorted(v.witness))
    _emit({"holds": False, "statement": label, "model": args.model, "witness": v.witness},
          args.json, f"fails: {label} on {args.model} at {at}")
    return EXIT_FAILS


def cmd_enumerate(args) -> int:
    found = finite.enumerate_chain_models(args.size, constraints=args.require or (),
                                          cap=_max_size(finite.DEFAULT_ENUM_CAP))
    if args.json:
        print(_json([finite.structure_to_json(s) for s in found]))
    else:
        print(f"{len(found)} residuated chain(s) of size {args.size}")
        for i, s in enumerate(found):
            print(f"[{i}] unit={s.unit} mul={s.mul_table}")
    return EXIT_HOLDS


def _fields(src: str, count: int, expected: str) -> list[str]:
    """The `count` comma- or space-separated fields of `src`, ignoring parentheses."""
    parts = src.replace("(", " ").replace(")", " ").replace(",", " ").split()
    if len(parts) != count:
        raise ValueError(f"expected {expected}, got {src!r}")
    return parts


def _parse_triple(src: str) -> nilpotent.HeisTriple:
    return nilpotent.HeisTriple(*(int(p) for p in _fields(src, 3, "three integers")))


def _parse_dyadic(src: str) -> nilpotent.DyadicPair:
    r, n = _fields(src, 2, "(r, n)")
    g = nilpotent.DyadicPair(nilpotent.parse_fraction(r), int(n))
    if abs(g.n) > nilpotent.DYADIC_POW_BOUND:
        raise ValueError(f"|n| = {abs(g.n)} exceeds the dyadic power bound "
                         f"{nilpotent.DYADIC_POW_BOUND}")
    return g


def _parse_s2(*srcs: str) -> list[nilpotent.HeisTriple]:
    """Positive-monoid elements, every one parsed before any is checked."""
    gs = [_parse_triple(src) for src in srcs]
    nilpotent.s2_require(*gs)
    return gs


# each `residual` and `omon` monoid: its chain record, a parser taking all
# operands at once, and the printer of one element
_CHAINS = {
    "m1": (omon.M1Instance, lambda *srcs: [omon.m1_parse(src) for src in srcs], omon.m1_word),
    "s2": (omon.S2Instance, _parse_s2, lambda g: str(g.triple())),
}


def cmd_residual(args) -> int:
    inst, parse, show = _CHAINS[args.monoid]
    a, b = parse(args.a, args.b)
    if args.search:
        r = omon.residual_search(inst, a, b, args.side,
                                 omon.SEARCH_BOUND if args.bound is None else args.bound)
    elif args.bound is not None:
        raise ValueError("--bound needs --search")
    else:
        r = inst.ldiv(a, b) if args.side == "left" else inst.rdiv(b, a)
    text = show(r)
    _emit({"monoid": args.monoid, "side": args.side, "a": args.a, "b": args.b, "residual": text},
          args.json, text)
    return EXIT_HOLDS


# each op of `heis`, `s2` and `dyadic`: its function and what it takes after
# g, a second operand "h", the exponent "n" (-n), or nothing (None)
_HEIS = {"mul": (nilpotent.heis_mul, "h"), "inv": (nilpotent.heis_inv, None),
         "pow": (nilpotent.heis_pow, "n"), "commutator": (nilpotent.heis_commutator, "h"),
         "root": (nilpotent.nth_root, "n")}
_S2 = {"member": (nilpotent.s2_member, None), "cmp": (nilpotent.s2_cmp, "h")}
_DYADIC = {"mul": (nilpotent.dyadic_mul, "h"), "inv": (nilpotent.dyadic_inv, None),
           "pow": (nilpotent.dyadic_pow, "n"), "conjugate": (nilpotent.dyadic_conjugate, "h"),
           "cmp": (nilpotent.dyadic_cmp, "h")}


def _apply(args, table: dict, parse) -> tuple:
    """(g, h, result) of the op's row of `table`, h None unless the op takes
    it.  g is parsed before the arity rule is applied, and h after it: a
    missing or surplus h is a usage error."""
    fn, takes = table[args.op]
    g = parse(args.g)
    if (args.h is not None) != (takes == "h"):
        raise ValueError(f"{args.op} takes one operand" if args.h is not None
                         else f"{args.op} needs a second operand")
    if takes == "h":
        h = parse(args.h)
        return g, h, fn(g, h)
    return g, None, fn(g, args.n) if takes == "n" else fn(g)


def cmd_heis(args) -> int:
    g, _, r = _apply(args, _HEIS, _parse_triple)
    if r is None:  # root: g has no n-th root
        _emit({"op": "root", "g": list(g.triple()), "n": args.n, "root": None},
              args.json, "no root")
        return EXIT_FAILS
    _emit({"op": args.op, "result": list(r.triple())}, args.json, str(r.triple()))
    return EXIT_HOLDS


def cmd_s2(args) -> int:
    g, h, r = _apply(args, _S2, _parse_triple)
    if args.op == "member":
        _emit({"member": r, "g": list(g.triple())}, args.json, "member" if r else "not a member")
        return EXIT_HOLDS if r else EXIT_FAILS
    _emit({"cmp": r, "g": list(g.triple()), "h": list(h.triple())}, args.json, _REL[r])
    return EXIT_HOLDS


def _dyadic_json(d):
    return None if d is None else [str(d.r), d.n]


def _dyadic_text(d) -> str:
    return f"({d.r}, {d.n})"


def cmd_dyadic(args) -> int:
    _, _, r = _apply(args, _DYADIC, _parse_dyadic)
    if args.op == "cmp":
        _emit({"cmp": r}, args.json, _REL[r])
    else:
        _emit({"op": args.op, "result": _dyadic_json(r)}, args.json, _dyadic_text(r))
    return EXIT_HOLDS


def cmd_ore(args) -> int:
    f = ore.OreFraction(_parse_triple(args.den), _parse_triple(args.num))
    if args.op != "cmp":
        # the arity rule of `_apply`: a one-fraction op takes no second fraction
        if args.den2 is not None or args.num2 is not None:
            raise ValueError(f"{args.op} takes one operand")
        if args.witness:
            raise ValueError(f"{args.op} takes no --witness")
        r = ore.conucleus_sigma(f) if args.op == "sigma" else f.value
        _emit({args.op: list(r.triple())}, args.json, str(r.triple()))
        return EXIT_HOLDS
    if args.den2 is not None and args.num2 is None:
        raise ValueError("--den2 needs --num2")
    if args.den2 is None:
        raise ValueError("cmp needs --den2/--num2")
    g = ore.OreFraction(_parse_triple(args.den2), _parse_triple(args.num2))
    c = ore.frac_cmp_witness(f, g) if args.witness else ore.frac_cmp_group(f, g)
    _emit({"cmp": c}, args.json, _REL[c])
    return EXIT_HOLDS


def cmd_omon(args) -> int:
    for unread in ("count", "bound") if args.op == "hamvty" else ("size",):
        if getattr(args, unread) is not None:
            raise ValueError(f"{args.op} takes no --{unread}")
    if args.op == "hamvty":
        rep = omon.hamvty_witness(8 if args.size is None else args.size)
        lines = [f"truncation {rep.truncation}, all_certified={rep.all_certified()}"]
        for row in rep.rows:
            if row.coordinate is None:
                lines.append(f"  n={row.n}: no coordinate needed")
            else:
                lines.append(f"  n={row.n}: coordinate {row.coordinate}, conjugate "
                             f"{_dyadic_text(row.conjugate)} vs power {_dyadic_text(row.power)}")
        payload = {
            "truncation": rep.truncation,
            "certified": rep.all_certified(),
            "rows": [
                {"n": row.n, "coordinate": row.coordinate,
                 "conjugate": _dyadic_json(row.conjugate), "power": _dyadic_json(row.power)}
                for row in rep.rows
            ],
        }
        _emit(payload, args.json, "\n".join(lines))
        return EXIT_HOLDS if rep.all_certified() else EXIT_FAILS
    # chain prefix listing
    count = 10 if args.count is None else args.count
    bound = 8 if args.bound is None else args.bound
    check_int(bound, "bound", 1, omon.SEARCH_BOUND)
    check_int(count, "count", 0)
    inst, _, show = _CHAINS[args.monoid]
    out = [show(g) for _, g in zip(range(count), chain.from_iterable(inst.candidates(bound)))]
    _emit({"monoid": args.monoid, "prefix": out}, args.json, " > ".join(out))
    return EXIT_HOLDS


def cmd_verify_paper(args) -> int:
    cfg = battery.BatteryConfig(max_size=_max_size(battery.UNIVERSE_CAP),
                                samples=args.samples, seed=args.seed)
    results = battery.run_battery(cfg, only=args.only)
    if args.json:
        print(_json([{"claim": r.claim, "status": r.status, "detail": r.detail}
                     for r in results]))
    else:
        for r in results:
            print(f"{r.status.upper():7s} {r.claim}: {r.detail} ({r.seconds:.1f}s)")
    return EXIT_HOLDS if all(r.status != "fail" for r in results) else EXIT_FAILS


@functools.cache  # the tree depends only on constants, so main builds it once
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reslat", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    p.commands = {}  # name -> the command's own parser, which main hands the rest of argv

    def add(name, fn, **kw):
        sp = p.commands[name] = sub.add_parser(name, **kw)
        sp.add_argument("--json", action="store_true", help="machine readable output")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("check", cmd_check, help="check an equation or named property on a finite model")
    sp.add_argument("model", help="builtin model name or path to a structure JSON file")
    sp.add_argument("equation", help="equation source text, or a property name with -p")
    sp.add_argument("-p", "--property", action="store_true",
                    help="treat the second argument as a named property")

    sp = add("enumerate", cmd_enumerate, help="enumerate residuated chains of a given size")
    sp.add_argument("size", type=int)
    sp.add_argument("--require", action="append", metavar="PROP",
                    help="keep only models satisfying PROP (repeatable)")

    sp = add("residual", cmd_residual, help="residual in an infinite residuated chain")
    sp.add_argument("monoid", choices=["m1", "s2"])
    sp.add_argument("side", choices=["left", "right"])
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--search", action="store_true",
                    help="use the brute-force scan instead of the closed form")
    sp.add_argument("--bound", type=int, default=None)

    sp = add("heis", cmd_heis, help="arithmetic in the free class-2 group on two generators")
    sp.add_argument("op", choices=_HEIS)
    sp.add_argument("g")
    sp.add_argument("h", nargs="?")
    sp.add_argument("-n", type=int, default=2)

    sp = add("s2", cmd_s2, help="membership and chain order in the positive monoid")
    sp.add_argument("op", choices=_S2)
    sp.add_argument("g")
    sp.add_argument("h", nargs="?")

    sp = add("dyadic", cmd_dyadic, help="arithmetic in the lex-ordered dyadic group")
    sp.add_argument("op", choices=_DYADIC)
    sp.add_argument("g")
    sp.add_argument("h", nargs="?")
    sp.add_argument("-n", type=int, default=2)

    sp = add("ore", cmd_ore, help="fractions over the positive monoid")
    sp.add_argument("op", choices=["cmp", "sigma", "value"])
    sp.add_argument("den")
    sp.add_argument("num")
    sp.add_argument("--den2")
    sp.add_argument("--num2")
    sp.add_argument("--witness", action="store_true",
                    help="decide the order by the witness pair of L_2, not group arithmetic")

    sp = add("omon", cmd_omon, help="ordered-monoid utilities")
    sp.add_argument("monoid", choices=["m1", "s2"])
    sp.add_argument("op", choices=["prefix", "hamvty"])
    sp.add_argument("--count", type=int)  # the defaults are in cmd_omon
    sp.add_argument("--bound", type=int)
    sp.add_argument("--size", type=int)

    sp = add("verify-paper", cmd_verify_paper,
             help="run the full claim battery and report pass/fail per claim")
    sp.add_argument("--only", default=None, metavar="CLAIM")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=battery.DEFAULT_SEED)

    return p


def main(argv=None) -> int:
    """Run one command.  This is the only place where an error becomes an
    exit code: a ValueError (which covers TermSyntaxError and
    StructureError) is a usage error and a ResidualExhausted an exhausted
    bound, each reported as one line on stderr.  Any other Exception is a
    bug: an `internal error:` line and its traceback on stderr, exit 4."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None  # None: --help, or no known command
    try:
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize --help to 0
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if [] in vars(args).values():
            # argparse before 3.12 passes an operand "--" after the "--" separator as []
            raise ValueError("'--' cannot be an operand")
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except omon.ResidualExhausted as exc:
        print(f"exhausted: no residual within bound {exc.bound}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except Exception as exc:
        import traceback  # here, not at the top: loading it adds 0.3 MB to every process
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
