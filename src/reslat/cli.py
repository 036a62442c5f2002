"""Command line front door.

Exit codes: 0 the checked statement holds (or the command succeeded),
1 it fails and a witness was printed, 2 usage or parse error,
3 a search exhausted its bound without an answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import battery, finite, models, nilpotent, omon, ore, terms

__all__ = ["main"]

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _load_model(spec: str) -> finite.FiniteResLat:
    if spec in models.MODEL_BUILDERS:
        s = models.MODEL_BUILDERS[spec]()
    else:
        try:
            s = finite.load_structure(spec)
        except (OSError, json.JSONDecodeError, finite.StructureError) as exc:
            print(f"error: cannot load model {spec!r}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    if s.n > finite.max_size(64):
        print("error: model exceeds RESLAT_MAX_SIZE", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return s


def _parse_eq(src: str) -> terms.Equation:
    try:
        return terms.parse_equation(src)
    except terms.TermSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt_witness(s: finite.FiniteResLat, witness: dict) -> str:
    return ", ".join(f"{v}={witness[v]}" for v in sorted(witness))


def cmd_check(args) -> int:
    s = _load_model(args.model)
    if args.property:
        try:
            v = finite.check_named_property(s, args.equation)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_USAGE
        label = args.equation
    else:
        eq = _parse_eq(args.equation)
        v = terms.check_equation(eq, s)
        label = str(eq)
    if v.holds:
        _emit({"holds": True, "statement": label, "model": args.model}, args.json,
              f"holds: {label} on {args.model}")
        return EXIT_HOLDS
    _emit(
        {"holds": False, "statement": label, "model": args.model, "witness": v.witness},
        args.json,
        f"fails: {label} on {args.model} at {_fmt_witness(s, v.witness)}",
    )
    return EXIT_FAILS


def cmd_enumerate(args) -> int:
    cap = finite.max_size(finite.DEFAULT_ENUM_CAP)
    if args.size > cap:
        print(f"error: size {args.size} exceeds cap {cap} (RESLAT_MAX_SIZE)", file=sys.stderr)
        return EXIT_USAGE
    constraints = tuple(args.require or ())
    for c in constraints:
        if c not in finite.PROPERTIES:
            print(f"error: unknown property {c!r}", file=sys.stderr)
            return EXIT_USAGE
    found = finite.enumerate_chain_models(args.size, constraints=constraints, cap=cap)
    if args.json:
        print(json.dumps([finite.structure_to_json(s) for s in found], sort_keys=True,
                         separators=(",", ":")))
    else:
        print(f"{len(found)} residuated chain(s) of size {args.size}")
        for i, s in enumerate(found):
            print(f"[{i}] unit={s.unit} mul={s.mul_table}")
    return EXIT_HOLDS


def cmd_residual(args) -> int:
    inst = {"m1": omon.M1Instance, "s2": omon.S2Instance}.get(args.monoid)
    if inst is None:
        print(f"error: unknown monoid {args.monoid!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.monoid == "m1":
            a, b = omon.m1_parse(args.a), omon.m1_parse(args.b)
        else:
            a, b = _parse_triple(args.a), _parse_triple(args.b)
            for g in (a, b):
                if not nilpotent.s2_member(g):
                    raise ValueError(f"{g.triple()} is not in the positive monoid")
        if args.search:
            r = omon.residual_search(inst, a, b, args.side, bound=args.bound)
        elif args.side == "left":
            r = inst.ldiv(a, b)
        else:
            r = inst.rdiv(b, a)
    except omon.ResidualExhausted as exc:
        print(f"exhausted: no residual within bound {exc.bound}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    show = omon.m1_word(r) if args.monoid == "m1" else str(r.triple())
    payload = {"monoid": args.monoid, "side": args.side, "a": args.a, "b": args.b,
               "residual": show}
    _emit(payload, args.json, show)
    return EXIT_HOLDS


def _parse_triple(src: str) -> nilpotent.HeisTriple:
    parts = src.replace("(", " ").replace(")", " ").replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(f"expected three integers, got {src!r}")
    g = nilpotent.HeisTriple(*(int(p) for p in parts))
    return g


def _second(args, parse, binary: tuple[str, ...]):
    """The parsed second operand `h` (None if absent); an op in `binary`
    without it is a usage error."""
    if args.h is None and args.op in binary:
        raise ValueError(f"{args.op} needs a second operand")
    return None if args.h is None else parse(args.h)


def cmd_heis(args) -> int:
    binary = ("mul", "commutator")
    try:
        g = _parse_triple(args.g)
        h = _second(args, _parse_triple, binary) if args.op in binary else None
        if args.op == "mul":
            r = nilpotent.heis_mul(g, h)
        elif args.op == "inv":
            r = nilpotent.heis_inv(g)
        elif args.op == "pow":
            r = nilpotent.heis_pow(g, args.n)
        elif args.op == "commutator":
            r = nilpotent.heis_commutator(g, h)
        else:  # root
            r = nilpotent.nth_root(g, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if r is None:
        _emit({"op": "root", "g": list(g.triple()), "n": args.n, "root": None},
              args.json, "no root")
        return EXIT_FAILS
    _emit({"op": args.op, "result": list(r.triple())}, args.json, str(r.triple()))
    return EXIT_HOLDS


def cmd_s2(args) -> int:
    try:
        g = _parse_triple(args.g)
        h = _second(args, _parse_triple, ("cmp",))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.op == "member":
        ok = nilpotent.s2_member(g)
        _emit({"member": ok, "g": list(g.triple())}, args.json,
              "member" if ok else "not a member")
        return EXIT_HOLDS if ok else EXIT_FAILS
    try:
        c = nilpotent.s2_cmp(g, h)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rel = {-1: "<", 0: "=", 1: ">"}[c]
    _emit({"cmp": c, "g": list(g.triple()), "h": list(h.triple())}, args.json, rel)
    return EXIT_HOLDS


def _parse_dyadic(src: str) -> nilpotent.DyadicPair:
    parts = src.replace("(", " ").replace(")", " ").replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected (r, n), got {src!r}")
    return nilpotent.DyadicPair(Fraction(parts[0]), int(parts[1]))


def cmd_dyadic(args) -> int:
    try:
        g = _parse_dyadic(args.g)
        h = _second(args, _parse_dyadic, ("mul", "conjugate", "cmp"))
        if args.op == "mul":
            r = nilpotent.dyadic_mul(g, h)
        elif args.op == "inv":
            r = nilpotent.dyadic_inv(g)
        elif args.op == "pow":
            r = nilpotent.dyadic_pow(g, args.n)
        elif args.op == "conjugate":
            r = nilpotent.dyadic_conjugate(g, h)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.op == "cmp":
        c = nilpotent.dyadic_cmp(g, h)
        _emit({"cmp": c}, args.json, {-1: "<", 0: "=", 1: ">"}[c])
        return EXIT_HOLDS
    _emit({"op": args.op, "result": [str(r.r), r.n]}, args.json, f"({r.r}, {r.n})")
    return EXIT_HOLDS


def cmd_ore(args) -> int:
    try:
        den, num = _parse_triple(args.den), _parse_triple(args.num)
        f = ore.OreFraction(den, num)
        g = None
        if args.den2 is not None and args.num2 is None:
            raise ValueError("--den2 needs --num2")
        if args.den2 is not None:
            g = ore.OreFraction(_parse_triple(args.den2), _parse_triple(args.num2))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.op == "sigma":
        r = ore.conucleus_sigma(f)
        _emit({"sigma": list(r.triple())}, args.json, str(r.triple()))
        return EXIT_HOLDS
    if args.op == "value":
        _emit({"value": list(f.value.triple())}, args.json, str(f.value.triple()))
        return EXIT_HOLDS
    if g is None:
        print("error: cmp needs --den2/--num2", file=sys.stderr)
        return EXIT_USAGE
    if args.witness:
        try:
            c = ore.frac_cmp_witness(f, g, bound=args.bound)
        except omon.ResidualExhausted as exc:
            print(f"exhausted: no witness within bound {exc.bound}", file=sys.stderr)
            return EXIT_EXHAUSTED
    else:
        c = ore.frac_cmp_group(f, g)
    _emit({"cmp": c}, args.json, {-1: "<", 0: "=", 1: ">"}[c])
    return EXIT_HOLDS


def cmd_omon(args) -> int:
    inst = {"m1": omon.M1Instance, "s2": omon.S2Instance}.get(args.monoid)
    if inst is None:
        print(f"error: unknown monoid {args.monoid!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.op == "hamvty":
        try:
            rep = omon.hamvty_witness(args.size)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        lines = [f"truncation {rep.truncation}, all_certified={rep.all_certified()}"]
        for row in rep.rows:
            if row.coordinate is None:
                lines.append(f"  n={row.n}: no coordinate needed")
            else:
                lines.append(
                    f"  n={row.n}: coordinate {row.coordinate}, "
                    f"conjugate ({row.conjugate.r}, {row.conjugate.n}) "
                    f"vs power ({row.power.r}, {row.power.n})"
                )
        payload = {
            "truncation": rep.truncation,
            "certified": rep.all_certified(),
            "rows": [
                {"n": row.n, "coordinate": row.coordinate,
                 "conjugate": None if row.conjugate is None
                 else [str(row.conjugate.r), row.conjugate.n],
                 "power": None if row.power is None
                 else [str(row.power.r), row.power.n]}
                for row in rep.rows
            ],
        }
        _emit(payload, args.json, "\n".join(lines))
        return EXIT_HOLDS if rep.all_certified() else EXIT_FAILS
    # chain prefix listing
    out = []
    for g in inst.candidates(args.bound):
        if len(out) >= args.count:
            break
        out.append(omon.m1_word(g) if args.monoid == "m1" else str(g.triple()))
    _emit({"monoid": args.monoid, "prefix": out}, args.json, " > ".join(out))
    return EXIT_HOLDS


def cmd_verify_paper(args) -> int:
    cfg = battery.BatteryConfig(max_size=finite.max_size(5), samples=args.samples,
                                seed=args.seed)
    try:
        results = battery.run_battery(cfg, only=args.only)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(
            [{"claim": r.claim, "status": r.status, "detail": r.detail} for r in results],
            sort_keys=True, separators=(",", ":")))
    else:
        for r in results:
            print(f"{r.status.upper():7s} {r.claim}: {r.detail} ({r.seconds:.1f}s)")
    return EXIT_HOLDS if all(r.status != "fail" for r in results) else EXIT_FAILS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reslat", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
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
    sp.add_argument("op", choices=["mul", "inv", "pow", "commutator", "root"])
    sp.add_argument("g")
    sp.add_argument("h", nargs="?")
    sp.add_argument("-n", type=int, default=2)

    sp = add("s2", cmd_s2, help="membership and chain order in the positive monoid")
    sp.add_argument("op", choices=["member", "cmp"])
    sp.add_argument("g")
    sp.add_argument("h", nargs="?")

    sp = add("dyadic", cmd_dyadic, help="arithmetic in the lex-ordered dyadic group")
    sp.add_argument("op", choices=["mul", "inv", "pow", "conjugate", "cmp"])
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
                    help="decide the order by witness search, not group arithmetic")
    sp.add_argument("--bound", type=int, default=8)

    sp = add("omon", cmd_omon, help="ordered-monoid utilities")
    sp.add_argument("monoid", choices=["m1", "s2"])
    sp.add_argument("op", choices=["prefix", "hamvty"])
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--bound", type=int, default=8)
    sp.add_argument("--size", type=int, default=8)

    sp = add("verify-paper", cmd_verify_paper,
             help="run the full claim battery and report pass/fail per claim")
    sp.add_argument("--only", default=None, metavar="CLAIM")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=battery.DEFAULT_SEED)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize --help to 0
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except finite.StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
