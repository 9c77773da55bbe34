"""Command-line surface: computations plus the seeded verification suites.

Verbs: moments, poly, functional, paths, dets, family, histories, verify.
Coefficient systems come from --coeffs FILE (JSON, table or family form) or
--family NAME --param k=v [k=v ...].  Rationals always print as "p/q",
never as decimals; --format json emits the documented schemas.

Exit codes: 0 success, 1 identity failure, 2 degeneracy or hypothesis
violation, 3 usage error or a memo table over R1_MEMO_LIMIT.  The verify
suites live in r1poly.checks; they derive everything from --seed and print
the seed in the report, so runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import checks, core, determinants, families, histories, paths
from .core import CoeffError, CoeffSystem, DegeneracyError, L_eval, P, VElem, mu, mu_symbolic
from .determinants import HypothesisViolation
from .exactmath import Poly, format_scalar, parse_scalar
from .families import FamilyParamError, NoClosedForm

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_DEGENERACY = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_params(items: list[str] | None) -> dict:
    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(_usage(f"malformed --param {item!r}, expected k=v"))
        if key in ("variant",):
            params[key] = value
            continue
        try:
            params[key] = int(value) if key == "N" else parse_scalar(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SystemExit(_usage(f"bad --param {item!r}: {exc}"))
    return params


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_system(args) -> CoeffSystem:
    try:
        if getattr(args, "coeffs", None):
            with open(args.coeffs) as fh:
                return core.coeffs_from_spec(json.load(fh))
        if getattr(args, "family", None):
            fam = families.resolve(args.family, _parse_params(args.param))
            return fam.build(depth=max(getattr(args, "n", 8) * 2 + 4, 16))
    except (FamilyParamError, CoeffError, DegeneracyError):
        raise  # degenerate coefficients, not a usage error
    except ValueError as exc:
        raise SystemExit(_usage(str(exc)))
    raise SystemExit(_usage("need a coefficient source: --coeffs FILE or --family NAME"))


def _emit(args, text_lines, payload):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- verbs ---------------------------------------------------------------


def cmd_moments(args) -> int:
    if args.symbolic:
        values = [str(mu_symbolic(n)) for n in range(args.n + 1)]
        _emit(args, values, {"symbolic": True, "moments": values})
        return EXIT_OK
    cs = _load_system(args)
    values = [mu(n, cs) for n in range(args.n + 1)]
    _emit(
        args,
        [" ".join(format_scalar(v) for v in values)],
        {"moments": [format_scalar(v) for v in values]},
    )
    return EXIT_OK


def cmd_poly(args) -> int:
    cs = _load_system(args)
    if args.method == "recurrence":
        p = P(args.n, cs)
    elif args.method == "tiling":
        p = core.P_via_tilings(args.n, cs)
    else:
        p = determinants.P_via_det(args.n, cs)
    coeffs = [format_scalar(c) for c in p.coeffs]
    _emit(args, [str(p)], {"n": args.n, "method": args.method, "coefficients": coeffs})
    return EXIT_OK


_TOKEN_RES = [
    ("x", re.compile(r"x(?:\^(\d+))?$")),
    ("P", re.compile(r"P_?(\d+)$")),
    ("Q", re.compile(r"Q_?(\d+)$")),
    ("d", re.compile(r"1/d_?(\d+)$")),
]


def parse_functional_expr(expr: str, cs: CoeffSystem) -> VElem:
    """A product of x-powers, P_i, and at most one of Q_j or 1/d_k.

    Products with two rational factors leave the space V (the functional is
    not defined on them) and are rejected.
    """
    numerator = Poly.const(1)
    denom_index = None
    for token in expr.replace(" ", "").split("*"):
        if token in ("", "1"):
            continue
        for kind, rx in _TOKEN_RES:
            m = rx.match(token)
            if m:
                break
        else:
            raise ValueError(f"cannot parse factor {token!r} (expected x^k, P_i, Q_j, 1/d_k)")
        idx = int(m.group(1)) if m.group(1) else 1
        if kind == "x":
            numerator = numerator.shift(idx)
        elif kind == "P":
            numerator = numerator * P(idx, cs)
        else:
            if denom_index is not None:
                raise ValueError(
                    "product of two denominators is outside V; the functional is undefined"
                )
            denom_index = idx
            if kind == "Q":
                numerator = numerator * P(idx, cs)
    return VElem(numerator, denom_index or 0, cs)


def cmd_functional(args) -> int:
    cs = _load_system(args)
    try:
        elem = parse_functional_expr(args.expr, cs)
    except ValueError as exc:
        return _usage(str(exc))
    value = L_eval(elem)
    _emit(args, [format_scalar(value)], {"expr": args.expr, "value": format_scalar(value)})
    return EXIT_OK


def _parse_point(text: str) -> tuple[int, int]:
    x, _, y = text.partition(",")
    try:
        return (int(x), int(y))
    except ValueError:
        raise SystemExit(_usage(f"bad point {text!r}, expected x,y with integer x and y"))


def cmd_paths(args) -> int:
    start, end = _parse_point(getattr(args, "from")), _parse_point(args.to)
    if args.action == "count":
        found = paths.enumerate_paths(start, end, max_height=args.max_height)
        _emit(args, [str(len(found))], {"count": len(found)})
        return EXIT_OK
    if args.action == "sum":
        if args.symbolic:
            ws = paths.symbolic_weights()
        else:
            ws = paths.WeightSystem(_load_system(args))
        total = paths.weight_sum(start, end, ws, max_height=args.max_height)
        _emit(args, [str(total)], {"sum": str(total)})
        return EXIT_OK
    ws = None
    if args.coeffs or args.family:
        ws = paths.WeightSystem(_load_system(args))
    found = paths.enumerate_paths(start, end, max_height=args.max_height)
    rows = []
    for p in found:
        row = {"path": str(p)}
        if ws is not None:
            row["weight"] = str(p.weight(ws))
        rows.append(row)
    _emit(args, [json.dumps(r) for r in rows], {"paths": rows})
    return EXIT_OK


_DET_KINDS = ("hankel", "prime", "dprime", "tprime",
              "shifted-prime", "shifted-dprime", "shifted-tprime")


def cmd_dets(args) -> int:
    cs = _load_system(args)
    kinds = args.kinds.split(",") if args.kinds else ["prime", "dprime", "tprime"]
    constant_params = None
    if args.family == "constant":
        constant_params = _parse_params(args.param)
    rows = []
    worst = EXIT_OK
    for kind in kinds:
        if kind not in _DET_KINDS:
            return _usage(f"unknown determinant kind {kind!r}; known: {','.join(_DET_KINDS)}")
        for n in range(1, args.n + 1):
            try:
                if kind == "hankel":
                    if constant_params:
                        report = determinants.hankel_constant(
                            n,
                            constant_params["A"],
                            constant_params["B"],
                            constant_params["C"],
                        )
                    else:
                        value = determinants.hankel(n, cs)
                        rows.append({"n": n, "kind": kind, "computed": str(value),
                                     "predicted": None, "matched": None})
                        continue
                elif kind == "prime":
                    report = determinants.delta_prime(n, cs)
                elif kind == "dprime":
                    report = determinants.delta_dprime(n, cs)
                elif kind == "tprime":
                    report = determinants.delta_tprime(n, cs)
                else:
                    report = determinants.delta_shifted(kind.split("-")[1], n, 1, cs)
            except (HypothesisViolation, DegeneracyError, CoeffError) as exc:
                rows.append({"n": n, "kind": kind, "error": f"hypothesis violated: {exc}"})
                worst = max(worst, EXIT_DEGENERACY)
                continue
            rows.append(report.as_dict())
            if not report.matched:
                worst = EXIT_IDENTITY
    _emit(args, [json.dumps(r) for r in rows], {"reports": rows})
    return worst


def cmd_family(args) -> int:
    try:
        fam = families.resolve(args.name, _parse_params(args.param))
    except (FamilyParamError, ValueError) as exc:
        return _usage(str(exc))
    depth = args.n if args.n is not None else 8
    try:
        cs = fam.build(depth=max(depth + 2, 8))
    except FamilyParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    if args.emit == "coeffs":
        top = depth
        if cs.valid_to is not None:
            top = min(top, cs.valid_to)
        payload = {
            "kind": "table",
            "b": [format_scalar(cs.b(i)) for i in range(top + 1)],
            "a": ["0"] + [format_scalar(cs.a(i)) for i in range(1, top + 1)],
            "lambda": ["0"] + [format_scalar(cs.lam(i)) for i in range(1, top + 1)],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    values = [mu(n, cs) for n in range(depth + 1)]
    _emit(
        args,
        [" ".join(format_scalar(v) for v in values)],
        {"family": fam.name, "moments": [format_scalar(v) for v in values]},
    )
    return EXIT_OK


def cmd_histories(args) -> int:
    n = args.n
    cap = histories.CAPS[args.kind]
    if not 0 <= n <= cap:
        return _usage(f"{args.kind} histories need 0 <= n <= {cap}")
    if args.map:
        rows = []
        if args.kind == "laguerre":
            for h in histories.enumerate_LH(n):
                rows.append({
                    "path": h.steps,
                    "labels": [[i, lab] for i, lab in zip(
                        [j for j, s in enumerate(h.steps) if s == "V"], h.labels)],
                    "image": [list(c) for c in histories.phi(h)],
                })
        else:
            for h in histories.enumerate_MH(n):
                rows.append({
                    "path": h.steps,
                    "labels": h.labeled_pairs(),
                    "image": [[list(blk) for blk in cyc] for cyc in histories.psi(h).cycles],
                })
        _emit(args, [json.dumps(r) for r in rows], {"histories": rows})
        return EXIT_OK
    if args.kind == "laguerre":
        count, ok = histories.laguerre_bijection_check(n)
        ok = ok and histories.lh_moment_check(n, Fraction(3, 5))
    else:
        b, d = Fraction(2, 3), Fraction(1, 4)
        count, ok = histories.meixner_bijection_check(n, b, d)
        ok = ok and histories.mh_moment_check(n, b, d)
    status = "ok" if ok else "FAIL"
    _emit(args, [f"{args.kind} histories n={n}: {status} ({count} histories)"],
          {"kind": args.kind, "n": n, "count": count, "ok": ok})
    return EXIT_OK if ok else EXIT_IDENTITY


def cmd_verify(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    total = 0
    hypothesis_problems = 0
    for name in names:
        print(f"suite {name} (seed {args.seed})")
        try:
            for label, ok in checks.run(name, args.seed):
                total += 1
                if ok:
                    print(f"  ok   {label}")
                else:
                    failures += 1
                    print(f"  FAIL {label}")
        except (DegeneracyError, HypothesisViolation, CoeffError, FamilyParamError) as exc:
            hypothesis_problems += 1
            print(f"  ERROR {exc}")
    print(f"verify: {total - failures}/{total} checks passed (seed {args.seed})")
    if failures:
        return EXIT_IDENTITY
    if hypothesis_problems:
        return EXIT_DEGENERACY
    return EXIT_OK


# -- argument wiring -------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="r1poly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_source(p):
        p.add_argument("--coeffs", help="coefficient-system JSON file")
        p.add_argument("--family", help="family name (see `family` verb)")
        p.add_argument("--param", nargs="+", default=[], help="family parameters k=v")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("moments", help="print mu_0..mu_N")
    add_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("poly", help="print P_n")
    add_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("recurrence", "tiling", "det"), default="recurrence")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("functional", help="evaluate the functional on a product")
    add_source(p)
    p.add_argument("--expr", required=True, help='e.g. "x^3*Q_2" or "P_2*P_1"')
    p.set_defaults(func=cmd_functional)

    p = sub.add_parser("paths", help="count, list, or weight lattice paths")
    p.add_argument("action", choices=("count", "enumerate", "sum"))
    add_source(p)
    p.add_argument("--from", required=True, help="start point x,y")
    p.add_argument("--to", required=True, help="end point x,y")
    p.add_argument("--max-height", type=int, default=None)
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("dets", help="determinant factorization reports")
    add_source(p)
    p.add_argument("--kinds", default="", help=",".join(_DET_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_dets)

    p = sub.add_parser("family", help="emit a family's coefficients or moments")
    p.add_argument("name")
    p.add_argument("--param", nargs="+", default=[])
    p.add_argument("--emit", choices=("coeffs", "moments"), default="coeffs")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("histories", help="enumerate or check the bijections")
    p.add_argument("kind", choices=("laguerre", "meixner"))
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--map", action="store_true")
    group.add_argument("--check", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_histories)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=tuple(checks.SUITES) + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegeneracyError, HypothesisViolation, CoeffError, FamilyParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except (FileNotFoundError, json.JSONDecodeError, NoClosedForm, core.MemoLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
