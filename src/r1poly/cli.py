"""Command-line surface: computations plus the seeded verification suites.

Verbs: moments, poly, functional, paths, dets, family, histories, verify.
Coefficient systems come from --coeffs FILE (JSON, table or family form) or
--family NAME --param k=v [k=v ...], the family spec with params {k: "v"}, so
a spec file takes every --param, variant included.  `paths count` is the
unit-weight path sum, with no cap; `paths enumerate` keeps the cap.  The
`dets` kinds are ``determinants.REPORTS``.  Rationals always print as "p/q",
never as decimals; --format json emits the documented schemas.

Exit codes: 0 success, 1 identity failure, 2 degeneracy or hypothesis
violation, 3 usage error or a tripped limit (a memo table over
R1_MEMO_LIMIT, a path enumeration over its cap, a symbolic `moments --n`
or `paths sum` x-span plus start height over ``core.SYMBOLIC_CAP`` = 12,
checked before any work starts).  A verb returns the code of what it reports and raises on
anything else; ``main`` alone turns an exception into an exit code and one
``error:`` line, from ``_DEGENERATE`` (exit 2) and ``_BAD_INPUT`` (exit 3).  The verify suites live in
r1poly.checks; they derive everything from --seed and print the seed in the
report, so runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import checks, core, determinants, histories, paths
from .core import CoeffError, CoeffSystem, DegeneracyError, L_eval, P, VElem, mu, mu_symbolic
from .determinants import HypothesisViolation, PQUniqueError
from .exactmath import Poly, format_scalar
from .families import FamilyParamError

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_DEGENERACY = 2
EXIT_USAGE = 3

# Degenerate coefficients or a theorem hypothesis that fails: exit 2 from
# `main`, an error row in `dets`, an ERROR line in `verify`.
_DEGENERATE = (CoeffError, DegeneracyError, FamilyParamError, HypothesisViolation, PQUniqueError)
# Bad input (every other ValueError, an unreadable --coeffs) and tripped limits: exit 3.
_BAD_INPUT = (ValueError, OSError, core.MemoLimitError, paths.PathOverflowError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_params(items: list[str]) -> dict:
    for item in items:
        if "=" not in item:
            raise ValueError(f"malformed --param {item!r}, expected k=v")
    return dict(item.split("=", 1) for item in items)


def _load_system(args) -> CoeffSystem:
    if getattr(args, "coeffs", None):
        with open(args.coeffs) as fh:
            spec = json.load(fh)
    elif getattr(args, "family", None):
        spec = {"kind": "family", "name": args.family, "params": _parse_params(args.param)}
    else:
        raise ValueError("need a coefficient source: --coeffs FILE or --family NAME")
    return core.coeffs_from_spec(spec)


def _emit(args, text_lines, payload):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- verbs ---------------------------------------------------------------


def cmd_moments(args) -> int:
    if args.n < 0:
        raise ValueError("moments need --n >= 0")
    if args.symbolic:
        if args.n > core.SYMBOLIC_CAP:
            raise ValueError(f"symbolic moments need --n <= {core.SYMBOLIC_CAP}")
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
    if args.n < 0:
        raise ValueError("poly needs --n >= 0")
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
    value = L_eval(parse_functional_expr(args.expr, _load_system(args)))
    _emit(args, [format_scalar(value)], {"expr": args.expr, "value": format_scalar(value)})
    return EXIT_OK


def _parse_point(text: str) -> tuple[int, int]:
    x, _, y = text.partition(",")
    try:
        point = (int(x), int(y))
    except ValueError:
        raise ValueError(f"bad point {text!r}, expected x,y with integer x and y")
    if point[1] < 0:
        raise ValueError(f"bad point {text!r}, paths need height y >= 0")
    return point


def cmd_paths(args) -> int:
    start, end = _parse_point(getattr(args, "from")), _parse_point(args.to)
    if args.max_height is not None and args.max_height < 0:
        raise ValueError("paths need --max-height >= 0")
    if args.action == "count":  # the unit-weight path sum: no path is built
        unit = paths.WeightSystem(CoeffSystem(lambda k: 1, lambda k: 1, lambda k: 1))
        count = int(paths.weight_sum(start, end, unit, max_height=args.max_height))
        _emit(args, [str(count)], {"count": count})
        return EXIT_OK
    if args.action == "sum":
        if args.symbolic:
            if end[0] - start[0] + start[1] > core.SYMBOLIC_CAP:
                raise ValueError("symbolic path sums need x-span + start height"
                                 f" <= {core.SYMBOLIC_CAP}")
            ws = paths.symbolic_weights()
        else:
            ws = paths.WeightSystem(_load_system(args))
        total = paths.weight_sum(start, end, ws, max_height=args.max_height)
        text = str(total) if args.symbolic else format_scalar(total)
        _emit(args, [text], {"sum": text})
        return EXIT_OK
    ws = None
    if args.coeffs or args.family:
        ws = paths.WeightSystem(_load_system(args))
    found = paths.enumerate_paths(start, end, max_height=args.max_height)
    rows = []
    for p in found:
        row = {"path": str(p)}
        if ws is not None:
            row["weight"] = format_scalar(p.weight(ws))
        rows.append(row)
    _emit(args, [json.dumps(r) for r in rows], {"paths": rows})
    return EXIT_OK


def cmd_dets(args) -> int:
    if args.n < 0:
        raise ValueError("dets need --n >= 0")
    cs = _load_system(args)
    kinds = args.kinds.split(",") if args.kinds else ["prime", "dprime", "tprime"]
    unknown = next((kind for kind in kinds if kind not in determinants.REPORTS), None)
    if unknown is not None:
        raise ValueError(
            f"unknown determinant kind {unknown!r}; known: {','.join(determinants.REPORTS)}")
    rows = []
    worst = EXIT_OK
    for kind in kinds:
        for n, row in enumerate(determinants.REPORTS[kind](args.n, cs), 1):
            try:
                report = row()
            except _DEGENERATE as exc:
                rows.append({"n": n, "kind": kind, "error": f"hypothesis violated: {exc}"})
                worst = max(worst, EXIT_DEGENERACY)
                continue
            if not isinstance(report, determinants.DetReport):
                rows.append({"n": n, "kind": kind, "computed": format_scalar(report),
                             "predicted": None, "matched": None})
                continue
            rows.append(report.as_dict())
            if not report.matched:
                worst = EXIT_IDENTITY
    _emit(args, [json.dumps(r) for r in rows], {"reports": rows})
    return worst


def cmd_family(args) -> int:
    if args.n is not None and args.n < 0:
        raise ValueError("family needs --n >= 0")
    cs = _load_system(args)
    top = args.n if args.n is not None else 8
    if args.emit == "coeffs":
        print(json.dumps(core.table_spec(cs, top), indent=2, sort_keys=True))
        return EXIT_OK
    values = [mu(n, cs) for n in range(top + 1)]
    _emit(
        args,
        [" ".join(format_scalar(v) for v in values)],
        {"family": cs.name, "moments": [format_scalar(v) for v in values]},
    )
    return EXIT_OK


def cmd_histories(args) -> int:
    n = args.n
    cap = histories.CAPS[args.kind]
    if not 0 <= n <= cap:
        raise ValueError(f"{args.kind} histories need 0 <= n <= {cap}")
    if args.map:
        rows = ({"path": h.steps, "labels": h.labeled_pairs(), "image": cycles}
                for h, cycles in histories.images(args.kind, n))
        if args.format == "json":
            _emit(args, [], {"histories": list(rows)})
        else:  # one line per row as it is built, so no row is kept
            for row in rows:
                print(json.dumps(row))
        return EXIT_OK
    point = histories.CHECK_POINTS[args.kind]
    if args.kind == "laguerre":
        count, ok = histories.laguerre_bijection_check(n)
        ok = ok and histories.lh_moment_check(n, *point)
    else:
        count, ok = histories.meixner_bijection_check(n)
        ok = ok and histories.mh_moment_check(n, *point)
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
        except _DEGENERATE as exc:
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
    p.add_argument("--kinds", default="", help=",".join(determinants.REPORTS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_dets)

    p = sub.add_parser("family", help="emit a family's coefficients or moments")
    p.add_argument("family", metavar="name")
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
    except (*_DEGENERATE, *_BAD_INPUT) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY if isinstance(exc, _DEGENERATE) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
