"""The four benchmark workloads: seeded inputs, the ops, and exact checks.

``WORKLOADS[name](seed, workdir)`` generates the workload's inputs from the
seed (this is set-up) and returns its ops.  An op is one request to the
program, through its library functions or ``cli.main`` in-process, and it
is timed.  Its check runs after the last op, outside the timed window, and
decides exactly, with no tolerance, whether the op's output is right.
``render`` turns an op's output into the bytes whose digest is stored per
seed.

Ops look program functions up in the ``r1poly`` namespace when they run,
so the wrappers the traced run installs see every call.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple

import r1poly
from r1poly import cli, core, determinants, exactmath, families, paths


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


class CliOutput(NamedTuple):
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliOutput:
    """``r1poly ARGV`` in-process, as a user at the shell runs it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = r1poly.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliOutput(code, out.getvalue())


def render(value) -> str:
    """Canonical text of an op's output, as a user would read it."""
    if isinstance(value, CliOutput):
        return f"exit {value.code}\n{value.stdout}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render(v) for v in value) + "]"
    if isinstance(value, (exactmath.Poly, exactmath.Series)):
        return "[" + ", ".join(str(c) for c in value.coeffs) + "]"
    if isinstance(value, determinants.DetReport):
        return json.dumps(value.as_dict(), sort_keys=True)
    return str(value)


def _pick(rng: random.Random, grid: list) -> F:
    return grid[rng.randrange(len(grid))]


def _table_json(path: Path, cs: core.CoeffSystem, depth: int) -> str:
    """Write the table form of ``cs`` for indices 0..depth and return the path."""
    spec = {
        "kind": "table",
        "b": [str(cs.b(i)) for i in range(depth + 1)],
        "a": ["0"] + [str(cs.a(i)) for i in range(1, depth + 1)],
        "lambda": ["0"] + [str(cs.lam(i)) for i in range(1, depth + 1)],
    }
    path.write_text(json.dumps(spec))
    return str(path)


def _keeper(results: dict):
    """``keep(label, fn)`` makes an op call that also stores its output under
    ``label``, for the checks of later ops."""
    def keep(label, fn):
        def call():
            results[label] = fn()
            return results[label]
        return call
    return keep


def _cli_ok(check: Callable[[str], bool] = lambda text: True):
    return lambda out: out.code == cli.EXIT_OK and check(out.stdout)


# -- grid -------------------------------------------------------------------

GRID_MU_N = 300
GRID_P_N = 150
GRID_WS_N = 150
GRID_CF_ORDER = 60
GRID_NU_M = 40
GRID_DET_N = 24
GRID_ORTHO_M = (10, 20, 30)


def _small_fraction(rng: random.Random, nonzero: bool = False) -> F:
    """Height <= 6, drawn like ``cli.random_system`` does."""
    while True:
        v = F(rng.randint(-6, 6), rng.randint(1, 6))
        if v or not nonzero:
            return v


def random_table(rng: random.Random, depth: int, nondegenerate_to: int):
    """Seeded small-height (b, a, lam) lists, re-rolled until no division the
    ops make, P_k(-lam_k/a_k) for k <= nondegenerate_to, is by zero."""
    while True:
        lists = (
            [_small_fraction(rng) for _ in range(depth)],
            [_small_fraction(rng, nonzero=True) for _ in range(depth)],
            [_small_fraction(rng) for _ in range(depth)],
        )
        probe = core.CoeffSystem.from_lists(*lists)
        try:
            for k in range(1, nondegenerate_to + 1):
                probe.nu_table().p_at_root(k)
        except core.DegeneracyError:
            continue
        return lists


def grid(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"grid-{seed}")
    lists = random_table(rng, GRID_MU_N + 2, GRID_NU_M)
    cs = core.CoeffSystem.from_lists(*lists, name="grid")
    x0 = _small_fraction(rng, nonzero=True)
    nu_spots = [(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(3)]
    r = r1poly
    results = {}
    keep = _keeper(results)

    def check_p(p):
        prev, cur = F(0), F(1)
        for k in range(GRID_P_N):
            a_lam = cs.a(k) * x0 + cs.lam(k) if k else F(0)
            prev, cur = cur, (x0 - cs.b(k)) * cur - a_lam * prev
        return p.degree == GRID_P_N and p(x0) == cur

    def check_nu(grid_rows):
        mus = results["mu_row"]
        return all(grid_rows[n][0] == mus[n] for n in range(GRID_NU_M + 1)) and all(
            grid_rows[n][m] == core.L_eval(core.VElem(exactmath.Poly.x(n), m, cs))
            for n, m in nu_spots)

    return [
        Op("mu_row", keep("mu_row", lambda: [r.mu(n, cs) for n in range(GRID_MU_N + 1)]),
           lambda row: len(row) == GRID_MU_N + 1 and row[0] == 1),
        Op("P", lambda: r.P(GRID_P_N, cs), check_p),
        Op("weight_sum", lambda: r.weight_sum((0, 0), (GRID_WS_N, 0), r.WeightSystem(cs)),
           lambda v: v == results["mu_row"][GRID_WS_N]),
        Op("cf_series", lambda: r.cf_series(cs, GRID_CF_ORDER),
           lambda s: list(s.coeffs) == results["mu_row"][:GRID_CF_ORDER + 1]),
        Op("nu_grid", lambda: [[r.nu(n, m, cs) for m in range(GRID_NU_M + 1)]
                               for n in range(GRID_NU_M + 1)], check_nu),
        Op("L_eval_orthogonality",
           lambda: [r.L_eval(r.VElem(r.P(m, cs).shift(n), m, cs))
                    for m in GRID_ORTHO_M for n in (0, m // 2, m - 1)],
           lambda values: values == [0] * len(values)),
        Op("delta_prime", lambda: r.delta_prime(GRID_DET_N, cs), lambda rep: rep.matched),
        Op("delta_tprime", lambda: r.delta_tprime(GRID_DET_N, cs), lambda rep: rep.matched),
    ]


# -- families ---------------------------------------------------------------

# Parameter grids.  Each slot keeps one prime denominator and numerators of
# one bit length, and the Askey-Wilson slots take distinct primes, so the
# bits the entries grow to, and with them the cost, barely depend on the seed.
SEVENTHS_ABOVE_ONE = [F(p, 7) for p in range(8, 14)]
SEVENTHS_BELOW_ONE = [F(p, 7) for p in (4, 5, 6)]
FIFTHS = [F(p, 5) for p in range(6, 10)]
INVERSE_PRIMES = (3, 5, 7, 11, 13)
Q_HALF = F(1, 2)

FAMILY_MOMENTS_N = {"laguerre": 300, "meixner": 150, "little_q_jacobi": 100,
                    "askey_wilson": 80, "jacobi11": 150}
FUNCTIONAL_EXPR = "x^40*Q_20"
TABLE_DEPTH = 80
DETS_N = 10
HANKEL_N = 20
VERIFY_SUITES = ("orthogonality", "determinants", "bounded", "families")
MOMENT_SAMPLES = 3  # closed-moment checks per family, besides k = n


def _family_params(rng: random.Random, name: str) -> dict:
    above, below = SEVENTHS_ABOVE_ONE, SEVENTHS_BELOW_ONE
    if name == "laguerre":
        return {"a": _pick(rng, above)}
    if name == "meixner":
        return {"b": _pick(rng, FIFTHS), "c": _pick(rng, below)}
    if name == "little_q_jacobi":
        return {"a": _pick(rng, below), "b": _pick(rng, below), "q": Q_HALF}
    if name == "askey_wilson":
        primes = rng.sample(INVERSE_PRIMES, 4)
        return {k: F(1, p) for k, p in zip("abcd", primes)} | {"q": Q_HALF}
    if name in ("jacobi11", "jacobi01"):
        return {"a": _pick(rng, FIFTHS), "b": _pick(rng, FIFTHS)}
    if name == "constant":
        return {"A": _pick(rng, above), "B": _pick(rng, above), "C": _pick(rng, above)}
    raise ValueError(name)


def seeded_family(rng: random.Random, name: str, depth: int, nondegenerate_to: int = 0):
    """Parameters from the grid, re-rolled until ``build(depth)`` validates
    and P_k(-lam_k/a_k) != 0 for k <= nondegenerate_to."""
    while True:
        params = _family_params(rng, name)
        try:
            spec = families.resolve(name, params)
            probe = spec.build(depth)
            for k in range(1, nondegenerate_to + 1):
                probe.nu_table().p_at_root(k)
        except (families.FamilyParamError, core.DegeneracyError):
            continue
        return spec, params


def _param_args(params: dict) -> list[str]:
    return ["--param"] + [f"{k}={v}" for k, v in params.items()]


def _moments(text: str) -> list[F]:
    return [F(v) for v in text.split()]


def families_workload(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"families-{seed}")
    ops = []
    for name, n in FAMILY_MOMENTS_N.items():
        spec, params = seeded_family(rng, name, max(2 * n + 4, 16))
        ks = sorted({n} | {rng.randint(1, n - 1) for _ in range(MOMENT_SAMPLES)})
        if spec.moment is not None:
            def check(text, spec=spec, ks=ks, n=n):
                values = _moments(text)
                return len(values) == n + 1 and all(spec.closed_moment(k) == values[k] for k in ks)
        else:  # askey_wilson records no closed moments: its monic 4phi3 is P_n
            def check(text, spec=spec, n=n):
                built = spec.build(n + 2)
                return len(_moments(text)) == n + 1 and all(
                    spec.hyp_poly(k) * (1 / spec.hyp_poly(k).leading()) == core.P(k, built)
                    for k in (1, 4, 8))
        argv = ["moments", "--family", name] + _param_args(params) + ["--n", str(n)]
        ops.append(Op(f"moments_{name}", lambda argv=argv: run_cli(argv), _cli_ok(check)))

    # functional divides by P_k(-lam_k/a_k) for k <= 20, dets for k <= DETS_N
    spec, _ = seeded_family(rng, "jacobi01", TABLE_DEPTH, max(20, DETS_N))
    table = _table_json(workdir / "jacobi01.json", spec.build(TABLE_DEPTH), TABLE_DEPTH)
    ops.append(Op("functional", lambda: run_cli(
        ["functional", "--coeffs", table, "--expr", FUNCTIONAL_EXPR]),
        _cli_ok(lambda text: F(text.strip()) == core.mu_nm(40, 20, spec.build(TABLE_DEPTH)))))

    def all_matched(text, rows):
        reports = [json.loads(line) for line in text.splitlines()]
        return len(reports) == rows and all(r["matched"] is True for r in reports)

    ops.append(Op("dets_prime_tprime", lambda: run_cli(
        ["dets", "--coeffs", table, "--kinds", "prime,tprime", "--n", str(DETS_N)]),
        _cli_ok(lambda text: all_matched(text, 2 * DETS_N))))
    _, params = seeded_family(rng, "constant", HANKEL_N)
    ops.append(Op("dets_hankel_constant", lambda: run_cli(
        ["dets", "--kinds", "hankel", "--family", "constant"] + _param_args(params)
        + ["--n", str(HANKEL_N)]),
        _cli_ok(lambda text: all_matched(text, HANKEL_N))))

    for suite in VERIFY_SUITES:
        argv = ["verify", "--suite", suite, "--seed", str(seed)]
        ops.append(Op(f"verify_{suite}", lambda argv=argv: run_cli(argv),
                      _cli_ok(verify_passed)))
    return ops


_VERIFY_TAIL = re.compile(r"verify: (\d+)/(\d+) checks passed")


def verify_passed(text: str) -> bool:
    tail = _VERIFY_TAIL.search(text)
    return bool(tail) and tail.group(1) == tail.group(2) and "FAIL" not in text


def verify_checks(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith(("  ok ", "  FAIL ")))


# -- symbolic ---------------------------------------------------------------

SYM_MOMENTS_N = 8
SYM_MU_NS = (9, 10)
SYM_PATHS = (((0, 0), (9, 0)), ((0, 2), (8, 1)))
SYM_TERMS = {9: 14269, 10: 43377}  # monomials of mu_9, mu_10 in b_i, a_i, lam_i


def symbolic(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"symbolic-{seed}")
    depth = max(SYM_MU_NS) + 2
    point = random_table(rng, depth, 0)
    point_cs = core.CoeffSystem.from_lists(*point, name="point")
    values = dict(zip(("b", "a", "lam"), point))

    def assign(kind, index):
        return values[kind][index]

    r = r1poly
    results = {}
    keep = _keeper(results)

    def numeric_match(p, n):
        return p.evaluate(assign) == core.mu(n, point_cs)

    def moments_match(text):
        lines = text.splitlines()
        return len(lines) == SYM_MOMENTS_N + 1 and all(
            lines[k] == str(core.mu_symbolic(k)) and numeric_match(core.mu_symbolic(k), k)
            for k in range(SYM_MOMENTS_N + 1))

    (s9, e9), (s8, e8) = SYM_PATHS
    # moments --symbolic fills the module-global memo to n = 8 first, so each
    # later mu_symbolic call computes exactly one new row.
    return [
        Op("moments_symbolic",
           lambda: run_cli(["moments", "--symbolic", "--n", str(SYM_MOMENTS_N)]),
           _cli_ok(moments_match)),
        Op("mu_symbolic_9", keep("mu9", lambda: r.mu_symbolic(9)),
           lambda p: len(p.terms) == SYM_TERMS[9] and numeric_match(p, 9)),
        Op("mu_symbolic_10", keep("mu10", lambda: r.mu_symbolic(10)),
           lambda p: len(p.terms) == SYM_TERMS[10]),
        Op("weight_sum_0_0_9_0", lambda: r.weight_sum(s9, e9, r.symbolic_weights()),
           lambda p: p == results["mu9"]),
        Op("weight_sum_0_2_8_1", keep("ws8", lambda: r.weight_sum(s8, e8, r.symbolic_weights())),
           lambda p: bool(p)),
        Op("evaluate_mu_10", lambda: results["mu10"].evaluate(assign),
           lambda v: v == core.mu(10, point_cs)),
        Op("evaluate_weight_sum_8_1", lambda: results["ws8"].evaluate(assign),
           lambda v: v == paths.weight_sum(s8, e8, paths.WeightSystem(point_cs))),
    ]


# -- histories --------------------------------------------------------------

LAGUERRE_N = 8
MEIXNER_N = 7  # n = 8 takes 85 s a run at the parent commit
NON_EXCEDANCE_N = 8
HISTORY_SEVENTHS = [F(p, 7) for p in range(1, 21) if p % 7]


def fubini(n: int) -> int:
    """Ordered set partitions of n elements: sum_j j! S(n, j)."""
    return sum(math.factorial(j) * exactmath.stirling2(n, j) for j in range(n + 1))


def histories_workload(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"histories-{seed}")
    b = _pick(rng, HISTORY_SEVENTHS)
    c = _pick(rng, HISTORY_SEVENTHS[:6])

    def count_line(kind, n, want):
        return lambda text: text.strip() == f"{kind} histories n={n}: ok ({want} histories)"

    return [
        Op("histories_laguerre_check",
           lambda: run_cli(["histories", "laguerre", "--n", str(LAGUERRE_N), "--check"]),
           _cli_ok(count_line("laguerre", LAGUERRE_N, math.factorial(LAGUERRE_N)))),
        Op("histories_meixner_check",
           lambda: run_cli(["histories", "meixner", "--n", str(MEIXNER_N), "--check"]),
           _cli_ok(count_line("meixner", MEIXNER_N, fubini(MEIXNER_N)))),
        Op("verify_histories",
           lambda: run_cli(["verify", "--suite", "histories", "--seed", str(seed)]),
           _cli_ok(verify_passed)),
        Op("non_excedance_check", lambda: r1poly.non_excedance_check(NON_EXCEDANCE_N, b, c),
           lambda ok: ok is True),
    ]


WORKLOADS = {
    "grid": grid,
    "families": families_workload,
    "symbolic": symbolic,
    "histories": histories_workload,
}
