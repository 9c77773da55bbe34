"""Seeded identity checks: the one registry behind `verify` and the tests.

Each suite is a generator of ``(label, ok)`` pairs that draws every random
system it checks from the one ``random.Random`` it is given.  ``run(name,
seed)`` seeds that generator from the pair ``(seed, name)``, so a suite sees
the same data whichever other suites run, and a seeded run is byte-identical.
The random-system builders live here too, so the tests draw their systems
exactly as the suites do.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable

from . import core, determinants, families, histories, paths
from .core import (
    CoeffSystem,
    DegeneracyError,
    L_eval,
    P,
    VElem,
    cf_series,
    expand_in_P,
    invert,
    mu,
    mu_symbolic,
)
from .exactmath import Poly, Series, SymPoly, series_from_rational


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    """p/q with -6 <= p <= 6 and 1 <= q <= 6, re-drawn while zero if ``nonzero``."""
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if not nonzero or v != 0:
            return v


def _rerolled(draw: Callable[[], CoeffSystem], nondegenerate_to: int = 8) -> CoeffSystem:
    """``draw()`` again until P_k(-lam_k/a_k) != 0 for every k <= ``nondegenerate_to``."""
    while True:
        cs = draw()
        try:
            for k in range(1, nondegenerate_to + 1):
                cs.nu_table().p_at_root(k)
        except DegeneracyError:
            continue
        return cs


def random_system(rng: random.Random, depth: int = 18, nondegenerate_to: int = 8) -> CoeffSystem:
    """A random rational system, re-rolled until nondegenerate."""
    return _rerolled(lambda: CoeffSystem.from_lists(
        [random_fraction(rng) for _ in range(depth)],
        [random_fraction(rng, nonzero=True) for _ in range(depth)],
        [random_fraction(rng) for _ in range(depth)],
        name="random",
    ), nondegenerate_to)


def random_laurent_system(rng: random.Random, depth: int = 18) -> CoeffSystem:
    """A random Laurent (lam = 0) system, re-rolled until nondegenerate."""
    return _rerolled(lambda: CoeffSystem.from_lists(
        [random_fraction(rng, nonzero=True) for _ in range(depth)],
        [random_fraction(rng, nonzero=True) for _ in range(depth)],
        [Fraction(0)] * depth,
        name="laurent",
    ))


def _suite_orthogonality(rng: random.Random):
    b0, b1 = SymPoly.b(0), SymPoly.b(1)
    a1, a2 = SymPoly.a(1), SymPoly.a(2)
    l1 = SymPoly.lam(1)
    yield "symbolic mu1 = b0+a1", mu_symbolic(1) == b0 + a1
    yield ("symbolic mu2 display",
           mu_symbolic(2) == b0 * b0 + l1 + 2 * a1 * b0 + a2 * a1 + b1 * a1 + a1 * a1)
    for t in range(5):
        cs = random_system(rng)
        ok = all(
            L_eval(VElem(P(m, cs).shift(n), m, cs)) == 0
            for m in range(1, 9) for n in range(m)
        )
        yield f"L(x^n Q_m) = 0, n<m<=8 (system {t})", ok
        ok = True
        for m in range(9):
            for n in range(m, 9):
                want = Fraction(1)
                for i in range(m + 1, n + 1):
                    want *= cs.a(i)
                ok = ok and L_eval(VElem(P(n, cs) * P(m, cs), m, cs)) == want
        yield f"L(P_n Q_m) = a_(m+1)..a_n (system {t})", ok
        ws = paths.WeightSystem(cs)
        dp = [paths.weight_sum((0, 0), (n, 0), ws) for n in range(11)]
        rec = [mu(n, cs) for n in range(11)]
        cf = cf_series(cs, 10)
        yield f"three-way moments mu_0..mu_10 (system {t})", (
            dp == rec and all(cf[n] == rec[n] for n in range(11))
        )
    cs = random_system(rng)
    ws = paths.WeightSystem(cs)
    ok = all(
        core.mu_nml(n, m, l, cs) == paths.weight_sum((0, m), (n, l), ws)
        for n, m, l in itertools.product(range(5), repeat=3)
    )
    yield "L(x^n P_m Q_l) = path sum, n,m,l <= 4", ok
    ok = all(
        core.rho(n, m, l, cs) == paths.rho_sum(n, m, l, ws)
        for n, m, l in itertools.product(range(5), repeat=3)
    )
    yield "L(x^n P_m P_l) = restricted path sum, n,m,l <= 4", ok
    p = Poly([random_fraction(rng) for _ in range(7)])
    coeffs = expand_in_P(p, cs)
    reassembled = sum((P(m, cs) * c for m, c in enumerate(coeffs)), Poly())
    yield "expand_in_P round-trip", reassembled == p
    # Laurent case: duality and the inverted-weight identity
    lcs = random_laurent_system(rng)
    inv = invert(lcs)
    ok = all(invert(inv).b(n) == lcs.b(n) for n in range(10)) and all(
        invert(inv).a(n) == lcs.a(n) for n in range(1, 10)
    )
    yield "coefficient inversion is an involution", ok
    yield "F(1) = 1 and F(x) = b0", (
        core.F_eval(VElem(Poly.const(1), 0, lcs)) == 1
        and core.F_eval(VElem(Poly.x(), 0, lcs)) == lcs.b(0)
    )
    ok = True
    for k in range(-3, 4):
        if k >= 0:
            lhs = core.F_eval(VElem(Poly.x(k), 0, inv))
            rhs = core.L_laurent(Poly.const(1), k, lcs)
        else:
            lhs = core.F_eval(core.laurent_velem(Poly.const(1), -k, inv))
            rhs = L_eval(VElem(Poly.x(-k), 0, lcs))
        ok = ok and lhs == rhs
    yield "inverted-system F equals L after x -> 1/x", ok
    wsl, wsi = paths.WeightSystem(lcs), paths.WeightSystem(inv)
    ok = True
    for n, m, l in itertools.product(range(5), repeat=3):
        if core.mu_nml(n, m, l, lcs) != paths.weight_sum((0, m), (n, l), wsl):
            ok = False
    yield "Laurent path identity (no diagonal steps)", ok
    ok = True
    for n, m, l in itertools.product(range(5), repeat=3):
        scale = Fraction(1)
        for i in range(m + 1, m + n + 2):
            scale *= lcs.a(i)
        lhs = L_eval(VElem(P(m, lcs) * P(l, lcs) * scale, m + n + 1, lcs))
        pref = P(m, lcs)(0) * P(l, lcs)(0) / lcs.b(0)
        for i in range(1, l + 1):
            pref *= inv.a(i)
        for i in range(1, m + 1):
            pref /= lcs.a(i)
        if lhs != pref * paths.weight_sum((0, m), (n, l), wsi):
            ok = False
    yield "negative-power identity with inverted weights", ok


def _suite_determinants(rng: random.Random):
    for n, want in [(1, 3), (2, 27), (3, 729)]:
        rep = determinants.hankel_constant(n, Fraction(1), Fraction(1), Fraction(1))
        yield f"hankel(1,1,1) n={n} = {want}", rep.matched and rep.computed == want
    for A, B, C in [(Fraction(2), Fraction(-1, 3), Fraction(1, 2)),
                    (Fraction(1, 2), Fraction(3), Fraction(-2, 5))]:
        ok = all(determinants.hankel_constant(n, A, B, C).matched for n in range(1, 6))
        yield f"hankel constant ({A},{B},{C}) n<=5", ok
    yield "xin t=1 n=3 -> 64", determinants.lemma_xin_check(Fraction(1), 3).computed == 64
    ok = all(determinants.lemma_xin_check(random_fraction(rng), n).matched for n in range(1, 6))
    yield "xin factorization random t", ok
    ok = all(
        determinants.hankel_constant(n, Fraction(1), Fraction(0), Fraction(0)).computed == 1
        for n in range(1, 7)
    )
    yield "hankel A=1,B=0,C=0 -> 1", ok
    yield "classical equivalence (1,1,1)", determinants.classical_equiv_check(
        Fraction(1), Fraction(1), Fraction(1), 10)
    yield "classical equivalence random", determinants.classical_equiv_check(
        random_fraction(rng, nonzero=True), random_fraction(rng), random_fraction(rng), 10)
    for t in range(5):
        cs = random_system(rng, nondegenerate_to=7)
        ok = all(determinants.delta_prime(n, cs).matched for n in range(1, 7))
        yield f"D' factorization n<=6 (system {t})", ok
        ok = all(determinants.delta_dprime(n, cs).matched for n in range(1, 7))
        yield f"D'' factorization n<=6 (system {t})", ok
        ok = all(determinants.delta_tprime(n, cs).matched for n in range(1, 7))
        yield f"D''' factorization n<=6 (system {t})", ok
        ok = all(
            determinants.delta_shifted(kind, n, 1, cs).matched
            for kind in ("prime", "dprime", "tprime")
            for n in range(1, 7)
        )
        yield f"shifted factorizations n<=6 (system {t})", ok
        ok = all(determinants.cramer_monicity_check(n, cs) for n in range(1, 7))
        yield f"Cramer monicity n<=6 (system {t})", ok
    while True:  # the x^j/d_j basis needs every lam_k nonzero
        cs = random_system(rng)
        if all(cs.lam(k) != 0 for k in range(1, 7)):
            break
    ok = all(determinants.P_via_det(n, cs) == P(n, cs) for n in range(6))
    yield "P reconstruction n<=5", ok
    ok = True
    for n in range(6):
        want = VElem(P(n, cs), n, cs)
        for variant in (1, 2, 3):
            ok = ok and determinants.Q_via_det(n, cs, variant) == want
    yield "Q reconstruction, all three bases, n<=5", ok
    lcs = random_laurent_system(rng)
    ok = all(determinants.delta_dprime(n, lcs).computed == 0 for n in range(1, 5))
    yield "lam = 0 collapses D'' to 0", ok


def _suite_bounded(rng: random.Random):
    counts = [len(paths.enumerate_paths((0, 0), (n, 0))) for n in range(6)]
    yield "path counts 1,2,7,29,133,650", counts == [1, 2, 7, 29, 133, 650]
    ones = CoeffSystem(lambda n: Fraction(1), lambda n: Fraction(1), lambda n: Fraction(1))
    ws = paths.WeightSystem(ones)
    yield "unit-weight DP matches counts", [
        paths.weight_sum((0, 0), (n, 0), ws) for n in range(6)
    ] == counts
    cs = random_system(rng)
    ws = paths.WeightSystem(cs)
    ok = True
    for k in range(5):
        for r in range(k + 1):
            for s in range(k + 1):
                num, den, pre = paths.bounded_gf(r, s, k, cs)
                gf = series_from_rational(num * pre, den, 12)
                dp = Series(
                    [paths.weight_sum((0, r), (n, s), ws, max_height=k) for n in range(13)],
                    12,
                )
                ok = ok and gf == dp
    yield "bounded GF = height-capped DP, k<=4, order 12", ok
    ok = True
    for k in range(6):
        num, den, pre = paths.bounded_gf(0, 0, k, cs)
        n2, d2 = paths.finite_cf_rational(k, cs)
        ok = ok and num * pre * d2 == n2 * den
    yield "finite continued fraction = bounded GF", ok
    ok = True
    for n in range(8):
        cap = n + 1
        ok = ok and paths.weight_sum((0, 0), (n, 0), ws, max_height=cap) == paths.weight_sum(
            (0, 0), (n, 0), ws
        )
    yield "high caps change nothing", ok
    schroeder = [1, 2, 6, 22, 90, 394]
    got = [
        sum(1 for p in paths.enumerate_paths((0, 0), (n, 0)) if "D" not in p.steps)
        for n in range(6)
    ]
    yield "diagonal-free counts are Schroeder numbers", got == schroeder


def _family_points(name: str):
    q = Fraction(1, 2)
    if name == "jacobi11":
        return [families.jacobi11(Fraction(1, 3), Fraction(2, 5), v)
                for v in ("minus", "plus", "mixed")] + [
            families.jacobi11(Fraction(3, 7), Fraction(-1, 5), "minus")]
    if name == "jacobi01":
        return [families.jacobi01(Fraction(1, 3), Fraction(2, 5), v)
                for v in ("oneminus", "xpow")] + [
            families.jacobi01(Fraction(5, 2), Fraction(1, 7), "xpow")]
    if name == "laguerre":
        return [families.laguerre(Fraction(5, 2)), families.laguerre(Fraction(-3, 7))]
    if name == "meixner":
        return [families.meixner(Fraction(7, 2), Fraction(1, 3)),
                families.meixner(Fraction(1, 5), Fraction(2, 7))]
    if name == "little_q_jacobi":
        return [families.little_q_jacobi(Fraction(1, 3), Fraction(2, 7), q),
                families.little_q_jacobi(Fraction(2, 5), Fraction(1, 5), Fraction(1, 3))]
    if name == "big_q_jacobi":
        return [families.big_q_jacobi(Fraction(1, 3), Fraction(2, 7), Fraction(3, 5), q, v)
                for v in ("bshift", "ashift")]
    raise ValueError(name)


def _suite_families(rng: random.Random):
    for name in ("jacobi11", "jacobi01", "laguerre", "meixner",
                 "little_q_jacobi", "big_q_jacobi"):
        for fam in _family_points(name):
            cs = fam.build()
            ok = all(
                L_eval(VElem(P(m, cs).shift(n), m, cs)) == 0
                for m in range(1, 7) for n in range(m)
            )
            yield f"{fam.name} orthogonality", ok
            if fam.moment is not None:
                ok = all(fam.closed_moment(k) == mu(k, cs) for k in range(9))
                yield f"{fam.name} closed moments", ok
            reps = families.glue_shift_reports(fam, range(1, 5), order=8)
            yield f"{fam.name} shifted-classical proportionality", all(
                rep.proportional for rep in reps)
            if reps[1].series_match is not None:
                yield f"{fam.name} moment series vs classical", reps[1].series_match
    j01 = families.jacobi01(Fraction(1, 2), Fraction(1, 2))
    yield "Catalan 4^k mu_k", [4**k * j01.closed_moment(k) for k in range(5)] == [1, 2, 5, 14, 42]
    j11 = families.jacobi11(Fraction(-1, 2), Fraction(-1, 2))
    yield "central binomial 4^k mu_2k", [
        4**k * j11.closed_moment(2 * k) for k in range(5)
    ] == [1, 2, 6, 20, 70]
    lagm = families.laguerre(Fraction(5, 2))
    yield "Laguerre moments (a+1)_k", all(
        lagm.closed_moment(k) == mu(k, lagm.build()) for k in range(9))
    q = Fraction(1, 2)
    aw = families.askey_wilson(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), q)
    csaw = aw.build()
    ok = True
    for n in range(5):
        h = aw.hyp_poly(n)
        ok = ok and h * (1 / h.leading()) == P(n, csaw)
    yield "Askey-Wilson recurrence = monic 4phi3", ok
    aw_swap = families.askey_wilson(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), q)
    yield "Askey-Wilson lam symmetric in c<->d", all(
        aw.coeff_lam(n) == aw_swap.coeff_lam(n) for n in range(1, 8))
    qr = families.q_racah(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), 4, q)
    csqr = qr.build()
    ok = True
    for n in range(5):
        h = qr.hyp_poly(n)
        mono = h * (1 / h.leading())
        ok = ok and mono == P(n, csqr)
        for x in range(3):
            node = qr.spectral_node(x)
            ok = ok and mono(node) == P(n, csqr)(node)
    yield "q-Racah recurrence = monic 4phi3 at spectral nodes", ok
    cst = families.constant(Fraction(1), Fraction(1), Fraction(1))
    yield "constant(1,1,1) moments", [
        mu(n, cst.build()) for n in range(6)] == [1, 2, 7, 29, 133, 650]
    ok = True
    cstr = families.constant(
        random_fraction(rng, nonzero=True), random_fraction(rng), random_fraction(rng))
    csr = cstr.build()
    for n in range(9):
        h = cstr.hyp_poly(n)
        ok = ok and h == P(n, csr)
    yield "Chebyshev kernel closed form", ok
    a = Fraction(2, 3)
    her = families.r1_hermite(a)
    csh = her.build()
    egf = families.hermite_egf_polys(8, a)
    yield "Hermite EGF coefficients", all(
        egf[n] * math.factorial(n) == P(n, csh) for n in range(9))
    yield "theta spot values", (
        families.theta(1, a) == a and families.theta(2, a) == 1 + 3 * a * a)
    yield "theta = deformed-Hermite moments", all(
        families.theta(m, a) == mu(m, csh) for m in range(9))
    yield "theta at a=0 gives odd double factorials", all(
        families.theta(2 * n, Fraction(0)) == families.hermite_moment(2 * n) for n in range(5))
    yield "Chebyshev kernel two forms agree", all(
        families.chebyshev_weight(n, Fraction(1, 2), a)
        == families.chebyshev_weight_hyp(n, Fraction(1, 2), a)
        for n in range(9))
    yield "two-sided moment series identity", families.genthm_check(a, 8)
    yield "Hermite linearization n,m<=4", all(
        families.hermite_linearization_check(n, m, a) for n in range(5) for m in range(5))


def _suite_histories(rng: random.Random):
    lag = histories.LaguerreHistory("UUUHVVUUUHHVVHUHHVVV", (2, 2, 4, 1, 1, 2, 1))
    want = ((4, 2, 3), (8,), (9, 7, 1), (10,), (12,), (13, 5, 11, 6))
    yield "worked example: length-13 permutation image", histories.phi(lag) == want
    yield "worked example round-trip", histories.phi_inv(want) == lag
    mh = histories.MeixnerHistory(
        "UUUHVVUHHHVUUUHVVVUHVV",
        (None, None, None, 0, 3, 1, None, 2, None, None, 2,
         None, None, None, None, 4, 2, 2, None, 0, 2, 1),
    )
    want_pc = (((3, 4), (1,)), ((7,),), ((8,), (5, 6)),
               ((12,), (11,), (9,), (10,)), ((13, 14), (2,)))
    yield "worked example: length-14 partition-cycles image", histories.psi(mh).cycles == want_pc
    yield "worked example round-trip (psi)", histories.psi_inv(histories.psi(mh)) == mh
    yield "phi bijective with statistic transport, n<=7", all(
        histories.laguerre_bijection_check(n)[1] for n in range(8))
    (a,), (b, d) = histories.CHECK_POINTS["laguerre"], histories.CHECK_POINTS["meixner"]
    yield "psi weight-preserving bijection, n<=6", all(
        histories.meixner_bijection_check(n)[1] for n in range(7))
    yield "Laguerre history sums, n<=8", all(histories.lh_moment_check(n, a) for n in range(9))
    yield "Meixner history chain, n<=7", all(
        histories.mh_moment_check(n, b, d) for n in range(8))
    yield "non-excedance identity, n<=6", all(
        histories.non_excedance_check(n, b, Fraction(1, 5)) for n in range(1, 7))


SUITES = {
    "orthogonality": _suite_orthogonality,
    "determinants": _suite_determinants,
    "bounded": _suite_bounded,
    "families": _suite_families,
    "histories": _suite_histories,
}


def run(name: str, seed: int):
    """The ``(label, ok)`` checks of suite ``name``, drawn from ``(seed, name)``."""
    return SUITES[name](random.Random(repr((seed, name))))
