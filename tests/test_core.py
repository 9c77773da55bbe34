import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import r1poly
from r1poly.checks import random_fraction, random_system
from r1poly.core import (
    CoeffError,
    CoeffSystem,
    DegeneracyError,
    F_eval,
    L_eval,
    L_laurent,
    MemoLimitError,
    P,
    P_via_tilings,
    Pstar,
    VElem,
    Vm_series,
    cf_series,
    coeffs_from_spec,
    d_poly,
    expand_in_P,
    favard_tilings,
    invert,
    laurent_velem,
    moment_series,
    mu,
    mu_nm,
    mu_nml,
    mu_symbolic,
    nu,
    rho,
    shift,
)
from r1poly.exactmath import Poly, Series, SymPoly, poly_divrem
from r1poly.paths import WeightSystem, rho_sum, weight_sum


def test_P_base_cases(ones):
    assert P(0, ones) == Poly.const(1)
    assert P(1, ones) == Poly([-1, 1])  # x - b_0


def test_P_one_step_by_hand(rng):
    cs = random_system(rng)
    lhs = P(2, cs)
    rhs = Poly.linear(1, -cs.b(1)) * Poly.linear(1, -cs.b(0)) - Poly.linear(
        cs.a(1), cs.lam(1)
    )
    assert lhs == rhs


def test_P_is_monic(rng):
    cs = random_system(rng)
    for n in range(1, 10):
        p = P(n, cs)
        assert p.degree == n and p.leading() == 1


def test_laguerre_constant_term():
    a = Fraction(5, 3)
    cs = CoeffSystem(lambda n: a - n, lambda n: Fraction(n), lambda n: Fraction(0))
    for n in range(1, 8):
        want = Fraction(1)
        for i in range(n):
            want *= cs.b(i)
        assert P(n, cs)(0) == Fraction(-1) ** n * want


def test_tiling_count_and_small_board(rng):
    assert sum(1 for _ in favard_tilings(0)) == 1
    assert sum(1 for _ in favard_tilings(2)) == 6
    cs = random_system(rng)
    # the six tilings of the 1 x 2 board by hand
    want = (
        Poly([0, 0, 1])
        - Poly([0, cs.b(0) + cs.b(1)])
        + Poly([cs.b(0) * cs.b(1)])
        - Poly([0, cs.a(1)])
        - Poly([cs.lam(1)])
    )
    assert P_via_tilings(2, cs) == want


def test_tilings_match_recurrence(rng):
    cs = random_system(rng)
    for n in range(11):
        assert P_via_tilings(n, cs) == P(n, cs)


def test_tiling_guard():
    cs = CoeffSystem(lambda n: Fraction(1), lambda n: Fraction(1), lambda n: Fraction(1))
    with pytest.raises(ValueError):
        P_via_tilings(21, cs)


def test_Pstar_examples(rng):
    cs = random_system(rng)
    assert Pstar(1, cs) == Poly([1, -cs.b(0)])
    for n in range(9):
        assert Pstar(n, cs)[0] == 1
        # x^n P(1/x) reversal, checked pointwise
        x = Fraction(3, 7)
        assert Pstar(n, cs)(x) == x**n * P(n, cs)(1 / x)


def test_shift_reindexes(rng):
    cs = random_system(rng)
    assert P(1, shift(cs, 2)) == Poly([-cs.b(2), 1])
    assert shift(cs, 3).a(1) == cs.a(4)
    assert shift(cs, 0) is cs


def test_orthogonality(random_systems):
    for cs in random_systems:
        for m in range(1, 9):
            for n in range(m):
                assert L_eval(VElem(P(m, cs).shift(n), m, cs)) == 0


def test_L_unit(random_systems):
    for cs in random_systems:
        assert L_eval(VElem(Poly.const(1), 0, cs)) == 1


def test_L_PnQm_product(random_systems):
    for cs in random_systems:
        for m in range(9):
            for n in range(m, 9):
                want = Fraction(1)
                for i in range(m + 1, n + 1):
                    want *= cs.a(i)
                assert L_eval(VElem(P(n, cs) * P(m, cs), m, cs)) == want


def test_L_inverse_denominator(rng):
    cs = random_system(rng)
    got = L_eval(VElem(Poly.const(1), 1, cs))
    assert got == 1 / (cs.lam(1) + cs.a(1) * cs.b(0))
    assert nu(0, 1, cs) == got


def test_mu_nml_unit_diagonal(rng):
    cs = random_system(rng)
    for n in range(6):
        assert mu_nml(0, n, n, cs) == 1
        assert L_eval(VElem(P(n, cs).shift(n), n, cs)) == 1


def test_three_way_moment_agreement(random_systems):
    for cs in random_systems:
        ws = WeightSystem(cs)
        dp = [weight_sum((0, 0), (n, 0), ws) for n in range(11)]
        rec = [mu(n, cs) for n in range(11)]
        cf = cf_series(cs, 10)
        assert dp == rec
        assert all(cf[n] == rec[n] for n in range(11))


def test_symbolic_moment_displays():
    b0, b1 = SymPoly.b(0), SymPoly.b(1)
    a1, a2 = SymPoly.a(1), SymPoly.a(2)
    l1 = SymPoly.lam(1)
    assert mu_symbolic(0) == SymPoly.const(1)
    assert mu_symbolic(1) == b0 + a1
    assert mu_symbolic(2) == b0 * b0 + l1 + 2 * a1 * b0 + a2 * a1 + b1 * a1 + a1 * a1


def test_symbolic_mu_specializes(rng):
    cs = random_system(rng)
    for n in range(7):
        for m in range(n + 1):
            sym = mu_symbolic(n, m)
            val = sym.evaluate(
                lambda kind, i: {"b": cs.b, "a": cs.a, "lam": cs.lam}[kind](i)
            )
            assert val == mu_nm(n, m, cs)


def test_unit_weight_moments(ones):
    assert [mu(n, ones) for n in range(6)] == [1, 2, 7, 29, 133, 650]


def test_constant_gf_quadratic_relation(ones):
    f = moment_series(ones, 12)
    x = Series([0, 1], 12)
    one = Series([1], 12)
    assert f * (one - x - (x + x * x) * f) == one


def test_mu_nml_equals_path_sum(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n, m, ell in itertools.product(range(6), repeat=3):
        assert mu_nml(n, m, ell, cs) == weight_sum((0, m), (n, ell), ws)


def test_rho_equals_restricted_path_sum(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n, m, ell in itertools.product(range(5), repeat=3):
        assert rho(n, m, ell, cs) == rho_sum(n, m, ell, ws)


def test_nu_numeric_recurrences(rng):
    cs = random_system(rng)
    for n in range(8):
        assert nu(n, 0, cs) == mu(n, cs)
    for n in range(1, 7):
        for m in range(1, 7):
            assert nu(n, m, cs) == (
                nu(n - 1, m - 1, cs) - cs.lam(m) * nu(n - 1, m, cs)
            ) / cs.a(m)


def test_Vm_series_functional_equation(rng):
    cs = random_system(rng)
    N = 10
    x = Series([0, 1], N)
    assert Vm_series(0, cs, N) == moment_series(cs, N)
    for m in range(1, 5):
        vm = Vm_series(m, cs, N)
        vprev = Vm_series(m - 1, cs, N)
        lhs = (vm - Series([nu(0, m, cs)], N)) * cs.a(m) + x * vm * cs.lam(m)
        assert lhs == x * vprev
        assert all(vm[n] == nu(n, m, cs) for n in range(N + 1))


def test_velem_equality_up_to_denominator(rng):
    cs = random_system(rng)
    p = Poly([1, 2])
    lifted = p * Poly.linear(cs.a(2), cs.lam(2)) * Poly.linear(cs.a(3), cs.lam(3))
    assert VElem(p, 1, cs) == VElem(lifted, 3, cs)
    assert VElem(p, 1, cs) != VElem(lifted + Poly.const(1), 3, cs)
    other = random_system(rng)
    with pytest.raises(ValueError):
        _ = VElem(p, 1, cs) == VElem(p, 1, other)


def test_expand_in_P_roundtrip(rng):
    cs = random_system(rng)
    p = Poly([random_fraction(rng) for _ in range(7)])
    coeffs = expand_in_P(p, cs)
    back = Poly()
    for m, c in enumerate(coeffs):
        back = back + P(m, cs) * c
    assert back == p
    # expanding a basis element returns a unit vector
    e = expand_in_P(P(4, cs), cs)
    assert e == [0, 0, 0, 0, 1]


def test_degeneracy_error_names_index():
    # b = 0 everywhere makes P_1(-lam_1/a_1) = -lam_1/a_1, so lam_1 = 0 kills it
    cs = CoeffSystem(
        lambda n: Fraction(0), lambda n: Fraction(1), lambda n: Fraction(0)
    )
    with pytest.raises(DegeneracyError) as err:
        nu(0, 1, cs)
    assert err.value.k == 1


def test_a_zero_is_named_error():
    cs = CoeffSystem(lambda n: Fraction(1), lambda n: Fraction(0), lambda n: Fraction(1))
    with pytest.raises(CoeffError):
        nu(0, 1, cs)


def test_memo_limit(monkeypatch):
    monkeypatch.setenv("R1_MEMO_LIMIT", "5")
    cs = CoeffSystem(lambda n: Fraction(1), lambda n: Fraction(1), lambda n: Fraction(1))
    with pytest.raises(MemoLimitError):
        mu(10, cs)


def test_memo_limit_names_table_and_request(monkeypatch, ones):
    monkeypatch.setenv("R1_MEMO_LIMIT", "5")
    with pytest.raises(MemoLimitError, match=r"^mu table: 6 entries > R1_MEMO_LIMIT=5 "
                                             r"\(filling row 2 for n=10\)$"):
        mu(10, ones)
    cs = CoeffSystem(lambda n: Fraction(1), lambda n: Fraction(1), lambda n: Fraction(1))
    monkeypatch.setenv("R1_MEMO_LIMIT", "4")
    with pytest.raises(MemoLimitError, match=r"^nu table: 5 entries > R1_MEMO_LIMIT=4 "
                                             r"\(filling column 1 for nu\(3, 2\)\)$"):
        nu(3, 2, cs)


def _nu_by_recursion(cs, n, m, memo):
    """The nu recurrence as plain recursion; memo records every entry it reaches."""
    if (n, m) not in memo:
        if m == 0:
            val = mu(n, cs)
        elif n == 0:
            u, root = poly_divrem(P(m, cs), Poly.linear(cs.a(m), cs.lam(m)))
            val = -sum(u[i] * _nu_by_recursion(cs, i, m - 1, memo) for i in range(m)) / root[0]
        else:
            val = (_nu_by_recursion(cs, n - 1, m - 1, memo)
                   - cs.lam(m) * _nu_by_recursion(cs, n - 1, m, memo)) / cs.a(m)
        memo[(n, m)] = val
    return memo[(n, m)]


def test_nu_table_fills_what_the_recursion_reaches(rng):
    cs = random_system(rng)
    reference = {(0, 0): Fraction(1)}
    for n, m in [(5, 3), (9, 0), (0, 6), (2, 7), (12, 4), (3, 3), (1, 0)]:
        assert nu(n, m, cs) == _nu_by_recursion(cs, n, m, reference)
        assert cs.nu_table().memo == reference


def test_nu_needs_no_recursion():
    script = (
        "import random, sys\n"
        "from r1poly.checks import random_system\n"
        "from r1poly.core import nu\n"
        "cs = random_system(random.Random(7), depth=152, nondegenerate_to=3)\n"
        "sys.setrecursionlimit(100)\n"
        "print(nu(150, 3, cs) != 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(r1poly.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_invert_is_involution(laurent_system):
    cs = laurent_system
    inv = invert(cs)
    double = invert(inv)
    assert all(double.b(n) == cs.b(n) for n in range(10))
    assert all(double.a(n) == cs.a(n) for n in range(1, 10))


def test_invert_requires_laurent(rng):
    cs = random_system(rng)
    if any(cs.lam(i) != 0 for i in range(1, 13)):
        with pytest.raises(CoeffError):
            invert(cs)


def test_F_eval_basics(laurent_system):
    cs = laurent_system
    assert F_eval(VElem(Poly.const(1), 0, cs)) == 1
    assert F_eval(VElem(Poly.x(), 0, cs)) == cs.b(0)
    assert L_laurent(Poly.const(1), 1, cs) == 1 / cs.b(0)


def test_F_orthogonality(laurent_system):
    # F(x^{-n} P_m) = 0 for 0 <= n < m
    cs = laurent_system
    for m in range(1, 7):
        for n in range(m):
            assert F_eval(laurent_velem(P(m, cs), n, cs)) == 0


def test_L_laurent_orthogonality(laurent_system):
    # L(x^{-n} P_m) = 0 for 0 < n <= m
    cs = laurent_system
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert L_eval(laurent_velem(P(m, cs), n, cs)) == 0


def test_inversion_duality(laurent_system):
    cs = laurent_system
    inv = invert(cs)
    for k in range(-3, 4):
        if k >= 0:
            lhs = F_eval(VElem(Poly.x(k), 0, inv))
            rhs = L_laurent(Poly.const(1), k, cs)
        else:
            lhs = F_eval(laurent_velem(Poly.const(1), -k, inv))
            rhs = L_eval(VElem(Poly.x(-k), 0, cs))
        assert lhs == rhs


def test_laurent_path_identities(laurent_system):
    cs = laurent_system
    inv = invert(cs)
    ws = WeightSystem(cs)
    wsi = WeightSystem(inv)
    for n, m, ell in itertools.product(range(5), repeat=3):
        assert mu_nml(n, m, ell, cs) == weight_sum((0, m), (n, ell), ws)
        scale = Fraction(1)
        for i in range(m + 1, m + n + 2):
            scale *= cs.a(i)
        lhs = L_eval(VElem(P(m, cs) * P(ell, cs) * scale, m + n + 1, cs))
        pref = P(m, cs)(0) * P(ell, cs)(0) / cs.b(0)
        for i in range(1, ell + 1):
            pref *= inv.a(i)
        for i in range(1, m + 1):
            pref /= cs.a(i)
        assert lhs == pref * weight_sum((0, m), (n, ell), wsi)


def test_laurent_moment_duality(laurent_system):
    cs = laurent_system
    inv = invert(cs)
    ws = WeightSystem(cs)
    wsi = WeightSystem(inv)
    for n in range(7):
        assert mu(n, cs) == weight_sum((0, 0), (n, 0), ws)
        assert L_laurent(Poly.const(1), n + 1, cs) == (
            weight_sum((0, 0), (n, 0), wsi) / cs.b(0)
        )


def test_coeffs_from_spec_table():
    spec = {"kind": "table", "b": ["1", "1/2"], "a": ["0", "-3/7"], "lambda": [0, "2"]}
    cs = coeffs_from_spec(spec)
    assert cs.b(1) == Fraction(1, 2) and cs.a(1) == Fraction(-3, 7) and cs.lam(1) == 2
    with pytest.raises(CoeffError):
        cs.b(2)


def test_coeffs_from_spec_family():
    cs = coeffs_from_spec({"kind": "family", "name": "laguerre", "params": {"a": "5/2"}})
    assert cs.b(0) == Fraction(5, 2) and cs.a(2) == 2 and cs.lam(3) == 0


def test_d_poly(rng):
    cs = random_system(rng)
    assert d_poly(0, cs) == Poly.const(1)
    assert d_poly(2, cs) == Poly.linear(cs.a(1), cs.lam(1)) * Poly.linear(cs.a(2), cs.lam(2))
