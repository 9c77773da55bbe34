import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import r1poly
from r1poly import checks, core, families
from r1poly.checks import random_fraction, random_system
from r1poly.core import (
    _PolyRows,
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
    table_spec,
)
from r1poly.exactmath import Poly, Series, SymPoly, poly_divrem
from r1poly.paths import WeightSystem, bounded_gf, enumerate_paths, rho_sum, weight_sum

from conftest import fraction_L_eval, gate_at_zero, no_poly_fractions, small, tables


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
    assert shift(cs, 0) is cs is cs.shifted(0)
    assert cs.shifted(2) is cs.shifted(2) is not shift(cs, 2)
    assert P(3, cs.shifted(2)) == P(3, shift(cs, 2))


def test_shift_keeps_its_parent_alive(rng):
    cs = random_system(rng)
    b3, shifted = cs.b(3), shift(cs, 2)
    del cs
    assert shifted.b(1) == b3


def test_a_second_cf_series_steps_no_shifted_recurrence():
    cs = r1poly.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    first = cf_series(cs, 30)
    rows = cs.shifted(1)._poly_rows
    with mock.patch.object(_PolyRows, "advance", autospec=True,
                           side_effect=_PolyRows.advance) as step:
        assert cf_series(cs, 30) == first
        assert step.call_count == 0
        deeper = cf_series(cs, 32)  # P_31 and P_32 of cs.shifted(1), P_32 and P_33 of cs
    assert [call.args[0] for call in step.call_args_list].count(rows) == 2
    assert step.call_count == 4
    fresh = r1poly.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    assert deeper == cf_series(fresh, 32)
    assert cf_series(cs, 20) == cf_series(fresh, 20)


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


def reference_L_eval(v: VElem) -> Fraction:
    """L by the plain decomposition, on a twin of the system with fresh tables.

    Division by d_m splits numerator/d_m into q(x) + r(x)/d_m, and peeling the
    linear factors a_j x + lam_j one at a time writes r/d_m as sum_j c_j / d_j.
    Then L(q) reads mu_k and L(1/d_j) = nu_{0,j}."""
    cs, m = v.owner, v.denom_index
    twin = CoeffSystem(cs.b, cs.a, cs.lam)
    q, r = poly_divrem(v.numerator, d_poly(m, twin))
    total = sum((c * mu(k, twin) for k, c in enumerate(q.coeffs) if c != 0), Fraction(0))
    for j in range(m, 0, -1):
        r, c = poly_divrem(r, Poly.linear(twin.a(j), twin.lam(j)))
        if c[0] != 0:
            total += c[0] * nu(0, j, twin)
    return total + r[0]


def _assert_L_matches_reference(cs, rng, max_m, max_degree=20):
    for m in range(max_m + 1):
        # L(x^k / d_m) reads mu up to k - m, and mu_n reads coefficients to index n
        top = max_degree if cs.valid_to is None else min(max_degree, cs.valid_to + m)
        numerators = [Poly(), P(m, cs), P(m, cs).shift(max(m - 1, 0))]
        numerators += [Poly([random_fraction(rng) for _ in range(rng.randint(1, top + 1))])
                       for _ in range(3)]
        for p in numerators:
            v = VElem(p, m, cs)
            assert L_eval(v) == reference_L_eval(v)


def test_L_eval_matches_the_decomposition(random_systems, rng):
    for cs in random_systems:
        _assert_L_matches_reference(cs, rng, max_m=8)


def test_L_eval_matches_the_decomposition_on_a_laurent_system(laurent_system, rng):
    _assert_L_matches_reference(laurent_system, rng, max_m=8)


def test_L_eval_matches_the_decomposition_past_the_gate(rng):
    cs = families.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    _assert_L_matches_reference(cs, rng, max_m=10)


def L_outcome(evaluate, v):
    """The value, or the type and message of the named error raised."""
    try:
        return evaluate(v)
    except (CoeffError, DegeneracyError) as err:
        return type(err), str(err)


@settings(max_examples=60, deadline=None)
@given(tables(14), st.booleans(), st.integers(0, 6), st.lists(small, max_size=12))
def test_L_eval_is_the_fraction_sum(lists, gated, m, coeffs):
    """One integer dot product gives the Fraction the term-by-term sum
    gives, on a zero numerator too, past the gate, and the same named
    degeneracy where the system has one."""
    with gate_at_zero(gated):
        got, want = (L_outcome(evaluate, VElem(Poly(coeffs), m, CoeffSystem.from_lists(*lists)))
                     for evaluate in (L_eval, fraction_L_eval))
    assert got == want
    if not isinstance(got, tuple):
        assert type(got) is Fraction


def test_L_eval_is_the_fraction_sum_on_big_entries():
    cs = families.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    for m in (0, 5, 12):
        for p in (Poly(), P(m, cs).shift(3), P(m + 7, cs) * Fraction(3, 5)):
            assert L_eval(VElem(p, m, cs)) == fraction_L_eval(VElem(p, m, cs))


def test_L_eval_checks_every_a_i_before_it_reads_nu():
    cs = CoeffSystem(lambda n: Fraction(1), lambda n: Fraction(n != 3),
                     lambda n: Fraction(1))
    with pytest.raises(CoeffError, match="a_3 = 0"):
        L_eval(VElem(Poly.x(5), 4, cs))
    assert cs._nu is None


def test_L_eval_raises_the_degeneracy_where_the_fraction_sum_does():
    # b = 0, a = 1, lam_1 = 2, lam_2 = 1: P_2 = x^2 - x - 2 vanishes at
    # -lam_2/a_2 = -1, while P_1(-lam_1/a_1) = -2 does not
    got, want = (L_outcome(evaluate, VElem(Poly.x(4), 3, CoeffSystem(
        lambda n: Fraction(0), lambda n: Fraction(1), lambda n: Fraction(2 if n == 1 else 1))))
        for evaluate in (L_eval, fraction_L_eval))
    assert got == want == (DegeneracyError, "degenerate system: P_2(-lam_2/a_2) = 0")


def test_a_corrupt_nu_entry_fails_the_orthogonality_check(monkeypatch):
    def first_orthogonality_check(corrupt):
        def draw(rng):
            cs = random_system(rng)
            cs.nu_table().value(3, 2)
            if corrupt:
                cs.nu_table().memo[(1, 2)] += 1
            return cs
        monkeypatch.setattr(checks, "random_system", draw)
        return next(ok for label, ok in checks.run("orthogonality", 42)
                    if label.startswith("L(x^n Q_m) = 0"))

    assert first_orthogonality_check(corrupt=False) is True
    assert first_orthogonality_check(corrupt=True) is False


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


def test_mu_n_reads_a_n():
    # U^n V^n ends at (n, 0) with weight a_1...a_n, so mu_n needs a_n: a table
    # must reach index n, not n/2, for mu_n.
    for n in range(11):
        top = tuple(("a", i) for i in range(1, n + 1))
        assert mu_symbolic(n).terms[top] == 1
    six = CoeffSystem.from_lists([1] * 6, [1] * 6, [1] * 6)
    assert mu(5, six) == 650
    with pytest.raises(CoeffError, match=r"^coefficient index 6 beyond valid_to=5$"):
        mu(6, six)


def test_the_paths_to_n_0_reach_height_n():
    # V = (0, -1) does not advance x, so U^n V^n ends at (n, 0) at height n
    # with weight a_1...a_n: a fill of the mu row alone (heights up to n/2)
    # would miss it.  test_mu_n_reads_a_n finds that monomial in mu_n.
    for n in range(1, 7):
        tallest = [p.steps for p in enumerate_paths((0, 0), (n, 0)) if max(p.heights()) == n]
        assert tallest == ["U" * n + "V" * n]


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


def test_Vm_series_divides_once_per_level(rng):
    cs = random_system(rng)
    with mock.patch.object(core, "series_from_rational", wraps=core.series_from_rational) as div:
        vm = Vm_series(4, cs, 10)
    assert div.call_count == 4
    assert [vm[n] for n in range(11)] == [nu(n, 4, cs) for n in range(11)]


@pytest.mark.parametrize("table", ["grid", "little_q_jacobi", "laguerre"])
def test_cf_series_is_the_moment_series_without_a_fraction_per_coefficient(table, grid_lists):
    cs = {
        "grid": lambda: CoeffSystem.from_lists(*grid_lists),
        "little_q_jacobi": r1poly.little_q_jacobi(
            Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build,
        "laguerre": r1poly.laguerre(Fraction(9, 7)).build,
    }[table]()
    want = moment_series(cs, 60)
    with no_poly_fractions():
        got = cf_series(cs, 60)
        same = got == want
    assert same and got.order == 60 and got.poly.degree == 60


def test_mu_nml_and_rho_reject_a_negative_n(rng):
    # A negative m or ell raises too, though P_{-1} = 0 would make the answer 0.
    for cs in (random_system(rng), random_system(random.Random(1))):
        ws = WeightSystem(cs)
        for call in (lambda: mu_nml(-1, 2, 1, cs), lambda: rho(-1, 2, 1, cs),
                     lambda: rho(-2, 1, 1, cs), lambda: rho_sum(-2, 1, 1, ws),
                     lambda: rho(0, -1, 1, cs), lambda: rho(1, 2, -1, cs),
                     lambda: mu_nml(0, -1, 1, cs), lambda: rho_sum(0, -1, 1, ws)):
            with pytest.raises(ValueError, match=r"^indices must be >= 0$"):
                call()
        assert P(-1, cs) == Poly()


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_Vm_series_depth_does_not_grow_the_stack(ones):
    # V_150 under a stack limit 100 frames above the caller's: a recursion
    # over the levels would need at least 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        vm = Vm_series(150, ones, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert vm[0] == nu(0, 150, ones) and vm[3] == nu(3, 150, ones)


def test_a_dropped_system_is_freed_without_the_cyclic_gc(rng):
    systems = [random_system(rng), r1poly.laguerre(Fraction(5, 2)).build()]
    for cs in systems:  # fill the mu, nu and P tables
        mu(8, cs)
        nu(4, 4, cs)
        P(8, cs)
    refs = [weakref.ref(cs) for cs in systems]
    gc.disable()
    try:
        del cs, systems
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_dropped_system_and_its_shifted_systems_are_freed_without_the_cyclic_gc():
    cs = r1poly.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    cf_series(cs, 12)
    bounded_gf(1, 3, 5, cs)
    refs = [weakref.ref(system) for system in (cs, cs.shifted(1), cs.shifted(4))]
    gc.disable()
    try:
        del cs
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_velem_equality_up_to_denominator(rng):
    cs = random_system(rng)
    p = Poly([1, 2])
    lifted = p * Poly.linear(cs.a(2), cs.lam(2)) * Poly.linear(cs.a(3), cs.lam(3))
    assert VElem(p, 1, cs) == VElem(lifted, 3, cs)
    assert VElem(p, 1, cs) != VElem(lifted + Poly.const(1), 3, cs)
    other = random_system(rng)
    with pytest.raises(ValueError):
        _ = VElem(p, 1, cs) == VElem(p, 1, other)


def test_velem_times_a_scalar_or_poly_keeps_its_denominator(rng):
    cs = random_system(rng)
    p = Poly([1, 2])
    for c in (3, Fraction(-2, 5), Poly([Fraction(1, 3), 0, -1])):
        for v in (VElem(p, 2, cs) * c, c * VElem(p, 2, cs)):
            assert type(v) is VElem and v.owner is cs
            assert v.denom_index == 2 and v.numerator == p * c
    with pytest.raises(TypeError):
        _ = VElem(p, 2, cs) * "x"


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


def test_L_eval_names_the_degeneracy_the_decomposition_missed():
    # P_1(-lam_1/a_1) = P_1(0) = 0, so Q_1 = P_1/d_1 = 1 and L(Q_1) = 0
    # would contradict L(1) = 1: the system has no functional
    cs = CoeffSystem(lambda n: Fraction(0), lambda n: Fraction(1), lambda n: Fraction(0))
    with pytest.raises(DegeneracyError) as err:
        L_eval(VElem(P(1, cs), 1, cs))
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


def test_poly_cache_limit_names_table_and_request(monkeypatch, ones):
    monkeypatch.setenv("R1_MEMO_LIMIT", "3")
    with pytest.raises(MemoLimitError, match=r"^poly cache: 4 entries > R1_MEMO_LIMIT=3 "
                                             r"\(building P_3 for n=6\)$"):
        P(6, ones)


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_a_bad_memo_limit_is_named(monkeypatch, ones, raw):
    monkeypatch.setenv("R1_MEMO_LIMIT", raw)
    with pytest.raises(ValueError, match=rf"^R1_MEMO_LIMIT must be an integer >= 0, got '{raw}'$"):
        mu(3, ones)


def test_each_coefficient_is_read_once(rng):
    base = random_system(rng)
    reads = Counter()

    def counted(kind, stream):
        def read(n):
            reads[kind, n] += 1
            return stream(n)
        return read

    cs = CoeffSystem(counted("b", base.b), counted("a", base.a), counted("lam", base.lam))
    for step in (lambda: mu(6, cs), lambda: P(4, cs), lambda: nu(3, 2, cs),
                 lambda: mu(12, cs), lambda: P(9, cs), lambda: nu(0, 5, cs),
                 lambda: P(5, shift(cs, 3)), lambda: mu(8, shift(cs, 2))):
        step()
    assert {kind for kind, _ in reads} == {"b", "a", "lam"}
    assert max(reads.values()) == 1


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
    k = next(i for i in range(1, 13) if cs.lam(i) != 0)
    inv = invert(cs)
    for read in (inv.a, inv.lam):
        with pytest.raises(CoeffError, match=f"^lam_{k} != 0"):
            read(k)


def test_invert_checks_every_index_it_reads():
    # lam_15 != 0 lies past any fixed look-ahead, and the inverse still refuses it
    lam = [Fraction(0)] * 20
    lam[15] = Fraction(1, 2)
    inv = invert(CoeffSystem.from_lists([Fraction(2)] * 20, [Fraction(1)] * 20, lam))
    assert inv.a(14) == Fraction(1, 4)
    with pytest.raises(CoeffError, match="^lam_15 != 0"):
        inv.a(15)


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


def test_table_spec_reads_back(rng):
    cs = random_system(rng)  # b, a, lam readable to index 17
    for top, last in ((5, 5), (40, 17)):
        back = coeffs_from_spec(table_spec(cs, top))
        assert back.valid_to == last
        assert [back.b(i) for i in range(last + 1)] == [cs.b(i) for i in range(last + 1)]
        for i in range(1, last + 1):
            assert (back.a(i), back.lam(i)) == (cs.a(i), cs.lam(i))
    assert table_spec(cs, 0) == {"kind": "table", "b": [str(cs.b(0))], "a": ["0"],
                                 "lambda": ["0"]}


def test_d_poly(rng):
    cs = random_system(rng)
    assert d_poly(0, cs) == Poly.const(1)
    assert d_poly(2, cs) == Poly.linear(cs.a(1), cs.lam(1)) * Poly.linear(cs.a(2), cs.lam(2))


def test_d_poly_is_the_product_of_the_linear_factors(rng):
    cs = random_system(rng)
    want = Poly.const(1)
    for m in range(7):
        if m:
            want = want * Poly.linear(cs.a(m), cs.lam(m))
        assert d_poly(m, cs) == want and d_poly(m, cs).degree == m
    assert d_poly(-1, cs) == d_poly(-5, cs) == Poly.const(1)
    short = CoeffSystem.from_lists([1, 2, 3, 4], [0, 2, 3, 5], [0, 1, 1, 2])
    assert d_poly(3, short) == Poly.linear(2, 1) * Poly.linear(3, 1) * Poly.linear(5, 2)
    with pytest.raises(CoeffError, match=r"^coefficient index 4 beyond valid_to=3$"):
        d_poly(4, short)

# -- the nu table against independent computations ------------------------


def _nu_grid(cs, order):
    for n, m in order:
        nu(n, m, cs)
    return cs.nu_table().memo


def test_nu_grid_is_the_same_in_any_fill_order(grid_lists):
    top = 40
    n_outer = [(n, m) for n in range(top + 1) for m in range(top + 1)]
    m_outer = [(n, m) for m in range(top + 1) for n in range(top + 1)]
    shuffled = list(n_outer)
    random.Random(5).shuffle(shuffled)
    memos = [_nu_grid(CoeffSystem.from_lists(*grid_lists), order)
             for order in (n_outer, m_outer, shuffled)]
    assert memos[0] == memos[1] == memos[2]
    cs = CoeffSystem.from_lists(*grid_lists)
    reference = {(0, 0): Fraction(1)}
    for n, m in n_outer:
        _nu_by_recursion(cs, n, m, reference)
    assert memos[0] == reference
    spots = random.Random(1)
    for n, m in [(spots.randint(0, 12), spots.randint(1, 12)) for _ in range(6)]:
        assert memos[0][(n, m)] == reference_L_eval(VElem(Poly.x(n), m, cs))


@pytest.mark.parametrize("table", ["grid", "little_q_jacobi", "laguerre"])
def test_u_row_and_p_at_root_are_the_division_of_P(table, grid_lists):
    build = {
        "grid": lambda: CoeffSystem.from_lists(*grid_lists),
        "little_q_jacobi": r1poly.little_q_jacobi(
            Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build,
        "laguerre": r1poly.laguerre(Fraction(9, 7)).build,
    }[table]
    cs, twin = build(), build()
    roots = cs.nu_table()

    def no_fractions(*args):
        raise AssertionError("a Fraction of a coefficient of P_m was made")

    # the division reads the integers of the stored rows alone
    with mock.patch.object(Poly, "coeffs", property(no_fractions)), \
            mock.patch.object(Poly, "__getitem__", no_fractions):
        got = [(roots.u_row(m), roots.p_at_root(m)) for m in range(1, 41)]
    for m, (u, at_root) in enumerate(got, 1):
        quot, rem = poly_divrem(P(m, twin), Poly.linear(twin.a(m), twin.lam(m)))
        assert u == quot
        assert at_root == rem[0]
    assert len(cs._poly_rows.rows) == 41


def _degenerate_at(k, rng):
    """A random table with P_j(-lam_j/a_j) != 0 for j < k and = 0 at j = k:
    lam_{k-1} puts a root r on P_k, and lam_k = -a_k r."""
    while True:
        b = [random_fraction(rng) for _ in range(k + 4)]
        a = [random_fraction(rng) or Fraction(1) for _ in range(k + 4)]
        lam = [random_fraction(rng) for _ in range(k + 4)]
        r = random_fraction(rng)

        def at_r(j):  # P_j(r) and P_{j-1}(r)
            prev, cur = Fraction(0), Fraction(1)
            for i in range(j):
                prev, cur = cur, (r - b[i]) * cur - ((a[i] * r + lam[i]) * prev if i else 0)
            return cur, prev

        p1, p2 = at_r(k - 1)
        if not p2:
            continue
        lam[k - 1] = (r - b[k - 1]) * p1 / p2 - a[k - 1] * r
        lam[k] = -a[k] * r
        cs = CoeffSystem.from_lists(b, a, lam)
        if all(poly_divrem(P(j, cs), Poly.linear(a[j], lam[j]))[1][0] for j in range(1, k)):
            return b, a, lam


@pytest.mark.parametrize("k", [2, 5, 9])
def test_a_vanishing_root_value_is_the_named_error_at_its_index(k, rng):
    lists = _degenerate_at(k, rng)
    cs = CoeffSystem.from_lists(*lists)
    assert poly_divrem(P(k, cs), Poly.linear(cs.a(k), cs.lam(k)))[1][0] == 0
    for request in (lambda cs: nu(0, k, cs), lambda cs: nu(3, k + 1, cs),
                    lambda cs: L_eval(VElem(Poly.const(1), k, cs)),
                    lambda cs: cs.nu_table().p_at_root(k)):
        fresh = CoeffSystem.from_lists(*lists)
        with pytest.raises(DegeneracyError) as err:
            request(fresh)
        assert err.value.k == k
    fresh = CoeffSystem.from_lists(*lists)
    assert nu(4, k - 1, fresh) == reference_L_eval(VElem(Poly.x(4), k - 1, fresh))
    assert fresh.nu_table().u_row(k) == poly_divrem(P(k, cs), Poly.linear(cs.a(k), cs.lam(k)))[0]


def test_each_call_that_fills_reads_the_memo_limit_once(monkeypatch, rng):
    reads = []
    read = core._memo_limit

    def counting():
        reads.append(1)
        return read()

    monkeypatch.setattr(core, "_memo_limit", counting)
    monkeypatch.setenv("R1_MEMO_LIMIT", "100000")
    cs = random_system(rng, depth=40, nondegenerate_to=12)
    # nu fills mu rows and P rows on the way; the filled prefix and the rows and
    # roots that random_system probed to 12 fill nothing
    for call, want in [(lambda: nu(12, 6, cs), 1), (lambda: mu(30, cs), 1),
                       (lambda: P(25, cs), 1), (lambda: nu(14, 9, cs), 1),
                       (lambda: nu(3, 2, cs), 0), (lambda: mu(20, cs), 0),
                       (lambda: P(7, cs), 0), (lambda: cs.nu_table().p_at_root(9), 0),
                       (lambda: cs.nu_table().u_row(15), 1)]:
        reads.clear()
        call()
        assert len(reads) == want


def test_a_table_is_usable_only_while_its_system_is_alive():
    # the tables reach their system through a weak proxy, so the caller keeps it
    for table in ("mu_table", "nu_table"):
        orphan = getattr(CoeffSystem.from_lists([1] * 8, [1] * 8, [1] * 8), table)()
        with pytest.raises(ReferenceError):
            orphan.value(4, 0)
        cs = CoeffSystem.from_lists([1] * 8, [1] * 8, [1] * 8)
        assert getattr(cs, table)().value(4, 0) == 133  # mu_4 of the all-ones system
