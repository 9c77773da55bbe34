import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r1poly.checks import random_system
from r1poly.core import CoeffSystem, mu, mu_symbolic
from r1poly.exactmath import Series, SymPoly, series_from_rational
from r1poly.paths import (
    Path,
    PathOverflowError,
    WeightSystem,
    bounded_gf,
    column_sums,
    enumerate_paths,
    finite_cf_rational,
    rho_sum,
    rho_sums,
    symbolic_weights,
    weight_sum,
)

from conftest import gate_at_zero, ref_column_sums, ref_rho_sum, tables


def test_empty_path():
    found = enumerate_paths((0, 0), (0, 0))
    assert len(found) == 1 and found[0].steps == ""


def test_counts_match_series():
    assert [len(enumerate_paths((0, 0), (n, 0))) for n in range(6)] == [1, 2, 7, 29, 133, 650]


def test_two_step_paths_explicit():
    got = {p.steps for p in enumerate_paths((0, 0), (2, 0))}
    assert got == {"HH", "UD", "UVH", "HUV", "UVUV", "UHV", "UUVV"}


def test_enumeration_is_lexicographic():
    steps = [p.steps for p in enumerate_paths((0, 0), (2, 0))]
    order = {"U": 0, "H": 1, "V": 2, "D": 3}
    keys = [[order[s] for s in seq] for seq in steps]
    assert keys == sorted(keys)


def test_enumeration_cap_overflow():
    with pytest.raises(PathOverflowError):
        enumerate_paths((0, 0), (5, 0), cap=10)


def test_path_text_roundtrip():
    p = Path((0, 3), "UUDVH")
    assert str(p) == "start=(0,3) UUDVH"
    assert Path.parse(str(p)) == p
    assert p.end == (4, 3)


def test_path_validation():
    with pytest.raises(ValueError):
        Path((0, 0), "V")
    with pytest.raises(ValueError):
        Path((0, 0), "UX")


def test_figure_weight():
    # the 13-step illustration starting at height 3 with weight
    # a2^4 a3 b0 b1 b2^2 lam1^2 lam3
    p = Path((0, 3), "VVDUUVDHUUUDHVUHVH")
    assert p.end == (13, 1)
    ws = symbolic_weights()
    want = (
        SymPoly.a(2) * SymPoly.a(2) * SymPoly.a(2) * SymPoly.a(2) * SymPoly.a(3)
        * SymPoly.b(0) * SymPoly.b(1) * SymPoly.b(2) * SymPoly.b(2)
        * SymPoly.lam(1) * SymPoly.lam(1) * SymPoly.lam(3)
    )
    assert p.weight(ws) == want


def test_symbolic_first_moments():
    ws = symbolic_weights()
    assert weight_sum((0, 0), (1, 0), ws) == SymPoly.b(0) + SymPoly.a(1)
    b0, b1 = SymPoly.b(0), SymPoly.b(1)
    a1, a2 = SymPoly.a(1), SymPoly.a(2)
    l1 = SymPoly.lam(1)
    mu2 = b0 * b0 + l1 + 2 * a1 * b0 + a2 * a1 + b1 * a1 + a1 * a1
    assert weight_sum((0, 0), (2, 0), ws) == mu2


def test_symbolic_path_sum_is_mu_9(rng):
    # Three ways to mu_9 (14,269 terms): the path DP and the mu kernel over
    # the symbols, and the numeric moment of a random rational system.
    path_sum = weight_sum((0, 0), (9, 0), symbolic_weights())
    moment = mu_symbolic(9)
    assert path_sum == moment and len(moment.terms) == 14269
    cs = random_system(rng)

    def assign(kind, i):
        return {"b": cs.b, "a": cs.a, "lam": cs.lam}[kind](i)

    assert path_sum.evaluate(assign) == moment.evaluate(assign) == mu(9, cs)


def test_up_only_weights_vanish():
    zero = CoeffSystem(lambda n: Fraction(0), lambda n: Fraction(0), lambda n: Fraction(0))
    ws = WeightSystem(zero)
    assert weight_sum((0, 0), (0, 0), ws) == 1
    for n in range(1, 5):
        assert weight_sum((0, 0), (n, 0), ws) == 0


def test_dp_equals_enumeration(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n in range(8):
        for m in range(n + 1):
            brute = sum(
                (p.weight(ws) for p in enumerate_paths((0, 0), (n, m))), Fraction(0)
            )
            assert brute == weight_sum((0, 0), (n, m), ws)


def test_dp_equals_enumeration_capped(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n in range(6):
        for k in range(4):
            brute = sum(
                (p.weight(ws) for p in enumerate_paths((0, 0), (n, 0), max_height=k)),
                Fraction(0),
            )
            assert brute == weight_sum((0, 0), (n, 0), ws, max_height=k)


def test_high_cap_is_no_cap(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n in range(7):
        for start in ((0, 0), (0, 2)):
            cap = n + max(start[1], 0)
            assert weight_sum(start, (n, 0), ws, max_height=cap) == weight_sum(
                start, (n, 0), ws
            )


def test_schroeder_reduction():
    # lam = 0 kills diagonal steps; the survivors are counted by the large
    # Schroeder numbers under the usual double-horizontal correspondence
    got = [
        sum(1 for p in enumerate_paths((0, 0), (n, 0)) if "D" not in p.steps)
        for n in range(6)
    ]
    assert got == [1, 2, 6, 22, 90, 394]


def test_rho_reduces_to_moments(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n in range(6):
        assert rho_sum(n, 0, 0, ws) == weight_sum((0, 0), (n, 0), ws)


def test_rho_symbolic_examples():
    ws = symbolic_weights()
    a1, a2, a3 = SymPoly.a(1), SymPoly.a(2), SymPoly.a(3)
    b1, b2 = SymPoly.b(1), SymPoly.b(2)
    l1, l2 = SymPoly.lam(1), SymPoly.lam(2)
    # the worked product L(P_1 P_1); the displayed sum omits the path VUV
    # whose weight is a1^2 (cross-checked against mu_2 - 2 b0 mu_1 + b0^2)
    assert rho_sum(0, 1, 1, ws) == a1 * a2 + a1 * b1 + l1 + a1 * a1
    want = (a1 * a1 * a2 + a1 * a2 * a2 + a1 * a2 * a3 + a1 * a2 * b1
            + a1 * a2 * b2 + a2 * l1 + a1 * l2)
    assert rho_sum(0, 2, 1, ws) == want


def test_rho_brute_force(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for n, m, ell in itertools.product(range(4), repeat=3):
        brute = Fraction(0)
        for p in enumerate_paths((0, m), (n + ell, 0)):
            if all(s in "VD" for s in p.steps[len(p.steps) - ell:]):
                brute += p.weight(ws)
        assert brute == rho_sum(n, m, ell, ws)


def test_rho_one_walk_matches_the_per_suffix_sums(rng):
    rational = WeightSystem(random_system(rng, depth=24))
    for n, m, ell in itertools.product(range(5), range(4), range(5)):
        assert rho_sum(n, m, ell, rational) == ref_rho_sum(n, m, ell, rational)
    for n, m, ell in itertools.product(range(3), range(3), range(3)):
        got = rho_sum(n, m, ell, symbolic_weights())
        assert got == ref_rho_sum(n, m, ell, symbolic_weights())
        assert isinstance(got, SymPoly)


@settings(max_examples=60, deadline=None)
@given(tables(16), st.booleans(), st.integers(0, 3), st.integers(0, 5),
       st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True),
       st.lists(st.integers(0, 6), min_size=1, max_size=4),
       st.one_of(st.none(), st.integers(0, 4)))
def test_column_sums_are_the_per_endpoint_sums(lists, gated, x0, y0, offsets, heights, cap):
    """One walk read at many endpoints gives each endpoint's own walk's
    Fraction, under height caps 0..4 and past the gate; a start or a
    height above the cap reads zero."""
    xs = [x0 + dx for dx in sorted(offsets)]
    with gate_at_zero(gated):
        got = column_sums((x0, y0), xs, heights, WeightSystem(CoeffSystem.from_lists(*lists)), cap)
        want = ref_column_sums((x0, y0), xs, heights,
                               WeightSystem(CoeffSystem.from_lists(*lists)), cap)
    assert got == want
    assert all(type(v) is Fraction for row in got for v in row)


@settings(max_examples=40, deadline=None)
@given(tables(16), st.booleans(), st.integers(0, 4),
       st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_rho_sums_are_the_per_endpoint_sums(lists, gated, m, ns, ells):
    ns = sorted(ns)
    with gate_at_zero(gated):
        got = rho_sums(m, ns, ells, WeightSystem(CoeffSystem.from_lists(*lists)))
        ws = WeightSystem(CoeffSystem.from_lists(*lists))
        want = [[ref_rho_sum(n, m, ell, ws) for ell in ells] for n in ns]
    assert got == want


def test_column_sums_on_symbolic_weights():
    ws = symbolic_weights()
    assert column_sums((0, 1), range(5), range(4), ws) == ref_column_sums(
        (0, 1), range(5), range(4), ws)


def test_column_sums_rejects_a_negative_height_and_a_column_behind_the_walk(ones):
    ws = WeightSystem(ones)
    with pytest.raises(ValueError):
        column_sums((0, 0), range(3), (0, -1), ws)
    with pytest.raises(ValueError):
        column_sums((2, 0), (1, 3), (0,), ws)
    with pytest.raises(ValueError):
        column_sums((0, 0), (3, 2), (0,), ws)


def test_bounded_gf_base_case(ones):
    # only horizontal steps fit under height 0: 1/(1 - b_0 x)
    num, den, pre = bounded_gf(0, 0, 0, ones)
    assert num.coeffs == (1,) and pre.coeffs == (1,)
    assert den.coeffs == (1, -1)


def test_bounded_gf_all_ones_series(ones):
    # frozen from the height-capped DP oracle (k = 1)
    num, den, pre = bounded_gf(0, 0, 1, ones)
    s = series_from_rational(num * pre, den, 4)
    ws = WeightSystem(ones)
    oracle = [weight_sum((0, 0), (n, 0), ws, max_height=1) for n in range(5)]
    assert oracle == [1, 2, 6, 18, 54]
    assert list(s.coeffs) == oracle


def test_bounded_gf_r0_s1(ones):
    num, den, pre = bounded_gf(0, 1, 1, ones)
    assert pre.coeffs == (0, 1)  # the x^{s-r} factor
    s = series_from_rational(num * pre, den, 8)
    ws = WeightSystem(ones)
    assert all(s[n] == weight_sum((0, 0), (n, 1), ws, max_height=1) for n in range(9))


def test_bounded_gf_matches_dp_everywhere(rng):
    cs = random_system(rng)
    ws = WeightSystem(cs)
    for k in range(5):
        for r in range(k + 1):
            for s in range(k + 1):
                num, den, pre = bounded_gf(r, s, k, cs)
                gf = series_from_rational(num * pre, den, 12)
                dp = Series(
                    [weight_sum((0, r), (n, s), ws, max_height=k) for n in range(13)], 12
                )
                assert gf == dp, (k, r, s)


def test_finite_cf_equals_bounded_gf(rng):
    cs = random_system(rng)
    for k in range(6):
        num, den, pre = bounded_gf(0, 0, k, cs)
        n2, d2 = finite_cf_rational(k, cs)
        assert num * pre * d2 == n2 * den


def test_bounded_gf_bad_indices(ones):
    with pytest.raises(ValueError):
        bounded_gf(2, 0, 1, ones)
