import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from r1poly.exactmath import (
    MAX_DEGREE,
    SYM_KINDS,
    Poly,
    Series,
    SymDegreeError,
    SymPoly,
    format_scalar,
    int_row,
    parse_scalar,
    read_scalar,
    pochhammer,
    poly_divrem,
    qpochhammer,
    reduced,
    series_from_rational,
    stirling1,
    stirling2,
)

from conftest import (check_poly_form, check_series, no_poly_fractions, ref_add, ref_eval, ref_mul,
                      ref_poly, ref_poly_str, ref_reverse, ref_series, ref_shift)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small_polys = st.lists(fractions, max_size=8).map(Poly)


@given(fractions, fractions, fractions)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1


def test_scalar_wire_format():
    assert format_scalar(Fraction(-3, 7)) == "-3/7"
    assert format_scalar(Fraction(5)) == "5"
    assert parse_scalar("-3/7") == Fraction(-3, 7)
    assert parse_scalar("5") == Fraction(5)
    # always normalized: gcd 1, positive denominator
    assert format_scalar(Fraction(2, 4)) == "1/2"
    assert format_scalar(Fraction(3, -6)) == "-1/2"


def test_scalar_wire_format_past_the_int_string_limit():
    # a 10^5-digit p over a 10^5-digit q, both far past sys.get_int_max_str_digits()
    value = Fraction(-(7 ** 118_400 + 2), 10 ** 100_000 + 3)
    text = format_scalar(value)
    assert text.startswith("-") and text.endswith("/1" + "0" * 99_999 + "3")
    assert len(text) > 200_000 and read_scalar(text, "wire") == value
    for value in (Fraction(10 ** 5000 + 1, 3), Fraction(-(10 ** 5000))):
        assert read_scalar(format_scalar(value), "wire") == value
    assert format_scalar(Fraction(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert parse_scalar(" +" + "9" * 5000 + " ") == 10 ** 5000 - 1
    long = "1" * 5000
    for bad in (long + "/0", long + ".5", long + "/", "-" + long + "/-3"):
        with pytest.raises(ValueError, match=r"^bad scalar"):
            read_scalar(bad, "wire")


def test_divrem_spec_examples():
    # (x^2 - 1) / (x - 1) = (x + 1, 0)
    q, r = poly_divrem(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert q == Poly([1, 1]) and r.is_zero()
    # (x - 3) / (2x + 5): long division by hand
    q, r = poly_divrem(Poly([-3, 1]), Poly([5, 2]))
    assert q == Poly([Fraction(1, 2)]) and r == Poly([Fraction(-11, 2)])
    # division by the unit polynomial
    p = Poly([2, 0, 5, 1])
    q, r = poly_divrem(p, Poly.const(1))
    assert q == p and r.is_zero()


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divrem(Poly([1, 1]), Poly())


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_divrem_roundtrip(p, q):
    if q.is_zero():
        return
    quot, rem = poly_divrem(p, q)
    assert q * quot + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_poly_degree_multiplicative():
    p, q = Poly([1, 2, 3]), Poly([Fraction(1, 2), 0, 0, 4])
    assert (p * q).degree == p.degree + q.degree


# -- Poly against the plain list-of-Fraction reference in conftest

poly_entries = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    fractions,
    # unrelated large denominators, so the lcm of a row is far past any entry's
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
entry_lists = st.lists(poly_entries, max_size=7)


def check_matches(got, want):
    check_poly_form(got)
    assert list(got.coeffs) == want
    assert got.degree == len(want) - 1


@given(entry_lists, entry_lists, poly_entries, st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=150)
def test_poly_matches_the_fraction_reference(p, q, c, k, pad):
    P, Q = Poly(p), Poly(q)
    p, q = ref_poly(p), ref_poly(q)
    check_matches(P, p)
    check_matches(P + Q, ref_add(p, q))
    check_matches(P - Q, ref_add(p, ref_mul(q, [-1])))
    check_matches(-P, ref_mul(p, [-1]))
    check_matches(P * Q, ref_mul(p, q))
    check_matches(P * c, ref_mul(p, ref_poly([c])))
    check_matches(c * P + 1, ref_add(ref_mul(p, ref_poly([c])), [1]))
    check_matches(P.shift(k), ref_shift(p, k))
    check_matches(P.reversed(len(p) - 1 + pad), ref_reverse(p, len(p) - 1 + pad))
    assert P(c) == ref_eval(p, c) and type(P(c)) is Fraction
    assert [P[i] for i in range(len(p) + 2)] == p + [0, 0]
    assert P == Poly(p + [0] * pad) and hash(P) == hash(Poly(p + [0] * pad))
    assert (P == Q) == (p == q)
    back = Poly.from_row([v * 6 for v in P.numerators] + [0] * pad, -6 * P.denominator)
    check_matches(back, ref_mul(p, [-1]))


@given(entry_lists)
def test_p_plus_minus_p_is_the_empty_row_over_one(p):
    P = Poly(p)
    for zero in (P + (-P), P - P, P * 0, Poly([0] * len(p)), Poly.from_row([0] * len(p), 7)):
        check_poly_form(zero)
        assert zero.numerators == () and zero.denominator == 1
        assert zero == Poly() == 0 and zero.degree == -1 and not zero


def test_zero_polynomial():
    zero = Poly()
    for got in (zero * Poly([1, 2]), zero + zero, zero.shift(3), zero.reversed(2), -zero):
        check_poly_form(got)
        assert got == zero and got.coeffs == ()
    assert zero(Fraction(-3, 7)) == 0 and zero[0] == 0 and str(zero) == "0"
    assert repr(zero) == "Poly([])"
    with pytest.raises(ValueError):
        zero.leading()


def test_poly_stored_form_and_coeffs_made_on_read():
    p = Poly([Fraction(1, 6), -2, Fraction(3, 4), 0])
    assert p.numerators == (2, -24, 9) and p.denominator == 12
    assert p.coeffs == (Fraction(1, 6), Fraction(-2), Fraction(3, 4))
    assert all(type(c) is Fraction for c in p.coeffs) and p.coeffs is not p.coeffs
    assert p.leading() == Fraction(3, 4) and p[1] == -2
    assert repr(p) == "Poly([Fraction(1, 6), Fraction(-2, 1), Fraction(3, 4)])"
    assert str(p) == "1/6 - 2*x + 3/4*x^2"
    with pytest.raises(AttributeError):
        p.numerators = (1,)
    assert Poly.from_row([4, -6, 0, 0], -8) == Poly([Fraction(-1, 2), Fraction(3, 4)])
    assert int_row([Fraction(1, 6), 2, Fraction(-3, 4)]) == ([2, 24, -9], 12)
    assert reduced([4, 6], 10) == ([2, 3], 5) and reduced([4, 6], -2) == ([-2, -3], 1)
    assert reduced([3, 5], 7) == ([3, 5], 7)


# Entries that hit every branch of the term rule: zeros, +-1, and negative and
# large-denominator fractions.  A number past the int string limit is put in
# at a drawn position, since Hypothesis cannot print one.
printed_entries = poly_entries | st.sampled_from([1, -1, Fraction(-1, 10**40 + 7)])
PAST_LIMIT = (10**5000 + 1, Fraction(-(10**5000), 7))


@given(st.lists(printed_entries, max_size=7), st.integers(-1, 6), st.integers(0, 1))
@settings(max_examples=150)
@example([], -1, 0)
@example([1], -1, 0)
@example([-1], -1, 0)
@example([0, 1, 0, -1], -1, 0)
@example([-1, 0, 0, 0, 1], -1, 0)
@example([Fraction(-3, 10**30 + 1), 0, 0, Fraction(5, 2)], -1, 0)
@example([0, 0, 1], 0, 0)
@example([1, 0, 1], 2, 1)
def test_poly_str_matches_the_fraction_reference(p, big_at, which):
    if 0 <= big_at < len(p):
        p = p[:big_at] + [PAST_LIMIT[which]] + p[big_at + 1:]
    assert str(Poly(p)) == ref_poly_str(ref_poly(p))


def test_series_geometric():
    s = series_from_rational(Poly.const(1), Poly([1, -1]), 5)
    assert list(s.coeffs) == [1, 1, 1, 1, 1, 1]
    s = series_from_rational(Poly.const(1), Poly([1, -2]), 3)
    assert list(s.coeffs) == [1, 2, 4, 8]


def test_series_pole_rejected():
    with pytest.raises(ZeroDivisionError):
        series_from_rational(Poly.const(1), Poly([0, 1]), 3)


@given(small_polys, small_polys, st.integers(min_value=0, max_value=10))
@settings(max_examples=60)
def test_series_from_rational_roundtrip(num, den, order):
    if den.is_zero() or den[0] == 0:
        return
    s = series_from_rational(num, den, order)
    back = s * Series.from_poly(den, order)
    assert back == Series.from_poly(num, order)


def test_series_order_mixing_takes_min():
    a = Series([1, 2, 3], 2)
    b = Series([1, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_series_inverse():
    s = Series([2, 1, 1], 4)
    prod = s * s.inverse()
    assert prod == Series([1], 4)
    with pytest.raises(ZeroDivisionError):
        Series([0, 1], 3).inverse()


# -- Series against the Fraction reference in conftest

series_lists = st.lists(poly_entries, max_size=10)  # longer than most orders


@given(series_lists, poly_entries.filter(bool), series_lists, st.integers(0, 8), st.integers(0, 3))
@settings(max_examples=150)
def test_series_from_rational_matches_the_fraction_reference(num, d0, den, order, pad):
    # d0 of either sign; den of degree above the order; trailing zeros in both
    num, den = num + [0] * pad, [d0] + den + [0] * pad
    s = series_from_rational(Poly(num), Poly(den), order)
    check_series(s, ref_series(ref_poly(num), ref_poly(den), order), order)


@given(series_lists, series_lists, poly_entries, st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=150)
def test_series_matches_the_fraction_reference(p, q, c, m, n):
    S, T = Series(p, m), Series(q, n)
    p, q, k = ref_poly(p), ref_poly(q), min(m, n)
    check_series(S, p, m)
    check_series(Series.from_poly(Poly(p), m), p, m)
    check_series(S + T, ref_add(p, q), k)
    check_series(S - T, ref_add(p, ref_mul(q, [-1])), k)
    check_series(-S, ref_mul(p, [-1]), m)
    check_series(S * T, ref_mul(p, q), k)
    check_series(S * c, ref_mul(p, ref_poly([c])), m)
    check_series(c * S + 1, ref_add(ref_mul(p, ref_poly([c])), [1]), m)
    check_series(c - S, ref_add([Fraction(c)], ref_mul(p, [-1])), m)
    assert (S == T) == ((p + [0] * (k + 1))[: k + 1] == (q + [0] * (k + 1))[: k + 1])
    assert S == Series(list(S.coeffs) + [c], m + 1) and S != 1 and S != Poly(p)
    if q and q[0]:
        check_series(T.inverse(), ref_series([Fraction(1)], q[: n + 1], n), n)
    else:
        with pytest.raises(ZeroDivisionError):
            T.inverse()
    for past in (m + 1, -m - 2):
        with pytest.raises(IndexError):
            S[past]


def test_series_of_order_zero():
    check_series(Series([Fraction(-3, 4), 5, 6], 0), [Fraction(-3, 4)], 0)
    check_series(series_from_rational(Poly([2, 1]), Poly([-6, 7, 1]), 0), [Fraction(-1, 3)], 0)
    check_series(Series([5]) * Series([2, 1], 3), [10], 0)
    check_series(Series([0, 0], 1), [], 1)
    assert repr(Series([Fraction(1, 2)], 1)) == "Series([Fraction(1, 2), Fraction(0, 1)], order=1)"
    with pytest.raises(ValueError, match="series order must be >= 0"):
        Series([1, 2], -1)
    with pytest.raises(AttributeError):
        Series([1], 0).order = 3


def test_series_from_rational_makes_no_fraction_per_coefficient():
    cases = [(Poly([Fraction(1, 3), 2, 0, Fraction(-5, 7)]), Poly([Fraction(-2, 9), 1, Fraction(3, 11)]), 12),
             (Poly.const(1), Poly([1, -1]), 5), (Poly(), Poly([Fraction(7, 10**30)]), 3)]
    with no_poly_fractions():
        got = [series_from_rational(num, den, order) for num, den, order in cases]
    for s, (num, den, order) in zip(got, cases):
        check_series(s, ref_series(list(num.coeffs), list(den.coeffs), order), order)


def test_hash_agrees_with_eq():
    short, long, other = Series([1, 2], 1), Series([1, 2, 3], 2), Series([1, 2, 4], 2)
    assert short == long and short == other and long != other  # == is not transitive
    for s in (short, long):
        with pytest.raises(TypeError, match="unhashable"):
            hash(s)
    for scalar in (3, Fraction(-2, 7), 0, Fraction(0)):
        for const in (Poly.const(scalar), SymPoly.const(scalar)):
            assert const == scalar and hash(const) == hash(scalar) and len({const, scalar}) == 1
    assert hash(Poly()) == hash(SymPoly()) == hash(0)
    assert len({Poly([1, 2]), Poly([Fraction(2, 2), 2, 0])}) == 1


def test_a_negative_shift_raises():
    for bad in (lambda: Poly([1, 2]).shift(-1), lambda: Poly.x(-1), lambda: Poly().shift(-3)):
        with pytest.raises(ValueError, match=r"k >= 0"):
            bad()
    assert Poly.x(0) == 1 and Poly.x(2) == Poly([0, 0, 1]) and Poly([1]).shift(0) == 1


def test_pochhammer_values():
    assert pochhammer(Fraction(3, 2), 2) == Fraction(15, 4)
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert qpochhammer(1, Fraction(1, 2), 3) == 0
    assert qpochhammer(Fraction(1, 3), Fraction(1, 2), 2) == Fraction(2, 3) * Fraction(5, 6)


def _set_partitions(n):
    """Every partition of range(n) into blocks, each block a list."""
    if n == 0:
        yield []
        return
    for part in _set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1:]
        yield part + [[n - 1]]


def _cycle_count(perm):
    seen = set()
    count = 0
    for start in range(len(perm)):
        count += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return count


def test_stirling_numbers_count_cycles_and_blocks():
    for n in range(8):
        cycles = Counter(_cycle_count(p) for p in itertools.permutations(range(n)))
        blocks = Counter(len(part) for part in _set_partitions(n))
        for k in range(-2, n + 3):
            assert stirling1(n, k) == cycles[k], (n, k)
            assert stirling2(n, k) == blocks[k], (n, k)


def test_stirling2_small_table():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling2(0, 0) == 1
    assert stirling2(5, 7) == 0


def test_stirling1_expands_the_rising_factorial():
    assert [stirling1(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert stirling1(0, 0) == 1 and stirling1(3, 5) == 0 and stirling1(3, -1) == 0
    x = Fraction(3, 7)
    for n in range(9):
        assert sum(stirling1(n, k) * x**k for k in range(n + 1)) == pochhammer(x, n)


def test_sympoly_display_and_zero_pruning():
    expr = SymPoly.b(0) * SymPoly.b(0) + 2 * SymPoly.a(1) * SymPoly.b(0)
    assert str(expr) == "b0^2 + 2*b0*a1"
    b85, a85, b100 = SymPoly.b(85), SymPoly.a(85), SymPoly.b(100)  # codes 255, 256, 300
    expr = b85 * a85 - 2 * b100 * b100 + b85 * b85 * b100 + b85 * b100 * b100 - 1
    assert str(expr) == "-1 + b85*a85 - 2*b100^2 + b85^2*b100 + b85*b100^2"
    assert [str(SymPoly.const(c)) for c in (0, 1, -1, Fraction(-3, 7))] == ["0", "1", "-1", "-3/7"]
    assert str(SymPoly.const(10**5000)) == "1" + "0" * 5000
    cancel = SymPoly.b(1) - SymPoly.b(1)
    assert cancel.is_zero() and not cancel.terms
    with pytest.raises(ValueError, match="unknown symbol kind 'x'"):
        SymPoly({(("b", 0), ("x", 1)): 1})


@given(st.integers(-10**30, 10**30) | fractions | st.integers(-50, 50).map(lambda p: Fraction(p, 1))
       | st.sampled_from([0, Fraction(0)]))
def test_sympoly_const_matches_the_general_constructor(c):
    fast, general = SymPoly.const(c), SymPoly({(): c})
    assert fast == general and hash(fast) == hash(general) and fast._deg == general._deg == 0
    assert [(k, type(v), v) for k, v in fast._terms.items()] == [
        (k, type(v), v) for k, v in general._terms.items()]
    with pytest.raises(TypeError):
        SymPoly.const(0.5)


symbols = st.sampled_from(
    [SymPoly.b(0), SymPoly.b(1), SymPoly.a(1), SymPoly.a(2), SymPoly.lam(1)]
)
sym_exprs = st.recursive(
    symbols | fractions.map(SymPoly.const),
    lambda children: st.tuples(children, children).map(lambda t: t[0] + t[1])
    | st.tuples(children, children).map(lambda t: t[0] * t[1]),
    max_leaves=8,
)


@given(sym_exprs, sym_exprs, sym_exprs)
@settings(max_examples=40)
def test_sympoly_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x


@given(sym_exprs, sym_exprs, st.integers(0, 2**30))
@settings(max_examples=40)
def test_sympoly_evaluation_homomorphism(x, y, seed):
    import random

    rng = random.Random(seed)
    values = {}

    def assign(kind, idx):
        return values.setdefault((kind, idx), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    assert (x + y).evaluate(assign) == x.evaluate(assign) + y.evaluate(assign)
    assert (x * y).evaluate(assign) == x.evaluate(assign) * y.evaluate(assign)


# Differential test of SymPoly's fast paths (trusted construction, the
# one-symbol multiply, fraction-free evaluate) against plain references:
# raw dicts normalised by the public constructor, and Fraction products.
# Indices reach 12 so that 9 < 10 ordering is exercised.
raw_symbols = st.tuples(st.sampled_from(SYM_KINDS), st.integers(0, 12))
coeffs = st.integers(-5, 5) | fractions
raw_terms = st.dictionaries(st.lists(raw_symbols, max_size=4).map(tuple), coeffs, max_size=6)
one_symbol = st.tuples(raw_symbols, coeffs).map(lambda t: {(t[0],): t[1]})
sym_polys = (raw_terms | one_symbol).map(SymPoly)


def _ref_sum(*term_dicts):
    raw = {}
    for terms in term_dicts:
        for mono, c in terms.items():
            raw[mono] = raw.get(mono, 0) + c
    return SymPoly(raw)


def _ref_product(x, y):
    raw = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            raw[m1 + m2] = raw.get(m1 + m2, 0) + c1 * c2
    return SymPoly(raw)


def _assert_canonical(p):
    def plain_key(sym):  # index first, then b < a < lam
        return (sym[1], SYM_KINDS.index(sym[0]))

    for mono, c in p.terms.items():
        assert mono == tuple(sorted(mono, key=plain_key))
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0


@given(sym_polys, sym_polys, st.dictionaries(raw_symbols, coeffs))
@settings(max_examples=150)
def test_sympoly_fast_paths_match_reference(x, y, values):
    negated = SymPoly({m: -c for m, c in y.terms.items()})
    cases = [
        (x, SymPoly(dict(x.terms))),
        (y, SymPoly(dict(y.terms))),
        (x + y, _ref_sum(x.terms, y.terms)),
        (x - y, _ref_sum(x.terms, negated.terms)),
        (-y, negated),
        (x * y, _ref_product(x, y)),
        (y * x, _ref_product(x, y)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got == want and str(got) == str(want) and hash(got) == hash(want)

    def assign(kind, i):
        return values.get((kind, i), i - 4)

    for p, _ in cases:
        want = Fraction(0)
        for mono, c in p.terms.items():
            prod = Fraction(c)
            for kind, i in mono:
                prod *= Fraction(assign(kind, i))
            want += prod
        got = p.evaluate(assign)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("make", [
    lambda: SymPoly.b(-1),
    lambda: SymPoly.symbol("a", 1.5),
    lambda: SymPoly.lam("2"),
    lambda: SymPoly.a(True),
    lambda: SymPoly({(("b", 0), ("lam", -3)): 1}),
])
def test_sympoly_rejects_indices_that_cannot_be_packed(make):
    with pytest.raises(ValueError, match=r"^symbol index must be an int >= 0, got "):
        make()


def _fraction_value(p, assign):
    """p at a point, summed term by term over Fractions."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        prod = Fraction(c)
        for kind, i in mono:
            prod *= Fraction(assign(kind, i))
        total += prod
    return total


def _power(kind, index, e):
    return ((kind, index),) * e


def test_sympoly_degree_at_the_field_limit():
    # 255 is the largest exponent one 8-bit field holds; b0^255 fills field 0.
    assert MAX_DEGREE == 255
    x = SymPoly({_power("b", 0, 128): 1, _power("a", 1, 128): 2})
    y = SymPoly({_power("b", 0, 127): 1, _power("a", 1, 127): Fraction(-1, 3)})
    top = x * y
    assert top == _ref_product(x, y)
    assert top.terms == {
        _power("b", 0, 255): 1,
        _power("b", 0, 128) + _power("a", 1, 127): Fraction(-1, 3),
        _power("b", 0, 127) + _power("a", 1, 128): 2,
        _power("a", 1, 255): Fraction(-2, 3),
    }
    assert str(top) == "b0^255 - 1/3*b0^128*a1^127 + 2*b0^127*a1^128 - 2/3*a1^255"
    point = {("b", 0): Fraction(-3, 2), ("a", 1): Fraction(5, 7)}
    assign = lambda kind, i: point[(kind, i)]  # noqa: E731
    assert top.evaluate(assign) == _fraction_value(top, assign)
    assert top.evaluate(assign) == x.evaluate(assign) * y.evaluate(assign)
    assert (3 * SymPoly({_power("lam", 12, 255): 1})).terms == {_power("lam", 12, 255): 3}


@pytest.mark.parametrize("make", [
    lambda b0_255: b0_255 * SymPoly.b(0),  # field 0 would carry into a0
    lambda b0_255: SymPoly.a(1) * b0_255,
    lambda b0_255: b0_255 * (SymPoly.b(0) + SymPoly.a(3)),
    lambda b0_255: SymPoly({_power("b", 0, 128): 1}) * SymPoly({_power("a", 2, 128): 1}),
    lambda b0_255: SymPoly({_power("b", 0, 256): 1}),
])
def test_sympoly_one_degree_past_the_limit_raises(make):
    b0_255 = SymPoly({_power("b", 0, 255): 1})
    with pytest.raises(SymDegreeError, match=r"^SymPoly total degree 256 exceeds MAX_DEGREE=255$"):
        make(b0_255)
    assert b0_255.terms == {_power("b", 0, 255): 1}


def _ref_str(p):
    """The display of p from its tuple terms: by degree, then by the sorted
    (index, kind rank) keys, each run of one symbol as a power."""
    def order(mono):
        return len(mono), tuple((i, SYM_KINDS.index(kind)) for kind, i in mono)

    parts = []
    for mono in sorted(p.terms, key=order):
        runs = []
        for sym in mono:
            if runs and runs[-1][0] == sym:
                runs[-1][1] += 1
            else:
                runs.append([sym, 1])
        text = "*".join(f"{k}{i}" + (f"^{e}" if e > 1 else "") for (k, i), e in runs)
        c = p.terms[mono]
        if not text:
            parts.append(str(c))
        else:
            parts.append(text if c == 1 else "-" + text if c == -1 else f"{c}*{text}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


# Monomials with several powers per symbol: up to four symbols with indices
# to 12, each to an exponent up to 7.
powered_monos = st.dictionaries(raw_symbols, st.integers(1, 7), max_size=4).map(
    lambda exps: tuple(sym for sym, e in exps.items() for _ in range(e)))
powered_polys = st.dictionaries(powered_monos, coeffs, max_size=5).map(SymPoly)


@given(powered_polys, powered_polys, powered_polys, st.dictionaries(raw_symbols, coeffs))
@settings(max_examples=100)
def test_sympoly_powers_match_reference(x, y, z, values):
    def assign(kind, i):
        return values.get((kind, i), Fraction(i - 4, 3))

    cases = [(x * y, _ref_product(x, y)), (x * y * z, _ref_product(_ref_product(x, y), z)),
             (x + y - z, _ref_sum(x.terms, y.terms, (-z).terms)),
             (x**2, _ref_product(x, x)), (x**0, SymPoly.const(1))]
    for got, want in cases:
        _assert_canonical(got)
        assert got == want and str(got) == str(want) == _ref_str(want)
        assert got.evaluate(assign) == _fraction_value(want, assign)


# Indices to 120 put codes past 255 and keys past 32 bytes; each exponent
# vector comes with a permutation of itself, so terms of one degree meet.
wide_symbols = st.tuples(st.sampled_from(SYM_KINDS), st.integers(0, 120))
wide_coeffs = st.sampled_from([1, -1]) | coeffs


@st.composite
def wide_polys(draw):
    syms = draw(st.lists(wide_symbols, min_size=1, max_size=4, unique=True))
    exps = st.lists(st.integers(0, 100), min_size=len(syms), max_size=len(syms)).filter(
        lambda e: sum(e) <= MAX_DEGREE)
    terms = {}
    for e in draw(st.lists(exps, max_size=6)):
        for perm in (e, draw(st.permutations(e))):
            terms[tuple(s for s, k in zip(syms, perm) for _ in range(k))] = draw(wide_coeffs)
    return SymPoly(terms)


@given(wide_polys())
@settings(max_examples=150)
def test_sympoly_str_matches_reference_past_code_255(p):
    assert str(p) == _ref_str(p)


def test_sympoly_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(2024)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple((rng.choice(SYM_KINDS), rng.randint(0, 12))
                         for _ in range(rng.randint(0, 6)))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return SymPoly(terms)

    def to_sympy(p):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(sympy.Symbol(f"{k}{i}") for k, i in mono))
                           for mono, c in p.terms.items()))

    for _ in range(40):
        x, y = random_poly(), random_poly()
        got = x * y
        want = sympy.expand(to_sympy(x) * to_sympy(y))
        gens = sorted(want.free_symbols | to_sympy(got).free_symbols, key=str)
        if not gens:
            assert to_sympy(got) == want
            continue
        ours = sympy.Poly(to_sympy(got), *gens).as_dict()
        theirs = sympy.Poly(want, *gens).as_dict()
        assert ours == theirs and len(ours) == len(got.terms)
