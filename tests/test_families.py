import dataclasses
import math
from fractions import Fraction

import pytest

from r1poly import families
from r1poly.core import CoeffSystem, L_eval, P, VElem, cf_series, moment_series, mu
from r1poly.exactmath import Poly, binomial, pochhammer, qpochhammer
from r1poly.families import (
    FamilyParamError,
    NoClosedForm,
    askey_wilson,
    big_q_jacobi,
    chebyshev_weight,
    chebyshev_weight_hyp,
    constant,
    genthm_check,
    glue_shift_check,
    hermite_egf_polys,
    hermite_linearization_check,
    hermite_moment,
    jacobi01,
    jacobi11,
    laguerre,
    little_q_jacobi,
    meixner,
    q_racah,
    r1_hermite,
    resolve,
    theta,
)

from conftest import ref_chebyshev_weight, ref_theta

A13, B25 = Fraction(1, 3), Fraction(2, 5)
Q12 = Fraction(1, 2)

GLUE_FAMILIES = [
    jacobi11(A13, B25, "minus"),
    jacobi11(A13, B25, "plus"),
    jacobi11(A13, B25, "mixed"),
    jacobi11(Fraction(3, 7), Fraction(-1, 5), "minus"),
    jacobi11(Fraction(3, 7), Fraction(-1, 5), "plus"),
    jacobi01(A13, B25, "oneminus"),
    jacobi01(A13, B25, "xpow"),
    jacobi01(Fraction(5, 2), Fraction(1, 7), "oneminus"),
    laguerre(Fraction(5, 2)),
    laguerre(Fraction(-3, 7)),
    meixner(Fraction(7, 2), Fraction(1, 3)),
    meixner(Fraction(1, 5), Fraction(2, 7)),
    little_q_jacobi(A13, Fraction(2, 7), Q12),
    little_q_jacobi(Fraction(2, 5), Fraction(1, 5), Fraction(1, 3)),
    big_q_jacobi(A13, Fraction(2, 7), Fraction(3, 5), Q12, "bshift"),
    big_q_jacobi(A13, Fraction(2, 7), Fraction(3, 5), Q12, "ashift"),
]


def test_laguerre_coefficient_table():
    cs = laguerre(Fraction(2)).build()
    assert [cs.b(n) for n in range(3)] == [2, 1, 0]
    assert [cs.a(n) for n in (1, 2)] == [1, 2]
    assert all(cs.lam(n) == 0 for n in range(1, 6))


def test_laguerre_moments():
    fam = laguerre(Fraction(5, 2))
    cs = fam.build()
    for k in range(9):
        assert fam.closed_moment(k) == mu(k, cs)
    # mu_2 = (a+1)(a+2) by the path expansion
    a = Fraction(5, 2)
    assert fam.closed_moment(2) == (a + 1) * (a + 2)


def test_meixner_first_moment():
    b, c = Fraction(7, 2), Fraction(1, 3)
    cs = meixner(b, c).build()
    d = c / (1 - c)
    assert mu(1, cs) == b * d
    assert cs.b(0) + cs.a(1) == b * d


@pytest.mark.parametrize("fam", GLUE_FAMILIES, ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_family_orthogonality(fam):
    cs = fam.build()
    for m in range(1, 7):
        for n in range(m):
            assert L_eval(VElem(P(m, cs).shift(n), m, cs)) == 0


@pytest.mark.parametrize("fam", GLUE_FAMILIES, ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_family_closed_moments(fam):
    if fam.moment is None:
        return
    cs = fam.build()
    for k in range(9):
        assert fam.closed_moment(k) == mu(k, cs)


@pytest.mark.parametrize("fam", GLUE_FAMILIES, ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_family_hyp_proportionality(fam):
    cs = fam.build()
    for n in range(5):
        h = fam.hyp_poly(n)
        assert not h.is_zero()
        assert h * (1 / h.leading()) == P(n, cs)
        report = glue_shift_check(fam, n, order=8)
        assert report.proportional
        x = next(x for x in range(n + 1) if h(x))  # h has at most n roots
        assert report.ratio == P(n, cs)(x) / h(x)


@pytest.mark.parametrize("fam", GLUE_FAMILIES, ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_glue_shift_check_reports_a_form_off_by_a_constant(fam):
    broken = dataclasses.replace(fam, hyp=lambda n: fam.hyp_poly(n) + 1)
    for n in range(1, 5):
        assert not glue_shift_check(broken, n, order=8).proportional


@pytest.mark.parametrize("fam", GLUE_FAMILIES, ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_glue_shift_reports_are_the_per_n_checks(fam):
    broken = dataclasses.replace(fam, hyp=lambda n: fam.hyp_poly(n) + 1)
    for f in (fam, broken):
        assert families.glue_shift_reports(f, range(5), order=8) == [
            glue_shift_check(f, n, order=8) for n in range(5)]


@pytest.mark.parametrize("fam", GLUE_FAMILIES, ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_family_series_equality(fam):
    report = glue_shift_check(fam, 2, order=8)
    if report.series_match is None:
        assert fam.moment is None and fam.classical is None
    else:
        assert report.series_match


def test_classical_jfraction_side():
    # the families with printed classical coefficients match their J-fractions
    for fam in (jacobi11(A13, B25, "minus"), laguerre(Fraction(5, 2)),
                meixner(Fraction(7, 2), Fraction(1, 3))):
        B, Lam = fam.classical
        cs = fam.build()
        assert moment_series(cs, 8) == cf_series(CoeffSystem(B, lambda k: 0, Lam), 8)


def test_eval_hyp_degree_zero():
    for fam in GLUE_FAMILIES:
        assert fam.eval_hyp(0, Fraction(1, 2)) == 1


def test_eval_hyp_laguerre_point():
    fam = laguerre(Fraction(3))
    h = fam.hyp_poly(2)
    value = fam.eval_hyp(2, Fraction(1))
    assert value / h.leading() == P(2, fam.build())(1)


def test_catalan_checks():
    j01 = jacobi01(Fraction(1, 2), Fraction(1, 2))
    assert [4**k * j01.closed_moment(k) for k in range(5)] == [1, 2, 5, 14, 42]
    j11c = jacobi11(Fraction(1, 2), Fraction(1, 2))
    assert [4**k * j11c.closed_moment(2 * k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    j11b = jacobi11(Fraction(-1, 2), Fraction(-1, 2))
    assert [4**k * j11b.closed_moment(2 * k) for k in range(5)] == [1, 2, 6, 20, 70]


def test_degenerate_jacobi_build_rejected():
    # a = b = -1/2 zeroes a+b+n+1 at n = 0: reading b_0 names the coefficient
    cs = jacobi11(Fraction(-1, 2), Fraction(-1, 2)).build()
    with pytest.raises(FamilyParamError, match=r"jacobi11\[minus\] b_0 divides by zero$"):
        cs.b(0)


def test_degeneracy_past_any_fixed_depth_is_named():
    # a + b = -30 zeroes a+b+n+1 at n = 29, deeper than any guessed depth
    cs = jacobi11(Fraction(-61, 2), Fraction(1, 2)).build()
    assert mu(28, cs) != 0
    with pytest.raises(FamilyParamError, match=r"^degenerate parameters: jacobi11\[minus\] "
                                               r"a_29 divides by zero$"):
        mu(40, cs)


def test_meixner_validator():
    with pytest.raises(FamilyParamError):
        meixner(Fraction(2), Fraction(1))
    with pytest.raises(FamilyParamError):
        meixner(Fraction(2), Fraction(0))


def test_q_validator():
    with pytest.raises(FamilyParamError):
        little_q_jacobi(A13, B25, Fraction(1))
    with pytest.raises(FamilyParamError):
        little_q_jacobi(Fraction(0), B25, Q12)


def test_little_q_jacobi_moments():
    from r1poly.exactmath import qpochhammer

    a, b, q = A13, Fraction(2, 7), Q12
    fam = little_q_jacobi(a, b, q)
    for k in range(8):
        want = qpochhammer(a * q, q, k) / qpochhammer(a * b * q * q, q, k)
        assert fam.closed_moment(k) == want


def test_no_closed_form_errors():
    aw = askey_wilson(Q12, A13, Fraction(1, 5), Fraction(1, 7), Q12)
    with pytest.raises(NoClosedForm):
        aw.closed_moment(2)
    bq = big_q_jacobi(A13, Fraction(2, 7), Fraction(3, 5), Q12)
    with pytest.raises(NoClosedForm):
        bq.closed_moment(1)
    qr = q_racah(A13, Fraction(1, 5), Fraction(1, 7), 4, Q12)
    with pytest.raises(NoClosedForm):
        qr.closed_moment(1)


def test_askey_wilson_recurrence_vs_4phi3():
    aw = askey_wilson(Q12, A13, Fraction(1, 5), Fraction(1, 7), Q12)
    cs = aw.build()
    for n in range(5):
        h = aw.hyp_poly(n)
        mono = h * (1 / h.leading())
        assert mono == P(n, cs)
        for x in (Fraction(0), Fraction(1), Fraction(-1, 3)):
            assert mono(x) == P(n, cs)(x)


def test_askey_wilson_lambda_symmetry():
    aw1 = askey_wilson(Q12, A13, Fraction(1, 5), Fraction(1, 7), Q12)
    aw2 = askey_wilson(Q12, A13, Fraction(1, 7), Fraction(1, 5), Q12)
    assert all(aw1.coeff_lam(n) == aw2.coeff_lam(n) for n in range(1, 9))


def test_q_racah_recurrence_vs_4phi3():
    qr = q_racah(A13, Fraction(1, 5), Fraction(1, 7), 4, Q12)
    cs = qr.build()
    for n in range(5):
        h = qr.hyp_poly(n)
        mono = h * (1 / h.leading())
        assert mono == P(n, cs)
        for x in (0, 1, 2):
            node = qr.spectral_node(x)
            assert mono(node) == P(n, cs)(node)
    with pytest.raises(FamilyParamError):
        qr.hyp_poly(5)


def test_constant_family():
    fam = constant(Fraction(1), Fraction(1), Fraction(1))
    cs = fam.build()
    assert [mu(n, cs) for n in range(6)] == [1, 2, 7, 29, 133, 650]
    famr = constant(Fraction(2, 3), Fraction(-1, 2), Fraction(3, 4))
    csr = famr.build()
    for n in range(9):
        assert famr.hyp_poly(n) == P(n, csr)
    with pytest.raises(FamilyParamError):
        constant(Fraction(0), Fraction(1), Fraction(1))


@pytest.mark.parametrize("A, B, C", [(Fraction(2, 3), Fraction(-1, 2), Fraction(3, 4)),
                                     (Fraction(-5, 3), Fraction(7, 4), Fraction(-2, 9))])
def test_constant_hyp_is_P_to_degree_40(A, B, C):
    fam = constant(A, B, C)
    cs = fam.build()
    for n in range(41):
        assert fam.hyp_poly(n) == P(n, cs), n
    assert fam.hyp_poly(-1) == Poly()


def test_hermite_egf():
    a = Fraction(2, 3)
    cs = r1_hermite(a).build()
    egf = hermite_egf_polys(8, a)
    for n in range(9):
        assert egf[n] * math.factorial(n) == P(n, cs)


def test_theta_values():
    a = Fraction(2, 3)
    assert theta(0, a) == 1
    assert theta(1, a) == a
    assert theta(2, a) == 1 + 3 * a * a
    cs = r1_hermite(a).build()
    for m in range(9):
        assert theta(m, a) == mu(m, cs)
    # a = 0 recovers the classical even moments
    for n in range(6):
        assert theta(2 * n, Fraction(0)) == hermite_moment(2 * n)
        assert theta(2 * n + 1, Fraction(0)) == 0


def test_theta2_by_paths():
    # theta_2 counts the four height-bounded shapes UD, UVUV, UUVV, UHV
    # with b = 0, a_n = a n, lam_n = n
    a = Fraction(2, 3)
    from r1poly.paths import WeightSystem, weight_sum

    cs = r1_hermite(a).build()
    assert weight_sum((0, 0), (2, 0), WeightSystem(cs)) == 1 + 3 * a * a


def test_chebyshev_weight_forms():
    a = Fraction(2, 3)
    for n in range(10):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-2)):
            assert chebyshev_weight(n, x, a) == chebyshev_weight_hyp(n, x, a)


def test_theta_and_chebyshev_weight_match_the_parity_split_sums():
    for a in (Fraction(2, 3), Fraction(-5, 7), Fraction(0)):
        for n in range(41):
            assert theta(n, a) == ref_theta(n, a), (n, a)
            for x in (Fraction(1, 2), Fraction(-2), Fraction(0)):
                assert chebyshev_weight(n, x, a) == ref_chebyshev_weight(n, x, a), (n, x, a)


def test_genthm():
    assert genthm_check(Fraction(2, 3), 8)
    assert genthm_check(Fraction(-1, 5), 8)


def test_hermite_linearization():
    for n in range(5):
        for m in range(5):
            assert hermite_linearization_check(n, m, Fraction(2, 3))


def test_hermite_linearization_checks_its_expansion(monkeypatch):
    """The expansion of H_n H_m in the P_k must have degree n + m and sum back."""
    expand = families.expand_in_P
    for broken in (lambda p, cs: expand(p, cs)[:-1],
                   lambda p, cs: expand(p, cs) + [Fraction(0)],
                   lambda p, cs: [c + 1 for c in expand(p, cs)]):
        monkeypatch.setattr(families, "expand_in_P", broken)
        assert not hermite_linearization_check(2, 3, Fraction(2, 3))
    monkeypatch.setattr(families, "expand_in_P", expand)
    assert hermite_linearization_check(2, 3, Fraction(2, 3))


def test_resolve_registry():
    fam = resolve("meixner", {"b": Fraction(7, 2), "c": Fraction(1, 3)})
    assert fam.name == "meixner"
    fam = resolve("q_racah", {"b": A13, "c": Fraction(1, 5), "d": Fraction(1, 7),
                              "N": Fraction(4), "q": Q12})
    assert fam.params["N"] == 4
    fam = resolve("jacobi11", {"a": "1/3", "b": 2, "variant": "plus"})
    assert fam.params == {"a": Fraction(1, 3), "b": 2, "variant": "plus"}
    with pytest.raises(ValueError):
        resolve("nope", {})
    with pytest.raises(ValueError, match="N must be an integer, got 9/2"):
        resolve("q_racah", {"b": A13, "c": Fraction(1, 5), "d": Fraction(1, 7),
                            "N": Fraction(9, 2), "q": Q12})


# -- the term-ratio builder against the per-term formulas ------------------
#
# The oracle below sums each hypergeometric form term by term, every
# (q-)Pochhammer symbol and every x-product built from scratch, so a wrong
# term ratio or normalisation in the one-pass builder shows as a different
# Poly, not only as a different proportionality constant.


def _ref_check(den, what):
    if den == 0:
        raise FamilyParamError(f"degenerate parameters: {what} vanishes")


def _ref_2f1(n, upper, lower, arg):
    out = Poly()
    for j in range(n + 1):
        den = pochhammer(lower, j)
        _ref_check(den, f"({lower})_{j}")
        c = pochhammer(Fraction(-n), j) * pochhammer(upper, j) / (den * math.factorial(j))
        out = out + arg**j * c
    return out


def _ref_qsum(n, upper, lower, q, px_factor):
    out = Poly()
    for j in range(n + 1):
        den = qpochhammer(q, q, j)
        for v in lower:
            den *= qpochhammer(v, q, j)
        _ref_check(den, f"denominator at j={j}")
        px = Poly.const(1)
        for i in range(j):
            px = px * px_factor(i)
        coeff = Fraction(1)
        for u in upper:
            coeff *= qpochhammer(u, q, j)
        out = out + px * (coeff / den * q**j)
    return out


def _reference_hyp(fam, n):
    p, name = fam.params, fam.name.split("[")[0]
    if name == "jacobi11":
        a, b, v = p["a"], p["b"], p["variant"]
        lower = {"minus": a - n + 1, "plus": a + 1, "mixed": a - (n + 1) // 2 + 1}[v]
        return _ref_2f1(n, a + b + 1, lower, Poly([Fraction(1, 2), Fraction(-1, 2)]))
    if name == "jacobi01":
        a, b = p["a"], p["b"]
        lower = a + 1 if p["variant"] == "oneminus" else a - n + 1
        return _ref_2f1(n, a + b + 1, lower, Poly.x())
    if name == "laguerre":
        a = p["a"]
        out = Poly()
        for j in range(n + 1):
            den = pochhammer(a - n + 1, j)
            _ref_check(den, f"(a-n+1)_{j}")
            out = out + Poly.x(j) * (pochhammer(Fraction(-n), j) / (den * math.factorial(j)))
        return out
    if name == "meixner":
        b, c = p["b"], p["c"]
        z = 1 - 1 / c
        out = Poly()
        for j in range(n + 1):
            den = pochhammer(b - n, j)
            _ref_check(den, f"(b-n)_{j}")
            px = Poly.const(1)
            for i in range(j):
                px = px * Poly.linear(-1, Fraction(i))
            out = out + px * (pochhammer(Fraction(-n), j) * z**j / (den * math.factorial(j)))
        return out
    q = p["q"]
    if name == "little_q_jacobi":
        a, b = p["a"], p["b"]
        return _ref_qsum(n, [q**-n, a * b * q], [a * q], q, lambda i: Poly.x())
    if name == "big_q_jacobi":
        a, b, c = p["a"], p["b"], p["c"]
        lower1 = a * q if p["variant"] == "bshift" else a * q ** (1 - n)
        return _ref_qsum(n, [q**-n, a * b * q], [lower1, c * q], q,
                         lambda i: Poly.linear(-(q**i), 1))
    if name == "askey_wilson":
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        return _ref_qsum(n, [q**-n, a * b * c * d / q], [a * c, a * d, a * b * q**-n], q,
                         lambda i: Poly([1 + a * a * q ** (2 * i), -2 * a * q**i]))
    assert name == "q_racah"
    b, c, d, N = p["b"], p["c"], p["d"], p["N"]
    return _ref_qsum(n, [q**-n, b * q**-N], [q**-N, b * d * q ** (1 - n), c * q], q,
                     lambda s: Poly([1 + c * d * q ** (1 + 2 * s), -(q**s)]))


REFERENCE_FAMILIES = GLUE_FAMILIES + [
    jacobi11(Fraction(2, 3), Fraction(1, 5), "mixed"),
    jacobi01(Fraction(2, 7), Fraction(1, 3), "xpow"),
    little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(-2, 3)),
    big_q_jacobi(Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(3, 2), "ashift"),
    askey_wilson(Q12, A13, Fraction(1, 5), Fraction(1, 7), Q12),
    askey_wilson(Fraction(2, 3), Fraction(-1, 4), Fraction(1, 3), Fraction(3, 5), Fraction(-1, 3)),
    q_racah(A13, Fraction(1, 5), Fraction(1, 7), 12, Q12),
    q_racah(Fraction(2, 5), Fraction(-1, 3), Fraction(3, 4), 14, Fraction(2, 3)),
]


@pytest.mark.parametrize("fam", REFERENCE_FAMILIES,
                         ids=lambda f: f.name + repr(sorted(f.params.items())))
def test_hyp_poly_equals_per_term_reference(fam):
    for n in range(13):
        assert fam.hyp_poly(n) == _reference_hyp(fam, n), n


def test_jacobi11_closed_moment_equals_binomial_sum():
    for a, b in ((A13, B25), (Fraction(3, 7), Fraction(-1, 5)), (Fraction(-1, 2), Fraction(-1, 2))):
        fam = jacobi11(a, b)
        for k in range(21):
            want = sum(
                binomial(k, s) * Fraction(-2) ** s * pochhammer(a + 1, s) / pochhammer(a + b + 2, s)
                for s in range(k + 1)
            )
            assert fam.closed_moment(k) == want, (a, b, k)


def test_chebyshev_weight_hyp_equals_reference_2f1():
    a = Fraction(3, 7)
    for x in (Fraction(1, 3), Fraction(-2, 5)):
        z = -(a * x) ** 2 / 4
        for m in range(8):
            assert chebyshev_weight_hyp(2 * m, x, a) == _ref_2f1(
                m, Fraction(m + 1), Fraction(1, 2), Poly.const(z))(0)
            assert chebyshev_weight_hyp(2 * m + 1, x, a) == (m + 1) * a * x * _ref_2f1(
                m, Fraction(m + 2), Fraction(3, 2), Poly.const(z))(0)


def test_vanishing_lower_factorial_raises():
    # (a-n+1)_j = (-2)_j vanishes at j = 3 <= 5
    with pytest.raises(FamilyParamError, match=r"^degenerate parameters: \(-2\)_3 vanishes"):
        laguerre(Fraction(2)).hyp_poly(5)
    # (b-n)_j = (-3)_j vanishes at j = 4 <= 5
    with pytest.raises(FamilyParamError, match=r"^degenerate parameters: \(-3\)_4 vanishes"):
        meixner(Fraction(2), Fraction(1, 3)).hyp_poly(5)
    # a + b + 2 = -1: (a+b+2)_s vanishes from s = 2 on
    fam = jacobi11(Fraction(-1, 2), Fraction(-5, 2))
    assert fam.closed_moment(1) == 1 + Fraction(-2) * (Fraction(1, 2)) / (-1)
    with pytest.raises(FamilyParamError, match=r"^degenerate parameters: \(-1\)_2 vanishes"):
        fam.closed_moment(2)
    # (aq;q)_j = (2;1/2)_j vanishes at j = 2
    with pytest.raises(FamilyParamError, match=r"^degenerate parameters: \(2;q\)_2 vanishes"):
        little_q_jacobi(Fraction(4), Fraction(1, 3), Q12).hyp_poly(3)
    # below the vanishing index the forms still build
    assert laguerre(Fraction(2)).hyp_poly(2) == _reference_hyp(laguerre(Fraction(2)), 2)
