"""Explicit coefficient families from the Askey scheme, with closed forms.

Each constructor returns a ``FamilySpec`` bundling:

  * the recurrence coefficient streams (b_n, a_n, lam_n),
  * a closed-form moment k -> mu_k where one is known,
  * the terminating (q-)hypergeometric polynomial the recurrence must be
    proportional to (``hyp_poly``), built exactly as a Poly in x,
  * optionally the classical comparison coefficients (B_n, Lam_n) whose
    J-fraction has the same moment series.

Constructors reject only parameters that break every index (q in {0, +-1},
Meixner c in {0, 1}, ...).  Everything else is checked where a coefficient
is read: ``build()`` turns a closed form that divides by zero at index n
into ``FamilyParamError`` naming the coefficient, and a_n = 0 is an error
only where the theory divides by a_n, as for any other system.

All parameters, including q, are exact rationals.  Proportionality
constants between the monic recurrence polynomials and the hypergeometric
forms are recovered from leading coefficients, never derived symbolically.

Every terminating (q-)hypergeometric sum, hyp form or Jacobi moment, comes
from one builder, ``_terminating``: each term is the previous one times its
term ratio (Gasper-Rahman, Basic Hypergeometric Series, 1.2), the x-part is
a running product, and a vanishing lower factorial is a ``FamilyParamError``.

The deformed-Hermite material lives here too: the theta moments (binomial
sums over classical Hermite moments), their Chebyshev-kernel form, the
two-sided generating function identity, and the product linearization with
the (1 + a x)^s factor.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import CoeffSystem, P, cf_series, expand_in_P, moment_series, mu
from .exactmath import (
    Poly,
    Scalar,
    ScalarLike,
    Series,
    as_scalar,
    binomial,
    pochhammer,
    qpochhammer,
    read_scalar,
    stirling2,
)


class FamilyParamError(ValueError):
    """Named parameter degeneracy: a required denominator vanishes."""


class NoClosedForm(ValueError):
    """The family records no closed moment formula."""


@dataclass(frozen=True)
class FamilySpec:
    """A named coefficient family with its closed forms."""

    name: str
    params: dict
    coeff_b: Callable[[int], Scalar]
    coeff_a: Callable[[int], Scalar]
    coeff_lam: Callable[[int], Scalar]
    moment: Callable[[int], Scalar] | None = None
    hyp: Callable[[int], Poly] | None = None
    classical: tuple[Callable[[int], Scalar], Callable[[int], Scalar]] | None = None
    valid_to: int | None = None
    spectral_node: Callable[[int], Scalar] | None = None

    def build(self, depth: int | None = None) -> CoeffSystem:
        """The family's recurrence system.  A coefficient whose closed form
        divides by zero raises ``FamilyParamError`` when it is first read.

        ``depth`` is ignored: coefficients are checked where they are read.
        It is accepted only so that callers which still pass one keep working.
        """

        def guard(stream: Callable[[int], Scalar], coeff: str) -> Callable[[int], Scalar]:
            def read(n: int) -> Scalar:
                try:
                    return stream(n)
                except ZeroDivisionError:
                    raise FamilyParamError(
                        f"degenerate parameters: {self.name} {coeff}_{n} divides by zero"
                    ) from None
            return read

        return CoeffSystem(
            guard(self.coeff_b, "b"), guard(self.coeff_a, "a"), guard(self.coeff_lam, "lam"),
            valid_to=self.valid_to, name=self.name,
        )

    def closed_moment(self, k: int) -> Scalar:
        if self.moment is None:
            raise NoClosedForm(f"no closed form recorded for {self.name} moments")
        return self.moment(k)

    def hyp_poly(self, n: int) -> Poly:
        """The family's terminating hypergeometric form as an exact Poly."""
        if self.hyp is None:
            raise NoClosedForm(f"no hypergeometric form recorded for {self.name}")
        return self.hyp(n)

    def eval_hyp(self, n: int, x: ScalarLike) -> Scalar:
        return self.hyp_poly(n)(as_scalar(x))


def _nonzero(value: Scalar, what: str):
    if value == 0:
        raise FamilyParamError(f"degenerate parameters: {what} vanishes")


def _terminating(
    n: int, upper: Sequence[Scalar], lower: Sequence[Scalar], z: Scalar,
    factor: Callable[[int], Poly] | None = None, q: Scalar | None = None,
) -> Scalar | Poly:
    """sum_{j<=n} prod (u)_j / (prod (l)_j j!) z^j prod_{i<j} factor(i) in one pass: each
    coefficient is the previous one times the term ratio, and ``factor`` folds into a
    running product (without it the sum is a scalar).  With q: (u;q)_j, (l;q)_j, (q;q)_j.
    """
    def step(v: Scalar, j: int) -> Scalar:  # (v)_{j+1} / (v)_j, or its q-analogue
        return v + j if q is None else 1 - v * q**j

    one = Fraction(1)
    coeff, prod = one, (one if factor is None else Poly.const(1))
    out = prod
    for j in range(n):
        ratio = as_scalar(z)
        for u in upper:
            ratio *= step(u, j)
        for v in (*lower, one if q is None else q):
            den = step(v, j)
            if den == 0:
                what = f"({v})_{j + 1}" if q is None else f"({v};q)_{j + 1}"
                raise FamilyParamError(f"degenerate parameters: {what} vanishes in a denominator")
            ratio /= den
        coeff *= ratio
        if factor is not None:
            prod = prod * factor(j)
        out = out + prod * coeff
    return out


# -- Jacobi on [-1, 1] ---------------------------------------------------


def jacobi11(a: ScalarLike, b: ScalarLike, variant: str = "minus") -> FamilySpec:
    """Jacobi weight (1-x)^a (1+x)^b on [-1,1].

    variant "minus" inserts (1-x) into the denominator (shifts a),
    "plus" inserts (1+x) (shifts b), "mixed" alternates the two.
    """
    a, b = as_scalar(a), as_scalar(b)
    if variant not in ("minus", "plus", "mixed"):
        raise ValueError(f"unknown jacobi11 variant {variant!r}")

    if variant == "minus":
        def lam(n):
            return 2 * n * (n + b) / ((a + b + n) * (a + b + n + 1))

        coeff_b = lambda n: (b - a + 3 * n + 1) / (a + b + n + 1)
        coeff_a = lambda n: -lam(n)
        hyp_lower = lambda n: a - n + 1
    elif variant == "plus":
        # Reflection x -> -x of the "minus" variant with a and b swapped.
        def lam(n):
            return 2 * n * (n + a) / ((a + b + n) * (a + b + n + 1))

        coeff_b = lambda n: (b - a - 3 * n - 1) / (a + b + n + 1)
        coeff_a = lam
        hyp_lower = lambda n: a + 1
    else:
        def lam(n):
            base = Fraction(2 * n) / ((a + b + n) * (a + b + n + 1))
            return base * (a + Fraction(n, 2)) if n % 2 == 0 else base * (b + Fraction(n + 1, 2))

        coeff_b = lambda n: (b - a + 1) / (a + b + n + 1) if n % 2 == 0 else (b - a) / (a + b + n + 1)
        coeff_a = lambda n: lam(n) if n % 2 == 0 else -lam(n)
        hyp_lower = lambda n: a - (n + 1) // 2 + 1

    def moment(k: int) -> Scalar:
        # sum_s C(k,s) (-2)^s (a+1)_s / (a+b+2)_s = 2F1(-k, a+1; a+b+2; 2)
        return _terminating(k, (Fraction(-k), a + 1), (a + b + 2,), Fraction(2))

    half = Poly([Fraction(1, 2), Fraction(-1, 2)])  # (1-x)/2

    def hyp(n: int) -> Poly:
        return _terminating(n, (Fraction(-n), a + b + 1), (hyp_lower(n),), 1,
                            lambda i: half)

    def B(n):
        return (b * b - a * a) / ((2 * n + a + b) * (2 * n + a + b + 2))

    def Lam(n):
        return (4 * n * (n + a) * (n + b) * (n + a + b)) / (
            (2 * n + a + b - 1) * (2 * n + a + b) ** 2 * (2 * n + a + b + 1)
        )

    return FamilySpec(
        name=f"jacobi11[{variant}]", params={"a": a, "b": b, "variant": variant},
        coeff_b=coeff_b, coeff_a=coeff_a, coeff_lam=lam,
        moment=moment, hyp=hyp, classical=(B, Lam),
    )


# -- Jacobi on [0, 1] ----------------------------------------------------


def jacobi01(a: ScalarLike, b: ScalarLike, variant: str = "oneminus") -> FamilySpec:
    """Jacobi weight x^a (1-x)^b on [0,1]; moments (a+1)_k/(a+b+2)_k.

    variant "oneminus" inserts (1-x) (shifts b), "xpow" inserts x (shifts a).
    """
    a, b = as_scalar(a), as_scalar(b)
    if variant not in ("oneminus", "xpow"):
        raise ValueError(f"unknown jacobi01 variant {variant!r}")

    if variant == "oneminus":
        def lam(n):
            return n * (n + a) / ((a + b + n) * (a + b + n + 1))

        coeff_b = lambda n: (a + 2 * n + 1) / (a + b + n + 1)
        coeff_a = lambda n: -lam(n)
        coeff_lam = lam
        hyp_lower = lambda n: a + 1
    else:
        coeff_b = lambda n: (a - n) / (a + b + n + 1)
        coeff_a = lambda n: Fraction(n) * (b + n) / ((a + b + n) * (a + b + n + 1))
        coeff_lam = lambda n: Fraction(0)
        hyp_lower = lambda n: a - n + 1

    def moment(k: int) -> Scalar:
        den = pochhammer(a + b + 2, k)
        _nonzero(den, f"(a+b+2)_{k}")
        return pochhammer(a + 1, k) / den

    def hyp(n: int) -> Poly:
        return _terminating(n, (Fraction(-n), a + b + 1), (hyp_lower(n),), 1, lambda i: Poly.x())

    return FamilySpec(
        name=f"jacobi01[{variant}]", params={"a": a, "b": b, "variant": variant},
        coeff_b=coeff_b, coeff_a=coeff_a, coeff_lam=coeff_lam,
        moment=moment, hyp=hyp,
    )


# -- Laguerre ------------------------------------------------------------


def laguerre(a: ScalarLike) -> FamilySpec:
    """Laguerre weight x^a e^{-x}; b_n = a-n, a_n = n, lam = 0; moments (a+1)_k."""
    a = as_scalar(a)

    def hyp(n: int) -> Poly:
        return _terminating(n, (Fraction(-n),), (a - n + 1,), 1, lambda i: Poly.x())

    return FamilySpec(
        name="laguerre", params={"a": a},
        coeff_b=lambda n: a - n, coeff_a=lambda n: Fraction(n),
        coeff_lam=lambda n: Fraction(0),
        moment=lambda k: pochhammer(a + 1, k),
        hyp=hyp,
        classical=(lambda n: 2 * n + a + 1, lambda n: Fraction(n) * (n + a)),
    )


# -- Meixner -------------------------------------------------------------


def meixner(b: ScalarLike, c: ScalarLike) -> FamilySpec:
    """Meixner weight; moments are the Stirling sums over (b)_j (c/(1-c))^j."""
    b, c = as_scalar(b), as_scalar(c)
    if c == 1:
        raise FamilyParamError("degenerate parameters: c = 1")
    if c == 0:
        raise FamilyParamError("degenerate parameters: c = 0 makes every a_n vanish")
    d = c / (1 - c)

    def hyp(n: int) -> Poly:
        # 2F1(-n, -x; b-n; 1 - 1/c) with the (-x)_j slot kept polynomial.
        return _terminating(n, (Fraction(-n),), (b - n,), 1 - 1 / c, lambda i: Poly.linear(-1, i))

    def moment(k: int) -> Scalar:
        if k == 0:
            return Fraction(1)
        return sum(stirling2(k, j) * pochhammer(b, j) * d**j for j in range(1, k + 1))

    return FamilySpec(
        name="meixner", params={"b": b, "c": c},
        coeff_b=lambda n: (n - (2 * n + 1) * c + b * c) / (1 - c),
        coeff_a=lambda n: c * n / (1 - c),
        coeff_lam=lambda n: c * n * (b - n) / (1 - c),
        moment=moment, hyp=hyp,
        classical=(
            lambda n: (n + (n + b) * c) / (1 - c),
            lambda n: Fraction(n) * (n + b - 1) * c / (1 - c) ** 2,
        ),
    )


# -- little q-Jacobi -----------------------------------------------------


def _validate_q(q: Scalar):
    if q == 0 or q == 1 or q == -1:
        raise FamilyParamError(f"degenerate parameters: q = {q}")


def little_q_jacobi(a: ScalarLike, b: ScalarLike, q: ScalarLike) -> FamilySpec:
    """Little q-Jacobi; moments (aq;q)_k / (abq^2;q)_k."""
    a, b, q = as_scalar(a), as_scalar(b), as_scalar(q)
    _validate_q(q)
    if a == 0 or b == 0:
        raise FamilyParamError("degenerate parameters: a and b must be nonzero")

    def coeff_b(n):
        return q**n * (1 + a - a * q**n - a * q ** (n + 1)) / (1 - a * b * q ** (n + 1))

    def coeff_lam(n):
        return (a * q ** (2 * n - 1) * (1 - q**n) * (1 - a * q**n)) / (
            (1 - a * b * q**n) * (1 - a * b * q ** (n + 1))
        )

    def coeff_a(n):
        return -(a * b * q**n * (1 - q**n) * (1 - a * q**n)) / (
            (1 - a * b * q**n) * (1 - a * b * q ** (n + 1))
        )

    def hyp(n: int) -> Poly:
        # 2phi1(q^-n, abq; aq; q; qx)
        return _terminating(n, (q**-n, a * b * q), (a * q,), q, lambda i: Poly.x(), q)

    def moment(k: int) -> Scalar:
        den = qpochhammer(a * b * q * q, q, k)
        _nonzero(den, f"(abq^2;q)_{k}")
        return qpochhammer(a * q, q, k) / den

    return FamilySpec(
        name="little_q_jacobi", params={"a": a, "b": b, "q": q},
        coeff_b=coeff_b, coeff_a=coeff_a, coeff_lam=coeff_lam,
        moment=moment, hyp=hyp,
    )


# -- big q-Jacobi --------------------------------------------------------


def big_q_jacobi(
    a: ScalarLike, b: ScalarLike, c: ScalarLike, q: ScalarLike, variant: str = "bshift"
) -> FamilySpec:
    """Big q-Jacobi; the two denominator choices shift b or a."""
    a, b, c, q = as_scalar(a), as_scalar(b), as_scalar(c), as_scalar(q)
    _validate_q(q)
    if variant not in ("bshift", "ashift"):
        raise ValueError(f"unknown big_q_jacobi variant {variant!r}")
    if a == 0 or c == 0 or (variant == "bshift" and b == 0):
        raise FamilyParamError("degenerate parameters: a, c (and b for bshift) must be nonzero")

    if variant == "bshift":
        def coeff_b(n):
            return -q * (
                a * b - a * q**n - c * q**n - a * c * q**n
                + a * c * q ** (2 * n) + a * c * q ** (2 * n + 1)
            ) / (1 - a * b * q ** (n + 1))

        def lam(n):
            return -(a * c * q ** (n + 1) * (1 - q**n) * (1 - a * q**n) * (1 - c * q**n)) / (
                (1 - a * b * q**n) * (1 - a * b * q ** (n + 1))
            )

        coeff_a = lambda n: -lam(n) * b * q**-n / c
        hyp_lower1 = lambda n: a * q

    else:
        def coeff_b(n):
            return q**-n * (
                a + a * q - a * q ** (n + 1) - a * b * q ** (n + 1)
                - a * c * q ** (n + 1) + c * q ** (2 * n + 1)
            ) / (1 - a * b * q ** (n + 1))

        def lam(n):
            return (a * a * q ** (2 - 2 * n) * (1 - q**n) * (1 - b * q**n) * (1 - c * q**n)) / (
                (1 - a * b * q**n) * (1 - a * b * q ** (n + 1))
            )

        coeff_a = lambda n: -lam(n) * q ** (n - 1) / a
        hyp_lower1 = lambda n: a * q ** (1 - n)

    def hyp(n: int) -> Poly:
        # 3phi2(q^-n, abq, x; lower1, cq; q; q), (x;q)_j kept polynomial
        return _terminating(n, (q**-n, a * b * q), (hyp_lower1(n), c * q), q,
                            lambda i: Poly.linear(-(q**i), 1), q)

    return FamilySpec(
        name=f"big_q_jacobi[{variant}]",
        params={"a": a, "b": b, "c": c, "q": q, "variant": variant},
        coeff_b=coeff_b, coeff_a=coeff_a, coeff_lam=lam,
        hyp=hyp,
    )


# -- Askey-Wilson --------------------------------------------------------


def askey_wilson(
    a: ScalarLike, b: ScalarLike, c: ScalarLike, d: ScalarLike, q: ScalarLike
) -> FamilySpec:
    """Askey-Wilson with the second parameter shifted; works in x throughout,
    with the z-symmetric products expanded as polynomials in x."""
    a, b, c, d, q = (as_scalar(v) for v in (a, b, c, d, q))
    _validate_q(q)
    if b == 0 or a == 0:
        raise FamilyParamError("degenerate parameters: a and b must be nonzero")

    def lamP(n):
        return ((1 - q**n) * (1 - a * c * q ** (n - 1)) * (1 - a * d * q ** (n - 1))
                * (1 - c * d * q ** (n - 1))) / (
            4 * (1 - a * b * c * d * q ** (n - 2)) * (1 - a * b * c * d * q ** (n - 1))
        )

    def coeff_b(n):
        bracket = (
            (1 - a * b * q ** (-1 - n)) * (1 - b * c * q ** (-1 - n)) * (1 - b * d * q ** (-1 - n))
            - (1 - q ** (-1 - n)) * (1 - a * b * c * d / q) * (1 - b * b * q ** (-1 - 2 * n))
        )
        return (b * q**-n + q**n / b) / 2 - q ** (1 + 2 * n) / (
            2 * b * (1 - a * b * c * d * q ** (n - 1))
        ) * bracket

    def hyp(n: int) -> Poly:
        # 4phi3(q^-n, abcd/q, a e^{i theta}, a e^{-i theta}; ac, ad, ab q^-n; q; q)
        return _terminating(n, (q**-n, a * b * c * d / q), (a * c, a * d, a * b * q**-n), q,
                            lambda i: Poly([1 + a * a * q ** (2 * i), -2 * a * q**i]), q)

    return FamilySpec(
        name="askey_wilson", params={"a": a, "b": b, "c": c, "d": d, "q": q},
        coeff_b=coeff_b,
        coeff_a=lambda n: -2 * b * q**-n * lamP(n),
        coeff_lam=lambda n: (1 + b * b * q ** (-2 * n)) * lamP(n),
        hyp=hyp,
    )


# -- q-Racah -------------------------------------------------------------


def q_racah(
    b: ScalarLike, c: ScalarLike, d: ScalarLike, N: int, q: ScalarLike
) -> FamilySpec:
    """q-Racah in the variable X = q^{-x} + cd q^{x+1}; finite family 0..N."""
    b, c, d, q = (as_scalar(v) for v in (b, c, d, q))
    _validate_q(q)
    if b == 0 or d == 0:
        raise FamilyParamError("degenerate parameters: b and d must be nonzero")
    if N < 1:
        raise FamilyParamError("q_racah needs N >= 1")

    def lamP(n):
        return (d * q ** (1 - 2 * n) * (1 - q**n) * (1 - c * q**n)
                * (1 - q ** (N - n + 1)) * (1 - d * q ** (N - n + 1))) / (
            (1 - q ** (N - n) / b) * (1 - q ** (N - n + 1) / b)
        )

    def coeff_b(n):
        num = (
            -b + b * d * (-1 + q ** (N - n) + q ** (N - n + 1) - q ** (N + 1)) + q**n
            + c * (q**n - q ** (2 * n) - q ** (2 * n + 1) + q ** (N + n + 1))
            - b * c * d * q ** (N + 1) + c * d * q ** (N + n + 1)
        )
        return -num / (b * q**n - q**N)

    def hyp(n: int) -> Poly:
        if n > N:
            raise FamilyParamError(f"q_racah degree {n} exceeds N = {N}")
        # 4phi3(q^-n, b q^-N, q^-x, cd q^{x+1}; q^-N, bd q^{1-n}, cq; q; q)
        return _terminating(n, (q**-n, b * q**-N), (q**-N, b * d * q ** (1 - n), c * q), q,
                            lambda s: Poly([1 + c * d * q ** (1 + 2 * s), -(q**s)]), q)

    def x_node(x: int) -> Scalar:
        # the spectral point X = q^{-x} + c d q^{x+1}
        return q ** (-x) + c * d * q ** (x + 1)

    return FamilySpec(
        name="q_racah", params={"b": b, "c": c, "d": d, "N": N, "q": q},
        coeff_b=coeff_b,
        coeff_a=lambda n: -lamP(n) * q ** (n - 1) / (b * d),
        coeff_lam=lambda n: lamP(n) * (1 + q ** (2 * n - 1) * c / (b * b * d)),
        hyp=hyp, valid_to=N - 1, spectral_node=x_node,
    )


# -- constant coefficients and deformed Hermite --------------------------


def constant(A: ScalarLike, B: ScalarLike, C: ScalarLike) -> FamilySpec:
    """Constant streams a_n = A, b_n = B, lam_n = C; Chebyshev-kernel family."""
    A, B, C = as_scalar(A), as_scalar(B), as_scalar(C)
    if A == 0:
        raise FamilyParamError("degenerate parameters: A = 0 makes every a_n vanish")

    def hyp(n: int) -> Poly:
        # U_n((x-B)/(2 sqrt(Ax+C))) (sqrt(Ax+C))^n collapses to a polynomial:
        # sum_k (-1)^k C(n-k, k) (x-B)^{n-2k} (Ax+C)^k.  With K = n // 2 that
        # is (x-B)^(n-2K) sum_k c_k ((x-B)^2)^(K-k) (Ax+C)^k, summed by Horner
        # over k, so each step multiplies by a degree-2 and a degree-1 factor.
        if n < 0:
            return Poly()
        u, w = Poly.linear(1, -B), Poly.linear(A, C)
        u2, w_k, out = u * u, Poly.const(1), Poly.const(1)
        for k in range(1, n // 2 + 1):
            w_k = w_k * w
            out = out * u2 + w_k * ((-1) ** k * binomial(n - k, k))
        return out * u if n % 2 else out

    return FamilySpec(
        name="constant", params={"A": A, "B": B, "C": C},
        coeff_b=lambda n: B, coeff_a=lambda n: A, coeff_lam=lambda n: C,
        hyp=hyp,
        classical=(
            lambda n: A + B if n == 0 else 2 * A + B,
            lambda n: A * A + A * B + C,
        ),
    )


def r1_hermite(a: ScalarLike) -> FamilySpec:
    """Deformed Hermite: b_n = 0, a_n = a n, lam_n = n."""
    a = as_scalar(a)
    return FamilySpec(
        name="r1_hermite", params={"a": a},
        coeff_b=lambda n: Fraction(0),
        coeff_a=lambda n: a * n,
        coeff_lam=lambda n: Fraction(n),
        moment=lambda k: theta(k, a),
    )


def hermite_egf_polys(order: int, a: ScalarLike) -> list[Poly]:
    """Coefficients of exp(x t - (1+a x) t^2 / 2) as a t-series of Polys."""
    a = as_scalar(a)
    arg = [Poly(), Poly.x(), Poly([Fraction(-1, 2), -a / 2])]
    out = [Poly.const(1)] + [Poly()] * order
    term = list(out)
    for k in range(1, order + 1):
        new = [Poly()] * (order + 1)
        for i in range(order + 1):
            if term[i].is_zero():
                continue
            for j in (1, 2):
                if i + j <= order:
                    new[i + j] = new[i + j] + term[i] * arg[j]
        term = [p * Fraction(1, k) for p in new]
        for i in range(order + 1):
            out[i] = out[i] + term[i]
    return out


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def hermite_moment(j: int) -> Scalar:
    """Classical Hermite moments: (2n-1)!! at even order, 0 at odd."""
    return Fraction(_double_factorial(j - 1)) if j % 2 == 0 else Fraction(0)


def _kernel_coefficient(n: int, k: int) -> int:
    """The weight of term k (k of n's parity) in theta_n and in w_n(x, a)."""
    return binomial(n // 2 + (k + 1) // 2, k)


def theta(m: int, a: ScalarLike) -> Scalar:
    """Moments of the deformed Hermite system as binomial sums over the
    classical ones: switching vertical drops back to diagonal ones."""
    a = as_scalar(a)
    return sum(_kernel_coefficient(m, k) * a**k * hermite_moment(m + k)
               for k in range(m % 2, m + 1, 2))


def chebyshev_weight(n: int, x: ScalarLike, a: ScalarLike) -> Scalar:
    """The kernel w_n(x, a) with theta_n = L(x^n w_n(x, a)); binomial form."""
    x, a = as_scalar(x), as_scalar(a)
    return sum(_kernel_coefficient(n, k) * (a * x) ** k for k in range(n % 2, n + 1, 2))


def chebyshev_weight_hyp(n: int, x: ScalarLike, a: ScalarLike) -> Scalar:
    """The same kernel via the terminating 2F1 forms."""
    x, a = as_scalar(x), as_scalar(a)
    z = -(a * x) ** 2 / 4
    if n % 2 == 0:
        m = n // 2
        return _terminating(m, (Fraction(-m), Fraction(m + 1)), (Fraction(1, 2),), z)
    m = (n - 1) // 2
    return (m + 1) * a * x * _terminating(m, (Fraction(-m), Fraction(m + 2)), (Fraction(3, 2),), z)


def genthm_check(a: ScalarLike, order: int) -> bool:
    """Two-sided series identity: sum theta_n t^n = L(1/(1 - x^2 t (a+t)))."""
    a = as_scalar(a)
    cs = r1_hermite(a).build()
    lhs = [mu(n, cs) for n in range(order + 1)]
    rhs = [Fraction(0)] * (order + 1)
    for j in range(order + 1):
        m2j = hermite_moment(2 * j)
        for i in range(j + 1):
            if j + i <= order:
                rhs[j + i] += m2j * binomial(j, i) * a ** (j - i)
    return lhs == rhs


def hermite_linearization_check(n: int, m: int, a: ScalarLike = Fraction(2, 3)) -> bool:
    """H_n H_m = sum_s C(n,s) C(m,s) s! (1+a x)^s H_{n+m-2s} as a raw
    polynomial identity; for a != 0 also the expansion of H_n H_m in the
    basis P_k through the functional, c_k = L(p (Q_k - a_{k+1} Q_{k+1})),
    which must have degree n + m, a nonzero top coefficient, and sum back
    to H_n H_m."""
    a = as_scalar(a)
    cs = r1_hermite(a).build()
    lhs = P(n, cs) * P(m, cs)
    rhs = sum((Poly.linear(a, 1) ** s * P(n + m - 2 * s, cs)
               * (binomial(n, s) * binomial(m, s) * math.factorial(s))
               for s in range(min(n, m) + 1)), Poly())
    if lhs != rhs:
        return False
    if a == 0:
        return True
    c = expand_in_P(lhs, cs)
    back = sum((P(k, cs) * c_k for k, c_k in enumerate(c)), Poly())
    return len(c) == n + m + 1 and c[-1] != 0 and back == lhs


# -- gluing checks -------------------------------------------------------


@dataclass(frozen=True)
class GlueReport:
    family: str
    n: int
    proportional: bool
    ratio: Scalar | None
    series_match: bool | None


def glue_shift_check(fam: FamilySpec, n: int, order: int = 8) -> GlueReport:
    """Check the family against its shifted hypergeometric form.

    (i) P_n is proportional to the hypergeometric polynomial h, as one Poly
    equality: P_n is monic, so h = lead(h) P_n and ``ratio`` = P_n / h is
    1 / lead(h); (ii) the moment series agrees with the classical side: the
    J-fraction of the recorded (B_n, Lam_n) when the family has one,
    otherwise the closed moment formula.
    """
    return glue_shift_reports(fam, (n,), order)[0]


def glue_shift_reports(fam: FamilySpec, ns, order: int = 8) -> list[GlueReport]:
    """``glue_shift_check`` for each n in ``ns``, on one built system: the
    series comparison does not depend on n, so it runs once."""
    cs = fam.build()
    series_match: bool | None = None
    if fam.classical is not None:
        B, Lam = fam.classical
        classical = CoeffSystem(B, lambda k: 0, Lam)
        series_match = moment_series(cs, order) == cf_series(classical, order)
    elif fam.moment is not None:
        series_match = moment_series(cs, order) == Series(
            [fam.closed_moment(k) for k in range(order + 1)], order
        )
    reports = []
    for n in ns:
        h = fam.hyp_poly(n)
        proportional = bool(h) and h == P(n, cs) * h.leading()
        ratio = 1 / h.leading() if h else None
        reports.append(GlueReport(fam.name, n, proportional, ratio, series_match))
    return reports


# -- registry ------------------------------------------------------------

FAMILY_BUILDERS: dict[str, Callable[..., FamilySpec]] = {
    "jacobi11": jacobi11,
    "jacobi01": jacobi01,
    "laguerre": laguerre,
    "meixner": meixner,
    "little_q_jacobi": little_q_jacobi,
    "big_q_jacobi": big_q_jacobi,
    "askey_wilson": askey_wilson,
    "q_racah": q_racah,
    "constant": constant,
    "r1_hermite": r1_hermite,
}


def resolve(name: str, params: dict) -> FamilySpec:
    """Look up a family by name with a parameter dict (CLI/JSON entry point).

    The one reader of parameter values: ``variant`` passes as given, the rest
    through ``read_scalar``, and N must be an integer.  An unknown name, a bad
    value, or a parameter the family lacks or does not take raises ValueError.
    """
    if not isinstance(name, str) or name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    builder = FAMILY_BUILDERS[name]
    kwargs = {k: v if k == "variant" else read_scalar(v, k) for k, v in params.items()}
    if "N" in kwargs:
        N = kwargs["N"]
        if N.denominator != 1:
            raise ValueError(f"family {name}: N must be an integer, got {N}")
        kwargs["N"] = int(N)
    try:
        inspect.signature(builder).bind(**kwargs)
    except TypeError as exc:
        raise ValueError(f"family {name}: {exc}") from None
    return builder(**kwargs)
