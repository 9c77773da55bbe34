"""Exact determinant evaluation of the moment grids and their factorizations.

The nu-grid nu_{i,j} = L(x^i/d_j) admits three bordered-determinant
reconstructions of P_n/Q_n (one per basis of V: x^j/d_n, x^j/d_j, 1/d_j),
and their system determinants factor into products over the recurrence
data:

    D'_n   = det(nu_{i+j,n})   = prod_k 1/((-a_k)^k P_k(-lam_k/a_k))
    D''_n  = det(nu_{i+j,j})   = prod_k lam_k^k/((-a_k)^k P_k(-lam_k/a_k))
    D'''_n = det(nu_{i,j})     = prod_k 1/P_k(-lam_k/a_k)

Shifted variants (first row/column dropped) have closed forms too; the
one for the x^j/d_j basis circulates with the lambda-exponents off by one
(already false at n=1, where the determinant is the single entry nu_{1,1});
the checker uses the corrected product prod_k lam_k^{k-1} and, being a
conjecture-level identity, still reports any counterexample verbatim
instead of asserting.

Every checker validates its theorem's hypotheses first and reports a
hypothesis violation distinctly from an identity failure.

Determinants use plain exact-field Gaussian elimination with first-nonzero
pivoting; entries are already rationals, so fraction-free tricks buy
nothing at these sizes (n <= ~10).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    CoeffSystem,
    P,
    VElem,
    cf_series,
    mu,
    moment_series,
    nu,
)
from .exactmath import Poly, Scalar


class HypothesisViolation(ValueError):
    """The theorem under check does not apply to this system."""


def det_exact(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant by fraction Gaussian elimination.

    Pivot is the first nonzero entry in the column; a singular matrix
    returns 0.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    m = [[Fraction(v) for v in row] for row in matrix]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] == 0:
                continue
            factor = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= factor * m[c][k]
    return out * sign


@dataclass(frozen=True)
class DetReport:
    n: int
    kind: str
    computed: Scalar
    predicted: Scalar

    @property
    def matched(self) -> bool:
        return self.computed == self.predicted

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "computed": str(self.computed),
            "predicted": str(self.predicted),
            "matched": self.matched,
        }


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def _p_at_root(k: int, cs: CoeffSystem) -> Scalar:
    return cs.nu_table().p_at_root(k)


def hankel(n: int, cs: CoeffSystem) -> Scalar:
    """The raw Hankel determinant det(mu_{i+j})_{i,j=0..n}."""
    return det_exact([[mu(i + j, cs) for j in range(n + 1)] for i in range(n + 1)])


def hankel_constant(n: int, A: Scalar, B: Scalar, C: Scalar) -> DetReport:
    """Constant-coefficient Hankel factorization (A^2+AB+C)^{n(n+1)/2}."""
    cs = CoeffSystem(lambda k: B, lambda k: A, lambda k: C, name="constant")
    predicted = (A * A + A * B + C) ** _binom2(n + 1)
    return DetReport(n, "hankel", hankel(n, cs), predicted)


def delta_prime(n: int, cs: CoeffSystem) -> DetReport:
    """D'_n = det(nu_{i+j,n}) vs prod_k 1/((-a_k)^k P_k(-lam_k/a_k))."""
    computed = det_exact([[nu(i + j, n, cs) for j in range(n + 1)] for i in range(n + 1)])
    predicted = Fraction(1)
    for k in range(1, n + 1):
        predicted /= (-cs.a_nonzero(k)) ** k * _p_at_root(k, cs)
    return DetReport(n, "prime", computed, predicted)


def delta_dprime(n: int, cs: CoeffSystem) -> DetReport:
    """D''_n = det(nu_{i+j,j}) vs prod_k lam_k^k/((-a_k)^k P_k(-lam_k/a_k))."""
    computed = det_exact([[nu(i + j, j, cs) for j in range(n + 1)] for i in range(n + 1)])
    predicted = Fraction(1)
    for k in range(1, n + 1):
        predicted *= cs.lam(k) ** k
        predicted /= (-cs.a_nonzero(k)) ** k * _p_at_root(k, cs)
    return DetReport(n, "dprime", computed, predicted)


def delta_tprime(n: int, cs: CoeffSystem) -> DetReport:
    """D'''_n = det(nu_{i,j}) vs prod_k 1/P_k(-lam_k/a_k)."""
    computed = det_exact([[nu(i, j, cs) for j in range(n + 1)] for i in range(n + 1)])
    predicted = Fraction(1)
    for k in range(1, n + 1):
        predicted /= _p_at_root(k, cs)
    return DetReport(n, "tprime", computed, predicted)


def delta_shifted(kind: str, n: int, s: int, cs: CoeffSystem) -> DetReport:
    """Shifted determinants D'_{n,s}, D''_{n,s}, D'''_{n,s}.

    Closed predictions exist for s = 1 at order n-1 (and are checked as
    conjectures); any other (n, s) raises, since no formula is available.
    """
    if kind not in ("prime", "dprime", "tprime"):
        raise ValueError(f"unknown shifted determinant kind {kind!r}")
    if s != 1:
        raise HypothesisViolation("closed forms are only available for shift s = 1")
    size = n  # matrix of the (n-1, 1)-variant is n x n
    if size < 1:
        raise ValueError("need n >= 1")
    if kind == "prime":
        computed = det_exact(
            [[nu(1 + i + j, n, cs) for j in range(size)] for i in range(size)]
        )
        predicted = Fraction((-1) ** _binom2(n)) * P(n, cs)(0)
        for k in range(1, n + 1):
            predicted /= cs.a_nonzero(k) ** k * _p_at_root(k, cs)
    elif kind == "dprime":
        computed = det_exact(
            [[nu(1 + i + j, 1 + j, cs) for j in range(size)] for i in range(size)]
        )
        predicted = Fraction((-1) ** _binom2(n)) * P(n, cs)(0)
        for k in range(1, n + 1):
            predicted *= cs.lam(k) ** (k - 1)
            predicted /= cs.a_nonzero(k) ** k * _p_at_root(k, cs)
    else:
        computed = det_exact(
            [[nu(i, 1 + j, cs) for j in range(size)] for i in range(size)]
        )
        predicted = Fraction((-1) ** n)
        for k in range(1, n + 1):
            predicted /= cs.a_nonzero(k) * _p_at_root(k, cs)
    return DetReport(n, f"shifted-{kind}", computed, predicted)


def cramer_monicity_check(n: int, cs: CoeffSystem) -> bool:
    """det(nu_{i+j,n})_{0..n} = det(nu_{i+j,n})_{0..n-1} (monic Cramer solution)."""
    big = det_exact([[nu(i + j, n, cs) for j in range(n + 1)] for i in range(n + 1)])
    small = det_exact([[nu(i + j, n, cs) for j in range(n)] for i in range(n)])
    return big == small


class PQUniqueError(ValueError):
    """D'_n = 0: the determinant reconstruction is not available."""


def _bordered_coeffs(rows: list[list[Scalar]]) -> list[Scalar]:
    """Cofactors along the symbolic last row of a bordered determinant.

    ``rows`` is the (n x (n+1)) numeric block; entry j of the result is the
    signed minor multiplying the j-th basis element in the last row.
    """
    n1 = len(rows) + 1
    out = []
    for j in range(n1):
        minor = [[row[c] for c in range(n1) if c != j] for row in rows]
        sign = (-1) ** ((n1 - 1) + j)
        out.append(sign * (det_exact(minor) if minor else Fraction(1)))
    return out


def P_via_det(n: int, cs: CoeffSystem) -> Poly:
    """Reconstruct P_n from the bordered nu-determinant (x^j/d_n basis)."""
    if n == 0:
        return Poly.const(1)
    denom = det_exact([[nu(i + j, n, cs) for j in range(n + 1)] for i in range(n + 1)])
    if denom == 0:
        raise PQUniqueError(f"D'_{n} = 0: P_{n} is not determined")
    rows = [[nu(i + j, n, cs) for j in range(n + 1)] for i in range(n)]
    return Poly([c / denom for c in _bordered_coeffs(rows)])


def Q_via_det(n: int, cs: CoeffSystem, variant: int) -> VElem:
    """Reconstruct Q_n from a bordered determinant over one of three bases.

    variant 1: basis x^j/d_n; variant 2: basis x^j/d_j (needs lam_k != 0);
    variant 3: basis 1/d_j.  The result is returned over the common
    denominator d_n.
    """
    if variant not in (1, 2, 3):
        raise ValueError("variant must be 1, 2 or 3")
    if n == 0:
        return VElem(Poly.const(1), 0, cs)
    if variant == 1:
        return VElem(P_via_det(n, cs), n, cs)
    if variant == 2:
        for k in range(1, n + 1):
            if cs.lam(k) == 0:
                raise HypothesisViolation(f"lam_{k} = 0: x^j/d_j basis degenerates")
        denom = det_exact(
            [[nu(i + j, j, cs) for j in range(n + 1)] for i in range(n + 1)]
        )
        if denom == 0:
            raise PQUniqueError(f"D''_{n} = 0: Q_{n} is not determined")
        rows = [[nu(i + j, j, cs) for j in range(n + 1)] for i in range(n)]
        basis = [Poly.x(j) for j in range(n + 1)]
    else:
        denom = det_exact([[nu(i, j, cs) for j in range(n + 1)] for i in range(n + 1)])
        if denom == 0:
            raise PQUniqueError(f"D'''_{n} = 0: Q_{n} is not determined")
        rows = [[nu(i, j, cs) for j in range(n + 1)] for i in range(n)]
        basis = [Poly.const(1)] * (n + 1)
    coeffs = _bordered_coeffs(rows)
    numerator = Poly()
    scale = Poly.const(1)  # d_n / d_j
    for j in range(n, -1, -1):
        numerator = numerator + basis[j] * scale * (coeffs[j] / denom)
        if j:
            scale = scale * Poly.linear(cs.a(j), cs.lam(j))
    return VElem(numerator, n, cs)


def lemma_xin_check(t: Scalar, n: int) -> DetReport:
    """Hankel factorization (1+t)^{n(n+1)/2} for a_k = 1, b_k = t, lam_k = 0."""
    cs = CoeffSystem(lambda k: t, lambda k: Fraction(1), lambda k: Fraction(0), name="xin")
    predicted = (1 + t) ** _binom2(n + 1)
    return DetReport(n, "xin", hankel(n, cs), predicted)


def classical_equiv_check(A: Scalar, B: Scalar, C: Scalar, order: int) -> bool:
    """Constant-coefficient moments match the classical system with
    B_0 = A+B, B_n = 2A+B, Lam_n = A^2+AB+C."""
    cs = CoeffSystem(lambda k: B, lambda k: A, lambda k: C, name="constant")
    classical = CoeffSystem(
        lambda k: A + B if k == 0 else 2 * A + B,
        lambda k: 0,
        lambda k: A * A + A * B + C,
    )
    return moment_series(cs, order) == cf_series(classical, order)
