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

The Hankel-shaped determinants (``hankel``, D'_n, the shifted D'_{n-1,1},
the Cramer monicity check and the denominator of ``P_via_det``) are leading
minors of one sequence, and the `hankel` rows 1..N of ``dets`` come from one
pass over mu_0..mu_2N.  ``hankel_minors`` takes them all from the modified
Chebyshev algorithm in O(n^2) field operations, H_k = prod_{j<=k} sigma_{j,j}
(Flajolet 1980; Gautschi 2004, section 2.1), and works from the sequence
values alone, never from the recurrence data whose product it is checked
against.  A vanishing sigma_{k,k} with k < n stops the recurrence, and every
larger minor then comes from ``det_exact``.

``det_exact`` is plain exact-field Gaussian elimination with first-nonzero
pivoting.  It serves every other determinant and is the test oracle for
``hankel_minors``.  The entries are already rationals, and a fraction-free
Bareiss elimination over a common denominator measured slower: 3.5 s against
0.6 s for ``det_exact`` at n = 40.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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


def hankel_minors(seq: Sequence[Scalar], n: int, start: int = 0) -> list[Scalar]:
    """[H_start, ..., H_n] with H_k = det(seq_{i+j})_{i,j=0..k}; reads seq_0..seq_2n.

    The Chebyshev recurrence sigma_{0,l} = seq_l,
    sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l} - beta_k sigma_{k-1,l}
    with alpha_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1}
    and beta_k = sigma_{k,k}/sigma_{k-1,k-1} gives H_k = H_{k-1} sigma_{k,k}.
    If sigma_{k,k} = 0 for some k < n, each larger minor from H_start on
    comes from ``det_exact``, which pivots.
    """
    c = [Fraction(v) for v in seq[: 2 * n + 1]]
    if len(c) < 2 * n + 1:
        raise ValueError(f"H_{n} needs {2 * n + 1} sequence terms, got {len(c)}")
    minors = []
    minor = Fraction(1)
    row, below = c, [0] * len(c)  # sigma_{k,.} and sigma_{k-1,.}; sigma_{-1,.} = 0
    h_below, ratio_below = Fraction(1), Fraction(0)
    for k in range(n + 1):
        h = row[k]
        minor *= h
        if k >= start:
            minors.append(minor)
        if k == n:
            return minors
        if h == 0:
            break
        ratio = row[k + 1] / h
        alpha = ratio - ratio_below
        beta = h / h_below
        row, below = [0] * (k + 1) + [
            row[l + 1] - alpha * row[l] - beta * below[l] for l in range(k + 1, 2 * n - k)
        ], row
        h_below, ratio_below = h, ratio
    return minors + [
        det_exact([c[i : i + m + 1] for i in range(m + 1)])
        for m in range(max(k + 1, start), n + 1)
    ]


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


def _nu_sequence(n: int, cs: CoeffSystem) -> list[Scalar]:
    """nu_{k,n} for k = 0..2n, read in increasing k as the row-major matrix read them."""
    return [nu(k, n, cs) for k in range(2 * n + 1)]


def hankel(n: int, cs: CoeffSystem) -> Scalar:
    """The raw Hankel determinant det(mu_{i+j})_{i,j=0..n}."""
    return hankel_minors([mu(k, cs) for k in range(2 * n + 1)], n, n)[0]


def hankel_constant(n: int, A: Scalar, B: Scalar, C: Scalar,
                    cs: CoeffSystem | None = None) -> DetReport:
    """Constant-coefficient Hankel factorization (A^2+AB+C)^{n(n+1)/2}.

    The moments are read from ``cs``, a system with b_k = B, a_k = A and
    lam_k = C, whose grid then serves every n; a fresh one when not given."""
    if cs is None:
        cs = CoeffSystem(lambda k: B, lambda k: A, lambda k: C, name="constant")
    predicted = (A * A + A * B + C) ** _binom2(n + 1)
    return DetReport(n, "hankel", hankel(n, cs), predicted)


def delta_prime(n: int, cs: CoeffSystem) -> DetReport:
    """D'_n = det(nu_{i+j,n}) vs prod_k 1/((-a_k)^k P_k(-lam_k/a_k))."""
    computed = hankel_minors(_nu_sequence(n, cs), n, n)[0]
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
        seq = [nu(1 + k, n, cs) for k in range(2 * size - 1)]
        computed = hankel_minors(seq, size - 1, size - 1)[0]
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


def _hankel_rows(N: int, cs: CoeffSystem) -> list[Callable[[], DetReport | Scalar]]:
    """The `hankel` rows n = 1..N from one Chebyshev pass over mu_0..mu_2N.

    Row n is H_n; on the constant family it is checked against
    (A^2+AB+C)^{n(n+1)/2} as ``hankel_constant`` does.  Row n reads
    mu_0..mu_2n, so when a coefficient that mu_k reads is rejected, the rows
    with 2n < k come from the moments before it and each later row raises
    that same error, as one pass per row would.  Row N reads every moment,
    so the error is never lost.
    """
    seq, failure = [], None
    try:
        for k in range(2 * N + 1):
            seq.append(mu(k, cs))
    except ValueError as exc:  # CoeffError and the other named degeneracies
        failure = exc
    top = (len(seq) - 1) // 2
    minors = hankel_minors(seq, top, 1) if seq else []  # H_1..H_top

    def row(n: int):
        if n > top:
            raise failure
        if cs.name != "constant":
            return minors[n - 1]
        A, B, C = cs.a(1), cs.b(0), cs.lam(1)
        return DetReport(n, "hankel", minors[n - 1], (A * A + A * B + C) ** _binom2(n + 1))

    return [functools.partial(row, n) for n in range(1, N + 1)]


def _each_n(report: Callable[[int, CoeffSystem], DetReport]):
    """The rows of a kind whose report at each size n is computed on its own."""
    return lambda N, cs: [functools.partial(report, n, cs) for n in range(1, N + 1)]


# Each `dets` kind, in order: its rows n = 1..N for a system, one call per
# row that returns the row's report or raises its error.  The constant family
# alone has a Hankel prediction.  The lambdas look the report functions up at
# call time, so a wrapped module attribute is the one run.
REPORTS = {
    "hankel": _hankel_rows,
    "prime": _each_n(lambda n, cs: delta_prime(n, cs)),
    "dprime": _each_n(lambda n, cs: delta_dprime(n, cs)),
    "tprime": _each_n(lambda n, cs: delta_tprime(n, cs)),
    "shifted-prime": _each_n(lambda n, cs: delta_shifted("prime", n, 1, cs)),
    "shifted-dprime": _each_n(lambda n, cs: delta_shifted("dprime", n, 1, cs)),
    "shifted-tprime": _each_n(lambda n, cs: delta_shifted("tprime", n, 1, cs)),
}


def cramer_monicity_check(n: int, cs: CoeffSystem) -> bool:
    """det(nu_{i+j,n})_{0..n} = det(nu_{i+j,n})_{0..n-1} (monic Cramer solution)."""
    if n == 0:
        return nu(0, 0, cs) == 1
    small, big = hankel_minors(_nu_sequence(n, cs), n, n - 1)
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
    seq = _nu_sequence(n, cs)
    denom = hankel_minors(seq, n, n)[0]
    if denom == 0:
        raise PQUniqueError(f"D'_{n} = 0: P_{n} is not determined")
    rows = [seq[i : i + n + 1] for i in range(n)]
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
        matrix = [[nu(i + j, j, cs) for j in range(n + 1)] for i in range(n + 1)]
        basis = [Poly.x(j) for j in range(n + 1)]
    else:
        matrix = [[nu(i, j, cs) for j in range(n + 1)] for i in range(n + 1)]
        basis = [Poly.const(1)] * (n + 1)
    denom = det_exact(matrix)
    if denom == 0:
        primes = "'" * variant  # D''_n for variant 2, D'''_n for variant 3
        raise PQUniqueError(f"D{primes}_{n} = 0: Q_{n} is not determined")
    # the cofactors of the last row are minors of the first n rows
    coeffs = _bordered_coeffs(matrix[:n])
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
