"""Exact determinant evaluation of the moment grids and their factorizations.

V over d_n has three bases e_0..e_n, kept once in ``BASES``: x^j/d_n
(prime), x^j/d_j (dprime) and 1/d_j (tprime).  Each gives one moment matrix
L(x^i e_j)_{i,j=0..n}: nu_{i+j,n}, nu_{i+j,j} and nu_{i,j}, where
nu_{i,j} = L(x^i/d_j).  Everything here reads that one table:

* its determinant D_n, checked against a product over the recurrence data:
      D'_n   = prod_k 1/((-a_k)^k P_k(-lam_k/a_k))
      D''_n  = prod_k lam_k^k/((-a_k)^k P_k(-lam_k/a_k))
      D'''_n = prod_k 1/P_k(-lam_k/a_k)
* its shifted form D_{n-1,1}: the first n rows without column 0.  That block
  is the column-0 cofactor of the bordered matrix, so D_{n-1,1} =
  (-1)^n c_0 D_n with c_0 the e_0 coefficient of Q_n.  Its closed products
  are conjectures; a counterexample is reported, not asserted.  The one for
  x^j/d_j circulates with the lambda-exponents off by one (false at n=1,
  where the determinant is nu_{1,1}); the check uses prod_k lam_k^{k-1}.
* its bordered determinant, the last row replaced by e_0..e_n, which is
  Q_n D_n: ``Q_via_det`` variants 1, 2, 3 in the order above, and
  ``P_via_det`` is the numerator of variant 1.

Every checker validates its theorem's hypotheses first and reports a
hypothesis violation distinctly from an identity failure.

The Hankel-shaped determinants (``hankel``, the prime D_n and D_{n-1,1},
the Cramer monicity check) are leading minors of one sequence, and the
`hankel` rows 1..N of ``dets`` come from one pass over mu_0..mu_2N.
``hankel_minors`` takes them all from the modified Chebyshev algorithm in
O(n^2) field operations, H_k = prod_{j<=k} sigma_{j,j} (Flajolet 1980;
Gautschi 2004, section 2.1), from the sequence values alone, never from the
recurrence data whose product it is checked against.  A vanishing
sigma_{k,k} with k < n stops the recurrence, and every larger minor then
comes from ``det_exact``: exact Gaussian elimination with first-nonzero
pivoting, which serves every other determinant.

Both kernels keep each row as integers over its own denominator, the lcm of
the reduced denominators of its entries, and reduce a new row by one gcd of
its integers with that denominator: ``exactmath.int_row`` and ``reduced``,
the row rule of ``Poly``.  No entry is a Fraction.  Two other integer forms
lost, because each carries one denominator shared by the whole matrix or
sequence, far past any row's own: a fraction-free Bareiss elimination
(3.5 s against 0.6 s for Fraction rows at n = 40), and the Chebyshev
recurrence over one common denominator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from .core import CoeffSystem, P, VElem, cf_series, moment_series, mu, nu
from .exactmath import Poly, Scalar, format_scalar, int_row, reduced


class HypothesisViolation(ValueError):
    """The theorem under check does not apply to this system."""


def det_exact(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant by Gaussian elimination on integer rows.

    Each row is kept as integers over its own denominator, the lcm of the
    reduced denominators of its entries.  The pivot is the first nonzero
    entry in the column; a singular matrix returns 0.  With pivot entry pc
    and row entry rc (numerators), g = gcd(pc, rc), row r becomes
    row*(pc/g) - (rc/g)*pivot_row over den*(pc/g), reduced by one gcd of the
    row with its denominator.  The determinant is the product of the pivots
    pc/den, made into one Fraction at the end.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    rows = [int_row(row) for row in matrix]  # row r holds columns c..n-1
    num = den = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][0][0]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            num = -num
        prow, pden = rows[c]
        pc = prow[0]
        num *= pc
        den *= pden
        for r in range(c + 1, n):
            row, rden = rows[r]
            rc = row[0]
            if not rc:
                rows[r] = row[1:], rden
                continue
            g = math.gcd(pc, rc)
            mp, mr = pc // g, rc // g
            if mp < 0:
                mp, mr = -mp, -mr
            rows[r] = reduced([v * mp - mr * w for v, w in zip(row[1:], prow[1:])], rden * mp)
    return Fraction(num, den)


def hankel_minors(seq: Sequence[Scalar], n: int, start: int = 0) -> list[Scalar]:
    """[H_start, ..., H_n] with H_k = det(seq_{i+j})_{i,j=0..k}; reads seq_0..seq_2n.

    The Chebyshev recurrence sigma_{0,l} = seq_l,
    sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l} - beta_k sigma_{k-1,l}
    with alpha_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1}
    and beta_k = sigma_{k,k}/sigma_{k-1,k-1} gives H_k = H_{k-1} sigma_{k,k}.
    Each sigma row is kept as integers over its own denominator, the lcm of
    its reduced denominators: the step sums its three terms over the lcm of
    their denominators and one gcd reduces the new row.  h, the ratios,
    alpha and beta stay Fractions.  If sigma_{k,k} = 0 for some k < n, each
    larger minor from H_start on comes from ``det_exact``, which pivots.
    """
    if n < 0:
        raise ValueError(f"H_n needs n >= 0, got {n}")
    c = [Fraction(v) for v in seq[: 2 * n + 1]]
    if len(c) < 2 * n + 1:
        raise ValueError(f"H_{n} needs {2 * n + 1} sequence terms, got {len(c)}")
    minors = []
    minor = Fraction(1)
    # sigma_{k,.} and sigma_{k-1,.} as (ints, den), indexed by l; sigma_{-1,.} = 0
    (row, den), (below, bden) = int_row(c), ([0] * len(c), 1)
    h_below, ratio_below = Fraction(1), Fraction(0)
    for k in range(n + 1):
        h = Fraction(row[k], den)
        minor *= h
        if k >= start:
            minors.append(minor)
        if k == n:
            return minors
        if not row[k]:
            break
        ratio = Fraction(row[k + 1], row[k])
        alpha = ratio - ratio_below
        beta = h / h_below
        # sigma_{k+1,l} over lcm(den * alpha.den, bden * beta.den)
        lcm = math.lcm(den * alpha.denominator, bden * beta.denominator)
        m1 = lcm // den
        ma = alpha.numerator * (m1 // alpha.denominator)
        mb = beta.numerator * (lcm // (bden * beta.denominator))
        nxt, nden = reduced([row[l + 1] * m1 - ma * row[l] - mb * below[l]
                              for l in range(k + 1, 2 * n - k)], lcm)
        (row, den), (below, bden) = ([0] * (k + 1) + nxt, nden), (row, den)
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
            "computed": format_scalar(self.computed),
            "predicted": format_scalar(self.predicted),
            "matched": self.matched,
        }


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


# Each basis of V over d_n as (power, index) = basis(j, n), for its element
# e_j = x^power / d_index.  ``Q_via_det`` variant v is the v-th basis.
BASES = {
    "prime": lambda j, n: (j, n),   # x^j / d_n
    "dprime": lambda j, n: (j, j),  # x^j / d_j
    "tprime": lambda j, n: (0, j),  # 1 / d_j
}


def _entry(kind: str, i: int, j: int, n: int, cs: CoeffSystem) -> Scalar:
    """L(x^i e_j) = nu_{i+power, index} in the basis ``kind`` over d_n."""
    power, index = BASES[kind](j, n)
    return nu(i + power, index, cs)


def _moment_det(kind: str, n: int, cs: CoeffSystem, shifted: bool = False) -> Scalar:
    """D_n of the basis ``kind``; with ``shifted``, D_{n-1,1} from rows 0..n-1
    and columns 1..n.  The prime matrix is Hankel: ``hankel_minors`` takes
    its sequence L(x^k e_first).  The others go row by row to ``det_exact``."""
    first = int(shifted)
    size = n + 1 - first
    if kind == "prime":
        seq = [_entry(kind, k, first, n, cs) for k in range(2 * size - 1)]
        return hankel_minors(seq, size - 1, size - 1)[0]
    return det_exact(
        [[_entry(kind, i, j, n, cs) for j in range(first, n + 1)] for i in range(size)]
    )


def hankel(n: int, cs: CoeffSystem) -> Scalar:
    """The raw Hankel determinant det(mu_{i+j})_{i,j=0..n}."""
    return hankel_minors([mu(k, cs) for k in range(2 * n + 1)], n, n)[0]


def _constant_hankel(n: int, A: Scalar, B: Scalar, C: Scalar) -> Scalar:
    """The constant family's Hankel prediction (A^2+AB+C)^{n(n+1)/2}."""
    return (A * A + A * B + C) ** _binom2(n + 1)


def hankel_constant(n: int, A: Scalar, B: Scalar, C: Scalar) -> DetReport:
    """Constant-coefficient Hankel factorization (A^2+AB+C)^{n(n+1)/2}, on a
    fresh system with b_k = B, a_k = A and lam_k = C."""
    cs = CoeffSystem(lambda k: B, lambda k: A, lambda k: C, name="constant")
    return DetReport(n, "hankel", hankel(n, cs), _constant_hankel(n, A, B, C))


def _signed_p0(n: int, cs: CoeffSystem) -> Scalar:
    return (-1) ** _binom2(n) * P(n, cs)(0)


# The closed product each report is checked against: a prefactor in n times
# the factor at each k = 1..n of (a_k, lam_k, p_k = P_k(-lam_k/a_k)).
_PRODUCTS = {
    "prime": (lambda n, cs: 1, lambda k, a, lam, p: 1 / ((-a) ** k * p)),
    "dprime": (lambda n, cs: 1, lambda k, a, lam, p: lam ** k / ((-a) ** k * p)),
    "tprime": (lambda n, cs: 1, lambda k, a, lam, p: 1 / p),
    "shifted-prime": (_signed_p0, lambda k, a, lam, p: 1 / (a ** k * p)),
    "shifted-dprime": (_signed_p0, lambda k, a, lam, p: lam ** (k - 1) / (a ** k * p)),
    "shifted-tprime": (lambda n, cs: (-1) ** n, lambda k, a, lam, p: 1 / (a * p)),
}


def _report(kind: str, n: int, cs: CoeffSystem) -> DetReport:
    """The determinant of a `dets` kind against its closed product."""
    basis = kind.removeprefix("shifted-")
    computed = _moment_det(basis, n, cs, shifted=basis != kind)
    prefactor, factor = _PRODUCTS[kind]
    predicted = Fraction(prefactor(n, cs))
    roots = cs.nu_table()
    for k in range(1, n + 1):
        predicted *= factor(k, cs.a_nonzero(k), cs.lam(k), roots.p_at_root(k))
    return DetReport(n, kind, computed, predicted)


def delta_prime(n: int, cs: CoeffSystem) -> DetReport:
    """D'_n = det(nu_{i+j,n}) vs prod_k 1/((-a_k)^k P_k(-lam_k/a_k))."""
    return _report("prime", n, cs)


def delta_dprime(n: int, cs: CoeffSystem) -> DetReport:
    """D''_n = det(nu_{i+j,j}) vs prod_k lam_k^k/((-a_k)^k P_k(-lam_k/a_k))."""
    return _report("dprime", n, cs)


def delta_tprime(n: int, cs: CoeffSystem) -> DetReport:
    """D'''_n = det(nu_{i,j}) vs prod_k 1/P_k(-lam_k/a_k)."""
    return _report("tprime", n, cs)


def delta_shifted(kind: str, n: int, s: int, cs: CoeffSystem) -> DetReport:
    """Shifted determinants D'_{n,s}, D''_{n,s}, D'''_{n,s}.

    Closed predictions exist for s = 1 at order n-1 (and are checked as
    conjectures); any other (n, s) raises, since no formula is available.
    """
    if kind not in BASES:
        raise ValueError(f"unknown shifted determinant kind {kind!r}")
    if s != 1:
        raise HypothesisViolation("closed forms are only available for shift s = 1")
    if n < 1:
        raise ValueError("need n >= 1")
    return _report(f"shifted-{kind}", n, cs)


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
        predicted = _constant_hankel(n, cs.a(1), cs.b(0), cs.lam(1))
        return DetReport(n, "hankel", minors[n - 1], predicted)

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
    seq = [_entry("prime", k, 0, n, cs) for k in range(2 * n + 1)]
    small, big = hankel_minors(seq, n, n - 1)
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
    """Reconstruct P_n from the bordered nu-determinant: the numerator of
    ``Q_via_det`` variant 1 (x^j/d_n basis)."""
    return Q_via_det(n, cs, 1).numerator


def Q_via_det(n: int, cs: CoeffSystem, variant: int) -> VElem:
    """Reconstruct Q_n = sum_j c_j e_j, c_j the cofactor of e_j over D_n.

    variant 1: basis x^j/d_n; variant 2: basis x^j/d_j (needs lam_k != 0);
    variant 3: basis 1/d_j.  The result is over the common denominator d_n.
    """
    if variant not in (1, 2, 3):
        raise ValueError("variant must be 1, 2 or 3")
    if n == 0:
        return VElem(Poly.const(1), 0, cs)
    kind = tuple(BASES)[variant - 1]
    if kind == "dprime":
        for k in range(1, n + 1):
            if cs.lam(k) == 0:
                raise HypothesisViolation(f"lam_{k} = 0: x^j/d_j basis degenerates")
    denom = _moment_det(kind, n, cs)
    if denom == 0:
        primes, name = "'" * variant, "P" if variant == 1 else "Q"  # variant 1 is P_via_det
        raise PQUniqueError(f"D{primes}_{n} = 0: {name}_{n} is not determined")
    # the cofactors of the last row are minors of the first n rows
    coeffs = _bordered_coeffs(
        [[_entry(kind, i, j, n, cs) for j in range(n + 1)] for i in range(n)]
    )
    numerator = Poly()
    for j, c in enumerate(coeffs):  # c_j e_j d_n = c_j x^power d_n/d_index
        power, index = BASES[kind](j, n)
        term = Poly.x(power) * (c / denom)
        for k in range(index + 1, n + 1):
            term = term * Poly.linear(cs.a(k), cs.lam(k))
        numerator = numerator + term
    return VElem(numerator, n, cs)


def lemma_xin_check(t: Scalar, n: int) -> DetReport:
    """(1+t)^{n(n+1)/2} for a_k = 1, b_k = t, lam_k = 0: the constant case A=1, B=t, C=0."""
    return replace(hankel_constant(n, Fraction(1), t, Fraction(0)), kind="xin")


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
