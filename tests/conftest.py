import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from r1poly.checks import random_laurent_system, random_system
from r1poly.core import CoeffSystem
from r1poly.exactmath import Poly, binomial, format_scalar
from r1poly.families import hermite_moment


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def random_systems(rng):
    return [random_system(rng) for _ in range(6)]


@pytest.fixture
def laurent_system(rng):
    return random_laurent_system(rng)


@pytest.fixture
def ones():
    return CoeffSystem(
        lambda n: Fraction(1), lambda n: Fraction(1), lambda n: Fraction(1), name="ones"
    )


# -- the plain Fraction references the integer-row fast paths are tested against


def _reference_det(matrix):
    """Fraction Gaussian elimination, first nonzero pivot; 0 when singular."""
    n = len(matrix)
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


def _reference_hankel_minors(seq, n, start=0):
    """[H_start..H_n] by the modified Chebyshev algorithm on Fractions, with
    each minor past a vanishing sigma_{k,k} from ``_reference_det``."""
    c = [Fraction(v) for v in seq[: 2 * n + 1]]
    minors = []
    minor = Fraction(1)
    row, below = c, [0] * len(c)
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
        _reference_det([c[i : i + m + 1] for i in range(m + 1)])
        for m in range(max(k + 1, start), n + 1)
    ]


@pytest.fixture
def reference_det():
    return _reference_det


@pytest.fixture
def reference_hankel_minors():
    return _reference_hankel_minors


def _small_fraction(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if v or not nonzero:
            return v


@pytest.fixture(scope="session")
def grid_lists():
    """The (b, a, lam) lists of the benchmark's `grid` workload at seed 1: 302
    small-height values each, re-drawn until P_k(-lam_k/a_k) != 0 for k <= 40."""
    rng = random.Random("grid-1")
    while True:
        lists = (
            [_small_fraction(rng) for _ in range(302)],
            [_small_fraction(rng, nonzero=True) for _ in range(302)],
            [_small_fraction(rng) for _ in range(302)],
        )
        b, a, lam = lists
        if all(_p_at_root(b, a, lam, k) for k in range(1, 41)):
            return lists


def _p_at_root(b, a, lam, k):
    """P_k(-lam_k/a_k) by the three-term recurrence at that point."""
    x = -lam[k] / a[k]
    prev, cur = Fraction(0), Fraction(1)
    for j in range(k):
        prev, cur = cur, (x - b[j]) * cur - ((a[j] * x + lam[j]) * prev if j else 0)
    return cur


# -- a plain list-of-Fraction polynomial, the reference Poly is tested against:
# coefficients lowest power first, with no trailing zero


def ref_poly(coeffs) -> list:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_add(p, q) -> list:
    n = max(len(p), len(q))
    return ref_poly([(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)])


def ref_mul(p, q) -> list:
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ref_poly(out)


def ref_eval(p, x) -> Fraction:
    return sum((c * Fraction(x) ** k for k, c in enumerate(p)), Fraction(0))


def ref_shift(p, k) -> list:
    return ref_poly([0] * k + p) if p else []


def ref_reverse(p, n) -> list:
    return ref_poly((p + [Fraction(0)] * (n + 1 - len(p)))[::-1])


def check_poly_form(p):
    """The stored form of a Poly: int numerators over an int denominator > 0,
    gcd 1 between them, and no trailing zero."""
    nums, den = p.numerators, p.denominator
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0


def ref_poly_str(p) -> str:
    """The display of a reference poly, term by term as Poly printed it
    before its terms went through the printer it shares with SymPoly."""
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        if k == 0:
            parts.append(format_scalar(c))
        else:
            xk = "x" if k == 1 else f"x^{k}"
            if c == 1:
                parts.append(xk)
            elif c == -1:
                parts.append(f"-{xk}")
            else:
                parts.append(f"{format_scalar(c)}*{xk}")
    return " + ".join(parts).replace("+ -", "- ")


def ref_series(num, den, order) -> list:
    """num/den through x^order, for reference polys with den[0] != 0: the
    Fraction recurrence T_k = (num_k - sum_{j>=1} den_j T_{k-j}) / den_0."""
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def check_series(s, want, order):
    """s is the reference list ``want`` truncated at ``order``, in the stored
    form of a Series: a Poly of degree <= order, with coeffs padded to it."""
    check_poly_form(s.poly)
    assert s.order == order and s.poly.degree <= order
    padded = (list(want) + [Fraction(0)] * (order + 1))[: order + 1]
    assert len(s.coeffs) == order + 1 and list(s.coeffs) == padded
    assert [s[k] for k in range(-order - 1, order + 1)] == padded * 2


@contextlib.contextmanager
def no_poly_fractions():
    """Poly.coeffs and Poly.__getitem__ fail inside: the code run there must
    read the integer rows of its Polys."""
    def fail(*args):
        raise AssertionError("a Fraction of a coefficient of a Poly was made")

    with mock.patch.object(Poly, "coeffs", property(fail)), mock.patch.object(Poly, "__getitem__", fail):
        yield


# -- theta and chebyshev_weight as parity-split binomial sums, the form each
# had before both summed one kernel coefficient over k of n's parity


def ref_theta(m, a) -> Fraction:
    if m % 2 == 0:
        n = m // 2
        return sum(
            binomial(n + k // 2, k) * a**k * hermite_moment(2 * n + k)
            for k in range(0, 2 * n + 1, 2)
        )
    n = (m - 1) // 2
    return sum(
        binomial(n + (k + 1) // 2, k) * a**k * hermite_moment(2 * n + 1 + k)
        for k in range(1, 2 * n + 2, 2)
    )


def ref_chebyshev_weight(n, x, a) -> Fraction:
    if n % 2 == 0:
        m = n // 2
        return sum(binomial(m + k // 2, k) * (a * x) ** k for k in range(0, n + 1, 2))
    m = (n - 1) // 2
    return sum(binomial(m + (k + 1) // 2, k) * (a * x) ** k for k in range(1, n + 2, 2))
