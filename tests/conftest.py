import contextlib
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import strategies as st

from r1poly import core
from r1poly.checks import random_laurent_system, random_system
from r1poly.core import CoeffSystem
from r1poly.exactmath import Poly, binomial, format_scalar, stirling2
from r1poly.families import hermite_moment
from r1poly.histories import (LaguerreHistory, MeixnerHistory, PartitionCycles,
                               enumerate_LH, enumerate_MH)
from r1poly.paths import weight_sum


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


# -- random tables for Hypothesis, and the gate that sends walks past SCALED_MAX_BITS

small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
nonzero = small.filter(bool)


@st.composite
def tables(draw, depth):
    """The lists of a random table: b, a (nonzero) and lam, ``depth`` each."""
    return tuple(draw(st.lists(kind, min_size=depth, max_size=depth))
                 for kind in (small, nonzero, small))


def gate_at_zero(on: bool):
    """With ``on``, the gate at 0 bits: a rational walk leaves the scaled
    integers at its first fractional coefficient (``core.SCALED_MAX_BITS``)."""
    return mock.patch.object(core, "SCALED_MAX_BITS", 0) if on else contextlib.nullcontext()


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


# -- the per-history maps, inverses and round trip the shared-prefix history
# walk replaced, kept as the reference it is tested against


def ref_phi(history):
    """History -> permutation: the H crossing to x = i starts a cycle at i;
    each following V with label v appends the v-th smallest integer in [i]
    not used anywhere yet."""
    labels = iter(history.labels)
    free = []
    cycles = []
    x = 0
    for s in history.steps:
        if s == "U":
            x += 1
            free.append(x)
        elif s == "H":
            x += 1
            cycles.append([x])
        else:
            cycles[-1].append(free.pop(next(labels) - 1))
    return tuple(map(tuple, cycles))


def ref_phi_inv(cycles):
    """(steps, labels) of the history ref_phi sends to canonical ``cycles``,
    else None."""
    n = sum(map(len, cycles))
    free = []
    steps = []
    labels = []
    x = 0
    for cyc in cycles:
        top = cyc[0]
        if not x < top <= n:
            return None
        free.extend(range(x + 1, top))
        steps.append("U" * (top - x - 1) + "H" + "V" * (len(cyc) - 1))
        x = top
        for e in cyc[1:]:
            if e not in free:
                return None
            rank = free.index(e)
            del free[rank]
            labels.append(rank + 1)
    return None if free else ("".join(steps), tuple(labels))


def ref_psi(history, trace=None):
    """History -> PartitionCycles, with one snapshot of the open blocks per
    non-vertical step in ``trace``."""
    steps = history.steps
    avail = []
    cycles = []
    x = 0
    for idx, (s, lab) in enumerate(zip(steps, history.labels)):
        if s == "V":
            blk = avail.pop(lab - 1)
            if not cycle:
                blk.append(x)
            cycle.append(tuple(blk))
            continue
        x += 1
        if s == "U":
            avail.append([x])
        elif steps[idx + 1 : idx + 2] == "V":
            if trace is not None:
                trace.append(tuple(map(tuple, avail)))
            cycle = [] if lab == 0 else [(x,)]
            cycles.append(cycle)
            continue
        elif lab is None:
            cycles.append(((x,),))
        else:
            avail[lab - 1].append(x)
        if trace is not None:
            trace.append(tuple(map(tuple, avail)))
    assert not avail
    return PartitionCycles(tuple(map(tuple, cycles)))


def ref_psi_inv(cycles):
    """(steps, labels) of the history ref_psi sends to canonical ``cycles``
    (blocks in any order), else None."""
    unseen, opened, closed = range(3)
    blocks = [blk for cyc in cycles for blk in cyc]
    n = sum(map(len, blocks))
    block_of = [-1] * (n + 1)
    for k, blk in enumerate(blocks):
        for e in blk:
            if not 0 < e <= n or block_of[e] >= 0:
                return None
            block_of[e] = k
    state = [unseen] * len(blocks)
    avail = []
    steps = []
    labels = []
    x = 0
    for cyc in cycles:
        top = max(cyc[0])
        if top <= x:
            return None
        for i in range(x + 1, top):
            k = block_of[i]
            if state[k] == opened:
                steps.append("H")
                labels.append(avail.index(k) + 1)
            elif state[k] == unseen:
                state[k] = opened
                avail.append(k)
                steps.append("U")
                labels.append(None)
            else:
                return None
        x = top
        if len(cyc[0]) == 1:
            labels.append(None)
            to_take = cyc[1:]
        else:
            labels.append(0)
            to_take = cyc
        steps.append("H" + "V" * len(to_take))
        for blk in to_take:
            k = block_of[blk[0]]
            if state[k] != opened:
                return None
            state[k] = closed
            rank = avail.index(k)
            del avail[rank]
            labels.append(rank + 1)
    return None if x < n else ("".join(steps), tuple(labels))


def ref_round_trip(kind, n):
    """(count, ok) of a bijection check, history by history: the inverse of
    every image gives back the history, the map keeps the statistic, and
    there are n! (Laguerre) or Fubini(n) (Meixner) histories."""
    count = 0
    ok = True
    if kind == "laguerre":
        for h in enumerate_LH(n):
            cycles = ref_phi(h)
            count += 1
            ok = ok and ref_phi_inv(cycles) == (h.steps, h.labels) and (
                h.horizontal_count() == len(cycles))
        return count, ok and count == math.factorial(n)
    for h in enumerate_MH(n):
        cycles = ref_psi(h).cycles
        count += 1
        ok = ok and ref_psi_inv(cycles) == (h.steps, h.labels) and (
            h.exponents() == (len(cycles), sum(map(len, cycles))))
    return count, ok and count == sum(math.factorial(j) * stirling2(n, j) for j in range(n + 1))


def ref_cycle_non_excedance_counts(n):
    """counts[cycles, non-excedances] over the permutations of [n], by brute
    force: every permutation from ``itertools.permutations``, its cycles by
    a scan."""
    counts = Counter()
    idx = range(1, n + 1)
    for perm in itertools.permutations(idx):
        seen = [False] * (n + 1)
        cycles = 0
        for start in idx:
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j - 1]
        counts[cycles, sum(map(operator.le, perm, idx))] += 1
    return counts


@contextlib.contextmanager
def no_history_objects():
    """The history enumerator and the LaguerreHistory and MeixnerHistory
    constructors fail inside: the code run there must build no history."""
    def fail(*args, **kwargs):
        raise AssertionError("a history object was built")

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch("r1poly.histories._histories", fail))
        for cls in (LaguerreHistory, MeixnerHistory):
            stack.enter_context(mock.patch.object(cls, "__init__", fail))
        yield


# -- the per-endpoint forms the verify readers replace


def ref_column_sums(start, xs, heights, ws, max_height=None):
    """``paths.column_sums`` by one ``weight_sum`` walk per endpoint."""
    return [[weight_sum(start, (x, y), ws, max_height) for y in heights] for x in xs]


def ref_rho_sum(n, m, ell, ws):
    """``paths.rho_sum`` one endpoint at a time: prod_{h=1..ell} (a_h + lam_h z)
    expanded here, and the prefix to (n + ell - j, ell) of the suffix with j
    D steps by its own ``weight_sum`` walk."""
    suffix = [ws.one]
    for h in range(ell, 0, -1):
        v, d = ws.step_weight("V", h), ws.step_weight("D", h)
        nxt = [ws.zero] * (len(suffix) + 1)
        for j, c in enumerate(suffix):
            nxt[j] = nxt[j] + c * v
            nxt[j + 1] = nxt[j + 1] + c * d
        suffix = nxt
    total = ws.zero
    for j, c in enumerate(suffix):
        total = total + c * weight_sum((0, m), (n + ell - j, ell), ws)
    return total


def fraction_L_eval(v):
    """``core.L_eval`` summed term by term over Fraction, top term first,
    after the same a_i checks."""
    cs, m = v.owner, v.denom_index
    for i in range(1, m + 1):
        cs.a_nonzero(i)
    nu_t = cs.nu_table()
    nums = v.numerator.numerators
    total = Fraction(0)
    for k in range(len(nums) - 1, -1, -1):
        if nums[k]:
            total += nums[k] * nu_t.value(k, m)
    return total / v.numerator.denominator
