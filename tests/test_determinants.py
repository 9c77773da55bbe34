from fractions import Fraction

import pytest

from r1poly import core, determinants
from r1poly.checks import random_fraction, random_system
from r1poly.core import CoeffSystem, L_laurent, P, VElem, cf_series, mu, nu
from r1poly.determinants import (
    HypothesisViolation,
    P_via_det,
    Q_via_det,
    classical_equiv_check,
    cramer_monicity_check,
    delta_dprime,
    delta_prime,
    delta_shifted,
    delta_tprime,
    det_exact,
    hankel,
    hankel_constant,
    hankel_minors,
    lemma_xin_check,
)
from r1poly.exactmath import Poly


def det_cofactor(m):
    """Independent oracle: recursive cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += Fraction(-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def test_det_identity():
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_two_by_two_is_first_hankel(ones):
    m = [[1, 2], [2, 7]]
    assert det_exact(m) == 3
    assert hankel(1, ones) == 3


def test_det_vs_cofactor_oracle(rng):
    for size in (2, 3, 4, 5):
        m = [[random_fraction(rng) for _ in range(size)] for _ in range(size)]
        assert det_exact(m) == det_cofactor(m)


def test_det_singular():
    assert det_exact([[1, 2], [2, 4]]) == 0


def test_det_requires_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def hankel_prefix_dets(seq, n):
    """Every leading minor of the Hankel matrix of ``seq``, each by det_exact."""
    return [det_exact([list(seq[i:i + m + 1]) for i in range(m + 1)]) for m in range(n + 1)]


def moment_sequences(cs, n):
    """mu_k, nu_{k,n} and (n >= 1) nu_{1+k,n}, each long enough for H_n."""
    seqs = [[mu(k, cs) for k in range(2 * n + 1)], [nu(k, n, cs) for k in range(2 * n + 1)]]
    if n:
        seqs.append([nu(1 + k, n, cs) for k in range(2 * n + 1)])
    return seqs


def xin_moments(t, n):
    cs = CoeffSystem(lambda k: t, lambda k: Fraction(1), lambda k: Fraction(0), name="xin")
    return [mu(k, cs) for k in range(2 * n + 1)]


# Hand-made sequences with vanishing leading minors: c_0 = 0, an interior
# zero (H_1 = 0, H_2 = -1), the xin system at t = -1 (H_k = 0 for k >= 1),
# and an all-zero tail.
_DEGENERATE = [
    ([0, 1, 2, 3, 5], 2),
    ([1, 1, 1, 0, 3], 2),
    (xin_moments(Fraction(-1), 5), 5),
    ([2, 0, 0, 0, 0, 0, 0], 3),
]


def test_hankel_minors_match_det_exact_on_random_systems(random_systems):
    fallbacks = 0
    for cs in random_systems:
        for n in range(9):
            for seq in moment_sequences(cs, n):
                want = hankel_prefix_dets(seq, n)
                assert hankel_minors(seq, n) == want, (n, seq)
                fallbacks += 0 in want[:-1]
                for start in range(n + 1):
                    assert hankel_minors(seq, n, start) == want[start:]
    assert fallbacks  # the random tables reach the fallback too


def test_hankel_minors_edge_cases():
    assert hankel_minors([Fraction(3, 4)], 0) == [Fraction(3, 4)]
    assert hankel_minors([5, 7, 9], 0) == [5]
    assert hankel_minors([1, 1, 1, 0, 3], 2) == [1, 0, -1]
    assert hankel_minors([0, 1, 2, 3, 5], 2) == hankel_prefix_dets([0, 1, 2, 3, 5], 2)
    assert hankel_minors(xin_moments(Fraction(-1), 5), 5) == [1, 0, 0, 0, 0, 0]
    assert lemma_xin_check(Fraction(-1), 4).computed == 0
    with pytest.raises(ValueError):
        hankel_minors([1, 2], 1)
    with pytest.raises(ValueError, match="n >= 0"):
        hankel_minors([1, 2, 3], -1)


def test_hankel_minors_fall_back_exactly_at_a_vanishing_pivot(random_systems, monkeypatch):
    cases = list(_DEGENERATE)
    for cs in random_systems:
        for n in range(9):
            cases += [(seq, n) for seq in moment_sequences(cs, n)]
    calls = []

    def counting(matrix):
        calls.append(len(matrix))
        return det_exact(matrix)

    monkeypatch.setattr(determinants, "det_exact", counting)
    fallbacks = 0
    for seq, n in cases:
        want = hankel_prefix_dets(seq, n)
        # sigma_{j,j} = H_j / H_{j-1}, so the first vanishing pivot is the
        # first vanishing minor
        first_zero = next((k for k in range(n) if want[k] == 0), None)
        for start in range(n + 1):
            calls.clear()
            assert hankel_minors(seq, n, start) == want[start:]
            if first_zero is None:
                assert calls == [], (seq, n, start)
            else:
                assert calls == list(range(max(first_zero + 1, start) + 1, n + 2))
                fallbacks += 1
    assert fallbacks


def test_cramer_monicity_check_compares_two_minors(random_systems, monkeypatch):
    cs, n = random_systems[0], 4
    assert cramer_monicity_check(n, cs)

    def nudged(k, m, system):
        return core.nu(k, m, system) + (1 if (k, m) == (2 * n, n) else 0)

    monkeypatch.setattr(determinants, "nu", nudged)
    assert not cramer_monicity_check(n, cs)
    assert cramer_monicity_check(n - 1, cs)


def test_delta_prime_first_value(rng):
    cs = random_system(rng)
    rep = delta_prime(1, cs)
    assert rep.matched
    assert rep.computed == 1 / (cs.lam(1) + cs.a(1) * cs.b(0))


def test_factorizations_on_random_systems(random_systems):
    for cs in random_systems:
        for n in range(1, 7):
            assert delta_prime(n, cs).matched, n
            assert delta_dprime(n, cs).matched, n
            assert delta_tprime(n, cs).matched, n
            assert cramer_monicity_check(n, cs), n


def test_shifted_factorizations(random_systems):
    for cs in random_systems:
        for kind in ("prime", "dprime", "tprime"):
            for n in range(1, 7):
                rep = delta_shifted(kind, n, 1, cs)
                assert rep.matched, (kind, n, rep)


def test_shifted_minor_is_the_column_zero_cofactor(random_systems):
    # The shifted matrix is the bordered matrix's first n rows without
    # column 0, so D_{n-1,1} = (-1)^n c_0 D_n with c_0 the e_0 coefficient
    # of Q_n = P_n/d_n in the basis: P_n(0) for x^j/d_n, P_n(0)/prod lam_k
    # for x^j/d_j (read off at x = 0) and 1/prod a_k for 1/d_j (read off
    # the x^n coefficient).  No closed product enters.
    reports = {"prime": delta_prime, "dprime": delta_dprime, "tprime": delta_tprime}
    checked = 0
    for cs in random_systems:
        for n in range(1, 7):
            a_prod = lam_prod = Fraction(1)
            for k in range(1, n + 1):
                a_prod *= cs.a(k)
                lam_prod *= cs.lam(k)
            p0 = P(n, cs)(0)
            c0 = {"prime": p0, "dprime": p0 / lam_prod if lam_prod else None,
                  "tprime": 1 / a_prod}
            for kind, report in reports.items():
                if c0[kind] is None:
                    continue
                shifted = delta_shifted(kind, n, 1, cs).computed
                assert shifted == (-1) ** n * c0[kind] * report(n, cs).computed, (kind, n)
                checked += 1
    assert checked > 2 * len(random_systems) * 6


def test_shifted_needs_shift_one(rng):
    cs = random_system(rng)
    with pytest.raises(HypothesisViolation):
        delta_shifted("prime", 3, 2, cs)


def test_det_exact_calls_per_report_are_pinned(random_systems, monkeypatch):
    # Recorded before the bases were read from one table.  The Hankel-shaped
    # minors take det_exact only past a vanishing pivot, which the nu_{k,5}
    # sequence of system 0 reaches once; every other determinant and every
    # cofactor of a bordered matrix is one det_exact call.
    runs = {
        "prime": lambda n, cs: delta_prime(n, cs),
        "dprime": lambda n, cs: delta_dprime(n, cs),
        "tprime": lambda n, cs: delta_tprime(n, cs),
        "shifted-prime": lambda n, cs: delta_shifted("prime", n, 1, cs),
        "shifted-dprime": lambda n, cs: delta_shifted("dprime", n, 1, cs),
        "shifted-tprime": lambda n, cs: delta_shifted("tprime", n, 1, cs),
        "P": lambda n, cs: P_via_det(n, cs),
        "Q1": lambda n, cs: Q_via_det(n, cs, 1),
        "Q2": lambda n, cs: Q_via_det(n, cs, 2),
        "Q3": lambda n, cs: Q_via_det(n, cs, 3),
    }
    calls = []

    def counting(matrix):
        calls.append(len(matrix))
        return det_exact(matrix)

    def count(run, n, cs):
        calls.clear()
        try:
            run(n, cs)
        except HypothesisViolation:
            return None
        return len(calls)

    monkeypatch.setattr(determinants, "det_exact", counting)
    per_n = {"prime": 0, "dprime": 1, "tprime": 1, "shifted-prime": 0, "shifted-dprime": 1,
             "shifted-tprime": 1}
    for index, cs in enumerate(random_systems):
        for n in range(1, 6):
            fallback = int((index, n) == (0, 5))
            want = dict(per_n, P=n + 1, Q1=n + 1, Q2=n + 2, Q3=n + 2)
            for name in ("prime", "P", "Q1"):
                want[name] += fallback
            if index == 0 and n >= 2:
                want["Q2"] = None  # lam_2 = 0: the x^j/d_j basis is refused first
            got = {name: count(run, n, cs) for name, run in runs.items()}
            assert got == want, (index, n)


def test_hankel_constant_ones():
    values = [hankel_constant(n, Fraction(1), Fraction(1), Fraction(1)) for n in range(1, 6)]
    assert [r.computed for r in values] == [3, 27, 729, 3**10, 3**15]
    assert all(r.matched for r in values)


def test_hankel_constant_random(rng):
    for _ in range(3):
        A = random_fraction(rng, nonzero=True)
        B, C = random_fraction(rng), random_fraction(rng)
        assert all(hankel_constant(n, A, B, C).matched for n in range(1, 6))


def test_xin_factorization(rng):
    rep = lemma_xin_check(Fraction(1), 3)
    assert rep.computed == 64 and rep.matched
    for _ in range(3):
        assert lemma_xin_check(random_fraction(rng), 4).matched
    # A = 1, B = 0, C = 0 collapses every determinant to 1
    assert all(
        hankel_constant(n, Fraction(1), Fraction(0), Fraction(0)).computed == 1
        for n in range(1, 7)
    )


def test_classical_equivalence():
    assert classical_equiv_check(Fraction(1), Fraction(1), Fraction(1), 10)
    assert classical_equiv_check(Fraction(2), Fraction(-1, 3), Fraction(1, 2), 10)
    classical = CoeffSystem(
        lambda k: Fraction(2) if k == 0 else Fraction(3), lambda k: 0, lambda k: Fraction(3)
    )
    s = cf_series(classical, 5)
    assert list(s.coeffs)[:3] == [1, 2, 7]  # A=B=C=1 comparison coefficients


def test_P_via_det(random_systems):
    for cs in random_systems[:2]:
        for n in range(6):
            assert P_via_det(n, cs) == P(n, cs)


def test_Q_via_det_all_variants(rng):
    # variant 2 needs every lam_k nonzero, so draw systems accordingly
    for _ in range(2):
        while True:
            cs = random_system(rng)
            if all(cs.lam(k) != 0 for k in range(1, 7)):
                break
        for n in range(6):
            want = VElem(P(n, cs), n, cs)
            for variant in (1, 2, 3):
                assert Q_via_det(n, cs, variant) == want


def test_Q_variant2_gated_on_lambda(laurent_system):
    with pytest.raises(HypothesisViolation):
        Q_via_det(2, laurent_system, 2)


def test_laurent_specializations(laurent_system):
    cs = laurent_system

    def L_power(k):
        if k >= 0:
            return mu(k, cs)
        return L_laurent(Poly.const(1), -k, cs)

    for n in range(1, 5):
        # D'' degenerates to zero
        assert delta_dprime(n, cs).computed == 0
        # D' in terms of the Laurent moment matrix
        pred = det_exact([[L_power(i + j - n) for j in range(n + 1)] for i in range(n + 1)])
        for i in range(1, n + 1):
            pred /= cs.a(i) ** (n + 1)
        assert delta_prime(n, cs).computed == pred
        # D''' likewise
        pred3 = det_exact([[L_power(i - j) for j in range(n + 1)] for i in range(n + 1)])
        for k in range(1, n + 1):
            pred3 /= cs.a(k) ** (n + 1 - k)
        assert delta_tprime(n, cs).computed == pred3


def test_laurent_negative_shift_determinant(laurent_system):
    # det(L(x^{i-j-1}))_{0..n-1} in closed form when lam = 0
    cs = laurent_system

    def L_power(k):
        if k >= 0:
            return mu(k, cs)
        return L_laurent(Poly.const(1), -k, cs)

    for n in range(1, 6):
        lhs = det_exact([[L_power(i - j - 1) for j in range(n)] for i in range(n)])
        rhs = Fraction(-1) ** (n * (n - 1) // 2)
        for i in range(1, n + 1):
            rhs /= cs.a(i)
        for k in range(1, n + 1):
            rhs *= (cs.a(k) / cs.b(k - 1)) ** (n + 1 - k)
        assert lhs == rhs


def test_classical_limit_hankel_construction(rng):
    # a = 0 is the classical case: the bordered moment determinant over the
    # plain Hankel minor rebuilds the recurrence polynomials
    from r1poly.core import CoeffSystem

    while True:
        cs = CoeffSystem.from_lists(
            [random_fraction(rng) for _ in range(14)],
            [Fraction(0)] * 14,
            [random_fraction(rng, nonzero=True) for _ in range(14)],
        )
        minors = [
            det_exact([[mu(i + j, cs) for j in range(n)] for i in range(n)])
            for n in range(1, 7)
        ]
        if all(m != 0 for m in minors):
            break
    for n in range(1, 6):
        denom = det_exact([[mu(i + j, cs) for j in range(n)] for i in range(n)])
        rows = [[mu(i + j, cs) for j in range(n + 1)] for i in range(n)]
        coeffs = []
        for j in range(n + 1):
            minor = [[row[c] for c in range(n + 1) if c != j] for row in rows]
            sign = (-1) ** (n + j)
            coeffs.append(sign * (det_exact(minor) if minor else Fraction(1)) / denom)
        assert Poly(coeffs) == P(n, cs)


def test_hankel_basis_change_invariance(rng):
    cs = random_system(rng)

    def L_poly(p):
        return sum((c * mu(k, cs) for k, c in enumerate(p.coeffs)), Fraction(0))

    for n in range(1, 5):
        ps = [Poly([random_fraction(rng) for _ in range(k)] + [1]) for k in range(n + 1)]
        qs = [Poly([random_fraction(rng) for _ in range(k)] + [1]) for k in range(n + 1)]
        lhs = det_exact([[mu(i + j, cs) for j in range(n + 1)] for i in range(n + 1)])
        rhs = det_exact(
            [[L_poly(ps[i] * qs[j]) for j in range(n + 1)] for i in range(n + 1)]
        )
        assert lhs == rhs


# -- the integer-row kernels against the plain Fraction references -------


def _small_matrix(rng, size, height=6):
    return [[Fraction(rng.randint(-height, height), rng.randint(1, height))
             for _ in range(size)] for _ in range(size)]


def _hard_matrices(rng):
    """Small-height matrices of sizes 1-12 that reach every branch: a zero
    first pivot (a row swap), a zero pivot deeper down, dependent rows, an
    all-zero column, int entries and negative entries only."""
    out = []
    for size in range(1, 13):
        out.append(_small_matrix(rng, size))
        m = _small_matrix(rng, size)
        m[0][0] = Fraction(0)
        out.append(m)
        if size >= 3:
            m = _small_matrix(rng, size)
            m[1] = [2 * v for v in m[0]]  # the second pivot vanishes, later rows swap up
            m[1][-1] += 1
            out.append(m)
            m = _small_matrix(rng, size)
            m[-1] = [u - 3 * v for u, v in zip(m[0], m[1])]  # singular
            out.append(m)
        m = _small_matrix(rng, size)
        k = rng.randrange(size)
        for row in m:
            row[k] = Fraction(0)  # an all-zero column
        out.append(m)
        out.append([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
        out.append([[-abs(v) - 1 for v in row] for row in _small_matrix(rng, size)])
    return out


def test_det_exact_matches_the_fraction_reference(rng, reference_det):
    swaps = singular = 0
    for m in _hard_matrices(rng):
        want = reference_det(m)
        assert det_exact(m) == want, m
        assert det_exact(m) == det_exact([list(row) for row in m])  # the input is not changed
        singular += want == 0
        swaps += m[0][0] == 0
    assert singular >= 20 and swaps >= 12


def test_hankel_minors_match_the_fraction_reference(rng, random_systems,
                                                     reference_hankel_minors):
    cases = list(_DEGENERATE) + [([1, 1, 1, 0, 3, 7, -2], 3)]
    cases += [([Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2 * n + 1)], n)
              for n in range(12)]
    cases += [([rng.randint(-3, 3) for _ in range(2 * n + 1)], n) for n in range(12)]
    for cs in random_systems[:3]:
        cases += [(seq, 8) for seq in moment_sequences(cs, 8)]
    fallbacks = 0
    for seq, n in cases:
        want = reference_hankel_minors(seq, n)
        fallbacks += 0 in want[:-1]
        for start in range(n + 1):
            assert hankel_minors(seq, n, start) == want[start:], (seq, n, start)
    assert fallbacks >= len(_DEGENERATE) + 1


def test_a_vanishing_sigma_takes_the_det_exact_fallback(monkeypatch, reference_hankel_minors):
    # sigma_{1,1} = mu_2 - mu_1^2/mu_0 = 0, so H_1 = 0 and H_2, H_3 come from det_exact
    seq = [1, 1, 1, 0, 3, 7, -2]
    calls = []

    def counting(matrix):
        calls.append(len(matrix))
        return det_exact(matrix)

    monkeypatch.setattr(determinants, "det_exact", counting)
    assert hankel_minors(seq, 3) == reference_hankel_minors(seq, 3)
    assert calls == [3, 4]


def test_grid_matrices_match_the_fraction_reference(grid_lists, reference_det,
                                                    reference_hankel_minors):
    # the 25 x 25 moment matrices of the benchmark's grid table at seed 1
    cs = CoeffSystem.from_lists(*grid_lists, name="grid")
    n = 24
    for kind in ("prime", "dprime", "tprime"):
        matrix = [[determinants._entry(kind, i, j, n, cs) for j in range(n + 1)]
                  for i in range(n + 1)]
        assert det_exact(matrix) == reference_det(matrix), kind
    seq = [determinants._entry("prime", k, 0, n, cs) for k in range(2 * n + 1)]
    assert hankel_minors(seq, n) == reference_hankel_minors(seq, n)
    assert delta_prime(n, cs).matched and delta_tprime(n, cs).matched


def test_det_exact_matches_sympy(rng, grid_lists):
    sympy = pytest.importorskip("sympy")
    cs = CoeffSystem.from_lists(*grid_lists, name="grid")
    matrices = _hard_matrices(rng)[::9]
    matrices.append([[nu(i, j, cs) for j in range(8)] for i in range(8)])
    for m in matrices:
        want = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                             for row in m]).det()
        assert det_exact(m) == Fraction(int(want.p), int(want.q))
