"""The moment grid and the path sums against a plain Fraction reference.

Rational systems walk over integers scaled by a power of the lcm D of the
denominators read, and leave them for Fraction once D passes
``core.SCALED_MAX_BITS`` bits.  The references below are the recurrences
written out over Fraction, reading the coefficients lazily in the order of
a plain Fraction fill, so the values, the reads and the errors can all be
compared.
"""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r1poly import families
from r1poly.core import CoeffError, CoeffSystem, MemoLimitError, mu, mu_nm
from r1poly.families import FamilyParamError, FamilySpec
from r1poly.paths import WeightSystem, weight_sum


def reference_mu_rows(cs: CoeffSystem, upto: int, rows: list | None = None) -> list:
    """mu_{n,m} for n <= upto by the recurrence, row by row over Fraction.

    Reads b_m, a_{m+1}, lam_{m+1} only where the entry it multiplies is
    nonzero.  ``rows`` continues an earlier fill."""
    rows = rows if rows is not None else [[Fraction(1)]]
    for n in range(len(rows), upto + 1):
        prev, row = rows[-1], [Fraction(0)] * (n + 1)
        for m in range(n, -1, -1):
            val = prev[m - 1] if m else Fraction(0)
            left = prev[m] if m < n else 0
            up = row[m + 1] if m < n else 0
            upleft = prev[m + 1] if m + 1 < n else 0
            if left:
                val += cs.b(m) * left
            if up:
                val += cs.a(m + 1) * up
            if upleft:
                val += cs.lam(m + 1) * upleft
            row[m] = val
        rows.append(row)
    return rows


def reference_weight_sum(cs: CoeffSystem, start, end, max_height=None) -> Fraction:
    """The path sum by a dict-per-column program over Fraction."""
    (x0, y0), (x1, y1) = start, end
    if x1 < x0 or (max_height is not None and max(y0, y1) > max_height):
        return Fraction(0)
    col = {y0: Fraction(1)}
    for y in range(y0 - 1, -1, -1):
        col[y] = col[y + 1] * cs.a(y + 1)
    for x in range(x0 + 1, x1 + 1):
        top = y0 + x - x0 if max_height is None else min(y0 + x - x0, max_height)
        nxt: dict = {}
        for y in range(top, -1, -1):
            val = col.get(y - 1, Fraction(0))
            if y in col:
                val += col[y] * cs.b(y)
            if y + 1 in col:
                val += col[y + 1] * cs.lam(y + 1)
            if y + 1 in nxt:
                val += nxt[y + 1] * cs.a(y + 1)
            nxt[y] = val
        col = nxt
    return col.get(y1, Fraction(0))


def recording(cs: CoeffSystem, log: list) -> CoeffSystem:
    """cs with every stream read appended to ``log`` as (kind, index)."""
    def stream(kind, read):
        def logged(n):
            log.append((kind, n))
            return read(n)
        return logged
    return CoeffSystem(stream("b", cs.b), stream("a", cs.a), stream("lam", cs.lam),
                       valid_to=cs.valid_to, name=cs.name)


def ring_of(cs: CoeffSystem) -> str:
    """Which ring the system's mu walk is on now."""
    return "fraction" if cs.mu_table()._walk.scale is None else "scaled"


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
nonzero = small.filter(bool)


@st.composite
def tables(draw, depth):
    """The lists of a random table: b, a (nonzero) and lam, ``depth`` each."""
    return tuple(draw(st.lists(kind, min_size=depth, max_size=depth))
                 for kind in (small, nonzero, small))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), tables(n + 2))))
def test_mu_grid_matches_the_fraction_recurrence(case):
    n, lists = case
    cs = CoeffSystem.from_lists(*lists)
    rows = reference_mu_rows(CoeffSystem.from_lists(*lists), n)
    for k, row in enumerate(rows):
        for m, want in enumerate(row):
            got = mu_nm(k, m, cs)
            assert type(got) is Fraction and got == want


@settings(max_examples=60, deadline=None)
@given(tables(17), st.integers(0, 6), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.one_of(st.none(), st.integers(0, 8)))
def test_weight_sum_matches_the_fraction_program(lists, x0, y0, dx, y1, cap):
    cs, ref_cs = CoeffSystem.from_lists(*lists), CoeffSystem.from_lists(*lists)
    got = weight_sum((x0, y0), (x0 + dx, y1), WeightSystem(cs), max_height=cap)
    assert type(got) is Fraction
    assert got == reference_weight_sum(ref_cs, (x0, y0), (x0 + dx, y1), cap)


def _growing_denominators() -> FamilySpec:
    """Whole coefficients up to index 20; sevenths from 20 and elevenths from 30."""
    def den(n):
        return 1 if n < 20 else 7 if n < 30 else 77
    return FamilySpec("growing", {}, lambda n: Fraction(n % 5 - 2, den(n)),
                      lambda n: Fraction(n % 3 + 1, den(n)), lambda n: Fraction(n % 4, den(n)))


RING_CASES = {  # system, rows filled, the ring after row 2, the ring at the end
    "laguerre": (families.laguerre(Fraction(8, 7)), 60, "scaled", "scaled"),
    "meixner": (families.meixner(Fraction(6, 5), Fraction(4, 7)), 60, "scaled", "scaled"),
    "rescaled mid-fill": (_growing_denominators(), 45, "scaled", "scaled"),
    "jacobi11": (families.jacobi11(Fraction(6, 5), Fraction(7, 5)), 40, "scaled", "fraction"),
    "little_q_jacobi": (families.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)),
                        25, "scaled", "fraction"),
}


@pytest.mark.parametrize("name", RING_CASES)
def test_each_ring_matches_the_reference(name):
    spec, n, early, late = RING_CASES[name]
    rows = reference_mu_rows(spec.build(), n)
    by_row, at_once = spec.build(), spec.build()
    mu(2, by_row)
    assert ring_of(by_row) == early
    for k in range(3, n + 1):
        assert mu(k, by_row) == rows[k][0]
    mu(n, at_once)
    assert ring_of(by_row) == ring_of(at_once) == late
    for k, row in enumerate(rows):
        for m, want in enumerate(row):
            assert mu_nm(k, m, by_row) == mu_nm(k, m, at_once) == want
    walk = weight_sum((3, 2), (n, 1), WeightSystem(spec.build()), max_height=6)
    assert walk == reference_weight_sum(spec.build(), (3, 2), (n, 1), 6)


def test_growing_denominators_rescale_the_stored_rows():
    cs = _growing_denominators().build()
    mu(19, cs)
    assert cs.mu_table()._walk.scale == 1
    mu(45, cs)
    assert cs.mu_table()._walk.scale == 77


@pytest.mark.parametrize("name", RING_CASES)
def test_the_fill_reads_as_the_fraction_fill_reads(name):
    spec, n, _, _ = RING_CASES[name]
    walked, reference = [], []
    mu(n, recording(spec.build(), walked))
    reference_mu_rows(recording(spec.build(), reference), n)
    assert walked == reference
    assert max(Counter(walked).values()) == 1
    walked, reference = [], []
    weight_sum((2, 5), (n, 3), WeightSystem(recording(spec.build(), walked)), max_height=9)
    reference_weight_sum(recording(spec.build(), reference), (2, 5), (n, 3), 9)
    assert walked == reference


def _failing_at(k: int, denominator) -> FamilySpec:
    return FamilySpec("probe", {}, lambda n: Fraction(1, denominator(n) * (k - n)),
                      lambda n: Fraction(2), lambda n: Fraction(1, 3))


def _first_failure(fill, upto: int):
    for n in range(upto + 1):
        try:
            fill(n)
        except (FamilyParamError, CoeffError) as exc:
            return n, type(exc), str(exc)
    return None


@pytest.mark.parametrize("spec, ring", [
    (_failing_at(12, lambda n: 1), "scaled"),
    (_failing_at(60, lambda n: n + 1), "fraction"),
    (FamilySpec("table", {}, Fraction, Fraction, Fraction, valid_to=9), "scaled"),
])
def test_errors_arrive_at_the_same_call(spec, ring):
    cs, ref_cs, rows = spec.build(), spec.build(), [[Fraction(1)]]
    failure = _first_failure(lambda n: mu(n, cs), 70)
    assert failure == _first_failure(lambda n: reference_mu_rows(ref_cs, n, rows), 70)
    assert failure is not None and ring_of(cs) == ring
    with pytest.raises(failure[1], match="^" + re.escape(failure[2]) + "$"):
        mu(failure[0], cs)


def test_memo_limit_on_a_scaled_table(monkeypatch):
    cs = families.laguerre(Fraction(8, 7)).build()
    mu(3, cs)
    monkeypatch.setenv("R1_MEMO_LIMIT", "20")
    with pytest.raises(MemoLimitError, match=r"^mu table: 21 entries > R1_MEMO_LIMIT=20 "
                                             r"\(filling row 5 for n=9\)$"):
        mu(9, cs)
    assert ring_of(cs) == "scaled" and sorted(cs.mu_table().memo) == sorted(
        (n, m) for n in range(6) for m in range(n + 1))
    monkeypatch.delenv("R1_MEMO_LIMIT")
    assert mu(9, cs) == reference_mu_rows(families.laguerre(Fraction(8, 7)).build(), 9)[9][0]
