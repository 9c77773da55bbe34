"""The moment grid, the path sums, P_n and the continued fraction against
plain Fraction references.

Rational systems walk over integers scaled by a power of the lcm D of the
denominators read until D passes ``core.SCALED_MAX_BITS`` bits.  Past that
gate the path walk stores each column as integers over one common
denominator, which must be the lcm of the column's reduced denominators,
and steps it on integers with (numerator, denominator) weights.  Each
column stays in the form it was kept in: a scaled column k holds
D_k^e times its values, D_k = ``dens[k]``, and only the column the walk
stands in is converted by a new D or by the crossing.  P keeps
every row as a Poly, integers over one denominator, the lcm of the row's
reduced denominators, and hands out the row it keeps.  The references
below are the recurrences
written out over Fraction, reading the coefficients lazily in the order of
a plain Fraction fill, so the values, the reads and the errors can all be
compared.
"""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r1poly import core, families
from r1poly.core import (CoeffError, CoeffSystem, MemoLimitError, P, PathColumns, cf_series, mu,
                         mu_nm)
from r1poly.exactmath import Poly, Series, series_from_rational
from r1poly.families import FamilyParamError, FamilySpec
from r1poly.paths import WeightSystem, finite_cf_rational, weight_sum

from conftest import check_poly_form, gate_at_zero, ref_add, ref_mul, tables


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


def reference_columns(cs: CoeffSystem, start, max_height=None):
    """The columns x0, x0 + 1, ... of path sums from start, as dicts from
    height to Fraction, by a dict-per-column program."""
    x0, y0 = start
    col = {y0: Fraction(1)}
    for y in range(y0 - 1, -1, -1):
        col[y] = col[y + 1] * cs.a(y + 1)
    yield col
    for x in itertools.count(x0 + 1):
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
        yield col


def reference_weight_sum(cs: CoeffSystem, start, end, max_height=None) -> Fraction:
    """The path sum by the dict-per-column program over Fraction."""
    (x0, y0), (x1, y1) = start, end
    if x1 < x0 or (max_height is not None and max(y0, y1) > max_height):
        return Fraction(0)
    col = next(itertools.islice(reference_columns(cs, start, max_height), x1 - x0, None))
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
    """Which ring the system's mu walk is on now: "fraction" past the gate,
    where it steps with the coefficients themselves as weights."""
    return "fraction" if cs.mu_table()._walk.scale is None else "scaled"


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


def _sparse_gated() -> FamilySpec:
    """b_n = 0 and a_n = 0 below index 16, so mu_{n,m} = 0 whenever n - m
    is odd and n + m < 32; a new 20-bit denominator from index 6 on, so the
    walk crosses the gate at row 10, among those zeros."""
    def den(n):
        return 1 if n < 6 else (1 << 20) + 7 * n
    return FamilySpec("sparse", {}, lambda n: Fraction(0),
                      lambda n: Fraction(0) if n < 16 else Fraction(n % 3 + 1, den(n)),
                      lambda n: Fraction(n % 4 + 1, den(n)))


# system, mu rows filled and P_n built, the ring of the mu walk after row 2 and at the end
RING_CASES = {
    "laguerre": (families.laguerre(Fraction(8, 7)), 60, "scaled", "scaled"),
    "meixner": (families.meixner(Fraction(6, 5), Fraction(4, 7)), 60, "scaled", "scaled"),
    "rescaled mid-fill": (_growing_denominators(), 45, "scaled", "scaled"),
    "jacobi11": (families.jacobi11(Fraction(6, 5), Fraction(7, 5)), 40, "scaled", "fraction"),
    "little_q_jacobi": (families.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)),
                        25, "scaled", "fraction"),
    "askey_wilson": (families.askey_wilson(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                                           Fraction(1, 11), Fraction(1, 2)), 25, "scaled", "fraction"),
    "sparse, gated mid-walk": (_sparse_gated(), 35, "scaled", "fraction"),
}
GATED = [name for name, case in RING_CASES.items() if case[3] == "fraction"]


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


def test_growing_denominators_keep_each_row_under_its_own_lcm():
    """A new denominator rescales the current row only; each kept row stays
    over the D it was made with."""
    cs = _growing_denominators().build()
    mu(19, cs)
    assert cs.mu_table()._walk.scale == 1
    mu(45, cs)
    assert cs.mu_table()._walk.scale == 77
    assert cs.mu_table()._walk.dens == [1] * 20 + [7] * 10 + [77] * 16


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
    rows = reference_mu_rows(families.laguerre(Fraction(8, 7)).build(), 9)
    check_limited_walks(cs, rows, 5, r"^mu table: 21 entries > R1_MEMO_LIMIT=20 "
                                     r"\(filling row 5 for n=9\)$")
    assert ring_of(cs) == "scaled"
    monkeypatch.delenv("R1_MEMO_LIMIT")
    assert mu(9, cs) == rows[9][0]
    check_kept_columns(cs, rows)


def lcm_of_denominators(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def check_kept_column(walk: PathColumns, x: int, kept: list, want):
    """Column x as kept, against the reference values ``want[y]``: ints, and
    a scaled column holds D^e times each value with D = ``dens[x - x0]`` and
    e = (x - x0) - (y - y0), a gated one the values over the lcm of their
    reduced denominators."""
    k, den = x - walk.x0, walk.dens[x - walk.x0]
    values = [want[y] for y in range(len(kept))]
    assert all(type(v) is int for v in kept)
    if walk.gated_from is not None and k >= walk.gated_from:
        assert den == lcm_of_denominators(values)
        assert [Fraction(v, den) for v in kept] == values
    else:
        assert kept == [den ** (k - y + walk.y0) * v for y, v in enumerate(values)]


def gated_by_its_reads(walk: PathColumns) -> bool:
    """With the gate at 0 bits: the walk is gated exactly when it has read a
    coefficient that is not whole."""
    whole = all(v.denominator == 1 for vs in walk._coeffs for v in vs if v is not None)
    return (walk.gated_from is None) == whole


def check_row_walk(cs: CoeffSystem, rows: list):
    """Fill the mu rows one at a time: the row walk's current column as kept
    against each reference row, and ``memo`` holding row 0 as Fractions."""
    table = cs.mu_table()
    for k, row in enumerate(rows):
        assert mu(k, cs) == row[0]
        assert table._walk.x == k and len(table._walk.dens) == k + 1
        check_kept_column(table._walk, k, table._walk.col, row)
    assert table.memo == {(k, 0): row[0] for k, row in enumerate(rows)}
    assert all(type(v) is Fraction for v in table.memo.values())


def check_kept_columns(cs: CoeffSystem, rows: list):
    """The mu_{n,m} walk, filled to the last reference row, keeps every
    column under (n, m), each as kept against its row."""
    n = len(rows) - 1
    assert mu_nm(n, n, cs) == rows[n][n]
    grid = cs.mu_table()._grid
    assert sorted(grid.memo) == sorted((k, m) for k in range(n + 1) for m in range(k + 1))
    for k, row in enumerate(rows):
        check_kept_column(grid, k, [grid.memo[(k, m)] for m in range(k + 1)], row)


def check_limited_walks(cs: CoeffSystem, rows: list, row: int, message: str):
    """Under the memo limit both walks fail at ``row`` with ``message``, and
    keep what they made: row 0 to ``row``, the walk standing in that column,
    and the grid's columns to it."""
    table = cs.mu_table()
    for request in (lambda: mu(len(rows) - 1, cs), lambda: mu_nm(len(rows) - 1, 1, cs)):
        with pytest.raises(MemoLimitError, match=message):
            request()
    assert table.memo == {(k, 0): rows[k][0] for k in range(row + 1)}
    assert table._walk.x == table._grid.x == row
    check_kept_column(table._walk, row, table._walk.col, rows[row])
    assert sorted(table._grid.memo) == sorted((k, m) for k in range(row + 1)
                                              for m in range(k + 1))


def check_gated_walk(walk: PathColumns, want_columns):
    """Every column of ``walk`` against the reference columns, and each
    column as kept, scaled or gated."""
    for x, want in enumerate(want_columns, walk.x0):
        if x > walk.x0:
            walk.advance()
        assert [walk.value(y) for y in range(len(want))] == [want[y] for y in range(len(want))]
        check_kept_column(walk, x, walk.col, want)


@pytest.mark.parametrize("name", GATED)
def test_gated_rows_are_kept_over_the_lcm_of_their_denominators(name):
    spec, n, _, _ = RING_CASES[name]
    rows = reference_mu_rows(spec.build(), n)
    cs = spec.build()
    check_row_walk(cs, rows)  # columns kept before the gate stay scaled
    check_kept_columns(cs, rows)
    table = cs.mu_table()
    assert table._walk.gated_from == table._grid.gated_from is not None
    if name.startswith("sparse"):  # whole zero entries sit among the gated rows
        assert any(row[m] == 0 for row in rows[11:] for m in range(len(row)))


@pytest.mark.parametrize("name", GATED)
@pytest.mark.parametrize("start, cap", [((3, 2), 18), ((1, 19), 21), ((2, 4), None)])
def test_gated_walks_from_off_the_origin(name, start, cap):
    """Every column against the reference, each walk past the gate; a start
    at height 19 crosses it while reading its own a_y."""
    spec = RING_CASES[name][0]
    walk = PathColumns(spec.build(), start, cap)
    assert (walk.gated_from == 0) == (start[1] == 19)
    want = list(itertools.islice(reference_columns(spec.build(), start, cap), 30))
    check_gated_walk(walk, want)
    assert walk.gated_from is not None
    assert weight_sum(start, (start[0] + 29, 1), WeightSystem(spec.build()), cap) == want[-1][1]


class CountingMemo(dict):
    """A memo that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("spec, start, columns", [
    (_growing_denominators(), (0, 0), 46),
    (_sparse_gated(), (0, 0), 36),
    (RING_CASES["little_q_jacobi"][0], (0, 0), 26),
    (RING_CASES["little_q_jacobi"][0], (1, 19), 20),
], ids=["growing", "sparse", "little_q_jacobi", "start at height 19"])
def test_kept_columns_are_written_once(spec, start, columns):
    """A new denominator and the gate convert the current column only: each
    key is written once, and the column the walk crosses in twice."""
    memo = CountingMemo()
    walk = PathColumns(spec.build(), start, memo=memo)
    crossed_at_start = walk.gated_from is not None
    want = list(itertools.islice(reference_columns(spec.build(), start), columns))
    check_gated_walk(walk, want)
    twice = None if crossed_at_start else walk.gated_from
    assert memo.writes == {(x, y): 2 if x - walk.x0 == twice else 1
                           for x, col in enumerate(want, walk.x0) for y in col}
    for x, col in enumerate(want, walk.x0):
        check_kept_column(walk, x, [memo[(x, y)] for y in range(len(col))], col)
    assert (walk.gated_from is None) == (spec.name == "growing")
    assert crossed_at_start == (start[1] == 19)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), tables(n + 2))))
def test_gated_grid_on_random_tables(case):
    """With the gate at 0 bits the walk leaves the scaled integers at its
    first fractional coefficient and steps through zero, negative and whole
    weights on (numerator, denominator) ints."""
    n, lists = case
    rows = reference_mu_rows(CoeffSystem.from_lists(*lists), n)
    with mock.patch.object(core, "SCALED_MAX_BITS", 0):
        cs = CoeffSystem.from_lists(*lists)
        check_row_walk(cs, rows)
        for k, row in enumerate(rows):
            assert [mu_nm(k, m, cs) for m in range(k + 1)] == row
        check_kept_columns(cs, rows)
    table = cs.mu_table()
    assert gated_by_its_reads(table._walk) and gated_by_its_reads(table._grid)


@settings(max_examples=60, deadline=None)
@given(tables(17), st.integers(0, 6), st.integers(0, 8), st.integers(0, 8),
       st.one_of(st.none(), st.integers(0, 8)))
def test_gated_walks_on_random_tables(lists, x0, y0, dx, cap):
    if cap is not None and y0 > cap:
        return
    reference = reference_columns(CoeffSystem.from_lists(*lists), (x0, y0), cap)
    want = list(itertools.islice(reference, dx + 1))
    with mock.patch.object(core, "SCALED_MAX_BITS", 0):
        walk = PathColumns(CoeffSystem.from_lists(*lists), (x0, y0), cap)
        check_gated_walk(walk, want)
        got = weight_sum((x0, y0), (x0 + dx, 1), WeightSystem(CoeffSystem.from_lists(*lists)), cap)
    assert gated_by_its_reads(walk)
    assert type(got) is Fraction and got == want[-1].get(1, 0)


def test_memo_limit_on_a_gated_table(monkeypatch):
    spec = RING_CASES["little_q_jacobi"][0]
    cs = spec.build()
    mu(10, cs)
    assert ring_of(cs) == "fraction"
    monkeypatch.setenv("R1_MEMO_LIMIT", "90")
    rows = reference_mu_rows(spec.build(), 15)
    check_limited_walks(cs, rows, 12, r"^mu table: 91 entries > R1_MEMO_LIMIT=90 "
                                      r"\(filling row 12 for n=15\)$")
    monkeypatch.delenv("R1_MEMO_LIMIT")
    assert [mu(k, cs) for k in range(16)] == [row[0] for row in rows]
    check_kept_column(cs.mu_table()._walk, 15, cs.mu_table()._walk.col, rows[15])
    check_kept_columns(cs, rows)


# -- the row walk of mu, and the grid walk of mu_nm ----------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), tables(n + 2))),
       st.booleans(), st.one_of(st.none(), st.integers(1, 20)))
def test_moment_rows_match_the_reference(case, gated, zero_lam):
    """mu_0..mu_n off the row walk against the Fraction recurrence: on random
    tables, past the gate from the first fractional coefficient, and with a
    lam_k = 0 mid-range.  A system that asks for no m > 0 starts no grid walk."""
    n, (b, a, lam) = case
    if zero_lam is not None and zero_lam < len(lam):
        lam = [*lam[:zero_lam], Fraction(0), *lam[zero_lam + 1:]]
    rows = reference_mu_rows(CoeffSystem.from_lists(b, a, lam), n)
    with gate_at_zero(gated):
        cs = CoeffSystem.from_lists(b, a, lam)
        check_row_walk(cs, rows)
    assert cs.mu_table()._grid is None
    assert not gated or gated_by_its_reads(cs.mu_table()._walk)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 25).flatmap(lambda n: st.tuples(st.just(n), tables(n + 2))),
       st.lists(st.tuples(st.booleans(), st.integers(0, 25), st.integers(0, 25)), max_size=12),
       st.booleans())
def test_row_and_grid_requests_interleave(case, requests, gated):
    """mu and mu_nm requests in any order read the same values: the row
    walk's and the grid walk's fills never disturb each other."""
    n, lists = case
    rows = reference_mu_rows(CoeffSystem.from_lists(*lists), n)
    with gate_at_zero(gated):
        cs = CoeffSystem.from_lists(*lists)
        for row_first, k, m in requests + [(True, n, n), (False, n, n)]:
            k, m = min(k, n), min(m, n)
            want = rows[k][m] if m <= k else 0
            pair = [lambda: mu(k, cs), lambda: mu_nm(k, m, cs)]
            got = [request() for request in (pair if row_first else pair[::-1])]
            assert got == ([rows[k][0], want] if row_first else [want, rows[k][0]])


@pytest.mark.parametrize("name", ["laguerre", "little_q_jacobi"])
@pytest.mark.parametrize("rows_first", [True, False], ids=["rows first", "grid first"])
def test_each_walk_reads_the_reference_whichever_fills_first(name, rows_first):
    spec, n, _, late = RING_CASES[name]
    rows = reference_mu_rows(spec.build(), n)
    cs = spec.build()
    fills = {"rows": lambda: [mu(k, cs) for k in range(n + 1)],
             "grid": lambda: [[mu_nm(k, m, cs) for m in range(k + 1)] for k in range(n + 1)]}
    got = {name: fills[name]() for name in (["rows", "grid"] if rows_first else ["grid", "rows"])}
    assert got == {"rows": [row[0] for row in rows], "grid": rows}
    assert ring_of(cs) == late and cs.mu_table()._grid.dens == cs.mu_table()._walk.dens


@pytest.mark.parametrize("spec", [
    _failing_at(12, lambda n: 1), _failing_at(30, lambda n: n + 1),
    FamilySpec("table", {}, Fraction, Fraction, Fraction, valid_to=9),
], ids=["scaled", "gated", "valid_to"])
@pytest.mark.parametrize("rows_first", [True, False], ids=["rows first", "grid first"])
def test_a_rejected_coefficient_fails_both_walks_alike(spec, rows_first):
    """A stream that rejects index k stops the row walk and the grid walk at
    the same row with the same named error, again on every retry, and the
    rows before it stay readable from both."""
    cs, ref_cs, ref_rows = spec.build(), spec.build(), [[Fraction(1)]]
    failure = _first_failure(lambda n: reference_mu_rows(ref_cs, n, ref_rows), 70)
    assert failure is not None
    row, kind, message = failure
    walks = [lambda: mu(row, cs), lambda: mu_nm(row, 1, cs), lambda: mu_nm(row, 0, cs)]
    for request in (walks if rows_first else walks[::-1]) * 2:
        with pytest.raises(kind, match="^" + re.escape(message) + "$"):
            request()
    for k, want in enumerate(ref_rows):
        assert mu(k, cs) == want[0]
        assert [mu_nm(k, m, cs) for m in range(k + 1)] == want


# -- P_n ------------------------------------------------------------------


def reference_P(cs: CoeffSystem, upto: int, polys: list | None = None) -> list:
    """P_0..P_upto by the recurrence on lists of Fractions (the conftest
    reference), reading b_{k-1}, then a_{k-1} and lam_{k-1}, each handed
    out as the Poly of its list.  ``polys`` continues an earlier fill."""
    polys = polys if polys is not None else [Poly.const(1)]
    rows = [list(p.coeffs) for p in polys[-2:]]
    for k in range(len(polys), upto + 1):
        term = ref_mul([-cs.b(k - 1), 1], rows[-1])
        if k >= 2:
            a, lam = cs.a(k - 1), cs.lam(k - 1)
            term = ref_add(term, ref_mul([-lam, -a], rows[-2]))
        rows.append(term)
        polys.append(Poly(term))
    return polys


def check_P_rows(cs: CoeffSystem, want: list):
    """Every row P keeps is a Poly in its stored form, ints over one
    denominator den > 0 with gcd(den, *row) = 1 and no trailing zero, and
    holds the coefficients of the reference."""
    rows = cs._poly_rows.rows
    assert len(rows) <= len(want)
    for row, p in zip(rows, want):
        check_poly_form(row)
        assert [Fraction(c, row.denominator) for c in row.numerators] == list(p.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), tables(n + 1))))
def test_P_matches_the_fraction_recurrence(case):
    n, lists = case
    cs, at_once = CoeffSystem.from_lists(*lists), CoeffSystem.from_lists(*lists)
    want = reference_P(CoeffSystem.from_lists(*lists), n)
    assert P(n, at_once) == want[n]
    for k in range(n + 1):
        got = P(k, cs)
        assert got == want[k] == P(k, at_once)
        assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("name", RING_CASES)
def test_each_P_ring_matches_the_reference(name):
    spec, n, _, _ = RING_CASES[name]
    want = reference_P(spec.build(), n)
    by_row, at_once = spec.build(), spec.build()
    P(2, by_row)
    check_P_rows(by_row, want)
    for k in range(3, n + 1):
        assert P(k, by_row) == want[k]
    assert P(n, at_once) == want[n]
    check_P_rows(by_row, want)
    check_P_rows(at_once, want)
    assert [P(k, at_once) for k in range(n + 1)] == want


@pytest.mark.parametrize("name", RING_CASES)
def test_P_builds_a_poly_only_for_the_row_asked_for(name):
    """P_n steps the rows up to n and no further, and every P_k is the Poly
    the rows keep, handed out with nothing built."""
    spec, n, _, _ = RING_CASES[name]
    want = reference_P(spec.build(), n)
    cs = spec.build()
    first = P(n, cs)
    rows = cs._poly_rows.rows
    assert len(rows) == n + 1 and first is rows[n]
    assert P(n, cs) is first and first == want[n]
    assert [P(k, cs) for k in range(n)] == want[:n]
    assert all(P(k, cs) is rows[k] for k in range(n + 1)) and len(rows) == n + 1
    check_P_rows(cs, want)


def test_every_P_k_to_300_is_the_stored_row():
    """Asking for every P_k hands out the rows the recurrence keeps, with
    nothing built per request, and each equals the Fraction reference."""
    spec = families.laguerre(Fraction(9, 7))
    want = reference_P(spec.build(), 300)
    cs = spec.build()
    got = [P(k, cs) for k in range(301)]
    assert all(p is cs._poly_rows.rows[k] for k, p in enumerate(got))
    assert got == want
    check_P_rows(cs, want)


def test_growing_denominators_rescale_the_P_rows():
    """The row denominators stay 1 while the coefficients are whole, and
    take up the sevenths and elevenths once they are read."""
    want = reference_P(_growing_denominators().build(), 45)
    cs = _growing_denominators().build()
    P(20, cs)  # reads up to index 19
    assert [p.denominator for p in cs._poly_rows.rows] == [1] * 21
    P(31, cs)
    dens = [p.denominator for p in cs._poly_rows.rows]
    assert dens[21] % 7 == 0 and dens[31] % 11 == 0
    assert P(45, cs) == want[45]
    check_P_rows(cs, want)


@pytest.mark.parametrize("name", RING_CASES)
def test_P_reads_as_the_fraction_recurrence_reads(name):
    spec, n, _, _ = RING_CASES[name]
    built, reference = [], []
    P(n, recording(spec.build(), built))
    reference_P(recording(spec.build(), reference), n)
    assert built == reference
    assert max(Counter(built).values()) == 1


@pytest.mark.parametrize("spec", [
    _failing_at(12, lambda n: 1),
    _failing_at(60, lambda n: n + 1),
    FamilySpec("table", {}, Fraction, Fraction, Fraction, valid_to=9),
])
def test_P_errors_arrive_at_the_same_call(spec):
    cs, ref_cs, polys = spec.build(), spec.build(), [Poly.const(1)]
    failure = _first_failure(lambda n: P(n, cs), 70)
    assert failure == _first_failure(lambda n: reference_P(ref_cs, n, polys), 70)
    assert failure is not None
    check_P_rows(cs, polys)
    with pytest.raises(failure[1], match="^" + re.escape(failure[2]) + "$"):
        P(failure[0], cs)
    assert P(failure[0] - 1, cs) == polys[failure[0] - 1]


# -- the continued fraction -------------------------------------------------


def nested_cf_series(cs: CoeffSystem, order: int) -> Series:
    """The continued fraction as ``cf_series`` evaluated it before it used
    its convergent: one series inversion per level, from the bottom up."""
    one = Series([1], order)
    level = (one - Series([0, cs.b(order)], order)).inverse()
    for k in range(order - 1, -1, -1):
        head = one - Series([0, cs.b(k)], order)
        tail = Series([0, cs.a(k + 1), cs.lam(k + 1)], order) * level
        level = (head - tail).inverse()
    return level


def expected_cf_reads(order: int) -> list:
    """b_0..b_N, a_1..a_N, lam_1..lam_N in ascending index order."""
    return [("b", 0)] + [(kind, i) for i in range(1, order + 1) for kind in ("b", "a", "lam")]


def check_cf_series(spec_or_lists, order: int):
    build = (spec_or_lists.build if isinstance(spec_or_lists, FamilySpec)
             else lambda: CoeffSystem.from_lists(*spec_or_lists))
    reads = []
    got = cf_series(recording(build(), reads), order)
    assert reads == expected_cf_reads(order)
    assert got == nested_cf_series(build(), order)
    assert got == series_from_rational(*finite_cf_rational(order, build()), order)
    assert all(type(c) is Fraction for c in got.coeffs) and got.order == order


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 20).flatmap(lambda n: st.tuples(st.just(n), tables(n + 1))))
def test_cf_series_matches_the_nested_series(case):
    order, lists = case
    check_cf_series(lists, order)


@pytest.mark.parametrize("name", [name for name in RING_CASES if name != "rescaled mid-fill"])
def test_cf_series_of_each_ring_matches_the_nested_series(name):
    spec = RING_CASES[name][0]
    for order in range(21):
        check_cf_series(spec, order)


def test_cf_series_names_the_smallest_unreadable_index(monkeypatch):
    spec = FamilySpec("table", {}, Fraction, Fraction, Fraction, valid_to=9)
    with pytest.raises(CoeffError, match=r"^coefficient index 10 beyond valid_to=9$"):
        cf_series(spec.build(), 12)
    with pytest.raises(FamilyParamError, match="b_4"):
        cf_series(_failing_at(4, lambda n: 1).build(), 10)
    monkeypatch.setenv("R1_MEMO_LIMIT", "6")
    with pytest.raises(MemoLimitError, match=r"^poly cache: 7 entries > R1_MEMO_LIMIT=6 "
                                             r"\(building P_6 for n=11\)$"):
        cf_series(spec.build(), 10)
