"""Coefficient systems, the recurrence polynomials, and the linear functional.

A ``CoeffSystem`` holds the three coefficient streams b_n, a_n, lam_n that
drive the three-term recurrence

    P_{n+1}(x) = (x - b_n) P_n(x) - (a_n x + lam_n) P_{n-1}(x),

with P_{-1} = 0 and P_0 = 1.  The values a_0 and lam_0 are stored but never
read.  Everything else in the package is parameterized by one of these
systems.  A system reads each b_n, a_n and lam_n from its stream once, on
first use, checks the index there and memoizes the value; a stream that
cannot produce a coefficient fails at that read, whatever the index.  Each
system also carries its own memo tables (the polynomials P_n, the mu and nu
moment grids), which grow monotonically and are dropped only by building a
fresh system.

The mu grid and the path sums of ``paths.weight_sum`` are one dynamic
program, ``PathColumns``, which makes each column of path sums from the one
before.  A rational walk runs over integers scaled by powers of the lcm D of
the denominators read so far (weights D*b, D*a, D^2*lam), and divides only
what it hands out.  Once D has more than ``SCALED_MAX_BITS`` bits, as for the
Jacobi and q-families within their first rows, the walk keeps each column as
integers over one common denominator, the lcm of the column's reduced
denominators, and steps them on plain ints with each coefficient split once
into (numerator, denominator) (``gated_column_step``).  The scaled and the
symbolic walks step by ``column_step``.  A kept column stays in the form it
was made in: a new D, or the crossing, converts only the current column,
the one the next step reads.  ``P`` runs the three-term recurrence on
``Poly``s, each integers over one reduced denominator (``_PolyRows``), and
hands out the row it keeps.

``cf_series`` expands the branched continued fraction from its convergent
P*^(1)_N / P*_{N+1}, the reversed recurrence polynomials of the shifted and
of the given system, with one series division; the shifted system is
``CoeffSystem.shifted``, kept on the system with its tables.

The functional L lives on the space V of rational functions p(x)/d_m(x)
with d_m(x) = prod_{i=1..m} (a_i x + lam_i); ``VElem`` is that
representation and ``L_eval`` evaluates the unique functional with
L(1) = 1 and L(x^n P_m / d_m) = 0 for n < m.  L is fixed by the moments
nu_{n,m} = L(x^n / d_m), which the system's ``NuTable`` memoizes, so
L(p / d_m) reads column m of that table: one dot product with the
coefficients of p.

Division by a_n and by P_n(-lam_n/a_n) happens exactly where the theory
divides; both conditions are checked there and raise hard, named errors
(``CoeffError``, ``DegeneracyError``).  a_n = 0 is no error elsewhere.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactmath import (
    Poly,
    Scalar,
    ScalarLike,
    Series,
    SymPoly,
    as_scalar,
    format_scalar,
    read_scalar,
    reduced,
    series_from_rational,
)


class CoeffError(ValueError):
    """A coefficient violates a standing requirement (e.g. a_n = 0)."""


class DegeneracyError(ValueError):
    """P_k(-lam_k/a_k) = 0: the functional and nu-grid are undefined."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"degenerate system: P_{k}(-lam_{k}/a_{k}) = 0")


class MemoLimitError(RuntimeError):
    """Memo table exceeded the R1_MEMO_LIMIT cap."""


def _memo_limit() -> int | None:
    """R1_MEMO_LIMIT as an int, None when unset.  Each public call that fills
    a table reads it once and hands it to every ``_check_memo`` of that fill."""
    raw = os.environ.get("R1_MEMO_LIMIT")
    if not raw:
        return None
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"R1_MEMO_LIMIT must be an integer >= 0, got {raw!r}")
    return limit


def _check_memo(table: str, size: int, request: str, limit: int | None):
    """Raise ``MemoLimitError`` once a table holds more than ``limit`` entries."""
    if limit is not None and size > limit:
        raise MemoLimitError(f"{table}: {size} entries > R1_MEMO_LIMIT={limit} ({request})")


class CoeffSystem:
    """The sequences {b_n}, {a_n}, {lam_n} plus per-session memo tables.

    Each coefficient is read from its stream once, where its index is
    checked, and memoized.  ``valid_to`` is the largest readable index (None
    means every index).  A system with its tables is a single-writer session
    object; share only the immutable values it returns.  ``zero``, ``one``
    and ``total`` (the sum of a list) are those of the coefficient ring.
    The tables it owns, and the shifted systems of ``shifted``, reach it
    through a weak proxy, so a dropped system and its grids are freed at
    once, without waiting for the cyclic GC.
    """

    zero = Fraction(0)
    one = Fraction(1)
    total = staticmethod(sum)  # only the scaled walk's ints reach it

    def __init__(
        self,
        b: Callable[[int], Scalar],
        a: Callable[[int], Scalar],
        lam: Callable[[int], Scalar],
        valid_to: int | None = None,
        name: str = "",
    ):
        self._b, self._a, self._lam = b, a, lam
        self._bs: dict[int, Scalar] = {}
        self._as: dict[int, Scalar] = {}
        self._lams: dict[int, Scalar] = {}
        self.valid_to = valid_to
        self.name = name
        self._poly_rows = _PolyRows(weakref.proxy(self))
        self._mu: MuTable | None = None
        self._nu: NuTable | None = None
        self._shifts: dict[int, CoeffSystem] = {}

    @staticmethod
    def from_lists(
        b: Sequence[ScalarLike],
        a: Sequence[ScalarLike],
        lam: Sequence[ScalarLike],
        name: str = "table",
    ) -> "CoeffSystem":
        bs = [as_scalar(v) for v in b]
        as_ = [as_scalar(v) for v in a]
        ls = [as_scalar(v) for v in lam]
        valid = min(len(bs) - 1, len(as_) - 1, len(ls) - 1)
        if valid < 0:
            raise CoeffError("coefficient tables must not be empty")
        return CoeffSystem(bs.__getitem__, as_.__getitem__, ls.__getitem__,
                           valid_to=valid, name=name)

    def _read(self, memo: dict, stream: Callable[[int], Scalar], name: str, n: int) -> Scalar:
        """The first read of index n of one stream: check n, then memoize."""
        if name != "b" and n < 1:
            raise CoeffError(f"{name}_n is only read for n >= 1")
        if n < 0:
            raise CoeffError(f"coefficient index {n} is negative")
        if self.valid_to is not None and n > self.valid_to:
            raise CoeffError(f"coefficient index {n} beyond valid_to={self.valid_to}")
        value = memo[n] = as_scalar(stream(n))
        return value

    def b(self, n: int) -> Scalar:
        return self._bs[n] if n in self._bs else self._read(self._bs, self._b, "b", n)

    def a(self, n: int) -> Scalar:
        # a_0 is irrelevant and never read by the theory.
        return self._as[n] if n in self._as else self._read(self._as, self._a, "a", n)

    def lam(self, n: int) -> Scalar:
        return self._lams[n] if n in self._lams else self._read(self._lams, self._lam, "lam", n)

    def a_nonzero(self, n: int) -> Scalar:
        """a_n where the theory divides by it; zero is a hard error."""
        v = self.a(n)
        if v == 0:
            raise CoeffError(f"a_{n} = 0: system violates the standing assumption")
        return v

    def mu_table(self) -> "MuTable":
        """The system's mu grid, built on first use.  It reaches the system
        through a weak proxy, so the caller must keep the system alive: a table
        whose system was dropped raises ``ReferenceError`` once it reads it."""
        if self._mu is None:
            self._mu = MuTable(weakref.proxy(self))
        return self._mu

    def nu_table(self) -> "NuTable":
        """The system's nu grid, built on first use; like ``mu_table``, usable
        only while the caller keeps the system alive (else ``ReferenceError``)."""
        if self._nu is None:
            self._nu = NuTable(weakref.proxy(self))
        return self._nu

    def shifted(self, s: int) -> "CoeffSystem":
        """``shift(self, s)``, built once and kept with its tables.  It reads
        this system through a weak proxy, so it is usable only while this
        system is alive; hand out ``shift`` instead."""
        if s == 0:
            return self
        if s not in self._shifts:
            self._shifts[s] = shift(weakref.proxy(self), s)
        return self._shifts[s]

    def __repr__(self):
        return f"CoeffSystem({self.name or 'anonymous'})"


def P(n: int, cs: CoeffSystem) -> Poly:
    """The monic degree-n recurrence polynomial; P_0 = 1, P_{-1} = 0.

    The system's ``_PolyRows`` steps P_{k+1} = (x - b_k) P_k -
    (a_k x + lam_k) P_{k-1} on the integer rows of the Polys, each over the
    lcm of its reduced denominators, keeps every one and hands out the one
    it keeps.  Rational systems only."""
    if n < 0:
        return Poly()
    return cs._poly_rows.poly(n)


def Pstar(n: int, cs: CoeffSystem) -> Poly:
    """Inverted polynomial x^n P_n(1/x): exact coefficient reversal."""
    if n < 0:
        return Poly()
    return P(n, cs).reversed(n)


def shift(cs: CoeffSystem, s: int) -> CoeffSystem:
    """Reindex all three streams by s (the delta operator applied s times).

    The shifted system reads through cs, so it shares cs's memo and checks,
    and keeps cs alive.  Each call builds a fresh system with empty tables;
    ``cs.shifted(s)`` is the memoized one."""
    if s < 0:
        raise ValueError("shift distance must be >= 0")
    if s == 0:
        return cs
    valid = None if cs.valid_to is None else cs.valid_to - s
    return CoeffSystem(
        lambda n: cs.b(n + s), lambda n: cs.a(n + s), lambda n: cs.lam(n + s),
        valid_to=valid, name=f"{cs.name}>>{s}" if cs.name else f">>{s}",
    )


def d_poly(m: int, cs: CoeffSystem) -> Poly:
    """Denominator product d_m(x) = prod_{i=1..m} (a_i x + lam_i); 1 for m <= 0."""
    return math.prod((Poly.linear(cs.a(i), cs.lam(i)) for i in range(1, m + 1)),
                     start=Poly.const(1))


# -- Favard tilings -----------------------------------------------------

BLACK, RED = "black", "red"

Tile = tuple[int, str]  # (size 1 or 2, color)


@dataclass(frozen=True)
class FavardTiling:
    """A bicolored monomino/domino tiling of the 1 x n board."""

    tiles: tuple[Tile, ...]

    def counts(self) -> tuple[int, int, int, int]:
        """(black monominos, black dominos, red monominos, red dominos)."""
        bm = bd = rm = rd = 0
        for size, color in self.tiles:
            if size == 1 and color == BLACK:
                bm += 1
            elif size == 2 and color == BLACK:
                bd += 1
            elif size == 1 and color == RED:
                rm += 1
            else:
                rd += 1
        return bm, bd, rm, rd

    def weight(self, cs: CoeffSystem) -> Scalar:
        """Black monomino 1; red monomino -b_{i-1}; black domino -a_{i-1};
        red domino -lam_{i-1}, where i is the tile's largest cell."""
        out = Fraction(1)
        pos = 0
        for size, color in self.tiles:
            pos += size
            if size == 1 and color == RED:
                out *= -cs.b(pos - 1)
            elif size == 2 and color == BLACK:
                out *= -cs.a(pos - 1)
            elif size == 2 and color == RED:
                out *= -cs.lam(pos - 1)
        return out


def favard_tilings(n: int) -> Iterable[FavardTiling]:
    """All bicolored tilings of the 1 x n board, monominos tried first."""
    if n < 0:
        raise ValueError("board size must be >= 0")

    def rec(remaining: int, acc: list[Tile]):
        if remaining == 0:
            yield FavardTiling(tuple(acc))
            return
        for size in (1, 2):
            if size > remaining:
                continue
            for color in (BLACK, RED):
                acc.append((size, color))
                yield from rec(remaining - size, acc)
                acc.pop()

    return rec(n, [])


# The time grows about 2.7-fold per step of n: n = 12 takes about 5 s on
# random_system(Random(1)) (2-core x86-64), n = 20 about 3 hours.
TILING_GUARD = 12


def P_via_tilings(n: int, cs: CoeffSystem) -> Poly:
    """Independent construction of P_n as the tiling-weighted sum."""
    if n > TILING_GUARD:
        raise ValueError(f"tiling enumeration guard exceeded (n={n} > {TILING_GUARD})")
    total = Poly()
    for tiling in favard_tilings(n):
        bm, bd, _, _ = tiling.counts()
        total = total + Poly.x(bm + bd) * tiling.weight(cs)
    return total


# -- the path-column kernel ---------------------------------------------

# A rational path walk leaves the scaled integers once the lcm D of the
# denominators it has read has more bits than this, and does not come back:
# it then keeps each column over its own common denominator and steps it by
# ``gated_column_step``.  A D that stops growing is cheap at any size, but
# one that grows with the index (the Jacobi and q-families, which cross the
# gate within their first rows) pads every entry by D^e far past its
# reduced Fraction.
SCALED_MAX_BITS = 64


def column_step(col: list, top: int, b: Sequence, a: Sequence, lam: Sequence,
                total: Callable[[Sequence], Scalar]) -> list:
    """The next column of the weighted path sums, heights 0..top.

    ``col[y]`` sums the paths that reach height y in column x - 1.  Entry y
    of column x takes U (weight 1) from col[y-1], H (b[y]) from col[y] and
    D (lam[y+1]) from col[y+1], then V (a[y+1]) from entry y + 1 of column
    x, so the column fills top down.  ``top`` is len(col), or len(col) - 1
    under a height cap.  ``total`` adds a list of ring elements at once.

    This is the step of the scaled-integer walk (int weights) and of the
    symbolic walk (``SymPoly`` weights); a gated walk steps by
    ``gated_column_step``.
    """
    last = len(col) - 1
    nxt = [None] * (top + 1)

    def entry(y: int):  # each term only where its source exists
        terms = [col[y - 1]] if y else []
        if y <= last:
            terms.append(b[y] * col[y])
        if y < last:
            terms.append(lam[y + 1] * col[y + 1])
        if y < top:
            terms.append(a[y + 1] * nxt[y + 1])
        return total(terms)

    inner = last - 1  # heights 1..inner have all four terms
    for y in range(top, inner, -1):
        nxt[y] = entry(y)
    if inner >= 0:
        v = nxt[inner + 1]
        for y in range(inner, 0, -1):
            v = nxt[y] = total((col[y - 1], b[y] * col[y], lam[y + 1] * col[y + 1], a[y + 1] * v))
        nxt[0] = entry(0)
    return nxt


def gated_column_step(col: list[int], top: int, b: Sequence, a: Sequence,
                      lam: Sequence) -> list[tuple[int, int]]:
    """``column_step`` on integers, with each weight a pair (numerator,
    denominator): the step of a walk past the gate.

    Entry y of the result is the reduced pair (n, d), d > 0, of
    E_y = col[y-1] + b_y col[y] + lam_{y+1} col[y+1] + a_{y+1} E_{y+1}.  Its
    terms are summed over the lcm of their small denominators, and one gcd
    against that reduces the entry; no term builds a Fraction.
    """
    gcd, lcm = math.gcd, math.lcm
    last = len(col) - 1
    nxt = [None] * (top + 1)
    en, ed = 0, 1  # E_{y+1}; nothing above top
    for y in range(top, -1, -1):
        n, d = (col[y - 1] if y else 0), 1
        if y <= last:
            wn, wd = b[y]
            if wn:
                n, d = n * wd + wn * col[y], wd
        if y < last:
            wn, wd = lam[y + 1]
            if wn:
                if wd == d:
                    n += wn * col[y + 1]
                else:
                    m = lcm(d, wd)
                    n, d = n * (m // d) + wn * (m // wd) * col[y + 1], m
        if en:
            wn, wd = a[y + 1]
            wd *= ed
            if wd == d:
                n += wn * en
            else:
                m = lcm(d, wd)
                n, d = n * (m // d) + wn * (m // wd) * en, m
        if d > 1:
            g = gcd(n, d)
            if g > 1:
                n //= g
                d //= g
        nxt[y] = en, ed = n, d
    return nxt


class PathColumns:
    """Weighted path sums from one start point, one column at a time.

    The walk stands in column x (``x0`` at first) and ``col[y]`` holds the
    sum of the weights of the paths from (x0, y0) to (x, y) that stay at or
    below ``max_height`` (None: no cap).  Column x0 is the start and the V
    runs below it; ``advance`` makes each next column.  ``memo``, when
    given, keeps every column under its (x, y) keys, in the form in which
    it was made.

    A symbolic walk steps in its ring, with the coefficients as the weights.
    A rational walk steps over scaled integers: with D = ``scale`` the lcm
    of the denominators of the coefficients read so far, entry (x, y) is
    made as D^e times its value, with exponent e = (x - x0) - (y - y0) =
    h + v + 2d for every path there, and the weights are D*b, D*a and
    D^2*lam; U still weighs 1.  Both walks step by ``column_step``.  A new
    denominator multiplies only the current column by (D'/D)^e, since the
    next step reads nothing else; ``dens[x - x0]`` is the D that column x
    was kept with.

    Once D has more than ``SCALED_MAX_BITS`` bits the walk is gated for
    good, from column ``gated_from`` (its index x - x0) on: each weight is
    the pair (numerator, denominator) of its coefficient, split once where
    it is read, and column x is kept as integers N_y over one denominator
    Q_x = ``dens[x - x0]``, the lcm of the reduced denominators of the
    column.  The crossing puts the current column over its Q_x and keeps it
    again.  The step is linear, so ``gated_column_step`` on the N_y gives
    Q_x times the next column as reduced pairs whose denominators are small
    (products of coefficient denominators); with r their lcm the next column
    is kept over Q_x*r, both sides divided by their gcd.  Only ``read``
    divides.

    Each coefficient is read from the system once, in the order in which
    the columns first use it, so a stream fails where a plain Fraction walk
    would fail.
    """

    def __init__(self, cs: CoeffSystem, start: tuple[int, int],
                 max_height: int | None = None, memo: dict | None = None):
        self.cs = cs
        self.scale = 1 if isinstance(cs.one, Fraction) else None
        # the coefficients b, a, lam read so far by index (a and lam from 1),
        # and the step weights made from them
        self._coeffs: tuple[list, list, list] = ([], [None], [None])
        self._weights = ([], [None], [None]) if self.scale else self._coeffs
        self.max_height, self.memo = max_height, memo
        self.x0, self.y0 = start
        self.x = self.x0
        self.col: list = []
        self.dens: list[int] | None = [] if self.scale else None  # D or Q_x per kept column
        self.gated_from: int | None = None
        y0 = self.y0
        self._fetch([(1, y) for y in range(y0, 0, -1)])
        gated = self.gated_from is not None  # crossed while reading the a_y above
        a = self._coeffs[1] if gated else self._weights[1]
        col = [None] * y0 + [1 if self.scale else cs.one]
        for y in range(y0 - 1, -1, -1):
            col[y] = a[y + 1] * col[y + 1]
        if gated:
            self._keep([(v.numerator, v.denominator) for v in col], 1)
        else:
            self._keep(col)

    def advance(self) -> None:
        """Step to column x + 1."""
        last = len(self.col) - 1
        top = last + 1 if self.max_height is None else min(last + 1, self.max_height)
        nb, na, nl = map(len, self._coeffs)
        order = []
        for y in range(top, min(nb, na - 1, nl - 1) - 1, -1):
            if nb <= y <= last:
                order.append((0, y))
            if nl <= y + 1 <= last:
                order.append((2, y + 1))
            if na <= y + 1 <= top:
                order.append((1, y + 1))
        self._fetch(order)
        self.x += 1
        if self.gated_from is None:
            self._keep(column_step(self.col, top, *self._weights, self.cs.total))
        else:
            self._keep(gated_column_step(self.col, top, *self._weights), self.dens[-1])

    def value(self, y: int) -> Scalar:
        """The path sum to (x, y) in the current column."""
        return self.read(self.x, y, self.col[y]) if y < len(self.col) else self.cs.zero

    def read(self, x: int, y: int, stored) -> Scalar:
        """The value of an entry kept for (x, y)."""
        if self.dens is None:
            return stored
        k = x - self.x0
        if self.gated_from is not None and k >= self.gated_from:
            return Fraction(stored, self.dens[k])
        return Fraction(stored, self.dens[k] ** (k - y + self.y0))

    def _keep(self, col: list, prev: int | None = None) -> None:
        """Keep column x: ring elements, or with ``prev`` the pairs (n, d) of
        prev times the column, put over the lcm of its reduced denominators."""
        den = self.scale
        if prev is not None:
            r = math.lcm(*(d for _, d in col))
            col, den = reduced([n * (r // d) for n, d in col], prev * r)
        if self.dens is not None:
            self.dens.append(den)
        self.col = col
        if self.memo is not None:
            x = self.x
            for y, v in enumerate(col):
                self.memo[(x, y)] = v

    def _fetch(self, order: list[tuple[int, int]]) -> None:
        """Read the coefficients (stream, index) in this order; each stream's
        new indices continue its list."""
        if not order:
            return
        streams = (self.cs.b, self.cs.a, self.cs.lam)
        fresh = sorted((s, i, streams[s](i)) for s, i in order)
        for s, _, v in fresh:
            self._coeffs[s].append(v)
        if self._weights is self._coeffs:  # symbolic: the coefficients are the weights
            return
        if self.scale is not None:
            scale = math.lcm(self.scale, *(v.denominator for _, _, v in fresh))
            if scale != self.scale:
                self._rescale(scale)
                return
        for s, _, v in fresh:
            self._weights[s].append(self._weight(s, v))

    def _weight(self, s: int, v: Fraction) -> int | tuple[int, int]:
        if self.scale is None:
            return v.numerator, v.denominator
        w = v.numerator * (self.scale // v.denominator)
        return w * self.scale if s == 2 else w

    def _rescale(self, scale: int) -> None:
        """Step on with the new lcm D' and remake the weights.  The next step
        reads only the current column: it is multiplied by (D'/D)^e, or once
        D' passes the gate put over the lcm of its reduced denominators and
        kept again.  A walk that crosses while reading its start's a_y has
        kept nothing yet."""
        k, y0, col = self.x - self.x0, self.y0, self.col
        if scale.bit_length() > SCALED_MAX_BITS:
            self.gated_from = k
            if col:
                self.dens.pop()
                self._keep([(v, self.scale ** (k - y + y0)) for y, v in enumerate(col)], 1)
            self.scale = None
        else:
            ratio = scale // self.scale
            self.col = [v * ratio ** (k - y + y0) for y, v in enumerate(col)]
            self.scale = scale
        self._weights = tuple([None if v is None else self._weight(s, v) for v in vs]
                              for s, vs in enumerate(self._coeffs))


class _PolyRows:
    """The recurrence polynomials P_0..P_j of a rational system, as Polys.

    Row k is the Poly of P_k: integers c over one denominator den, with
    gcd(den, *c) = 1, so den is the lcm of the reduced denominators of P_k.
    ``advance`` makes P_{j+1} = (x - b_j) P_j - (a_j x + lam_j) P_{j-1} on
    those integers, over the lcm r of the denominators of its four terms,
    and ``Poly.from_row`` reduces it by one gcd.  ``P`` hands out the rows
    and the nu table reads their integers.
    """

    def __init__(self, cs: CoeffSystem):
        self.cs = cs
        self.rows: list[Poly] = [Poly.const(1)]

    def advance(self) -> None:
        """Step to P_{j+1}, reading b_j, then a_j and lam_j."""
        cs, j = self.cs, len(self.rows) - 1
        b = cs.b(j)
        # P_{-1} = 0; a_0 and lam_0 are never read
        a, lam, below = (cs.a(j), cs.lam(j), self.rows[j - 1]) if j else (0, 0, Poly())
        prev, d = self.rows[j].numerators, self.rows[j].denominator
        prev2, d2 = below.numerators, below.denominator
        # lcm(d b.den, d2 a.den, d2 lam.den)
        r = math.lcm(d * b.denominator, d2 * math.lcm(a.denominator, lam.denominator))
        mx, q2 = r // d, r // d2
        mb = b.numerator * (mx // b.denominator)
        ma, ml = a.numerator * (q2 // a.denominator), lam.numerator * (q2 // lam.denominator)
        row = [mx * u - mb * v - ma * w - ml * z for u, v, w, z in
               zip([0, *prev], [*prev, 0], [0, *prev2, 0], [*prev2, 0, 0])]
        self.rows.append(Poly.from_row(row, r))

    def extend(self, n: int, limit: int | None) -> None:
        """Step the rows up to P_n, under the memo limit ``limit``."""
        rows = self.rows
        while len(rows) <= n:
            self.advance()
            _check_memo("poly cache", len(rows), f"building P_{len(rows) - 1} for n={n}", limit)

    def poly(self, n: int) -> Poly:
        """P_n, stepping the rows up to n first."""
        if len(self.rows) <= n:
            self.extend(n, _memo_limit())
        return self.rows[n]


class MuTable:
    """Memoized grid mu_{n,m} = L(x^n P_m / d_m), as path columns from (0, 0).

    mu_{n,m} is the weighted sum of the paths from (0, 0) to (n, m), so
    row n is column n of a ``PathColumns`` walk from the origin, kept in
    ``memo`` under (n, m).  The step is the recurrence mu_{0,0} = 1,
    mu_{n,m} = 0 for n < m, and for n >= m

        mu_{n,m} = a_{m+1} mu_{n,m+1} + b_m mu_{n-1,m}
                   + mu_{n-1,m-1} + lam_{m+1} mu_{n-1,m+1}.

    Only + and * are used, so the entries lie in the ring of the system's
    coefficients.  For a rational system ``memo`` holds each row n as the
    walk kept it: the scaled integers D^(n-m) mu_{n,m}, D the lcm the row
    was made with, or past the gate the integers Q_n mu_{n,m} over the
    common denominator Q_n of the row; ``value`` returns the Fraction.
    """

    def __init__(self, cs: CoeffSystem):
        self.cs = cs
        self.memo: dict[tuple[int, int], Scalar] = {}
        self._walk = PathColumns(cs, (0, 0), memo=self.memo)
        self._filled_to = 0

    def value(self, n: int, m: int) -> Scalar:
        if n < 0 or m < 0:
            raise ValueError("mu indices must be >= 0")
        if n < m:
            return self.cs.zero
        if n > self._filled_to:
            self._fill(n, _memo_limit())
        return self._walk.read(n, m, self.memo[(n, m)])

    def _fill(self, upto: int, limit: int | None):
        for n in range(self._filled_to + 1, upto + 1):
            self._walk.advance()
            self._filled_to = n
            _check_memo("mu table", len(self.memo), f"filling row {n} for n={upto}", limit)


class _SymbolicSystem(CoeffSystem):
    """The coefficients as the indexed symbols b_i, a_i, lam_i (SymPoly ring)."""

    zero = SymPoly()
    one = SymPoly.const(1)
    total = staticmethod(SymPoly.sum)
    b = staticmethod(SymPoly.b)
    a = staticmethod(SymPoly.a)
    lam = staticmethod(SymPoly.lam)


_SYMBOLIC = _SymbolicSystem(SymPoly.b, SymPoly.a, SymPoly.lam, name="symbolic")
# The one memo every mu_symbolic call extends.  It is taken once here, not
# per call, because bench/tracing.py reads the entries of every table that
# an op reaches through mu_table() as rationals.
_SYMBOLIC_MU = _SYMBOLIC.mu_table()


# The largest n of the CLI's symbolic moments, and the largest x-span plus
# start height of its symbolic path sums: a walk from (0, y) to column s is
# part of the walk from the origin to column s + y, since every path from
# (0, y) follows y U steps from (-y, 0).  The terms of mu_n, and the memory,
# about triple with each n: mu_symbolic(12) has 400,850 terms, computing
# mu_symbolic(0..12) peaks at 278 MiB and a whole `moments --symbolic --n 12`
# run, printing included, at 333 MiB, so n = 13 would need about 1 GB.
# mu_symbolic itself takes any n.
SYMBOLIC_CAP = 12


def mu_symbolic(n: int, m: int = 0) -> SymPoly:
    """mu_{n,m} as a polynomial in the symbols b_i, a_i, lam_i."""
    return _SYMBOLIC_MU.value(n, m)


class NuTable:
    """Memoized grid nu_{n,m} = L(x^n / d_m).  Needs division: rational systems only.

    nu_{n,0} = mu_n;
    nu_{0,m} = -(1/P_m(-lam_m/a_m)) * sum_i f_{m,i} nu_{i,m-1}, where the
    f_{m,i} are the coefficients of the quotient U_m of P_m by the linear
    factor (a_m x + lam_m);
    nu_{n,m} = (1/a_m) nu_{n-1,m-1} - (lam_m/a_m) nu_{n-1,m}.

    Column j >= 1 holds a prefix of rows.  A request fills only the columns
    that lack rows it needs, with m ascending and n ascending.  U_m and
    P_m(-lam_m/a_m) come from the integer row of P_m by synthetic division.
    """

    def __init__(self, cs: CoeffSystem):
        self.cs = cs
        self.memo: dict[tuple[int, int], Scalar] = {(0, 0): Fraction(1)}
        self._heights = [1]  # filled rows per column
        self._u_rows: dict[int, Poly] = {}
        self._p_at_root: dict[int, Scalar] = {}

    def u_row(self, m: int) -> Poly:
        """U_m, the quotient of P_m by (a_m x + lam_m); degree m-1."""
        if m not in self._u_rows:
            self._divide(m, _memo_limit())
        return self._u_rows[m]

    def p_at_root(self, m: int) -> Scalar:
        """P_m(-lam_m/a_m); zero raises the named degeneracy error."""
        if m not in self._u_rows:
            self._divide(m, _memo_limit())
        val = self._p_at_root[m]
        if val == 0:
            raise DegeneracyError(m)
        return val

    def _divide(self, m: int, limit: int | None) -> None:
        """U_m and P_m(rho), rho = -lam_m/a_m = r/s, by Horner on the integer
        row c/den of P_m: T_{m-1} = c_m, T_{k-1} = c_k s^(m-k) + r T_k, so
        U_m's coefficient k is T_k s^k a.den / (a.num den s^(m-1)) and P_m(rho)
        is T_{-1} / (den s^m)."""
        rows = self.cs._poly_rows
        rows.extend(m, limit)
        row, den = rows.rows[m].numerators, rows.rows[m].denominator
        a = self.cs.a_nonzero(m)
        rho = -self.cs.lam(m) / a
        r, s = rho.numerator, rho.denominator
        t, power, top, quot = row[m], 1, s ** (m - 1), []
        for k in range(m - 1, -1, -1):
            quot.append(t * (top // power) * a.denominator)
            power *= s
            t = row[k] * power + r * t
        self._u_rows[m] = Poly.from_row(quot[::-1], a.numerator * den * top)
        self._p_at_root[m] = Fraction(t, den * power)

    def value(self, n: int, m: int) -> Scalar:
        if n < 0 or m < 0:
            raise ValueError("nu indices must be >= 0")
        if (n, m) not in self.memo:
            self._fill(n, m, _memo_limit())
        return self.memo[(n, m)]

    def _fill(self, n: int, m: int, limit: int | None):
        """Add nu_{n,m} and every entry it needs.  Column 0 is mu, and only
        row n of it is added when m = 0.  Column j >= 1 needs rows up to n in
        column m and up to max(top_j - 1, j - 1) in column j-1; the walk down
        from column m stops at the first column that has them, since each
        column below it has what it needs."""
        cs, memo, heights = self.cs, self.memo, self._heights
        mu_t = cs.mu_table()
        tops = []  # (column, top row) from m down, for the columns that lack rows
        j, top = m, n
        while j >= 0 and (j >= len(heights) or heights[j] <= top):
            tops.append((j, top))
            j, top = j - 1, max(top - 1, j - 1)
        heights.extend([0] * (m + 1 - len(heights)))
        for j, top in reversed(tops):
            for i in range(heights[j], top + 1) if m else (n,):
                if j == 0:
                    if i > mu_t._filled_to:
                        mu_t._fill(i, limit)
                    val = mu_t.value(i, 0)
                elif i == 0:
                    if j not in self._u_rows:
                        self._divide(j, limit)
                    u = self._u_rows[j]
                    val = (-sum(c * memo[(k, j - 1)] for k, c in enumerate(u.numerators))
                           / (u.denominator * self.p_at_root(j)))
                else:
                    val = (memo[(i - 1, j - 1)] - cs.lam(j) * memo[(i - 1, j)]) / cs.a_nonzero(j)
                memo[(i, j)] = val
            if m:
                heights[j] = top + 1
            _check_memo("nu table", len(memo), f"filling column {j} for nu({n}, {m})", limit)


def mu(n: int, cs: CoeffSystem) -> Scalar:
    """The moment mu_n = L(x^n)."""
    return cs.mu_table().value(n, 0)


def mu_nm(n: int, m: int, cs: CoeffSystem) -> Scalar:
    """mu_{n,m} = L(x^n Q_m)."""
    return cs.mu_table().value(n, m)


def nu(n: int, m: int, cs: CoeffSystem) -> Scalar:
    """nu_{n,m} = L(x^n / d_m)."""
    return cs.nu_table().value(n, m)


# -- elements of V and the functional -----------------------------------


@dataclass(frozen=True)
class VElem:
    """An element numerator(x) / d_{denom_index}(x) of the space V."""

    numerator: Poly
    denom_index: int
    owner: CoeffSystem

    def __post_init__(self):
        if self.denom_index < 0:
            raise ValueError("denominator index must be >= 0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VElem):
            return NotImplemented
        if self.owner is not other.owner:
            raise ValueError("VElem comparison requires a shared coefficient system")
        lo, hi = sorted((self, other), key=lambda v: v.denom_index)
        scaled = lo.numerator
        for i in range(lo.denom_index + 1, hi.denom_index + 1):
            scaled = scaled * Poly.linear(self.owner.a(i), self.owner.lam(i))
        return scaled == hi.numerator

    def __hash__(self):
        raise TypeError("VElem is unhashable: equality is up to denominator scaling")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return VElem(self.numerator * other, self.denom_index, self.owner)
        return NotImplemented

    __rmul__ = __mul__


def L_eval(v: VElem) -> Scalar:
    """Evaluate the unique functional L on an element of V.

    L(p / d_m) = sum_k p_k nu_{k,m}, a dot product with column m of the
    nu table of the system that owns v, over p's numerators and divided by
    its denominator once.  Every a_i, i <= m, is checked first; the top term
    is read first, so one fill makes the column prefix the others read."""
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


def mu_nml(n: int, m: int, ell: int, cs: CoeffSystem) -> Scalar:
    """mu_{n,m,ell} = L(x^n P_m Q_ell)."""
    if min(n, m, ell) < 0:
        raise ValueError("indices must be >= 0")
    return L_eval(VElem((P(m, cs) * P(ell, cs)).shift(n), ell, cs))


def rho(n: int, m: int, ell: int, cs: CoeffSystem) -> Scalar:
    """rho_{n,m,ell} = L(x^n P_m P_ell)."""
    if min(n, m, ell) < 0:
        raise ValueError("indices must be >= 0")
    return L_eval(VElem((P(m, cs) * P(ell, cs)).shift(n), 0, cs))


def expand_in_P(p: Poly, cs: CoeffSystem) -> list[Scalar]:
    """Coefficients c_m with p = sum c_m P_m, via c_m = L(p (Q_m - a_{m+1} Q_{m+1}))."""
    out = []
    for m in range(p.degree + 1 if not p.is_zero() else 1):
        first = L_eval(VElem(p * P(m, cs), m, cs))
        second = L_eval(VElem(p * P(m + 1, cs) * cs.a(m + 1), m + 1, cs))
        out.append(first - second)
    return out


# -- moment generating series -------------------------------------------


def moment_series(cs: CoeffSystem, order: int) -> Series:
    """sum_n mu_n x^n truncated at the given order."""
    t = cs.mu_table()
    return Series([t.value(n, 0) for n in range(order + 1)], order)


def cf_series(cs: CoeffSystem, order: int) -> Series:
    """The branched continued fraction
    1 / (1 - b_0 x - (a_1 x + lam_1 x^2) / (1 - b_1 x - ...)),
    truncated at depth N = order (deeper levels cannot reach order <= N).

    The depth-N fraction is its convergent P*^(1)_N / P*_{N+1}: the
    reversed P_{N+1} of cs over the reversed P_N of ``cs.shifted(1)``
    (Euler-Wallis), expanded by one series division on the two integer
    rows.  P_{N+1} is read first, so the coefficients b_0..b_N, a_1..a_N,
    lam_1..lam_N are read in ascending order."""
    if order < 0:
        raise ValueError("series order must be >= 0")
    den = Pstar(order + 1, cs)
    return series_from_rational(Pstar(order, cs.shifted(1)), den, order)


def Vm_series(m: int, cs: CoeffSystem, order: int) -> Series:
    """V_m(x) = (a_m nu_{0,m} + x V_{m-1}(x)) / (a_m + lam_m x), from V_0 =
    the moment series up, one series division per level j = 1..m."""
    if m < 0:
        raise ValueError("V_m needs m >= 0")
    v = moment_series(cs, order)
    for j in range(1, m + 1):
        a_j = cs.a_nonzero(j)
        top = v.poly.shift(1) + a_j * cs.nu_table().value(0, j)
        v = series_from_rational(top, Poly.linear(cs.lam(j), a_j), order)
    return v


# -- Laurent specialization (lam = 0) ------------------------------------


def _require_laurent(cs: CoeffSystem, upto: int):
    for i in range(1, upto + 1):
        if cs.lam(i) != 0:
            raise CoeffError(f"lam_{i} != 0: operation needs the Laurent case lam = 0")


def invert(cs: CoeffSystem) -> CoeffSystem:
    """The involution b_n -> 1/b_n, a_n -> a_n/(b_{n-1} b_n), lam stays 0.

    Each index of cs is checked when the inverse reads it: b_n = 0 and
    lam_n != 0 raise ``CoeffError``."""

    def b_inv(n: int) -> Scalar:
        v = cs.b(n)
        if v == 0:
            raise CoeffError(f"b_{n} = 0: inversion undefined")
        return 1 / v

    def lam_inv(n: int) -> Scalar:
        if cs.lam(n) != 0:
            raise CoeffError(f"lam_{n} != 0: operation needs the Laurent case lam = 0")
        return Fraction(0)

    def a_inv(n: int) -> Scalar:
        lam_inv(n)
        return cs.a(n) * b_inv(n - 1) * b_inv(n)

    return CoeffSystem(b_inv, a_inv, lam_inv, valid_to=cs.valid_to,
                       name=f"{cs.name}^inv" if cs.name else "inv")


def laurent_velem(p: Poly, neg_power: int, cs: CoeffSystem) -> VElem:
    """p(x) / x^k as an element of V; uses d_k = a_1...a_k x^k when lam = 0."""
    if neg_power < 0:
        raise ValueError("negative power must be >= 0")
    _require_laurent(cs, neg_power)
    scale = Fraction(1)
    for i in range(1, neg_power + 1):
        scale *= cs.a_nonzero(i)
    return VElem(p * scale, neg_power, cs)


def L_laurent(p: Poly, neg_power: int, cs: CoeffSystem) -> Scalar:
    """L(p(x)/x^k) in the Laurent case."""
    return L_eval(laurent_velem(p, neg_power, cs))


def F_eval(v: VElem) -> Scalar:
    """The second Laurent functional F(f) = b_0 * L(x^{-1} f)."""
    cs, m = v.owner, v.denom_index
    _require_laurent(cs, m + 1)
    # 1/x = a_{m+1} d_m / d_{m+1} when lam = 0.
    inner = VElem(v.numerator * cs.a_nonzero(m + 1), m + 1, cs)
    return cs.b(0) * L_eval(inner)


# -- coefficient-system JSON ----------------------------------------------


def coeffs_from_spec(spec: dict) -> CoeffSystem:
    """Build a system from the JSON spec form.

    {"kind": "table", "b": [...], "a": [...], "lambda": [...]} with rational
    strings, or {"kind": "family", "name": ..., "params": {...}} resolved by
    ``families.resolve``, which reads the parameter values.  A malformed spec
    raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError("coefficient spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "table":
        keys = ("b", "a", "lambda")
        for key in keys:
            if not isinstance(spec.get(key), list):
                raise ValueError(f"coefficient table needs a {key!r} list")
        return CoeffSystem.from_lists(*([read_scalar(v, key) for v in spec[key]] for key in keys))
    if kind == "family":
        from . import families

        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("family spec needs a 'params' object")
        return families.resolve(spec.get("name"), params).build()
    raise ValueError(f"unknown coefficient spec kind {kind!r}")


def table_spec(cs: CoeffSystem, top: int) -> dict:
    """The table spec ``coeffs_from_spec`` reads: b, a, lam up to ``top`` clamped
    to ``valid_to``, with "0" for the unread a_0 and lam_0."""
    if cs.valid_to is not None:
        top = min(top, cs.valid_to)
    return {
        "kind": "table",
        "b": [format_scalar(cs.b(i)) for i in range(top + 1)],
        "a": ["0"] + [format_scalar(cs.a(i)) for i in range(1, top + 1)],
        "lambda": ["0"] + [format_scalar(cs.lam(i)) for i in range(1, top + 1)],
    }
