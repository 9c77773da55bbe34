"""Coefficient systems, the recurrence polynomials, and the linear functional.

A ``CoeffSystem`` holds the three coefficient streams b_n, a_n, lam_n that
drive the three-term recurrence

    P_{n+1}(x) = (x - b_n) P_n(x) - (a_n x + lam_n) P_{n-1}(x),

with P_{-1} = 0 and P_0 = 1.  The values a_0 and lam_0 are stored but never
read.  Everything else in the package is parameterized by one of these
systems, and each system carries its own memo tables (polynomials, the
mu and nu moment grids), which grow monotonically and are dropped only by
building a fresh system.

The functional L lives on the space V of rational functions p(x)/d_m(x)
with d_m(x) = prod_{i=1..m} (a_i x + lam_i); ``VElem`` is that
representation and ``L_eval`` evaluates the unique functional with
L(1) = 1 and L(x^n P_m / d_m) = 0 for n < m.  Evaluation decomposes the
argument over the basis {x^n} + {1/d_m} by repeated division by the
linear factors, then reads off mu- and nu-moments.

Division by a_n and by P_n(-lam_n/a_n) happens exactly where the theory
divides; both conditions are checked lazily at first use and raise hard,
named errors (``CoeffError``, ``DegeneracyError``).
"""

from __future__ import annotations

import os
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
    parse_scalar,
    poly_divrem,
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
    raw = os.environ.get("R1_MEMO_LIMIT")
    return int(raw) if raw else None


class CoeffSystem:
    """The sequences {b_n}, {a_n}, {lam_n} plus per-session memo tables.

    ``valid_to`` is the largest index with guaranteed definedness (None
    means every index).  A system with its tables is a single-writer
    session object; share only the immutable values it returns.  ``zero``
    and ``one`` are those of the coefficient ring.
    """

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(
        self,
        b: Callable[[int], Scalar],
        a: Callable[[int], Scalar],
        lam: Callable[[int], Scalar],
        valid_to: int | None = None,
        name: str = "",
    ):
        self._b, self._a, self._lam = b, a, lam
        self.valid_to = valid_to
        self.name = name
        self._poly_cache: list[Poly] = [Poly.const(1)]
        self._mu: MuTable | None = None
        self._nu: NuTable | None = None

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

        def pick(seq, n):
            if n >= len(seq):
                raise CoeffError(f"coefficient index {n} beyond table (valid_to={valid})")
            return seq[n]

        return CoeffSystem(
            lambda n: pick(bs, n), lambda n: pick(as_, n), lambda n: pick(ls, n),
            valid_to=valid, name=name,
        )

    def _check_index(self, n: int):
        if n < 0:
            raise CoeffError(f"coefficient index {n} is negative")
        if self.valid_to is not None and n > self.valid_to:
            raise CoeffError(f"coefficient index {n} beyond valid_to={self.valid_to}")

    def b(self, n: int) -> Scalar:
        self._check_index(n)
        return as_scalar(self._b(n))

    def a(self, n: int) -> Scalar:
        # a_0 is irrelevant and never read by the theory.
        if n < 1:
            raise CoeffError("a_n is only read for n >= 1")
        self._check_index(n)
        return as_scalar(self._a(n))

    def lam(self, n: int) -> Scalar:
        if n < 1:
            raise CoeffError("lam_n is only read for n >= 1")
        self._check_index(n)
        return as_scalar(self._lam(n))

    def a_nonzero(self, n: int) -> Scalar:
        """a_n where the theory divides by it; zero is a hard error."""
        v = self.a(n)
        if v == 0:
            raise CoeffError(f"a_{n} = 0: system violates the standing assumption")
        return v

    def mu_table(self) -> "MuTable":
        if self._mu is None:
            self._mu = MuTable(self)
        return self._mu

    def nu_table(self) -> "NuTable":
        if self._nu is None:
            self._nu = NuTable(self)
        return self._nu

    def __repr__(self):
        return f"CoeffSystem({self.name or 'anonymous'})"


def P(n: int, cs: CoeffSystem) -> Poly:
    """The monic degree-n recurrence polynomial; P_0 = 1, P_{-1} = 0."""
    if n < 0:
        return Poly()
    cache = cs._poly_cache
    while len(cache) <= n:
        k = len(cache)  # building P_k from P_{k-1}, P_{k-2}
        prev = cache[k - 1]
        prev2 = cache[k - 2] if k >= 2 else Poly()
        term = Poly.linear(1, -cs.b(k - 1)) * prev
        if k >= 2:
            term = term - Poly.linear(cs.a(k - 1), cs.lam(k - 1)) * prev2
        cache.append(term)
    return cache[n]


def Pstar(n: int, cs: CoeffSystem) -> Poly:
    """Inverted polynomial x^n P_n(1/x): exact coefficient reversal."""
    if n < 0:
        return Poly()
    return P(n, cs).reversed(n)


def shift(cs: CoeffSystem, s: int) -> CoeffSystem:
    """Reindex all three streams by s (the delta operator applied s times)."""
    if s < 0:
        raise ValueError("shift distance must be >= 0")
    if s == 0:
        return cs
    valid = None if cs.valid_to is None else cs.valid_to - s
    return CoeffSystem(
        lambda n: cs._b(n + s), lambda n: cs._a(n + s), lambda n: cs._lam(n + s),
        valid_to=valid, name=f"{cs.name}>>{s}" if cs.name else f">>{s}",
    )


def d_poly(m: int, cs: CoeffSystem) -> Poly:
    """Denominator product d_m(x) = prod_{i=1..m} (a_i x + lam_i)."""
    out = Poly.const(1)
    for i in range(1, m + 1):
        out = out * Poly.linear(cs.a(i), cs.lam(i))
    return out


# -- Favard tilings -----------------------------------------------------

BLACK, RED = "black", "red"

Tile = tuple[int, str]  # (size 1 or 2, color)


@dataclass(frozen=True)
class FavardTiling:
    """A bicolored monomino/domino tiling of the 1 x n board."""

    tiles: tuple[Tile, ...]

    @property
    def size(self) -> int:
        return sum(t[0] for t in self.tiles)

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


TILING_GUARD = 20


def P_via_tilings(n: int, cs: CoeffSystem) -> Poly:
    """Independent construction of P_n as the tiling-weighted sum."""
    if n > TILING_GUARD:
        raise ValueError(f"tiling enumeration guard exceeded (n={n} > {TILING_GUARD})")
    total = Poly()
    for tiling in favard_tilings(n):
        bm, bd, _, _ = tiling.counts()
        total = total + Poly.x(bm + bd) * tiling.weight(cs)
    return total


# -- moment tables ------------------------------------------------------


class MuTable:
    """Memoized grid mu_{n,m} = L(x^n P_m / d_m), by its recurrence.

    mu_{0,0} = 1, mu_{n,m} = 0 for n < m, and for n >= m

        mu_{n,m} = a_{m+1} mu_{n,m+1} + b_m mu_{n-1,m}
                   + mu_{n-1,m-1} + lam_{m+1} mu_{n-1,m+1},

    filled with n ascending and m descending (the first term looks at the
    same row, higher m).  Only + and * are used, so the entries lie in the
    ring of the system's coefficients (``cs.zero``, ``cs.one``).
    """

    def __init__(self, cs: CoeffSystem):
        self.cs = cs
        self.memo: dict[tuple[int, int], Scalar] = {(0, 0): cs.one}
        self._filled_to = 0

    def value(self, n: int, m: int) -> Scalar:
        if n < 0 or m < 0:
            raise ValueError("mu indices must be >= 0")
        if n < m:
            return self.cs.zero
        if n > self._filled_to:
            self._fill(n)
        return self.memo[(n, m)]

    def _fill(self, upto: int):
        cs, memo, zero = self.cs, self.memo, self.cs.zero
        limit = _memo_limit()
        for n in range(self._filled_to + 1, upto + 1):
            for m in range(n, -1, -1):
                up = memo.get((n, m + 1), zero)
                left = memo.get((n - 1, m), zero)
                diag = memo.get((n - 1, m - 1), zero)
                upleft = memo.get((n - 1, m + 1), zero)
                val = diag
                if left:
                    val += cs.b(m) * left
                if up:
                    val += cs.a(m + 1) * up
                if upleft:
                    val += cs.lam(m + 1) * upleft
                memo[(n, m)] = val
            self._filled_to = n
            if limit is not None and len(memo) > limit:
                raise MemoLimitError(
                    f"mu table: {len(memo)} entries > R1_MEMO_LIMIT={limit}"
                    f" (filling row {n} for n={upto})"
                )


class _SymbolicSystem(CoeffSystem):
    """The coefficients as the indexed symbols b_i, a_i, lam_i (SymPoly ring)."""

    zero = SymPoly()
    one = SymPoly.const(1)
    b = staticmethod(SymPoly.b)
    a = staticmethod(SymPoly.a)
    lam = staticmethod(SymPoly.lam)


_SYMBOLIC = _SymbolicSystem(SymPoly.b, SymPoly.a, SymPoly.lam, name="symbolic")
# The one memo every mu_symbolic call extends.  It is taken once here, not
# per call, because bench/tracing.py reads the entries of every table that
# an op reaches through mu_table() as rationals.
_SYMBOLIC_MU = _SYMBOLIC.mu_table()


def mu_symbolic(n: int, m: int = 0) -> SymPoly:
    """mu_{n,m} as a polynomial in the symbols b_i, a_i, lam_i."""
    return _SYMBOLIC_MU.value(n, m)


class NuTable:
    """Memoized grid nu_{n,m} = L(x^n / d_m).  Needs division: rational systems only.

    nu_{n,0} = mu_n;
    nu_{0,m} = -(1/P_m(-lam_m/a_m)) * sum_i f_{m,i} nu_{i,m-1}, where the
    f_{m,i} are the coefficients of the quotient U_m of P_m by the linear
    factor (a_m x + lam_m);
    nu_{n,m} = (1/a_m) nu_{n-1,m-1} - (lam_m/a_m) nu_{n-1,m},

    filled iteratively with m ascending and n ascending.
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
            quot, rem = poly_divrem(
                P(m, self.cs), Poly.linear(self.cs.a_nonzero(m), self.cs.lam(m))
            )
            self._u_rows[m] = quot
            self._p_at_root[m] = rem[0]
        return self._u_rows[m]

    def p_at_root(self, m: int) -> Scalar:
        """P_m(-lam_m/a_m); zero raises the named degeneracy error."""
        self.u_row(m)
        val = self._p_at_root[m]
        if val == 0:
            raise DegeneracyError(m)
        return val

    def value(self, n: int, m: int) -> Scalar:
        if n < 0 or m < 0:
            raise ValueError("nu indices must be >= 0")
        if (n, m) not in self.memo:
            self._fill(n, m)
        return self.memo[(n, m)]

    def _fill(self, n: int, m: int):
        """Add nu_{n,m} and every entry it needs.  Column 0 is mu, and only
        row n of it is added when m = 0.  Column j >= 1 holds a prefix of
        rows: up to n in column m, up to max(top_j - 1, j - 1) in column j-1."""
        cs, memo, heights = self.cs, self.memo, self._heights
        mu_t = cs.mu_table()
        limit = _memo_limit()
        tops = [n] * (m + 1)
        for j in range(m, 0, -1):
            tops[j - 1] = max(tops[j] - 1, j - 1)
        for j, top in enumerate(tops):
            if j == len(heights):
                heights.append(0)
            for i in range(heights[j], top + 1) if m else (n,):
                if j == 0:
                    val = mu_t.value(i, 0)
                elif i == 0:
                    u = self.u_row(j)
                    val = -sum(u[k] * memo[(k, j - 1)] for k in range(j)) / self.p_at_root(j)
                else:
                    val = (memo[(i - 1, j - 1)] - cs.lam(j) * memo[(i - 1, j)]) / cs.a_nonzero(j)
                memo[(i, j)] = val
            if m:
                heights[j] = max(heights[j], top + 1)
            if limit is not None and len(memo) > limit:
                raise MemoLimitError(
                    f"nu table: {len(memo)} entries > R1_MEMO_LIMIT={limit}"
                    f" (filling column {j} for nu({n}, {m}))"
                )


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
        if isinstance(other, (int, Fraction)):
            return VElem(self.numerator * other, self.denom_index, self.owner)
        if isinstance(other, Poly):
            return VElem(self.numerator * other, self.denom_index, self.owner)
        return NotImplemented

    __rmul__ = __mul__


def x_power_Q(n: int, m: int, cs: CoeffSystem) -> VElem:
    """The element x^n Q_m(x) = x^n P_m(x) / d_m(x)."""
    return VElem(P(m, cs).shift(n), m, cs)


def decompose(v: VElem) -> tuple[Poly, list[Scalar]]:
    """Write numerator/d_m as q(x) + sum_{j=0..m} c_j / d_j.

    Peels one linear factor at a time: polynomial division by d_m gives the
    polynomial part, then each remainder splits as r = (a_j x + lam_j) r' + c_j.
    """
    cs = v.owner
    m = v.denom_index
    for i in range(1, m + 1):
        cs.a_nonzero(i)  # the divisions below need every a_i != 0
    q, r = poly_divrem(v.numerator, d_poly(m, cs))
    consts = [Fraction(0)] * (m + 1)
    for j in range(m, 0, -1):
        r, c = poly_divrem(r, Poly.linear(cs.a(j), cs.lam(j)))
        consts[j] = c[0]
    consts[0] = r[0]
    return q, consts


def L_eval(v: VElem, cs: CoeffSystem | None = None) -> Scalar:
    """Evaluate the unique functional L on an element of V."""
    cs = cs or v.owner
    if cs is not v.owner:
        raise ValueError("VElem belongs to a different coefficient system")
    q, consts = decompose(v)
    mu_t = cs.mu_table()
    nu_t = cs.nu_table()
    total = Fraction(0)
    for k, coeff in enumerate(q.coeffs):
        if coeff != 0:
            total += coeff * mu_t.value(k, 0)
    for j, c in enumerate(consts):
        if c != 0:
            total += c * nu_t.value(0, j)
    return total


def mu_nml(n: int, m: int, ell: int, cs: CoeffSystem) -> Scalar:
    """mu_{n,m,ell} = L(x^n P_m Q_ell)."""
    return L_eval(VElem((P(m, cs) * P(ell, cs)).shift(n), ell, cs))


def rho(n: int, m: int, ell: int, cs: CoeffSystem) -> Scalar:
    """rho_{n,m,ell} = L(x^n P_m P_ell)."""
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
    truncated at depth = order (deeper levels cannot reach order <= N)."""
    one = Series([1], order)
    level = (one - Series([0, cs.b(order)], order)).inverse()
    for k in range(order - 1, -1, -1):
        head = one - Series([0, cs.b(k)], order)
        tail = Series([0, cs.a(k + 1), cs.lam(k + 1)], order) * level
        level = (head - tail).inverse()
    return level


def Vm_series(m: int, cs: CoeffSystem, order: int) -> Series:
    """V_m(x) = a_m nu_{0,m}/(a_m + lam_m x) + x V_{m-1}(x)/(a_m + lam_m x)."""
    if m == 0:
        return moment_series(cs, order)
    prev = Vm_series(m - 1, cs, order)
    a_m = cs.a_nonzero(m)
    nu0m = cs.nu_table().value(0, m)
    den = Series([a_m, cs.lam(m)], order).inverse()
    shifted = Series((Fraction(0),) + prev.coeffs, order)
    return (Series([a_m * nu0m], order) + shifted) * den


# -- Laurent specialization (lam = 0) ------------------------------------


def _require_laurent(cs: CoeffSystem, upto: int):
    for i in range(1, upto + 1):
        if cs.lam(i) != 0:
            raise CoeffError(f"lam_{i} != 0: operation needs the Laurent case lam = 0")


def invert(cs: CoeffSystem, check_depth: int = 12) -> CoeffSystem:
    """The involution b_n -> 1/b_n, a_n -> a_n/(b_{n-1} b_n), lam stays 0."""
    _require_laurent(cs, check_depth)

    def b_inv(n: int) -> Scalar:
        v = cs.b(n)
        if v == 0:
            raise CoeffError(f"b_{n} = 0: inversion undefined")
        return 1 / v

    def a_inv(n: int) -> Scalar:
        if n < 1:
            return Fraction(0)
        for k in (n - 1, n):
            if cs.b(k) == 0:
                raise CoeffError(f"b_{k} = 0: inversion undefined")
        return cs.a(n) / (cs.b(n - 1) * cs.b(n))

    valid = cs.valid_to
    return CoeffSystem(b_inv, a_inv, lambda n: Fraction(0), valid_to=valid,
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


def F_eval(v: VElem, cs: CoeffSystem | None = None) -> Scalar:
    """The second Laurent functional F(f) = b_0 * L(x^{-1} f)."""
    cs = cs or v.owner
    if cs is not v.owner:
        raise ValueError("VElem belongs to a different coefficient system")
    m = v.denom_index
    _require_laurent(cs, m + 1)
    # 1/x = a_{m+1} d_m / d_{m+1} when lam = 0.
    inner = VElem(v.numerator * cs.a_nonzero(m + 1), m + 1, cs)
    return cs.b(0) * L_eval(inner)


# -- coefficient-system JSON ----------------------------------------------


def _spec_scalar(value, where: str) -> Scalar:
    try:
        return parse_scalar(value) if isinstance(value, str) else as_scalar(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad scalar {value!r} in {where}: {exc}") from None


def coeffs_from_spec(spec: dict) -> CoeffSystem:
    """Build a system from the JSON spec form.

    {"kind": "table", "b": [...], "a": [...], "lambda": [...]} with rational
    strings, or {"kind": "family", "name": ..., "params": {...}} resolved by
    the families module.  A malformed spec raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError("coefficient spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "table":
        keys = ("b", "a", "lambda")
        for key in keys:
            if not isinstance(spec.get(key), list):
                raise ValueError(f"coefficient table needs a {key!r} list")
        return CoeffSystem.from_lists(*([_spec_scalar(v, key) for v in spec[key]] for key in keys))
    if kind == "family":
        from . import families

        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("family spec needs a 'params' object")
        params = {k: _spec_scalar(v, k) for k, v in params.items()}
        return families.resolve(spec.get("name"), params).build()
    raise ValueError(f"unknown coefficient spec kind {kind!r}")
