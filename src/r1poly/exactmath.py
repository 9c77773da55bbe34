"""Exact scalar, polynomial, and truncated-power-series arithmetic.

Every quantity in this package is an exact rational number; there is no
floating point anywhere.  The scalar type is ``fractions.Fraction`` (aliased
``Scalar``), which is always stored normalized (gcd 1, positive denominator)
and serializes as a decimal string ``"p/q"`` or ``"p"``.  Python refuses
int <-> str conversions past ``sys.get_int_max_str_digits()`` digits, so the
two wire functions take longer numbers through ``decimal``, which has no
such limit; below it they are plain ``str`` and ``Fraction``.

Three container types are built on top of it:

``Poly``
    Dense univariate polynomial, coefficients indexed by power of x,
    lowest power first.  Degrees stay small here, so dense is the right
    shape.  It keeps integer ``numerators`` over one reduced ``denominator``
    and computes on them; ``int_row`` and ``reduced`` are that row rule for
    the other integer-row kernels.

``Series``
    Truncated power series: a ``Poly`` of degree <= its order, with the
    order carried on every value and ``coeffs`` padded to it on each read.
    Its arithmetic is Poly's, truncated; mixing two orders truncates to the
    minimum, so a result never silently claims more precision than its
    inputs had.  ``series_from_rational`` divides on the integer rows.

``SymPoly``
    Sparse multivariate polynomial in the indexed symbols b_i, a_i, lam_i,
    with ring operations only (no division).  Monomial counts explode with
    path counts, so this one is sparse.  Each monomial is one int, its
    packed exponent vector: symbol (kind, i) has the code c = 3*i +
    rank(kind) with b < a < lam, and its exponent fills the FIELD_BITS-bit
    field at bit FIELD_BITS*c.  A product of monomials is then one int
    addition.  Every SymPoly carries a bound on its total degree, and a
    product whose bound passes MAX_DEGREE = 2^FIELD_BITS - 1 raises
    ``SymDegreeError`` rather than let a field carry into the next.  The
    ``terms`` property decodes the keys on every read into the canonical
    dict of ``((kind, index), ...)`` monomials that ``SymPoly(dict)`` takes.
    Whole coefficients are ``int``, and ``evaluate`` sums over ints and
    divides once.  ``str`` prints the terms in key order: by total degree,
    then by the exponent bytes from the lowest code, a larger exponent
    first, which is the order of the sorted symbol tuples.

``Poly`` and ``SymPoly`` print their terms by one rule, ``_terms_text``.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import re
import sys
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Scalar = Fraction

ScalarLike = Union[Fraction, int]


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce an int or Fraction to Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


_WIRE_FORM = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(text: str) -> Scalar:
    """Parse the wire form "p/q" or "p" (decimal integer strings), of any length."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:  # past the int string limit, or not a scalar at all
        wire = _WIRE_FORM.fullmatch(text)
        if wire is None:
            raise
    num, den = (int(decimal.Decimal(part or "1")) for part in wire.group(1, 2))
    if not den:  # Fraction's own message would print the long numerator
        raise ZeroDivisionError("zero denominator")
    return Fraction(num, den)


def read_scalar(value, where: str) -> Scalar:
    """A wire string "p/q" or an int/Fraction; ValueError naming ``where`` otherwise."""
    try:
        return parse_scalar(value) if isinstance(value, str) else as_scalar(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        shown, limit = repr(value), sys.get_int_max_str_digits()
        if isinstance(value, str) and 0 < limit < len(value):  # its head, for one short line
            shown = f"{value[:20]!r}… ({sum(map(str.isdigit, value))} digits)"
            if not isinstance(exc, ZeroDivisionError):
                exc = f"past {limit} digits only a plain p or p/q is read"
        raise ValueError(f"bad scalar {shown} in {where}: {exc}") from None


def format_scalar(value: Scalar) -> str:
    """Wire form: "p/q", or just "p" when the denominator is 1, of any length."""
    try:
        return str(value)
    except ValueError:  # past the int string limit
        text = str(decimal.Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{decimal.Decimal(value.denominator)}"


def _terms_text(terms: Iterable[tuple[ScalarLike, str]]) -> str:
    """(coefficient, factors) pairs in order as "c*f + f - f - c": a zero
    coefficient is skipped, empty factors print the bare scalar, and a
    coefficient of +-1 prints only its sign; no term at all prints "0"."""
    parts = []
    for c, factors in terms:
        if not c:
            continue
        if not factors:
            parts.append(format_scalar(c))
        elif c == 1:
            parts.append(factors)
        elif c == -1:
            parts.append("-" + factors)
        else:
            parts.append(format_scalar(c) + "*" + factors)
    return " + ".join(parts).replace("+ -", "- ") or "0"


def pochhammer(a: ScalarLike, n: int) -> Scalar:
    """Rising factorial (a)_n = a(a+1)...(a+n-1); empty product is 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    a = as_scalar(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def qpochhammer(a: ScalarLike, q: ScalarLike, n: int) -> Scalar:
    """q-shifted factorial (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1})."""
    if n < 0:
        raise ValueError("qpochhammer needs n >= 0")
    a = as_scalar(a)
    q = as_scalar(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        out *= 1 - a * power
        power *= q
    return out


def _stirling(n: int, k: int, weight: Callable[[int, int], int]) -> int:
    """Entry (n, k) of the triangle t(m, j) = weight(m, j) t(m-1, j) +
    t(m-1, j-1), t(0, 0) = 1, by rows."""
    if k < 0 or k > n:
        return 0
    row = [1]  # t(0, 0)
    for m in range(1, n + 1):
        row.append(0)
        row = [0] + [weight(m, j) * row[j] + row[j - 1] for j in range(1, m + 1)]
    return row[k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n into k blocks."""
    return _stirling(n, k, lambda m, j: j)


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n with k
    cycles, so that (x)_n = sum_k c(n, k) x^k."""
    return _stirling(n, k, lambda m, j: m - 1)


def int_row(values: Sequence[ScalarLike]) -> tuple[list[int], int]:
    """Rationals as (ints, den): den the lcm of their reduced denominators,
    so gcd(den, *ints) = 1."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """(row, den) divided by gcd(den, *row), with the sign that leaves den > 0."""
    g = math.gcd(den, *row)  # skips the rest once the gcd is 1
    if den < 0:
        g = -g
    if g != 1:
        return [v // g for v in row], den // g
    return row, den


class Poly:
    """Dense univariate polynomial over Scalar, lowest power first.

    Immutable.  Coefficient k is numerators[k] / denominator, all ints, with
    denominator > 0, gcd(denominator, *numerators) = 1 and no trailing zero,
    so the zero polynomial is the empty tuple over 1 and its ``degree`` -1.
    ``coeffs``, the reduced Fractions, is made on every read.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        self._set(*int_row([as_scalar(c) for c in coeffs]))

    def _set(self, row: list[int], den: int):
        while row and not row[-1]:  # a zero entry changes neither den nor the gcd
            row.pop()
        object.__setattr__(self, "numerators", tuple(row))
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_row(cls, row: Iterable[int], den: int) -> "Poly":
        """sum_k (row[k] / den) x^k for ints and a nonzero den, reduced by one gcd."""
        out = object.__new__(cls)
        out._set(*reduced(list(row), den))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients as reduced Fractions, made on every read."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @staticmethod
    def const(c: ScalarLike) -> "Poly":
        return Poly([c])

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return Poly.const(1).shift(power)

    @staticmethod
    def linear(a1: ScalarLike, a0: ScalarLike) -> "Poly":
        """The polynomial a1*x + a0."""
        return Poly([a0, a1])

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __getitem__(self, k: int) -> Scalar:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    def leading(self) -> Scalar:
        if not self.numerators:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.denominator == other.denominator and self.numerators == other.numerators
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):  # a constant equals its scalar, so hashes as it
        return hash(self[0]) if self.degree <= 0 else hash((self.numerators, self.denominator))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self.denominator, other.denominator)
        mp, mq = den // self.denominator, den // other.denominator
        return Poly.from_row([a * mp + b * mq for a, b in itertools.zip_longest(
            self.numerators, other.numerators, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly.from_row([-c for c in self.numerators], self.denominator)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, Poly)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        """By a scalar, or by a Poly as the int convolution over d1*d2."""
        if isinstance(other, (int, Fraction)):
            return Poly.from_row([other.numerator * v for v in self.numerators],
                                 other.denominator * self.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        p, q = self.numerators, other.numerators
        out = [0] * max(len(p) + len(q) - 1, 0)
        for i, a in enumerate(p):
            for j, b in enumerate(q, i):
                out[j] += a * b
        return Poly.from_row(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return math.prod([self] * n, start=Poly.const(1))

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k, k >= 0."""
        if k < 0:
            raise ValueError(f"polynomial shift needs k >= 0, got {k}")
        return Poly.from_row((0,) * k + self.numerators, self.denominator)

    def reversed(self, n: int | None = None) -> "Poly":
        """Coefficient reversal x^n * p(1/x); n defaults to deg p."""
        if n is None:
            n = max(self.degree, 0)
        if n < self.degree:
            raise ValueError("reversal length below degree")
        return Poly.from_row((0,) * (n - self.degree) + self.numerators[::-1], self.denominator)

    def __call__(self, x: ScalarLike) -> Scalar:
        """The value at x = r/s: Horner on the integers scaled by s^(deg + 1)."""
        x = as_scalar(x)
        out, power = 0, 1
        for c in reversed(self.numerators):
            out = out * x.numerator + c * power
            power *= x.denominator
        return Fraction(out * x.denominator, self.denominator * power)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return _terms_text((c, "" if k == 0 else "x" if k == 1 else f"x^{k}")
                           for k, c in enumerate(self.coeffs))


def poly_divrem(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: p = q*quot + rem with deg rem < deg q."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, qc = list(p.coeffs), q.coeffs
    dq = q.degree
    lead = q.leading()
    if len(rem) <= dq:
        return Poly(), p
    quot = [Fraction(0)] * (len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k] / lead
        if c == 0:
            continue
        quot[k - dq] = c
        for j in range(dq + 1):
            rem[k - dq + j] -= c * qc[j]
    return Poly(quot), Poly(rem[:dq])


class Series:
    """Power series truncated at an explicit order N (coefficients 0..N).

    Immutable: ``poly``, a Poly of degree <= N, and ``order``.  ``coeffs``,
    the N + 1 Fractions padded with zeros, is made on every read.  +, - and
    * are Poly's, truncated; combining two series keeps the smaller order.
    ``==`` compares up to the smaller order, so a Series is unhashable.
    """

    __slots__ = ("poly", "order")

    def __init__(self, coeffs: Sequence[ScalarLike], order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        self._set(Poly(coeffs[: order + 1]), order)

    def _set(self, poly: Poly, order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        if poly.degree > order:
            poly = Poly.from_row(poly.numerators[: order + 1], poly.denominator)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        out = object.__new__(cls)
        out._set(p, order)
        return out

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self.poly.coeffs + (Fraction(0),) * (self.order - self.poly.degree)

    def __getitem__(self, k: int) -> Scalar:
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.poly[range(self.order + 1)[k]]  # a negative k counts from the order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return not (self - other).poly

    __hash__ = None

    def _binop(self, other, op) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series.from_poly(op(self.poly, other), self.order)
        if not isinstance(other, Series):
            return NotImplemented
        return Series.from_poly(op(self.poly, other.poly), min(self.order, other.order))

    __add__ = __radd__ = functools.partialmethod(_binop, op=operator.add)
    __sub__ = functools.partialmethod(_binop, op=operator.sub)
    __mul__ = __rmul__ = functools.partialmethod(_binop, op=operator.mul)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return Series.from_poly(-self.poly, self.order)

    def inverse(self) -> "Series":
        """Multiplicative inverse: the expansion of 1/(this series as a
        polynomial).  A zero constant term raises ZeroDivisionError."""
        return series_from_rational(Poly.const(1), self.poly, self.order)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r}, order={self.order})"


def series_from_rational(num: Poly, den: Poly, order: int) -> Series:
    """Expand num/den as a power series through x^order; needs den(0) != 0.

    With num = N/n0 and den = D/d0, T_k = (N_k d0/n0 - sum_{j>=1} D_j T_{k-j}) / D_0
    on the integer rows.  T_k is kept as t_k/q, q the lcm of the reduced
    denominators so far, widened only when a new T_k needs it."""
    N, n0 = num.numerators, num.denominator
    D, d0 = den.numerators, den.denominator
    if not D or not D[0]:
        raise ZeroDivisionError("rational function has a pole at 0, cannot expand")
    tail, t, q = D[1:], [], 1
    for k in range(order + 1):
        acc = (N[k] * d0 * q if k < len(N) else 0) - n0 * sum(map(operator.mul, tail, reversed(t)))
        (acc,), r = reduced([acc], n0 * q * D[0])  # T_k = acc / r
        if q % r:
            widen = r // math.gcd(q, r)
            t = [v * widen for v in t]
            q *= widen
        t.append(acc * (q // r))
    return Series.from_poly(Poly.from_row(t, q), order)


# Symbols are (kind, index) pairs; kinds are the three coefficient streams.
SYM_KINDS = ("b", "a", "lam")
_KIND_RANK = {kind: rank for rank, kind in enumerate(SYM_KINDS)}

Symbol = tuple[str, int]
Monomial = tuple[Symbol, ...]
Coeff = Union[int, Fraction]

# A monomial is packed into one int.  Symbol (kind, i) has the code
# c = 3*i + rank(kind), which orders symbols by index and then b < a < lam,
# and its exponent is the field of FIELD_BITS bits at bit FIELD_BITS*c.  A
# field is one byte, so ``key.to_bytes(n, "little")[c]`` is the exponent of
# code c.  No exponent exceeds the total degree, so a total degree of at
# most MAX_DEGREE keeps every field from carrying into the next.
FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1
_EVAL_CODES = 6  # fields that one pass of ``SymPoly.evaluate`` takes off
_DESCENDING = bytes(range(255, -1, -1))  # exponent e -> 255 - e, for the print order


class SymDegreeError(ValueError):
    """A SymPoly monomial of total degree above MAX_DEGREE: it cannot be packed."""


def _code(sym: Symbol) -> int:
    kind, index = sym
    if kind not in _KIND_RANK:
        raise ValueError(f"unknown symbol kind {kind!r}")
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValueError(f"symbol index must be an int >= 0, got {index!r}")
    return 3 * index + _KIND_RANK[kind]


def _symbol(code: int) -> Symbol:
    return SYM_KINDS[code % 3], code // 3


@functools.cache
def _factor(code: int, e: int) -> str:
    kind, index = _symbol(code)
    return f"{kind}{index}" if e == 1 else f"{kind}{index}^{e}"


def _fields(key: int) -> list[tuple[int, int]]:
    """(code, exponent) of each symbol of a packed monomial, codes ascending."""
    exps = key.to_bytes((key.bit_length() + 7) // 8, "little")
    return [(c, e) for c, e in enumerate(exps) if e]


def _monomial(key: int) -> Monomial:
    """The canonical tuple of a packed monomial: symbols with repetition, sorted."""
    mono: Monomial = ()
    for c, e in _fields(key):
        mono += (_symbol(c),) * e
    return mono


def _check_degree(deg: int) -> int:
    if deg > MAX_DEGREE:
        raise SymDegreeError(f"SymPoly total degree {deg} exceeds MAX_DEGREE={MAX_DEGREE}")
    return deg


def _whole(c: Coeff) -> Coeff:
    """A whole coefficient as int; any other stays a Fraction."""
    return c if type(c) is int else c.numerator if c.denominator == 1 else c


class SymPoly:
    """Sparse polynomial in the indexed symbols b_i, a_i, lam_i over Scalar.

    The terms are kept as a dict from packed monomials (one int each, see
    FIELD_BITS) to coefficients: a whole coefficient is an ``int`` and any
    other a ``Fraction``, and no coefficient is zero.  Multiplying two
    monomials adds their keys, so a product with a single term c*s adds one
    int to each key, and ``SymPoly.sum`` merges int-keyed dicts into one copy
    of the largest.  Each SymPoly carries a bound on its total degree; a
    product whose bound would pass MAX_DEGREE raises ``SymDegreeError``
    before any key is added, so no field ever carries into the next.

    ``SymPoly(terms)`` takes monomials as tuples of ``(kind, index)``
    symbols in any order.  ``terms`` decodes the keys on every read into
    that canonical form: symbols with repetition, sorted by index and then
    b < a < lam.  Only ring operations are provided: + and * (no division),
    plus fraction-free evaluation by substituting scalars.
    """

    __slots__ = ("_terms", "_deg")

    def __init__(self, terms: dict[Monomial, ScalarLike] | None = None):
        clean: dict[int, Coeff] = {}
        deg = 0
        for mono, coeff in (terms or {}).items():
            deg = max(deg, _check_degree(len(mono)))
            key = sum(1 << FIELD_BITS * _code(sym) for sym in mono)
            clean[key] = clean.get(key, 0) + as_scalar(coeff)
        self._set({m: _whole(c) for m, c in clean.items() if c}, deg)

    def _set(self, terms: dict[int, Coeff], deg: int):
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_deg", deg)

    @classmethod
    def _canonical(cls, terms: dict[int, Coeff], deg: int) -> "SymPoly":
        """Wrap packed terms that are already canonical, without checking them."""
        out = object.__new__(cls)
        out._set(terms, deg)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SymPoly is immutable")

    @property
    def terms(self) -> dict[Monomial, Coeff]:
        """The terms with tuple monomials, decoded on every read."""
        return {_monomial(m): c for m, c in self._terms.items()}

    @staticmethod
    def const(c: ScalarLike) -> "SymPoly":
        c = _whole(as_scalar(c))
        return SymPoly._canonical({0: c} if c else {}, 0)

    @staticmethod
    def symbol(kind: str, index: int) -> "SymPoly":
        return SymPoly._canonical({1 << FIELD_BITS * _code((kind, index)): 1}, 1)

    @staticmethod
    def b(i: int) -> "SymPoly":
        return SymPoly.symbol("b", i)

    @staticmethod
    def a(i: int) -> "SymPoly":
        return SymPoly.symbol("a", i)

    @staticmethod
    def lam(i: int) -> "SymPoly":
        return SymPoly.symbol("lam", i)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce_sympoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # a constant equals its scalar, so hashes as it
        terms = self._terms
        return hash(terms.get(0, 0)) if terms.keys() <= {0} else hash(frozenset(terms.items()))

    @staticmethod
    def sum(polys: Sequence["SymPoly"]) -> "SymPoly":
        """The sum of several SymPolys: one copy of the largest, the rest folded in."""
        if not polys:
            return SymPoly()
        sizes = [len(p._terms) for p in polys]
        big = sizes.index(max(sizes))
        out = dict(polys[big]._terms)
        for k, poly in enumerate(polys):
            if k == big:
                continue
            for mono, c in poly._terms.items():
                if mono not in out:
                    out[mono] = c
                    continue
                c += out[mono]
                if c:
                    out[mono] = c if type(c) is int else _whole(c)
                else:
                    del out[mono]
        return SymPoly._canonical(out, max(p._deg for p in polys))

    def __add__(self, other) -> "SymPoly":
        other = _coerce_sympoly(other)
        if other is NotImplemented:
            return NotImplemented
        return SymPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly._canonical({m: -c for m, c in self._terms.items()}, self._deg)

    def __sub__(self, other) -> "SymPoly":
        other = _coerce_sympoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SymPoly":
        return -(self - other)

    def __mul__(self, other) -> "SymPoly":
        other = _coerce_sympoly(other)
        if other is NotImplemented:
            return NotImplemented
        deg = _check_degree(self._deg + other._deg)
        for factor, poly in ((other._terms, self._terms), (self._terms, other._terms)):
            if len(factor) == 1:
                # Distinct keys plus one key stay distinct: nothing merges.
                ((m, c),) = factor.items()
                if c == 1:
                    return SymPoly._canonical(dict(zip(map(m.__add__, poly), poly.values())), deg)
                return SymPoly._canonical({k + m: _whole(v * c) for k, v in poly.items()}, deg)
        out: dict[int, Coeff] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
        return SymPoly._canonical({m: _whole(c) for m, c in out.items() if c}, deg)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return math.prod([self] * n, start=SymPoly.const(1))

    def evaluate(self, assign: Callable[[str, int], ScalarLike]) -> Scalar:
        """Substitute scalars for symbols; assign(kind, index) -> Scalar.

        ``assign`` is called once per distinct symbol, read from the OR of
        the keys.  The sum runs on ints: the values are scaled by D, the
        lcm of their denominators, and the coefficients by E, the lcm of
        theirs.  It is a Horner scheme in the keys: each pass takes the
        lowest _EVAL_CODES fields off every key, multiplies each term by the
        product of those fields' powers, and merges the terms whose rest
        agrees.  A pass computes each distinct product once and pads it by
        D^(t - j), j its degree and t the top degree of the pass, so the
        exact total is divided by E * D^(sum of the t) once at the end and
        the result is the Fraction that per-term Fraction products give.
        """
        terms = self._terms
        used = functools.reduce(operator.or_, terms, 0)
        values = {c: as_scalar(assign(*_symbol(c))) for c, _ in _fields(used)}
        nums, d = int_row(list(values.values()))
        scaled = dict(zip(values, nums))
        e = math.lcm(*(c.denominator for c in set(terms.values())))
        acc = terms if e == 1 else {m: c.numerator * (e // c.denominator) for m, c in terms.items()}
        bits = FIELD_BITS * _EVAL_CODES
        mask = (1 << bits) - 1
        pad = 0
        for offset in range(0, -(-used.bit_length() // FIELD_BITS), _EVAL_CODES):
            raw = {}
            for low in {m & mask for m in acc}:
                prod, deg = 1, 0
                for c, k in _fields(low):
                    prod *= scaled[offset + c] ** k
                    deg += k
                raw[low] = prod, deg
            top = max(deg for _, deg in raw.values())
            pad += top
            factor = {low: prod * d ** (top - deg) for low, (prod, deg) in raw.items()}
            rest: dict[int, int] = defaultdict(int)
            for m, v in acc.items():
                rest[m >> bits] += v * factor[m & mask]
            acc = rest
        return Fraction(acc.get(0, 0), e * d**pad)

    def __str__(self) -> str:
        terms = self._terms  # printed in key order, see the module docstring
        width = (max(terms, default=0).bit_length() + 7) // 8

        def order(key: int) -> tuple[int, bytes]:
            exps = key.to_bytes(width, "little")
            return sum(exps), exps.translate(_DESCENDING)

        return _terms_text((terms[key], "*".join([_factor(c, e) for c, e in _fields(key)]))
                           for key in sorted(terms, key=order))

    def __repr__(self) -> str:
        return f"SymPoly({self})"


def _coerce_sympoly(value) -> "SymPoly":
    if isinstance(value, SymPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return SymPoly.const(value)
    return NotImplemented


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
