"""Exact scalar, polynomial, and truncated-power-series arithmetic.

Every quantity in this package is an exact rational number; there is no
floating point anywhere.  The scalar type is ``fractions.Fraction`` (aliased
``Scalar``), which is always stored normalized (gcd 1, positive denominator)
and serializes as a decimal string ``"p/q"`` or ``"p"``.

Three container types are built on top of it:

``Poly``
    Dense univariate polynomial, coefficients indexed by power of x,
    lowest power first.  Degrees stay small here, so dense is the right
    shape.

``Series``
    Truncated power series with an explicit truncation order carried on
    every value.  Mixing two orders truncates to the minimum, so a result
    never silently claims more precision than its inputs had.

``SymPoly``
    Sparse multivariate polynomial in the indexed symbols b_i, a_i, lam_i,
    with ring operations only (no division).  Monomial counts explode with
    path counts, so this one is sparse.  Its terms are kept canonical
    (sorted monomial keys, whole coefficients as ``int``), so ring
    operations never re-sort, and ``evaluate`` sums over ints and divides
    once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def parse_scalar(text: str) -> Scalar:
    """Parse the wire form "p/q" or "p" (decimal integer strings)."""
    return Fraction(text.strip())


def read_scalar(value, where: str) -> Scalar:
    """A wire string "p/q" or an int/Fraction; ValueError naming ``where`` otherwise."""
    try:
        return parse_scalar(value) if isinstance(value, str) else as_scalar(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad scalar {value!r} in {where}: {exc}") from None


def format_scalar(value: Scalar) -> str:
    """Wire form: "p/q", or just "p" when the denominator is 1."""
    return str(value)


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


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the standard recurrence."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for j in range(1, m + 1):
            below = row[j] if j < len(row) else 0
            new[j] = j * below + row[j - 1]
        row = new
    return row[k]


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n with k
    cycles, so that (x)_n = sum_k c(n, k) x^k."""
    if k < 0 or k > n:
        return 0
    row = [1]  # c(0, 0)
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for j in range(1, m + 1):
            below = row[j] if j < len(row) else 0
            new[j] = (m - 1) * below + row[j - 1]
        row = new
    return row[k]


class Poly:
    """Dense univariate polynomial over Scalar, lowest power first.

    Immutable; the stored coefficient list never has a trailing zero, so the
    zero polynomial is the empty tuple and ``degree`` of zero is -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c: ScalarLike) -> "Poly":
        return Poly([c])

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return Poly([0] * power + [1])

    @staticmethod
    def linear(a1: ScalarLike, a0: ScalarLike) -> "Poly":
        """The polynomial a1*x + a0."""
        return Poly([a0, a1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = as_scalar(other)
            return Poly([c * a for a in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def reversed(self, n: int | None = None) -> "Poly":
        """Coefficient reversal x^n * p(1/x); n defaults to deg p."""
        if n is None:
            n = max(self.degree, 0)
        if n < self.degree:
            raise ValueError("reversal length below degree")
        padded = list(self.coeffs) + [Fraction(0)] * (n + 1 - len(self.coeffs))
        return Poly(reversed(padded))

    def __call__(self, x: ScalarLike) -> Scalar:
        x = as_scalar(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
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


def _coerce_poly(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def poly_divrem(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: p = q*quot + rem with deg rem < deg q."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
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
            rem[k - dq + j] -= c * q.coeffs[j]
    return Poly(quot), Poly(rem[:dq])


class Series:
    """Power series truncated at an explicit order N (coefficients 0..N).

    All arithmetic truncates; combining two series keeps the smaller order.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[ScalarLike], order: int | None = None):
        cs = [as_scalar(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def from_poly(p: Poly, order: int) -> "Series":
        return Series(p.coeffs, order)

    def __getitem__(self, k: int) -> Scalar:
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def _binop(self, other, op) -> "Series":
        if isinstance(other, (int, Fraction)):
            other = Series([other], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([op(self.coeffs[k], other.coeffs[k]) for k in range(n + 1)], n)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_scalar(other)
            return Series([c * a for a in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Series(out, n)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has no inverse: constant term is 0")
        c0 = self.coeffs[0]
        out = [Fraction(1) / c0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out.append(-acc / c0)
        return Series(out, self.order)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r}, order={self.order})"


def series_from_rational(num: Poly, den: Poly, order: int) -> Series:
    """Expand num/den as a power series through x^order; needs den(0) != 0."""
    if den.is_zero() or den[0] == 0:
        raise ZeroDivisionError("rational function has a pole at 0, cannot expand")
    d0 = den[0]
    out = []
    for k in range(order + 1):
        acc = num[k]
        for j in range(1, min(k, den.degree) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / d0)
    return Series(out, order)


# Symbols are (kind, index) pairs; kinds are the three coefficient streams.
SYM_KINDS = ("b", "a", "lam")
_KIND_RANK = {kind: rank for rank, kind in enumerate(SYM_KINDS)}

Symbol = tuple[str, int]
Monomial = tuple[Symbol, ...]
Coeff = Union[int, Fraction]


def _sym_key(sym: Symbol):
    return (sym[1], _KIND_RANK[sym[0]])


def _mono_sort_key(mono: Monomial):
    return (len(mono), tuple(_sym_key(s) for s in mono))


def _whole(c: Coeff) -> Coeff:
    """A whole coefficient as int; any other stays a Fraction."""
    return c.numerator if c.denominator == 1 else c


class SymPoly:
    """Sparse polynomial in the indexed symbols b_i, a_i, lam_i over Scalar.

    ``terms`` maps monomials to coefficients and is always canonical: a
    monomial is a tuple of symbols (with repetition) sorted by ``_sym_key``,
    so index first and then b < a < lam; a whole coefficient is an ``int``
    and any other a ``Fraction``; no coefficient is zero.  ``SymPoly(terms)``
    normalises arbitrary input into that form.  The ring operations build
    their results canonical and hand them to the trusted ``_canonical``,
    which stores a dict as given, so no result is re-sorted; ``SymPoly.sum``
    adds many at once into one copy of the largest; a product with
    a single term c*s only inserts s into each monomial at its sorted
    place.  Only ring operations are provided: + and * (no division), plus
    fraction-free evaluation by substituting scalars.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, ScalarLike] | None = None):
        clean: dict[Monomial, Coeff] = {}
        for mono, coeff in (terms or {}).items():
            try:
                key = tuple(sorted(mono, key=_sym_key))
            except KeyError as exc:
                raise ValueError(f"unknown symbol kind {exc.args[0]!r}") from None
            clean[key] = clean.get(key, 0) + as_scalar(coeff)
        object.__setattr__(self, "terms", {m: _whole(c) for m, c in clean.items() if c})

    @classmethod
    def _canonical(cls, terms: dict[Monomial, Coeff]) -> "SymPoly":
        """Wrap a dict that is already canonical, without checking it."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SymPoly is immutable")

    @staticmethod
    def const(c: ScalarLike) -> "SymPoly":
        return SymPoly({(): c})

    @staticmethod
    def symbol(kind: str, index: int) -> "SymPoly":
        if kind not in SYM_KINDS:
            raise ValueError(f"unknown symbol kind {kind!r}")
        return SymPoly._canonical({((kind, index),): 1})

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _coerce_sympoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def sum(polys: Sequence["SymPoly"]) -> "SymPoly":
        """The sum of several SymPolys: one copy of the largest, the rest folded in."""
        if not polys:
            return SymPoly()
        sizes = [len(p.terms) for p in polys]
        big = sizes.index(max(sizes))
        out = dict(polys[big].terms)
        for k, poly in enumerate(polys):
            if k == big:
                continue
            for mono, c in poly.terms.items():
                if mono not in out:
                    out[mono] = c
                    continue
                c = out[mono] + c
                if c:
                    out[mono] = _whole(c)
                else:
                    del out[mono]
        return SymPoly._canonical(out)

    def __add__(self, other) -> "SymPoly":
        other = _coerce_sympoly(other)
        if other is NotImplemented:
            return NotImplemented
        return SymPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly._canonical({m: -c for m, c in self.terms.items()})

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
        for factor, poly in ((other, self), (self, other)):
            single = _one_symbol(factor.terms)
            if single:
                return SymPoly._canonical(_times_symbol(poly.terms, *single))
        out: dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(sorted(m1 + m2, key=_sym_key))
                out[key] = out.get(key, 0) + c1 * c2
        return SymPoly._canonical({m: _whole(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def evaluate(self, assign: Callable[[str, int], ScalarLike]) -> Scalar:
        """Substitute scalars for symbols; assign(kind, index) -> Scalar.

        ``assign`` is called once per distinct symbol.  The sum runs on
        ints: the values are scaled by D, the lcm of their denominators,
        the coefficients by E, the lcm of theirs, and a term of degree j is
        padded by D^(k - j), where k is the top degree.  The exact total is
        divided by E * D^k once at the end, so the result is the Fraction
        that per-term Fraction products give.
        """
        values: dict[Symbol, Scalar] = {}
        for mono in self.terms:
            for sym in mono:
                if sym not in values:
                    values[sym] = as_scalar(assign(*sym))
        d = math.lcm(*(v.denominator for v in values.values()))
        e = math.lcm(*(c.denominator for c in self.terms.values()))
        scaled = {sym: v.numerator * (d // v.denominator) for sym, v in values.items()}
        top = max(map(len, self.terms), default=0)
        pad = [d ** (top - j) for j in range(top + 1)]
        total = 0
        for mono, c in self.terms.items():
            prod = c.numerator * (e // c.denominator) * pad[len(mono)]
            for sym in mono:
                prod *= scaled[sym]
            total += prod
        return Fraction(total, e * d**top)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            coeff = self.terms[mono]
            factors = []
            i = 0
            while i < len(mono):
                j = i
                while j < len(mono) and mono[j] == mono[i]:
                    j += 1
                kind, idx = mono[i]
                name = f"{kind}{idx}"
                factors.append(name if j - i == 1 else f"{name}^{j - i}")
                i = j
            if not factors:
                parts.append(format_scalar(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(format_scalar(coeff) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SymPoly({self})"


def _coerce_sympoly(value) -> "SymPoly":
    if isinstance(value, SymPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return SymPoly.const(value)
    return NotImplemented


def _one_symbol(terms: dict[Monomial, Coeff]) -> tuple[Symbol, Coeff] | None:
    """(sym, c) when ``terms`` is the single term c*sym, else None."""
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        if len(mono) == 1:
            return mono[0], c
    return None


def _times_symbol(terms: dict[Monomial, Coeff], sym: Symbol, c: Coeff) -> dict[Monomial, Coeff]:
    """The canonical terms of ``terms`` times c*sym.  sym goes into each
    monomial at its sorted place; distinct monomials stay distinct, so no
    two terms merge and none cancels."""
    key = _sym_key(sym)
    out: dict[Monomial, Coeff] = {}
    for mono, coeff in terms.items():
        i = bisect_right(mono, key, key=_sym_key)
        out[mono[:i] + (sym,) + mono[i:]] = coeff if c == 1 else _whole(coeff * c)
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
