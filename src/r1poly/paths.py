"""Motzkin-Schroeder paths: enumeration, weighted sums, bounded-height GFs.

A path lives on or above the x-axis and uses four steps:

    U = (1, 1)    weight 1
    H = (1, 0)    weight b_k   (k = starting height)
    V = (0, -1)   weight a_k   (k = starting height)
    D = (1, -1)   weight lam_k (k = starting height)

V consumes no x-advance, so columns can hold several V steps; paths between
fixed endpoints are still finitely many because every V must eventually be
paid for by a U and heights stay nonnegative.

``weight_sum`` is the column dynamic program of ``core.PathColumns``, the
same walk the mu-grid is filled by (no explicit enumeration): within a
column the V contribution flows downward, so heights are processed top to
bottom.  ``column_sums`` reads many endpoints off one such walk: column x
of a walk does not depend on how far the walk later goes, and each value
read is exact, so every sum it returns is the one ``weight_sum`` gives
for that endpoint.  ``enumerate_paths`` is the brute-force oracle, ordered
by step kind U < H < V < D at every position.  Weights come from the ring of the
coefficient system behind a ``WeightSystem``: rationals, or the indexed
symbols themselves for ``symbolic_weights()``.  A rational walk runs over
integers scaled by D^((x - x0) - (y - y0)), D the lcm of the denominators
read, until D passes ``core.SCALED_MAX_BITS`` bits, and over integers with
one common denominator per column after that (``core.PathColumns``); a new
D, or that crossing, converts only the column the walk stands in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _SYMBOLIC, CoeffSystem, PathColumns, Pstar
from .exactmath import Poly

STEP_KINDS = "UHVD"

# Displacements (dx, dy) per step kind.
DISPLACEMENT = {"U": (1, 1), "H": (1, 0), "V": (0, -1), "D": (1, -1)}

Point = tuple[int, int]


class PathOverflowError(RuntimeError):
    """Enumeration would exceed the requested cap; never truncated silently."""


@dataclass(frozen=True)
class Path:
    """A step sequence with an explicit start point; the end is derived."""

    start: Point
    steps: str

    def __post_init__(self):
        if self.start[1] < 0:
            raise ValueError("start height must be >= 0")
        y = self.start[1]
        for s in self.steps:
            if s not in DISPLACEMENT:
                raise ValueError(f"unknown step kind {s!r}")
            y += DISPLACEMENT[s][1]
            if y < 0:
                raise ValueError("path dips below the x-axis")

    @property
    def end(self) -> Point:
        x, y = self.start
        for s in self.steps:
            dx, dy = DISPLACEMENT[s]
            x, y = x + dx, y + dy
        return (x, y)

    def heights(self) -> list[int]:
        """Starting height of each step, in order."""
        y = self.start[1]
        out = []
        for s in self.steps:
            out.append(y)
            y += DISPLACEMENT[s][1]
        return out

    def weight(self, ws: "WeightSystem"):
        out = ws.one
        for s, h in zip(self.steps, self.heights()):
            out = out * ws.step_weight(s, h)
        return out

    def __str__(self) -> str:
        return f"start=({self.start[0]},{self.start[1]}) {self.steps}"

    @staticmethod
    def parse(text: str) -> "Path":
        head, _, steps = text.strip().partition(" ")
        if not head.startswith("start=(") or not head.endswith(")"):
            raise ValueError(f"malformed path text {text!r}")
        x, y = head[len("start=("):-1].split(",")
        return Path((int(x), int(y)), steps.strip())


class WeightSystem:
    """Step weights read from a coefficient system, in the system's ring.

    U weighs one; H, V and D starting at height k weigh b_k, a_k and lam_k.
    """

    def __init__(self, cs: CoeffSystem):
        self.cs = cs
        self.zero, self.one = cs.zero, cs.one

    def step_weight(self, kind: str, height: int):
        if kind == "U":
            return self.one
        if kind == "H":
            return self.cs.b(height)
        if kind == "V":
            return self.cs.a(height)
        return self.cs.lam(height)


def symbolic_weights() -> WeightSystem:
    """Weights that are the indexed symbols b_k, a_k, lam_k themselves."""
    return WeightSystem(_SYMBOLIC)


DEFAULT_CAP = 10**6


def enumerate_paths(
    start: Point,
    end: Point,
    max_height: int | None = None,
    cap: int = DEFAULT_CAP,
) -> list[Path]:
    """All paths from start to end, exhaustive and duplicate-free.

    Lexicographic in step kinds (U < H < V < D position by position).
    Raises PathOverflowError beyond the cap instead of truncating.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if start[1] < 0 or end[1] < 0:
        raise ValueError("endpoints must have height >= 0")
    out: list[Path] = []
    if max_height is not None and (start[1] > max_height or end[1] > max_height):
        return out
    x1, y1 = end

    def rec(x: int, y: int, acc: list[str]):
        if x > x1 or x1 - x < y1 - y:
            return  # cannot reach the endpoint any more
        if (x, y) == (x1, y1):
            if len(out) >= cap:
                raise PathOverflowError(f"more than cap={cap} paths")
            out.append(Path(start, "".join(acc)))
            # an empty continuation was emitted; longer paths may still hit
            # the endpoint again after leaving it, so keep searching
        for s in STEP_KINDS:
            dx, dy = DISPLACEMENT[s]
            ny = y + dy
            if ny < 0:
                continue
            if max_height is not None and ny > max_height:
                continue
            acc.append(s)
            rec(x + dx, ny, acc)
            acc.pop()

    rec(start[0], start[1], [])
    return out


def column_sums(start: Point, xs, heights, ws: WeightSystem,
                max_height: int | None = None) -> list[list]:
    """Path sums from start to (x, y) for each x in ``xs`` and y in
    ``heights``, as one row per x, off one ``PathColumns`` walk.

    ``xs`` must increase from the start's column; each sum is the one
    ``weight_sum(start, (x, y), ws, max_height)`` gives, so a start or a
    height above the cap reads zero.
    """
    if start[1] < 0 or any(y < 0 for y in heights):
        raise ValueError("heights must be >= 0")
    if max_height is not None and start[1] > max_height:
        return [[ws.zero] * len(heights) for _ in xs]
    walk = PathColumns(ws.cs, start, max_height)
    rows = []
    for x in xs:
        if x < walk.x:
            raise ValueError("columns must increase from the start's column")
        while walk.x < x:
            walk.advance()
        rows.append([walk.value(y) for y in heights])
    return rows


def weight_sum(
    start: Point,
    end: Point,
    ws: WeightSystem,
    max_height: int | None = None,
):
    """Sum of path weights from start to end, by the column dynamic program.

    A ``PathColumns`` walk from the start steps one column at a time to the
    end's column; a rational system walks over integers, scaled while the
    lcm of its denominators stays small and over one denominator per
    column after that, so only the answer is divided.
    """
    x0, y0 = start
    x1, y1 = end
    if y0 < 0 or y1 < 0:
        raise ValueError("endpoints must have height >= 0")
    if x1 < x0 or (max_height is not None and (y0 > max_height or y1 > max_height)):
        return ws.zero
    return column_sums(start, (x1,), (y1,), ws, max_height)[0][0]


def _rho_suffix(ell: int, ws: WeightSystem) -> list:
    """The coefficients of prod_{h=1..ell} (a_h + lam_h z), graded by z: the
    weights of the descents from height ell to 0 by V and D steps, by their
    number of D steps.  Read from h = ell down."""
    suffix = [ws.one]
    for h in range(ell, 0, -1):
        v, d = ws.step_weight("V", h), ws.step_weight("D", h)
        nxt = [ws.zero] * (len(suffix) + 1)
        for j, c in enumerate(suffix):
            nxt[j] = nxt[j] + c * v
            nxt[j + 1] = nxt[j + 1] + c * d
        suffix = nxt
    return suffix


def rho_sums(m: int, ns, ells, ws: WeightSystem) -> list[list]:
    """``rho_sum(n, m, ell, ws)`` for each n in ``ns`` (increasing) and ell in
    ``ells``, as one row per n: each suffix once, then one ``column_sums``
    walk from (0, m) read at the heights ``ells``."""
    ells = list(ells)
    suffixes = [_rho_suffix(ell, ws) for ell in ells]
    xs = sorted({n + j for n in ns for j in range(max(ells) + 1)})
    at = dict(zip(xs, column_sums((0, m), xs, ells, ws)))
    rows = []
    for n in ns:
        row = []
        for i, (ell, suffix) in enumerate(zip(ells, suffixes)):
            total = ws.zero
            for j, c in enumerate(suffix):
                total = total + c * at[n + ell - j][i]
            row.append(total)
        rows.append(row)
    return rows


def rho_sum(n: int, m: int, ell: int, ws: WeightSystem):
    """Weighted paths (0,m) -> (n+ell, 0) whose final ell steps are V or D.

    Such a suffix descends heights ell..1; a D at height h advances x while a
    V does not, so the suffix contributions are the coefficients of
    prod_{h=1..ell} (a_h + lam_h z) (``_rho_suffix``), graded by the number
    of D steps.  The suffix with j D steps starts at (n + ell - j, ell), so
    one ``PathColumns`` walk from (0, m), read at height ell in columns
    n..n+ell, gives every prefix sum (``rho_sums``).
    """
    if n < 0 or m < 0 or ell < 0:
        raise ValueError("indices must be >= 0")
    return rho_sums(m, (n,), (ell,), ws)[0][0]


def bounded_gf(r: int, s: int, k: int, cs: CoeffSystem) -> tuple[Poly, Poly, Poly]:
    """Closed rational form of sum_n mu^{<=k}_{n,r,s} x^n as (num, den, prefactor).

    The full generating function is prefactor * num / den with
    den = P*_{k+1}; for r <= s the prefactor is x^{s-r}, for r > s it is
    prod_{i=s+1..r} (a_i + lam_i x).
    """
    if not (0 <= r <= k and 0 <= s <= k):
        raise ValueError("need 0 <= r, s <= k")
    den = Pstar(k + 1, cs)
    assert den[0] == 1, "P*_{k+1}(0) must be 1 by construction"
    if r <= s:
        num = Pstar(r, cs) * Pstar(k - s, cs.shifted(s + 1))
        prefactor = Poly.x(s - r) if s > r else Poly.const(1)
    else:
        num = Pstar(s, cs) * Pstar(k - r, cs.shifted(r + 1))
        prefactor = Poly.const(1)
        for i in range(s + 1, r + 1):
            prefactor = prefactor * Poly.linear(cs.lam(i), cs.a(i))
    return num, den, prefactor


def finite_cf_rational(k: int, cs: CoeffSystem) -> tuple[Poly, Poly]:
    """The depth-k continued fraction
    1/(1 - b_0 x - (a_1 x + lam_1 x^2)/(... - (a_k x + lam_k x^2)/(1 - b_k x)))
    evaluated bottom-up as an exact rational function (num, den)."""
    num, den = Poly.const(1), Poly.linear(-cs.b(k), 1)
    for j in range(k - 1, -1, -1):
        quad = Poly([0, cs.a(j + 1), cs.lam(j + 1)])
        head = Poly.linear(-cs.b(j), 1)
        num, den = den, head * den - quad * num
    return num, den
