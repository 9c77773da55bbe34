"""Motzkin-Schroeder paths: enumeration, weighted sums, bounded-height GFs.

A path lives on or above the x-axis and uses four steps:

    U = (1, 1)    weight 1
    H = (1, 0)    weight b_k   (k = starting height)
    V = (0, -1)   weight a_k   (k = starting height)
    D = (1, -1)   weight lam_k (k = starting height)

V consumes no x-advance, so columns can hold several V steps; paths between
fixed endpoints are still finitely many because every V must eventually be
paid for by a U and heights stay nonnegative.

``weight_sum`` is a column dynamic program (no explicit enumeration) that
matches the recurrence the mu-grid satisfies: within a column the V
contribution flows downward, so heights are processed top to bottom.
``enumerate_paths`` is the brute-force oracle, ordered by step kind
U < H < V < D at every position.  Weights come from the ring of the
coefficient system behind a ``WeightSystem``: rationals, or the indexed
symbols themselves for ``symbolic_weights()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _SYMBOLIC, CoeffSystem, Pstar, shift
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

    def max_height(self) -> int:
        y = top = self.start[1]
        for s in self.steps:
            y += DISPLACEMENT[s][1]
            top = max(top, y)
        return top

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


def weight_sum(
    start: Point,
    end: Point,
    ws: WeightSystem,
    max_height: int | None = None,
):
    """Sum of path weights from start to end, by dynamic programming.

    Column x holds the weights of partial paths ending at each height; a new
    column is fed by U/H/D from the previous one, then V contributions
    cascade downward within the column (V advances no x).
    """
    x0, y0 = start
    x1, y1 = end
    if y0 < 0 or y1 < 0:
        raise ValueError("endpoints must have height >= 0")
    zero, one = ws.zero, ws.one
    if x1 < x0:
        return zero
    if max_height is not None and (y0 > max_height or y1 > max_height):
        return zero

    def cap(x: int) -> int:
        top = y0 + (x - x0)
        if max_height is not None:
            top = min(top, max_height)
        return top

    # first column: start plus descending V runs
    col = {y0: one}
    for y in range(y0 - 1, -1, -1):
        col[y] = col[y + 1] * ws.step_weight("V", y + 1)
    for x in range(x0 + 1, x1 + 1):
        top = cap(x)
        nxt: dict[int, object] = {}
        for y in range(top, -1, -1):
            val = zero
            below = col.get(y - 1)
            if below is not None:
                val = val + below  # U has weight 1
            same = col.get(y)
            if same is not None:
                val = val + same * ws.step_weight("H", y)
            above = col.get(y + 1)
            if above is not None:
                val = val + above * ws.step_weight("D", y + 1)
            if y + 1 in nxt:
                val = val + nxt[y + 1] * ws.step_weight("V", y + 1)
            nxt[y] = val
        col = nxt
    return col.get(y1, zero)


def rho_sum(n: int, m: int, ell: int, ws: WeightSystem):
    """Weighted paths (0,m) -> (n+ell, 0) whose final ell steps are V or D.

    Such a suffix descends heights ell..1; a D at height h advances x while a
    V does not, so the suffix contributions are the coefficients of
    prod_{h=1..ell} (a_h + lam_h z), graded by the number of D steps.
    """
    if n < 0 or m < 0 or ell < 0:
        raise ValueError("indices must be >= 0")
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
        num = Pstar(r, cs) * Pstar(k - s, shift(cs, s + 1))
        prefactor = Poly.x(s - r) if s > r else Poly.const(1)
    else:
        num = Pstar(s, cs) * Pstar(k - r, shift(cs, r + 1))
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
