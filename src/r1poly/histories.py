"""Labeled-path bijections onto permutations and partition-cycle pairs.

Two history families live here, both labeled restricted lattice paths:

  * Laguerre histories: peak-free Schroeder paths (steps U, H, V, no (U,V)
    peak) with every V starting at height h labeled in {1..h}.  The map
    ``phi`` sends a history to a permutation, one cycle per horizontal
    step, transporting the horizontal-step count to the cycle count.

  * Meixner histories: peak-free Schroeder paths with V labels as above and
    horizontal steps optionally labeled (an H followed by a V carries no
    label or the label 0; any other H carries no label or a label in
    {1..h}).  The map ``psi`` sends a history to a pair (set partition,
    permutation of its blocks written in cycles), preserving the weight
    b^{#cycles} d^{#blocks}.  The labels 0 and "no label" are distinct
    states with distinct weights (b versus bd).

Both maps come with explicit inverses and exhaustive enumeration for the
small sizes the bijections are checked at.  Histories share long prefixes,
so the bijection checks build no history: one depth-first walk over shapes
and labels together (``_phi_walk``, ``_psi_walk``) applies each step of the
map once per distinct prefix and undoes it on the way back.  Each map's
inverse is a fold of one per-cycle step (``_phi_inv_cycle``,
``_psi_inv_cycle``), and a cycle is final once it closes, so the walk runs
that step once per closed cycle, on the inverse's own state, and compares
its answer with the segment walked since the last close.  ``phi`` and
``psi`` are the same walk along one history's own steps and labels, with
the recursion limit raised by the history's length for the call.  On a
2-core x86-64 host (Python 3.11.7) ``histories meixner --n 8 --check``
takes about 3.3 s and ``histories laguerre --n 9 --check`` about 1.5 s.

The history sums are not enumerated: a history weighs the product of its
steps' weights, and a step with several labels weighs the sum over them, so
one column DP over peak-free paths (``_peak_free_sum``) gives each sum as a
package polynomial: a ``Poly`` in t for the Laguerre histories, a
``SymPoly`` in b and d for the Meixner ones.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactmath import (Poly, Scalar, ScalarLike, SymPoly, as_scalar, pochhammer,
                        stirling1, stirling2)
from . import paths as pathmod
from .core import CoeffSystem


# Largest length each enumeration accepts; the history count grows
# factorially (9! Laguerre, 545835 Meixner histories at the caps).
CAPS = {"laguerre": 9, "meixner": 8}
# The point `histories --check` and the verify suite check each history sum at.
CHECK_POINTS = {"laguerre": (Fraction(3, 5),), "meixner": (Fraction(2, 3), Fraction(1, 4))}
# The variables of the history sums: t counts the Laguerre histories'
# horizontal steps, b and d (the symbols b0 and a0) weigh the Meixner
# histories as b^i d^j.
_T = Poly.x()
_B, _D = SymPoly.b(0), SymPoly.a(0)


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"history length must be >= 0, got {n}")


def _check_cap(kind: str, n: int) -> None:
    """ValueError below 0 or past the ``kind`` enumeration cap."""
    _check_length(n)
    if n > CAPS[kind]:
        raise ValueError(f"{kind.capitalize()} history enumeration is capped at n = {CAPS[kind]}")


def _walk(steps: str) -> Iterator[tuple[int, str, int]]:
    """(index, step, height before it) along a peak-free Schroeder path
    (U, H, V) from (0,0) to (n,0); ValueError at the first step that leaves
    that shape, or at the end if the path does not return to the axis."""
    y = 0
    prev = ""
    for idx, s in enumerate(steps):
        if s == "V":
            if prev == "U":
                raise ValueError("history contains a (U,V) peak")
            if y == 0:
                raise ValueError("history dips below the x-axis")
        elif s != "U" and s != "H":
            raise ValueError(f"history step {s!r} not in U/H/V")
        yield idx, s, y
        y += (s == "U") - (s == "V")
        prev = s
    if y:
        n = sum(1 for s in steps if s != "V")
        raise ValueError(f"history does not end at ({n},0)")


def _label_options(steps: str, kind: str) -> list[Sequence]:
    """The labels each step of a history shape may carry: a V at height h
    takes 1..h, a ``range``, so the options of a shape stay linear in its
    length.  A Laguerre history labels its V steps only; a Meixner one
    labels every step, where a U takes none, an H before a V none or 0, and
    any other H none or 1..h.  ValueError where ``_walk`` rejects the shape."""
    options = []
    for idx, s, h in _walk(steps):
        if s == "V":
            options.append(range(1, h + 1))
        elif kind == "meixner":
            if s == "U":
                options.append((None,))
            elif steps[idx + 1:idx + 2] == "V":
                options.append((None, 0))
            else:
                options.append((None, *range(1, h + 1)))
    return options


def _peak_free_shapes(n: int) -> Iterator[str]:
    """All peak-free Schroeder shapes (0,0) -> (n,0), steps tried U < H < V."""

    def rec(x: int, y: int, prev: str, acc: list[str]):
        if x == n and y == 0:
            yield "".join(acc)
        if x < n:
            for s in "UH":
                acc.append(s)
                yield from rec(x + 1, y + (s == "U"), s, acc)
                acc.pop()
        if y >= 1 and prev != "U":
            acc.append("V")
            yield from rec(x, y - 1, "V", acc)
            acc.pop()

    yield from rec(0, 0, "", [])


def _histories(kind: str, n: int) -> Iterator:
    """The ``kind`` histories of length n, shape-then-label order, built
    valid and so made without ``__post_init__``; ValueError below 0 or past
    the cap."""
    _check_cap(kind, n)
    cls = LaguerreHistory if kind == "laguerre" else MeixnerHistory
    for shape in _peak_free_shapes(n):
        for labels in itertools.product(*_label_options(shape, kind)):
            history = object.__new__(cls)
            object.__setattr__(history, "steps", shape)
            object.__setattr__(history, "labels", labels)
            yield history


def images(kind: str, n: int) -> Iterator[tuple]:
    """(history, cycles) for each ``kind`` history of length n, streamed in
    enumeration order: the permutation ``phi`` makes of a Laguerre history,
    or the cycles of the pair ``psi`` makes of a Meixner one."""
    laguerre = kind == "laguerre"
    for h in _histories(kind, n):
        yield h, (phi(h) if laguerre else psi(h).cycles)


# What a step lets follow it: anything but a V, anything but a V after it
# closed a cycle (the history walks only), anything, only a V.
_NO_V, _CLOSED, _FREE, _MUST_V = range(4)
# Non-vertical step kinds: height change and what may follow.  H is a plain
# horizontal step; H+ and H- are horizontal steps that are and are not
# followed by a V, for weights that tell the two apart.
_ADVANCE = {"U": (1, _NO_V), "H": (0, _FREE), "H+": (0, _MUST_V),
            "H-": (0, _NO_V), "D": (-1, _FREE)}


def _accumulate(table: dict, key, term) -> None:
    table[key] = table[key] + term if key in table else term


def _peak_free_sum(n: int, steps: dict, *point):
    """Sum over peak-free paths (0,0) -> (n,0) of the product of their step
    weights, in the ring of the weights: only + and * are used, so the sum
    is a Poly, a SymPoly or a Fraction as the weights are.

    ``steps`` maps the step kinds the paths use (U, V and some of H, H+, H-,
    D; U = (1,1), V = (0,-1), D = (1,-1), the H kinds (1,0)) to their weight
    ``weight(h, *point)`` at starting height h; U weighs the ring's one.  No
    V follows a U (no peak) or an H-, and a V always follows an H+.  One
    column DP over states (height, what may follow): V steps stay in their
    column and are taken top down, so runs of them chain.
    """
    _check_length(n)
    moves = [(_ADVANCE[kind], weight) for kind, weight in steps.items() if kind != "V"]
    col: dict = {(0, _FREE): steps["U"](0, *point)}
    for x in range(n + 1):
        for h in range(x, 0, -1):
            weight = steps["V"](h, *point)
            for poly in (col.pop((h, _MUST_V), None), col.get((h, _FREE))):
                if poly is not None:
                    _accumulate(col, (h - 1, _FREE), poly * weight)
        col.pop((0, _MUST_V), None)  # an H+ on the axis has no V to take
        if x == n:
            break
        nxt: dict = {}
        for (h, _), poly in col.items():
            for (rise, after), weight in moves:
                if h + rise >= 0:
                    _accumulate(nxt, (h + rise, after), poly * weight(h, *point))
        col = nxt
    return col.get((0, _FREE), 0) + col.get((0, _NO_V), 0)


# -- Laguerre histories ---------------------------------------------------


@dataclass(frozen=True)
class LaguerreHistory:
    """Peak-free Schroeder path with V labels, read off against permutations."""

    steps: str
    labels: tuple[int, ...]  # one label per V step, in step order

    def __post_init__(self):
        if self.steps.count("V") != len(self.labels):
            raise ValueError("label count does not match V-step count")
        for lab, allowed in zip(self.labels, _label_options(self.steps, "laguerre")):
            if lab not in allowed:
                raise ValueError(f"V label {lab} outside 1..{len(allowed)}")

    def horizontal_count(self) -> int:
        return self.steps.count("H")

    def labeled_pairs(self) -> list[list[int]]:
        """Wire form: [[stepIndex, label], ...] for the V steps."""
        vs = (i for i, s in enumerate(self.steps) if s == "V")
        return [[i, lab] for i, lab in zip(vs, self.labels)]


def enumerate_LH(n: int) -> list[LaguerreHistory]:
    """All Laguerre histories of length n, shape-then-label order."""
    return list(_histories("laguerre", n))


Cycles = tuple[tuple[int, ...], ...]


def _canonical_cycles(cycles, key=None) -> tuple:
    """Each cycle rotated to start at its maximum entry, cycles listed by
    that maximum; ``key`` ranks the entries (``max`` for blocks)."""
    rotated = []
    for cyc in cycles:
        top = cyc.index(max(cyc, key=key))
        rotated.append(cyc[top:] + cyc[:top])
    return tuple(sorted(rotated, key=lambda c: key(c[0]) if key else c[0]))


def _follow(walk, n: int, follow: list, *args):
    """``walk(n, follow, *args)`` along one history.  The walk recurses once
    per step, so the recursion limit is raised by the history's length for
    the call: the walk's calls stay in Python frames, which use heap memory,
    not the C stack, so a history of any length maps."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(follow))
    try:
        return walk(n, follow, *args)
    finally:
        sys.setrecursionlimit(limit)


def _phi_walk(n: int, follow: list | None = None) -> tuple[int, bool, Cycles | None]:
    """Walk the Laguerre histories of length n depth first, shape and labels
    together, carrying phi's state with undo: each step of phi runs once per
    distinct prefix.  ``follow`` (one history's (step, label) pairs, then
    ("", None)) restricts the walk to that history.

    Returns (count, ok, image).  ``count`` is the number of histories walked.
    ``ok`` says that each was checked and kept: at each cycle's close the
    inverse's step ``_phi_inv_cycle``, on the inverse's own state, gives back
    the segment walked since the last close, and at each leaf the horizontal
    steps number the cycles.  After a failure the walk goes on counting.
    ``image`` is the permutation of a followed history, which is not checked.

    phi: the H crossing to x = i starts a cycle at i; each following V with
    label v appends the v-th smallest integer in [i] not used anywhere yet.
    """
    free: list[int] = []  # the unused integers in [x], increasing
    cycles: list[list[int]] = []  # the last takes the V steps after its H
    path: list[str] = []
    labs: list[int] = []  # the labels of the V steps in ``path``
    count = 0
    ok = follow is None
    image = None

    def node(x, y, after, inv):
        # inv: the inverse's x and free integers after the last closed cycle,
        # and where in ``path`` and ``labs`` the segment since then starts
        nonlocal count, ok, image
        want = label = None  # the step and label a followed history takes here
        if follow:
            want, label = follow[len(path)]
        if after == _FREE and y and (want is None or want == "V"):
            cycle = cycles[-1]
            path.append("V")
            labs.append(0)
            for v in range(1, y + 1) if want is None else (label,):
                cycle.append(free.pop(v - 1))
                labs[-1] = v
                node(x, y - 1, _FREE, inv)
                free.insert(v - 1, cycle.pop())
            path.pop()
            labs.pop()
        if after == _FREE and ok and (x < n or not y):  # the cycle has closed
            ix, ifree, smark, lmark = inv
            ifree = ifree[:]
            steps: list[str] = []
            labels: list[int] = []
            ix = _phi_inv_cycle(cycles[-1], ix, n, ifree, steps, labels)
            ok = ix is not None and steps == path[smark:] and labels == labs[lmark:]
            inv = ix, ifree, len(path), len(labs)
        if x == n:
            if not y:
                count += 1
                ok = ok and path.count("H") == len(cycles)
                if follow:
                    image = tuple(map(tuple, cycles))
            return
        x1 = x + 1
        if x1 < n and (want is None or want == "U"):
            free.append(x1)
            path.append("U")
            node(x1, y + 1, _NO_V, inv)
            free.pop()
            path.pop()
        if want is None or want == "H":
            cycles.append([x1])
            path.append("H")
            node(x1, y, _FREE, inv)
            cycles.pop()
            path.pop()

    node(0, 0, _NO_V, (0, [], 0, 0))
    return count, ok, image


def phi(history: LaguerreHistory) -> Cycles:
    """History -> permutation: one cycle per horizontal step, by ``_phi_walk``
    along the history (``_follow``)."""
    steps = history.steps
    labels = iter(history.labels)
    follow = [(s, next(labels) if s == "V" else None) for s in steps] + [("", None)]
    image = _follow(_phi_walk, len(steps) - steps.count("V"), follow)[2]
    if image is None:
        raise ValueError(f"{history!r} is not a Laguerre history")
    return image


def _phi_inv_cycle(cyc, x: int, n: int, free: list[int], steps: list[str],
                   labels: list[int]) -> int | None:
    """One cycle of phi's inverse: append to ``steps`` and ``labels`` the
    segment of the history that ends with ``cyc``, given that the cycles
    before it end at maximum x, and return cyc's maximum, its first entry.
    ``free`` holds the integers below x not yet placed, increasing.  None
    unless that maximum lies in x+1..n and every other entry is free."""
    top = cyc[0]
    if not x < top <= n:  # so ``free`` never outgrows the input
        return None
    free.extend(range(x + 1, top))
    steps.extend("U" * (top - x - 1))
    steps.append("H")
    for e in cyc[1:]:
        if e not in free:  # above top, a maximum, or placed already
            return None
        rank = free.index(e)
        del free[rank]
        steps.append("V")
        labels.append(rank + 1)
    return top


def _phi_inv(cycles: Cycles) -> tuple[str, tuple[int, ...]] | None:
    """(steps, labels) of the history phi sends to ``cycles``, one
    ``_phi_inv_cycle`` per cycle: cycle maxima become horizontal steps.  None
    unless ``cycles`` is a permutation of 1..n in canonical form (each cycle
    starts at its maximum, cycles listed by maximum), tested in the same
    pass.  The result is not validated: equal to a valid history's (steps,
    labels), it is that history.
    """
    n = sum(map(len, cycles))
    free: list[int] = []
    steps: list[str] = []
    labels: list[int] = []
    x = 0
    for cyc in cycles:
        x = _phi_inv_cycle(cyc, x, n, free, steps, labels)
        if x is None:
            return None
    return None if free else ("".join(steps), tuple(labels))


def phi_inv(cycles: Cycles) -> LaguerreHistory:
    """Inverse of phi, for cycles in any rotation and order."""
    found = _phi_inv(_canonical_cycles(cycles))
    if found is None:
        raise ValueError("cycles do not form a permutation of 1..n")
    return LaguerreHistory(*found)


def laguerre_bijection_check(n: int) -> tuple[int, bool]:
    """(count, ok) over all Laguerre histories of length n: the inverse
    undoes phi, horizontal steps become cycles, and phi is a bijection onto
    the n! permutations of [n], by one ``_phi_walk``.

    The inverse gives back each history, segment by segment, from its
    image, so phi is injective; n! histories then have n! distinct images,
    all of them.
    """
    _check_cap("laguerre", n)
    count, ok, _ = _phi_walk(n)
    return count, ok and count == math.factorial(n)


# Step weights at starting height h for ``_peak_free_sum``, as functions of
# (h, t): t per H, and every V counted once per label it may carry (1..h).
_LAGUERRE_STEPS = {
    "U": lambda h, t: t**0,
    "H": lambda h, t: t,
    "V": lambda h, t: h,
}


def lh_moment_check(n: int, a: ScalarLike) -> bool:
    """Two statements at once: the labeled-history sum equals the rising
    factorial, and collapsing (U,V) peaks into horizontal steps preserves
    the Schroeder weight sum (b_k = a-k, a_k = k versus b = a+1, a_k = k).

    The first holds as a polynomial in a: the peak-free path sum with t per
    H and h per V at height h counts the histories by horizontal steps, and
    these must be c(n, k), the coefficients of (x)_n = sum_k c(n, k) x^k.
    At t = a + 1 the same sum is the collapsed one.
    """
    a = as_scalar(a)
    counts = _peak_free_sum(n, _LAGUERRE_STEPS, _T)
    if counts != Poly([stirling1(n, k) for k in range(n + 1)]):
        return False
    collapsed = counts(a + 1)
    if collapsed != pochhammer(a + 1, n):
        return False
    cs = CoeffSystem(lambda k: a - k, lambda k: Fraction(k), lambda k: Fraction(0))
    return pathmod.weight_sum((0, 0), (n, 0), pathmod.WeightSystem(cs)) == collapsed


# -- Meixner histories ----------------------------------------------------


@dataclass(frozen=True)
class MeixnerHistory:
    """Peak-free Schroeder path with V labels and optional H labels.

    ``labels`` is aligned with ``steps``: None on U steps and unlabeled
    H steps; V steps always carry their label.
    """

    steps: str
    labels: tuple[int | None, ...]

    def __post_init__(self):
        steps, labels = self.steps, self.labels
        if len(labels) != len(steps):
            raise ValueError("labels must align with steps")
        for s, lab, allowed in zip(steps, labels, _label_options(steps, "meixner")):
            if lab in allowed:
                continue
            if s == "U":
                raise ValueError("U steps are never labeled")
            if allowed == (None, 0):
                raise ValueError("an H before a V is labeled 0 or not at all")
            raise ValueError(f"{s} label {lab} outside 1..{allowed[-1] or 0}")

    def exponents(self) -> tuple[int, int]:
        """(i, j) with weight b^i d^j: U: 1, V: d, unlabeled H: b*d,
        H labeled 0: b, H labeled >= 1: 1."""
        return _exponents(self.steps, self.labels)

    def weight(self, b: Scalar, d: Scalar) -> Scalar:
        i, j = self.exponents()
        return b**i * d**j

    def labeled_pairs(self) -> list[list[int]]:
        """Wire form: [[stepIndex, label], ...] for the labeled steps."""
        return [[i, lab] for i, lab in enumerate(self.labels) if lab is not None]


def _exponents(steps, labels) -> tuple[int, int]:
    """``MeixnerHistory.exponents`` of aligned steps and labels."""
    v = steps.count("V")
    # U steps carry None, V steps a label >= 1, so only an H carries a 0
    labeled_h = len(labels) - labels.count(None) - v
    unlabeled_h = steps.count("H") - labeled_h
    return unlabeled_h + labels.count(0), v + unlabeled_h


def enumerate_MH(n: int) -> list[MeixnerHistory]:
    """All Meixner histories of length n, shape-then-label order."""
    return list(_histories("meixner", n))


Block = tuple[int, ...]
Cycle = tuple[Block, ...]


@dataclass(frozen=True)
class PartitionCycles:
    """A set partition of [n] with its blocks permuted, written in cycles.

    Cycles are stored in creation order with the creating block first; use
    ``canonical`` to compare representatives regardless of presentation.
    """

    cycles: tuple[Cycle, ...]

    def exponents(self) -> tuple[int, int]:
        """(#cycles, #blocks): the weight is b^#cycles d^#blocks."""
        return len(self.cycles), sum(map(len, self.cycles))

    def weight(self, b: Scalar, d: Scalar) -> Scalar:
        i, j = self.exponents()
        return b**i * d**j

    def canonical(self) -> tuple:
        """The cycles, each rotated to start at the block holding its
        maximum, listed by that maximum."""
        return _canonical_cycles(self.cycles, max)


def _psi_walk(n: int, follow: list | None = None,
              trace: list | None = None) -> tuple[int, bool, tuple | None]:
    """Walk the Meixner histories of length n depth first, shape and labels
    together, carrying psi's state with undo: each step of psi runs once per
    distinct prefix.  ``follow`` (one history's (step, label) pairs, an H
    before a V written "H+", then ("", None)) restricts the walk to that
    history.

    Returns (count, ok, image).  ``count`` is the number of histories walked.
    ``ok`` says that each was checked and kept: at each cycle's close the
    inverse's step ``_psi_inv_cycle``, on the inverse's own state, gives back
    the segment walked since the last close, and at each leaf the history's
    ``exponents`` are the image's (#cycles, #blocks).  After a failure the
    walk goes on counting.  ``image`` is the cycles of a followed history,
    which is not checked.  When ``trace`` is given (with ``follow``), one
    snapshot of the open blocks is appended per non-vertical step: the pool
    the step chooses from for cycle-closing steps, the pool after acting
    for the others.

    psi: up steps open singleton blocks; horizontal steps either extend a
    block (labeled >= 1), close a singleton cycle (unlabeled, no V run), or
    close a longer cycle from the open blocks picked by the V labels
    (unlabeled starts the cycle with a fresh block; label 0 seats the new
    element in the first block picked).

    The inverse needs the block of each element below its cycle's maximum
    before that block closes, so it reads ``block_of``, psi's running map.
    A block grows only by the current x, so the map is the image's own,
    restricted to 1..x; the inverse's step checks each block it closes
    against the elements it has seated there.
    """
    # Blocks not yet taken by a cycle, by smallest element.  A block opens at
    # the current x and grows only by the current x, which exceeds all its
    # elements, so the pool and each block stay sorted without re-sorting.
    avail: list[list[int]] = []
    cycles: list = []  # of cycles, each a sequence of blocks
    # the smallest element of the block of each element a U or a labeled H
    # placed, below its cycle's maximum: the map the inverse reads
    block_of = [0] * (n + 1)
    path: list[str] = []
    labs: list[int | None] = []
    count = 0
    ok = follow is None
    image = None

    def node(x, y, after, inv):
        # inv: the inverse's x, open blocks and their elements after the last
        # closed cycle, and where in ``path`` the segment since then starts
        nonlocal count, ok, image
        want = label = None  # the step and label a followed history takes here
        if follow:
            want, label = follow[len(path)]
            if trace is not None and path and path[-1] != "V":
                trace.append(tuple(map(tuple, avail)))
        if after >= _FREE and y and (want is None or want == "V"):
            cycle = cycles[-1]
            fresh = not cycle  # after an H labeled 0, x joins the first block
            path.append("V")
            labs.append(0)
            for v in range(1, y + 1) if want is None else (label,):
                blk = avail.pop(v - 1)
                if fresh:
                    blk.append(x)
                cycle.append(blk)
                labs[-1] = v
                node(x, y - 1, _FREE, inv)
                cycle.pop()
                if fresh:
                    blk.pop()
                avail.insert(v - 1, blk)
            path.pop()
            labs.pop()
        if after == _MUST_V:
            return
        if after != _NO_V and ok and (x < n or not y):  # the cycle has closed
            ix, iavail, seen, mark = inv
            iavail, seen = iavail[:], seen[:]
            steps: list[str] = []
            labels: list[int | None] = []
            ix = _psi_inv_cycle(cycles[-1], ix, n, block_of, iavail, seen, steps, labels)
            ok = ix is not None and steps == path[mark:] and labels == labs[mark:]
            inv = ix, iavail, seen, len(path)
        if x == n:
            if not y:
                count += 1
                ok = ok and _exponents(path, labs) == (len(cycles), sum(map(len, cycles)))
                if follow:
                    image = tuple(tuple(map(tuple, cyc)) for cyc in cycles)
            return
        x1 = x + 1
        path.append("U")
        labs.append(None)
        if x1 < n and (want is None or want == "U"):
            avail.append([x1])
            block_of[x1] = x1
            node(x1, y + 1, _NO_V, inv)
            avail.pop()
        path[-1] = "H"
        if (x1 < n or not y) and (want is None or want == "H" and label is None):
            cycles.append(((x1,),))
            node(x1, y, _CLOSED, inv)
            cycles.pop()
        if y:
            if x1 < n and (want is None or want == "H" and label):
                for v in range(1, y + 1) if want is None else (label,):
                    blk = avail[v - 1]
                    blk.append(x1)
                    block_of[x1] = blk[0]
                    labs[-1] = v
                    node(x1, y, _NO_V, inv)
                    blk.pop()
                labs[-1] = None
            # an H before a V opens a cycle; the V run closes it
            if want is None or want == "H+" and label is None:
                cycles.append([(x1,)])
                node(x1, y, _MUST_V, inv)
                cycles.pop()
            if want is None or want == "H+" and label == 0:
                labs[-1] = 0
                cycles.append([])
                node(x1, y, _MUST_V, inv)
                cycles.pop()
        path.pop()
        labs.pop()

    node(0, 0, _NO_V, (0, [], [None] * (n + 1), 0))
    return count, ok, image


def psi(history: MeixnerHistory, trace: list | None = None) -> PartitionCycles:
    """History -> (partition, cycles of blocks), weight preserving, by
    ``_psi_walk`` along the history (``_follow``); ``trace`` as there."""
    steps = history.steps
    follow = [("H+" if s == "H" and steps[i + 1:i + 2] == "V" else s, lab)
              for i, (s, lab) in enumerate(zip(steps, history.labels))] + [("", None)]
    image = _follow(_psi_walk, len(steps) - steps.count("V"), follow, trace)[2]
    if image is None:
        raise ValueError(f"{history!r} is not a Meixner history")
    return PartitionCycles(image)


def _psi_inv_cycle(cyc, x: int, n: int, block_of: list[int], avail: list[int],
                   seen: list, steps: list[str], labels: list) -> int | None:
    """One cycle of psi's inverse: append to ``steps`` and ``labels`` the
    segment of the history that ends with ``cyc``, given that the cycles
    before it end at maximum x, and return cyc's maximum top.

    Each i in x+1..top-1 is a U when it is the smallest element of its block
    (by ``block_of``), which then opens, else an H labeled by the rank of its
    open block in ``avail`` (by smallest element); ``seen`` holds the
    elements seated so far in each open block.  top is an unlabeled H when
    it is alone in cyc's first block, else an H labeled 0 that joins it.
    Each block the cycle takes is a V labeled by its rank, and must be open
    and hold exactly the elements seated there, increasing.  None otherwise.
    """
    first = cyc[0]
    top = max(first)
    if not x < top <= n:
        return None
    for i in range(x + 1, top):
        k = block_of[i]
        if k == i:
            avail.append(i)
            seen[i] = (i,)
            steps.append("U")
            labels.append(None)
        elif seen[k]:
            seen[k] += (i,)
            steps.append("H")
            labels.append(avail.index(k) + 1)
        else:  # i's block has closed, or did not open at its smallest element
            return None
    steps.append("H")
    if len(first) == 1:
        labels.append(None)
        cyc = cyc[1:]
    elif seen[first[0]]:
        seen[first[0]] += (top,)
        labels.append(0)
    else:
        return None
    for blk in cyc:
        k = blk[0]
        if seen[k] != tuple(blk):
            return None
        seen[k] = None
        rank = avail.index(k)
        del avail[rank]
        steps.append("V")
        labels.append(rank + 1)
    return top


def _psi_inv(cycles: tuple[Cycle, ...]) -> tuple[str, tuple[int | None, ...]] | None:
    """(steps, labels) of the history psi sends to ``cycles``, one
    ``_psi_inv_cycle`` per cycle.  None unless ``cycles`` partitions 1..n in
    canonical form (blocks increasing, each cycle starts with the block
    holding its maximum, cycles listed by maximum), tested in the same pass.
    The result is not validated: equal to a valid history's (steps, labels),
    it is that history.
    """
    blocks = [blk for cyc in cycles for blk in cyc]
    n = sum(map(len, blocks))
    block_of = [0] * (n + 1)
    for blk in blocks:
        if not blk:
            return None
        low = min(blk)
        for e in blk:
            if not 0 < e <= n or block_of[e]:
                return None
            block_of[e] = low
    avail: list[int] = []
    seen: list = [None] * (n + 1)
    steps: list[str] = []
    labels: list[int | None] = []
    x = 0
    for cyc in cycles:
        x = _psi_inv_cycle(cyc, x, n, block_of, avail, seen, steps, labels)
        if x is None:
            return None
    return None if x < n else ("".join(steps), tuple(labels))


def psi_inv(pc: PartitionCycles) -> MeixnerHistory:
    """Inverse of psi, for cycles and blocks in any rotation and order."""
    found = _psi_inv(tuple(tuple(tuple(sorted(blk)) for blk in cyc) for cyc in pc.canonical()))
    if found is None:
        raise ValueError("blocks do not partition 1..n")
    return MeixnerHistory(*found)


def meixner_bijection_check(n: int) -> tuple[int, bool]:
    """(count, ok) over all Meixner histories of length n: the inverse
    undoes psi, psi keeps the weight, and psi is a bijection onto the
    Fubini(n) = sum_j j! S(n, j) partition-cycle pairs of [n], by one
    ``_psi_walk``.

    Weights are compared as their exponent pairs (i, j) of b^i d^j, here
    (#cycles, #blocks) of the image, so they agree at every (b, d).  The
    inverse gives back each history, segment by segment, from its image, so
    psi is injective; Fubini(n) histories then have that many distinct
    images, all of them.
    """
    _check_cap("meixner", n)
    count, ok, _ = _psi_walk(n)
    return count, ok and count == sum(math.factorial(j) * stirling2(n, j) for j in range(n + 1))


# Step weights at starting height h for ``_peak_free_sum``, as functions of
# (h, b, d).  Histories: V d per label (1..h); an H before a V b*d unlabeled
# or b labeled 0 (H+), any other H b*d unlabeled or 1 per label in 1..h (H-).
_MEIXNER_STEPS = {
    "U": lambda h, b, d: d**0,
    "H-": lambda h, b, d: b * d + h,
    "H+": lambda h, b, d: b * d + b,
    "V": lambda h, b, d: h * d,
}
# Peak-free Schroeder paths with diagonal steps: b'_h = h + bd, a_h = hd,
# lam_h = bdh - dh^2.
_DIAGONAL_STEPS = {
    "U": lambda h, b, d: d**0,
    "H": lambda h, b, d: h + b * d,
    "V": lambda h, b, d: h * d,
    "D": lambda h, b, d: h * b * d - h * h * d,
}


def mh_moment_check(n: int, b: ScalarLike, d: ScalarLike) -> bool:
    """The full weight-preserving chain down to the Stirling closed form.

    Three sums agree: all paths under the raw weights (b_k = k - dk + bd - d,
    a_k = kd, lam_k = bdk - dk^2); peak-free paths under b'_k = k + bd,
    diagonal steps still allowed; and diagonal-free peak-free paths under the
    split horizontal weights, which is the labeled-history sum (each step
    weighs the sum over its labels).  All equal sum_j S(n,j) (b)_j d^j.  The
    last two are one column DP each (``_peak_free_sum``): the diagonal one
    at the point, the history one as a SymPoly in b and d, which must equal
    sum_{j,k} S(n, j) c(j, k) b^k d^j as a polynomial: the histories with
    weight b^k d^j number S(n, j) c(j, k).
    """
    b, d = as_scalar(b), as_scalar(d)
    counts = _peak_free_sum(n, _MEIXNER_STEPS, _B, _D)
    want = SymPoly.sum([stirling2(n, j) * stirling1(j, k) * _B**k * _D**j
                        for j in range(n + 1) for k in range(j + 1)])
    if counts != want:
        return False
    target = sum(stirling2(n, j) * pochhammer(b, j) * d**j for j in range(n + 1))
    cs = CoeffSystem(
        lambda k: k - d * k + b * d - d,
        lambda k: k * d,
        lambda k: b * d * k - d * k * k,
    )
    s1 = pathmod.weight_sum((0, 0), (n, 0), pathmod.WeightSystem(cs))
    s2 = _peak_free_sum(n, _DIAGONAL_STEPS, b, d)
    at_point = counts.evaluate(lambda kind, _: b if kind == "b" else d)
    return s1 == s2 == at_point == target


def _cycle_non_excedance_counts(n: int) -> Counter:
    """How many permutations of [n] have k cycles and j non-excedances, as
    counts[k, j], by an insertion walk that builds each permutation once.

    Inserting i into a permutation of [i-1] either makes i a fixed point
    (one more cycle, and i <= i is a non-excedance) or puts i right after
    some j < i in j's cycle: pi(j) becomes i and pi(i) takes pi(j)'s old
    value k.  Then j turns into an excedance and i, with k < i, is a
    non-excedance, so the count moves by [k > j].
    """
    counts: Counter = Counter()
    pi = [0] * (n + 1)

    def insert(i: int, cycles: int, weak: int) -> None:
        if i > n:
            counts[cycles, weak] += 1
            return
        pi[i] = i
        insert(i + 1, cycles + 1, weak + 1)
        for j in range(1, i):
            k = pi[j]
            pi[j], pi[i] = i, k
            insert(i + 1, cycles, weak + (k > j))
            pi[j] = k

    insert(1, 0, 0)
    return counts


def non_excedance_check(n: int, b: ScalarLike, c: ScalarLike) -> bool:
    """sum over permutations of b^cycles c^non-excedances equals the
    Stirling sum sum_j S(n,j) (b)_j c^j (1-c)^{n-j}; the left side sums the
    counts of ``_cycle_non_excedance_counts``, which visits every
    permutation of [n].

    A non-excedance is a position with pi(i) <= i (the complement of an
    excedance); the weak inequality is forced by the n = 1 case, where the
    identity reads b*c = b*c.
    """
    _check_length(n)
    b, c = as_scalar(b), as_scalar(c)
    counts = _cycle_non_excedance_counts(n)
    lhs = sum((m * b**k * c**j for (k, j), m in counts.items()), Fraction(0))
    rhs = sum(
        stirling2(n, j) * pochhammer(b, j) * c**j * (1 - c) ** (n - j)
        for j in range(1, n + 1)
    )
    return lhs == rhs
