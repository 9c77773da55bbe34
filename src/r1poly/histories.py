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
small sizes the bijections are checked at.  The bijection checks stream the
histories once, through the map and a private inverse that answers only for
canonical images and builds no validated history.  The history sums are not
enumerated: a history weighs the product of its steps' weights, and a step
with several labels weighs the sum over them, so one column DP over
peak-free paths (``_peak_free_sum``) gives each sum as a package polynomial:
a ``Poly`` in t for the Laguerre histories, a ``SymPoly`` in b and d for the
Meixner ones.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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


def _label_options(steps: str, kind: str) -> list[tuple]:
    """The labels each step of a history shape may carry: a V at height h
    takes 1..h.  A Laguerre history labels its V steps only; a Meixner one
    labels every step, where a U takes none, an H before a V none or 0, and
    any other H none or 1..h.  ValueError where ``_walk`` rejects the shape."""
    options = []
    for idx, s, h in _walk(steps):
        if s == "V":
            options.append(tuple(range(1, h + 1)))
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
    _check_length(n)
    if n > CAPS[kind]:
        raise ValueError(f"{kind.capitalize()} history enumeration is capped at n = {CAPS[kind]}")
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


def _round_trip(kind: str, n: int, inverse, kept, total) -> tuple[int, bool]:
    """(count, ok) over the ``kind`` histories of length n: the private
    ``inverse`` of every image gives back h's steps and labels, the map keeps
    ``kept(h, cycles)``, and there are ``total(n)`` histories.

    The histories stream past once and no image is kept.  The inverse
    answers only for an image in canonical form, so two histories sent to
    the same permutation or pair have equal images, and so equal steps and
    labels: the map is injective, and ``total(n)`` distinct images are all of
    them.
    """
    count = 0
    ok = True
    for h, cycles in images(kind, n):
        count += 1
        ok = ok and inverse(cycles) == (h.steps, h.labels) and kept(h, cycles)
    return count, ok and count == total(n)


# What a step lets follow it: anything, anything but a V, only a V.
_FREE, _NO_V, _MUST_V = range(3)
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


def phi(history: LaguerreHistory) -> Cycles:
    """History -> permutation: one cycle per horizontal step.

    The H crossing to x = i starts a cycle at i; each following V with label
    v appends the v-th smallest integer in [i] not used anywhere yet.
    """
    labels = iter(history.labels)
    free: list[int] = []  # the unused integers in [x], increasing
    cycles: list[list[int]] = []
    x = 0
    for s in history.steps:
        if s == "U":
            x += 1
            free.append(x)
        elif s == "H":
            x += 1
            cycles.append([x])
        else:  # a V only follows an H or a V
            cycles[-1].append(free.pop(next(labels) - 1))
    return tuple(map(tuple, cycles))


def _phi_inv(cycles: Cycles) -> tuple[str, tuple[int, ...]] | None:
    """(steps, labels) of the history phi sends to ``cycles``: cycle maxima
    become horizontal steps.  None unless ``cycles`` is a permutation of
    1..n in canonical form (each cycle starts at its maximum, cycles listed
    by maximum), tested in the same pass.  The result is not validated:
    equal to a valid history's (steps, labels), it is that history.
    """
    n = sum(map(len, cycles))
    free: list[int] = []  # the integers below x not yet placed, increasing
    steps: list[str] = []
    labels: list[int] = []
    x = 0
    for cyc in cycles:
        top = cyc[0]
        if not x < top <= n:  # so ``free`` never outgrows the input
            return None
        free.extend(range(x + 1, top))
        steps.append("U" * (top - x - 1) + "H" + "V" * (len(cyc) - 1))
        x = top
        for e in cyc[1:]:
            if e not in free:  # above top, a maximum, or placed already
                return None
            rank = free.index(e)
            del free[rank]
            labels.append(rank + 1)
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
    the n! permutations of [n], by ``_round_trip`` through ``_phi_inv``."""
    return _round_trip("laguerre", n, _phi_inv,
                       lambda h, cycles: h.horizontal_count() == len(cycles),
                       math.factorial)


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
        steps, labels = self.steps, self.labels
        v = steps.count("V")
        # U steps carry None, V steps a label >= 1, so only an H carries a 0
        labeled_h = len(labels) - labels.count(None) - v
        unlabeled_h = steps.count("H") - labeled_h
        return unlabeled_h + labels.count(0), v + unlabeled_h

    def weight(self, b: Scalar, d: Scalar) -> Scalar:
        i, j = self.exponents()
        return b**i * d**j

    def labeled_pairs(self) -> list[list[int]]:
        """Wire form: [[stepIndex, label], ...] for the labeled steps."""
        return [[i, lab] for i, lab in enumerate(self.labels) if lab is not None]


def enumerate_MH(n: int) -> list[MeixnerHistory]:
    """All Meixner histories of length n, shape-then-label order."""
    return list(_histories("meixner", n))


Block = tuple[int, ...]
Cycle = tuple[Block, ...]
_UNSEEN, _OPEN, _CLOSED = range(3)  # block states in _psi_inv


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


def psi(history: MeixnerHistory, trace: list | None = None) -> PartitionCycles:
    """History -> (partition, cycles of blocks), weight preserving.

    Up steps open singleton blocks; horizontal steps either extend a block
    (labeled >= 1), close a singleton cycle (unlabeled, no V run), or close
    a longer cycle from the available blocks picked by the V labels
    (unlabeled starts the cycle with a fresh block; label 0 seats the new
    element in an existing block first).

    When ``trace`` is given, one snapshot of the available blocks is
    appended per non-vertical step: the pool the step chooses from for
    cycle-closing steps, the pool after acting for the others.
    """
    steps = history.steps
    # Blocks not yet consumed by a cycle, by smallest element.  A block opens
    # at the current x and grows only by the current x, which exceeds all its
    # elements, so the pool and each block stay sorted without re-sorting.
    avail: list[list[int]] = []
    cycles: list = []  # of cycles, each a sequence of block tuples
    x = 0
    for idx, (s, lab) in enumerate(zip(steps, history.labels)):
        if s == "V":
            blk = avail.pop(lab - 1)
            if not cycle:
                blk.append(x)
            cycle.append(tuple(blk))
            continue
        x += 1
        if s == "U":
            avail.append([x])
        elif steps[idx + 1 : idx + 2] == "V":
            # closes a cycle from the pool; label 0 seats x in the first
            # block the V run picks, no label starts with the block (x,)
            if trace is not None:
                trace.append(tuple(map(tuple, avail)))
            cycle = [] if lab == 0 else [(x,)]
            cycles.append(cycle)
            continue
        elif lab is None:
            cycles.append(((x,),))
        else:
            avail[lab - 1].append(x)
        if trace is not None:
            trace.append(tuple(map(tuple, avail)))
    if avail:
        raise AssertionError("unconsumed blocks after a complete history")
    return PartitionCycles(tuple(map(tuple, cycles)))


def _psi_inv(cycles: tuple[Cycle, ...]) -> tuple[str, tuple[int | None, ...]] | None:
    """(steps, labels) of the history psi sends to ``cycles``, by the case
    analysis on each i = 1..n in turn.  None unless ``cycles`` partitions
    1..n in canonical form (each cycle starts with the block holding its
    maximum, cycles listed by maximum), tested in the same pass.  The result
    is not validated: equal to a valid history's (steps, labels), it is that
    history.
    """
    blocks = [blk for cyc in cycles for blk in cyc]
    n = sum(map(len, blocks))
    block_of = [-1] * (n + 1)  # element -> index of its block in ``blocks``
    for k, blk in enumerate(blocks):
        for e in blk:
            if not 0 < e <= n or block_of[e] >= 0:
                return None
            block_of[e] = k
    # A block opens at its smallest element and waits in ``avail`` (by
    # smallest element) until its cycle closes; then no element may follow.
    state = [_UNSEEN] * len(blocks)
    avail: list[int] = []
    steps: list[str] = []
    labels: list[int | None] = []
    x = 0
    for cyc in cycles:
        top = max(cyc[0])
        if top <= x:
            return None
        for i in range(x + 1, top):  # below the cycle's maximum: U or a labeled H
            k = block_of[i]
            if state[k] == _OPEN:
                steps.append("H")
                labels.append(avail.index(k) + 1)
            elif state[k] == _UNSEEN:
                state[k] = _OPEN
                avail.append(k)
                steps.append("U")
                labels.append(None)
            else:  # i is above the maximum of its block's closed cycle
                return None
        x = top
        # top closes its cycle
        if len(cyc[0]) == 1:
            labels.append(None)
            to_take = cyc[1:]
        else:
            labels.append(0)
            to_take = cyc  # r_1 picks the block that receives top itself
        steps.append("H" + "V" * len(to_take))
        for blk in to_take:
            k = block_of[blk[0]]
            if state[k] != _OPEN:
                return None
            state[k] = _CLOSED
            rank = avail.index(k)
            del avail[rank]
            labels.append(rank + 1)
    return None if x < n else ("".join(steps), tuple(labels))


def psi_inv(pc: PartitionCycles) -> MeixnerHistory:
    """Inverse of psi, for cycles and blocks in any rotation and order."""
    found = _psi_inv(pc.canonical())
    if found is None:
        raise ValueError("blocks do not partition 1..n")
    return MeixnerHistory(*found)


def meixner_bijection_check(n: int) -> tuple[int, bool]:
    """(count, ok) over all Meixner histories of length n: the inverse
    undoes psi, psi keeps the weight, and psi is a bijection onto the
    Fubini(n) = sum_j j! S(n, j) partition-cycle pairs of [n].

    Weights are compared as their exponent pairs (i, j) of b^i d^j, here
    (#cycles, #blocks) of the image, so they agree at every (b, d).  The
    rest is ``_round_trip`` through ``_psi_inv``, which reads blocks as
    sets, so equal images are the same pair.
    """
    return _round_trip("meixner", n, _psi_inv,
                       lambda h, cycles: h.exponents() == (len(cycles), sum(map(len, cycles))),
                       lambda n: sum(math.factorial(j) * stirling2(n, j) for j in range(n + 1)))


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


def non_excedance_check(n: int, b: ScalarLike, c: ScalarLike) -> bool:
    """sum over permutations of b^cycles c^non-excedances equals the
    Stirling sum sum_j S(n,j) (b)_j c^j (1-c)^{n-j}, by brute force.

    A non-excedance is a position with pi(i) <= i (the complement of an
    excedance); the weak inequality is forced by the n = 1 case, where the
    identity reads b*c = b*c.
    """
    _check_length(n)
    b, c = as_scalar(b), as_scalar(c)
    counts: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        seen = [False] * (n + 1)
        cyc = 0
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cyc += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j - 1]
        nexc = sum(1 for i in range(1, n + 1) if perm[i - 1] <= i)
        counts[cyc, nexc] += 1
    lhs = sum((m * b**k * c**j for (k, j), m in counts.items()), Fraction(0))
    rhs = sum(
        stirling2(n, j) * pochhammer(b, j) * c**j * (1 - c) ** (n - j)
        for j in range(1, n + 1)
    )
    return lhs == rhs
