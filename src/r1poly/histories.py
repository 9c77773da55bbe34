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
small sizes the identities are checked at.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exactmath import Scalar, ScalarLike, as_scalar, pochhammer, stirling1, stirling2
from . import paths as pathmod
from .core import CoeffSystem


# Largest length each enumeration accepts; the history count grows
# factorially (9! Laguerre, 545835 Meixner histories at the caps).
CAPS = {"laguerre": 9, "meixner": 8}


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


def _trusted(cls, steps: str, labels: tuple):
    """A history the enumerator built valid, made without ``__post_init__``."""
    history = object.__new__(cls)
    object.__setattr__(history, "steps", steps)
    object.__setattr__(history, "labels", labels)
    return history


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


# -- Laguerre histories ---------------------------------------------------


@dataclass(frozen=True)
class LaguerreHistory:
    """Peak-free Schroeder path with V labels, read off against permutations."""

    steps: str
    labels: tuple[int, ...]  # one label per V step, in step order

    def __post_init__(self):
        labels = iter(self.labels)
        if self.steps.count("V") != len(self.labels):
            raise ValueError("label count does not match V-step count")
        for _, s, h in _walk(self.steps):
            if s == "V":
                lab = next(labels)
                if not 1 <= lab <= h:
                    raise ValueError(f"V label {lab} outside 1..{h}")

    def horizontal_count(self) -> int:
        return self.steps.count("H")


def _iter_LH(n: int) -> Iterator[LaguerreHistory]:
    if n > CAPS["laguerre"]:
        raise ValueError(f"Laguerre history enumeration is capped at n = {CAPS['laguerre']}")
    for shape in _peak_free_shapes(n):
        ranges = [range(1, h + 1) for _, s, h in _walk(shape) if s == "V"]
        for labels in itertools.product(*ranges):
            yield _trusted(LaguerreHistory, shape, labels)


def enumerate_LH(n: int) -> list[LaguerreHistory]:
    """All Laguerre histories of length n, shape-then-label order."""
    return list(_iter_LH(n))


Cycles = tuple[tuple[int, ...], ...]


def _canonical_cycles(cycles: Cycles) -> Cycles:
    """Each cycle rotated to start at its maximum, cycles listed by maximum."""
    rotated = []
    for cyc in cycles:
        top = cyc.index(max(cyc))
        rotated.append(cyc[top:] + cyc[:top])
    return tuple(sorted(rotated, key=lambda c: c[0]))


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


def phi_inv(cycles: Cycles) -> LaguerreHistory:
    """Inverse of phi: cycle maxima become horizontal steps."""
    elements = [e for cyc in cycles for e in cyc]
    n = len(elements)
    if sorted(elements) != list(range(1, n + 1)):
        raise ValueError("cycles do not form a permutation of 1..n")
    by_max = {c[0]: c for c in _canonical_cycles(cycles)}
    free: list[int] = []  # the integers below i not yet placed, increasing
    steps: list[str] = []
    labels: list[int] = []
    for i in range(1, n + 1):
        if i not in by_max:
            steps.append("U")
            free.append(i)
            continue
        steps.append("H")
        for e in by_max[i][1:]:
            rank = free.index(e)
            del free[rank]
            labels.append(rank + 1)
            steps.append("V")
    return LaguerreHistory("".join(steps), tuple(labels))


def laguerre_bijection_check(n: int) -> tuple[int, bool]:
    """(count, ok) over all Laguerre histories of length n: phi_inv undoes
    phi, horizontal steps become cycles, and phi is a bijection onto the n!
    permutations of [n].

    The histories stream past once and no image is kept.  phi_inv(phi(h)) == h
    for every h makes phi injective on the cycle tuples it returns; every
    image being in canonical form (cycles start at their maximum, listed by
    maximum) makes equal tuples the same permutation, so distinct histories
    give distinct permutations; and n! distinct permutations are all of them.
    """
    count = 0
    ok = True
    for h in _iter_LH(n):
        count += 1
        img = phi(h)
        ok = (ok and _canonical_cycles(img) == img and phi_inv(img) == h
              and h.horizontal_count() == len(img))
    return count, ok and count == math.factorial(n)


def lh_moment_check(n: int, a: ScalarLike) -> bool:
    """Two statements at once: the labeled-history sum equals the rising
    factorial, and collapsing (U,V) peaks into horizontal steps preserves
    the Schroeder weight sum (b_k = a-k, a_k = k versus b = a+1, a_k = k).

    The first holds as a polynomial in a: the histories with k horizontal
    steps number c(n, k), the coefficients of (x)_n = sum_k c(n, k) x^k.
    """
    a = as_scalar(a)
    counts = Counter(h.horizontal_count() for h in _iter_LH(n))
    if counts != Counter({k: stirling1(n, k) for k in range(n + 1)}):
        return False
    total = sum(m * (a + 1) ** k for k, m in counts.items())
    if total != pochhammer(a + 1, n):
        return False
    cs = CoeffSystem(lambda k: a - k, lambda k: Fraction(k), lambda k: Fraction(0))
    ws = pathmod.WeightSystem(cs)
    full = pathmod.weight_sum((0, 0), (n, 0), ws)
    collapsed = Fraction(0)
    for shape in _peak_free_shapes(n):
        w = Fraction(1)
        for _, s, h in _walk(shape):
            if s == "H":
                w *= a + 1
            elif s == "V":
                w *= h
        collapsed += w
    return full == collapsed


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
        for idx, s, h in _walk(steps):
            lab = labels[idx]
            if s == "U":
                if lab is not None:
                    raise ValueError("U steps are never labeled")
            elif s == "V":
                if lab is None or not 1 <= lab <= h:
                    raise ValueError(f"V label {lab} outside 1..{h}")
            elif idx + 1 < len(steps) and steps[idx + 1] == "V":
                if lab not in (None, 0):
                    raise ValueError("an H before a V is labeled 0 or not at all")
            elif lab is not None and not 1 <= lab <= h:
                raise ValueError(f"H label {lab} outside 1..{h}")

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


def _iter_MH(n: int) -> Iterator[MeixnerHistory]:
    if n > CAPS["meixner"]:
        raise ValueError(f"Meixner history enumeration is capped at n = {CAPS['meixner']}")
    for shape in _peak_free_shapes(n):
        options: list[list[int | None]] = []
        for idx, s, h in _walk(shape):
            if s == "U":
                options.append([None])
            elif s == "V":
                options.append(list(range(1, h + 1)))
            else:
                followed = idx + 1 < len(shape) and shape[idx + 1] == "V"
                if followed:
                    options.append([None, 0])
                else:
                    options.append([None] + list(range(1, h + 1)))
        for labels in itertools.product(*options):
            yield _trusted(MeixnerHistory, shape, labels)


def enumerate_MH(n: int) -> list[MeixnerHistory]:
    """All Meixner histories of length n, shape-then-label order."""
    return list(_iter_MH(n))


Block = tuple[int, ...]
Cycle = tuple[Block, ...]


@dataclass(frozen=True)
class PartitionCycles:
    """A set partition of [n] with its blocks permuted, written in cycles.

    Cycles are stored in creation order with the creating block first; use
    ``canonical`` to compare representatives regardless of presentation.
    """

    cycles: tuple[Cycle, ...]

    def blocks(self) -> list[Block]:
        return [blk for cyc in self.cycles for blk in cyc]

    def exponents(self) -> tuple[int, int]:
        """(#cycles, #blocks): the weight is b^#cycles d^#blocks."""
        return len(self.cycles), sum(map(len, self.cycles))

    def weight(self, b: Scalar, d: Scalar) -> Scalar:
        i, j = self.exponents()
        return b**i * d**j

    def canonical(self) -> tuple:
        out = []
        for cyc in self.cycles:
            top = cyc.index(max(cyc, key=max))
            out.append(cyc[top:] + cyc[:top])
        return tuple(sorted(out, key=lambda c: max(c[0])))


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
    labels = history.labels
    # Blocks not yet consumed by a cycle, by smallest element.  A block opens
    # at the current x and grows only by the current x, which exceeds all its
    # elements, so the pool and each block stay sorted without re-sorting.
    avail: list[list[int]] = []
    cycles: list[list[list[int]]] = []

    def snapshot():
        if trace is not None:
            trace.append(tuple(map(tuple, avail)))

    x = 0
    for idx, s in enumerate(steps):
        lab = labels[idx]
        if s == "U":
            x += 1
            avail.append([x])
        elif s == "H":
            x += 1
            if steps[idx + 1 : idx + 2] == "V":
                # closes a cycle from the pool; label 0 seats x in the
                # first block the V run picks, no label starts with [x]
                snapshot()
                cycle = [] if lab == 0 else [[x]]
                cycles.append(cycle)
                continue
            if lab is None:
                cycles.append([[x]])
            else:
                avail[lab - 1].append(x)
        else:
            blk = avail.pop(lab - 1)
            if not cycle:
                blk.append(x)
            cycle.append(blk)
            continue
        snapshot()
    if avail:
        raise AssertionError("unconsumed blocks after a complete history")
    return PartitionCycles(tuple(tuple(map(tuple, cyc)) for cyc in cycles))


def psi_inv(pc: PartitionCycles) -> MeixnerHistory:
    """Inverse of psi, by the case analysis on each i = 1..n in turn."""
    blocks = pc.blocks()
    elements = sorted(e for blk in blocks for e in blk)
    n = len(elements)
    if elements != list(range(1, n + 1)):
        raise ValueError("blocks do not partition 1..n")

    block_of = {e: blk for blk in blocks for e in blk}
    cycle_of = {blk: cyc for cyc in pc.cycles for blk in cyc}
    cyc_max = {cyc: max(map(max, cyc)) for cyc in pc.cycles}

    # Blocks with an element below i whose cycle survives to i, by smallest
    # element: a block joins at its smallest element and leaves with its cycle.
    avail: list[Block] = []
    steps: list[str] = []
    labels: list[int | None] = []
    for i in range(1, n + 1):
        blk = block_of[i]
        cyc = cycle_of[blk]
        if i < cyc_max[cyc]:
            if min(blk) == i:
                steps.append("U")
                labels.append(None)
                avail.append(blk)
            else:
                steps.append("H")
                labels.append(avail.index(blk) + 1)
            continue
        # i closes its cycle
        start = cyc.index(blk)
        ordered = cyc[start:] + cyc[:start]
        steps.append("H")
        if blk == (i,):
            labels.append(None)
            to_take = ordered[1:]
        else:
            labels.append(0)
            to_take = ordered  # r_1 picks the block that receives i itself
        for B in to_take:
            rank = avail.index(B)
            del avail[rank]
            labels.append(rank + 1)
            steps.append("V")
    return MeixnerHistory("".join(steps), tuple(labels))


def meixner_bijection_check(n: int, b: ScalarLike, d: ScalarLike) -> tuple[int, bool]:
    """(count, ok) over all Meixner histories of length n: psi_inv undoes
    psi, psi keeps the weight, and psi is a bijection onto the
    Fubini(n) = sum_j j! S(n, j) partition-cycle pairs of [n].

    Weights are compared as their exponent pairs (i, j) of b^i d^j, so they
    agree at every (b, d), the given point included.  The histories stream
    past once and no image is kept.  psi_inv(psi(h)) == h for every h makes
    psi injective on the cycle tuples it returns; every image being in
    canonical form makes equal tuples the same partition-cycle pair, so
    distinct histories give distinct pairs; and Fubini(n) distinct pairs are
    all of them.
    """
    count = 0
    ok = True
    for h in _iter_MH(n):
        count += 1
        pc = psi(h)
        ok = (ok and pc.canonical() == pc.cycles and psi_inv(pc) == h
              and h.exponents() == pc.exponents())
    fubini = sum(math.factorial(j) * stirling2(n, j) for j in range(n + 1))
    return count, ok and count == fubini


def mh_moment_check(n: int, b: ScalarLike, d: ScalarLike) -> bool:
    """The full weight-preserving chain down to the Stirling closed form.

    Four sums agree: all paths under the raw weights (b_k = k - dk + bd - d,
    a_k = kd, lam_k = bdk - dk^2); peak-free paths under b'_k = k + bd;
    diagonal-free peak-free paths under the split horizontal weights; and
    labeled histories.  All equal sum_j S(n,j) (b)_j d^j.  The history sum
    also holds as a polynomial in (b, d): the histories with weight b^k d^j
    number S(n, j) c(j, k), the coefficients of that sum.
    """
    b, d = as_scalar(b), as_scalar(d)
    if n == 0:
        return True
    target = sum(stirling2(n, j) * pochhammer(b, j) * d**j for j in range(1, n + 1))

    cs = CoeffSystem(
        lambda k: k - d * k + b * d - d,
        lambda k: k * d,
        lambda k: b * d * k - d * k * k,
    )
    ws = pathmod.WeightSystem(cs)
    s1 = pathmod.weight_sum((0, 0), (n, 0), ws)

    # peak-free paths, diagonal steps still allowed, weights b'_k = k + bd
    s2 = Fraction(0)
    for p in pathmod.enumerate_paths((0, 0), (n, 0)):
        if "UV" in p.steps:
            continue
        w = Fraction(1)
        for s, h in zip(p.steps, p.heights()):
            if s == "H":
                w *= h + b * d
            elif s == "V":
                w *= h * d
            elif s == "D":
                w *= b * d * h - d * h * h
        s2 += w

    s3 = Fraction(0)
    for shape in _peak_free_shapes(n):
        w = Fraction(1)
        for idx, s, h in _walk(shape):
            if s == "V":
                w *= h * d
            elif s == "H":
                followed = idx + 1 < len(shape) and shape[idx + 1] == "V"
                w *= (b * d + b) if followed else (b * d + h)
        s3 += w

    counts = Counter(h.exponents() for h in _iter_MH(n))
    want = Counter({(k, j): stirling2(n, j) * stirling1(j, k)
                    for j in range(n + 1) for k in range(j + 1)})
    s4 = sum((m * b**i * d**j for (i, j), m in counts.items()), Fraction(0))
    return counts == want and s1 == s2 == s3 == s4 == target


def non_excedance_check(n: int, b: ScalarLike, c: ScalarLike) -> bool:
    """sum over permutations of b^cycles c^non-excedances equals the
    Stirling sum sum_j S(n,j) (b)_j c^j (1-c)^{n-j}, by brute force.

    A non-excedance is a position with pi(i) <= i (the complement of an
    excedance); the weak inequality is forced by the n = 1 case, where the
    identity reads b*c = b*c.
    """
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
