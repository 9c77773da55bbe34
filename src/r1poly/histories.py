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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exactmath import Scalar, ScalarLike, as_scalar, pochhammer, stirling2
from . import paths as pathmod
from .core import CoeffSystem


# Largest length each enumeration accepts; the history count grows
# factorially (9! Laguerre, 545835 Meixner histories at the caps).
CAPS = {"laguerre": 9, "meixner": 8}


def _validate_shape(steps: str, n: int):
    """Peak-free Schroeder path (U, H, V) from (0,0) to (n,0)."""
    x = y = 0
    prev = ""
    for s in steps:
        if s not in "UHV":
            raise ValueError(f"history step {s!r} not in U/H/V")
        if s == "V" and prev == "U":
            raise ValueError("history contains a (U,V) peak")
        if s == "U":
            x, y = x + 1, y + 1
        elif s == "H":
            x += 1
        else:
            y -= 1
        if y < 0:
            raise ValueError("history dips below the x-axis")
        prev = s
    if (x, y) != (n, 0):
        raise ValueError(f"history does not end at ({n},0)")


def _step_heights(steps: str) -> list[int]:
    y = 0
    out = []
    for s in steps:
        out.append(y)
        if s == "U":
            y += 1
        elif s == "V":
            y -= 1
    return out


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
        n = sum(1 for s in self.steps if s != "V")
        _validate_shape(self.steps, n)
        heights = _step_heights(self.steps)
        v_heights = [h for s, h in zip(self.steps, heights) if s == "V"]
        if len(self.labels) != len(v_heights):
            raise ValueError("label count does not match V-step count")
        for lab, h in zip(self.labels, v_heights):
            if not 1 <= lab <= h:
                raise ValueError(f"V label {lab} outside 1..{h}")

    @property
    def length(self) -> int:
        return sum(1 for s in self.steps if s != "V")

    def horizontal_count(self) -> int:
        return self.steps.count("H")


def enumerate_LH(n: int) -> list[LaguerreHistory]:
    """All Laguerre histories of length n, shape-then-label order."""
    if n > CAPS["laguerre"]:
        raise ValueError(f"Laguerre history enumeration is capped at n = {CAPS['laguerre']}")
    out = []
    for shape in _peak_free_shapes(n):
        heights = _step_heights(shape)
        ranges = [range(1, h + 1) for s, h in zip(shape, heights) if s == "V"]
        for labels in itertools.product(*ranges):
            out.append(LaguerreHistory(shape, labels))
    return out


Cycles = tuple[tuple[int, ...], ...]


def phi(history: LaguerreHistory) -> Cycles:
    """History -> permutation: one cycle per horizontal step.

    The H crossing to x = i starts a cycle at i; each following V with label
    v appends the v-th smallest integer in [i] not used anywhere yet.
    """
    steps = history.steps
    labels = list(history.labels)
    used: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    x = 0
    li = 0
    idx = 0
    while idx < len(steps):
        s = steps[idx]
        if s == "U":
            x += 1
            idx += 1
            continue
        if s == "V":  # only after an H; consumed below
            raise AssertionError("unreachable: V outside an H run")
        x += 1
        cycle = [x]
        used.add(x)
        idx += 1
        while idx < len(steps) and steps[idx] == "V":
            v = labels[li]
            li += 1
            free = [j for j in range(1, x + 1) if j not in used]
            pick = free[v - 1]
            cycle.append(pick)
            used.add(pick)
            idx += 1
        cycles.append(tuple(cycle))
    return tuple(cycles)


def phi_inv(cycles: Cycles) -> LaguerreHistory:
    """Inverse of phi: cycle maxima become horizontal steps."""
    elements = [e for cyc in cycles for e in cyc]
    n = len(elements)
    if sorted(elements) != list(range(1, n + 1)):
        raise ValueError("cycles do not form a permutation of 1..n")
    # canonical rotation: each cycle starts at its maximum, listed by maximum
    rotated = []
    for cyc in cycles:
        top = cyc.index(max(cyc))
        rotated.append(cyc[top:] + cyc[:top])
    rotated.sort(key=lambda c: c[0])
    by_max = {c[0]: c for c in rotated}
    used: set[int] = set()
    steps: list[str] = []
    labels: list[int] = []
    for i in range(1, n + 1):
        if i not in by_max:
            steps.append("U")
            continue
        steps.append("H")
        used.add(i)
        for e in by_max[i][1:]:
            free = [j for j in range(1, i + 1) if j not in used]
            labels.append(free.index(e) + 1)
            used.add(e)
            steps.append("V")
    return LaguerreHistory("".join(steps), tuple(labels))


def laguerre_bijection_check(n: int) -> tuple[int, bool]:
    """(count, ok) over all Laguerre histories of length n: phi_inv undoes
    phi, horizontal steps become cycles, and the n! images are distinct."""
    hs = enumerate_LH(n)
    images = set()
    ok = True
    for h in hs:
        img = phi(h)
        images.add(img)
        ok = ok and phi_inv(img) == h and h.horizontal_count() == len(img)
    return len(hs), ok and len(hs) == len(images) == math.factorial(n)


def lh_moment_check(n: int, a: ScalarLike) -> bool:
    """Two statements at once: the labeled-history sum equals the rising
    factorial, and collapsing (U,V) peaks into horizontal steps preserves
    the Schroeder weight sum (b_k = a-k, a_k = k versus b = a+1, a_k = k)."""
    a = as_scalar(a)
    total = sum((a + 1) ** h.horizontal_count() for h in enumerate_LH(n))
    if total != pochhammer(a + 1, n):
        return False
    cs = CoeffSystem(lambda k: a - k, lambda k: Fraction(k), lambda k: Fraction(0))
    ws = pathmod.WeightSystem(cs)
    full = pathmod.weight_sum((0, 0), (n, 0), ws)
    collapsed = Fraction(0)
    for shape in _peak_free_shapes(n):
        w = Fraction(1)
        for s, h in zip(shape, _step_heights(shape)):
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
        n = sum(1 for s in self.steps if s != "V")
        _validate_shape(self.steps, n)
        if len(self.labels) != len(self.steps):
            raise ValueError("labels must align with steps")
        heights = _step_heights(self.steps)
        for idx, (s, lab) in enumerate(zip(self.steps, self.labels)):
            h = heights[idx]
            if s == "U":
                if lab is not None:
                    raise ValueError("U steps are never labeled")
            elif s == "V":
                if lab is None or not 1 <= lab <= h:
                    raise ValueError(f"V label {lab} outside 1..{h}")
            else:
                followed = idx + 1 < len(self.steps) and self.steps[idx + 1] == "V"
                if followed:
                    if lab not in (None, 0):
                        raise ValueError("an H before a V is labeled 0 or not at all")
                elif lab is not None and not 1 <= lab <= h:
                    raise ValueError(f"H label {lab} outside 1..{h}")

    @property
    def length(self) -> int:
        return sum(1 for s in self.steps if s != "V")

    def weight(self, b: Scalar, d: Scalar) -> Scalar:
        """U: 1, V: d, unlabeled H: b*d, H labeled 0: b, H labeled >= 1: 1."""
        out = Fraction(1)
        for idx, s in enumerate(self.steps):
            lab = self.labels[idx]
            if s == "V":
                out *= d
            elif s == "H":
                if lab is None:
                    out *= b * d
                elif lab == 0:
                    out *= b
        return out

    def labeled_pairs(self) -> list[list[int]]:
        """Wire form: [[stepIndex, label], ...] for the labeled steps."""
        return [[i, lab] for i, lab in enumerate(self.labels) if lab is not None]


def enumerate_MH(n: int) -> list[MeixnerHistory]:
    """All Meixner histories of length n, shape-then-label order."""
    if n > CAPS["meixner"]:
        raise ValueError(f"Meixner history enumeration is capped at n = {CAPS['meixner']}")
    out = []
    for shape in _peak_free_shapes(n):
        heights = _step_heights(shape)
        options: list[list[int | None]] = []
        for idx, s in enumerate(shape):
            h = heights[idx]
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
            out.append(MeixnerHistory(shape, tuple(labels)))
    return out


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

    @property
    def n(self) -> int:
        return sum(len(blk) for blk in self.blocks())

    def weight(self, b: Scalar, d: Scalar) -> Scalar:
        return b ** len(self.cycles) * d ** len(self.blocks())

    def canonical(self) -> tuple:
        out = []
        for cyc in self.cycles:
            top = max(range(len(cyc)), key=lambda i: max(cyc[i]))
            out.append(cyc[top:] + cyc[:top])
        return tuple(sorted(out, key=lambda c: max(c[0])))


class _Available:
    """Blocks not yet consumed by a cycle, ordered by smallest element."""

    def __init__(self):
        self._blocks: list[list[int]] = []

    def add(self, block: list[int]):
        self._blocks.append(block)
        self._blocks.sort(key=min)

    def insert_into(self, rank: int, value: int) -> list[int]:
        blk = self._blocks[rank - 1]
        blk.append(value)
        return blk

    def take(self, rank: int) -> list[int]:
        return self._blocks.pop(rank - 1)

    def remove(self, block: list[int]):
        self._blocks.remove(block)

    def __len__(self):
        return len(self._blocks)


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
    avail = _Available()
    cycles: list[Cycle] = []

    def snapshot():
        if trace is not None:
            trace.append(tuple(tuple(sorted(blk)) for blk in avail._blocks))

    x = 0
    idx = 0
    while idx < len(steps):
        s = steps[idx]
        if s == "U":
            x += 1
            avail.add([x])
            snapshot()
            idx += 1
            continue
        # a horizontal step, possibly followed by a run of V steps
        x += 1
        lab = labels[idx]
        vlabels = []
        j = idx + 1
        while j < len(steps) and steps[j] == "V":
            vlabels.append(labels[j])
            j += 1
        if not vlabels:
            if lab is None:
                snapshot()
                cycles.append((tuple([x]),))
            else:
                avail.insert_into(lab, x)
                snapshot()
            idx = j
            continue
        snapshot()
        if lab is None:
            cycle_blocks = [[x]]
            rest = vlabels
        else:  # label 0: seat x in the r_1-th available block, then close
            first = avail.insert_into(vlabels[0], x)
            avail.remove(first)
            cycle_blocks = [first]
            rest = vlabels[1:]
        for r in rest:
            cycle_blocks.append(avail.take(r))
        cycles.append(tuple(tuple(sorted(blk)) for blk in cycle_blocks))
        idx = j
    if len(avail):
        raise AssertionError("unconsumed blocks after a complete history")
    return PartitionCycles(tuple(cycles))


def psi_inv(pc: PartitionCycles) -> MeixnerHistory:
    """Inverse of psi, by the case analysis on each i = 1..n in turn."""
    blocks = pc.blocks()
    elements = sorted(e for blk in blocks for e in blk)
    n = len(elements)
    if elements != list(range(1, n + 1)):
        raise ValueError("blocks do not partition 1..n")

    block_of = {e: blk for blk in blocks for e in blk}
    cycle_of = {}
    for cyc in pc.cycles:
        for blk in cyc:
            cycle_of[blk] = cyc
    cyc_max = {cyc: max(e for blk in cyc for e in blk) for cyc in pc.cycles}

    def available_at(i: int) -> list[Block]:
        """Blocks with an element below i whose cycle survives to i."""
        out = [
            blk
            for blk in blocks
            if min(blk) < i and cyc_max[cycle_of[blk]] >= i
        ]
        return sorted(out, key=min)

    steps: list[str] = []
    labels: list[int | None] = []
    for i in range(1, n + 1):
        blk = block_of[i]
        cyc = cycle_of[blk]
        top = cyc_max[cyc]
        if i < top:
            if min(blk) == i:
                steps.append("U")
                labels.append(None)
            else:
                avail = available_at(i)
                steps.append("H")
                labels.append(avail.index(blk) + 1)
            continue
        # i closes its cycle
        if len(cyc) == 1 and cyc[0] == (i,):
            steps.append("H")
            labels.append(None)
            continue
        start = next(k for k, B in enumerate(cyc) if i in B)
        ordered = list(cyc[start:] + cyc[:start])
        avail = available_at(i)
        if blk == (i,):
            steps.append("H")
            labels.append(None)
            to_take = ordered[1:]
        else:
            steps.append("H")
            labels.append(0)
            to_take = ordered  # r_1 picks the block that receives i itself
        for B in to_take:
            labels.append(avail.index(B) + 1)
            avail.remove(B)
            steps.append("V")
    return MeixnerHistory("".join(steps), tuple(labels))


def meixner_bijection_check(n: int, b: ScalarLike, d: ScalarLike) -> tuple[int, bool]:
    """(count, ok) over all Meixner histories of length n: psi_inv undoes
    psi, psi keeps the weight at (b, d), and the images are distinct."""
    b, d = as_scalar(b), as_scalar(d)
    hs = enumerate_MH(n)
    images = set()
    ok = True
    for h in hs:
        pc = psi(h)
        images.add(pc.canonical())
        ok = ok and psi_inv(pc) == h and h.weight(b, d) == pc.weight(b, d)
    return len(hs), ok and len(images) == len(hs)


def mh_moment_check(n: int, b: ScalarLike, d: ScalarLike) -> bool:
    """The full weight-preserving chain down to the Stirling closed form.

    Four sums agree: all paths under the raw weights (b_k = k - dk + bd - d,
    a_k = kd, lam_k = bdk - dk^2); peak-free paths under b'_k = k + bd;
    diagonal-free peak-free paths under the split horizontal weights; and
    labeled histories.  All equal sum_j S(n,j) (b)_j d^j.
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
        heights = _step_heights(shape)
        for idx, s in enumerate(shape):
            h = heights[idx]
            if s == "V":
                w *= h * d
            elif s == "H":
                followed = idx + 1 < len(shape) and shape[idx + 1] == "V"
                w *= (b * d + b) if followed else (b * d + h)
        s3 += w

    s4 = sum((h.weight(b, d) for h in enumerate_MH(n)), Fraction(0))
    return s1 == s2 == s3 == s4 == target


def non_excedance_check(n: int, b: ScalarLike, c: ScalarLike) -> bool:
    """sum over permutations of b^cycles c^non-excedances equals the
    Stirling sum sum_j S(n,j) (b)_j c^j (1-c)^{n-j}, by brute force.

    A non-excedance is a position with pi(i) <= i (the complement of an
    excedance); the weak inequality is forced by the n = 1 case, where the
    identity reads b*c = b*c.
    """
    b, c = as_scalar(b), as_scalar(c)
    lhs = Fraction(0)
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
        lhs += b**cyc * c**nexc
    rhs = sum(
        stirling2(n, j) * pochhammer(b, j) * c**j * (1 - c) ** (n - j)
        for j in range(1, n + 1)
    )
    return lhs == rhs
