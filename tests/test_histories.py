import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import r1poly.histories as histories_module
from r1poly.exactmath import Poly, SymPoly, stirling1, stirling2
from r1poly.histories import (
    LaguerreHistory,
    MeixnerHistory,
    PartitionCycles,
    enumerate_LH,
    enumerate_MH,
    laguerre_bijection_check,
    lh_moment_check,
    meixner_bijection_check,
    mh_moment_check,
    non_excedance_check,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from r1poly.paths import enumerate_paths

from conftest import (no_history_objects, ref_phi, ref_phi_inv, ref_psi, ref_psi_inv,
                      ref_round_trip)

FIG_LAGUERRE = LaguerreHistory("UUUHVVUUUHHVVHUHHVVV", (2, 2, 4, 1, 1, 2, 1))
FIG_LAGUERRE_IMAGE = ((4, 2, 3), (8,), (9, 7, 1), (10,), (12,), (13, 5, 11, 6))

FIG_MEIXNER = MeixnerHistory(
    "UUUHVVUHHHVUUUHVVVUHVV",
    (None, None, None, 0, 3, 1, None, 2, None, None, 2,
     None, None, None, None, 4, 2, 2, None, 0, 2, 1),
)
FIG_MEIXNER_IMAGE = (
    ((3, 4), (1,)),
    ((7,),),
    ((8,), (5, 6)),
    ((12,), (11,), (9,), (10,)),
    ((13, 14), (2,)),
)
# availability snapshots per non-vertical step, as the map runs
FIG_MEIXNER_TRACE = [
    [(1,)],
    [(1,), (2,)],
    [(1,), (2,), (3,)],
    [(1,), (2,), (3,)],
    [(2,), (5,)],
    [(2,), (5, 6)],
    [(2,), (5, 6)],
    [(2,), (5, 6)],
    [(2,), (9,)],
    [(2,), (9,), (10,)],
    [(2,), (9,), (10,), (11,)],
    [(2,), (9,), (10,), (11,)],
    [(2,), (13,)],
    [(2,), (13,)],
]


def test_worked_example_laguerre():
    assert phi(FIG_LAGUERRE) == FIG_LAGUERRE_IMAGE


def test_worked_example_laguerre_roundtrip():
    assert phi_inv(FIG_LAGUERRE_IMAGE) == FIG_LAGUERRE


def test_phi_inv_accepts_rotated_cycles():
    rotated = ((2, 3, 4), (8,), (1, 9, 7), (10,), (12,), (11, 6, 13, 5))
    assert phi_inv(rotated) == FIG_LAGUERRE


def test_single_step_history():
    histories = enumerate_LH(1)
    assert len(histories) == 1
    only = histories[0]
    assert only.steps == "H" and only.labels == ()
    assert phi(only) == ((1,),)


def test_lh_counts_are_factorials():
    for n in range(8):
        assert len(enumerate_LH(n)) == math.factorial(n)


def test_phi_bijective_with_statistic():
    for n in range(8):
        assert laguerre_bijection_check(n) == (math.factorial(n), True)


def _lone_h(*h_label):
    """A broken inverse cycle step: every cycle reads as one H, with the
    labels ``h_label`` (none for phi, None for psi)."""
    def step(cyc, x, *state_and_out):
        steps, labels = state_and_out[-2:]
        steps.append("H")
        labels.extend(h_label)
        return x + 1
    return step


def test_bijection_checks_report_a_broken_inverse(monkeypatch):
    # the walks invert each closed cycle through the private cycle steps;
    # with these fakes only the all-H history comes back
    monkeypatch.setattr(histories_module, "_phi_inv_cycle", _lone_h())
    assert laguerre_bijection_check(3) == (6, False)
    monkeypatch.setattr(histories_module, "_psi_inv_cycle", _lone_h(None))
    assert meixner_bijection_check(3) == (13, False)


def test_lh_label_validation():
    with pytest.raises(ValueError):
        LaguerreHistory("UHV", (2,))  # V starts at height 1
    with pytest.raises(ValueError):
        LaguerreHistory("UV", (1,))  # peak
    with pytest.raises(ValueError):
        LaguerreHistory("UHV", ())  # missing label


def test_lh_moment_check_values():
    a = Fraction(3, 5)
    for n in range(9):
        assert lh_moment_check(n, a)
    # n = 2 by hand: histories HH and UHV give (a+1)^2 + (a+1)
    histories = enumerate_LH(2)
    total = sum((a + 1) ** h.horizontal_count() for h in histories)
    assert total == (a + 1) ** 2 + (a + 1) == (a + 1) * (a + 2)


def test_worked_example_meixner():
    assert psi(FIG_MEIXNER).cycles == FIG_MEIXNER_IMAGE


def test_worked_example_meixner_trace():
    # cycle-creating steps are recorded before they consume the pool,
    # the others after they act (the convention of the worked table)
    trace = []
    psi(FIG_MEIXNER, trace=trace)
    assert trace == [tuple(row) for row in FIG_MEIXNER_TRACE]


def test_worked_example_meixner_roundtrip():
    assert psi_inv(psi(FIG_MEIXNER)) == FIG_MEIXNER


def test_single_meixner_history():
    histories = enumerate_MH(1)
    assert len(histories) == 1
    only = histories[0]
    assert only.steps == "H" and only.labels == (None,)
    b, d = Fraction(2), Fraction(3)
    assert only.weight(b, d) == b * d
    assert psi(only).cycles == (((1,),),)


def test_psi_weight_preserving_bijection():
    for n in range(7):
        # cardinality: partitions into j blocks times arrangements of blocks
        want = sum(stirling2(n, j) * math.factorial(j) for j in range(n + 1))
        assert meixner_bijection_check(n) == (want, True)


def test_mh_label_rules():
    with pytest.raises(ValueError):
        MeixnerHistory("UHV", (1, None, 1))  # U labeled
    with pytest.raises(ValueError):
        MeixnerHistory("UHV", (None, 1, 1))  # H before V labeled nonzero
    with pytest.raises(ValueError):
        MeixnerHistory("HH", (2, None))  # H label above height
    # the 0 and no-label states on the same shape carry different weights
    h0 = MeixnerHistory("UHV", (None, 0, 1))
    hn = MeixnerHistory("UHV", (None, None, 1))
    b, d = Fraction(2), Fraction(5)
    assert h0.weight(b, d) == b * d and hn.weight(b, d) == b * d * d


def test_mh_serialization():
    assert FIG_MEIXNER.labeled_pairs()[:3] == [[3, 0], [4, 3], [5, 1]]


def test_mh_moment_chain():
    b, d = Fraction(2, 3), Fraction(1, 4)
    for n in range(8):
        assert mh_moment_check(n, b, d)


def test_mh_stirling_instantiation():
    # n = 2: S(2,1)(b)_1 d + S(2,2)(b)_2 d^2
    b, d = Fraction(2, 3), Fraction(1, 4)
    histories = enumerate_MH(2)
    total = sum((h.weight(b, d) for h in histories), Fraction(0))
    assert total == b * d + b * (b + 1) * d * d


def test_non_excedance_identity():
    for n in range(1, 7):
        assert non_excedance_check(n, Fraction(2, 3), Fraction(1, 5))


# -- streamed checks and one-pass validation ---------------------------------


def test_enumerated_histories_pass_the_validating_constructors():
    for n in range(7):
        for h in enumerate_LH(n):
            assert LaguerreHistory(h.steps, h.labels) == h
        for h in enumerate_MH(n):
            assert MeixnerHistory(h.steps, h.labels) == h


# The three-pass rules the one-pass validators replaced, kept as the reference.
def _old_shape(steps, n):
    x = y = 0
    prev = ""
    for s in steps:
        if s not in "UHV":
            raise ValueError(s)
        if s == "V" and prev == "U":
            raise ValueError("peak")
        if s == "U":
            x, y = x + 1, y + 1
        elif s == "H":
            x += 1
        else:
            y -= 1
        if y < 0:
            raise ValueError("dip")
        prev = s
    if (x, y) != (n, 0):
        raise ValueError("end")


def _old_heights(steps):
    y = 0
    out = []
    for s in steps:
        out.append(y)
        if s == "U":
            y += 1
        elif s == "V":
            y -= 1
    return out


def _old_laguerre(steps, labels):
    _old_shape(steps, sum(1 for s in steps if s != "V"))
    v_heights = [h for s, h in zip(steps, _old_heights(steps)) if s == "V"]
    if len(labels) != len(v_heights):
        raise ValueError("count")
    for lab, h in zip(labels, v_heights):
        if not 1 <= lab <= h:
            raise ValueError("label")


def _old_meixner(steps, labels):
    _old_shape(steps, sum(1 for s in steps if s != "V"))
    if len(labels) != len(steps):
        raise ValueError("align")
    heights = _old_heights(steps)
    for idx, (s, lab) in enumerate(zip(steps, labels)):
        h = heights[idx]
        if s == "U":
            if lab is not None:
                raise ValueError("U")
        elif s == "V":
            if lab is None or not 1 <= lab <= h:
                raise ValueError("V")
        else:
            followed = idx + 1 < len(steps) and steps[idx + 1] == "V"
            if followed:
                if lab not in (None, 0):
                    raise ValueError("H0")
            elif lab is not None and not 1 <= lab <= h:
                raise ValueError("H")


def _accepts(make, steps, labels):
    try:
        make(steps, labels)
    except ValueError:
        return False
    return True


_SHAPES = sorted({h.steps for n in range(6) for h in enumerate_LH(n)})


@st.composite
def _candidates(draw, label):
    """A step string (random, or a valid shape) with labels of about the
    right length, drawn mostly from small values so both verdicts occur."""
    steps = draw(st.sampled_from(_SHAPES) | st.text(alphabet="UHVx", max_size=10))
    size = draw(st.sampled_from(["V", "all"]))
    length = steps.count("V") if size == "V" else len(steps)
    length = max(0, length + draw(st.sampled_from([0, 0, 0, 1, -1])))
    return steps, tuple(draw(st.lists(label, min_size=length, max_size=length)))


@settings(max_examples=400, deadline=None)
@given(_candidates(st.integers(-1, 4)), _candidates(st.none() | st.integers(-1, 4)))
def test_one_pass_validators_match_the_three_pass_rules(lag, mei):
    assert _accepts(LaguerreHistory, *lag) == _accepts(_old_laguerre, *lag)
    assert _accepts(MeixnerHistory, *mei) == _accepts(_old_meixner, *mei)


def test_inverses_ignore_the_presentation_of_cycles_and_blocks():
    # the figure images with cycles rotated and reordered, blocks unsorted
    assert phi_inv(((11, 6, 13, 5), (8,), (1, 9, 7), (12,), (3, 4, 2), (10,))) == FIG_LAGUERRE
    scrambled = PartitionCycles((
        ((2,), (14, 13)),
        ((6, 5), (8,)),
        ((7,),),
        ((9,), (10,), (12,), (11,)),
        ((1,), (4, 3)),
    ))
    assert psi_inv(scrambled) == FIG_MEIXNER
    for n in range(6):
        for h in enumerate_LH(n):
            img = phi(h)
            assert phi_inv(tuple(c[1:] + c[:1] for c in reversed(img))) == h
        for h in enumerate_MH(n):
            pc = PartitionCycles(tuple(
                tuple(tuple(reversed(blk)) for blk in cyc[1:] + cyc[:1])
                for cyc in reversed(psi(h).cycles)))
            assert psi_inv(pc) == h


def test_private_inverses_answer_only_canonical_images():
    img = phi(FIG_LAGUERRE)
    assert histories_module._phi_inv(img) == (FIG_LAGUERRE.steps, FIG_LAGUERRE.labels)
    for bad in (
        img[1:],  # 2 and 3 never placed
        img[1:2] + img[:1] + img[2:],  # maxima out of order
        tuple(c[1:] + c[:1] for c in img),  # not started at the maximum
        img + ((13,),),  # 13 twice
    ):
        assert histories_module._phi_inv(bad) is None
    pc = psi(FIG_MEIXNER).cycles
    assert histories_module._psi_inv(pc) == (FIG_MEIXNER.steps, FIG_MEIXNER.labels)
    for bad in (
        pc[1:],  # blocks beyond the element count
        pc[1:2] + pc[:1] + pc[2:],  # maxima out of order
        tuple(c[1:] + c[:1] for c in pc),  # first block without the maximum
        pc[:-1] + ((pc[-1][0], (2, 15)),),  # 15 above its cycle's maximum 14
        pc[:-1] + ((pc[-1][0], (2, 3)),),  # 3 twice
        (((2,), (1, 3)), ((4,),)),  # 3 above its closed block's cycle maximum 2
    ):
        assert histories_module._psi_inv(bad) is None
    with pytest.raises(ValueError):
        phi_inv(((1, 2), (2,)))
    with pytest.raises(ValueError):  # refused before 1..10^12 is listed
        phi_inv(((10**12,),))
    with pytest.raises(ValueError):
        psi_inv(PartitionCycles((((1,), (1,)),)))


def _fed(step, change):
    """The inverse cycle step fed ``change(cycle)`` for each closed cycle: a
    map whose image the walk hands on changed."""
    return lambda cyc, *rest: step(change(cyc), *rest)


# Two n = 3 histories sent to one image: UUHVV with V labels (2, 1) where
# (1, 1) goes, and UHVH with its first H labeled 0 where the unlabeled goes.
_COLLIDE = {"_phi_inv_cycle": ([3, 2, 1], [3, 1, 2]),
            "_psi_inv_cycle": ([(1, 2)], [(2,), (1,)])}


@pytest.mark.parametrize("broken", ["rotated", "colliding"])
def test_bijection_checks_report_a_broken_map(monkeypatch, broken):
    for name, check, want in (("_phi_inv_cycle", laguerre_bijection_check, (6, False)),
                              ("_psi_inv_cycle", meixner_bijection_check, (13, False))):
        if broken == "rotated":
            change = lambda cyc: cyc[1:] + cyc[:1]
        else:
            old, new = _COLLIDE[name]
            change = lambda cyc, old=old, new=new: new if [
                c if type(c) is int else tuple(c) for c in cyc] == old else cyc
        assert check(3)[1]
        monkeypatch.setattr(histories_module, name,
                            _fed(getattr(histories_module, name), change))
        assert check(3) == want


def test_bijection_checks_report_a_lost_history(monkeypatch):
    # a walk that misses one leaf counts one history short of n! or Fubini(n)
    for name in ("_phi_walk", "_psi_walk"):
        real = getattr(histories_module, name)
        monkeypatch.setattr(histories_module, name,
                            lambda n, real=real: (lambda count, ok, image: (count - 1, ok, image))(*real(n)))
    assert laguerre_bijection_check(3) == (5, False)
    assert meixner_bijection_check(3) == (12, False)


def test_bijection_checks_match_the_per_history_round_trip():
    for n in range(8):
        assert laguerre_bijection_check(n) == ref_round_trip("laguerre", n)
    for n in range(7):
        assert meixner_bijection_check(n) == ref_round_trip("meixner", n)


def test_maps_and_inverses_match_the_per_history_reference():
    for n in range(8):
        for h in enumerate_LH(n):
            img = phi(h)
            assert img == ref_phi(h)
            assert histories_module._phi_inv(img) == ref_phi_inv(img) == (h.steps, h.labels)
            assert phi_inv(img) == h
    for n in range(7):
        for h in enumerate_MH(n):
            trace, ref_trace = [], []
            pc = psi(h, trace=trace)
            assert pc == ref_psi(h, trace=ref_trace) and trace == ref_trace
            assert histories_module._psi_inv(pc.cycles) == ref_psi_inv(pc.cycles) == (h.steps, h.labels)
            assert psi_inv(pc) == h


def test_bijection_checks_build_no_history():
    with no_history_objects():
        assert laguerre_bijection_check(5) == (120, True)
        assert meixner_bijection_check(5) == (541, True)
        with pytest.raises(AssertionError, match="history object"):
            enumerate_LH(2)


_cycles_input = st.lists(st.lists(st.integers(-1, 7), min_size=0, max_size=4), max_size=4)


@settings(max_examples=400, deadline=None)
@given(_cycles_input, st.lists(_cycles_input, max_size=3))
def test_private_inverses_match_the_reference_on_any_input(perm, blocks):
    # any tuple of tuples, canonical or not: the cycle-step folds answer as
    # the per-history inverses did (the Meixner one on increasing blocks)
    perm = tuple(map(tuple, perm))
    try:
        want = ref_phi_inv(perm)
    except IndexError:  # an empty cycle
        with pytest.raises(IndexError):
            histories_module._phi_inv(perm)
    else:
        assert histories_module._phi_inv(perm) == want
    pc = tuple(tuple(tuple(sorted(set(b))) for b in cyc) for cyc in blocks)
    if all(cyc and all(cyc) for cyc in pc):
        assert histories_module._psi_inv(pc) == ref_psi_inv(pc)


def test_exponents_count_the_step_weights():
    # per step: U 1, V d, unlabeled H b*d, H labeled 0 b, H labeled >= 1 1
    for n in range(6):
        for h in enumerate_MH(n):
            i = j = 0
            for s, lab in zip(h.steps, h.labels):
                if s == "V":
                    j += 1
                elif s == "H" and lab is None:
                    i, j = i + 1, j + 1
                elif s == "H" and lab == 0:
                    i += 1
            assert h.exponents() == (i, j) == psi(h).exponents()
    assert FIG_MEIXNER.exponents() == (5, 11)


# -- the peak-free path DP behind the history sums ----------------------------


T, B, D = histories_module._T, histories_module._B, histories_module._D


def _dp(n, table):
    """The table's sum as a package polynomial: in t, or in b and d."""
    point = (T,) if table == "_LAGUERRE_STEPS" else (B, D)
    return histories_module._peak_free_sum(n, getattr(histories_module, table), *point)


def _in_b_d(counts):
    """sum m * b^i d^j over {(i, j): m}, as a SymPoly."""
    return SymPoly.sum([m * B**i * D**j for (i, j), m in counts.items()])


def test_dp_counts_the_enumerated_histories():
    for n in range(8):
        by_h = Counter(h.horizontal_count() for h in enumerate_LH(n))
        assert _dp(n, "_LAGUERRE_STEPS") == Poly([by_h[k] for k in range(n + 1)])
        assert _dp(n, "_MEIXNER_STEPS") == _in_b_d(Counter(h.exponents() for h in enumerate_MH(n)))


def test_dp_diagonal_sum_matches_the_enumerated_paths():
    # every peak-free Schroeder path with its weights b'_h = h + bd, a_h = hd,
    # lam_h = bdh - dh^2 multiplied out in b and d
    weight = {
        "U": lambda h: 1,
        "H": lambda h: h + B * D,
        "V": lambda h: h * D,
        "D": lambda h: h * B * D - h * h * D,
    }
    for n in range(7):
        total = SymPoly.sum([
            math.prod((weight[s](h) for s, h in zip(p.steps, p.heights())), start=SymPoly.const(1))
            for p in enumerate_paths((0, 0), (n, 0)) if "UV" not in p.steps])
        assert _dp(n, "_DIAGONAL_STEPS") == total


def test_history_sums_are_the_stirling_polynomials_to_n_20():
    # sum_k c(n, k) t^k = (t)_n, and sum_{j,k} S(n, j) c(j, k) b^k d^j =
    # sum_j S(n, j) (b)_j d^j, for the histories and the diagonal paths alike
    for n in range(21):
        assert _dp(n, "_LAGUERRE_STEPS") == Poly([stirling1(n, k) for k in range(n + 1)])
        want = _in_b_d({(k, j): stirling2(n, j) * stirling1(j, k)
                        for j in range(n + 1) for k in range(j + 1)})
        assert _dp(n, "_MEIXNER_STEPS") == want
        assert _dp(n, "_DIAGONAL_STEPS") == want


@pytest.mark.parametrize("table, kind, weight", [
    ("_LAGUERRE_STEPS", "V", lambda h, t: h + 1),
    ("_LAGUERRE_STEPS", "H", lambda h, t: t + 1),
    ("_MEIXNER_STEPS", "H+", lambda h, b, d: b * d),
    ("_MEIXNER_STEPS", "H-", lambda h, b, d: b * d + h + b),
    ("_MEIXNER_STEPS", "V", lambda h, b, d: h * d + 1),
    ("_DIAGONAL_STEPS", "D", lambda h, b, d: h * b * d),
    ("_DIAGONAL_STEPS", "H", lambda h, b, d: h + 1 + b * d),
])
def test_moment_checks_report_a_changed_step_weight(monkeypatch, table, kind, weight):
    a, b, d = Fraction(3, 5), Fraction(2, 3), Fraction(1, 4)
    assert lh_moment_check(5, a) and mh_moment_check(5, b, d)
    monkeypatch.setitem(getattr(histories_module, table), kind, weight)
    if table == "_LAGUERRE_STEPS":
        assert not lh_moment_check(5, a)
    else:
        assert not mh_moment_check(5, b, d)


def test_every_entry_point_refuses_a_negative_length():
    a, b, d = Fraction(3, 5), Fraction(2, 3), Fraction(1, 4)
    for call in (lambda: enumerate_LH(-1), lambda: enumerate_MH(-2),
                 lambda: laguerre_bijection_check(-1), lambda: meixner_bijection_check(-1),
                 lambda: lh_moment_check(-1, a), lambda: mh_moment_check(-1, b, d),
                 lambda: non_excedance_check(-1, b, d)):
        with pytest.raises(ValueError, match="history length must be >= 0"):
            call()
