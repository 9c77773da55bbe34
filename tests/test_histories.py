import math
from fractions import Fraction

import pytest

import r1poly.histories as histories_module
from r1poly.exactmath import stirling2
from r1poly.histories import (
    LaguerreHistory,
    MeixnerHistory,
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


def test_bijection_checks_report_a_broken_inverse(monkeypatch):
    monkeypatch.setattr(histories_module, "phi_inv", lambda cycles: FIG_LAGUERRE)
    assert laguerre_bijection_check(3) == (6, False)
    monkeypatch.setattr(histories_module, "psi_inv", lambda pc: FIG_MEIXNER)
    assert meixner_bijection_check(3, Fraction(2, 3), Fraction(1, 4)) == (13, False)


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
    b, d = Fraction(2, 3), Fraction(1, 4)
    for n in range(7):
        # cardinality: partitions into j blocks times arrangements of blocks
        want = sum(stirling2(n, j) * math.factorial(j) for j in range(n + 1))
        assert meixner_bijection_check(n, b, d) == (want, True)


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
