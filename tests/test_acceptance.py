"""Acceptance gate: every registry suite at seed 42, then the pinned CLI run.

Each suite of ``r1poly.checks`` runs once, on the same data as ``verify
--suite NAME --seed 42``.  ``test_suite[NAME]`` asserts that every check of
the suite passed; criteria 1-12 name the checks that carry each identity of
the paper, so a failure points at the criterion it breaks.  Every comparison
is exact rational equality, no tolerances.
"""

import functools
import hashlib
import re
import time

import pytest

from r1poly import checks, cli

SEED = 42
# stdout of `verify --suite all --seed 42`: 155 lines, 149 checks
VERIFY_ALL_SHA256 = "3eda591bb6880cd8f8fc2cfc96318ffff238cce3b945575585c96d1b1918758a"


@functools.cache
def _results(name):
    return tuple(checks.run(name, SEED))


def _criterion(name, *patterns):
    """Assert that each pattern matches some check of suite ``name``, and all those pass."""
    results = _results(name)
    for pattern in patterns:
        matched = [(label, ok) for label, ok in results if re.fullmatch(pattern, label)]
        assert matched, f"no check of suite {name} matches {pattern!r}"
        failed = [label for label, ok in matched if not ok]
        assert not failed, f"suite {name} (seed {SEED}) failed: {failed}"


@pytest.mark.parametrize("name", list(checks.SUITES))
def test_suite(name):
    failed = [label for label, ok in _results(name) if not ok]
    assert not failed, f"suite {name} (seed {SEED}) failed: {failed}"


def test_criterion_01_path_counts():
    _criterion("bounded", r"path counts 1,2,7,29,133,650", r"unit-weight DP matches counts")


def test_criterion_02_symbolic_moments():
    _criterion("orthogonality", r"symbolic mu1 = b0\+a1", r"symbolic mu2 display")


def test_criterion_03_orthogonality():
    _criterion("orthogonality", r"L\(x\^n Q_m\) = 0, .*", r"L\(P_n Q_m\) = .*")


def test_criterion_04_three_way_moments():
    _criterion("orthogonality", r"three-way moments .*")


def test_criterion_05_functional_path_identities():
    _criterion("orthogonality", r"L\(x\^n P_m Q_l\) = path sum.*",
               r"L\(x\^n P_m P_l\) = restricted path sum.*")


def test_criterion_06_bounded_height():
    _criterion("bounded", r"bounded GF = height-capped DP.*",
               r"finite continued fraction = bounded GF")


def test_criterion_07_determinant_factorizations():
    _criterion("determinants", r"D' factorization .*", r"D'' factorization .*",
               r"D''' factorization .*", r"shifted factorizations .*",
               r"Cramer monicity .*", r"hankel\(1,1,1\) .*", r"hankel constant .*")


def test_criterion_08_determinant_reconstruction():
    _criterion("determinants", r"P reconstruction .*", r"Q reconstruction, .*")


def test_criterion_09_families():
    _criterion("families", r".* orthogonality", r".* closed moments",
               r".* shifted-classical proportionality", r".* moment series vs classical",
               r"Catalan 4\^k mu_k", r"Laguerre moments \(a\+1\)_k")


def test_criterion_10_askey_wilson_and_q_racah():
    _criterion("families", r"Askey-Wilson recurrence = monic 4phi3",
               r"q-Racah recurrence = monic 4phi3 at spectral nodes")


def test_criterion_11_deformed_hermite():
    _criterion("families", r"theta spot values", r"theta = deformed-Hermite moments",
               r"two-sided moment series identity", r"Hermite linearization .*")


def test_criterion_12_histories():
    _criterion("histories", r"worked example.*", r"phi bijective .*", r"psi weight-preserving .*",
               r"Laguerre history sums.*", r"Meixner history chain.*",
               r"non-excedance identity.*")


def test_criterion_13_verify_suite(capsys):
    started = time.monotonic()
    code = cli.main(["verify", "--suite", "all", "--seed", str(SEED)])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < 600, f"verify took {elapsed:.1f}s"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256, out
