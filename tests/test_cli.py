import ast
import contextlib
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import r1poly
from r1poly import cli
from r1poly.cli import main
from r1poly.exactmath import parse_scalar, read_scalar
from r1poly.paths import Path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ones_file(tmp_path):
    spec = {"kind": "table", "b": ["1"] * 12, "a": ["1"] * 12, "lambda": ["1"] * 12}
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_moments_table(capsys, ones_file):
    code, out, _ = run(capsys, "moments", "--coeffs", ones_file, "--n", "5")
    assert code == 0
    assert out.strip() == "1 2 7 29 133 650"


def test_moments_family(capsys):
    code, out, _ = run(capsys, "moments", "--family", "constant",
                       "--param", "A=1", "B=1", "C=1", "--n", "5")
    assert code == 0 and out.strip() == "1 2 7 29 133 650"


def test_moments_symbolic(capsys):
    code, out, _ = run(capsys, "moments", "--symbolic", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "b0 + a1"
    assert "lam1" in lines[2]


@pytest.mark.parametrize("argv, digest", [
    ("moments --symbolic --n 7",
     "6f81666583412ee764f8939e28be1b4607d6ffcd38f57e188b13698a0f1d07ee"),
    ("paths sum --symbolic --from 0,2 --to 6,1",
     "dac6683a1ca100d80973835580352f6aca9268351d66a63731be9bfc5783f073"),
])
def test_symbolic_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mu_symbolic_10_text_is_pinned():
    # The term order at scale: 43,377 terms, recorded with the printer that
    # sorted the symbol tuples of every term.
    text = str(r1poly.core.mu_symbolic(10))
    assert len(text) == 1_288_851
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8eee091f21019acbb249305a1034494c520b0db9c10471018ef3e7a0a48279db")


# Recorded before the moment grids ran over scaled integers: laguerre stays
# scaled for every row, jacobi11 leaves the scaled ring mid-fill, and the
# bounded path sum runs the column step from a start off the origin.  The
# little q-Jacobi and Askey-Wilson rows were recorded before a gated walk
# kept each column over one common denominator; both cross the gate within
# their first rows.
@pytest.mark.parametrize("argv, digest", [
    ("moments --family laguerre --param a=8/7 --n 300",
     "104df80832d118ccbce2ede5de20196e2eabff8232af26f9953002b81769eb18"),
    ("moments --family jacobi11 --param a=6/5 b=7/5 --n 120",
     "5abab039a53246f3a5a8c07c8d73aef2f204efdf469c3a8523d4728127637881"),
    ("moments --family little_q_jacobi --param a=4/7 b=5/7 q=1/2 --n 100",
     "98b4cb388c24dec338f909f6f6f11aa2a43622c98a62c07bd2bd6174175dfe49"),
    ("moments --family askey_wilson --param a=1/3 b=1/13 c=1/11 d=1/5 q=1/2 --n 80",
     "f7e387ab3af1a12c046e80f3a5132e295b962d9ddfedf1a15587b893f47bdbe5"),
])
def test_rational_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Recorded before P_n ran over scaled integers: laguerre stays scaled for
# every row, jacobi11 leaves the scaled ring at index 17, and little q-Jacobi
# crosses the gate within its first rows.
@pytest.mark.parametrize("argv, digest", [
    ("poly --family laguerre --param a=8/7 --n 150",
     "a1fa93f96920f54b6b72f0cd59960c665fbb304722ccaa37205bef6d8ce49057"),
    ("poly --family jacobi11 --param a=6/5 b=7/5 --n 80",
     "e8674fff3e93e0d672e7614dce4d76996d5642ceaa6571d9ad3384526ded0c7f"),
    ("poly --family little_q_jacobi --param a=4/7 b=5/7 q=1/2 --n 60",
     "97713877f1ccaed303b039256fb09c6de24b197aa859ce16dd612424cbb7a03e"),
    # recorded while P kept Fraction rows past the gate and scaled rows below it
    ("poly --family little_q_jacobi --param a=4/7 b=5/7 q=1/2 --n 100",
     "5fd2c1e923cc6a0299b94006e89e14ee00be0e67f1ed0ade1abf6b4b89084484"),
    ("poly --family askey_wilson --param a=1/3 b=1/5 c=1/7 d=1/11 q=1/2 --n 40",
     "6d38577f20452eef71e3d086814fa4d6a67eb277fbb8c0e31833bb63efccb58c"),
    ("poly --family constant --param A=8/7 B=9/7 C=10/7 --n 200",
     "2836d637e4c4abf14dfb7eb4104db091cb7345940c179b02a4ae989867175547"),
])
def test_recurrence_polynomials_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Recorded before the history checks streamed: they guard the enumeration
# order and the images of phi and psi.
@pytest.mark.parametrize("argv, digest", [
    ("histories meixner --n 5 --map --format json",
     "a7c669f3ac4b50f2cd5e7f4a15588562d52a0748912a5e9ac220c10ee4bca078"),
    ("histories laguerre --n 6 --map",
     "4d37d8af07b074327c4a810ee488fcb0709a9c853791d39c44137d04b9e2378e"),
])
def test_history_maps_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Recorded before the kinds were mapped to their reports through one table:
# every kind on a random-looking table, and the constant family's Hankel rows,
# which read A, B and C from the loaded system.
_DET_TABLE = {
    "kind": "table",
    "b": ["1/2", "-1/3", "2/5", "1", "-3/4", "1/7", "2", "1/3", "-1", "3/2", "1/5", "-2/3"],
    "a": ["0", "1", "2/3", "-1/2", "3/5", "1", "-2", "5/7", "1/4", "3", "-1/3", "2"],
    "lambda": ["0", "1/3", "1/2", "-1", "2/7", "1/5", "3", "-1/4", "2", "1/6", "-3/5", "1"],
}


# A table whose Hankel matrices have vanishing leading minors: H_1 = H_3 = 0
# for mu, H_1 = 0 for nu_{k,3} and for nu_{1+k,4}.  Its rows and the
# jacobi01 rows were recorded before the Hankel kinds ran the Chebyshev
# algorithm; on this table they take its det_exact fallback.
_DET_FALLBACK_TABLE = {
    "kind": "table",
    "b": ["0", "-1", "1", "1/2", "1", "0", "-1/2", "-1", "1/2", "-1", "0", "1", "-1/2", "2",
          "-2", "0"],
    "a": ["0", "-1/2", "-1", "1/2", "1/2", "-1/2", "1", "-2", "2", "1", "-2", "-1", "-1", "1/2",
          "1", "1"],
    "lambda": ["0", "-1", "1/2", "0", "0", "-1", "1", "2", "0", "1/2", "0", "1", "0", "1/2",
               "1/2", "2"],
}


# A table with P_3(-lam_3/a_3) = 0: every kind whose matrix reads column 3
# of the nu grid names that degeneracy in its rows.
_DET_ROOT_TABLE = {
    "kind": "table",
    "b": ["-1", "2", "1/2", "1/2", "0", "1/2", "0", "0", "1/2"],
    "a": ["0", "2", "-1", "-1", "2", "-1", "1", "1/2", "-1"],
    "lambda": ["0", "-1", "1/2", "0", "2", "2", "2", "0", "-1"],
}

# Cut to valid_to = 4, the same table also rejects mu_5.  Each row names the
# error its entries meet first, so this pins the order the matrices are read:
# row by row, the n = 5 rows of dprime and tprime meet P_3 before mu_5.
_DET_SHORT_ROOT_TABLE = {key: value[:5] if isinstance(value, list) else value
                         for key, value in _DET_ROOT_TABLE.items()}

_DET_TABLES = {"table.json": _DET_TABLE, "fallback.json": _DET_FALLBACK_TABLE,
               "root.json": _DET_ROOT_TABLE, "short_root.json": _DET_SHORT_ROOT_TABLE}
_ALL_KINDS = "hankel,prime,dprime,tprime,shifted-prime,shifted-dprime,shifted-tprime"


# The exit-2 rows were recorded before the three bases were read from one
# table: they pin where each error row falls and what it says.
_DET_PINS = [  # (argv, exit code, SHA-256 of stdout)
    (f"dets --coeffs table.json --kinds {_ALL_KINDS} --n 5 --format json", 0,
     "045f61c580b5fc8d96092913edc305cae8d59e7dee3f4a4e6b76a72cd296f9fd"),
    (f"dets --coeffs table.json --kinds {_ALL_KINDS} --n 8 --format json", 2,
     "ec9c161982ac214fc2fa379c59604c0fbcf49f69a5562ac4623e5d4b16e1b90a"),
    (f"dets --coeffs root.json --kinds {_ALL_KINDS} --n 5", 2,
     "961cc03fe085355b2c4328b5ecee858b964aefd969099739aad3f0905e778519"),
    (f"dets --coeffs short_root.json --kinds {_ALL_KINDS} --n 5", 2,
     "5c77c72ae99bbde49eab5ae09e89d8e22140e99e78b5c5bdf8ab39d2581a26b8"),
    ("dets --kinds hankel --family constant --param A=2/3 B=-1/2 C=3/4 --n 6", 0,
     "79329c4422246468d0334cbfe4ccdd2b8098ce9468cab4ea4b9a984f209a7233"),
    ("dets --family jacobi01 --param a=6/5 b=7/5 --kinds hankel,prime,shifted-prime --n 14 "
     "--format json", 0,
     "e3f451e91c720275aad438bd32e500a8bd2bb70fe73a81491681fe98dc1a73c8"),
    ("dets --coeffs fallback.json --kinds hankel,prime,shifted-prime --n 7 --format json", 0,
     "1ed43fbcc4f16c25fd9906e95ce3f08ff7637c806542249577a60d8033963c5e"),
]


@pytest.mark.parametrize("argv, exit_code, digest", _DET_PINS,
                         ids=[f"{argv}-{digest}" for argv, _, digest in _DET_PINS])
def test_dets_output_is_pinned(capsys, tmp_path, argv, exit_code, digest):
    for name, spec in _DET_TABLES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    code, out, _ = run(capsys, *(str(tmp_path / a) if a in _DET_TABLES else a
                                 for a in argv.split()))
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_poly_det_names_the_vanishing_root_value(capsys, tmp_path):
    (tmp_path / "root.json").write_text(json.dumps(_DET_ROOT_TABLE))
    code, out, err = run(capsys, "poly", "--coeffs", str(tmp_path / "root.json"),
                         "--method", "det", "--n", "3")
    assert (code, out, err) == (2, "", "error: degenerate system: P_3(-lam_3/a_3) = 0\n")


def test_dets_reports_the_first_failing_entry_past_the_fallback(capsys, tmp_path):
    # mu_16 is the first entry the n = 8 Hankel matrix cannot read; H_1 = 0
    # sends that size to the fallback, and the row names the same index.  The
    # rows below it still come from the moments before it, and every larger
    # size names the same entry.
    (tmp_path / "fallback.json").write_text(json.dumps(_DET_FALLBACK_TABLE))
    code, out, _ = run(capsys, "dets", "--coeffs", str(tmp_path / "fallback.json"),
                       "--kinds", "hankel", "--n", "10")
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    cs = r1poly.coeffs_from_spec(_DET_FALLBACK_TABLE)
    assert [(r["n"], r["computed"]) for r in rows[:7]] == [
        (n, str(r1poly.hankel(n, cs))) for n in range(1, 8)]
    assert rows[7:] == [{
        "n": n, "kind": "hankel",
        "error": "hypothesis violated: coefficient index 16 beyond valid_to=15"} for n in (8, 9, 10)]


def test_dets_checks_every_kind_before_computing(capsys, monkeypatch):
    from r1poly import determinants

    def never(*args):
        raise AssertionError("a report was computed before the kinds were checked")

    monkeypatch.setattr(determinants, "delta_prime", never)
    code, out, err = run(capsys, "dets", "--family", "jacobi01", "--param", "a=6/5", "b=7/5",
                         "--kinds", "prime,bogus", "--n", "30")
    assert code == 3 and out == ""
    assert err == ("error: unknown determinant kind 'bogus'; known: hankel,prime,dprime,tprime,"
                   "shifted-prime,shifted-dprime,shifted-tprime\n")


@pytest.mark.parametrize("kind, name, args", [
    ("prime", "delta_prime", ()),
    ("dprime", "delta_dprime", ()),
    ("tprime", "delta_tprime", ()),
    ("shifted-prime", "delta_shifted", ("prime",)),
    ("shifted-dprime", "delta_shifted", ("dprime",)),
    ("shifted-tprime", "delta_shifted", ("tprime",)),
])
def test_dets_kind_runs_its_module_report(capsys, monkeypatch, kind, name, args):
    from r1poly import determinants

    calls = []

    def patched(*call):
        calls.append(call)
        return determinants.DetReport(len(calls), "patched", 1, 1)

    monkeypatch.setattr(determinants, name, patched)
    code, out, _ = run(capsys, "dets", "--family", "jacobi01", "--param", "a=6/5", "b=7/5",
                       "--kinds", kind, "--n", "3")
    assert code == 0
    assert [json.loads(line)["kind"] for line in out.splitlines()] == ["patched"] * 3
    shift = (1,) if name == "delta_shifted" else ()
    assert [call[:-1] for call in calls] == [(*args, n, *shift) for n in (1, 2, 3)]


def test_dets_constant_hankel_is_the_same_from_a_family_spec(capsys, tmp_path):
    spec = {"kind": "family", "name": "constant", "params": {"A": "2/3", "B": "-1/2", "C": "3/4"}}
    (tmp_path / "constant.json").write_text(json.dumps(spec))
    _, from_file, _ = run(capsys, "dets", "--coeffs", str(tmp_path / "constant.json"),
                          "--kinds", "hankel", "--n", "4")
    code, from_family, _ = run(capsys, "dets", "--kinds", "hankel", "--family", "constant",
                               "--param", "A=2/3", "B=-1/2", "C=3/4", "--n", "4")
    assert code == 0 and from_file == from_family
    assert all(json.loads(line)["matched"] for line in from_family.splitlines())


def test_q_racah_N_is_read_as_a_scalar(capsys, tmp_path):
    params = ["b=1/3", "c=1/5", "d=1/7", "q=1/2"]
    code, want, _ = run(capsys, "moments", "--family", "q_racah", "--param", *params, "N=4",
                        "--n", "2")
    assert code == 0 and want
    code, out, _ = run(capsys, "moments", "--family", "q_racah", "--param", *params, "N=4/1",
                       "--n", "2")
    assert code == 0 and out == want
    spec = {"kind": "family", "name": "q_racah", "params": {
        "b": "1/3", "c": "1/5", "d": "1/7", "N": "4/1", "q": "1/2"}}
    (tmp_path / "q_racah.json").write_text(json.dumps(spec))
    code, out, _ = run(capsys, "moments", "--coeffs", str(tmp_path / "q_racah.json"), "--n", "2")
    assert code == 0 and out == want


def test_bounded_path_sum_is_pinned(capsys):
    code, out, _ = run(capsys, "paths", "sum", "--family", "meixner", "--param", "b=3/2",
                       "c=1/3", "--from", "1,2", "--to", "14,1", "--max-height", "4")
    assert code == 0 and out == "106457252894187369/33554432\n"


def test_poly_methods_agree(capsys, ones_file):
    outputs = []
    for method in ("recurrence", "tiling", "det"):
        code, out, _ = run(capsys, "poly", "--coeffs", ones_file, "--n", "4",
                           "--method", method, "--format", "json")
        assert code == 0
        outputs.append(json.loads(out)["coefficients"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_functional_orthogonality(capsys, ones_file):
    code, out, _ = run(capsys, "functional", "--coeffs", ones_file, "--expr", "Q_3")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "functional", "--coeffs", ones_file, "--expr", "x^3*Q_2")
    assert code == 0
    code, out, _ = run(capsys, "functional", "--coeffs", ones_file, "--expr", "P_2*Q_2")
    assert code == 0 and out.strip() == "1"


# Recorded while L decomposed its argument by polynomial division, before it
# read the nu column: a gated table, x^40 over d_20.
def test_functional_at_large_m_is_pinned(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "jacobi01", "--param", "a=6/5", "b=7/5",
                       "--emit", "coeffs", "--n", "80")
    assert code == 0
    table = tmp_path / "jacobi01.json"
    table.write_text(out)
    code, out, _ = run(capsys, "functional", "--coeffs", str(table), "--expr", "x^40*Q_20")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e93265cf8103ced967753fe717c2d4d48c2ea72137a079e52667409d6a335f2e")


def test_functional_on_a_degenerate_table_exits_two(capsys, tmp_path):
    # P_1(-lam_1/a_1) = 0: no functional has L(1) = 1 and L(Q_1) = 0
    table = tmp_path / "degenerate.json"
    table.write_text(json.dumps({"kind": "table", "b": ["0", "0", "0"],
                                 "a": ["0", "1", "1"], "lambda": ["0", "0", "0"]}))
    code, out, err = run(capsys, "functional", "--coeffs", str(table), "--expr", "Q_1")
    assert code == 2 and out == ""
    assert err == "error: degenerate system: P_1(-lam_1/a_1) = 0\n"


def test_functional_rejects_double_denominator(capsys, ones_file):
    code, _, err = run(capsys, "functional", "--coeffs", ones_file, "--expr", "Q_2*Q_3")
    assert code == 3 and "outside V" in err


def test_paths_count_and_sum(capsys, ones_file):
    code, out, _ = run(capsys, "paths", "count", "--from", "0,0", "--to", "4,0")
    assert code == 0 and out.strip() == "133"
    code, out, _ = run(capsys, "paths", "sum", "--coeffs", ones_file,
                       "--from", "0,0", "--to", "4,0")
    assert code == 0 and out.strip() == "133"
    code, out, _ = run(capsys, "paths", "sum", "--symbolic", "--from", "0,0", "--to", "1,0")
    assert code == 0 and out.strip() == "b0 + a1"


def test_paths_enumerate_json_roundtrip(capsys, ones_file):
    code, out, _ = run(capsys, "paths", "enumerate", "--coeffs", ones_file,
                       "--from", "0,0", "--to", "2,0", "--format", "json")
    assert code == 0
    rows = json.loads(out)["paths"]
    assert len(rows) == 7
    for row in rows:
        p = Path.parse(row["path"])
        assert p.end == (2, 0)
        assert Fraction(row["weight"]) == 1


def test_dets_constant_hankel(capsys):
    code, out, _ = run(capsys, "dets", "--kinds", "hankel", "--family", "constant",
                       "--param", "A=1", "B=1", "C=1", "--n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["reports"]
    assert [r["predicted"] for r in rows] == ["3", "27", "729"]
    assert all(r["matched"] for r in rows)


def test_dets_factorizations(capsys, ones_file):
    code, out, _ = run(capsys, "dets", "--coeffs", ones_file,
                       "--kinds", "prime,dprime,tprime,shifted-prime", "--n", "4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["reports"]
    assert rows and all(r["matched"] for r in rows)


def test_family_emit_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "laguerre", "--param", "a=5/2",
                       "--emit", "coeffs", "--n", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3c90c2533289de1c2be0af0dc17d79dede8e2e481574b93dec77cb5b5697de7b")
    spec = json.loads(out)
    assert spec["kind"] == "table"
    coeff_file = tmp_path / "laguerre.json"
    coeff_file.write_text(out)
    code, through_table, _ = run(capsys, "moments", "--coeffs", str(coeff_file), "--n", "6")
    code2, through_family, _ = run(capsys, "family", "laguerre", "--param", "a=5/2",
                                   "--emit", "moments", "--n", "6")
    assert code == code2 == 0
    assert through_table.strip() == through_family.strip()


def test_family_degenerate_params(capsys):
    code, _, err = run(capsys, "family", "jacobi11",
                       "--param", "a=-1/2", "b=-1/2", "--emit", "coeffs")
    assert code == 2 and "degenerate" in err


def test_family_a_zero_matches_its_table(capsys, tmp_path):
    # jacobi11 at b = -3 has a_3 = 0: moments need no division by a_n, Q_3 does
    params = ("--family", "jacobi11", "--param", "a=5/2", "b=-3")
    code, out, _ = run(capsys, "family", *params[1:], "--emit", "coeffs", "--n", "12")
    assert code == 0 and json.loads(out)["a"][3] == "0"
    table = tmp_path / "jacobi11.json"
    table.write_text(out)
    code, through_family, _ = run(capsys, "moments", *params, "--n", "10")
    code2, through_table, _ = run(capsys, "moments", "--coeffs", str(table), "--n", "10")
    assert code == code2 == 0 and through_family == through_table
    code, _, err = run(capsys, "functional", *params, "--expr", "Q_3")
    assert code == 2 and err == "error: a_3 = 0: system violates the standing assumption\n"


def test_histories_check(capsys):
    code, out, _ = run(capsys, "histories", "laguerre", "--n", "4", "--check")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "histories", "meixner", "--n", "3", "--check")
    assert code == 0 and "ok" in out


def test_histories_map_json(capsys):
    code, out, _ = run(capsys, "histories", "laguerre", "--n", "3", "--map",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["histories"]
    assert len(rows) == 6
    assert all("image" in r for r in rows)


def _traced_peak(argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_histories_map_text_mode_keeps_no_rows():
    # JSON mode builds its whole payload (5040 rows at n = 7); text mode
    # prints each row as it is built
    argv = ["histories", "laguerre", "--n", "7", "--map"]
    assert 10 * _traced_peak(argv) < _traced_peak(argv + ["--format", "json"])


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "histories", "--seed", "42")
    code2, out2, _ = run(capsys, "verify", "--suite", "histories", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed 42" in out1


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 3
    assert main(["moments", "--family", "constant", "--param", "A", "--n", "3"]) == 3


def test_missing_source_exits_three(capsys):
    assert main(["moments", "--n", "3"]) == 3


_DEGENERATE_INPUT = [
    "functional --family jacobi11 --param a=-61/2 b=1/2 --expr x^40",
    "functional --family jacobi11 --param a=1 b=-3 --expr P_3",
    "family meixner --param b=2 c=1",
    "moments --family meixner --param b=2 c=1 --n 3",
]


def _run_cli(argv, cwd, extra_env=None):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(r1poly.__file__)))
    env.pop("R1_MEMO_LIMIT", None)
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "-m", "r1poly.cli", *argv.split()],
                          cwd=cwd, capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv", _DEGENERATE_INPUT)
def test_degenerate_parameters_exit_two(argv, tmp_path):
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: degenerate parameters"), proc.stderr


_BAD_TABLES = {
    "b_not_a_number.json": {"kind": "table", "b": ["x"], "a": ["1"], "lambda": ["1"]},
    "b_zero_denominator.json": {"kind": "table", "b": ["1/0"], "a": ["1"], "lambda": ["1"]},
    "no_lambda.json": {"kind": "table", "b": ["1"], "a": ["1"]},
    "params_not_an_object.json": {"kind": "family", "name": "laguerre", "params": [1]},
    "name_not_a_string.json": {"kind": "family", "name": ["laguerre"], "params": {"a": "1"}},
    "q_racah_half_N.json": {"kind": "family", "name": "q_racah", "params": {
        "b": "1/3", "c": "1/5", "d": "1/7", "N": "9/2", "q": "1/2"}},
}

_BAD_INPUT = [  # (extra environment, argv)
    ({}, "moments --family laguerre --param a=abc --n 3"),
    ({}, "moments --family q_racah --param b=1/3 c=1/5 d=1/7 N=x q=1/2 --n 3"),
    ({}, "moments --family q_racah --param b=1/3 c=1/5 d=1/7 N=9/2 q=1/2 --n 2"),
    ({}, "paths count --from 0,0 --to a,0"),
    ({}, "paths count --from 0,-1 --to 2,0"),
    ({}, "paths enumerate --from 0,0 --to 2,-3"),
    ({}, "paths sum --symbolic --from 0,-1 --to 2,0"),
    ({}, "moments --symbolic --n -2"),
    ({}, "moments --symbolic --n 13"),
    ({}, "paths sum --symbolic --from 0,0 --to 13,0"),
    ({}, "paths sum --symbolic --from 0,6 --to 12,0"),
    ({}, "moments --family laguerre --param a=1 --n -2"),
    ({}, "family laguerre --param a=1 --emit moments --n -1"),
    ({}, "paths count --from 0,0 --to 2,0 --max-height -1"),
    ({}, "paths enumerate --from 0,0 --to 2,0 --max-height -1"),
    ({}, "paths sum --symbolic --from 0,0 --to 2,0 --max-height -1"),
    ({}, "dets --family constant --param A=1 B=1 C=1 --n -1"),
    ({}, "poly --family laguerre --param a=1 --n -1"),
    ({}, "poly --family laguerre --param a=1 --n -1 --method tiling"),
    ({}, "moments --family constant --param A=1 B=1 --n 3"),
    ({}, "moments --family nosuch --n 3"),
    ({}, "histories meixner --n 12 --check"),
    ({"R1_MEMO_LIMIT": "5"}, "moments --family laguerre --param a=1 --n 8"),
    ({"R1_MEMO_LIMIT": "20"}, "moments --symbolic --n 8"),
    ({"R1_MEMO_LIMIT": "3"}, "poly --family laguerre --param a=1 --n 6"),
    ({"R1_MEMO_LIMIT": "abc"}, "moments --family laguerre --param a=1 --n 5"),
    ({"R1_MEMO_LIMIT": "-1"}, "moments --family laguerre --param a=1 --n 5"),
    ({}, "moments --coeffs b_not_a_number.json --n 3"),
    ({}, "moments --coeffs b_zero_denominator.json --n 3"),
    ({}, "moments --coeffs no_lambda.json --n 3"),
    ({}, "moments --coeffs params_not_an_object.json --n 3"),
    ({}, "moments --coeffs name_not_a_string.json --n 3"),
    ({}, "moments --coeffs q_racah_half_N.json --n 3"),
    ({}, "moments --coeffs . --n 3"),
    ({}, "poly --family laguerre --param a=1 --n 25 --method tiling"),
    ({}, "poly --family laguerre --param a=1 --n 13 --method tiling"),
]


@pytest.mark.parametrize("extra_env, argv", _BAD_INPUT, ids=[
    " ".join([*(f"{k}={v}" for k, v in env.items()), argv]) for env, argv in _BAD_INPUT
])
def test_bad_input_is_one_line_usage_error(extra_env, argv, tmp_path):
    for name, spec in _BAD_TABLES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    proc = _run_cli(argv, tmp_path, extra_env)
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_symbolic_verbs_are_capped_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("symbolic work started")

    monkeypatch.setattr(cli, "mu_symbolic", no_work)
    monkeypatch.setattr(cli.paths, "symbolic_weights", no_work)
    assert r1poly.core.SYMBOLIC_CAP == 12
    assert run(capsys, "moments", "--symbolic", "--n", "13") == (
        3, "", "error: symbolic moments need --n <= 12\n")
    assert run(capsys, "paths", "sum", "--symbolic", "--from", "2,3", "--to", "12,0") == (
        3, "", "error: symbolic path sums need x-span + start height <= 12\n")
    for argv in ("moments --symbolic --n 12", "paths sum --symbolic --from 2,3 --to 11,0"):
        with pytest.raises(AssertionError, match="symbolic work started"):
            main(argv.split())


def test_coefficient_past_a_table_exits_two_whichever_factor_reads_it(capsys, tmp_path):
    path = tmp_path / "one_row.json"
    path.write_text(json.dumps({"kind": "table", "b": ["1"], "a": ["1"], "lambda": ["1"]}))
    for expr in ("x^5", "P_5"):
        code, _, err = run(capsys, "functional", "--coeffs", str(path), "--expr", expr)
        assert (code, err) == (2, "error: coefficient index 1 beyond valid_to=0\n"), expr


def test_dets_family_coefficient_division_by_zero_is_an_error_row(capsys):
    code, out, err = run(capsys, "dets", "--family", "jacobi01", "--param", "a=-9/2", "b=1/2",
                         "--kinds", "prime", "--n", "6")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and err == ""
    assert [r["n"] for r in rows] == list(range(1, 7))
    assert all(r["matched"] for r in rows[:2])
    assert all("a_3 divides by zero" in r["error"] for r in rows[2:])


def test_path_overflow_exits_three(capsys, monkeypatch):
    # only `enumerate` builds paths; a real overflow (`--to 11,0`) enumerates
    # for seconds before the cap trips
    def overflow(*args, **kwargs):
        raise r1poly.paths.PathOverflowError("more than cap=1000000 paths")

    monkeypatch.setattr(r1poly.paths, "enumerate_paths", overflow)
    code, out, err = run(capsys, "paths", "enumerate", "--from", "0,0", "--to", "11,0")
    assert (code, out, err) == (3, "", "error: more than cap=1000000 paths\n")


def test_path_count_is_the_enumeration_length(capsys):
    for start in itertools.product(range(3), range(3)):
        for end in itertools.product(range(6), range(4)):
            for height in (None, 0, 1, 2, 3):
                argv = ["paths", "count", "--from", "%d,%d" % start, "--to", "%d,%d" % end]
                if height is not None:
                    argv += ["--max-height", str(height)]
                want = len(r1poly.enumerate_paths(start, end, max_height=height))
                assert run(capsys, *argv) == (0, f"{want}\n", ""), argv


def test_path_count_has_no_cap(capsys):
    # past the enumeration cap of 10^6 paths
    code, out, _ = run(capsys, "paths", "count", "--from", "0,0", "--to", "11,0",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"count": 16487795}


# One parameter set per family, values as the --param strings.
_FAMILY_PARAMS = {
    "jacobi11": {"a": "1/3", "b": "2/5", "variant": "plus"},
    "jacobi01": {"a": "6/5", "b": "7/5", "variant": "xpow"},
    "laguerre": {"a": "5/2"},
    "meixner": {"b": "3/2", "c": "1/3"},
    "little_q_jacobi": {"a": "4/7", "b": "5/7", "q": "1/2"},
    "big_q_jacobi": {"a": "1/3", "b": "1/5", "c": "1/7", "q": "1/2", "variant": "ashift"},
    "askey_wilson": {"a": "1/3", "b": "1/13", "c": "1/11", "d": "1/5", "q": "1/2"},
    "q_racah": {"b": "1/3", "c": "1/5", "d": "1/7", "N": "4/1", "q": "1/2"},
    "constant": {"A": "2/3", "B": "-1/2", "C": "3/4"},
    "r1_hermite": {"a": "3/2"},
}


def test_family_params_and_family_spec_are_one_system(capsys, tmp_path):
    assert set(_FAMILY_PARAMS) == set(r1poly.families.FAMILY_BUILDERS)
    for name, params in _FAMILY_PARAMS.items():
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"kind": "family", "name": name, "params": params}))
        code, from_params, _ = run(capsys, "moments", "--family", name, "--param",
                                   *(f"{k}={v}" for k, v in params.items()), "--n", "3")
        assert code == 0, name
        assert run(capsys, "moments", "--coeffs", str(spec), "--n", "3") == (0, from_params, "")


@pytest.mark.parametrize("params, fragment", [
    (["a=x"], "bad scalar 'x' in a: "),
    ({"a": None}, "bad scalar None in a: "),
    ({"a": [1]}, "bad scalar [1] in a: "),
    (["a=1", "z=2"], "unexpected keyword argument 'z'"),
    ({"a": "1", "z": "2"}, "unexpected keyword argument 'z'"),
])
def test_bad_family_parameter_is_named(capsys, tmp_path, params, fragment):
    if isinstance(params, dict):
        spec = tmp_path / "laguerre.json"
        spec.write_text(json.dumps({"kind": "family", "name": "laguerre", "params": params}))
        argv = ["moments", "--coeffs", str(spec), "--n", "3"]
    else:
        argv = ["moments", "--family", "laguerre", "--param", *params, "--n", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert err.startswith("error: ") and fragment in err, err


def test_bad_variant_and_N_are_named(capsys, tmp_path):
    spec = tmp_path / "jacobi11.json"
    spec.write_text(json.dumps({"kind": "family", "name": "jacobi11",
                                "params": {"a": "1/3", "b": "2/5", "variant": 3}}))
    code, _, err = run(capsys, "moments", "--coeffs", str(spec), "--n", "3")
    assert (code, err) == (3, "error: unknown jacobi11 variant 3\n")
    params = [f"{k}={v}" for k, v in _FAMILY_PARAMS["q_racah"].items() if k != "N"]
    code, _, err = run(capsys, "moments", "--family", "q_racah", "--param", *params, "N=9/2",
                       "--n", "3")
    assert (code, err) == (3, "error: family q_racah: N must be an integer, got 9/2\n")


def test_family_emit_clamps_to_valid_to_and_reads_back(capsys, tmp_path):
    params = [f"{k}={v}" for k, v in _FAMILY_PARAMS["q_racah"].items()]
    code, out, _ = run(capsys, "family", "q_racah", "--param", *params, "--emit", "coeffs",
                       "--n", "10")
    table = json.loads(out)
    assert code == 0 and [len(table[k]) for k in ("b", "a", "lambda")] == [4, 4, 4]
    assert table["a"][0] == table["lambda"][0] == "0"
    (tmp_path / "q_racah.json").write_text(out)
    for n in ("3", "4"):  # mu_4 reads index 4, past valid_to = N - 1 = 3
        assert (run(capsys, "moments", "--coeffs", str(tmp_path / "q_racah.json"), "--n", n)
                == run(capsys, "moments", "--family", "q_racah", "--param", *params, "--n", n))


def _error_classes(cls=BaseException):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("r1poly"):
            yield sub
        yield from _error_classes(sub)


def test_every_package_error_has_an_exit_code():
    found = set(_error_classes())
    assert {"CoeffError", "MemoLimitError", "PathOverflowError", "PQUniqueError"} <= {
        c.__name__ for c in found}
    for cls in found:
        assert issubclass(cls, cli._DEGENERATE + cli._BAD_INPUT), cls


# Python refuses int <-> str past sys.get_int_max_str_digits() (4300) digits;
# the largest of these moments has about 20,000 bits, over 6,000 digits.
_LONG_MOMENTS = "moments --family little_q_jacobi --param a=4/7 b=5/7 q=1/2 --n 200"


@pytest.fixture(scope="module")
def long_moments():
    cs = r1poly.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    return [r1poly.mu(k, cs) for k in range(201)]


def test_moments_past_the_int_string_limit_reach_the_wire(capsys, long_moments):
    code, out, err = run(capsys, *_LONG_MOMENTS.split())
    assert (code, err) == (0, "")
    words = out.split()
    assert max(map(len, words)) > sys.get_int_max_str_digits()
    assert [read_scalar(w, "stdout") for w in words] == long_moments


def test_moments_past_the_int_string_limit_in_json(capsys, long_moments):
    code, out, _ = run(capsys, *_LONG_MOMENTS.split(), "--format", "json")
    assert code == 0
    assert [read_scalar(w, "json") for w in json.loads(out)["moments"]] == long_moments


def test_dets_past_the_int_string_limit_in_json(capsys):
    code, out, _ = run(capsys, *"dets --family little_q_jacobi --param a=4/7 b=5/7 q=1/2 "
                               "--kinds prime --n 25 --format json".split())
    assert code == 0
    last = json.loads(out)["reports"][-1]
    assert last["matched"] and last["computed"] == last["predicted"]
    assert len(last["computed"]) > sys.get_int_max_str_digits()


def test_path_sum_past_the_int_string_limit(capsys, long_moments):
    # mu_170 of little q-Jacobi has about 4,400 digits over 4,400 digits
    code, out, _ = run(capsys, *"paths sum --family little_q_jacobi --param a=4/7 b=5/7 "
                               "q=1/2 --from 0,0 --to 170,0".split())
    assert code == 0 and read_scalar(out.strip(), "stdout") == long_moments[170]


def test_path_weights_past_the_int_string_limit(capsys):
    # the one path from (0,200) to (0,0) is 200 V steps, weighing a_1...a_200
    argv = ("paths {} --family little_q_jacobi --param a=4/7 b=5/7 q=1/2 "
            "--from 0,200 --to 0,0")
    code, out, _ = run(capsys, *argv.format("sum").split())
    assert code == 0
    total = parse_scalar(out)
    cs = r1poly.little_q_jacobi(Fraction(4, 7), Fraction(5, 7), Fraction(1, 2)).build()
    ws = r1poly.WeightSystem(cs)
    code, text, err = run(capsys, *argv.format("enumerate").split())
    assert (code, err) == (0, "")
    text_rows = [json.loads(line) for line in text.splitlines()]
    code, out, _ = run(capsys, *argv.format("enumerate").split(), "--format", "json")
    assert code == 0
    json_rows = json.loads(out)["paths"]
    assert text_rows == json_rows and len(json_rows) == 1
    assert len(json_rows[0]["weight"]) > sys.get_int_max_str_digits()
    weights = [parse_scalar(row["weight"]) for row in json_rows]
    assert weights == [Path.parse(row["path"]).weight(ws) for row in json_rows]
    assert sum(weights) == total


def test_a_long_bad_scalar_is_one_short_line(capsys, tmp_path):
    bad = "1" * 5000 + ".5"
    with pytest.raises(ValueError) as info:
        read_scalar(bad, "wire")
    message = str(info.value)
    limit = sys.get_int_max_str_digits()
    assert message == (f"bad scalar '{'1' * 20}'… (5001 digits) in wire: "
                       f"past {limit} digits only a plain p or p/q is read")
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"kind": "table", "b": [bad], "a": ["1"], "lambda": ["1"]}))
    code, out, err = run(capsys, "moments", "--coeffs", str(path), "--n", "1")
    assert (code, out) == (3, "")
    assert err == "error: " + message.replace(" in wire:", " in b:") + "\n"


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    argv = "verify --suite bounded --seed 1"
    code, out, _ = run(capsys, *argv.split())
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(r1poly.__file__)))
    done = subprocess.run([sys.executable, "-m", "r1poly", *argv.split()], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (code, out)


def test_cli_reads_no_private_name_of_another_module():
    # the names cli.py binds to r1poly modules and to what they export
    with open(cli.__file__) as f:
        tree = ast.parse(f.read())
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("r1poly")):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    private.append(alias.name)
    assert {"core", "histories", "paths"} <= bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                private.append(ast.unparse(node))
    assert not private
