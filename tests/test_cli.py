import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import r1poly
from r1poly.cli import main
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
    with pytest.raises(SystemExit) as err:
        main(["moments", "--family", "constant", "--param", "A", "--n", "3"])
    assert err.value.code == 3


def test_missing_source_exits_three(capsys):
    with pytest.raises(SystemExit) as err:
        main(["moments", "--n", "3"])
    assert err.value.code == 3


_BAD_TABLES = {
    "b_not_a_number.json": {"kind": "table", "b": ["x"], "a": ["1"], "lambda": ["1"]},
    "b_zero_denominator.json": {"kind": "table", "b": ["1/0"], "a": ["1"], "lambda": ["1"]},
    "no_lambda.json": {"kind": "table", "b": ["1"], "a": ["1"]},
    "params_not_an_object.json": {"kind": "family", "name": "laguerre", "params": [1]},
}

_BAD_INPUT = [  # (extra environment, argv)
    ({}, "moments --family laguerre --param a=abc --n 3"),
    ({}, "moments --family q_racah --param b=1/3 c=1/5 d=1/7 N=x q=1/2 --n 3"),
    ({}, "paths count --from 0,0 --to a,0"),
    ({}, "moments --family constant --param A=1 B=1 --n 3"),
    ({}, "moments --family nosuch --n 3"),
    ({}, "histories meixner --n 12 --check"),
    ({"R1_MEMO_LIMIT": "5"}, "moments --family laguerre --param a=1 --n 8"),
    ({"R1_MEMO_LIMIT": "20"}, "moments --symbolic --n 8"),
    ({}, "moments --coeffs b_not_a_number.json --n 3"),
    ({}, "moments --coeffs b_zero_denominator.json --n 3"),
    ({}, "moments --coeffs no_lambda.json --n 3"),
    ({}, "moments --coeffs params_not_an_object.json --n 3"),
]


@pytest.mark.parametrize("extra_env, argv", _BAD_INPUT, ids=[
    " ".join([*(f"{k}={v}" for k, v in env.items()), argv]) for env, argv in _BAD_INPUT
])
def test_bad_input_is_one_line_usage_error(extra_env, argv, tmp_path):
    for name, spec in _BAD_TABLES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(r1poly.__file__)))
    env.pop("R1_MEMO_LIMIT", None)
    env.update(extra_env)
    proc = subprocess.run([sys.executable, "-m", "r1poly.cli", *argv.split()],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr

