"""Self-test of the benchmark itself (under a minute on two cores).

    python3 bench/selftest.py

Checks that a deliberately wrong expected value, in an exact check, in a
recorded output digest or in the first pass's digest that later passes
must match, is counted in ``ops_failed``; that every metric
``BENCHMARK.json`` names appears in the output of an untraced and a traced
run; and that without the program the benchmark exits nonzero and prints
no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1


def wrong_check_is_counted():
    worker.import_program()
    import workloads

    original = workloads.WORKLOADS["grid"]

    def grid_expecting_one_more(seed, workdir):
        ops = original(seed, workdir)
        op = next(op for op in ops if op.label == "weight_sum")
        right = op.check
        op.check = lambda value: right(value - 1)  # expects the true value plus one
        return ops

    workloads.WORKLOADS["grid"] = grid_expecting_one_more
    try:
        result = worker.run_pass("grid", SEED, perf_counter())
    finally:
        workloads.WORKLOADS["grid"] = original
    failed = [op["label"] for op in result["ops"] if not op["ok"]]
    assert result["ops_failed"] == 1 and failed == ["weight_sum"], failed


def wrong_digest_is_counted():
    clean = worker.run_pass("grid", SEED, perf_counter())
    assert clean["ops_failed"] == 0, clean["ops"]
    digests = {op["label"]: op["digest"] for op in clean["ops"]}
    digests["P"] = "0" * 64
    result = worker.run_pass("grid", SEED, perf_counter(), digests=digests)
    failed = [op["label"] for op in result["ops"] if not op["ok"]]
    assert result["ops_failed"] == 1 and failed == ["P"], failed
    # a later pass of a run compares against the first pass's checked output
    result = worker.run_pass("grid", SEED, perf_counter(), same_as=digests)
    failed = [op["label"] for op in result["ops"] if not op["ok"]]
    assert result["ops_failed"] == 1 and failed == ["P"], failed


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def every_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run_bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == names, sorted(set(got) ^ set(names))
        info = json.loads(info_line)
        for key in ("ops_failed", "ops_total", "seed", "why", "python", "nproc", "R1_MEMO_LIMIT"):
            assert key in info, key


def fails_without_the_program():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out", prefix="bare-") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    for test in (wrong_check_is_counted, wrong_digest_is_counted,
                 every_metric_is_reported, fails_without_the_program):
        start = perf_counter()
        test()
        print(f"ok   {test.__name__} ({perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
