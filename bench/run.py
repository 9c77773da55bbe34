"""r1poly benchmark: time to exact answers, set-up, memory, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --workload NAME --record-digests 1-10

Each pass runs in a fresh interpreter (``worker.py``): set-up, then the
workload's ops back to back with one caller, then the output checks.  The
first pass runs the exact checks; every later pass of the run must produce
byte-identical output.  Passes repeat until the run would overshoot
``--seconds`` by more than half a pass; there is always at least one, and
with ``--trace 1`` at least one untraced and one traced, alternating.  A few
set-up-only interpreters are started first as well.  Medians over the passes
are reported.  The last stdout line is the JSON result; the line before it
records the inputs and per-op times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("grid", "families", "symbolic", "histories")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
         "ops_failed": "count", "ops_total": "count"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("R1_MEMO_LIMIT", None)  # the memo cap stays unset, as for a default user
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every pass
    # Load modules from cached bytecode, as an installed package does, rather
    # than compiling them in every pass's set-up; the cache stays in the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def run_child(workload: str, seed: int, trace: bool = False, setup_only: bool = False,
              same_as: Path | None = None) -> dict:
    t0 = perf_counter()
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--t0", repr(t0)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    argv += ["--same-as", str(same_as)] * (same_as is not None)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = perf_counter() - t0
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    setups = [run_child(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [run_child(workload, seed)], []
    checked = {op["label"]: op["digest"] for op in plain[0]["ops"] if op["ok"]}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("w", dir=OUT_DIR, prefix="checked-", suffix=".json") as fh:
        json.dump(checked, fh)
        fh.flush()
        while True:
            done = plain + traced
            typical = statistics.median(r["elapsed_s"] for r in done)
            if (traced or not trace) and perf_counter() - start + typical / 2 > seconds:
                break
            want_traced = trace and len(traced) < len(plain)
            (traced if want_traced else plain).append(
                run_child(workload, seed, trace=want_traced, same_as=Path(fh.name)))
    done = plain + traced
    result = {
        "workload": workload,
        "seed": seed,
        "why": why(workload),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "ops_total": sum(r["ops_total"] for r in done),
        "ops_failed": sum(r["ops_failed"] for r in done),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups) + len(plain),
        "ops": op_summary(plain),
        "failures": [f"{op['label']}: {op['error'] or 'check failed'}"
                     for r in done for op in r["ops"] if not op["ok"]],
    }
    if trace:
        per_layer = {}
        for name, (_, unit) in traced[0]["per_layer"].items():
            per_layer[name] = (statistics.median(r["per_layer"][name][0] for r in traced), unit)
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"][0] - result["wall_s"], "s")
        result["per_layer"] = per_layer
    return result


def why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def op_summary(passes: list[dict]) -> dict:
    labels = [op["label"] for op in passes[0]["ops"]]
    return {label: statistics.median(op["seconds"] for r in passes for op in r["ops"]
                                     if op["label"] == label) for label in labels}


def contract_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {name: (result[name], UNITS[name]) for name in ("wall_s", "setup_s", "peak_rss_mib")}
    return {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_total"],
        "failed": result["ops_failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "R1_MEMO_LIMIT": None,  # removed from every child's environment
    }


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_digests(workload: str, seeds: list[int]) -> None:
    """Store the digest of every op's output for ``seeds``; every check must pass."""
    store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for seed in seeds:
        store.setdefault(workload, {}).pop(str(seed), None)
        DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        result = run_child(workload, seed)
        if result["ops_failed"]:
            raise BenchError(f"{workload} seed {seed}: {result['ops_failed']} ops failed")
        store[workload][str(seed)] = {op["label"]: op["digest"] for op in result["ops"]}
    DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="store output digests for seeds such as 1-10 instead of measuring")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "r1poly" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'r1poly'} is missing", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests(args.workload, parse_seeds(args.record_digests))
            return 0
        if args.workload == "all":
            for workload in WORKLOAD_NAMES:
                result = measure(workload, args.seed, args.seconds, False)
                cells = "  ".join(f"{name}={result[name]:.4g} {unit}" for name, unit in UNITS.items())
                print(f"{workload:<10} {cells}", flush=True)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = {k: v for k, v in result.items() if k not in ("per_layer",)}
    info.update(environment())
    print(json.dumps(info))
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
