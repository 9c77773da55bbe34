"""One benchmark pass in a fresh interpreter: set up, run the ops, check them.

    python3 bench/worker.py --workload NAME --seed N --t0 T [--trace] [--setup-only]
                            [--same-as DIGESTS.json]

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is system-wide, so set-up time counts from
before the interpreter started.  ``--same-as`` names a JSON file of op
digests from an earlier pass of the same run whose outputs passed their
exact checks; each op must then match its digest byte for byte, and the
exact checks are not repeated.  The last line of stdout is one JSON object.
The program is imported from ``src/`` of the checkout that holds this file
and from nowhere else.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import r1poly

    if Path(r1poly.__file__).resolve().parent != src / "r1poly":
        raise ImportError(f"r1poly imported from {r1poly.__file__}, not from {src}")
    return r1poly


def run_pass(workload: str, seed: int, t0: float, trace: bool = False,
             setup_only: bool = False, digests: dict | None = None,
             same_as: dict | None = None) -> dict:
    """Set up ``workload`` for ``seed``, run its ops once, check every output.

    ``digests`` maps op labels to the expected digest of their rendered
    output; an op whose digest differs counts as failed.  ``same_as`` does
    the same for digests of checked outputs of an earlier pass, and stands
    in for the exact checks.
    """
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        ops = workloads.WORKLOADS[workload](seed, Path(workdir))
        ready = perf_counter()
        if setup_only:
            return {"setup_s": ready - t0}
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        outputs = []
        first = perf_counter()
        for op in ops:
            if tracer:
                tracer.recording = True
                frame = tracer.enter(f"bench.op.{op.label}")
            start = perf_counter()
            try:
                out, error = op.call(), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
            if tracer:
                tracer.exit(frame)
                tracer.recording = False
            outputs.append((op, out, error, seconds))
        wall = perf_counter() - first
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = []
    for op, out, error, seconds in outputs:
        record = {"label": op.label, "seconds": seconds, "error": error, "digest": None}
        if error is None:
            record["digest"] = hashlib.sha256(workloads.render(out).encode()).hexdigest()
            if same_as is not None:
                ok = record["digest"] == same_as.get(op.label)
                if not ok:
                    record["error"] = "output differs from the checked output of the first pass"
            else:
                try:
                    ok = op.check(out) is True
                except Exception as exc:  # a check that raises fails its op
                    ok, record["error"] = False, f"check {type(exc).__name__}: {exc}"
            if digests and record["digest"] != digests.get(op.label):
                ok, record["error"] = False, "output digest differs from the recorded one"
            record["ok"] = ok
        else:
            record["ok"] = False
        records.append(record)

    result = {
        "setup_s": first - t0,
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "ops_total": len(records),
        "ops_failed": sum(1 for r in records if not r["ok"]),
        "ops": records,
    }
    if tracer:
        result["per_layer"] = traced_metrics(tracer, outputs, workload, seed)
    return result


def traced_metrics(tracer, outputs, workload: str, seed: int) -> dict:
    import tracing
    import workloads
    from r1poly.exactmath import SymPoly

    tracing.fold_systems(tracer)
    for _, out, _, _ in outputs:
        if isinstance(out, SymPoly):
            tracer.counts["exactmath.sympoly.terms"] += len(out.terms)
        elif isinstance(out, workloads.CliOutput):
            tracer.counts["cli.verify.checks"] += workloads.verify_checks(out.stdout)
    op_spans = sum(end - start for name, start, end, parent in tracer.spans if parent == -1)
    with gzip.open(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz", "wt") as fh:
        for index, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps([index, name, start, end, parent]) + "\n")
    return {k: list(v) for k, v in tracing.per_layer_metrics(tracer, op_spans).items()}


def recorded_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--same-as", type=Path, metavar="DIGESTS.json")
    args = parser.parse_args(argv)
    same_as = json.loads(args.same_as.read_text()) if args.same_as else None
    result = run_pass(args.workload, args.seed, args.t0, args.trace, args.setup_only,
                      recorded_digests(args.workload, args.seed), same_as)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
