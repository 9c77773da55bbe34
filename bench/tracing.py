"""Span tracer for the traced benchmark run.

The tracer works from outside the package.  It wraps every public
module-level function that ``r1poly/__init__.py`` exports, in every
``r1poly`` module namespace that binds it, so calls between modules are
seen too.  It also wraps the few methods the per-layer metrics name
(``FamilySpec.build`` and its closed forms, ``SymPoly.evaluate``) and
``cli.main``.  It notes every ``CoeffSystem`` whose grids an op uses, to
read their sizes after the ops.  Methods of ``Poly``, ``Series`` and
``Fraction`` stay unwrapped, so exact arithmetic counts toward its
caller's self time.

A span is (name, start, end, parent index).  Spans stay in memory; the
worker writes them out when its run ends.  The program is single-threaded,
so spans nest and a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exactmath", "core", "paths", "determinants", "families", "histories", "cli")

# Span names grouped into the per-layer metrics that are not one function.
GROUPS = {
    "core.mu": ("core.mu", "core.mu_nm"),
    "determinants.reports": (
        "determinants.hankel", "determinants.hankel_constant", "determinants.delta_prime",
        "determinants.delta_dprime", "determinants.delta_tprime", "determinants.delta_shifted",
        "determinants.lemma_xin_check", "determinants.classical_equiv_check",
    ),
    "families.closed_forms": (
        "families.closed_moment", "families.hyp_poly", "families.eval_hyp",
        "families.glue_shift_check", "families.hermite_linearization_check",
        "families.genthm_check", "families.theta", "families.chebyshev_weight",
    ),
    "histories.enumerate": ("histories.enumerate_LH", "histories.enumerate_MH"),
    "histories.map": ("histories.phi", "histories.psi"),
    "histories.inverse": ("histories.phi_inv", "histories.psi_inv"),
    "histories.checks": (
        "histories.lh_moment_check", "histories.mh_moment_check",
        "histories.non_excedance_check",
    ),
}


class Tracer:
    """Records spans while ``recording`` is set; idle wrappers cost one test."""

    def __init__(self):
        self.recording = False
        self.spans: list = []
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.systems: dict = {}  # id -> every CoeffSystem whose grids were used while recording

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), name, parent, 0.0, perf_counter()]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def exit(self, frame: list):
        end = perf_counter()
        self._stack.pop()
        index, name, parent, child_s, start = frame
        duration = end - start
        self.spans[index] = (name, start, end, parent)
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def call(self, name: str, layer: str, fn, args, kwargs):
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[layer] += 1
            raise
        finally:
            self.exit(frame)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def group_self_s(self, group: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in GROUPS.get(group, (group,)))

    def group_calls(self, group: str) -> int:
        return sum(self.calls.get(name, 0) for name in GROUPS.get(group, (group,)))


def _wrap(tracer: Tracer, fn, name: str, on_result=None):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        result = tracer.call(name, layer, fn, args, kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _wrap_mu(tracer: Tracer, fn, name: str):
    """``mu``/``mu_nm`` also count memo hits: calls that add no grid entry."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        memo = args[-1].mu_table().memo
        before = len(memo)
        result = tracer.call(name, "core", fn, args, kwargs)
        if len(memo) == before:
            tracer.counts["core.mu.memo_hits"] += 1
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and the named methods in place."""
    import r1poly
    from r1poly import cli, core, exactmath, families

    def count(key, size=len):
        def on_result(result):
            tracer.counts[key] += size(result)
        return on_result

    result_counters = {
        "paths.enumerate_paths": count("paths.enumerate_paths.paths"),
        "histories.enumerate_LH": count("histories.enumerate.count"),
        "histories.enumerate_MH": count("histories.enumerate.count"),
    }
    wrapped = {}
    for attr in dir(r1poly):
        fn = getattr(r1poly, attr)
        if not inspect.isfunction(fn) or not fn.__module__.startswith("r1poly."):
            continue
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        if name in ("core.mu", "core.mu_nm"):
            wrapped[id(fn)] = _wrap_mu(tracer, fn, name)
        else:
            wrapped[id(fn)] = _wrap(tracer, fn, name, result_counters.get(name))
    for modname, module in list(sys.modules.items()):
        if modname == "r1poly" or modname.startswith("r1poly."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(module, attr, wrapped[id(value)])

    spec = families.FamilySpec
    for method in ("build", "closed_moment", "hyp_poly", "eval_hyp"):
        setattr(spec, method, _wrap(tracer, getattr(spec, method), f"families.{method}"))
    exactmath.SymPoly.evaluate = _wrap(
        tracer, exactmath.SymPoly.evaluate, "exactmath.sympoly.evaluate")
    cli.main = _wrap(tracer, cli.main, "cli.main")

    for method in ("mu_table", "nu_table"):
        table = getattr(core.CoeffSystem, method)

        @functools.wraps(table)
        def capture(self, table=table):
            if tracer.recording:
                tracer.systems[id(self)] = self
            return table(self)

        setattr(core.CoeffSystem, method, capture)


def fold_systems(tracer: Tracer) -> None:
    """Read grid sizes and entry bits from the captured systems, then drop them."""
    for cs in tracer.systems.values():
        mu_table = getattr(cs, "_mu", None)
        if mu_table is not None:
            tracer.counts["core.mu_table.entries"] += len(mu_table.memo)
            bits = max(
                (v.numerator.bit_length() + v.denominator.bit_length()
                 for v in mu_table.memo.values()),
                default=0,
            )
            tracer.counts["core.max_entry_bits"] = max(tracer.counts["core.max_entry_bits"], bits)
        nu_table = getattr(cs, "_nu", None)
        if nu_table is not None:
            tracer.counts["core.nu_table.entries"] += len(nu_table.memo)
    tracer.systems.clear()


# Per-layer metrics read from spans (``<name>.self_s``, ``<name>.calls``) and
# from counts taken after the ops.
SELF_S = (
    "core.mu", "core.P", "core.nu", "core.L_eval", "core.cf_series", "core.mu_symbolic",
    "exactmath.sympoly.evaluate", "paths.weight_sum", "paths.enumerate_paths",
    "determinants.det_exact", "determinants.reports", "families.build",
    "families.closed_forms", "histories.enumerate", "histories.map", "histories.inverse",
    "histories.checks", "cli.main",
)
CALLS = ("core.mu", "paths.weight_sum", "determinants.det_exact", "cli.main")
COUNTS = {
    "core.mu_table.entries": "count", "core.max_entry_bits": "bits",
    "core.nu_table.entries": "count", "exactmath.sympoly.terms": "count",
    "paths.enumerate_paths.paths": "count", "histories.enumerate.count": "count",
    "cli.verify.checks": "count",
}


def per_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    out = {f"{name}.self_s": (tracer.group_self_s(name), "s") for name in SELF_S}
    out.update({f"{name}.calls": (tracer.group_calls(name), "count") for name in CALLS})
    out.update({name: (tracer.counts[name], unit) for name, unit in COUNTS.items()})
    mu_calls = tracer.group_calls("core.mu")
    hits = tracer.counts["core.mu.memo_hits"]
    out["core.mu.memo_hit_ratio"] = (hits / mu_calls if mu_calls else 0.0, "ratio")
    layers_s = 0.0
    for layer in LAYERS:
        self_s = tracer.layer_self_s(layer)
        layers_s += self_s
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.errors"] = (tracer.errors[layer], "count")
    bench_s = wall_s - layers_s
    out["bench.self_s"] = (bench_s, "s")
    out["bench.share"] = (bench_s / wall_s if wall_s else 0.0, "ratio")
    out["trace.wall_s"] = (wall_s, "s")
    return out
