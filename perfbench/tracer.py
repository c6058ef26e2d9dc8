"""Outside-in layer trace for roughn_lab.

The tracer wraps public functions of each layer from outside the package:
every module of the package that holds a reference to a traced function
(``from .primes_core import factor_window`` and the like) gets the wrapper,
so calls are seen whichever namespace they go through.  Each call becomes a
span with its name, start, end, parent span and run id; spans stay in memory
until the caller takes them with ``Tracer.spans``.

Self time of a span is its duration minus the time covered by its child
spans.  The wrapper's own time, size hooks (array bytes, file bytes, row
counts) included, is kept out of every span's self time and recorded as the
span's ``cost_ns``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "roughn_lab"
MARKER = "__perfbench_original__"


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(fn, args, kwargs, "path"))}


def _csv_sizes(fn, args, kwargs, result):
    path = _arg(fn, args, kwargs, "path")
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return {"bytes": os.path.getsize(path), "rows": max(lines - 1, 0)}


def _window_sizes(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return {
        "ints": int(bound["hi"]) - int(bound["lo"]) + 1,
        "pairs": len(getattr(result, "fac_primes", ())),
        "bytes": sum(a.nbytes for a in arrays),
    }


def _gap_sites(fn, args, kwargs, result):
    config = _arg(fn, args, kwargs, "config")
    # one Bernoulli site per n in [3, N], for every trial
    return {"sites": (config.N - 2) * config.trials}


# (module, function, size hook).  Private helpers are traced only where a
# public function's size is their output: build_weight_table.divisors is the
# sum of _admissible_divisors terms under it, exact_centered_moment.moduli
# the sum of range_moduli under it.
TARGETS = (
    ("primes_core", "factor_window", _window_sizes),
    ("primes_core", "build_prime_table", None),
    ("primes_core", "factorize", None),
    ("sieve_measure", "build_weight_table",
     lambda fn, a, k, r: {"support": len(r.support)}),
    ("sieve_measure", "_admissible_divisors", lambda fn, a, k, r: {"terms": len(r)}),
    ("sieve_measure", "prob_divides", None),
    ("sieve_measure", "sample", lambda fn, a, k, r: {"draws": len(r)}),
    ("sieve_measure", "axiom_check", None),
    ("moments_concentration", "exact_centered_moment", None),
    ("moments_concentration", "range_moduli", lambda fn, a, k, r: {"moduli": len(r)}),
    ("moments_concentration", "rho_r_maximize", None),
    ("moments_concentration", "partition_sum_G", None),
    ("bump_functions", "make_bump", None),
    ("bump_functions", "c0_compute", None),
    ("bump_functions", "eta_tilde", None),
    ("cramer_models", "simulate_gaps", _gap_sites),
    ("cramer_models", "count_pi_k", None),
    ("cramer_models", "window_search", None),
    ("cramer_models", "erdos_style_refuter", None),
    ("reporting", "write_csv", _csv_sizes),
    ("reporting", "write_json", _file_bytes),
    ("cli_harness", "main", None),
    ("cli_harness", "save_checkpoint", _file_bytes),
    ("cli_harness", "load_checkpoint", _file_bytes),
)

# per-layer metric -> (span name, statistic); "calls" and "self_s" come from
# the span itself, any other statistic from its size hook.
DERIVED = {
    "sieve_measure.build_weight_table.divisors":
        ("sieve_measure._admissible_divisors", "terms"),
    "moments_concentration.exact_centered_moment.moduli":
        ("moments_concentration.range_moduli", "moduli"),
}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """Names bound to a tracer wrapper anywhere in the package."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if callable(value) and hasattr(value, MARKER):
                found.append(f"{mod.__name__}.{attr}")
    return sorted(found)


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._patch_ns = 0

    def overhead_s(self) -> float:
        """Time the tracer itself took: patching, wrapper bookkeeping and
        size hooks."""
        return (self._patch_ns + sum(s["cost_ns"] for s in self.spans)) / 1e9

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        t0 = time.perf_counter_ns()
        modules = package_modules()
        for mod_name, fn_name, hook in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        self._patch_ns += time.perf_counter_ns() - t0

    def uninstall(self) -> None:
        t0 = time.perf_counter_ns()
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self._patch_ns += time.perf_counter_ns() - t0

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter_ns = time.perf_counter_ns()
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "id": len(tracer.spans), "run": tracer.run_id,
                    "parent": parent["id"] if parent else None,
                    "child_ns": 0, "cost_ns": 0}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                tracer._stack.pop()
                span["self_ns"] = span["end_ns"] - span["start_ns"] - span["child_ns"]
                if parent is not None:
                    parent["child_ns"] += span["end_ns"] - span["start_ns"]
            if hook is not None:
                span["sizes"] = hook(fn, args, kwargs, result)
            # the wrapper's own time, size hook included
            span["cost_ns"] = (time.perf_counter_ns() - enter_ns
                               - (span["end_ns"] - span["start_ns"]))
            if parent is not None:
                parent["child_ns"] += span["cost_ns"]
            return result

        setattr(wrapper, MARKER, fn)
        return wrapper


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per function: calls, self seconds and summed sizes."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        stats = out[span["name"]]
        stats["calls"] += 1
        stats["self_s"] += span["self_ns"] / 1e9
        for key, value in span.get("sizes", {}).items():
            stats[key] += value
    by_id = {(s["run"], s["id"]): s for s in spans}
    for metric, (child, child_stat) in DERIVED.items():
        parent_name, stat = metric.rsplit(".", 1)
        if parent_name not in out:
            continue
        out[parent_name][stat] = sum(
            span.get("sizes", {}).get(child_stat, 0) for span in spans
            if span["name"] == child
            and by_id.get((span["run"], span["parent"]), {}).get("name") == parent_name)
    return {name: dict(stats) for name, stats in out.items()}


def layer_metric(summary: dict[str, dict], metric: str) -> float:
    """Value of a ``<module>.<function>.<stat>`` metric; 0 for an idle function."""
    name, stat = metric.rsplit(".", 1)
    value = summary.get(name, {}).get(stat, 0)
    return float(value) if stat == "self_s" else int(value)
