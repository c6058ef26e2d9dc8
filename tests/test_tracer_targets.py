"""The benchmark's layer tracer wraps library functions by name.

A function it names that the package no longer has would only land in the
tracer's `missing` list at run time and silently zero its layer metrics, so
every name is checked here.  The tracer is loaded from its file, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

from roughn_lab import cli_harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = [f"{mod}.{name}" for mod, name, _ in targets
               if not callable(getattr(importlib.import_module(f"roughn_lab.{mod}"), name, None))]
    assert missing == []


def test_fast_bump_settings_are_readable():
    # the benchmark's measure check rebuilds the sieve-scan bump from these
    assert set(cli_harness._FAST_BUMP) == {"grid_points", "t_points", "t_max"}
