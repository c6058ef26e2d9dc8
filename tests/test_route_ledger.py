"""Every function in src/ is reached by a subcommand or named as a route.

The ten subcommands run in-process on the golden bundles under a
sys.setprofile hook that records each code object called.  Each chunked
subcommand also runs once with --max-chunks 1 and once more with --resume
from the checkpoint that left, so checkpoint save/load and the partial
summaries count as reached.  A function or method of src/roughn_lab that the
trace does not reach must be listed in ROUTES, with the benchmark step that
calls it or, for a deliberate cross-check only, its test; any other
unreached function is dead code and fails the ledger.  So does a ROUTES
entry whose function or route no longer exists, one whose route does not
name the function (or a chain of library functions that ends in it), one
for a function the trace reaches, and a route into tests/ for anything but
a cross-check.

The same hook records the option each run selects from the library's option
sets (range tags, window variants, axioms, gap rates).  An option no run
selects must be listed in CHOICES with the reason it stays; any other is
dead code and fails the option ledger.
"""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

import roughn_lab
from roughn_lab import cli_harness as ch
from roughn_lab import cramer_models, moments_concentration, sieve_measure
from test_golden_omega import BUNDLES, GOLDEN, PATCHES

SRC = Path(roughn_lab.__file__).resolve().parent
REPO = SRC.parents[1]

# "module.qualname" -> "path::name" of the cross-check or benchmark step that
# calls it, directly or through other library functions.  A route into tests/
# is kept only for the CROSS_CHECKS; a function that only a test calls belongs
# beside that test.
ROUTES = {
    # the cross-check routes: the direct enumeration behind the weight kernel,
    # and the exact-rational weights, checked against the float table
    "sieve_measure.nu_exact": "perfbench/workloads.py::measure_checks",
    "sieve_measure.exact_weights":
        "tests/test_sieve_measure.py::test_exact_rational_mode_matches_float_total",
    # the one-call gap simulation, which cramer-gaps splits into trials; the
    # benchmark's layer tracer times it
    "cramer_models.simulate_gaps": "perfbench/tracer.py::TARGETS",
    # the constants library, which no subcommand reaches yet
    "moments_concentration._partition_shapes": "perfbench/step.py::constants_library",
    "moments_concentration._poly_mul": "perfbench/step.py::constants_library",
    "moments_concentration.partition_sum_G": "perfbench/step.py::constants_library",
    "moments_concentration.SimplexReport.maximizer_is_uniform":
        "perfbench/step.py::constants_library",
    "moments_concentration.rho_r": "perfbench/step.py::constants_library",
    "moments_concentration.rho_r_maximize": "perfbench/step.py::constants_library",
}

CROSS_CHECKS = {"sieve_measure.nu_exact", "sieve_measure.exact_weights"}

# option set -> (its values, the function whose call selects one, and how
# the selected value is read from that call's arguments)
OPTIONS = {
    "RANGE_TAGS": (moments_concentration.RANGE_TAGS, moments_concentration.range_moduli,
                   lambda args: args["range_tag"]),
    "WINDOW_VARIANTS": (cramer_models.WINDOW_VARIANTS, cramer_models.window_search,
                        lambda args: args["variant"]),
    "ABCD": (tuple("ABCD"), sieve_measure.axiom_check, lambda args: args["which"]),
    "RATE_NAMES": (cramer_models.RATE_NAMES, cramer_models.CramerConfig.__post_init__,
                   lambda args: args["self"].rate),
}

# (option set, value) -> why an option that no subcommand selects stays
CHOICES = {
    ("RATE_NAMES", "semiprime"):
        "the paper's Cramer-type model for integers with j prime factors",
    ("RATE_NAMES", "custom"):
        "the constant rate test_constant_rate_gaps_are_geometric uses as its "
        "closed-form reference",
}

SEED = 7


def src_functions() -> dict:
    """'module.qualname' -> source text of every top-level function and
    every method of a top-level class under src/roughn_lab."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            for qualname, item in defs:
                found[f"{path.stem}.{qualname}"] = ast.get_source_segment(text, item)
    return found


def subcommand_runs(tmp_path):
    """argv lists for every subcommand on the golden bundles, then the
    interrupt and resume passes of the chunked ones."""
    params = {}
    for name, text in BUNDLES.items():
        params[name] = tmp_path / f"{name}.params"
        params[name].write_text(text)
    runs = []
    for sub, bundle in GOLDEN:
        argv = [sub, "--out", str(tmp_path / f"{sub}-{bundle}"), "--seed", str(SEED)]
        if sub in ch.CHUNKED_SUBCOMMANDS:
            argv += ["--checkpoint-secs", "0"]
        if bundle is not None:
            argv += ["--params", str(params[bundle])]
        runs.append(argv)
    for sub in ch.CHUNKED_SUBCOMMANDS:
        out = tmp_path / f"{sub}-resume"
        argv = [sub, "--out", str(out), "--seed", str(SEED), "--checkpoint-secs", "0"]
        if sub != "cramer-gaps":
            argv += ["--params", str(params["toy"])]
        runs.append(argv + ["--max-chunks", "1"])
        runs.append(argv + ["--resume", str(out / ch.CHECKPOINT_NAME)])
    return runs


def traced_runs(runs) -> tuple[set, set]:
    """'module.qualname' of every src/ code object called during the runs,
    and the (option set, value) of every option they select."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("roughn_lab"):
            for value in vars(module).values():
                # a cached result would hide the call that computes it
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    codes, chosen = set(), set()
    readers = {fn.__code__: (name, read) for name, (_, fn, read) in OPTIONS.items()}

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
            if frame.f_code in readers:
                name, read = readers[frame.f_code]
                chosen.add((name, read(frame.f_locals)))

    rcs = []
    previous = sys.getprofile()
    for argv in runs:
        sys.setprofile(hook)
        try:
            rcs.append(ch.main(argv))
        finally:
            sys.setprofile(previous)
    expected = [3 if "--max-chunks" in argv else 0 for argv in runs]
    assert rcs == expected
    prefix = str(SRC)
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if code.co_filename.startswith(prefix)}, chosen


def names(text: str, word: str) -> bool:
    return re.search(rf"\b{re.escape(word)}\b", text) is not None


@functools.cache
def top_level_source(path: str, name: str):
    """Source text of the top-level def or assignment called name in the
    file at path (relative to the repository root), or None."""
    file = REPO / path
    if not file.is_file():
        return None
    text = file.read_text()
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return ast.get_source_segment(text, node)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.get_source_segment(text, node)
    return None


def called_by(source: str, functions: dict) -> set:
    """'module.qualname' of the functions that source names, and of those
    that they name in turn."""
    found, bodies = set(), [source]
    while bodies:
        text = bodies.pop()
        for qualname, body in functions.items():
            if qualname not in found and names(text, qualname.rpartition(".")[2]):
                found.add(qualname)
                bodies.append(body)
    return found


def route_problems(routes: dict, functions: dict, reached: set,
                   cross_checks=CROSS_CHECKS) -> list[str]:
    problems = []
    for qualname, route in sorted(routes.items()):
        if qualname not in functions:
            problems.append(f"{qualname}: no such function in src/")
            continue
        if qualname in reached:
            problems.append(f"{qualname}: a subcommand reaches it; drop its route")
        path, _, name = route.partition("::")
        if path.startswith("tests/") and qualname not in cross_checks:
            problems.append(f"{qualname}: only a test calls it; move it beside that test")
        source = top_level_source(path, name)
        if source is None:
            problems.append(f"{qualname}: route {route} does not exist")
            continue
        if qualname not in called_by(source, functions):
            problems.append(f"{qualname}: route {route} does not call it")
    return problems


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        # the golden sizes; each patched constant serves one subcommand
        for values in PATCHES.values():
            for name, value in values.items():
                patch.setattr(ch, name, value)
        return traced_runs(subcommand_runs(tmp_path_factory.mktemp("ledger")))


@pytest.fixture(scope="module")
def reached(traced):
    return traced[0]


def test_every_function_is_reached_or_routed(reached):
    functions = src_functions()
    dead = sorted(q for q in functions if q not in reached and q not in ROUTES)
    assert dead == []


def test_every_route_exists_and_calls_its_function(reached):
    assert route_problems(ROUTES, src_functions(), reached) == []


def test_every_option_is_selected_or_listed(traced):
    options = {(name, value) for name, (values, _, _) in OPTIONS.items() for value in values}
    unselected = options - traced[1]
    assert sorted(unselected - set(CHOICES)) == []
    # a listed option must still exist and still go unselected
    assert sorted(set(CHOICES) - unselected) == []


def test_ledger_flags_stale_routes():
    # route_problems names top_level_source, which names inner, which names
    # deep; it also names partition (route.partition)
    route = "tests/test_route_ledger.py::route_problems"
    functions = {"m.top_level_source": "def top_level_source(): inner()",
                 "m.inner": "def inner(): deep()", "m.deep": "def deep(): pass",
                 "m.unnamed": "def unnamed(): pass", "m.walked": "def walked(): pass",
                 "m.moved": "def moved(): pass", "m.partition": "def partition(): pass"}
    routes = {"m.top_level_source": route, "m.inner": route, "m.deep": route,
              "m.unnamed": route, "m.walked": route, "m.gone": route,
              "m.moved": "tests/test_route_ledger.py::no_such_test", "m.partition": route}
    # every fake but m.partition stands for a cross-check
    cross_checks = set(functions) - {"m.partition"}
    assert route_problems(routes, functions, {"m.walked"}, cross_checks) == [
        "m.gone: no such function in src/",
        "m.moved: route tests/test_route_ledger.py::no_such_test does not exist",
        "m.partition: only a test calls it; move it beside that test",
        f"m.unnamed: route {route} does not call it",
        "m.walked: a subcommand reaches it; drop its route",
        f"m.walked: route {route} does not call it",
    ]
