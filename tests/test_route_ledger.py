"""Every function in src/ is reached by a subcommand or named as a route.

The ten subcommands run in-process on the golden bundles under a
sys.setprofile hook that records each code object called.  Each chunked
subcommand also runs once with --max-chunks 1 and once more with --resume
from the checkpoint that left, so checkpoint save/load and the partial
summaries count as reached.  A function or method of src/roughn_lab that the
trace does not reach must be listed in ROUTES, with the acceptance criterion,
unit test or benchmark step that calls it; any other unreached function is
dead code and fails the ledger.  So does a ROUTES entry whose function or
route no longer exists, one whose route does not name the function (or a
library function that calls it), and one for a function the trace reaches.
"""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

import roughn_lab
from roughn_lab import cli_harness as ch
from test_golden_omega import BUNDLES, GOLDEN, PATCHES

SRC = Path(roughn_lab.__file__).resolve().parent
REPO = SRC.parents[1]

# "module.qualname" -> "path::name" of the criterion, test or benchmark step
# that calls it, directly or through another library function
ROUTES = {
    # the cross-check routes: the direct enumeration behind the weight kernel
    # and the lookup of a single weight
    "sieve_measure.nu_exact": "perfbench/workloads.py::measure_checks",
    "sieve_measure.WeightTable.nu_of":
        "tests/test_sieve_measure.py::test_nu_outside_window_raises_and_nu_of_is_zero",
    # the exact-rational weights, checked against the float table
    "sieve_measure.exact_weights":
        "tests/test_sieve_measure.py::test_exact_rational_mode_matches_float_total",
    "sieve_measure.tiny_prime_rigidity":
        "tests/test_acceptance.py::test_criterion_04_tiny_prime_rigidity_exact",
    # the bump's pointwise derivative, oracle of c0's time route
    "bump_functions.eta_tilde_prime":
        "tests/test_bump_functions.py::test_eta_tilde_prime_matches_difference_quotient",
    "bump_functions.eta_prime_value":
        "tests/test_bump_functions.py::test_eta_tilde_prime_matches_difference_quotient",
    # the check tying eta_hat_profile.csv to eta_profile.csv
    "bump_functions.fourier_inverse_check":
        "tests/test_bump_functions.py::test_fourier_and_twisted_inversion",
    "moments_concentration.StirlingTable.value":
        "tests/test_acceptance.py::test_criterion_05_stirling_suite_exact",
    "moments_concentration.stirling2":
        "tests/test_acceptance.py::test_criterion_05_stirling_suite_exact",
    "moments_concentration.stirling_identity_check":
        "tests/test_acceptance.py::test_criterion_05_stirling_suite_exact",
    # the constants library, which no subcommand reaches
    "moments_concentration._set_partitions":
        "tests/test_moments_concentration.py::per_partition_sum",
    "moments_concentration._partition_shapes": "perfbench/step.py::constants_library",
    "moments_concentration._poly_mul": "perfbench/step.py::constants_library",
    "moments_concentration.partition_sum_G": "perfbench/step.py::constants_library",
    "moments_concentration.SimplexReport.maximizer_is_uniform":
        "perfbench/step.py::constants_library",
    "moments_concentration.rho_r": "perfbench/step.py::constants_library",
    "moments_concentration.rho_r_maximize": "perfbench/step.py::constants_library",
    # the one-call gap simulation, which cramer-gaps splits into trials
    "cramer_models.simulate_gaps":
        "tests/test_acceptance.py::test_criterion_10_cramer_gap_ratios",
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


def traced_qualnames(runs) -> set:
    """'module.qualname' of every src/ code object called during the runs."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("roughn_lab"):
            for value in vars(module).values():
                # a cached result would hide the call that computes it
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

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
            if code.co_filename.startswith(prefix)}


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


def route_problems(routes: dict, functions: dict, reached: set) -> list[str]:
    problems = []
    for qualname, route in sorted(routes.items()):
        if qualname not in functions:
            problems.append(f"{qualname}: no such function in src/")
            continue
        if qualname in reached:
            problems.append(f"{qualname}: a subcommand reaches it; drop its route")
        path, _, name = route.partition("::")
        source = top_level_source(path, name)
        if source is None:
            problems.append(f"{qualname}: route {route} does not exist")
            continue
        word = qualname.rpartition(".")[2]
        callers = [q.rpartition(".")[2] for q, body in functions.items()
                   if q != qualname and names(body, word)]
        if not (names(source, word) or any(names(source, c) for c in callers)):
            problems.append(f"{qualname}: route {route} does not call it")
    return problems


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        # the golden sizes; each patched constant serves one subcommand
        for values in PATCHES.values():
            for name, value in values.items():
                patch.setattr(ch, name, value)
        return traced_qualnames(subcommand_runs(tmp_path_factory.mktemp("ledger")))


def test_every_function_is_reached_or_routed(reached):
    functions = src_functions()
    dead = sorted(q for q in functions if q not in reached and q not in ROUTES)
    assert dead == []


def test_every_route_exists_and_calls_its_function(reached):
    assert route_problems(ROUTES, src_functions(), reached) == []


def test_ledger_flags_stale_routes():
    # route_problems names top_level_source, which names inner
    route = "tests/test_route_ledger.py::route_problems"
    functions = {"m.top_level_source": "def top_level_source(): inner()",
                 "m.inner": "def inner(): pass", "m.unnamed": "def unnamed(): pass",
                 "m.walked": "def walked(): pass", "m.moved": "def moved(): pass"}
    routes = {"m.top_level_source": route, "m.inner": route, "m.unnamed": route,
              "m.walked": route, "m.gone": route,
              "m.moved": "tests/test_route_ledger.py::no_such_test"}
    assert route_problems(routes, functions, reached={"m.walked"}) == [
        "m.gone: no such function in src/",
        "m.moved: route tests/test_route_ledger.py::no_such_test does not exist",
        f"m.unnamed: route {route} does not call it",
        "m.walked: a subcommand reaches it; drop its route",
        f"m.walked: route {route} does not call it",
    ]
