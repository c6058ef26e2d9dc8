"""Golden bytes of the weight path at the benchmark's measure bundle.

The weight table is built from shift_terms: one coefficient
mu(d) * eta_tilde(log d / log R_k) per admissible divisor, evaluated on the
reduced bump the table-building subcommands use.  At x = 3e7 these
coefficients are evaluated at points that the TOY and RECORD bundles of the
CLI goldens never reach, so a change of a few ulp in eta_tilde or in the
bump's normalization can pass those goldens and still move the bytes of
weights.csv, probs.csv, moments.csv and axioms.json at this size.  This hash
sees it: the `float.hex` of every coefficient plus that of `spec.norm`.  A
change that alters these bytes on purpose regenerates the hash and says why
in CHANGES.md.

eta_tilde sums over the base grid with numpy's own loops, never through
BLAS, so the hash must not move with the BLAS kernel or thread count; the
cross-environment test computes it in fresh processes under other BLAS
settings and holds each to the same golden.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roughn_lab
from roughn_lab import cli_harness as ch
from roughn_lab.bump_functions import make_bump
from roughn_lab.sieve_measure import parse_params, shift_terms

MEASURE_BUNDLE = "x = 30000000\nK = 1\nw = 7\nc = 0.3\ngamma = 1\n"

# one "k d coef-hex" line per shift term (37 of them), then "norm norm-hex"
WEIGHT_PATH_GOLDEN = "ca023285329f599f093451c398dd64e6698b935c1f38b23b46787f3641b879b5"


def weight_path_digest() -> str:
    spec = make_bump(**ch._FAST_BUMP)
    terms = shift_terms(parse_params(MEASURE_BUNDLE), spec)
    lines = [f"{k} {d} {coef.hex()}" for k, k_terms in sorted(terms.items())
             for d, coef in k_terms]
    assert len(lines) == 37
    lines.append(f"norm {spec.norm.hex()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_weight_path_bytes():
    assert weight_path_digest() == WEIGHT_PATH_GOLDEN


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"OPENBLAS_NUM_THREADS": "2"},
], ids=["blas-haswell", "blas-nehalem", "blas-sandybridge", "blas-2-threads"])
def test_weight_path_bytes_hold_across_environments(env):
    src = str(Path(roughn_lab.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        [src, str(Path(__file__).resolve().parent)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    child_env.update(env)
    got = subprocess.run(
        [sys.executable, "-c", "import test_golden_weights; "
                               "print(test_golden_weights.weight_path_digest())"],
        env=child_env, check=True, timeout=300, capture_output=True, text=True)
    assert got.stdout.strip() == WEIGHT_PATH_GOLDEN
