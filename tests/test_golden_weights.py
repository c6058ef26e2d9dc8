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
"""

import hashlib

from roughn_lab import cli_harness as ch
from roughn_lab.bump_functions import make_bump
from roughn_lab.sieve_measure import parse_params, shift_terms

MEASURE_BUNDLE = "x = 30000000\nK = 1\nw = 7\nc = 0.3\ngamma = 1\n"

# one "k d coef-hex" line per shift term (37 of them), then "norm norm-hex"
WEIGHT_PATH_GOLDEN = "9f0cfdae43e773a547d656cb218bee5786fb561dd9f155c0e4066145c757e4ec"


def test_weight_path_bytes():
    spec = make_bump(**ch._FAST_BUMP)
    terms = shift_terms(parse_params(MEASURE_BUNDLE), spec)
    lines = [f"{k} {d} {coef.hex()}" for k, k_terms in sorted(terms.items())
             for d, coef in k_terms]
    assert len(lines) == 37
    lines.append(f"norm {spec.norm.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WEIGHT_PATH_GOLDEN
