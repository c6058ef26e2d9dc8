"""roughn-lab: a desk-scale laboratory for shifted-rough-number sieve weights.

Subpackages follow the pipeline: prime tables and windowed omega/Omega counts
(primes_core), the smooth cutoff and its normalization constant
(bump_functions), the weighted measure on [x, 2x] with its distributional
axioms (sieve_measure), exact moment and concentration calculations
(moments_concentration), randomized prime models (cramer_models), and the
command-line harness (cli_harness).
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    bump_functions,
    cli_harness,
    cramer_models,
    moments_concentration,
    primes_core,
    sieve_measure,
)
