"""The four studies the benchmark runs, their inputs and their output checks.

Each workload is a list of steps, one process each.  A step's time is named
after it (``sieve_scan_s`` for ``sieve-scan``); steps that share a name are
summed.  The checks read only the files the steps wrote, so they hold across
intended changes of output bytes; byte identity is checked separately, between
repeats of the same seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GAP_TRIALS = 100


@dataclass(frozen=True)
class Step:
    name: str
    kind: str  # "cli" (roughn-lab argv) or "constants-lib"
    args: tuple[str, ...]
    expect_rc: int = 0


@dataclass(frozen=True)
class Workload:
    steps: Callable[[int, Path, Path, str], list[Step]]
    checks: Callable[[Path, Path, int], list[tuple[str, bool, str]]]


# --- inputs ---

SIEVE_X = {"measure": {"full": 3 * 10**7, "tiny": 10**6},
           "omega": {"full": 10**7, "tiny": 10**6}}
TINY_PRIME_CUTOFF = 7  # w of the bundle; W is the product of the primes <= w
CONSTANTS_LIB = {"full": ("500", "8"), "tiny": ("40", "4")}


def jittered_x(base: int, seed: int) -> int:
    """x in [base, 1.01 * base], fixed by the seed."""
    return base + random.Random(seed).randrange(base // 100 + 1)


def write_params(in_dir: Path, x: int) -> Path:
    path = in_dir / "bundle.params"
    path.write_text(f"x = {x}\nK = 1\nw = {TINY_PRIME_CUTOFF}\nc = 0.3\ngamma = 1\n")
    return path


def _cli(name, sub, out, seed, *extra, expect_rc=0):
    return Step(name, "cli", (sub, "--out", str(out), "--seed", str(seed)) + extra,
                expect_rc)


def measure_steps(seed, in_dir, out, size):
    params = str(write_params(in_dir, jittered_x(SIEVE_X["measure"][size], seed)))
    return [
        _cli("sieve_scan_s", "sieve-scan", out, seed, "--params", params,
             "--checkpoint-secs", "0"),
        _cli("sample_s", "sample", out, seed, "--params", params),
        _cli("moments_s", "moments", out, seed, "--params", params),
        _cli("axioms_s", "axioms", out, seed, "--params", params),
    ]


def omega_steps(seed, in_dir, out, size):
    params = str(write_params(in_dir, jittered_x(SIEVE_X["omega"][size], seed)))
    return [
        _cli("record_search_s", "record-search", out, seed, "--params", params,
             "--checkpoint-secs", "0"),
        _cli("window_search_s", "window-search", out, seed, "--params", params),
        _cli("refute_679_s", "refute-679", out, seed),
        _cli("pik_s", "pik", out, seed),
    ]


def gaps_steps(seed, in_dir, out, size):
    # the first invocation stops at its chunk budget (exit 3) and leaves a
    # checkpoint; the second resumes it in a new process
    return [
        _cli("cramer_gaps_s", "cramer-gaps", out, seed, "--checkpoint-secs", "0",
             "--max-chunks", "50", expect_rc=3),
        _cli("cramer_gaps_s", "cramer-gaps", out, seed, "--checkpoint-secs", "0",
             "--resume", str(out / "checkpoint.rlck")),
    ]


def constants_steps(seed, in_dir, out, size):
    return [
        _cli("c0_s", "c0", out, seed),
        Step("constants_lib_s", "constants-lib", (str(out),) + CONSTANTS_LIB[size]),
    ]


# --- checks ---

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _count_rows(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines - 1


def trial_factor(n: int) -> list[int]:
    """Prime factors of n with multiplicity, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _check(name, fn):
    """Run one check; an exception is a failed check, not a crashed run."""
    try:
        ok, detail = fn()
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), str(detail)


def measure_checks(in_dir, out, seed):
    from roughn_lab import bump_functions, cli_harness, sieve_measure

    modulus = math.prod(p for p in range(2, TINY_PRIME_CUTOFF + 1)
                        if len(trial_factor(p)) == 1)

    def draws_divisible():
        bad = [r["n"] for r in _rows(out / "samples.csv") if int(r["n"]) % modulus]
        return not bad, f"{len(bad)} draws not divisible by W={modulus}"

    def probes():
        rows = _rows(out / "probs.csv")
        inside = sum(abs(float(r["mc_estimate"]) - float(r["exact_prob"]))
                     <= 3 * float(r["mc_sigma"]) for r in rows)
        return len(rows) == 10 and inside >= 9, f"{inside}/{len(rows)} within 3 sigma"

    def weights_match_nu_exact():
        params = sieve_measure.parse_params((in_dir / "bundle.params").read_text())
        rows = _rows(out / "weights.csv")
        picks = sorted(random.Random(seed).sample(range(len(rows)), min(20, len(rows))))
        spec = bump_functions.make_bump(**cli_harness._FAST_BUMP)
        worst = 0.0
        for i in picks:
            n, nu = int(rows[i]["n"]), float(rows[i]["nu(n)"])
            ref = sieve_measure.nu_exact(n, params, spec)
            worst = max(worst, abs(nu - ref) / abs(ref))
        return worst <= 1e-12, f"{len(picks)} rows, worst relative error {worst:.3g}"

    return [_check("draws_divisible_by_W", draws_divisible),
            _check("probes_within_3_sigma", probes),
            _check("weights_match_nu_exact", weights_match_nu_exact)]


def omega_checks(in_dir, out, seed):
    def sampled_ratio():
        ratio = _json(out / "record_search.json")["value_ratio_sampled_over_exhaustive"]
        return ratio <= 1.05, f"sampled/exhaustive = {ratio}"

    def witness_profile():
        report = _json(out / "record_search.json")
        witness = report["sampled"]["witness"]
        rows = _rows(out / "omega_profile.csv")
        bad = [r["k"] for r in rows
               if int(r["Omega"]) != len(trial_factor(witness + int(r["k"])))]
        ok = not bad and len(rows) == report["k_max"] - 1
        return ok, f"witness {witness}: {len(rows)} rows, mismatches at k={bad}"

    def partition_identity():
        report = _json(out / "pik_report.json")
        ok = all(report["partition_identity"].values()) and report["pi_2_of_30"] == 12
        return ok, f"identity {report['partition_identity']}, pi_2(30)={report['pi_2_of_30']}"

    return [_check("sampled_over_exhaustive_le_1.05", sampled_ratio),
            _check("witness_omega_profile", witness_profile),
            _check("partition_identity_and_pi_2_30", partition_identity)]


def gaps_checks(in_dir, out, seed):
    def trials_below():
        maxes = _json(out / "gap_report.json")["max_ratios"]
        below = sum(1 for m in maxes if m is not None and m <= 1.5)
        return len(maxes) == GAP_TRIALS and below >= 90, f"{below}/{len(maxes)} trials <= 1.5"

    def gap_count():
        count = _json(out / "gap_report.json")["gap_count"]
        rows = _count_rows(out / "gaps.csv")
        return count == rows, f"gap_count {count}, gaps.csv rows {rows}"

    return [_check("trials_max_ratio_le_1.5", trials_below),
            _check("gap_count_equals_rows", gap_count)]


def constants_checks(in_dir, out, seed):
    def c0_routes():
        rep = _json(out / "c0_report.json")
        ok = rep["relative_difference"] <= 1e-6 and rep["at_least_one"] is True
        return ok, f"relative_difference {rep['relative_difference']}"

    def simplex_uniform():
        simplex = _json(out / "constants_lib.json")["simplex"]
        flags = {r: simplex[r]["maximizer_is_uniform"] for r in sorted(simplex)}
        return set(flags) == {"2", "3", "4"} and all(flags.values()), f"uniform {flags}"

    return [_check("c0_routes_agree", c0_routes),
            _check("simplex_maximizer_uniform", simplex_uniform)]


def gap_seed_note(seed: int) -> str | None:
    """Trials seed their streams with seed ^ trial, so some seeds share trials."""
    same = {seed ^ t for t in range(GAP_TRIALS)} == set(range(GAP_TRIALS))
    if same and seed != 0:
        return f"seed {seed} draws the same set of gap trials as seed 0 (seed ^ trial)"
    return None


WORKLOADS = {
    "measure": Workload(measure_steps, measure_checks),
    "omega": Workload(omega_steps, omega_checks),
    "gaps": Workload(gaps_steps, gaps_checks),
    "constants": Workload(constants_steps, constants_checks),
}
