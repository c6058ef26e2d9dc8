import ast
import csv
import hashlib
import itertools
import json
import math
import os
import pickle
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from checkpoint_helpers import checkpoint_roundtrip
from hypothesis import given, settings
from hypothesis import strategies as st
from memory_helpers import traced_peak
from test_golden_omega import BUNDLES, GOLDEN, PATCHES, SEED

import roughn_lab
from roughn_lab import cli_harness as ch
from roughn_lab import cramer_models, primes_core, sieve_measure
from roughn_lab.reporting import write_csv, write_json

TOY_PARAMS = """\
# toy bundle sized for fast scans
x = 10000
K = 1
w = 3
a = 1
c = 0.29
gamma = 1.0
T_exponent = 0.5
A = 2.0
k_max = 20
"""


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "toy.params"
    path.write_text(TOY_PARAMS)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_sieve_scan_outputs(toy_file, tmp_path):
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "3"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "weights.csv")
    assert header == ["n", "nu(n)", "cumulative-mass"]
    summary = json.loads((tmp_path / "sieve_summary.json").read_text())
    assert summary["partial"] is False
    assert len(rows) == summary["support_size"]
    assert abs(float(rows[-1][2]) - 1.0) <= 1e-12
    # support walks the arithmetic progression of the rigid modulus
    w_mod = summary["W"]
    assert int(rows[0][0]) % w_mod == 0
    assert int(rows[1][0]) - int(rows[0][0]) == w_mod


def test_sample_outputs(toy_file, tmp_path):
    rc = ch.main(["sample", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "11"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "samples.csv")
    assert header == ["draw", "n"]
    assert len(rows) == ch.SAMPLE_COUNT
    assert all(int(n) % 6 == 0 for _, n in rows[:2000])
    header, prob_rows = read_rows(tmp_path / "probs.csv")
    assert header == ["d_star", "k_star", "exact_prob", "mc_estimate", "mc_sigma"]
    assert len(prob_rows) == 10
    summary = json.loads((tmp_path / "sample_summary.json").read_text())
    assert summary["all_divisible_by_W"] is True
    assert summary["within_3_sigma"] >= 9


def test_moments_outputs(toy_file, tmp_path):
    rc = ch.main(["moments", "--params", toy_file, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "moments.csv")
    assert header == ["k", "range", "s", "exact_moment", "paper_bound", "ratio"]
    assert len(rows) == 18
    constants = json.loads((tmp_path / "constants.json").read_text())
    assert constants["constants"]["ok"] is True
    assert constants["kappa_fit"] > 0


def test_c0_report(tmp_path):
    rc = ch.main(["c0", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "c0_report.json").read_text())
    assert rep["relative_difference"] <= 1e-6
    assert rep["at_least_one"] is True
    # the layout of both profiles is checked in test_bump_functions::test_profile_csvs
    assert (tmp_path / "eta_profile.csv").is_file()
    assert (tmp_path / "eta_hat_profile.csv").is_file()


def test_axioms_report(toy_file, tmp_path):
    rc = ch.main(["axioms", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "5"])
    assert rc == 0
    rep = json.loads((tmp_path / "axioms.json").read_text())
    assert set(rep) == {"A", "B", "C", "D"}
    assert rep["A"]["passed"] is True
    assert rep["D"]["detail"]["max_deviation"] < 1e-2


def read_strict_json(path):
    """json.loads that refuses the non-standard NaN/Infinity literals."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_cramer_gaps_outputs(tmp_path):
    rc = ch.main(["cramer-gaps", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "gaps.csv")
    assert header == ["trial", "k", "S_k", "gap"]
    rep = read_strict_json(tmp_path / "gap_report.json")
    assert rep["trials"] == 100
    assert len(rows) == rep["gap_count"]
    assert rep["trials_with_max_ratio_le_1.5"] >= 90


def test_gaps_csv_columns_give_report_max_ratios(tmp_path):
    # at the default size, where the ratio's log can differ by SIMD target;
    # each row's ratio is gap / (f(S_k) log S_k) with f = log
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--seed", "7"]) == 0
    trial, _, s_k, gap = np.loadtxt(tmp_path / "gaps.csv", dtype=np.int64,
                                    delimiter=",", skiprows=1, unpack=True)
    ratio = gap / (np.log(s_k) * np.log(s_k))
    starts = np.searchsorted(trial, np.arange(ch.GAP_TRIALS))
    ends = np.searchsorted(trial, np.arange(ch.GAP_TRIALS), side="right")
    want = [float(ratio[lo:hi].max()) if hi > lo else None for lo, hi in zip(starts, ends)]
    assert read_strict_json(tmp_path / "gap_report.json")["max_ratios"] == want


def test_gap_report_writes_null_for_empty_trials(tmp_path, monkeypatch):
    # with sites 3..10 only, some trials see fewer than two successes
    monkeypatch.setattr(ch, "GAP_N", 10)
    monkeypatch.setattr(ch, "GAP_TRIALS", 300)
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--checkpoint-secs", "0"]) == 0
    rep = read_strict_json(tmp_path / "gap_report.json")
    empty = [t for t in range(300) if math.isnan(cramer_models.simulate_gaps(
        cramer_models.CramerConfig(rate="log", N=10, trials=1, seed=t, warmup=3)
    ).max_ratios[0])]
    assert empty
    assert [t for t, m in enumerate(rep["max_ratios"]) if m is None] == empty
    assert rep["trials_with_max_ratio_le_1.5"] == sum(
        1 for m in rep["max_ratios"] if m is not None and m <= 1.5)


def test_cramer_gaps_report_is_the_library_report(tmp_path, monkeypatch):
    monkeypatch.setattr(ch, "GAP_N", 2000)
    monkeypatch.setattr(ch, "GAP_TRIALS", 20)
    assert ch.main(["cramer-gaps", "--out", str(tmp_path / "cli"), "--seed", "7",
                    "--checkpoint-secs", "0"]) == 0
    config = cramer_models.CramerConfig(rate="log", N=2000, trials=20, seed=7)
    rep = cramer_models.simulate_gaps(config)
    got = read_strict_json(tmp_path / "cli" / "gap_report.json")
    assert got["max_ratios"] == [None if math.isnan(m) else m for m in rep.max_ratios]
    assert got["mean_gap"] == rep.mean_gap
    assert got["gap_count"] == rep.gap_count
    assert got["warmup"] == rep.warmup
    ch._write_gaps_csv(config, [cramer_models.trial_gaps(config, t) for t in range(20)],
                       tmp_path / "lib.csv")
    assert (tmp_path / "cli" / "gaps.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_cramer_gaps_finalize_holds_no_run_sized_copy(tmp_path, monkeypatch):
    # the report and gaps.csv come from the trials' own successes, one trial's
    # gaps at a time: the finalize step's traced peak (tracemalloc counts numpy
    # buffers) stays far below what any run-sized gap column would take
    seen = {}
    run_chunked = ch._run_chunked

    def traced(cfg, params_text, dtype, lengths, run_chunk, finalize, partial_summary):
        def measured(chunks):
            tracemalloc.start()
            try:
                finalize(chunks)
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return run_chunked(cfg, params_text, dtype, lengths, run_chunk, measured,
                           partial_summary)

    monkeypatch.setattr(ch, "_run_chunked", traced)
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--checkpoint-secs", "0"]) == 0
    gap_count = read_strict_json(tmp_path / "gap_report.json")["gap_count"]
    assert gap_count > 9 * 10**5  # default size: N = 10^5, 100 trials
    assert seen["peak"] < 2 * gap_count


def test_cramer_gaps_resume_holds_each_trial_once(tmp_path, monkeypatch):
    # a default-size run stopped at 50 of 100 trials and resumed keeps each
    # trial as its successes alone: 8 bytes per kept gap and 8 per trial (a
    # trial's last success starts no gap), where the S_k and gap columns took
    # 16 per gap.  The traced peak from load_checkpoint through finalize may
    # pass that by 24 bytes per site: the shared site table (8) and one
    # trial's uniform draws and mask (9), which no trial keeps.
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--max-chunks", "50"]) == 3
    seen = {}
    load_checkpoint, run_chunked = ch.load_checkpoint, ch._run_chunked

    def traced_load(path, header_at, dtype, lengths):
        tracemalloc.start()
        return load_checkpoint(path, header_at, dtype, lengths)

    def traced(cfg, params_text, dtype, lengths, run_chunk, finalize, partial_summary):
        def measured(chunks):
            try:
                finalize(chunks)
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return run_chunked(cfg, params_text, dtype, lengths, run_chunk, measured,
                           partial_summary)

    monkeypatch.setattr(ch, "load_checkpoint", traced_load)
    monkeypatch.setattr(ch, "_run_chunked", traced)
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--resume",
                    str(tmp_path / ch.CHECKPOINT_NAME)]) == 0
    gap_count = read_strict_json(tmp_path / "gap_report.json")["gap_count"]
    assert gap_count > 9 * 10**5
    assert seen["peak"] <= 8 * gap_count + 8 * ch.GAP_TRIALS + 24 * ch.GAP_N


def test_cramer_gaps_resume_holds_trials_as_bit_strings(tmp_path):
    # a default-size run stopped at 50 of 100 trials and resumed holds each
    # trial as its bit string, ceil((N - 2) / 8) bytes, whether loaded from
    # the checkpoint or drawn, and decodes one trial at a time in finalize.
    # Bound: every trial's bits, the shared 1/f table (8 bytes per site), and
    # 1.5 MB for one trial's decoding, its summary and write_csv's block
    # buffers (0.95 MB measured), none of which grows with the trial count.
    # The int64 successes of the earlier layout peaked at 9.39 MB here.
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--max-chunks", "50"]) == 3
    rc, peak = traced_peak(ch.main, ["cramer-gaps", "--out", str(tmp_path), "--resume",
                                     str(tmp_path / ch.CHECKPOINT_NAME)])
    assert rc == 0
    assert read_strict_json(tmp_path / "gap_report.json")["gap_count"] > 9 * 10**5
    bits = -(-(ch.GAP_N - 2) // 8)
    assert peak <= ch.GAP_TRIALS * bits + 8 * ch.GAP_N + 1_500_000


@pytest.mark.parametrize("subcommand", ["sample", "sieve-scan"])
def test_measure_steps_hold_nu_alone(subcommand, tmp_path):
    # the support is a range and every other temporary is block-, chunk- or
    # draw-sized: from x to 4x the whole step's traced peak grows by at most
    # nu's 8 bytes per added support point, +10%.  At both x sieve-scan's 32
    # chunks pass one CSV block (8192 rows), where write_csv's buffers stop
    # growing.  The support, cumsum and index arrays of the earlier layout
    # grew by 23 (sample) and 32 (sieve-scan) bytes a point here.
    sizes, peaks = [], []
    for x in (1_600_000, 6_400_000):
        params = tmp_path / f"{x}.params"
        params.write_text(f"x = {x}\nK = 1\nw = 3\nc = 0.3\ngamma = 1\n")
        sizes.append(len(sieve_measure.weight_support(
            sieve_measure.parse_params(params.read_text()))))
        argv = [subcommand, "--params", str(params), "--out", str(tmp_path / str(x))]
        if subcommand == "sieve-scan":
            argv += ["--checkpoint-secs", "0"]
        rc, peak = traced_peak(ch.main, argv)
        assert rc == 0
        peaks.append(peak)
    assert sizes[0] > 32 * 8192
    assert peaks[1] - peaks[0] <= 1.1 * 8 * (sizes[1] - sizes[0])


def test_runs_that_hash_nothing_load_no_openssl(toy_file, tmp_path):
    # hashlib's OpenSSL module adds about 3.5 MB to a process; only the
    # checkpoint functions import hashlib, and a chunked run hashes its
    # configuration only to save or load a checkpoint, so importing the
    # package, running c0 and a sieve-scan that never saves leave it
    # unloaded.  fractions (and with it _decimal, 0.3 MB) is imported only by
    # the exact-rational routes, which none of these reaches.
    src = str(Path(roughn_lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys\n"
            "from roughn_lab import cli_harness\n"
            "def loaded(): print('_hashlib' in sys.modules, 'fractions' in sys.modules)\n"
            "loaded()\n"
            "assert cli_harness.main(['c0', '--out', sys.argv[1] + '/c0']) == 0\n"
            "loaded()\n"
            "assert cli_harness.main(['sieve-scan', '--params', sys.argv[2], '--out',\n"
            "                         sys.argv[1] + '/scan', '--checkpoint-secs', '0']) == 0\n"
            "loaded()\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), toy_file], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 6


def test_c0_step_peak(tmp_path):
    # the whole c0 subcommand, in-process: make_bump's chirp-z transform,
    # c0_compute's real-FFT frequency route and eta_profile.csv's one block
    # buffer (4097 rows of 4 float columns), translated a slab at a time.
    # With a 32-row cosine block, a concatenated t grid and every column's
    # cell matrix held at once for the write, it peaked at 2.04 MiB; with an
    # 8-row cosine block and the whole buffer translated at once, 1.15 MiB.
    assert ch.main(["c0", "--out", str(tmp_path / "warm")]) == 0  # lazy imports
    rc, peak = traced_peak(ch.main, ["c0", "--out", str(tmp_path / "measured")])
    assert rc == 0
    assert peak <= 1.3 * 2**20


def test_write_json_refuses_nan_before_writing(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(path, {"value": float("nan")})
    assert not path.exists()


def test_pik_outputs(tmp_path):
    rc = ch.main(["pik", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "pik.csv")
    assert header == ["x", "k", "count", "lower_bound", "ratio"]
    assert len(rows) == 4 * len(ch.PIK_GRID)
    rep = json.loads((tmp_path / "pik_report.json").read_text())
    assert all(rep["partition_identity"].values())
    assert rep["pi_2_of_30"] == 12


def test_window_search_outputs(toy_file, tmp_path):
    rc = ch.main(["window-search", "--params", toy_file, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "witness.csv")
    assert header == ["x", "variant", "params", "witness_or_none"]
    assert len(rows) == 6
    assert {r[1] for r in rows} == {"A-omega", "B-Omega", "weak"}
    # none versus witness is checked in test_cramer_models::test_witness_csv_handles_none


def test_refute_679_outputs(tmp_path):
    rc = ch.main(["refute-679", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "refute679.json").read_text())
    assert rep["n"] == 10**8 + 7
    assert rep["searched_up_to"] >= 3


def test_record_search_outputs(toy_file, tmp_path):
    rc = ch.main(["record-search", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "7"])
    assert rc == 0
    rep = json.loads((tmp_path / "record_search.json").read_text())
    assert rep["sampled"]["value"] >= rep["exhaustive"]["value"]
    assert rep["value_ratio_sampled_over_exhaustive"] >= 1.0
    header, rows = read_rows(tmp_path / "omega_profile.csv")
    assert header == ["k", "Omega", "log_k", "ratio"]
    assert len(rows) == rep["k_max"] - 1
    n = rep["sampled"]["witness"]
    k, omega = int(rows[0][0]), int(rows[0][1])
    m, check = n + k, 0
    p = 2
    while p * p <= m:
        while m % p == 0:
            check += 1
            m //= p
        p += 1
    if m > 1:
        check += 1
    assert check == omega


def test_unknown_subcommand_exits_2(capsys):
    assert ch.main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_params_file_exits_2(tmp_path, capsys):
    rc = ch.main(["sieve-scan", "--params", str(tmp_path / "absent.params"),
                  "--out", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_params_content_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.params"
    bad.write_text("x = 10000\nbogus_key = 3\n")
    rc = ch.main(["sieve-scan", "--params", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["sieve-scan", "axioms", "record-search"])
@pytest.mark.parametrize("key", ["c", "gamma", "T_exponent", "A"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_parameter_exits_2(subcommand, key, value, tmp_path, capsys):
    params = tmp_path / "bad.params"
    params.write_text(TOY_PARAMS + f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = ch.main([subcommand, "--params", str(params), "--out", str(out)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# inputs whose prime sieve or weight support lies beyond its memory budget, or
# whose window [x, 2x] leaves the machine word
OVER_BUDGET = {
    "window-search": "x = 1000000000000000000\n",  # sieving primes up to 10^9
    "moments": "x = 100000000\nc = 1.2\ngamma = 0\n",  # R_1 = x^1.2, about 4e9
    "sieve-scan": "x = 1000000000000000000\n",  # about 4.8e15 support points
    "sample": f"x = {10**400}\n",
}
CHILD_ADDRESS_SPACE = 1536 * 2**20


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("subcommand", OVER_BUDGET)
def test_over_budget_input_exits_2(subcommand, tmp_path):
    # the child's address-space limit turns an allocation that slips past a
    # budget into a MemoryError there, before it can press on the host's memory
    params = tmp_path / "over.params"
    params.write_text(OVER_BUDGET[subcommand])
    src = str(Path(roughn_lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "roughn_lab", subcommand, "--params", str(params),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "invalid configuration" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        ch.build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    assert ch.main(["--help"]) == 0


def test_env_seed_is_not_read(toy_file, tmp_path, monkeypatch):
    # --seed is the one seed source: the retired ROUGHN_LAB_SEED override changes nothing
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert ch.main(["sample", "--params", toy_file, "--out", str(d1), "--seed", "5"]) == 0
    monkeypatch.setenv("ROUGHN_LAB_SEED", "99")
    assert ch.main(["sample", "--params", toy_file, "--out", str(d2), "--seed", "5"]) == 0
    assert (d1 / "samples.csv").read_bytes() == (d2 / "samples.csv").read_bytes()
    assert (d1 / "sample_summary.json").read_bytes() == (d2 / "sample_summary.json").read_bytes()


@pytest.mark.parametrize("flags", [
    ["--checkpoint-secs", "-1"],
    ["--max-chunks", "-1"],
])
def test_bad_workers_or_checkpoint_secs_exit_2(flags, tmp_path, capsys):
    rc = ch.main(["refute-679", "--out", str(tmp_path)] + flags)
    assert rc == 2
    assert "must be >=" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ch.SUBCOMMANDS)
@pytest.mark.parametrize("seed", [-1, 2**63])
def test_seed_outside_signed_64_bits_exits_2(subcommand, seed, toy_file, tmp_path, capsys):
    # the checkpoint fingerprint packs the seed as a signed 64-bit integer, and
    # the samplers take no negative seed: both are refused before --out is made
    out = tmp_path / "out"
    params = ["--params", toy_file] if subcommand in ch.PARAMS_SUBCOMMANDS else []
    rc = ch.main([subcommand, "--out", str(out), "--seed", str(seed)] + params)
    assert rc == 2
    assert "--seed must be in [0, 9223372036854775807]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_out_naming_a_file_exits_2(below, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / below if below else taken
    assert ch.main(["pik", "--out", str(out)]) == 2
    assert f"cannot make output directory {out}" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("subcommand", [s for s in ch.SUBCOMMANDS
                                        if s not in ch.CHUNKED_SUBCOMMANDS])
@pytest.mark.parametrize("flags", [["--resume", "/nonexistent/checkpoint.rlck"],
                                   ["--max-chunks", "3"], ["--checkpoint-secs", "5"]],
                         ids=["resume", "max-chunks", "checkpoint-secs"])
def test_chunk_flags_outside_chunked_subcommands_exit_2(subcommand, flags, tmp_path, capsys):
    rc = ch.main([subcommand, "--out", str(tmp_path)] + flags)
    assert rc == 2
    assert f"{flags[0]} applies only to" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", [s for s in ch.SUBCOMMANDS
                                        if s not in ch.PARAMS_SUBCOMMANDS])
def test_params_outside_parameter_subcommands_exit_2(subcommand, tmp_path, capsys):
    # these subcommands read no parameter file, so none is accepted and ignored
    params = tmp_path / "garbage.params"
    params.write_text("not a parameter file\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = ch.main([subcommand, "--params", str(params), "--out", str(out)])
    assert rc == 2
    assert "--params applies only to" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["sieve-scan", "refute-679"])
def test_removed_workers_flag_is_refused(subcommand, toy_file, tmp_path, capsys):
    # runs are single-process, so there is no worker count to accept
    rc = ch.main([subcommand, "--params", toy_file, "--out", str(tmp_path), "--workers", "2"])
    assert rc == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_interrupt_writes_checkpoint_and_flags_partial(toy_file, tmp_path):
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "3", "--max-chunks", "4"])
    assert rc == 3
    assert (tmp_path / ch.CHECKPOINT_NAME).is_file()
    summary = json.loads((tmp_path / "sieve_summary.json").read_text())
    assert summary["partial"] is True
    assert summary["completed_chunks"] == 4
    assert not (tmp_path / "weights.csv").exists()


def test_checkpoint_file_layout(toy_file, tmp_path):
    ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
             "--seed", "3", "--max-chunks", "2"])
    raw = (tmp_path / ch.CHECKPOINT_NAME).read_bytes()
    assert raw.startswith(ch.CHECKPOINT_MAGIC)
    chunks = load_scan_checkpoint(tmp_path / ch.CHECKPOINT_NAME)
    assert len(chunks) == 2
    # magic, u64 header length, JSON header, sha256 of header and body, body
    at = body_start(raw)
    header = json.loads(raw[len(ch.CHECKPOINT_MAGIC) + 8:at - 32])
    assert header == {
        "subcommand": "sieve-scan",
        "fingerprint": ch.config_fingerprint("sieve-scan", 3, TOY_PARAMS).hex(),
        "chunks": [[["<f8", len(nu)]] for nu in chunks],
    }
    assert raw[at:] == b"".join(nu.tobytes() for nu in chunks)


def read_checkpoint(raw: bytes) -> tuple[str, bytes, list]:
    """A checkpoint file's subcommand, fingerprint and chunks, each chunk a
    tuple of arrays, read through its JSON header: a reader independent of
    the loader, which compares headers instead of reading them."""
    at = body_start(raw)
    meta = json.loads(raw[len(ch.CHECKPOINT_MAGIC) + 8:at - 32])
    chunks = []
    for chunk in meta["chunks"]:
        columns = []
        for dtype, n in chunk:
            columns.append(np.frombuffer(raw, dtype, n, at))
            at += np.dtype(dtype).itemsize * n
        chunks.append(tuple(columns))
    return meta["subcommand"], bytes.fromhex(meta["fingerprint"]), chunks


def load_scan_checkpoint(path, seed: int = 3) -> list:
    """ch.load_checkpoint as a TOY sieve-scan run at seed calls it."""
    support = sieve_measure.weight_support(sieve_measure.parse_params(TOY_PARAMS))
    lengths = [hi - lo for lo, hi in ch._chunks(len(support), ch.SCAN_CHUNKS)[1]]
    fingerprint = ch.config_fingerprint("sieve-scan", seed, TOY_PARAMS)
    return ch.load_checkpoint(path, lambda cursor: ch.checkpoint_header(
        "sieve-scan", fingerprint, [(np.float64, n) for n in lengths[:cursor]]),
        np.float64, lengths)


def tobytes_checkpoint(subcommand: str, fingerprint: bytes, chunks) -> bytes:
    """A checkpoint file of chunks, each a tuple of arrays, as the earlier
    writer made it: a header naming every column's dtype and length, and the
    body as one tobytes() copy of every array, in chunk order."""
    header = json.dumps({
        "subcommand": subcommand,
        "fingerprint": fingerprint.hex(),
        "chunks": [[[col.dtype.str, len(col)] for col in chunk] for chunk in chunks],
    }).encode()
    return framed(header, b"".join(col.tobytes() for chunk in chunks for col in chunk))


@pytest.mark.parametrize("subcommand, budget", [("cramer-gaps", 7), ("sieve-scan", 5)])
def test_checkpoint_bytes_match_tobytes_writer(subcommand, budget, toy_file, tmp_path):
    argv = [subcommand, "--out", str(tmp_path), "--seed", "3", "--max-chunks", str(budget)]
    if subcommand in ch.PARAMS_SUBCOMMANDS:
        argv += ["--params", toy_file]
    assert ch.main(argv) == 3
    raw = (tmp_path / ch.CHECKPOINT_NAME).read_bytes()
    got_subcommand, fingerprint, chunks = read_checkpoint(raw)
    assert got_subcommand == subcommand and len(chunks) == budget
    assert raw == tobytes_checkpoint(subcommand, fingerprint, chunks)
    # strided, empty and big-endian arrays too, one per chunk
    odd = [array for column, in chunks for array in (
        column[::2], column[:0], column.astype(column.dtype.newbyteorder(">")))]
    header = ch.checkpoint_header(subcommand, fingerprint, [(a.dtype, len(a)) for a in odd])
    ch.save_checkpoint(tmp_path / "odd.rlck", header, odd)
    assert (tmp_path / "odd.rlck").read_bytes() == tobytes_checkpoint(
        subcommand, fingerprint, [(array,) for array in odd])


def test_sieve_scan_roundtrip_three_interrupts(toy_file, tmp_path):
    rep = checkpoint_roundtrip("sieve-scan", tmp_path, [5, 5, 5],
                               params_path=toy_file, seed=3)
    assert rep["identical"] is True
    assert set(rep["files"]) == {"weights.csv", "sieve_summary.json"}


def test_record_search_roundtrip(toy_file, tmp_path):
    rep = checkpoint_roundtrip("record-search", tmp_path, [8],
                               params_path=toy_file, seed=7)
    assert rep["identical"] is True


def test_cramer_gaps_roundtrip(tmp_path):
    rep = checkpoint_roundtrip("cramer-gaps", tmp_path, [50], seed=1)
    assert rep["identical"] is True
    assert rep["files"]["gaps.csv"] is True


# sha256 of two checkpoints, taken from the writer that read headers back as
# JSON: sieve-scan on the golden TOY bundle at seed 3 after 2 of its 32
# chunks, and golden-size cramer-gaps at the golden seed after 7 of its 20
# trials.  A resume compares header bytes, so a change in the header's
# spacing, key order or nesting, or in the body, strands every checkpoint
# written before it.
CHECKPOINT_GOLDEN = {
    "sieve-scan": "9836115100bdf5c405bc80b796bbda99d5b35c8b2c9bc348046957a0f537d8fc",
    "cramer-gaps": "35bf9fb7099d03953e9dfae45a2e6068af6b1c84aa2a5969e03ff78b79874cb2",
}


@pytest.mark.parametrize("subcommand", sorted(CHECKPOINT_GOLDEN))
def test_checkpoint_bytes_match_golden(subcommand, tmp_path, monkeypatch):
    if subcommand == "sieve-scan":
        params = tmp_path / "toy.params"
        params.write_text(BUNDLES["toy"])
        argv = ["--params", str(params), "--seed", "3", "--max-chunks", "2"]
    else:
        for name, value in PATCHES[("cramer-gaps", None)].items():
            monkeypatch.setattr(ch, name, value)
        argv = ["--seed", str(SEED), "--max-chunks", "7"]
    assert ch.main([subcommand, "--out", str(tmp_path)] + argv) == 3
    raw = (tmp_path / ch.CHECKPOINT_NAME).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == CHECKPOINT_GOLDEN[subcommand]


def test_timed_save_resumes_to_golden_bytes(toy_file, tmp_path, monkeypatch):
    # a clock that moves one second per reading makes --checkpoint-secs 1 save
    # after every chunk.  Chunk 6 then fails, so the last save holds chunks
    # 0-5 under the header of cursor 6: the file that a budget of 6 writes
    argv = ["sieve-scan", "--params", toy_file, "--seed", str(SEED)]
    assert ch.main(argv + ["--out", str(tmp_path / "budget"), "--checkpoint-secs", "0",
                           "--max-chunks", "6"]) == 3
    weights_at, calls, ticks = sieve_measure.weights_at, itertools.count(), itertools.count()

    def failing_at_six(*args):
        if next(calls) == 6:
            raise RuntimeError("chunk 6 fails")
        return weights_at(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ch.time, "monotonic", lambda: next(ticks))
        patch.setattr(sieve_measure, "weights_at", failing_at_six)
        with pytest.raises(RuntimeError, match="chunk 6 fails"):
            ch.main(argv + ["--out", str(tmp_path / "timed"), "--checkpoint-secs", "1"])
    saved = tmp_path / "timed" / ch.CHECKPOINT_NAME
    assert saved.read_bytes() == (tmp_path / "budget" / ch.CHECKPOINT_NAME).read_bytes()
    out = tmp_path / "resumed"
    assert ch.main(argv + ["--out", str(out), "--checkpoint-secs", "0",
                           "--resume", str(saved)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[("sieve-scan", "toy")]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(size=st.integers(1, 10**12), most=st.integers(1, 10**4))
def test_chunks_cover_the_range_without_an_empty_chunk(size, most):
    # the loader names a checkpoint's cursor by its body's size, which is
    # one-to-one only while every chunk holds an item
    n, bounds = ch._chunks(size, most)
    assert n == len(bounds) == min(most, size)
    assert bounds[0][0] == 0 and bounds[-1][1] == size
    assert all(lo < hi for lo, hi in bounds)
    assert all(left[1] == right[0] for left, right in zip(bounds, bounds[1:]))


def test_record_search_past_sixteen_chunks_keeps_golden_bytes(tmp_path, monkeypatch):
    # under a 500-integer window budget a chunk holds at most
    # (500 - 20 + 1) // 6 + 1 = 81 of TOY's 1667 support points (W = 6,
    # k_max = 20), so the run takes 21 chunks, each window within budget
    print_before = ch.config_fingerprint("record-search", 7, TOY_PARAMS)
    monkeypatch.setattr(primes_core, "WINDOW_WIDTH_MAX", 500)
    assert ch.config_fingerprint("record-search", 7, TOY_PARAMS) != print_before
    params = tmp_path / "toy.params"
    params.write_text(TOY_PARAMS)
    widths = []
    window_of = ch.factor_window

    def recorded(lo, hi):
        widths.append(hi - lo + 1)
        return window_of(lo, hi)

    monkeypatch.setattr(ch, "factor_window", recorded)
    probe = tmp_path / "probe"
    assert ch.main(["record-search", "--params", str(params), "--out", str(probe),
                    "--seed", "7", "--max-chunks", "1"]) == 3
    assert json.loads((probe / "record_search.json").read_text())["of_chunks"] == 21
    rep = checkpoint_roundtrip("record-search", tmp_path / "runs", [1, 9, 4],
                               params_path=str(params), seed=7)
    assert rep["identical"] is True
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "runs" / "uninterrupted").iterdir()}
    assert got == GOLDEN[("record-search", "toy")]
    assert max(widths) <= 500 and len(widths) > 21


def test_record_search_refuses_a_too_wide_window_before_the_table(
        toy_file, tmp_path, monkeypatch, capsys):
    # k_max = 20 reads 19 integers past a support point; a budget of 19 admits
    # one point per chunk, and 18 none
    def no_table(*args, **kwargs):
        raise AssertionError("weight table built for a refused configuration")

    monkeypatch.setattr(sieve_measure, "build_weight_table", no_table)
    monkeypatch.setattr(primes_core, "WINDOW_WIDTH_MAX", 18)
    rc = ch.main(["record-search", "--params", toy_file, "--out", str(tmp_path)])
    assert rc == 2
    assert "window wider than budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _moments_bound_overflows(A):
    try:
        (132.0 * A * math.log(3)) ** 4
    except OverflowError:
        return True
    return False


def _largest_finite_moments_A():
    A = sys.float_info.max ** 0.25 / (132.0 * math.log(3))
    while _moments_bound_overflows(A):
        A = math.nextafter(A, 0.0)
    while not _moments_bound_overflows(math.nextafter(A, math.inf)):
        A = math.nextafter(A, math.inf)
    return A


def _moments_bound_underflows(A):
    return (132.0 * A * math.log(2)) ** 4 < sys.float_info.min


def _smallest_normal_moments_A():
    A = sys.float_info.min ** 0.25 / (132.0 * math.log(2))
    while _moments_bound_underflows(A):
        A = math.nextafter(A, math.inf)
    while not _moments_bound_underflows(math.nextafter(A, 0.0)):
        A = math.nextafter(A, 0.0)
    return A


# each float key at the probe values, the type's extremes and the neighbours
# of its range checks; c also at the neighbours of the level guard
# (c * log x = 700 at x = 10^4) and gamma with K = 2, where k^gamma overflows
PROBE_VALUES = (1e-300, 5e-324, 1e-9, 0.999999, 1.0, 1e300, 0.0, -0.0, -5e-324,
                sys.float_info.max, -sys.float_info.max)
ACCEPTED_A_ENDS = (_smallest_normal_moments_A(), _largest_finite_moments_A())
BOUNDARY_CASES = (
    [("c", v, 1) for v in PROBE_VALUES + (math.nextafter(700 / math.log(10**4), 0.0),
                                          700 / math.log(10**4),
                                          math.nextafter(700 / math.log(10**4), math.inf))]
    + [("gamma", v, K) for v in PROBE_VALUES for K in (1, 2)]
    + [("c", 1e300, 2), ("c", sys.float_info.max, 2)]
    + [("T_exponent", v, 1) for v in PROBE_VALUES + (math.nextafter(1.0, 2.0),)]
    + [("A", v, 1) for v in PROBE_VALUES + (1e-100,
                                            math.nextafter(ACCEPTED_A_ENDS[0], 0.0),
                                            ACCEPTED_A_ENDS[0],
                                            ACCEPTED_A_ENDS[1],
                                            math.nextafter(ACCEPTED_A_ENDS[1], math.inf))]
)


@pytest.mark.parametrize("key, value, K", BOUNDARY_CASES,
                         ids=[f"{k}={v!r}-K{K}" for k, v, K in BOUNDARY_CASES])
def test_float_parameter_boundaries_exit_0_or_2(key, value, K, tmp_path):
    """parse_params either accepts the value or refuses it with ValueError,
    main's exit 2; any other exception would end in a traceback.  An accepted
    A leaves every moments bound a finite normal float, so moments runs on it
    and exits 0."""
    text = TOY_PARAMS.replace("K = 1", f"K = {K}").replace(f"\n{key} = ", f"\n{key} = {value!r} #")
    try:
        params = sieve_measure.parse_params(text)
    except ValueError as exc:
        assert not (key == "A" and value in ACCEPTED_A_ENDS)
        if key == "A" and 0 < value < ACCEPTED_A_ENDS[0]:
            assert "constant A too small" in str(exc)
        return
    assert getattr(params, key) == value
    assert (key, value) not in (("c", 1e300), ("A", 1e300), ("A", 1e-300), ("A", 5e-324))
    if key == "A":
        path = tmp_path / "a.params"
        path.write_text(text)
        rc = ch.main(["moments", "--params", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0


# each int key at the neighbours of its range checks, at +-2^63, 2^62 and 0
INT_RANGE_NEIGHBOURS = {
    "x": (9, 10, primes_core.WORD_MAX // 2, primes_core.WORD_MAX // 2 + 1),
    "K": (1, 2, 3),  # K < w = 3
    "w": (1, 2, 10**4, 10**4 + 1),
    "a": (1, 16, 17),
    "k_max": (1, 2),
}
INT_CASES = [(key, v) for key, near in INT_RANGE_NEIGHBOURS.items()
             for v in sorted(set(near + (-2**63, 2**63, 2**62, 0)))]


@pytest.mark.parametrize("key, value", INT_CASES, ids=[f"{k}={v}" for k, v in INT_CASES])
def test_int_parameter_boundaries_parse_or_raise_value_error(key, value):
    """parse_params keeps an int key or refuses it with ValueError, main's
    exit 2; an OverflowError or any other exception would end in a traceback."""
    text = TOY_PARAMS.replace(f"\n{key} = ", f"\n{key} = {value} #")
    try:
        params = sieve_measure.parse_params(text)
    except ValueError:
        return
    assert getattr(params, key) == value


def _except_types(func: ast.FunctionDef) -> set:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(kind.id for kind in kinds)
    return names


def _raised_types(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_exit_code_ledger(toy_file, tmp_path):
    """One argv per exit path of main, and no except clause in main for an
    exception type that nothing in src/ raises: such a branch is dead."""
    bad = tmp_path / "bad.params"
    bad.write_text(TOY_PARAMS.replace("x = 10000", "x = 9"))
    out = str(tmp_path / "out")
    for argv, rc in (
        (["sieve-scan", "--params", toy_file, "--out", out], 0),
        (["no-such-subcommand"], 2),  # argparse
        (["sieve-scan", "--params", str(bad), "--out", out], 2),  # ValueError
        (["sieve-scan", "--params", str(tmp_path / "missing.params"), "--out", out], 2),  # no file
        (["pik", "--out", str(bad)], 2),  # --out names a file
        (["sieve-scan", "--params", toy_file, "--out", out, "--max-chunks", "0"], 3),
    ):
        assert ch.main(argv) == rc, argv
    src = Path(roughn_lab.__file__).resolve().parent
    raised = {"SystemExit"}  # argparse's parse_args and parser.error
    for path in src.glob("*.py"):
        raised |= _raised_types(ast.parse(path.read_text()))
    tree = ast.parse(Path(ch.__file__).read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = _except_types(main)
    assert caught == {"SystemExit", "ValueError"}
    assert caught <= raised, caught - raised


def test_resume_with_altered_seed_refuses(toy_file, tmp_path, capsys):
    assert ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
                    "--seed", "3", "--max-chunks", "4"]) == 3
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "4", "--resume", str(tmp_path / ch.CHECKPOINT_NAME)])
    assert rc == 2
    assert "refusing to resume" in capsys.readouterr().err


def test_resume_under_other_gap_size_refuses(tmp_path, monkeypatch, capsys):
    # two trials of 125 bytes are one trial's 250 at the larger size, so the
    # body's size names cursor 1; the header, fingerprint and lengths, differs
    monkeypatch.setattr(ch, "GAP_N", 1000)
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--max-chunks", "2"]) == 3
    monkeypatch.setattr(ch, "GAP_N", 2000)
    rc = ch.main(["cramer-gaps", "--out", str(tmp_path), "--resume",
                  str(tmp_path / ch.CHECKPOINT_NAME)])
    assert rc == 2
    assert "refusing to resume" in capsys.readouterr().err
    assert read_strict_json(tmp_path / "gap_report.json")["partial"] is True
    assert not (tmp_path / "gaps.csv").exists()


def test_resume_under_other_subcommand_refuses(toy_file, tmp_path):
    assert ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
                    "--seed", "3", "--max-chunks", "4"]) == 3
    rc = ch.main(["record-search", "--params", toy_file, "--out", str(tmp_path),
                  "--seed", "3", "--resume", str(tmp_path / ch.CHECKPOINT_NAME)])
    assert rc == 2


def test_corrupt_checkpoint_exits_2(toy_file, tmp_path, capsys):
    bogus = tmp_path / "junk.rlck"
    bogus.write_bytes(b"NOPE!" + b"\x00" * 64)
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path),
                  "--resume", str(bogus)])
    assert rc == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_resume_from_a_directory_exits_2(toy_file, tmp_path, capsys):
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"),
                  "--resume", str(tmp_path)])
    assert rc == 2
    assert "refusing to resume" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint_bytes(toy_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert ch.main(["sieve-scan", "--params", toy_file, "--out", str(out),
                    "--seed", "3", "--max-chunks", "2"]) == 3
    return (out / ch.CHECKPOINT_NAME).read_bytes()


def body_start(raw: bytes) -> int:
    """Offset of a checkpoint's body: after the magic, the u64 header length,
    the JSON header and the 32-byte sha256."""
    at = len(ch.CHECKPOINT_MAGIC) + 8
    return at + int.from_bytes(raw[at - 8:at], "little") + 32


# cuts inside the magic, the header length, the JSON header (60-68 in its
# fingerprint) and the digest (167), then around the start of the body
# ("body" plus an offset), and before the last byte
@pytest.mark.parametrize("cut", [3, 6, 20, 40, 60, 66, 67, 68, 167,
                                 "body-1", "body+0", "body+1", "body+100", -1])
def test_truncated_checkpoint_exits_2(checkpoint_bytes, toy_file, tmp_path, capsys, cut):
    if isinstance(cut, str):
        cut = body_start(checkpoint_bytes) + int(cut[4:])
    path = tmp_path / "cut.rlck"
    path.write_bytes(checkpoint_bytes[:cut])
    with pytest.raises(ValueError):
        load_scan_checkpoint(path)
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"),
                  "--seed", "3", "--resume", str(path)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def framed(header: bytes, body: bytes) -> bytes:
    """A checkpoint file around header and body, with a matching digest."""
    return (ch.CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header
            + hashlib.sha256(header + body).digest() + body)


@pytest.mark.parametrize("where", ["subcommand", "payload", "nested header",
                                   "header not an object", "extra body bytes"])
def test_garbled_checkpoint_exits_2(checkpoint_bytes, toy_file, tmp_path, where):
    raw = bytearray(checkpoint_bytes)
    at = body_start(checkpoint_bytes)
    header = checkpoint_bytes[len(ch.CHECKPOINT_MAGIC) + 8:at - 32]
    if where == "subcommand":
        raw[checkpoint_bytes.index(b"sieve-scan")] = 0xFF  # not UTF-8, in the header
    elif where == "payload":
        raw[at:] = bytes(b ^ 0x5A for b in raw[at:])
    elif where == "nested header":  # JSON nested past the recursion limit
        raw = framed(b"[" * 10**5 + b"]" * 10**5, checkpoint_bytes[at:])
    elif where == "header not an object":
        raw = framed(b"[1, 2]", checkpoint_bytes[at:])
    else:  # one float more than the header declares
        raw = framed(header, checkpoint_bytes[at:] + bytes(8))
    path = tmp_path / "garbled.rlck"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_scan_checkpoint(path)
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"),
                  "--seed", "3", "--resume", str(path)])
    assert rc == 2


@pytest.mark.parametrize("encoding", [dict(separators=(",", ":")), dict(sort_keys=True),
                                      dict(indent=1)],
                         ids=["compact", "sorted keys", "indented"])
def test_re_encoded_header_exits_2(checkpoint_bytes, toy_file, tmp_path, capsys, encoding):
    # the same JSON values in other bytes, under a valid digest: a resume
    # takes only the header that this run would write
    at = body_start(checkpoint_bytes)
    header = checkpoint_bytes[len(ch.CHECKPOINT_MAGIC) + 8:at - 32]
    re_encoded = json.dumps(json.loads(header), **encoding).encode()
    assert re_encoded != header and json.loads(re_encoded) == json.loads(header)
    path = tmp_path / "re-encoded.rlck"
    path.write_bytes(framed(re_encoded, checkpoint_bytes[at:]))
    with pytest.raises(ValueError):
        load_scan_checkpoint(path)
    argv = ["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"), "--seed", "3"]
    assert ch.main(argv + ["--max-chunks", "2"]) == 3
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    capsys.readouterr()
    assert ch.main(argv + ["--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert "is not a checkpoint of this run; refusing to resume" in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_cut_or_flipped_byte_exits_2(checkpoint_bytes, toy_file, tmp_path_factory,
                                           data):
    raw = checkpoint_bytes
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    if data.draw(st.booleans(), label="flip"):
        spoiled = bytearray(raw)
        spoiled[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
    else:
        spoiled = raw[:pos]
    root = tmp_path_factory.mktemp("spoiled")
    path = root / "spoiled.rlck"
    path.write_bytes(bytes(spoiled))
    assert ch.main(["sieve-scan", "--params", toy_file, "--out", str(root / "out"),
                    "--seed", "3", "--resume", str(path)]) == 2


@pytest.mark.parametrize("case", ["empty payload", "cursor past the end",
                                  "strings in place of weights", "object column",
                                  "big-endian weights", "an extra column",
                                  "chunk of the wrong length"])
def test_malformed_sieve_scan_payload_exits_2(checkpoint_bytes, toy_file, tmp_path,
                                              capsys, case):
    # a well-formed file with a matching fingerprint, holding chunks that do
    # not fit the run
    _, fingerprint, chunks = read_checkpoint(checkpoint_bytes)
    nu = chunks[1][0]
    if case == "empty payload":  # a chunk with no column
        chunks[1] = ()
    elif case == "cursor past the end":  # sieve-scan runs at most 32 chunks
        chunks = chunks[:1] * 33
    elif case == "strings in place of weights":
        chunks[1] = (np.full(len(nu), "0.5"),)
    elif case == "object column":
        chunks[1] = (nu.astype(object),)
    elif case == "big-endian weights":
        chunks[1] = (nu.astype(">f8"),)
    elif case == "an extra column":
        chunks[1] = (nu, nu)
    else:
        chunks[1] = (nu[:-1],)
    path = tmp_path / "bad.rlck"
    path.write_bytes(tobytes_checkpoint("sieve-scan", fingerprint, chunks))
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"),
                  "--seed", "3", "--resume", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "refusing to resume" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "weights.csv").exists()


def test_malformed_cramer_gaps_payload_exits_2(tmp_path, capsys):
    # a two-trial budget checkpoints trials 0 and 1; each case spoils them in
    # one way
    assert ch.main(["cramer-gaps", "--out", str(tmp_path), "--max-chunks", "2"]) == 3
    good = (tmp_path / ch.CHECKPOINT_NAME).read_bytes()
    _, fingerprint, chunks = read_checkpoint(good)
    trial = chunks[1]
    bits, = trial
    config = cramer_models.CramerConfig(rate="log", N=ch.GAP_N, trials=ch.GAP_TRIALS)
    succ = cramer_models.trial_successes(config, bits)
    s_k, gap = succ[:-1], np.diff(succ)
    cases = {
        "cursor past the last trial": [trial] * (ch.GAP_TRIALS + 1),
        "successes of the wrong dtype": (succ.astype(np.float64),),
        "no column": (),
        "a string successes column": (succ.astype(str),),
        "a bit string one byte short": (bits[:-1],),
        "a second column": (bits, bits),
        # the earlier layouts: the int64 successes, before that the S_k and
        # gap columns, and before that the float64 ratio of each gap too
        "an int64 column": (succ,),
        "a two-column trial": (s_k, gap),
        "a three-column trial": (s_k, gap, gap / (np.log(s_k) * np.log(s_k))),
    }
    for case, value in cases.items():
        chunks = read_checkpoint(good)[2]
        if isinstance(value, list):
            chunks = value
        else:
            chunks[1] = value
        path = tmp_path / "bad.rlck"
        path.write_bytes(tobytes_checkpoint("cramer-gaps", fingerprint, chunks))
        rc = ch.main(["cramer-gaps", "--out", str(tmp_path / "out"), "--resume", str(path)])
        assert rc == 2, case
        err = capsys.readouterr().err
        assert "refusing to resume" in err, case
        assert "Traceback" not in err, case
        assert not (tmp_path / "out" / "gap_report.json").exists(), case


def test_parent_format_cramer_gaps_checkpoint_exits_2(tmp_path, capsys):
    # a checkpoint of an earlier layout under this run's fingerprint: each
    # trial's int64 successes, or before that its int64 S_k and gap columns.
    # Its header is not the one this run writes, so the loader refuses it, and
    # no output file changes
    out = tmp_path / "out"
    assert ch.main(["cramer-gaps", "--out", str(out), "--max-chunks", "3"]) == 3
    _, fingerprint, chunks = read_checkpoint((out / ch.CHECKPOINT_NAME).read_bytes())
    config = cramer_models.CramerConfig(rate="log", N=ch.GAP_N, trials=ch.GAP_TRIALS)
    successes = [cramer_models.trial_successes(config, bits) for bits, in chunks]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for earlier in ([(succ,) for succ in successes],
                    [(succ[:-1], np.diff(succ)) for succ in successes]):
        path = tmp_path / "earlier.rlck"
        path.write_bytes(tobytes_checkpoint("cramer-gaps", fingerprint, earlier))
        capsys.readouterr()
        assert ch.main(["cramer-gaps", "--out", str(out), "--resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not a checkpoint of this run; refusing to resume" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert read_strict_json(out / "gap_report.json")["partial"] is True


def pickle_format_checkpoint(subcommand: str, seed: int, params_text: str, cursor: int,
                             payload) -> bytes:
    """A checkpoint in the earlier pickle layout (magic RLCK1): fingerprint
    and subcommand with u16 lengths, u64 cursor, u64 payload length, pickle."""
    fingerprint = ch.config_fingerprint(subcommand, seed, params_text)
    blob = pickle.dumps(payload, protocol=4)
    return (b"RLCK1" + struct.pack("<H", len(fingerprint)) + fingerprint
            + struct.pack("<H", len(subcommand)) + subcommand.encode()
            + struct.pack("<QQ", cursor, len(blob)) + blob)


class TouchOnLoad:
    """Unpickling this object creates the file at path."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (Path(self.path),))


def test_pickle_format_checkpoint_exits_2(checkpoint_bytes, toy_file, tmp_path, capsys):
    # the two chunks of the fixture's run, stored as that layout stored them
    nu_chunks = [nu for nu, in read_checkpoint(checkpoint_bytes)[2]]
    path = tmp_path / "old.rlck"
    path.write_bytes(pickle_format_checkpoint(
        "sieve-scan", 3, TOY_PARAMS, 2, {"nu_chunks": nu_chunks + [None] * 30}))
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"),
                  "--seed", "3", "--resume", str(path)])
    assert rc == 2
    assert "not a checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out" / "weights.csv").exists()


def test_checkpoint_payload_cannot_run_code(toy_file, tmp_path):
    marker = tmp_path / "marker"
    path = tmp_path / "evil.rlck"
    path.write_bytes(pickle_format_checkpoint(
        "sieve-scan", 3, TOY_PARAMS, 0, {"nu_chunks": [TouchOnLoad(marker)]}))
    rc = ch.main(["sieve-scan", "--params", toy_file, "--out", str(tmp_path / "out"),
                  "--seed", "3", "--resume", str(path)])
    assert rc == 2
    assert not marker.exists()


def test_failed_write_leaves_no_report(tmp_path):
    path = tmp_path / "report.csv"
    # a float array, a list of floats and a mixed list, NaN in row 3
    for column in (np.array([1.0, 2.0, float("nan")]), [1.0, 2.0, float("nan")],
                   [1, 2, float("nan")]):
        with pytest.raises(ValueError):
            write_csv(path, ["i", "a"], [[np.arange(3), column]])
        assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_previous_report(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(path, ["a"], [[[1]]])
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [[np.array([2.0, float("inf")])]])
    assert path.read_text() == "a\n1\n"
    assert list(tmp_path.iterdir()) == [path]


def test_roundtrip_rejects_non_checkpointable(tmp_path):
    with pytest.raises(ValueError):
        checkpoint_roundtrip("sample", tmp_path, [1])


def test_fingerprint_separates_configs(monkeypatch):
    def fingerprint():
        return ch.config_fingerprint("sieve-scan", 0, "x = 100")

    prints = [fingerprint(),
              ch.config_fingerprint("sieve-scan", 1, "x = 100"),
              ch.config_fingerprint("record-search", 0, "x = 100"),
              ch.config_fingerprint("sieve-scan", 0, "x = 200")]
    # the code version and every constant that sizes a run's chunks
    for name, value in (("__version__", "0.0.0"), ("SAMPLE_COUNT", 10**4),
                        ("GAP_N", 10**4), ("GAP_TRIALS", 10),
                        ("_FAST_BUMP", dict(ch._FAST_BUMP, t_points=401)),
                        ("SCAN_CHUNKS", 8), ("RECORD_CHUNKS", 8)):
        with monkeypatch.context() as patch:
            patch.setattr(ch, name, value)
            prints.append(fingerprint())
    assert fingerprint() == prints[0]
    assert len(set(prints)) == len(prints) == 11


def test_two_full_runs_byte_identical(toy_file, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert ch.main(["record-search", "--params", toy_file, "--out", str(d),
                        "--seed", "12"]) == 0
    for name in ("record_search.json", "omega_profile.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
