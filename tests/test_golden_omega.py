"""Golden bytes of the subcommands' outputs.

Each case runs one subcommand on a fixed bundle and seed and compares the
sha256 of every file it writes with a committed hash.  Run-to-run identity
cannot see drift between versions of the code; these hashes can.  A change
that alters the bytes on purpose regenerates the hashes and says why in
CHANGES.md.

`c0` sums its quadratures with numpy's own loops, never through BLAS, so its
bytes must not move with the BLAS thread count or kernel; the cross-environment
test runs it in fresh processes under other BLAS settings, another hash seed
and a longer output path, and holds each run to the same golden.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roughn_lab
from roughn_lab import cli_harness as ch
from roughn_lab.bump_functions import c0_compute

BUNDLES = {
    # the acceptance suite's TOY and RECORD bundles
    "toy": """\
x = 10000
K = 1
w = 3
a = 1
c = 0.29
gamma = 1.0
T_exponent = 0.5
A = 2.0
k_max = 20
""",
    "record": """\
x = 1000000
K = 1
w = 7
a = 1
c = 0.25
gamma = 1.0
T_exponent = 0.5
A = 2.0
k_max = 100
""",
}

SEED = 7

# module constants patched per case; cramer-gaps at its default size would
# add seconds to the suite
PATCHES = {
    ("cramer-gaps", None): {"GAP_N": 2000, "GAP_TRIALS": 20},
}

GOLDEN = {
    ("record-search", "toy"): {
        "omega_profile.csv": "42376764e8e96ff2387c95415b3ea2a26904a11260067596eb0b4b1dd70ffd43",
        "record_search.json": "996fe8c02a9f1cc33f000dd2314ad3c1ac1651d91311ebd3938cb89eb64249a2",
    },
    ("record-search", "record"): {
        "omega_profile.csv": "2ae8d2c16743162d0911e42c226d33282415ca448ca50d8ae51432cd89ffc74f",
        "record_search.json": "916f456155c141bdef46354574f8c5bf766cbf543f3e0a05e4de53ca18dbd2fb",
    },
    ("window-search", "toy"): {
        "witness.csv": "da54d3671900c3926a5eaf8f44c96265f6e28c0cac20c4aff7a02565cf4a641e",
    },
    ("window-search", "record"): {
        "witness.csv": "1ddbe1ba83b82203549a64f100510dbe63d5d53f893b295b4d834aa9c4712932",
    },
    ("refute-679", None): {
        "refute679.json": "b8c8682987c76ab2a54edfa1f2d275d8109297af763d0ea3e0d480249c9f11de",
    },
    ("pik", None): {
        "pik.csv": "6672ba2c099f7a1a4d8cca8f293090f570fb788f2ef8d3a3d7f09fea71b967bb",
        "pik_report.json": "c97ec258b3559cd02b94945cf1541aeb50a360b27cee0cf971d51e1055732731",
    },
    ("sieve-scan", "toy"): {
        "sieve_summary.json": "a1839b5fc40f3ae3b723fafb912b51ce963db415f00bec604fb8fbe98233aef3",
        "weights.csv": "32482055c06d0b6904f12077ee1d824e129b703aeba4f48eeef95440ea8c24d0",
    },
    ("sieve-scan", "record"): {
        "sieve_summary.json": "2095058061c1e5739dd05aca3310d247adc83e5d218874cc95d02bd3f7405d08",
        "weights.csv": "dc1c4329bdf801621b6718b95f8f436bcf6dc981d18adaed196e53b88414146e",
    },
    ("sample", "toy"): {
        "probs.csv": "6d218e9c57029d73bc8c89f4348784371aacb156692081b7668bce412c70c33b",
        "sample_summary.json": "210e4059641f1fbcfcbf73cfeb305f4643004e230e7a1241405532fcb696c367",
        "samples.csv": "e44703535db69cc2e3f73f658ac9c90c588d5f33ed56a67802a98bfa988fe7f2",
    },
    ("sample", "record"): {
        "probs.csv": "b5c82b5d133e2583dc049680ff825ab81ad401f666d923991be7a633701437ae",
        "sample_summary.json": "210e4059641f1fbcfcbf73cfeb305f4643004e230e7a1241405532fcb696c367",
        "samples.csv": "f9e3c69dc71f50d5fb9cc808ed9b0b6e72d4a4972fc11e0ff4896954fb873db0",
    },
    ("moments", "toy"): {
        "constants.json": "7ad9c4e2065bf86b8f70b8bbac5fc38b5a96a1f99ea385275c90e2100312b681",
        "moments.csv": "c3aa2756cc549a98a5a5fb36e3c34f20bde9fda7113b32e49c2eb2428a955eda",
    },
    ("moments", "record"): {
        "constants.json": "e09c5fd9988f7bb19d923fa7e5d43548c2bf576bf374fb6dfe6d0ed59f7b84ad",
        "moments.csv": "72ae874e9744c2d5f4264d996a353d6a652bfc978bcf8a2ecbe6f7574464851e",
    },
    ("axioms", "toy"): {
        "axioms.json": "3a90b27743aacb5f7645ee316f0113a79ed83bb3ebe5411a06b19c80872809df",
    },
    ("axioms", "record"): {
        "axioms.json": "c73ee555520c95cad2308bf9c88190a7b10ae282a7e9ef2c54250a520ad081ed",
    },
    ("cramer-gaps", None): {
        "gap_report.json": "e9ec7dfdef19e92f78db6f086816d1d63912c8fe4d83db266490a34d0da93fe4",
        "gaps.csv": "887b61b3541731018c8bce923994180319c9469a28b61b8cf65ada35279823a3",
    },
    ("c0", None): {
        "c0_report.json": "5bb968dd1d960d6cc35a63a74648c3d8b391fec0765d4b662318c770c3b84af8",
        "eta_hat_profile.csv": "895c8e0eca522181252648764c259ca4ae9a2628c59cd6773fcc9bc990a90f46",
        "eta_profile.csv": "f5f2e5c43456c59213d32e02bc4bb304aa437db83a1dc4af3dbf25266e8e0aba",
    },
}

# c0's time route reads eta and eta' only, never eta_hat, so its value and
# error estimate hold when only the frequency side's bytes move.  C0_FREQ is
# the frequency route's value by direct sums (a sliding-window convolution
# and a cosine per (t, u) pair); the FFT sums stay within 1e-13 of it.
C0_TIME = 1.5813373067997398
ERR_TIME = 2.449063091740754e-12
C0_FREQ = 1.5813373067799494


def test_c0_time_route_is_pinned(bump_spec):
    res = c0_compute(bump_spec)
    assert (res.c0_time, res.err_time) == (C0_TIME, ERR_TIME)
    assert abs(res.c0_freq - C0_FREQ) <= 1e-13 * C0_FREQ


@pytest.mark.parametrize("subcommand,bundle", sorted(GOLDEN, key=str),
                         ids=lambda v: str(v))
def test_output_bytes_match_golden(subcommand, bundle, tmp_path, monkeypatch):
    for name, value in PATCHES.get((subcommand, bundle), {}).items():
        monkeypatch.setattr(ch, name, value)
    out = tmp_path / "out"
    argv = [subcommand, "--out", str(out), "--seed", str(SEED)]
    if subcommand in ch.CHUNKED_SUBCOMMANDS:
        argv += ["--checkpoint-secs", "0"]
    if bundle is not None:
        params = tmp_path / f"{bundle}.params"
        params.write_text(BUNDLES[bundle])
        argv += ["--params", str(params)]
    assert ch.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[(subcommand, bundle)]


@pytest.mark.parametrize("env, out_name", [
    ({"OPENBLAS_NUM_THREADS": "2"}, "out"),
    ({"OPENBLAS_CORETYPE": "Nehalem"}, "out"),
    ({"PYTHONHASHSEED": "7"}, "a-much-longer-output-directory-name/" * 4 + "out"),
], ids=["blas-2-threads", "blas-nehalem", "hashseed-long-out"])
def test_c0_bytes_hold_across_environments(env, out_name, tmp_path):
    src = str(Path(roughn_lab.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items()
                 if not k.startswith("OPENBLAS_")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    child_env.update(env)
    out = tmp_path / out_name
    subprocess.run([sys.executable, "-m", "roughn_lab", "c0", "--out", str(out)],
                   env=child_env, check=True, timeout=300)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[("c0", None)]
