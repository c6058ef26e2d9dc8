"""Golden bytes of the omega subcommands.

Each case runs one subcommand on a fixed bundle and seed and compares the
sha256 of every file it writes with a committed hash.  Run-to-run identity
cannot see drift between versions of the code; these hashes can.  A change
that alters the bytes on purpose regenerates the hashes and says why in
CHANGES.md.
"""

import hashlib

import pytest

from roughn_lab import cli_harness as ch

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
}


@pytest.mark.parametrize("subcommand,bundle", sorted(GOLDEN, key=str),
                         ids=lambda v: str(v))
def test_output_bytes_match_golden(subcommand, bundle, tmp_path):
    out = tmp_path / "out"
    argv = [subcommand, "--out", str(out), "--seed", str(SEED), "--checkpoint-secs", "0"]
    if bundle is not None:
        params = tmp_path / f"{bundle}.params"
        params.write_text(BUNDLES[bundle])
        argv += ["--params", str(params)]
    assert ch.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[(subcommand, bundle)]
