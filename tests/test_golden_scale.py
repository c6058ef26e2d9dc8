"""Golden bytes at benchmark size.

The golden cases run small bundles; this runs the CLI steps of the
benchmark's measure, omega and gaps workloads at full size, and `c0`, at one
seed, in-process, and compares the sha256 of every output with a committed
hash.  Only these runs hold a float column across a CSV block boundary, a
default-size gap trial and the checkpoint `cramer-gaps` leaves after 50 of
its 100 trials.

The steps are read from perfbench/workloads.py, read-only, so the hashes are
those of the benchmark's own workloads.  SEED was fixed before the first run.

`c0`'s three files and `gap_report.json` (its `max_ratios`) go through numpy
loops that are chosen by CPU feature, so their hashes hold only on the
dispatch set recorded beside them; on another set they are skipped with the
reason, and every other file is still compared.
"""

import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

from roughn_lab import cli_harness as ch

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SEED = 32001

# the dispatched targets numpy enabled on the host that wrote DISPATCHED's hashes
DISPATCH_SET = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]

PORTABLE = {
    "measure": {
        "axioms.json":
            "0825472f2a186b9569c9aa66d66a2c63d21d9111b90cd952fa95bb35ac93ebe8",
        "constants.json":
            "9282ea5acb3d4cdbb8f71adeb6c82ea84feddfdd8d1e5800a6a203b51069cf7a",
        "moments.csv":
            "771387c875ba4b613abda9fb4313f092b501fc1dfc901b1ac1f457722d5b43a7",
        "probs.csv":
            "20d514fcac1b688c755c2b40cbea06e2cea431fb17e0b99af0d11ab59ae2593d",
        "sample_summary.json":
            "2f45b98dbcc9f0ad1bcbdc8e537a89aeb5f1ae55bbd369603adbac555e76b644",
        "samples.csv":
            "5d086bbf7b9f24a919251a1c044e6250c99c27b2c8228408e096a7b7f09df466",
        "sieve_summary.json":
            "3958e54543abf5590db3ce7028b6ff122e52bdde85c27f864b3b42847cba20c1",
        "weights.csv":
            "8366de1bbb0133ac8d8068fe597579a1d0588c031a1034cc43367c03762cbf44",
    },
    "omega": {
        "omega_profile.csv":
            "c761cf37a8c2d0d0f16c5fbbc6e69dc9a5edddfd40417a0003b12e91903faf4a",
        "pik.csv":
            "6672ba2c099f7a1a4d8cca8f293090f570fb788f2ef8d3a3d7f09fea71b967bb",
        "pik_report.json":
            "c97ec258b3559cd02b94945cf1541aeb50a360b27cee0cf971d51e1055732731",
        "record_search.json":
            "c4f8b337c0a7482eba79e7eceb1cc8de5ca6419e5515632ef49b30ff098867ed",
        "refute679.json":
            "b8c8682987c76ab2a54edfa1f2d275d8109297af763d0ea3e0d480249c9f11de",
        "witness.csv":
            "69986697709fff2c7246496e81d37b2015f7a9f56147a3238f83e70de600fe76",
    },
    "gaps": {
        "interrupted:checkpoint.rlck":
            "86d8f2796c3c077d5ebd93e2f8f0aa09e977b0cc14ced6c9dac57094b4fe0a51",
        "checkpoint.rlck":
            "86d8f2796c3c077d5ebd93e2f8f0aa09e977b0cc14ced6c9dac57094b4fe0a51",
        "gaps.csv":
            "19171431c2f05ca70936368ddf6e1d47e068102f3cb8c97f93ede65cfe421f1c",
    },
}

DISPATCHED = {
    "gaps": {
        "gap_report.json":
            "c1f72466c57031ee7ea2a5678ca01b56b127da49b7f080da3aec288f288aebb8",
    },
    "constants": {
        "c0_report.json":
            "5bb968dd1d960d6cc35a63a74648c3d8b391fec0765d4b662318c770c3b84af8",
        "eta_hat_profile.csv":
            "895c8e0eca522181252648764c259ca4ae9a2628c59cd6773fcc9bc990a90f46",
        "eta_profile.csv":
            "f5f2e5c43456c59213d32e02bc4bb304aa437db83a1dc4af3dbf25266e8e0aba",
    },
}


@functools.cache
def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def dispatch_set() -> list[str]:
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def run_workload(name: str, tmp_path: Path) -> dict:
    """sha256 of every file the workload's CLI steps leave, plus each
    checkpoint an interrupted step leaves, keyed 'step:file'."""
    in_dir, out = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out.mkdir()
    got = {}
    for step in load_workloads().WORKLOADS[name].steps(SEED, in_dir, out, "full"):
        if step.kind != "cli":
            continue
        assert ch.main(list(step.args)) == step.expect_rc
        if step.expect_rc == 3:
            got[f"interrupted:{ch.CHECKPOINT_NAME}"] = digests(out)[ch.CHECKPOINT_NAME]
    got.update(digests(out))
    return got


@pytest.mark.parametrize("workload", ["measure", "omega", "gaps", "constants"])
def test_workload_bytes_at_benchmark_size(workload, tmp_path):
    got = run_workload(workload, tmp_path)
    portable, dispatched = PORTABLE.get(workload, {}), DISPATCHED.get(workload, {})
    assert set(got) == set(portable) | set(dispatched)
    assert {k: got[k] for k in portable} == portable
    if dispatch_set() != DISPATCH_SET:
        pytest.skip(f"{sorted(dispatched)} were hashed under numpy dispatch "
                    f"{DISPATCH_SET}; this host enables {dispatch_set()}")
    assert {k: got[k] for k in dispatched} == dispatched
