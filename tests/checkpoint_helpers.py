"""Interrupt-and-resume check for the chunked subcommands, used by the tests.

checkpoint_roundtrip runs a subcommand once uninterrupted and once through
forced chunk budgets and resumes, and compares the two output directories
byte for byte.
"""

from pathlib import Path
from typing import Optional

from roughn_lab import cli_harness as ch

CHECKPOINTABLE = ch.CHUNKED_SUBCOMMANDS


def checkpoint_roundtrip(
    subcommand: str,
    out_root,
    interrupt_points: list[int],
    params_path: Optional[str] = None,
    seed: int = 0,
) -> dict:
    """Run once uninterrupted and once with forced interrupts, then compare.

    interrupt_points are per-invocation chunk budgets; the final invocation
    runs unbudgeted to completion.  Returns the per-file byte equality map.
    """
    if subcommand not in CHECKPOINTABLE:
        raise ValueError(f"{subcommand} does not support checkpoints")
    root = Path(out_root)
    dir_a = root / "uninterrupted"
    dir_b = root / "interrupted"
    dir_a.mkdir(parents=True, exist_ok=True)
    dir_b.mkdir(parents=True, exist_ok=True)
    base = [subcommand, "--seed", str(seed), "--checkpoint-secs", "0"]
    if params_path:
        base += ["--params", str(params_path)]
    rc = ch.main(base + ["--out", str(dir_a)])
    if rc != 0:
        raise RuntimeError(f"uninterrupted run failed with exit {rc}")
    resume = None
    for budget in interrupt_points:
        argv = base + ["--out", str(dir_b), "--max-chunks", str(budget)]
        if resume:
            argv += ["--resume", str(resume)]
        rc = ch.main(argv)
        if rc == 0:
            break
        if rc != 3:
            raise RuntimeError(f"interrupted run failed with exit {rc}")
        resume = dir_b / ch.CHECKPOINT_NAME
    else:
        argv = base + ["--out", str(dir_b)]
        if resume:
            argv += ["--resume", str(resume)]
        rc = ch.main(argv)
        if rc != 0:
            raise RuntimeError(f"final resume failed with exit {rc}")
    files = {}
    for path_a in sorted(dir_a.iterdir()):
        if path_a.name == ch.CHECKPOINT_NAME:
            continue
        path_b = dir_b / path_a.name
        files[path_a.name] = path_b.is_file() and (
            path_a.read_bytes() == path_b.read_bytes())
    return {"identical": all(files.values()) and bool(files), "files": files}
