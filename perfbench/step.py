"""Run one workload step in a fresh interpreter and write its timings.

    python3 perfbench/step.py --result FILE --spawn-ns NS [--trace RUN_ID] \
        cli <roughn-lab argv...>
    python3 perfbench/step.py --result FILE --spawn-ns NS [--trace RUN_ID] \
        constants-lib OUT_DIR GRID S3_MAX

``cli`` calls ``roughn_lab.cli_harness.main(argv)`` as the console entry
point does.  ``constants-lib`` makes the library calls that no subcommand
reaches: the ordered-simplex search and the set-partition sum.

The package must be importable from the checkout's ``src`` (the parent puts it
on PYTHONPATH).  Set-up time ends once ``import roughn_lab`` returns, so it
covers interpreter start and the package import and nothing else.
"""

import time

import roughn_lab

SETUP_END_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer  # noqa: E402

RHO_ORDERS = (2, 3, 4)
PARTITION_R = (10.0, 100.0, 1000.0)


def constants_library(out_dir: str, grid: int, s3_max: int) -> dict:
    """rho_r_maximize for r = 2, 3, 4 and partition_sum_G for s3 <= s3_max."""
    mc = roughn_lab.moments_concentration
    t0 = time.perf_counter()
    simplex = {}
    for r in RHO_ORDERS:
        rep = mc.rho_r_maximize(r, grid)
        simplex[str(r)] = {
            "argmax": list(rep.argmax), "max_value": rep.max_value,
            "uniform_distance": rep.uniform_distance, "grid": rep.grid,
            "maximizer_is_uniform": rep.maximizer_is_uniform(),
        }
    t1 = time.perf_counter()
    partition = {f"{s3}:{R:g}": mc.partition_sum_G(s3, R)
                 for s3 in range(1, s3_max + 1) for R in PARTITION_R}
    t2 = time.perf_counter()
    with open(Path(out_dir) / "constants_lib.json", "w") as fh:
        json.dump({"simplex": simplex, "partition_sum_G": partition}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return {"rho_s": t1 - t0, "partition_s": t2 - t1}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_mb():
    """This process's own high-water RSS.  getrusage would also count the
    parent's memory, which a vfork-spawned child inherits until exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", default=None, help="run id; enables the tracer")
    parser.add_argument("kind", choices=("cli", "constants-lib"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    src = Path(roughn_lab.__file__).resolve().parent.parent
    expected = Path(__file__).resolve().parent.parent / "src"
    if src != expected:
        print(f"roughn_lab imported from {src}, expected {expected}", file=sys.stderr)
        return 2

    trace = tracer.Tracer(opts.trace) if opts.trace else None
    if trace:
        trace.install()
    wrapped = tracer.installed_wrappers()
    parts = {}
    t0 = time.perf_counter()
    if opts.kind == "cli":
        rc = roughn_lab.cli_harness.main(opts.args)
    else:
        out_dir, grid, s3_max = opts.args
        parts = constants_library(out_dir, int(grid), int(s3_max))
        rc = 0
    step_s = time.perf_counter() - t0
    if trace:
        trace.uninstall()
    result = {
        "rc": rc,
        "setup_s": (SETUP_END_NS - opts.spawn_ns) / 1e9,
        "step_s": step_s,
        "parts": parts,
        "wrapped_during_step": wrapped,
        "wrapped_after_step": tracer.installed_wrappers(),
        "blas_threads": blas_threads(),
        "peak_rss_mb": peak_rss_mb(),
        "spans": trace.spans if trace else [],
        "tracer_s": trace.overhead_s() if trace else 0.0,
        "missing_targets": trace.missing if trace else [],
    }
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
