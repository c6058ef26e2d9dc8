"""roughn-lab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats the workload (a pass) with the
same seed until ``--seconds`` is used up, at least twice.  Each process's
numbers are medians over the passes, summed (memory: the largest taken) over
the workload's processes.  Every step of a pass is a fresh ``python3`` process that imports
``roughn_lab`` from ``src/`` and calls ``cli_harness.main(argv)``, as the
console entry point does.  Repeated passes must write byte-identical outputs.

With ``--trace 1`` passes alternate untraced and traced; the last line then
holds the per-layer metrics of BENCHMARK.json, plus the tracing overhead and
the part of the traced wall time that neither set-up nor a span accounts for.
The last line of standard output is always the JSON result.  Full results,
spans and environment go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, gap_seed_note  # noqa: E402

MIN_PASSES = 2           # byte identity needs a repeat
RUN_LIMIT_S = 170.0      # one invocation must end within 180 s
BLAS_THREADS = "1"       # pinned: OpenBLAS would otherwise take every core in c0
IGNORED_OUTPUTS = ("checkpoint.rlck", "checkpoint.rlck.tmp")


def now_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so a child can time its own
    # start-up from the parent's spawn timestamp
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROUGHN_LAB_SEED", None)  # it would override --seed
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_pinned": int(BLAS_THREADS),
    }


def run_step(step, index, pass_dir, trace_id, deadline) -> dict:
    meta = pass_dir / "meta"
    result_path = meta / f"{index}-{step.name}.json"
    spawn = now_ns()
    cmd = [sys.executable, str(HERE / "step.py"), "--result", str(result_path),
           "--spawn-ns", str(spawn)]
    if trace_id:
        cmd += ["--trace", f"{trace_id}-{index}"]
    cmd += [step.kind, *step.args]
    with open(meta / f"{index}-{step.name}.log", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"name": step.name, "exit": proc.returncode, "wall_s": (end - spawn) / 1e9,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and result_path.is_file():
        out.update(json.loads(result_path.read_text()))
    out["ok"] = proc.returncode == 0 and out.get("rc") == step.expect_rc
    return out


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name not in IGNORED_OUTPUTS}


def run_pass(workload, seed, size, pass_dir, trace_id, deadline) -> dict:
    in_dir, out_dir = pass_dir / "in", pass_dir / "out"
    for d in (in_dir, out_dir, pass_dir / "meta"):
        d.mkdir(parents=True)
    steps = []
    for index, step in enumerate(workload.steps(seed, in_dir, out_dir, size)):
        steps.append(run_step(step, index, pass_dir, trace_id, deadline))
    checks = workload.checks(in_dir, out_dir, seed)
    step_times: dict[str, float] = {}
    for s in steps:
        for name, value in [(s["name"], s.get("step_s", 0.0))] + list(s.get("parts", {}).items()):
            step_times[name] = step_times.get(name, 0.0) + value
    result = {
        "traced": bool(trace_id),
        "wall_s": sum(s["wall_s"] for s in steps),
        "setup_s": sum(s.get("setup_s", 0.0) for s in steps),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in steps),
        "steps": step_times,
        "per_step": [{k: s.get(k, 0.0) for k in ("wall_s", "setup_s", "peak_rss_mb")}
                     for s in steps],
        "step_exits": [(s["name"], s.get("rc"), s["ok"]) for s in steps],
        "checks": checks,
        "digests": digests(out_dir),
        "wrapped_during_step": sorted({w for s in steps for w in s.get("wrapped_during_step", [])}),
        "wrapped_after_step": sorted({w for s in steps for w in s.get("wrapped_after_step", [])}),
        "missing_targets": sorted({m for s in steps for m in s.get("missing_targets", [])}),
        "blas_threads": sorted({s.get("blas_threads") for s in steps}, key=str),
        "spans": [span for s in steps for span in s.get("spans", [])],
        "tracer_s": sum(s.get("tracer_s", 0.0) for s in steps),
        "attempted": len(steps) + len(checks),
        "failed": sum(not s["ok"] for s in steps) + sum(not ok for _, ok, _ in checks),
    }
    shutil.rmtree(pass_dir)
    return result


def median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name, seed, seconds, trace, size, spec) -> dict:
    workload = WORKLOADS[name]
    run_dir = OUT_ROOT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        trace_id = f"{name}-{seed}-p{len(passes)}" if trace and len(passes) % 2 else None
        passes.append(run_pass(workload, seed, size, run_dir / f"pass{len(passes)}",
                               trace_id, deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > RUN_LIMIT_S - 5:
            break
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = {}
    for i, p in enumerate(passes[1:], 1):
        diff = sorted(f for f in set(p["digests"]) | set(passes[0]["digests"])
                      if p["digests"].get(f) != passes[0]["digests"].get(f))
        attempted += 1
        if diff:
            failed += 1
            mismatches[f"pass{i}"] = diff
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted += 1  # no wrapper in an untraced step, none outliving its step
    if any(p["wrapped_during_step"] for p in plain) or any(
            p["wrapped_after_step"] for p in passes):
        failed += 1
    step_names = list(dict.fromkeys(n for p in plain for n in p["steps"]))
    detail = {
        "workload": name, "seed": seed, "size": size, "trace": trace,
        "passes": len(passes), "traced_passes": len(traced),
        "untraced": {k: [p[k] for p in plain] for k in ("wall_s", "setup_s", "peak_rss_mb")},
        "step_medians_s": {n: median([p["steps"][n] for p in plain]) for n in step_names},
        "checks": passes[0]["checks"],
        "failed_checks": [(i, c) for i, p in enumerate(passes)
                          for c in p["checks"] if not c[1]],
        "step_exits": passes[0]["step_exits"],
        "digests": passes[0]["digests"],
        "digest_mismatches": mismatches,
        "blas_threads_seen": sorted({t for p in passes for t in p["blas_threads"]}, key=str),
        "missing_trace_targets": sorted({m for p in traced for m in p["missing_targets"]}),
        "notes": [n for n in [gap_seed_note(seed) if name == "gaps" else None] if n],
    }
    if trace:
        metrics, layers = traced_metrics(plain, traced, spec)
        detail["layers"] = layers
    else:
        # median of each process over the passes, then summed (or the largest
        # taken) over the workload's processes
        per_process = [{k: median([p["per_step"][i][k] for p in plain])
                        for k in ("wall_s", "setup_s", "peak_rss_mb")}
                       for i in range(len(plain[0]["per_step"]))]
        metrics = {
            "wall_s": sum(s["wall_s"] for s in per_process),
            "setup_s": sum(s["setup_s"] for s in per_process),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in per_process),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"result": result, "detail": detail, "environment": environment()},
                  fh, indent=1)
    if traced:
        with open(OUT_ROOT / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump([s for p in traced for s in p["spans"]], fh)
    return {"result": result, "detail": detail}


def traced_metrics(plain, traced, spec):
    """Per-layer metrics: self times are medians over traced passes, counts
    come from the first traced pass (they repeat exactly)."""
    if not traced:
        raise RuntimeError("no traced pass fitted in the run limit")
    summaries = [tracer.summarize(p["spans"]) for p in traced]
    metrics = {}
    for m in spec["per_layer"]:
        if "." in m["name"]:
            values = [tracer.layer_metric(s, m["name"]) for s in summaries]
            metrics[m["name"]] = median(values) if m["unit"] == "s" else values[0]
    self_total = [sum(st["self_s"] for st in s.values()) for s in summaries]
    remainders = [p["wall_s"] - p["setup_s"] - t for p, t in zip(traced, self_total)]
    # the tracer's own time as it measured it; the wall-time difference of
    # paired passes is kept in the detail, as it mostly shows host noise
    metrics["trace_overhead_s"] = median([p["tracer_s"] for p in traced])
    metrics["unaccounted_s"] = median(remainders)
    # where the first traced pass spent its wall time, layer by layer
    per_layer: dict[str, float] = {}
    for fn, st in summaries[0].items():
        layer = fn.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + st["self_s"]
    layers = {"traced_wall_s": traced[0]["wall_s"], "setup_s": traced[0]["setup_s"],
              **{f"{k}.self_s": v for k, v in sorted(per_layer.items())},
              "tracer_s": traced[0]["tracer_s"],
              "unaccounted_s": remainders[0],
              # passes alternate: each traced pass less the untraced one before it
              "traced_minus_untraced_wall_s": median(
                  [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)])}
    return metrics, layers


def print_human(run: dict) -> None:
    d, r = run["detail"], run["result"]
    print(f"# {d['workload']} seed={d['seed']} size={d['size']} trace={d['trace']} "
          f"passes={d['passes']} (traced {d['traced_passes']}) "
          f"attempted={r['attempted']} failed={r['failed']}")
    for name, m in r["metrics"].items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    for name, v in d["step_medians_s"].items():
        print(f"  step {name:47s} {v:>14.6g} s")
    for name, v in d.get("layers", {}).items():
        print(f"  layer {name:46s} {v:>14.6g} s")
    for name, ok, why in d["checks"]:
        print(f"  check {name:40s} {'ok' if ok else 'FAILED'}  {why}")
    for note in d["notes"]:
        print(f"  note: {note}")
    if d["digest_mismatches"]:
        print(f"  NOT DETERMINISTIC: {d['digest_mismatches']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the windows, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run still stops the step it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "roughn_lab" / "__init__.py").is_file():
        print(f"no roughn_lab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    # compile the package once so no timed process pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import roughn_lab"], env=child_env(),
                   cwd=ROOT, check=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(n, args.seed, args.seconds, args.trace, args.size, spec)
            for n in names]
    print(json.dumps({"environment": environment()}))
    for run in runs:
        print_human(run)
        print(json.dumps(run["detail"]))
    if len(runs) == 1:
        final = runs[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['detail']['workload']}.{k}": v
                        for r in runs for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
