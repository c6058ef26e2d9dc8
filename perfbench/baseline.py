"""Measure the benchmark over several seeds and write or compare a baseline.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out FILE.json
    python3 perfbench/baseline.py --seeds 11,12,13 --compare perfbench/BASELINE.json

For every workload this runs ``run.py`` once per seed with tracing off, then
once with tracing on (first seed).  Per end-to-end metric it reports the
median over seeds and the spread, the distance between the first and third
quartile as a share of the median, next to the metric's bound.  With
``--compare`` it also reports how far each median moved from the stored
baseline, as a share of the stored median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import environment  # noqa: E402

# Self times (s) stated for the dominant functions before the benchmark
# existed, from single profiled runs; the baseline records the measured value
# next to each.
STATED_SELF_S = {
    "measure": {"moments_concentration.exact_centered_moment.self_s": 5.6,
                "sieve_measure.prob_divides.self_s": 0.7,
                "reporting.write_csv.self_s": 0.6,
                "primes_core.factor_window.self_s": 0.0},
    "omega": {"primes_core.factor_window.self_s": 5.8,
              "reporting.write_csv.self_s": 0.0,
              "moments_concentration.exact_centered_moment.self_s": 0.0},
    "gaps": {"reporting.write_csv.self_s": 5.0,
             "cramer_models.simulate_gaps.self_s": 1.0,
             "cli_harness.save_checkpoint.self_s": 0.24,
             "cli_harness.load_checkpoint.self_s": 0.18},
    "constants": {"bump_functions.c0_compute.self_s": 2.5},
}


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def measure(seeds) -> dict:
    out = {}
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["result"]["metrics"].items()),
                file=sys.stderr, flush=True)
        traced = run(name, seeds[0], 1)
        per_layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        steps = sorted({s for r in runs for s in r["detail"]["step_medians_s"]})
        out[name] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs) + traced["result"]["failed"],
            "end_to_end": {
                m["name"]: {**spread([r["result"]["metrics"][m["name"]]["value"] for r in runs]),
                            "unit": m["unit"], "bound": m["bound"]}
                for m in SPEC["end_to_end"]},
            "steps_s": {s: spread([r["detail"]["step_medians_s"][s] for r in runs])
                        for s in steps},
            "traced_seed": seeds[0],
            "layer_self_s": traced["detail"]["layers"],
            "stated_vs_measured_self_s": {
                k: {"stated": v, "measured": per_layer[k]}
                for k, v in STATED_SELF_S.get(name, {}).items()},
            "per_layer": per_layer,
            "notes": sorted({n for r in runs for n in r["detail"]["notes"]}),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="comma-separated")
    parser.add_argument("--out", help="write the baseline here")
    parser.add_argument("--compare", help="baseline file to compare medians with")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    results = measure(seeds)
    ok = True
    for name, res in results.items():
        for metric, m in res["end_to_end"].items():
            steady = m["spread"] <= m["bound"]
            ok &= steady
            print(f"{name:10s} {metric:12s} median {m['median']:10.4f} {m['unit']:3s} "
                  f"spread {m['spread']:.4f} bound {m['bound']} "
                  f"{'ok' if steady else 'TOO WIDE'}")
        ok &= res["failed"] == 0
    if args.compare:
        base = json.loads(Path(args.compare).read_text())["workloads"]
        for name, res in results.items():
            for metric, m in res["end_to_end"].items():
                old = base[name]["end_to_end"][metric]["median"]
                change = (m["median"] - old) / old
                within = change <= m["bound"]
                ok &= within
                print(f"{name:10s} {metric:12s} median {old:.4f} -> {m['median']:.4f} "
                      f"({change:+.2%}, bound {m['bound']:.0%}) "
                      f"{'ok' if within else 'WORSE'}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "environment": environment(), "run_seconds": SPEC["run_seconds"], "seeds": seeds,
            "workloads": results}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
