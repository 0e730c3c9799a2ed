"""Run the benchmark over several seeds and summarise run-to-run spread.

Usage, from the repository root::

    python3 perfbench/spread.py --runs 10 [--workload two_tier ...] \\
        [--write-baseline]

Each workload gets ``--runs`` untraced runs on consecutive seeds and one
traced run.  For every (end-to-end metric, workload) pair it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, flagged against the metric's bound from
``BENCHMARK.json``: ``ok`` below a third of the bound, ``WIDE`` within the
bound, ``OVER`` beyond it.  With ``--write-baseline`` the summary, tagged
with the machine fingerprint, becomes ``perfbench/baseline.json``: the
figures later changes compare against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """One benchmark run; returns its result line plus the fingerprint."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# machine "):
            result["machine"] = json.loads(line[len("# machine "):])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    machine = None
    for workload in workloads:
        values = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            machine = result.get("machine", machine)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        traced = run_once(workload, args.first_seed, spec["run_seconds"],
                          trace=1)
        failed += traced["failed"]
        attempted += traced["attempted"]
        rows = summary[workload] = {
            "failed": failed, "attempted": attempted, "metrics": {},
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()}}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            rows["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": series}
            bound = bounds[name]
            flag = ("ok" if spread < bound / 3
                    else "WIDE" if spread <= bound else "OVER")
            print(f"  {workload:14s} {name:22s} median {median:12.4f} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f} "
                  f"bound {bound:5.3f} {flag}", flush=True)
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(
            {"machine": machine, "runs": args.runs,
             "first_seed": args.first_seed,
             "run_seconds": spec["run_seconds"], "workloads": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
