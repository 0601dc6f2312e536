"""Run the benchmark several times per workload and report the spread of
every end-to-end metric: median, quartiles (statistics.quantiles, n=4),
sample count, and (q3 - q1) / median next to the metric's bound.

Run from the root of a checkout:

    python3 bench/spread.py --seeds 1-10 --out bench/spread.json

Runs are sequential, one benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
            elapsed = perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "run_s": round(elapsed, 2), "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, f"{elapsed:.1f}s", result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                             "spread": (q3 - q1) / med, "bound": bounds.get(name),
                             "values": vals}
            print(f"  {workload} {name}: median {med:.4g} spread {(q3 - q1) / med:.4f} "
                  f"bound {bounds.get(name)}", flush=True)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
