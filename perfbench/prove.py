"""Seed sweep: run each workload once per seed, report spreads, record a baseline.

    python3 perfbench/prove.py --runs 10 --seconds 20 [--workloads a b] [--first-seed 1] [--out FILE]

For every end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over the median), then makes one traced run per
workload.  With --out it writes all of it, with the environment and each
workload's expected layer moves, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import WORKLOAD_NAMES  # noqa: E402


def _run(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("environment "))
    return env, json.loads(lines[-1])


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--skip-trace", action="store_true", help="no traced run, no record")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    from workloads import WORKLOADS

    record = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for name in args.workloads:
        results = []
        for seed in seeds:
            env, result = _run(name, seed, args.seconds, 0)
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {}
        for metric, first in results[0]["metrics"].items():
            summary = _summary([r["metrics"][metric]["value"] for r in results])
            end_to_end[metric] = {"unit": first["unit"], **summary}
            print(f"  {metric:18s} median {summary['median']:.5g} {first['unit']:5s} "
                  f"quartiles {summary['q1']:.5g}..{summary['q3']:.5g} "
                  f"spread {summary['spread']:.4f}")
        if args.skip_trace:
            continue
        _env, traced = _run(name, seeds[0], args.seconds, 1)
        record["environment"] = {k: v for k, v in env.items() if k != "seed"}
        record["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "moves": WORKLOADS[name].moves,
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": end_to_end,
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
