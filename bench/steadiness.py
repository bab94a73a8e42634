"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/steadiness.py --seeds 10 [--workload NAME ...] [--baseline FILE]

For every workload and every end-to-end metric it prints the median of the
per-seed values, their first and third quartiles (``statistics.quantiles``
with n=4) and the interquartile spread as a share of the median, next to a
third of the metric's bound from ``BENCHMARK.json``.  ``--baseline`` also
writes those figures, with every run's values, to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                          timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    table = {}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, seed) for seed in seeds]
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            table[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": values}
            print(f"{workload:18s} {name:12s} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:7.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}){'' if ok else '  WIDE'}",
                  flush=True)
    if args.baseline:
        args.baseline.write_text(json.dumps({"seeds": seeds, "workloads": table},
                                            indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
