"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

    python3 dmwbench/spread.py --workload service-mix --seeds 1-10 \
        [--seconds 30] [--out spread.json]

Runs the benchmark once per seed (sequentially, from the repository
root) and prints, per metric, the median and the quartile spread
``(Q3 - Q1) / median`` next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    spec_path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    runs = []
    for seed in _seeds(args.seeds):
        argv = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", repr(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=common.ROOT, capture_output=True,
                              text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["record"] = json.loads(lines[-2])["record"]
        runs.append(result)
        print("seed %d: correct=%s %s" % (
            seed, result["correct"],
            " ".join("%s=%.6g" % (name, metric["value"])
                     for name, metric in result["metrics"].items())),
              flush=True)
    report = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        spread = common.quartile_spread(values) if len(values) > 1 else 0.0
        report[name] = {"median": common.median(values), "spread": spread,
                        "bound": metric["bound"], "values": values}
        print("%-24s median %-12.6g spread %.4f  bound %.2f  %s"
              % (name, report[name]["median"], spread, metric["bound"],
                 "ok" if spread < metric["bound"] / 3 else "WIDE"))
    if args.out:
        common.write_json(args.out, {"spread": report, "runs": runs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
