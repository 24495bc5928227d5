"""Workload ``cli-cold``: one fresh ``python -m repro run`` per instance.

Each instance is a 16 x 8 matrix (c = 1, small 56-bit group, sequential
driver, in-process transport) written to a JSON file and passed with
``--instance``; the outcome and counted costs are read from stdout.
Eight distinct instances are generated from the seed and cycled, so
every run repeats instances and checks that their counts repeat.
"""

from __future__ import annotations

import ast
import json
import os
import random
import re
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
import ledger

AGENTS, TASKS, FAULTS = 16, 8, 1
DISTINCT = 8
SETUP_SAMPLES = 7

_COSTS = re.compile(r"^costs: (\d+) messages, \d+ field elements, \d+ rounds, "
                    r"max agent work (\d+)$", re.M)
_LIST = re.compile(r"^(schedule|payments): (\[.*\])$", re.M)


def instances(seed: int) -> List[List[List[int]]]:
    rng = random.Random(seed)
    return [common.random_matrix(rng, AGENTS, TASKS, FAULTS)
            for _ in range(DISTINCT)]


def cli_args(path: str) -> List[str]:
    return ["run", "-n", str(AGENTS), "-m", str(TASKS), "-c", str(FAULTS),
            "--instance", path]


def parse_outcome(stdout: str) -> Tuple[List[int], List[float], int, int]:
    """Schedule, payments, messages and max agent work from ``run`` output."""
    lists = {name: ast.literal_eval(text)
             for name, text in _LIST.findall(stdout)}
    costs = _COSTS.search(stdout)
    if costs is None or set(lists) != {"schedule", "payments"}:
        raise ValueError("no outcome in CLI output")
    return (lists["schedule"], lists["payments"], int(costs.group(1)),
            int(costs.group(2)))


def check_run(oracle: common.Oracle, key: Any, times: Sequence[Sequence[int]],
              run: Dict[str, Any]) -> Tuple[Optional[str], int, int]:
    """Verify one CLI process; returns (failure reason, messages, work)."""
    if run["returncode"] != 0:
        return "exit code %d: %s" % (run["returncode"],
                                     run["stderr"][-300:]), 0, 0
    try:
        schedule, payments, messages, work = parse_outcome(run["stdout"])
    except (ValueError, SyntaxError) as exc:
        return str(exc), 0, 0
    return (oracle.check(key, times, schedule, payments, (messages, work)),
            messages, work)


def measure_setup() -> float:
    """Spawn to ``import repro.cli`` done, on the shared monotonic clock."""
    code = "import time, repro.cli; print(time.perf_counter())"
    start = time.perf_counter()
    run = common.run_measured([sys.executable, "-c", code])
    if run["returncode"] != 0:
        raise RuntimeError("setup import failed: " + run["stderr"][-300:])
    return float(run["stdout"].split()[-1]) - start


def _traced_process(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    ledger_path = os.path.join(common.WORK, "ledger_cli.marshal")
    argv = [sys.executable, os.path.join(common.BENCH_DIR, "traced.py"),
            "cli", ledger_path, repr(time.perf_counter()), "--"]
    run = common.run_measured(argv + cli_args(path))
    dump = ledger.load(ledger_path)
    with open(ledger_path + ".meta") as handle:
        dump["meta"] = json.load(handle)
    return run, dump


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    matrices = instances(seed)
    paths = []
    for index, matrix in enumerate(matrices):
        path = os.path.join(common.WORK, "cli_instance_%d.json" % index)
        common.write_json(path, matrix)
        paths.append(path)
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    oracle = common.Oracle()
    tally = common.Tally()
    cpu_s = peak_rss = 0.0
    plain_wall: List[float] = []
    traced_wall: List[float] = []
    traced: List[Dict[str, Any]] = []
    process: Dict[str, List[float]] = {"python_start_s": [], "import_s": [],
                                       "residue_s": []}
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    while time.perf_counter() < deadline or done < DISTINCT:
        key = done % DISTINCT
        argv = [sys.executable, "-m", "repro"] + cli_args(paths[key])
        result = common.run_measured(argv)
        reason, messages, work = check_run(oracle, key, matrices[key], result)
        tally.record(key, result["wall_s"], reason, TASKS, messages, work)
        cpu_s += result["cpu_s"]
        peak_rss = max(peak_rss, result["peak_rss_mb"])
        if trace:
            plain_wall.append(result["wall_s"])
            result, dump = _traced_process(paths[key])
            reason, messages, work = check_run(oracle, key, matrices[key],
                                               result)
            tally.record(key, result["wall_s"], reason, TASKS, messages, work)
            traced_wall.append(result["wall_s"])
            meta = dump["meta"]
            main_s = meta["main"][1] - meta["main"][0]
            process["python_start_s"].append(meta["python_start_s"])
            process["import_s"].append(meta["import_s"])
            process["residue_s"].append(
                result["wall_s"] - meta["python_start_s"] - meta["import_s"]
                - meta["install_s"] - main_s - meta["dump_s"])
            traced.extend(ledger.instances_from_dump(dump,
                                                     {"0": meta["main"]}))
        done += 1
    window = time.perf_counter() - start
    values, detail = common.end_to_end(tally, setup, window, cpu_s, peak_rss)
    result_doc = {"tally": tally, "end_to_end": values, "detail": detail}
    if trace:
        layers = ledger.aggregate(traced)
        metrics = layers["metrics"]
        metrics["repro.python_start_s"] = common.median(
            process["python_start_s"])
        metrics["repro.import_s"] = common.median(process["import_s"])
        metrics["repro.process_residue_s"] = common.median(
            process["residue_s"])
        metrics["trace.overhead_ratio"] = sum(traced_wall) / sum(plain_wall)
        layers["reconcile"]["process"] = {
            "wall_s": common.median(traced_wall),
            "python_start_s": metrics["repro.python_start_s"],
            "import_s": metrics["repro.import_s"],
            "residue_s": metrics["repro.process_residue_s"]}
        layers["shims"] = dump["patched"]
        result_doc["layers"] = layers
    return result_doc
