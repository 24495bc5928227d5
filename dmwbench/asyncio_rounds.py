"""Workload ``asyncio-rounds``: ``run_dmw(problem, transport="asyncio")``.

One long-lived driver child (``driver.py``) imports the program, builds
the small fixture group for n = 6 and then answers instance requests
over stdin/stdout.  Each instance is a 6 x 32 matrix run with the
sequential driver over the socket transport: 129 rounds per run, with
light crypto.  Eight distinct instances are generated from the seed and
cycled.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import ledger

AGENTS, TASKS, FAULTS = 6, 32, 1
DISTINCT = 8
SETUP_SAMPLES = 3


def instances(seed: int) -> List[List[List[int]]]:
    rng = random.Random(seed)
    return [common.random_matrix(rng, AGENTS, TASKS, FAULTS)
            for _ in range(DISTINCT)]


class Driver:
    """One driver child; ``setup_s`` is spawn until its ready line.

    ``python_start_s`` is spawn until the child's first statement and
    ``import_s`` the child's ``import repro``.
    """

    def __init__(self, ledger_path: Optional[str] = None) -> None:
        argv = [sys.executable, os.path.join(common.BENCH_DIR, "driver.py")]
        if ledger_path is not None:
            argv += ["--trace", ledger_path]
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=common.child_env(), cwd=common.ROOT)
        self.ready = self._reply()
        self.setup_s = self.ready["ready"] - spawned
        self.python_start_s = self.ready["spawned"] - spawned
        self.import_s = self.ready["import_s"]

    def _reply(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("driver child exited early")
        return json.loads(line)

    def run(self, instance_id: str, times: List[List[int]]) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps({"id": instance_id,
                                          "times": times}) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def check_reply(oracle: common.Oracle, key: Any, times: List[List[int]],
                reply: Dict[str, Any]) -> Optional[str]:
    if "error" in reply:
        return "run_dmw raised: " + reply["error"][-300:]
    if not reply.get("completed"):
        return "run did not complete"
    return oracle.check(key, times, reply["schedule"], reply["payments"],
                        (reply["messages"], reply["agent_work"]))


def _drive(driver: Driver, matrices: List[List[List[int]]], oracle: common.Oracle,
           tally: common.Tally, deadline: float, minimum: int
           ) -> Tuple[List[Dict[str, Any]], float]:
    """Cycle the instances until the deadline (and ``minimum`` runs)."""
    replies = []
    start = time.perf_counter()
    done = 0
    while time.perf_counter() < deadline or done < minimum:
        key = done % DISTINCT
        reply = driver.run(str(done), matrices[key])
        tally.record(key, reply["end"] - reply["start"],
                     check_reply(oracle, key, matrices[key], reply),
                     reply["auctions"], reply["messages"], reply["agent_work"])
        replies.append(reply)
        done += 1
    return replies, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    matrices = instances(seed)
    oracle = common.Oracle()
    tally = common.Tally()
    spawns = []
    for _ in range(SETUP_SAMPLES - 1):
        driver = Driver()
        spawns.append(driver)
        driver.close()
    driver = Driver()
    spawns.append(driver)
    setup = [spawn.setup_s for spawn in spawns]
    try:
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        replies, window = _drive(driver, matrices, oracle, tally, deadline,
                                 DISTINCT)
    finally:
        driver.close()
    last = replies[-1]
    cpu_s = last["cpu_s"] - driver.ready["cpu_s"]
    values, detail = common.end_to_end(tally, setup, window, cpu_s,
                                       last["peak_rss_mb"])
    result = {"tally": tally, "end_to_end": values, "detail": detail}
    if trace:
        ledger_path = os.path.join(common.WORK, "ledger_driver.marshal")
        traced_driver = Driver(ledger_path)
        spawns.append(traced_driver)
        try:
            traced_replies, _ = _drive(
                traced_driver, matrices, oracle, tally,
                time.perf_counter() + seconds / 2, len(replies))
        finally:
            traced_driver.close()
        dump = ledger.load(ledger_path)
        roots = {reply["id"]: (reply["start"], reply["end"])
                 for reply in traced_replies}
        layers = ledger.aggregate(ledger.instances_from_dump(dump, roots))
        layers["shims"] = dump["patched"]
        # Every driver spawn of the run is a fresh process; the medians
        # over them are steadier than the traced child's one sample.
        layers["metrics"]["repro.python_start_s"] = common.median(
            [spawn.python_start_s for spawn in spawns])
        layers["metrics"]["repro.import_s"] = common.median(
            [spawn.import_s for spawn in spawns])
        common_count = min(len(replies), len(traced_replies))
        layers["metrics"]["trace.overhead_ratio"] = (
            sum(r["end"] - r["start"] for r in traced_replies[:common_count])
            / sum(r["end"] - r["start"] for r in replies[:common_count]))
        result["layers"] = layers
    return result
