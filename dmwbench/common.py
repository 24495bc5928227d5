"""Shared pieces of the DMW benchmark: paths, seeded instances, the
MinWork oracle, statistics, process accounting and provenance.

The benchmark drives the program from outside only (CLI processes, the
public ``run_dmw`` API in a driver child, the HTTP API of ``dmw serve``).
The oracle below is the one place the benchmark's own process imports the
program: it runs the centralized ``MinWork`` baseline on each generated
matrix.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (instance files, trace dumps).
WORK = os.path.join(ROOT, ".dmwbench_work")


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def child_env() -> Dict[str, str]:
    """Environment for every program process: ``src`` on the path.

    The hash seed is fixed so that set and dict iteration order, and the
    work that follows from it, is the same in every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    env["PYTHONHASHSEED"] = "0"
    return env


def ensure_program_importable() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- seeded instances ---------------------------------------------------------

def random_matrix(rng: random.Random, agents: int, tasks: int,
                  fault_bound: int = 1) -> List[List[int]]:
    """A row-major ``agents x tasks`` matrix over the bid set {1..n-c-1}."""
    top = agents - fault_bound - 1
    return [[rng.randint(1, top) for _ in range(tasks)]
            for _ in range(agents)]


# -- the output oracle --------------------------------------------------------

def minwork_expected(times: Sequence[Sequence[int]]
                     ) -> Tuple[List[int], List[float]]:
    """Centralized MinWork (tie-break ``lowest_index``) on ``times``."""
    ensure_program_importable()
    from repro.mechanisms import MinWork, truthful_bids
    from repro.scheduling.problem import SchedulingProblem

    result = MinWork(tie_break="lowest_index").run(
        truthful_bids(SchedulingProblem([list(row) for row in times])))
    return (list(result.schedule.assignment),
            [float(p) for p in result.payments])


class Oracle:
    """Checks outcomes against MinWork and counted costs across repeats.

    ``check`` returns None when the outcome is right, else a reason.  The
    first time an instance key is seen its counted costs are stored; any
    later run of the same key must report the same counts exactly.
    """

    def __init__(self) -> None:
        self._expected: Dict[Any, Tuple[List[int], List[float]]] = {}
        self._counts: Dict[Any, Tuple[int, int]] = {}

    def check(self, key: Any, times: Sequence[Sequence[int]],
              schedule: Optional[Sequence[int]],
              payments: Optional[Sequence[float]],
              counts: Tuple[int, int]) -> Optional[str]:
        if key not in self._expected:
            self._expected[key] = minwork_expected(times)
        want_schedule, want_payments = self._expected[key]
        if schedule is None or list(schedule) != want_schedule:
            return "schedule %r != MinWork %r" % (schedule, want_schedule)
        if payments is None or [float(p) for p in payments] != want_payments:
            return "payments %r != MinWork %r" % (payments, want_payments)
        first = self._counts.setdefault(key, counts)
        if first != counts:
            return "counted costs %r differ from first run %r" % (counts,
                                                                  first)
        return None


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With ``N`` samples that is the ``(N - 10)``-th smallest value, at
    percentile ``100 * (N - 10) / N``.  With ten or fewer samples no such
    percentile exists; the maximum is reported with percentile 100 and
    ``defined`` false.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return {"value": ordered[-1] if ordered else 0.0, "percentile": 100.0,
                "samples": count, "defined": False}
    return {"value": ordered[count - 11],
            "percentile": round(100.0 * (count - 10) / count, 2),
            "samples": count, "defined": True}


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as the acceptance check computes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# -- processes ----------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Seconds after which :func:`run_measured` kills its child.
CHILD_TIMEOUT_S = 120.0


def run_measured(argv: Sequence[str]) -> Dict[str, Any]:
    """Run one child to completion; wall clock, CPU and peak RSS.

    Output goes to files so the child can be reaped with ``os.wait4``,
    which returns that child's own rusage.  A watchdog kills it after
    ``CHILD_TIMEOUT_S`` seconds.
    """
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return {"wall_s": wall, "returncode": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout, "stderr": stderr}


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process and its reaped children."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is state (stat field 3); utime..cstime are fields 14..17.
    return sum(int(value) for value in fields[11:15]) / CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (from /proc parent links)."""
    parents: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(name)] = int(fields[1])
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return found


def pid_alive(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# -- provenance ---------------------------------------------------------------

def git_commit() -> str:
    """HEAD's commit from ``.git`` when the checkout has one."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, groups: Sequence[str]) -> Dict[str, Any]:
    ensure_program_importable()
    from repro.crypto import backend as crypto_backend
    from repro.crypto.groups import fixture_group

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "backend": crypto_backend.ACTIVE.name,
        "gmpy2_available": crypto_backend.gmpy2_available(),
        "p_bits": {name: fixture_group(name).group.p_bits
                   for name in groups},
        "seed": seed,
        "git_commit": git_commit(),
    }


def write_json(path: str, document: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- end-to-end results -------------------------------------------------------

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "auctions_per_s": ("1/s", "higher"),
    "instance_p50_s": ("s", "lower"),
    "instance_tail_s": ("s", "lower"),
    "verified_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "cpu_s_per_auction": ("s", "lower"),
    "messages_per_auction": ("count", "lower"),
    "agent_work_per_auction": ("count", "lower"),
}


class Tally:
    """Attempted and failed instances, verified latencies and counts.

    ``counted`` holds each distinct instance's counted costs the first
    time it verifies: ``key -> (auctions, messages, max agent work)``.
    Per-auction counts are taken over those, so they repeat exactly for
    a seed however many instances a run manages.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.latencies: List[float] = []
        self.auctions = 0
        self.counted: Dict[Any, Tuple[int, int, int]] = {}
        self._lock = threading.Lock()

    def record(self, key: Any, latency: float, reason: Optional[str],
               auctions: int = 0, messages: int = 0,
               agent_work: int = 0) -> None:
        with self._lock:
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.failures.append("%s: %s" % (key, reason))
                return
            self.latencies.append(latency)
            self.auctions += auctions
            self.counted.setdefault(key, (auctions, messages, agent_work))


def end_to_end(tally: Tally, setup_samples: Sequence[float], window_s: float,
               cpu_s: float, peak_rss_mb: float
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The nine end-to-end values plus the detail stored beside them."""
    counted_auctions = sum(c[0] for c in tally.counted.values()) or 1
    tail_info = tail(tally.latencies)
    auctions = tally.auctions or 1
    values = {
        "setup_s": median(setup_samples),
        "auctions_per_s": tally.auctions / window_s if window_s else 0.0,
        "instance_p50_s": median(tally.latencies),
        "instance_tail_s": tail_info["value"],
        "verified_ratio": ((tally.attempted - tally.failed) / tally.attempted
                           if tally.attempted else 0.0),
        "peak_rss_mb": peak_rss_mb,
        "cpu_s_per_auction": cpu_s / auctions,
        "messages_per_auction": sum(c[1] for c in tally.counted.values())
        / counted_auctions,
        "agent_work_per_auction": sum(c[2] for c in tally.counted.values())
        / counted_auctions,
    }
    detail = {
        "setup_samples_s": list(setup_samples),
        "instance_tail": tail_info,
        "failed_ratio": (tally.failed / tally.attempted
                         if tally.attempted else 1.0),
        "failures": tally.failures[:20],
        "window_s": window_s,
        "auctions": tally.auctions,
        "distinct_instances_counted": len(tally.counted),
    }
    return values, detail
