"""Workload ``service-mix``: a ``dmw serve`` daemon and two closed-loop clients.

The daemon runs with unbuffered stdout so its port line can be read,
and is stopped with SIGINT.  Each client thread takes the next job of a
fixed, seeded sequence, POSTs it with its instance in ``times``, polls
``GET /jobs/<id>`` every 10 ms until the job finishes, fetches the
report, verifies it and only then takes the next job.  The sequence
repeats one 40-slot cycle of job kinds; only the matrices and job seeds
depend on the seed:

* ``L`` light: n = 12, m = 4, sequential (25 slots);
* ``R`` a light job resubmitted verbatim from earlier in the sequence
  (9 slots, so light jobs are 85% of the cycle and about 1 in 4 repeat);
* ``B`` barrier: n = 16, m = 8, phase-barrier driver (2 slots);
* ``P`` pool: n = 16, m = 8, resident process pool (2 slots);
* ``G`` large group (512-bit p): n = 8, m = 2, sequential (2 slots).

The daemon runs one job at a time, so a job waits for the other
client's job before it.  The heavy jobs sit in one block after the
first 14 light slots, so only the light jobs next to the block wait
behind a heavy one and the median instance lies inside the light jobs'
cluster.  The cycle has enough light jobs that the tail percentile (ten
instances beyond it) lies above the median: the six heavy jobs, the
light jobs delayed by them and the slowest few light jobs are the ten
beyond it.  The pool jobs see the warm store of 14 light and 2 barrier
jobs; a later block would see a larger store, and each pool job ships
the whole store to every shard (see README.md).

A run is a fixed number of whole cycles, ``round(seconds / 30)`` and at
least one, which takes about ``--seconds`` at the baseline's speed.  A
time cut would leave a different number of the multi-second pool jobs
in each run, and the mix would change from run to run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import common
import ledger

CYCLE = "LLRLLRLLRLLRLL" + "BPGBPG" + "LLLR" * 5
KINDS = {
    "L": {"agents": 12, "tasks": 4, "mode": "sequential"},
    "B": {"agents": 16, "tasks": 8, "mode": "barrier"},
    "P": {"agents": 16, "tasks": 8, "mode": "pool"},
    "G": {"agents": 8, "tasks": 2, "mode": "sequential",
          "group_size": "large"},
}
CLIENTS = 2
POLL_INTERVAL_S = 0.010
#: Nominal seconds per cycle; sets the cycles per run from ``--seconds``.
CYCLE_SECONDS = 30.0
SETUP_SAMPLES = 5
POOL_WORKERS = 2


def job_sequence(seed: int) -> Iterator[Tuple[str, int, Dict[str, Any]]]:
    """Endless ``(kind, key, document)``; ``key`` names the distinct job."""
    rng = random.Random(seed)
    light: List[Tuple[int, Dict[str, Any]]] = []
    key = 0
    while True:
        for kind in CYCLE:
            if kind == "R":
                yield ("R",) + rng.choice(light)
                continue
            shape = KINDS[kind]
            document = dict(shape, seed=rng.randrange(2 ** 31), times=(
                common.random_matrix(rng, shape["agents"], shape["tasks"])))
            if kind == "L":
                light.append((key, document))
            yield kind, key, document
            key += 1


def request(port: int, method: str, path: str,
            document: Any = None) -> Tuple[int, bytes]:
    """One HTTP/1.1 exchange with the daemon on loopback."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = json.dumps(document) if document is not None else None
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Daemon:
    """``dmw serve --port 0`` (or its traced twin) with a clean shutdown."""

    def __init__(self, ledger_path: Optional[str] = None) -> None:
        spawned = time.perf_counter()
        if ledger_path is None:
            argv = [sys.executable, "-u", "-m", "repro", "serve", "--port",
                    "0", "--pool-workers", str(POOL_WORKERS)]
        else:
            argv = [sys.executable, "-u",
                    os.path.join(common.BENCH_DIR, "traced.py"), "serve",
                    ledger_path, repr(spawned)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True,
                                     env=common.child_env(), cwd=common.ROOT)
        line = self.proc.stdout.readline()
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            self.stop()
            raise RuntimeError("daemon printed no port line: %r" % line)
        self.port = int(found.group(1))
        deadline = spawned + 60.0
        while request(self.port, "GET", "/healthz")[0] != 200:
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - spawned

    def usage(self) -> Tuple[float, float]:
        """CPU seconds and summed peak RSS of the daemon and its workers."""
        pids = [self.proc.pid] + common.descendants(self.proc.pid)
        cpu = rss = 0.0
        for pid in pids:
            try:
                cpu += common.proc_cpu_s(pid)
                rss += common.proc_peak_rss_mb(pid)
            except OSError:
                continue
        return cpu, rss

    def stop(self) -> List[int]:
        """SIGINT, wait, and return any pid that outlived the daemon."""
        family = common.descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            family.append(self.proc.pid)
        self.proc.stdout.close()
        deadline = time.perf_counter() + 5.0
        while (any(common.pid_alive(pid) for pid in family)
               and time.perf_counter() < deadline):
            time.sleep(0.05)
        leftovers = [pid for pid in family if common.pid_alive(pid)]
        for pid in leftovers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return leftovers


def check_report(oracle: common.Oracle, key: Any, document: Dict[str, Any],
                 report: Dict[str, Any]) -> Tuple[Optional[str], int, int]:
    """Verify a job report; returns (failure reason, messages, work)."""
    if not report.get("completed"):
        return "job did not complete", 0, 0
    totals = report["totals"]
    messages = totals["network"]["point_to_point_messages"]
    work = max(agent["multiplication_work"]
               for agent in totals["operations_per_agent"])
    return (oracle.check(key, document["times"], report.get("schedule"),
                         report.get("payments"), (messages, work)),
            messages, work)


class Clients:
    """Two closed-loop client threads over one shared job sequence."""

    def __init__(self, daemon: Daemon, seed: int, oracle: common.Oracle,
                 tally: common.Tally, seconds: float) -> None:
        self.daemon = daemon
        self.oracle = oracle
        self.tally = tally
        self.jobs = len(CYCLE) * max(1, round(seconds / CYCLE_SECONDS))
        self._jobs = job_sequence(seed)
        self._index = 0
        self._lock = threading.Lock()
        #: One entry per finished job, keyed by sequence index.
        self.done: Dict[int, Dict[str, Any]] = {}

    def _next(self) -> Optional[Tuple[int, str, int, Dict[str, Any]]]:
        with self._lock:
            if self._index >= self.jobs:
                return None
            index = self._index
            self._index += 1
            return (index,) + next(self._jobs)

    def _one(self, index: int, kind: str, key: int,
             document: Dict[str, Any]) -> None:
        port = self.daemon.port
        polls = 0
        job_id = report = None
        start = time.perf_counter()
        try:
            status, body = request(port, "POST", "/jobs", document)
            if status == 202:
                job_id = json.loads(body)["id"]
                while True:
                    status, body = request(port, "GET", "/jobs/" + job_id)
                    polls += 1
                    if status != 200 or json.loads(body)["state"] in (
                            "done", "failed"):
                        break
                    time.sleep(POLL_INTERVAL_S)
                if status == 200:
                    status, body = request(port, "GET",
                                           "/jobs/%s/report" % job_id)
                    if status == 200:
                        report = json.loads(body)
        except (OSError, http.client.HTTPException) as exc:
            status, body = 0, repr(exc).encode()
        end = time.perf_counter()
        if report is None:
            reason, messages, work = "HTTP %d: %s" % (status,
                                                       body[:200]), 0, 0
        else:
            reason, messages, work = check_report(self.oracle, key, document,
                                                  report)
        # Counted costs come from the first cycle only, which every run
        # completes, so they repeat exactly for a seed.
        self.tally.record(key if index < len(CYCLE) else ("later", key),
                          end - start, reason, document["tasks"], messages,
                          work)
        self.done[index] = {"kind": kind, "start": start,
                            "job_id": job_id if report else None,
                            "end": end, "polls": polls,
                            "report_bytes": len(body) if report else 0}

    def _loop(self) -> None:
        while True:
            job = self._next()
            if job is None:
                return
            self._one(*job)

    def run(self) -> float:
        start = time.perf_counter()
        threads = [threading.Thread(target=self._loop, name="client-%d" % i)
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def _service_state(port: int) -> Dict[str, float]:
    """Warm-store gauges from ``/metrics`` and the ``/jobs`` listing size."""
    _, text = request(port, "GET", "/metrics")
    gauges = dict(re.findall(r"^dmw_warm_cache_(\w+) (\S+)$",
                             text.decode("utf-8"), re.M))
    hits, misses = float(gauges.get("hits", 0)), float(gauges.get("misses", 0))
    _, listing = request(port, "GET", "/jobs")
    return {"service.warm_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "service.warm_cache_entries": float(gauges.get("entries", 0)),
            "service.jobs_retained": float(len(json.loads(listing)["jobs"]))}


def _session(daemon: Daemon, seed: int, oracle: common.Oracle,
             tally: common.Tally, seconds: float
             ) -> Tuple[Clients, float, float, float, Dict[str, float]]:
    """Drive one daemon through its cycles, stop it, check leftovers."""
    try:
        cpu_before, _ = daemon.usage()
        clients = Clients(daemon, seed, oracle, tally, seconds)
        window = clients.run()
        cpu_after, rss = daemon.usage()
        state = _service_state(daemon.port)
    finally:
        leftovers = daemon.stop()
    if leftovers:
        tally.record("lifecycle", 0.0, "processes outlived the daemon: %r"
                     % leftovers)
    return clients, window, cpu_after - cpu_before, rss, state


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    oracle = common.Oracle()
    tally = common.Tally()
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        daemon = Daemon()
        setup.append(daemon.setup_s)
        if daemon.stop():
            tally.record("lifecycle", 0.0, "processes outlived the daemon")
    daemon = Daemon()
    setup.append(daemon.setup_s)
    clients, window, cpu_s, rss, state = _session(
        daemon, seed, oracle, tally, seconds / 2 if trace else seconds)
    values, detail = common.end_to_end(tally, setup, window, cpu_s, rss)
    jobs = list(clients.done.values())
    detail["service"] = dict(state, **{
        "service.polls_per_job": statistics.mean(j["polls"] for j in jobs),
        "obs.report_bytes": statistics.mean(j["report_bytes"] for j in jobs)})
    detail["jobs"] = len(jobs)
    detail["kind_p50_s"] = {
        kind: common.median([j["end"] - j["start"] for j in jobs
                             if j["kind"] == kind]) for kind in "LRBPG"}
    result = {"tally": tally, "end_to_end": values, "detail": detail}
    if trace:
        ledger_path = os.path.join(common.WORK, "ledger_serve.marshal")
        traced_clients, _, _, _, traced_state = _session(
            Daemon(ledger_path), seed, oracle, tally, seconds / 2)
        result["layers"] = _layers(ledger.load(ledger_path), clients,
                                   traced_clients, traced_state)
    return result


def _layers(dump: Dict[str, Any], plain: Clients, traced: Clients,
            state: Dict[str, float]) -> Dict[str, Any]:
    """Per-layer values: daemon spans under each job's client window."""
    submitted = dump["meta"].get("submitted", {})
    roots = {job["job_id"]: (job["start"], job["end"])
             for job in traced.done.values() if job["job_id"]}
    instances = ledger.instances_from_dump(dump, roots)
    queue_wait, execute, overhead = [], [], []
    for job_id, instance in zip(roots, instances):
        spans = instance["spans"]
        run_span = next((s for s in spans if s[0] == "service.execute"),
                        None)
        if run_span is None or job_id not in submitted:
            continue
        # The wait in the FIFO queue, on the executor thread's timeline.
        spans.append(["service.queue_wait", submitted[job_id], run_span[1],
                      run_span[3], job_id, {}])
        queue_wait.append(run_span[1] - submitted[job_id])
        execute.append(run_span[2] - run_span[1])
        start, end = instance["root"]
        overhead.append((end - start) - (run_span[2] - submitted[job_id]))
    layers = ledger.aggregate(instances)
    layers["shims"] = dump["patched"]
    metrics = layers["metrics"]
    metrics.update(state)
    metrics["repro.python_start_s"] = dump["meta"]["python_start_s"]
    metrics["repro.import_s"] = dump["meta"]["import_s"]
    jobs = list(traced.done.values())
    metrics.update({
        "service.queue_wait_p50_s": common.median(queue_wait),
        "service.execute_p50_s": common.median(execute),
        "service.client_overhead_p50_s": common.median(overhead),
        "service.polls_per_job": statistics.mean(j["polls"] for j in jobs),
        "obs.report_bytes": statistics.mean(j["report_bytes"] for j in jobs),
    })
    common_indexes = sorted(set(plain.done) & set(traced.done))
    metrics["trace.overhead_ratio"] = (
        sum(traced.done[i]["end"] - traced.done[i]["start"]
            for i in common_indexes)
        / sum(plain.done[i]["end"] - plain.done[i]["start"]
              for i in common_indexes))
    return layers
