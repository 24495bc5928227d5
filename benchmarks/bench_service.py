"""Always-on auction-service benchmark: warm caches, latency, throughput.

Drives the persistent daemon end-to-end — the asyncio HTTP gateway in a
background thread wrapping one resident :class:`AuctionService` — and
writes ``benchmarks/results/BENCH_service.json`` records carrying:

* cold vs warm best-of-rounds wall-clock for repeat-parameter jobs (the
  ``WarmCacheStore`` contract: a job whose group parameters match an
  earlier job's starts from the accumulated public entries and skips
  fixed-base/Straus precomputation),
* a hard ``equivalent`` verdict — schedule, payments, group parameters,
  and per-agent Table 1 operation counters must be *bit-identical*
  across every job in the measured mix (cold, warm, and burst), and
  every run report must validate against the versioned schema.  Cache
  hit/miss statistics are deliberately *excluded* from the verdict:
  warm caches change wall-clock and ``cache_stats`` only, by design
  (``docs/SERVICE.md``), and
* sustained throughput (auctions/sec over an HTTP submission burst)
  plus client-observed p50/p99 submit-to-done latency, and
* a ``warm_pool`` record: best-of-rounds wall clock for a pool job on a
  fresh daemon vs. on a daemon whose store K distinct light jobs have
  filled, with the same bit-identity verdict.  Pool shards keep
  per-task caches, so a full store must not slow the pool job down.

Runnable as a script::

    python benchmarks/bench_service.py [--smoke]

``--smoke`` shrinks the instances, rounds, and burst so CI can verify
the bit-identity contract quickly; smoke ratios and throughput are
informational only (``check_regression.py --only service`` gates the
>= 1.5x warm-over-cold speedup and the <= 1.5x warm-pool/cold-pool
ratio on non-smoke records).
"""

import asyncio
import json
import threading
import time
import urllib.request

from _report import obs_summary, write_json_record

from repro.crypto.fastexp import clear_fixed_base_tables
from repro.obs.export import validate_run_report
from repro.service import AuctionService, ServiceGateway


class _Daemon:
    """Gateway + service on an ephemeral port, loop in a thread."""

    def __init__(self, warm_capacity=4, pool_workers=2):
        self.service = AuctionService(warm_capacity=warm_capacity,
                                      pool_workers=pool_workers)
        self.gateway = ServiceGateway(self.service, host="127.0.0.1",
                                      port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.gateway.start())
            started.set()
            self.loop.run_forever()
            self.loop.run_until_complete(self.gateway.stop())
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise RuntimeError("gateway did not start")
        self.base = "http://127.0.0.1:%d" % self.gateway.port

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.service.close()

    # -- HTTP client (urllib, like CI's smoke job) ------------------------
    def post(self, path, document):
        data = json.dumps(document).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=data,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def get(self, path):
        with urllib.request.urlopen(self.base + path) as response:
            return json.loads(response.read())

    def wait_done(self, job_id, timeout=300.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            document = self.get("/jobs/%s" % job_id)
            if document["state"] in ("done", "failed"):
                return document
            time.sleep(0.005)
        raise TimeoutError("job %s did not finish" % job_id)


def _signature(report):
    """The bit-identity surface of one run report.

    Schedule, payments, group parameters, and the Table 1 per-agent
    operation counters (``totals``).  Cache hit/miss statistics are
    deliberately *excluded* — a warm cache may only change wall-clock
    and ``cache_stats``, never anything in this signature.
    """
    return {
        "schedule": report["schedule"],
        "payments": report["payments"],
        "totals": report["totals"],
        "params": report["params"],
    }


def _run_job(daemon, job, expect_warm):
    """Submit one job, wait, and return (duration, latency, report)."""
    start = time.perf_counter()
    submitted = daemon.post("/jobs", job)
    finished = daemon.wait_done(submitted["id"])
    latency = time.perf_counter() - start
    if finished["state"] != "done":
        raise RuntimeError("job failed: %s" % finished.get("error"))
    if finished["warm"] is not expect_warm:
        raise RuntimeError("expected warm=%s, daemon reported %s"
                           % (expect_warm, finished["warm"]))
    report = daemon.get("/jobs/%s/report" % submitted["id"])
    return finished["duration_s"], latency, submitted["id"], report


def measure_service(agents=10, tasks=3, seed=11, rounds=3, burst=8,
                    smoke=False):
    """Cold/warm rounds plus a throughput burst; returns the extras."""
    if smoke:
        agents, tasks, rounds, burst = 6, 2, 1, 4
    job = {"agents": agents, "tasks": tasks, "seed": seed}
    daemon = _Daemon()
    try:
        reports = []
        latencies = []
        cold_durations = []
        warm_durations = []
        # Cold rounds: evict the warm store and the process-wide
        # fixed-base tables first, so every round pays the full
        # precomputation a fresh daemon would.
        for _ in range(rounds):
            daemon.service.store.evict()
            clear_fixed_base_tables()
            duration, latency, _, report = _run_job(daemon, job,
                                                    expect_warm=False)
            cold_durations.append(duration)
            latencies.append(latency)
            reports.append(report)
        # Warm rounds: repeat-parameter jobs against the populated
        # store (the last cold round left it warm).
        for _ in range(rounds):
            duration, latency, _, report = _run_job(daemon, job,
                                                    expect_warm=True)
            warm_durations.append(duration)
            latencies.append(latency)
            reports.append(report)
        # Throughput burst: submit everything up front, then drain the
        # FIFO queue; auctions/sec is the sustained warm service rate.
        start = time.perf_counter()
        job_ids = [daemon.post("/jobs", job)["id"] for _ in range(burst)]
        for job_id in job_ids:
            finished = daemon.wait_done(job_id)
            if finished["state"] != "done":
                raise RuntimeError("burst job failed: %s"
                                   % finished.get("error"))
        elapsed = time.perf_counter() - start
        auctions_per_sec = burst / elapsed if elapsed else 0.0
        reports.extend(daemon.get("/jobs/%s/report" % job_id)
                       for job_id in job_ids)
        last_outcome = daemon.service.job(job_ids[-1]).outcome

        for report in reports:
            validate_run_report(report)
        reference = _signature(reports[0])
        equivalent = all(_signature(report) == reference
                         for report in reports[1:])
    finally:
        daemon.close()

    cold = min(cold_durations)
    warm = min(warm_durations)
    speedup = cold / warm if warm else 0.0
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    extra = {
        "equivalent": equivalent,
        "warm_speedup": round(speedup, 4),
        "cold_wall_clock_s": round(cold, 6),
        "warm_wall_clock_s": round(warm, 6),
        "auctions_per_sec": round(auctions_per_sec, 4),
        "latency_p50_s": round(p50, 6),
        "latency_p99_s": round(p99, 6),
        "reports_validated": len(reports),
        "smoke": smoke,
    }
    write_json_record(
        "service",
        {"sweep": "warm_cache", "agents": agents, "tasks": tasks,
         "seed": seed, "rounds": rounds, "burst": burst},
        wall_clock_s=round(cold, 6),
        counters=reports[0]["totals"]["operations"],
        obs=obs_summary(last_outcome),
        extra=extra,
    )
    print("service[n=%d, m=%d]: cold %.4fs, warm %.4fs (%.2fx), "
          "%.2f auctions/s, p50 %.4fs, p99 %.4fs, equivalent=%s"
          % (agents, tasks, cold, warm, speedup, auctions_per_sec,
             p50, p99, equivalent))
    return extra


def _pool_job_after(pool_job, light_jobs):
    """Run ``light_jobs`` then ``pool_job`` on a fresh daemon.

    Returns the pool job's (duration, report).  The process-wide
    fixed-base tables are cleared right before the pool job, so with or
    without light jobs before it the resident pool forks its workers
    from a process with empty tables and the pool job pays the full
    precomputation a freshly started daemon would.
    """
    daemon = _Daemon()
    try:
        for index, job in enumerate(light_jobs):
            _run_job(daemon, job, expect_warm=index > 0)
        clear_fixed_base_tables()
        duration, _, _, report = _run_job(daemon, pool_job,
                                          expect_warm=False)
    finally:
        daemon.close()
    return duration, report


#: ``warm_pool`` sizes: the pool job (n=16, m=8 on 2 workers), the K
#: distinct light jobs that fill the store before it, and the rounds.
_WARM_POOL_SIZES = {
    False: {"agents": 16, "tasks": 8, "workers": 2, "seed": 11,
            "light_jobs": 10, "light_agents": 12, "light_tasks": 4,
            "rounds": 3},
    True: {"agents": 6, "tasks": 2, "workers": 2, "seed": 11,
           "light_jobs": 3, "light_agents": 6, "light_tasks": 2,
           "rounds": 1},
}


def measure_warm_pool(smoke=False):
    """Pool job on a fresh daemon vs. after K distinct light jobs."""
    sizes = _WARM_POOL_SIZES[smoke]
    agents, tasks = sizes["agents"], sizes["tasks"]
    light_jobs = sizes["light_jobs"]
    pool_job = {"agents": agents, "tasks": tasks, "seed": sizes["seed"],
                "mode": "pool", "workers": sizes["workers"]}
    # Same group as the pool job, distinct seeds: every light job adds
    # its own commitments' entries to the store.
    fillers = [{"agents": sizes["light_agents"],
                "tasks": sizes["light_tasks"], "seed": 1000 + k}
               for k in range(light_jobs)]
    cold_durations, warm_durations, reports = [], [], []
    for _ in range(sizes["rounds"]):
        duration, report = _pool_job_after(pool_job, [])
        cold_durations.append(duration)
        reports.append(report)
        duration, report = _pool_job_after(pool_job, fillers)
        warm_durations.append(duration)
        reports.append(report)
    for report in reports:
        validate_run_report(report)
    reference = _signature(reports[0])
    equivalent = all(_signature(report) == reference
                     for report in reports[1:])
    cold = min(cold_durations)
    warm = min(warm_durations)
    ratio = warm / cold
    extra = {
        "equivalent": equivalent,
        "cold_pool_wall_clock_s": round(cold, 6),
        "warm_pool_wall_clock_s": round(warm, 6),
        "warm_pool_ratio": round(ratio, 4),
        "reports_validated": len(reports),
        "smoke": smoke,
    }
    write_json_record(
        "service",
        dict(sizes, sweep="warm_pool"),
        wall_clock_s=round(cold, 6),
        counters=reports[0]["totals"]["operations"],
        extra=extra,
    )
    print("service warm_pool[n=%d, m=%d, K=%d]: cold pool %.4fs, after "
          "light jobs %.4fs (%.2fx), equivalent=%s"
          % (agents, tasks, light_jobs, cold, warm, ratio, equivalent))
    return extra


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(
        description="Measure the always-on auction service (warm-cache "
                    "speedup, latency, throughput, warm-store pool "
                    "jobs) and write "
                    "BENCH_service.json for the regression gate.")
    parser.add_argument("--smoke", action="store_true",
                        help="small instances, single round: verifies "
                             "the bit-identity contract without gating "
                             "speedup, pool ratio or throughput")
    args = parser.parse_args(argv)
    measure_service(smoke=args.smoke)
    measure_warm_pool(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
