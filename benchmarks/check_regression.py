"""Compare fresh benchmark records against the committed baseline.

Reads the machine-readable ``BENCH_*.json`` records emitted by the
benchmark suite (see ``benchmarks/_report.py``) and compares them to the
baseline committed under ``benchmarks/baseline/``:

* **scaling** records carry wall-clock times.  Raw seconds do not
  transfer between machines, so both sides are normalised by their own
  ``scaling_calibration`` record (a fixed big-integer multiplication
  loop timed on the same machine as the benchmarks; see
  ``_report.calibration_loop``).  A fresh normalised wall-clock more
  than ``--threshold`` (default 25%) above baseline fails the gate.

* **table1_computation** records carry counted modular-operation
  totals.  These are deterministic (the fast paths must charge the
  paper's analytic schedule bit-for-bit — ``docs/PERFORMANCE.md``), so
  *any* drift is a failure, not a tolerance band.

* **scaling** records additionally carry an ``obs`` section with the
  execution's fastexp public-value-cache statistics
  (``docs/OBSERVABILITY.md``).  Cache hits/misses are deterministic
  functions of the configuration, so they are gated exactly too —
  a dropped hit count means a memoisation opportunity silently
  disappeared even if wall-clock stayed inside the threshold.  The
  gate skips configurations whose baseline predates the ``obs``
  section.

* fresh **scaling** records also carry a ``resilience`` sub-section
  (retransmissions, recoveries, degradation, quarantines — see
  ``docs/RESILIENCE.md``).  The benchmark configurations are
  fault-free, so every counter must be *exactly zero*; this gate needs
  no baseline.

* **backend** records (``bench_backend.py [--smoke]``) compare the
  arithmetic backends (python vs gmpy2) and the share-verification
  modes (per-share vs batched) on the reference run.  The
  ``equivalent`` verdict — outcomes, transcripts, and per-agent
  operation counters bit-identical to the python/per-share reference —
  is hard-gated with no baseline, always.  The gmpy2 speedup is gated
  at >= 3x, but only when the record says gmpy2 was importable and the
  run was not a smoke run (a python-only environment can prove
  equivalence, not native speedup).

* **parallel** records (``bench_scaling.py [--smoke]``) carry the
  process-pool speedup curves plus an ``equivalent`` verdict.  The
  verdict is hard-gated with no baseline — the pool driver must be
  bit-identical to the sequential driver, always.  The workers=4
  speedup is gated at >= 1.8x, but only when the measuring machine has
  at least 4 cores and the record is not a smoke run (a 1-core CI
  container can prove equivalence, not speedup).

* the **history** store (``benchmarks/results/history.jsonl``, built by
  ``dmw history ingest-bench`` and appended to by ``dmw run
  --history``) is gated per config fingerprint: trend anomaly flags
  (Theorem 11 band violations, impossible round counts, counter drift
  within a fingerprint) always fail, and the latest
  calibration-normalised wall-clock must stay within ``--threshold``
  of the best stored run for the same fingerprint.

Exit status 0 iff every gate holds.

Usage::

    python benchmarks/check_regression.py \
        [--baseline benchmarks/baseline] [--results benchmarks/results] \
        [--threshold 0.25] [--only SECTION ...]

``--only`` restricts the run to the named gate sections (``scaling``,
``table1``, ``cache``, ``resilience``, ``parallel``, ``backend``,
``service``, ``history``); CI's
parallel-differential job uses ``--only parallel`` because its smoke
run produces only ``BENCH_parallel.json``, which must not trip the
"baseline exists but no fresh results" failure of the scaling gate.
"""

import argparse
import json
import os
import sys


def _load(directory, bench):
    path = os.path.join(directory, "BENCH_%s.json" % bench)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _params_key(record):
    return tuple(sorted(record["params"].items()))


def _by_params(records):
    return dict((_params_key(record), record) for record in records)


def _calibration(directory):
    records = _load(directory, "scaling_calibration")
    if not records:
        return None
    return records[0]["wall_clock_s"]


def check_scaling(baseline_dir, results_dir, threshold, failures, lines):
    baseline = _load(baseline_dir, "scaling")
    fresh = _load(results_dir, "scaling")
    if baseline is None:
        lines.append("scaling: no baseline committed; skipping")
        return
    if fresh is None:
        failures.append("scaling: baseline exists but no fresh results "
                        "(run benchmarks/bench_scaling.py first)")
        return
    base_cal = _calibration(baseline_dir)
    fresh_cal = _calibration(results_dir)
    if not base_cal or not fresh_cal:
        failures.append("scaling: missing calibration record "
                        "(baseline=%r fresh=%r)" % (base_cal, fresh_cal))
        return
    lines.append("calibration loop: baseline %.4fs, fresh %.4fs"
                 % (base_cal, fresh_cal))
    fresh_by_params = _by_params(fresh)
    for record in baseline:
        key = _params_key(record)
        new = fresh_by_params.get(key)
        label = ", ".join("%s=%s" % item for item in key)
        if new is None:
            failures.append("scaling[%s]: record missing from fresh results"
                            % label)
            continue
        if not record.get("wall_clock_s"):
            continue
        base_norm = record["wall_clock_s"] / base_cal
        new_norm = new["wall_clock_s"] / fresh_cal
        ratio = new_norm / base_norm
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(
                "scaling[%s]: normalised wall-clock %.2fx baseline "
                "(%.4fs vs %.4fs raw; threshold %.0f%%)"
                % (label, ratio, new["wall_clock_s"],
                   record["wall_clock_s"], threshold * 100))
        lines.append("scaling[%s]: %.2fx normalised (%s)"
                     % (label, ratio, status))


def check_table1(baseline_dir, results_dir, failures, lines):
    baseline = _load(baseline_dir, "table1_computation")
    fresh = _load(results_dir, "table1_computation")
    if baseline is None:
        lines.append("table1_computation: no baseline committed; skipping")
        return
    if fresh is None:
        failures.append("table1_computation: baseline exists but no fresh "
                        "results (run bench_table1_computation.py first)")
        return
    fresh_by_params = _by_params(fresh)
    for record in baseline:
        key = _params_key(record)
        new = fresh_by_params.get(key)
        label = ", ".join("%s=%s" % item for item in key)
        if new is None:
            failures.append("table1_computation[%s]: record missing from "
                            "fresh results" % label)
            continue
        # Counted totals are deterministic: exact equality, no tolerance.
        if new["counters"] != record["counters"]:
            failures.append(
                "table1_computation[%s]: counted totals drifted: "
                "baseline %s != fresh %s"
                % (label, record["counters"], new["counters"]))
        else:
            lines.append("table1_computation[%s]: counters identical"
                         % label)


def check_cache_stats(baseline_dir, results_dir, failures, lines):
    """Gate the deterministic fastexp cache statistics exactly."""
    baseline = _load(baseline_dir, "scaling")
    fresh = _load(results_dir, "scaling")
    if baseline is None or fresh is None:
        return  # the scaling gates already reported the situation
    fresh_by_params = _by_params(fresh)
    for record in baseline:
        base_obs = record.get("obs")
        if not base_obs or "cache" not in base_obs:
            continue  # baseline predates the obs section for this config
        key = _params_key(record)
        label = ", ".join("%s=%s" % item for item in key)
        new = fresh_by_params.get(key)
        if new is None:
            continue  # missing record already failed the scaling gate
        new_obs = new.get("obs") or {}
        if "cache" not in new_obs:
            failures.append(
                "cache[%s]: baseline has cache statistics but fresh "
                "record has none (observability wiring lost?)" % label)
            continue
        # Hit/miss counts are deterministic: exact equality, no band.
        if new_obs["cache"] != base_obs["cache"]:
            failures.append(
                "cache[%s]: cache statistics drifted: baseline %s != "
                "fresh %s" % (label, base_obs["cache"], new_obs["cache"]))
        else:
            lines.append(
                "cache[%s]: statistics identical (hit rate %.1f%%)"
                % (label, 100 * new_obs.get("cache_hit_rate", 0.0)))


def check_resilience(results_dir, failures, lines):
    """The benchmark configurations are fault-free: every resilience
    counter in a fresh scaling record must be exactly zero.

    A nonzero retransmission count would mean the benchmark harness
    silently started paying retry costs (perturbing both wall-clocks
    and message totals); a quarantine or a degraded flag would mean it
    stopped measuring the protocol it claims to measure.  Unlike the
    other gates this one needs no baseline — zero is the spec.
    """
    fresh = _load(results_dir, "scaling")
    if fresh is None:
        return  # the scaling gate already reported the situation
    for record in fresh:
        obs = record.get("obs") or {}
        resilience = obs.get("resilience")
        if resilience is None:
            continue  # record predates the resilience section
        label = ", ".join("%s=%s" % item for item in _params_key(record))
        problems = []
        if resilience.get("retransmissions", 0) != 0:
            problems.append("retransmissions=%r"
                            % resilience["retransmissions"])
        if resilience.get("recovered_messages", 0) != 0:
            problems.append("recovered_messages=%r"
                            % resilience["recovered_messages"])
        if resilience.get("degraded", False):
            problems.append("degraded=True")
        if resilience.get("quarantined_tasks"):
            problems.append("quarantined_tasks=%r"
                            % resilience["quarantined_tasks"])
        if problems:
            failures.append(
                "resilience[%s]: fault-free baseline shows nonzero "
                "resilience activity: %s" % (label, ", ".join(problems)))
        else:
            lines.append("resilience[%s]: all counters zero (fault-free)"
                         % label)


#: Minimum accepted workers=4 speedup on a machine with >= 4 cores
#: (ISSUE acceptance: the pool must demonstrate real parallelism).
_MIN_SPEEDUP_AT_4 = 1.8


def check_parallel(results_dir, failures, lines):
    """Gate the process-pool records: equivalence always, speedup when
    the machine can physically show it.

    Equivalence (``extra.equivalent``) needs no baseline and no
    tolerance: the pool driver's outcomes must be bit-identical to the
    sequential driver's on every configuration, smoke or not.  The
    speedup gate applies only to non-smoke workers=4 records measured
    on a machine with at least 4 cores; elsewhere the ratio is
    reported but informational.
    """
    fresh = _load(results_dir, "parallel")
    if fresh is None:
        lines.append("parallel: no records; skipping "
                     "(run benchmarks/bench_scaling.py [--smoke])")
        return
    for record in fresh:
        label = ", ".join("%s=%s" % item for item in _params_key(record))
        extra = record.get("extra") or {}
        if "equivalent" not in extra:
            failures.append("parallel[%s]: record carries no equivalence "
                            "verdict" % label)
            continue
        if not extra["equivalent"]:
            failures.append(
                "parallel[%s]: pool outcome DIVERGED from the sequential "
                "driver (determinism contract broken)" % label)
            continue
        workers = record["params"].get("workers", 0)
        speedup = extra.get("speedup", 0.0)
        cores = extra.get("cpu_count", 1)
        smoke = extra.get("smoke", False)
        if workers >= 4 and cores >= workers and not smoke:
            if speedup < _MIN_SPEEDUP_AT_4:
                failures.append(
                    "parallel[%s]: speedup %.2fx below the %.1fx gate "
                    "on a %d-core machine"
                    % (label, speedup, _MIN_SPEEDUP_AT_4, cores))
                continue
            lines.append("parallel[%s]: equivalent, %.2fx speedup (gated)"
                         % (label, speedup))
        else:
            reason = ("smoke" if smoke
                      else "%d cores < %d workers" % (cores, workers)
                      if cores < workers else "informational")
            lines.append("parallel[%s]: equivalent, %.2fx speedup (%s)"
                         % (label, speedup, reason))


#: Minimum accepted gmpy2-over-python speedup when gmpy2 is importable
#: (ISSUE acceptance: the native backend must demonstrate real gains).
_MIN_GMPY2_SPEEDUP = 3.0


def check_backend(results_dir, failures, lines):
    """Gate the arithmetic-backend records: equivalence always, native
    speedup only where gmpy2 exists to show it.

    Equivalence (``extra.equivalent``) needs no baseline and no
    tolerance: a backend or verification mode that changes any outcome,
    transcript, or per-agent counter has broken the counted-vs-measured
    contract, whatever its wall-clock.  The >= 3x speedup gate applies
    only to non-smoke gmpy2 records whose environment actually had
    gmpy2; everywhere else the ratio is informational (the batched
    share-verification speedup is always informational — its win is
    workload-dependent, its equivalence is not).
    """
    fresh = _load(results_dir, "backend")
    if fresh is None:
        lines.append("backend: no records; skipping "
                     "(run benchmarks/bench_backend.py [--smoke])")
        return
    for record in fresh:
        label = ", ".join("%s=%s" % item for item in _params_key(record))
        extra = record.get("extra") or {}
        if "equivalent" not in extra:
            failures.append("backend[%s]: record carries no equivalence "
                            "verdict" % label)
            continue
        if not extra["equivalent"]:
            failures.append(
                "backend[%s]: outcome DIVERGED from the python/per-share "
                "reference (bit-identical contract broken)" % label)
            continue
        speedup = extra.get("speedup", 0.0)
        smoke = extra.get("smoke", False)
        gated = (record["params"].get("backend") == "gmpy2"
                 and extra.get("gmpy2_available", False) and not smoke)
        if gated:
            if speedup < _MIN_GMPY2_SPEEDUP:
                failures.append(
                    "backend[%s]: gmpy2 speedup %.2fx below the %.1fx gate"
                    % (label, speedup, _MIN_GMPY2_SPEEDUP))
                continue
            lines.append("backend[%s]: equivalent, %.2fx speedup (gated)"
                         % (label, speedup))
        else:
            reason = "smoke" if smoke else "informational"
            lines.append("backend[%s]: equivalent, %.2fx speedup (%s)"
                         % (label, speedup, reason))


#: Minimum accepted warm-over-cold speedup for repeat-parameter service
#: jobs (ISSUE acceptance: the cross-run warm cache must show real
#: gains, not just avoid breaking anything).
_MIN_WARM_SPEEDUP = 1.5

#: Maximum accepted wall-clock ratio of a pool job on a daemon with a
#: full warm store over the same job on a fresh daemon.  Pool shards
#: keep per-task caches, so the store must not slow them down.
_MAX_WARM_POOL_RATIO = 1.5


def check_service(results_dir, failures, lines):
    """Gate the always-on service records: bit identity always, warm
    speedup and warm-pool ratio on non-smoke records.

    Equivalence (``extra.equivalent``) needs no baseline and no
    tolerance: every job in the measured mix — cold, warm, and the
    throughput burst — must produce bit-identical schedules, payments,
    and per-agent Table 1 counters, and every run report must validate
    against the versioned schema.  A warm cache may change wall-clock
    and ``cache_stats`` only; anything else breaks the
    counted-vs-measured contract.  The >= 1.5x warm-over-cold speedup
    gate (``warm_cache`` records) and the <= 1.5x warm-pool/cold-pool
    ratio gate (``warm_pool`` records) apply to non-smoke records; smoke
    ratios are informational.
    """
    fresh = _load(results_dir, "service")
    if fresh is None:
        lines.append("service: no records; skipping "
                     "(run benchmarks/bench_service.py [--smoke])")
        return
    for record in fresh:
        label = ", ".join("%s=%s" % item for item in _params_key(record))
        extra = record.get("extra") or {}
        if "equivalent" not in extra:
            failures.append("service[%s]: record carries no equivalence "
                            "verdict" % label)
            continue
        if not extra["equivalent"]:
            failures.append(
                "service[%s]: warm/burst outcome DIVERGED from the cold "
                "reference (bit-identical warm-cache contract broken)"
                % label)
            continue
        smoke = extra.get("smoke", False)
        if record["params"].get("sweep") == "warm_pool":
            ratio = extra.get("warm_pool_ratio", float("inf"))
            if not smoke and ratio > _MAX_WARM_POOL_RATIO:
                failures.append(
                    "service[%s]: pool job on a full warm store took "
                    "%.2fx its fresh-daemon time, above the %.1fx gate"
                    % (label, ratio, _MAX_WARM_POOL_RATIO))
                continue
            lines.append(
                "service[%s]: equivalent, warm/cold pool %.2fx (%s)"
                % (label, ratio, "smoke" if smoke else "gated"))
            continue
        speedup = extra.get("warm_speedup", 0.0)
        if not smoke:
            if speedup < _MIN_WARM_SPEEDUP:
                failures.append(
                    "service[%s]: warm speedup %.2fx below the %.1fx gate"
                    % (label, speedup, _MIN_WARM_SPEEDUP))
                continue
            lines.append(
                "service[%s]: equivalent, %.2fx warm speedup (gated), "
                "%.2f auctions/s"
                % (label, speedup, extra.get("auctions_per_sec", 0.0)))
        else:
            lines.append(
                "service[%s]: equivalent, %.2fx warm speedup (smoke), "
                "%.2f auctions/s"
                % (label, speedup, extra.get("auctions_per_sec", 0.0)))


def check_history(results_dir, threshold, failures, lines):
    """Gate the persistent run-history store (``history.jsonl``).

    Two checks per stored trajectory (grouped by config fingerprint —
    see ``repro.obs.history``):

    * every trend anomaly flag (message totals outside the Theorem 11
      band, impossible round counts, counter drift within a
      fingerprint) is a hard failure — those invariants have no
      tolerance;
    * when a fingerprint has two or more calibration-normalised
      wall-clock measurements, the latest must not exceed the best
      prior one by more than ``--threshold`` (the same band as the
      scaling gate — raw seconds never cross machines, normalised
      ones do).
    """
    path = os.path.join(results_dir, "history.jsonl")
    if not os.path.exists(path):
        lines.append("history: no store at %s; skipping" % path)
        return
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, os.pardir, "src"))
    try:
        from repro.obs.history import HistoryStore, trend_rows
    finally:
        sys.path.pop(0)
    rows = trend_rows(HistoryStore(path).load())
    normalised_by_fp = {}
    for row in rows:
        if row["anomalies"]:
            failures.append(
                "history[#%d %s]: %s"
                % (row["index"], row["fingerprint"],
                   "; ".join(row["anomalies"])))
        if row["normalized"] is not None:
            normalised_by_fp.setdefault(row["fingerprint"],
                                        []).append(row)
    if not rows:
        lines.append("history: store %s is empty" % path)
        return
    for fingerprint in sorted(normalised_by_fp):
        group = normalised_by_fp[fingerprint]
        if len(group) < 2:
            lines.append("history[%s]: one normalised entry; trend not "
                         "gated yet" % fingerprint)
            continue
        prior, latest = group[:-1], group[-1]
        best = min(row["normalized"] for row in prior)
        ratio = latest["normalized"] / best if best else float("inf")
        if ratio > 1.0 + threshold:
            failures.append(
                "history[%s]: latest normalised wall-clock %.2fx the "
                "best stored run (entry #%d, threshold %.0f%%)"
                % (fingerprint, ratio, latest["index"], threshold * 100))
        else:
            lines.append("history[%s]: latest %.2fx of best stored "
                         "normalised wall-clock (ok)"
                         % (fingerprint, ratio))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fail on benchmark regressions against the committed "
                    "baseline.")
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--baseline", default=os.path.join(here, "baseline"))
    parser.add_argument("--results", default=os.path.join(here, "results"))
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional wall-clock regression "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--only", action="append", dest="only",
                        choices=["scaling", "table1", "cache",
                                 "resilience", "parallel", "backend",
                                 "service", "history"],
                        help="run only the named gate section(s); "
                             "repeatable (default: all sections)")
    args = parser.parse_args(argv)

    sections = set(args.only or ["scaling", "table1", "cache",
                                 "resilience", "parallel", "backend",
                                 "service", "history"])
    failures = []
    lines = []
    if "scaling" in sections:
        check_scaling(args.baseline, args.results, args.threshold,
                      failures, lines)
    if "table1" in sections:
        check_table1(args.baseline, args.results, failures, lines)
    if "cache" in sections:
        check_cache_stats(args.baseline, args.results, failures, lines)
    if "resilience" in sections:
        check_resilience(args.results, failures, lines)
    if "parallel" in sections:
        check_parallel(args.results, failures, lines)
    if "backend" in sections:
        check_backend(args.results, failures, lines)
    if "service" in sections:
        check_service(args.results, failures, lines)
    if "history" in sections:
        check_history(args.results, args.threshold, failures, lines)

    for line in lines:
        print(line)
    if failures:
        print()
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print()
    print("regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
