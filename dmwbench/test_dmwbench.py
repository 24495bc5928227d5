"""The benchmark's own tests.

    python3 -m pytest dmwbench/test_dmwbench.py -q

Smoke-size runs (``--seconds 0``: one pass over each workload's distinct
instances) check that every metric named in ``BENCHMARK.json`` is
printed with its unit; the oracle tests check that a tampered schedule,
payment or counted cost is counted as a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli_cold  # noqa: E402
import common  # noqa: E402
import ledger  # noqa: E402
import service_mix  # noqa: E402

with open(os.path.join(common.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    argv = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=common.ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert metric["better"] in ("lower", "higher")
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        for name, emitted in result["metrics"].items():
            assert emitted["value"] > 0, name


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == list(ledger.PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in common.END_TO_END.items()}
    assert {m["name"]: m["better"] for m in SPEC["end_to_end"]} == {
        name: better for name, (_, better) in common.END_TO_END.items()}


def _cli_output(times):
    path = os.path.join(common.WORK, "test_instance.json")
    common.write_json(path, times)
    argv = [sys.executable, "-m", "repro"] + cli_cold.cli_args(path)
    return common.run_measured(argv)


def test_tampered_cli_outcome_is_a_failure():
    times = cli_cold.instances(3)[0]
    run = _cli_output(times)
    oracle = common.Oracle()
    assert cli_cold.check_run(oracle, 0, times, run)[0] is None
    schedule, payments, _, _ = cli_cold.parse_outcome(run["stdout"])
    bad_payments = list(payments)
    bad_payments[schedule[0]] += 1.0
    tampered = dict(run, stdout=run["stdout"].replace(
        "payments: %r" % (payments,), "payments: %r" % (bad_payments,)))
    assert "payments" in cli_cold.check_run(oracle, 0, times, tampered)[0]
    bad_schedule = [(agent + 1) % cli_cold.AGENTS for agent in schedule]
    tampered = dict(run, stdout=run["stdout"].replace(
        "schedule: %r" % (schedule,), "schedule: %r" % (bad_schedule,)))
    assert "schedule" in cli_cold.check_run(oracle, 0, times, tampered)[0]
    tampered = dict(run, stdout=run["stdout"].replace(" messages,",
                                                      "1 messages,"))
    assert "counted" in cli_cold.check_run(oracle, 0, times, tampered)[0]


def test_tampered_service_report_is_a_failure():
    _, key, document = next(service_mix.job_sequence(5))
    schedule, payments = common.minwork_expected(document["times"])
    report = {"completed": True, "schedule": schedule, "payments": payments,
              "totals": {"network": {"point_to_point_messages": 10},
                         "operations_per_agent": [
                             {"multiplication_work": 5}]}}
    oracle = common.Oracle()
    tally = common.Tally()
    moved = [(schedule[0] + 1) % document["agents"]] + schedule[1:]
    for candidate in (report,
                      dict(report, schedule=moved),
                      dict(report, payments=[p + 1 for p in payments]),
                      dict(report, completed=False)):
        reason, _, _ = service_mix.check_report(oracle, key, document,
                                                candidate)
        tally.record(key, 1.0, reason, document["tasks"])
    assert (tally.attempted, tally.failed) == (4, 3)


def test_tail_percentile_leaves_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    assert common.tail(values) == {"value": 30.0, "percentile": 75.0,
                                   "samples": 40, "defined": True}
    assert not common.tail(values[:10])["defined"]


def test_self_times_partition_the_root():
    spans = [["a", 1.0, 5.0, 1, "0", {}], ["b", 2.0, 3.0, 1, "0", {}],
             ["b", 3.5, 4.0, 1, "0", {}], ["c", 6.0, 7.5, 1, "0", {}]]
    result = ledger.self_times((0.0, 8.0), spans)
    assert result["self"] == {"a": 2.5, "b": 1.5, "c": 1.5}
    assert result["unattributed_s"] == 2.5
    assert result["reconcile_residue_s"] == 0.0
