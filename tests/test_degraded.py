"""Graceful degradation: per-task quarantine instead of whole-run void.

The invariant under test (ISSUE tentpole 2): with ``degraded=True`` a
fault that voids a single task's auction quarantines *that task only* —
every unaffected task's transcript is bit-identical to the fault-free
run, payments cover exactly the completed tasks, and the auditor
cross-checks the quarantine decision against the public transcript.
"""

import random

import pytest

from repro import PartialSchedule, serialization
from repro.core import (
    DMWAgent,
    DMWProtocol,
    audit_protocol_run,
)
from repro.core.deviant import standard_deviations
from repro.network.faults import FaultPlan
from repro.network.simulator import SynchronousNetwork
from repro.obs.export import resilience_summary, run_report, validate_run_report
from repro.obs.metrics import registry_for_run
from repro.obs.spans import SpanRecorder
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [1, 2, 3],
        [2, 1, 3],
        [3, 2, 1],
        [1, 3, 2],
        [2, 2, 2],
    ])


def make_agents(params, problem, seed=7):
    master = random.Random(seed)
    return [
        DMWAgent(i, params,
                 [int(problem.time(i, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for i in range(5)
    ]


def drop_task1_aggregates(message):
    """Corruptor voiding task 1's aggregation on every link."""
    if message.kind == "lambda_psi" and message.payload[0] == 1:
        return None
    return message


def task1_fault_plan():
    links = {(s, r): drop_task1_aggregates
             for s in range(5) for r in range(6) if s != r}
    return FaultPlan(corruptors=links)


@pytest.fixture()
def baseline(params5, problem):
    protocol = DMWProtocol(params5, make_agents(params5, problem))
    return protocol.execute(problem.num_tasks)


class TestFaultFreeEquivalence:
    def test_degraded_flag_alone_changes_nothing(self, params5, problem,
                                                 baseline):
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        outcome = protocol.execute(problem.num_tasks, degraded=True)
        assert outcome.completed
        assert outcome.degraded
        assert outcome.task_aborts == {}
        assert outcome.quarantined_tasks == ()
        assert outcome.schedule.assignment == baseline.schedule.assignment
        assert list(outcome.payments) == list(baseline.payments)
        assert outcome.network_metrics.as_dict() == \
            baseline.network_metrics.as_dict()


class TestQuarantine:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_faulty_task_is_quarantined_others_identical(
            self, params5, problem, baseline, parallel):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, parallel=parallel,
                                   degraded=True)
        assert outcome.completed
        assert outcome.degraded
        assert outcome.quarantined_tasks == (1,)
        abort = outcome.task_aborts[1]
        assert abort.task == 1
        # Partial schedule: quarantined slot is None, others as fault-free.
        assert isinstance(outcome.schedule, PartialSchedule)
        assert outcome.schedule.assignment[1] is None
        assert outcome.schedule.assignment[0] == \
            baseline.schedule.assignment[0]
        assert outcome.schedule.assignment[2] == \
            baseline.schedule.assignment[2]
        # Unaffected auctions are bit-identical to the fault-free run.
        survivors = {t.task: t for t in outcome.transcripts}
        reference = {t.task: t for t in baseline.transcripts}
        assert sorted(survivors) == [0, 2]
        for task in (0, 2):
            got, want = survivors[task], reference[task]
            assert (got.winner, got.first_price, got.second_price) == \
                (want.winner, want.first_price, want.second_price)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_strict_mode_still_voids_the_run(self, params5, problem,
                                             parallel):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, parallel=parallel)
        assert not outcome.completed
        assert outcome.abort is not None
        assert outcome.abort.task == 1
        assert outcome.schedule is None

    def test_payments_cover_only_completed_tasks(self, params5, problem,
                                                 baseline):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, degraded=True)
        assert outcome.completed
        # Each agent's payment is the sum of second prices of the
        # completed tasks it won; the quarantined task contributes zero.
        reference = {t.task: t for t in baseline.transcripts}
        expected = [0] * params5.num_agents
        for task in (0, 2):
            expected[reference[task].winner] += reference[task].second_price
        assert list(outcome.payments) == expected

    def test_auditor_accepts_justified_quarantine(self, params5, problem):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, degraded=True)
        report = audit_protocol_run(protocol, outcome)
        assert report.ok
        assert all(finding.check != "quarantine"
                   for finding in report.findings)


class TestNoEmptyBarrierRounds:
    """Once degraded mode has quarantined every task, the driver goes
    straight to payments: no empty barrier round, no empty phase span."""

    @pytest.mark.parametrize("deviation,parallel,rounds,phases", [
        ("withhold_shares", True, 2, ["bidding"]),
        ("wrong_aggregates", True, 4, ["bidding", "aggregation"]),
        ("withhold_shares", False, 4, ["bidding"] * 3),
        ("wrong_aggregates", False, 10, ["bidding", "aggregation"] * 3),
    ])
    def test_all_quarantined_steps_no_empty_rounds(
            self, params5, problem, deviation, parallel, rounds, phases):
        agents = make_agents(params5, problem)
        agents[4] = standard_deviations()[deviation](
            4, params5, agents[4].true_values, random.Random(4))
        observer = SpanRecorder()
        protocol = DMWProtocol(params5, agents, observer=observer)
        outcome = protocol.execute(problem.num_tasks, parallel=parallel,
                                   degraded=True)
        assert outcome.completed
        assert outcome.quarantined_tasks == (0, 1, 2)
        assert protocol.network.round_index == rounds
        assert [span.name for span in observer.spans
                if span.kind == "phase" and span.name != "payments"] \
            == phases


class TestPartialSchedule:
    def test_partial_schedule_round_trips_through_serialization(
            self, params5, problem):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, degraded=True)
        document = serialization.dumps(outcome)
        restored = serialization.loads(document)
        assert restored.degraded
        assert restored.quarantined_tasks == (1,)
        assert isinstance(restored.schedule, PartialSchedule)
        assert restored.schedule.assignment == outcome.schedule.assignment
        assert restored.task_aborts[1].task == 1
        assert restored.task_aborts[1].phase == outcome.task_aborts[1].phase


class TestDegradedObservability:
    def test_run_report_resilience_section(self, params5, problem):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, degraded=True)
        document = run_report(outcome)
        validate_run_report(document)
        resilience = document["resilience"]
        assert resilience["degraded"] is True
        assert resilience["quarantined_tasks"] == [1]
        assert "1" in resilience["task_aborts"]

    def test_resilience_summary_zero_on_clean_run(self, baseline):
        summary = resilience_summary(baseline)
        assert summary == {
            "retransmissions": 0,
            "recovered_messages": 0,
            "degraded": False,
            "quarantined_tasks": [],
            "task_aborts": {},
        }

    def test_quarantine_metrics_exported(self, params5, problem):
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, degraded=True)
        registry = registry_for_run(outcome)
        rendered = registry.to_prometheus()
        assert "dmw_task_quarantines_total" in rendered
        assert "dmw_run_degraded 1" in rendered
