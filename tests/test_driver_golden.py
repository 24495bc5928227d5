"""One auction driver: both schedules reproduce their pre-merge golden.

The sequential schedule and the phase-barrier schedule used to be two
method families in :class:`~repro.core.protocol.DMWProtocol`; they are
now one phase driver over task batches (one-task batches vs one batch
of all tasks).  ``tests/fixtures/driver_golden.json`` was captured from
the two separate families (``tests/golden_driver.py``), and every entry
must reproduce exactly — outcome, counters, ``NetworkMetrics``, rounds,
trace, span tree, span events and flight sequence — except for the
named behaviour changes below, each checked for its own shape:

* :data:`QUARANTINE_OWNER` — a sequential degraded run's
  ``task_quarantined`` span event hangs off the phase span that
  detected the abort, not ``run`` (the phase-barrier schedule already
  did this);
* :data:`PUBLISHED_EVENTS` — phase-barrier traces gain the per-task
  ``aggregates_published`` and ``disclosures_published`` events the
  sequential schedule always recorded.

The third change, no empty barrier rounds once degraded mode has
quarantined every task, is outside these scenarios and is pinned by
``tests/test_degraded.py::TestNoEmptyBarrierRounds``.
"""

import copy
import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_driver import (DRIVERS, FIXTURE_PATH, SCENARIOS,
                           capture_scenario)

from repro.core.parameters import DMWParameters
from repro.core.protocol import run_dmw
from repro.obs.spans import PHASES
from repro.scheduling import workloads

with open(FIXTURE_PATH) as _handle:
    GOLDEN = json.load(_handle)

QUARANTINE_OWNER = "task_quarantined owned by the detecting phase span"
PUBLISHED_EVENTS = "phase-barrier *_published trace events"
PUBLISHED_KINDS = ("aggregates_published", "disclosures_published")

_FRESH = {}


def fresh_capture(key):
    if key not in _FRESH:
        name, driver = key.rsplit("/", 1)
        _FRESH[key] = capture_scenario(name, driver)
    return _FRESH[key]


def apply_named_deltas(key, golden, fresh):
    """The golden entry as the single driver must reproduce it, plus the
    names of the deltas that applied."""
    expected = copy.deepcopy(golden)
    applied = []
    driver = key.rsplit("/", 1)[1]
    if driver == "sequential":
        for index, event in enumerate(expected["span_events"]):
            if event[0] != "task_quarantined":
                continue
            task = event[2]["task"]
            owner = fresh["span_events"][index][1]
            assert event[1] == "run"
            assert owner in ["run/task[%d]/%s[%d]" % (task, phase, task)
                             for phase in PHASES], owner
            event[1] = owner
            applied.append(QUARANTINE_OWNER)
    else:
        added = [event for event in fresh["trace"]
                 if event[0] in PUBLISHED_KINDS]
        others = [event for event in fresh["trace"]
                  if event[0] not in PUBLISHED_KINDS]
        if added and others == golden["trace"]:
            expected["trace"] = fresh["trace"]
            applied.append(PUBLISHED_EVENTS)
    return expected, applied


def test_fixture_covers_every_scenario_and_driver():
    assert sorted(GOLDEN) == sorted("%s/%s" % (name, driver)
                                    for name in SCENARIOS
                                    for driver in DRIVERS)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_entry_reproduces_the_golden(key):
    fresh = fresh_capture(key)
    expected, _ = apply_named_deltas(key, GOLDEN[key], fresh)
    assert sorted(fresh) == sorted(expected)
    for field in expected:
        assert fresh[field] == expected[field], \
            "%s diverged on %s" % (key, field)


def test_quarantine_owner_delta_applies_only_to_degraded_sequential():
    for key in sorted(GOLDEN):
        if not key.endswith("/sequential"):
            continue
        _, applied = apply_named_deltas(key, GOLDEN[key], fresh_capture(key))
        degraded = SCENARIOS[key.rsplit("/", 1)[0]][2]
        assert (QUARANTINE_OWNER in applied) == degraded, key


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_published_events_match_the_sequential_schedule(name):
    """The phase-barrier schedule records each task's ``*_published``
    events with the sequential schedule's payload; a strict sequential
    run that stops early has recorded a prefix of them."""
    def published(driver):
        return [event for event in
                fresh_capture("%s/%s" % (name, driver))["trace"]
                if event[0] in PUBLISHED_KINDS]

    sequential, barrier = published("sequential"), published("phase_barrier")
    assert all(event in barrier for event in sequential)
    if fresh_capture("%s/sequential" % name)["completed"]:
        assert sorted(barrier) == sorted(sequential)


def test_phase_barrier_schedule_runs_over_sockets():
    """The phase-barrier schedule is the sequential schedule's driver, so
    it runs over the asyncio transport with the in-process totals."""
    parameters = DMWParameters.generate(5, fault_bound=1,
                                        group_size="small")
    problem = workloads.random_discrete(5, 3, parameters.bid_values,
                                        random.Random(7))
    runs = [run_dmw(problem, parameters=parameters, rng=random.Random(8),
                    parallel=True, transport=transport)
            for transport in ("inprocess", "asyncio")]
    in_process, sockets = runs
    assert sockets.completed and in_process.completed
    assert sockets.schedule.assignment == in_process.schedule.assignment
    assert list(sockets.payments) == list(in_process.payments)
    assert sockets.agent_operations == in_process.agent_operations
    assert sockets.network_metrics.as_dict() == \
        in_process.network_metrics.as_dict()
    assert sockets.network_metrics.rounds == 5
