"""Long-lived driver child for the ``asyncio-rounds`` workload.

Run as ``python driver.py [--trace LEDGER_PATH]`` with ``src`` on
``PYTHONPATH``.  After importing the program and building the fixture
group it prints one ``ready`` line; then each stdin line is a JSON
request ``{"id": ..., "times": [[...], ...]}`` answered by one stdout
line holding the outcome, the counted costs, the call's wall clock and
this process's CPU and peak RSS.  The ready line carries the child's
start on the shared monotonic clock (``spawned``) and the time its
``import repro`` took (``import_s``).  An empty line or EOF ends the
child; with ``--trace`` the ledger is written to ``LEDGER_PATH`` first.
"""

from __future__ import annotations

import time

SPAWNED = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

AGENTS = 6


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _run(request: dict, parameters, ledger) -> dict:
    """One ``run_dmw`` call over the asyncio transport, timed."""
    from repro import run_dmw
    from repro.obs.spans import SpanRecorder
    from repro.scheduling.problem import SchedulingProblem

    problem = SchedulingProblem(request["times"])
    start = time.perf_counter()
    if ledger is not None:
        with ledger.instance(str(request["id"])):
            outcome = run_dmw(problem, parameters=parameters,
                              rng=random.Random(0), transport="asyncio",
                              observer=SpanRecorder())
    else:
        outcome = run_dmw(problem, parameters=parameters,
                          rng=random.Random(0), transport="asyncio")
    end = time.perf_counter()
    return {"id": request["id"], "start": start, "end": end,
            "completed": outcome.completed,
            "schedule": (list(outcome.schedule.assignment)
                         if outcome.schedule is not None else None),
            "payments": (list(outcome.payments)
                         if outcome.payments is not None else None),
            "auctions": len(outcome.transcripts),
            "messages": outcome.network_metrics.point_to_point_messages,
            "agent_work": outcome.max_agent_work}


def main(argv: list) -> int:
    ledger = None
    ledger_path = None
    if argv[:1] == ["--trace"]:
        ledger_path = argv[1]
    import_start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)
    from repro.core import DMWParameters
    import_s = time.perf_counter() - import_start

    parameters = DMWParameters.generate(AGENTS, fault_bound=1,
                                        group_size="small")
    if ledger_path is not None:
        import ledger as ledger_module
        ledger = ledger_module.Ledger()
        ledger_module.install(ledger)
    print(json.dumps({"ready": time.perf_counter(), "spawned": SPAWNED,
                      "import_s": import_s, **_usage()}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            break
        request = json.loads(line)
        try:
            reply = _run(request, parameters, ledger)
        except Exception:
            # Reported as this instance's failure; the child keeps going.
            reply = {"id": request["id"], "error": traceback.format_exc(),
                     "start": 0.0, "end": 0.0, "auctions": 0,
                     "messages": 0, "agent_work": 0}
        reply.update(_usage())
        print(json.dumps(reply), flush=True)
    if ledger is not None:
        ledger.dump(ledger_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
