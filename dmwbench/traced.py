"""Traced program processes: the CLI and the daemon under the ledger shims.

``python traced.py cli LEDGER_PATH SPAWN_TIME -- ARGV...``
    Times the interpreter start (from the parent's ``SPAWN_TIME`` on the
    shared monotonic clock) and ``import repro.cli``, installs the shims
    and calls ``repro.cli.main(ARGV)`` as instance ``"0"``.

``python traced.py serve LEDGER_PATH SPAWN_TIME``
    Times the interpreter start and the imports ``dmw serve`` needs
    (``repro.cli`` and the service), installs the shims, wraps the
    service's submit and per-job execute calls, and calls
    ``repro.service.gateway.serve(port=0)``.  Each job's spans carry the
    job id as their instance; ``serve`` returns on SIGINT and the ledger
    is written, with the start and import times in its ``meta``.

Both run with ``src`` and this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def run_cli(ledger_path: str, spawned: float, argv: list) -> int:
    import_start = time.perf_counter()
    import repro.cli
    import_end = time.perf_counter()
    import ledger as ledger_module

    ledger = ledger_module.Ledger()
    ledger_module.install(ledger)
    install_end = time.perf_counter()
    start = time.perf_counter()
    try:
        with ledger.instance("0"):
            code = repro.cli.main(argv)
    finally:
        end = time.perf_counter()
        sys.stdout.flush()
        ledger.dump(ledger_path)
        # Written last, so the parent can take the ledger write out of
        # the process residue.
        with open(ledger_path + ".meta", "w") as handle:
            json.dump({"python_start_s": STARTED - spawned,
                       "import_s": import_end - import_start,
                       "install_s": install_end - import_end,
                       "main": [start, end],
                       "dump_s": time.perf_counter() - end}, handle)
    return code


def run_serve(ledger_path: str, spawned: float) -> int:
    import_start = time.perf_counter()
    import repro.cli  # noqa: F401  (what ``python -m repro`` imports)
    from repro.service import engine
    from repro.service.gateway import serve
    import_end = time.perf_counter()
    import ledger as ledger_module

    ledger = ledger_module.Ledger()
    ledger.meta.update(python_start_s=STARTED - spawned,
                       import_s=import_end - import_start)
    ledger_module.install(ledger)
    service_cls = engine.AuctionService

    submit = service_cls.submit

    @functools.wraps(submit)
    def traced_submit(self, payload):
        record = submit(self, payload)
        ledger.meta.setdefault("submitted", {})[record.job_id] = \
            time.perf_counter()
        return record

    execute = service_cls._execute

    @functools.wraps(execute)
    def traced_execute(self, record):
        start = time.perf_counter()
        try:
            with ledger.instance(record.job_id):
                return execute(self, record)
        finally:
            ledger.add_span("service.execute", start, time.perf_counter(),
                            instance=record.job_id)

    service_cls.submit = traced_submit
    service_cls._execute = traced_execute
    ledger.patched.extend(["repro.service.engine.AuctionService.submit",
                           "repro.service.engine.AuctionService._execute"])
    try:
        return serve(host="127.0.0.1", port=0)
    finally:
        ledger.dump(ledger_path)


def main(argv: list) -> int:
    mode, ledger_path = argv[0], argv[1]
    if mode == "cli":
        separator = argv.index("--")
        return run_cli(ledger_path, float(argv[2]), argv[separator + 1:])
    if mode == "serve":
        return run_serve(ledger_path, float(argv[2]))
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
