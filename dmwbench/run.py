"""DMW benchmark entry point.

    python3 dmwbench/run.py --workload {cli-cold,asyncio-rounds,service-mix}
                            --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is ``src/repro``;
the benchmark drives it from outside only.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer ledger.  The line before it is the full record: provenance,
the tail percentile and sample count, failures and the reconciliation.
Exit code 0 means the run finished (``correct`` says whether every
outcome verified); any other code means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("cli-cold", "asyncio-rounds", "service-mix")
#: Fixture groups each workload uses (for the provenance's p_bits).
GROUPS = {"cli-cold": ("small",), "asyncio-rounds": ("small",),
          "service-mix": ("small", "large")}


def _workload_module(name: str):
    if name == "cli-cold":
        import cli_cold as module
    elif name == "asyncio-rounds":
        import asyncio_rounds as module
    else:
        import service_mix as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print("dmwbench: no program at %s" % common.SRC, file=sys.stderr)
        return 2
    shutil.rmtree(common.WORK, ignore_errors=True)
    os.makedirs(common.WORK)
    result = _workload_module(args.workload).run(args.seed, args.seconds,
                                                 bool(args.trace))
    tally = result["tally"]
    if args.trace:
        import ledger
        units = ledger.PER_LAYER
        values = {name: result["layers"]["metrics"].get(name, 0.0)
                  for name in units}
    else:
        units = {name: unit for name, (unit, _) in common.END_TO_END.items()}
        values = result["end_to_end"]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": common.provenance(args.seed,
                                              GROUPS[args.workload]),
              "detail": result["detail"], "metrics": values}
    if args.trace:
        record["layers_self_s"] = result["layers"]["self_s"]
        record["reconcile"] = result["layers"]["reconcile"]
        record["shims"] = result["layers"]["shims"]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    shutil.rmtree(common.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
