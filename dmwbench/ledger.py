"""The traced run's per-layer ledger: shims, span store and aggregation.

Benchmark-owned shims wrap the layers' public functions and methods.
Each function is replaced at every name its callers look up (the module
that defines it and every ``repro`` module that imported it by name);
methods are replaced on their classes.  A wrapper records a span
``(name, start, end, thread, instance)`` with ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so spans from the
daemon and from the benchmark's client process share one time base.
Calls too frequent to time cheaply are only counted.

Spans stay in memory and are written as JSON when the traced process
ends (:meth:`Ledger.dump`).  :func:`aggregate` turns dumped spans
plus each instance's root interval into per-layer call counts and self
times.  A span's self time is its duration minus the part of it that
its child spans cover; children are found by interval containment
within one thread of one instance, so layer self times plus the root's
own uncovered time (``core.unattributed_s``) add up to the instance's
wall clock.  Any part of a child that sticks out of its parent is
clipped and reported as residue.
"""

from __future__ import annotations

import functools
import marshal
import pickle
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

clock = time.perf_counter

#: Functions timed per call, by ledger name -> (module, attribute).
TIMED_FUNCTIONS = {
    "crypto.fastexp.multi_exp_with_tables": ("repro.crypto.fastexp",
                                             "multi_exp_with_tables"),
    "crypto.fastexp.straus_tables": ("repro.crypto.fastexp",
                                     "straus_tables"),
    "crypto.fastexp.batch_mod_inv": ("repro.crypto.fastexp",
                                     "batch_mod_inv"),
    "crypto.commitments.verify_share_batch": ("repro.crypto.commitments",
                                              "verify_share_batch"),
    "obs.run_report": ("repro.obs.export", "run_report"),
    "obs.registry_for_run": ("repro.obs.metrics", "registry_for_run"),
    "obs.validate_run_report": ("repro.obs.export", "validate_run_report"),
}

#: Methods timed per call, by ledger name -> (module, class, method).
TIMED_METHODS = {
    "crypto.fastexp.FixedBaseTable.pow": ("repro.crypto.fastexp",
                                          "FixedBaseTable", "pow"),
    "crypto.commitments.evaluate": ("repro.crypto.commitments",
                                    "PolynomialCommitment", "evaluate"),
}

#: OperationCounter entry points; counted, never timed (hundreds of
#: thousands of calls per auction run).
COUNTER_METHODS = ("count_add", "count_mul", "count_inv", "count_exp",
                   "count_exp_batch")

#: The protocol phases the observer reports, in execution order.
PHASES = ("bidding", "aggregation", "disclosure", "resolution", "payments")


class Ledger:
    """In-memory spans, counts and values for one traced process."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.values: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.meta: Dict[str, Any] = {}
        self.patched: List[str] = []
        #: Process-wide OperationCounter call count (see :meth:`counted`).
        self.calls = [0]
        self._local = threading.local()

    # -- instance attribution -------------------------------------------------
    def current(self) -> Optional[str]:
        return getattr(self._local, "instance", None)

    @contextmanager
    def instance(self, instance_id: str) -> Iterator[None]:
        previous = self.current()
        self._local.instance = instance_id
        try:
            yield
        finally:
            self._local.instance = previous

    # -- recording ------------------------------------------------------------
    def add_span(self, name: str, start: float, end: float,
                 instance: Optional[str] = None, **extra: Any) -> None:
        self.spans.append([name, start, end, threading.get_ident(),
                           instance if instance is not None
                           else self.current(), extra])

    def count(self, name: str, times: int = 1) -> None:
        self.counts[str(self.current())][name] += times

    def value(self, name: str, value: float) -> None:
        self.values[str(self.current())][name].append(value)

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        local = self._local
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append([name, start, clock(), get_ident(),
                              getattr(local, "instance", None), {}])
        return wrapper

    def counted(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls in :attr:`calls`, a process-wide cell.

        The cell is read before and after each ``execute`` to attribute
        the calls to an instance: one bare increment keeps the cost of
        hundreds of thousands of calls per run small.
        """
        cell = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- output ---------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write everything with ``marshal`` (fast for ~10^5 spans)."""
        with open(path, "wb") as handle:
            marshal.dump({"spans": self.spans,
                          "counts": {k: dict(v)
                                     for k, v in self.counts.items()},
                          "values": {k: dict(v)
                                     for k, v in self.values.items()},
                          "meta": self.meta, "patched": self.patched},
                         handle)


def load(path: str) -> Dict[str, Any]:
    """Read a dump this benchmark's own traced process wrote."""
    with open(path, "rb") as handle:
        return marshal.load(handle)


# -- shims --------------------------------------------------------------------

def _replace_everywhere(original: Any, replacement: Any) -> List[str]:
    """Rebind every ``repro`` module global that names ``original``."""
    where = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                where.append("%s.%s" % (module_name, attribute))
    return where


def _wrap_method(ledger: Ledger, cls: type, method: str,
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]
                 ) -> None:
    setattr(cls, method, make(cls.__dict__[method]))
    ledger.patched.append("%s.%s.%s" % (cls.__module__, cls.__name__,
                                        method))


def _all_subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def install(ledger: Ledger) -> None:
    """Wrap the layers' public callables; ``repro`` must be imported.

    Imports the modules whose names are wrapped, so that every caller
    that imported a name binds the wrapper, then installs:

    * timed crypto, network, parallel and report-building calls;
    * counted ``OperationCounter`` calls;
    * an observer on every ``DMWProtocol`` built without one, and the
      harvesting of its phase spans and cache statistics after
      ``execute``.
    """
    import importlib

    for module_name in ("repro.cli", "repro.core.protocol", "repro.parallel",
                        "repro.service.engine", "repro.network.transport",
                        "repro.network.asyncio_transport"):
        importlib.import_module(module_name)
    for name, (module_name, attribute) in TIMED_FUNCTIONS.items():
        original = getattr(importlib.import_module(module_name), attribute)
        ledger.patched.extend(
            _replace_everywhere(original, ledger.timed(name, original)))
    for name, (module_name, class_name, method) in TIMED_METHODS.items():
        cls = getattr(importlib.import_module(module_name), class_name)
        _wrap_method(ledger, cls, method,
                     lambda fn, name=name: ledger.timed(name, fn))

    from repro.crypto.modular import OperationCounter
    for method in COUNTER_METHODS:
        _wrap_method(ledger, OperationCounter, method, ledger.counted)

    from repro.network.transport import Transport
    for cls in _all_subclasses(Transport):
        for method, name in (("step", "network.step"),
                             ("send", "network.send"),
                             ("publish", "network.send")):
            if method in cls.__dict__:
                _wrap_method(ledger, cls, method,
                             lambda fn, name=name: ledger.timed(name, fn))

    _install_protocol(ledger)
    _install_parallel(ledger)


def _install_protocol(ledger: Ledger) -> None:
    from repro.core.protocol import DMWProtocol
    from repro.crypto import fastexp
    from repro.obs.spans import SpanRecorder

    def make_init(init: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(init)
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            if kwargs.get("observer") is None:
                kwargs["observer"] = SpanRecorder()
            init(self, *args, **kwargs)
        return __init__

    def make_execute(execute: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(execute)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            table = fastexp.TABLE_CACHE
            hits, misses = table.hits, table.misses
            calls = ledger.calls[0]
            first_span = len(ledger.spans)
            outcome = execute(self, *args, **kwargs)
            pooled = any(span[0] == "parallel.run_pool_auctions"
                         for span in ledger.spans[first_span:])
            if not pooled:
                # A pool run's counter calls and table lookups happen in
                # its worker processes, which this ledger does not see.
                ledger.count("crypto.modular.counter_calls",
                             ledger.calls[0] - calls)
                ledger.count("fixed_base_table.hits", table.hits - hits)
                ledger.count("fixed_base_table.misses",
                             table.misses - misses)
                ledger.count("local_auctions", len(outcome.transcripts))
            stats = outcome.cache_stats or {}
            ledger.count("public_cache.hits", stats.get("hits", 0))
            ledger.count("public_cache.misses", stats.get("misses", 0))
            _harvest_phases(ledger, self.observer, pooled)
            return outcome
        return wrapper

    _wrap_method(ledger, DMWProtocol, "__init__", make_init)
    _wrap_method(ledger, DMWProtocol, "execute", make_execute)


def _harvest_phases(ledger: Ledger, observer: Any, pooled: bool) -> None:
    """Copy the observer's phase spans into the ledger.

    Pool shards' phase spans ran in worker processes and were grafted
    onto this recorder's timeline; they keep their counted work but are
    kept out of the time tree (``grafted``), except the run-level
    ``payments`` phase, which the parent itself executes.
    """
    if not getattr(observer, "enabled", False):
        return
    for span in observer.spans:
        if span.kind != "phase":
            continue
        grafted = pooled and span.name != "payments"
        ledger.add_span("core.phase." + span.name,
                        observer.epoch + span.start, observer.epoch + span.end,
                        mult_work=span.operations.get("multiplication_work",
                                                      0),
                        grafted=grafted)


def _install_parallel(ledger: Ledger) -> None:
    import repro.parallel as parallel

    original = parallel.run_pool_auctions

    @functools.wraps(original)
    def run_pool_auctions(protocol: Any, num_tasks: int, *args: Any,
                          **kwargs: Any) -> Any:
        warm = kwargs.get("warm_cache")
        probe_start = clock()
        size = (len(pickle.dumps(warm.export_state()))
                if warm is not None and warm.entry_count() else 0)
        ledger.add_span("trace.probe", probe_start, clock())
        ledger.value("parallel.warm_state_bytes", size)
        ledger.count("parallel.shards", num_tasks)
        start = clock()
        try:
            return original(protocol, num_tasks, *args, **kwargs)
        finally:
            ledger.add_span("parallel.run_pool_auctions", start, clock())
    ledger.patched.extend(_replace_everywhere(original, run_pool_auctions))


# -- aggregation --------------------------------------------------------------

def self_times(root: Sequence[float], spans: Sequence[Sequence[Any]]
               ) -> Dict[str, Any]:
    """Self time per span name under one root interval.

    ``spans`` are ``[name, start, end, thread, ...]`` of one instance.
    Each thread's spans nest by containment; a span whose thread has no
    enclosing span hangs directly off the root.  Returns per-name self
    seconds and calls, the root's uncovered time and the clipped residue.
    """
    root_start, root_end = root
    by_name_self: Dict[str, float] = defaultdict(float)
    by_name_calls: Dict[str, int] = defaultdict(int)
    covered_by_root = 0.0
    residue = 0.0
    by_thread: Dict[Any, List[Sequence[Any]]] = defaultdict(list)
    for span in spans:
        by_thread[span[3]].append(span)
    for thread_spans in by_thread.values():
        ordered = sorted(thread_spans, key=lambda s: (s[1], -s[2]))
        # Stack entries: [name, start, end, children_total].
        stack: List[List[Any]] = []

        def close(entry: List[Any]) -> None:
            by_name_self[entry[0]] += (entry[2] - entry[1]) - entry[3]

        for name, start, end, *_ in ordered:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            lower, upper = ((stack[-1][1], stack[-1][2]) if stack
                            else (root_start, root_end))
            clipped_start, clipped_end = max(start, lower), min(end, upper)
            if clipped_end < clipped_start:
                clipped_end = clipped_start
            residue += (end - start) - (clipped_end - clipped_start)
            if stack:
                stack[-1][3] += clipped_end - clipped_start
            else:
                covered_by_root += clipped_end - clipped_start
            by_name_calls[name] += 1
            stack.append([name, clipped_start, clipped_end, 0.0])
        while stack:
            close(stack.pop())
    wall = root_end - root_start
    unattributed = wall - covered_by_root
    return {"self": dict(by_name_self), "calls": dict(by_name_calls),
            "unattributed_s": unattributed, "wall_s": wall,
            "clipped_s": residue,
            "reconcile_residue_s": wall - (sum(by_name_self.values())
                                           + unattributed)}


#: Per-layer metrics: name -> unit.  Every traced run reports all of them;
#: a layer a workload does not reach reads 0 (see README.md).
PER_LAYER = {"repro.python_start_s": "s", "repro.import_s": "s",
             "repro.process_residue_s": "s"}
for _name in ("multi_exp_with_tables", "straus_tables", "FixedBaseTable.pow",
              "batch_mod_inv"):
    PER_LAYER["crypto.fastexp.%s.calls" % _name] = "count"
    PER_LAYER["crypto.fastexp.%s.self_s" % _name] = "s"
PER_LAYER.update({"crypto.fastexp.fixed_base_table.hit_ratio": "ratio",
                  "crypto.fastexp.public_cache.hit_ratio": "ratio"})
for _name in ("evaluate", "verify_share_batch"):
    PER_LAYER["crypto.commitments.%s.calls" % _name] = "count"
    PER_LAYER["crypto.commitments.%s.self_s" % _name] = "s"
PER_LAYER["crypto.modular.counter_calls"] = "count"
for _name in PHASES:
    PER_LAYER["core.phase.%s.s" % _name] = "s"
    PER_LAYER["core.phase.%s.mult_work" % _name] = "count"
PER_LAYER.update({
    "core.unattributed_s": "s",
    "network.step.calls": "count", "network.step.s": "s",
    "network.send.calls": "count", "network.send.self_s": "s",
    "parallel.run_pool_auctions.s": "s", "parallel.shards": "count",
    "parallel.warm_state_bytes": "bytes",
    "service.queue_wait_p50_s": "s", "service.execute_p50_s": "s",
    "service.client_overhead_p50_s": "s", "service.polls_per_job": "count",
    "service.warm_hit_ratio": "ratio", "service.warm_cache_entries": "count",
    "service.jobs_retained": "count",
    "obs.run_report.s": "s", "obs.registry_for_run.s": "s",
    "obs.validate_run_report.s": "s", "obs.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio", "trace.reconcile_residue_s": "s",
})

#: Timed layers reported as calls + self time per instance.
_CALL_LAYERS = {
    "crypto.fastexp.multi_exp_with_tables": "self_s",
    "crypto.fastexp.straus_tables": "self_s",
    "crypto.fastexp.FixedBaseTable.pow": "self_s",
    "crypto.fastexp.batch_mod_inv": "self_s",
    "crypto.commitments.evaluate": "self_s",
    "crypto.commitments.verify_share_batch": "self_s",
    "network.step": "s",
    "network.send": "self_s",
}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def aggregate(instances: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer values over traced instances.

    Each instance is ``{"root": [start, end], "spans": [...],
    "counts": {...}, "values": {...}}``.  Calls and self times are means
    per instance; counter calls are per auction.  The crypto and
    network layers, which a pool run executes in untraced worker
    processes, are means over the instances that did not use the pool;
    ``parallel.*`` values are means over those that did.  Returns
    ``{"metrics": {...}, "self_s": {...}, "reconcile": {...}}``.
    """
    count = len(instances) or 1
    self_total: Dict[str, float] = defaultdict(float)
    local_self: Dict[str, float] = defaultdict(float)
    local_calls: Dict[str, int] = defaultdict(int)
    local_count = 0
    phase_s: Dict[str, float] = defaultdict(float)
    phase_work: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    values: Dict[str, List[float]] = defaultdict(list)
    pool_s: List[float] = []
    unattributed = wall = 0.0
    worst_residue = 0.0
    for instance in instances:
        tree_spans = [s for s in instance["spans"]
                      if not s[5].get("grafted")]
        result = self_times(instance["root"], tree_spans)
        for name, seconds in result["self"].items():
            self_total[name] += seconds
        unattributed += result["unattributed_s"]
        wall += result["wall_s"]
        worst_residue = max(worst_residue,
                            abs(result["reconcile_residue_s"])
                            + result["clipped_s"])
        pooled = 0.0
        for name, start, end, _, _, extra in instance["spans"]:
            if name.startswith("core.phase."):
                phase = name[len("core.phase."):]
                phase_work[phase] += extra.get("mult_work", 0)
                if not extra.get("grafted"):
                    phase_s[phase] += end - start
            elif name == "parallel.run_pool_auctions":
                pooled += end - start
        if pooled:
            pool_s.append(pooled)
        else:
            local_count += 1
            for name in _CALL_LAYERS:
                local_self[name] += result["self"].get(name, 0.0)
                local_calls[name] += result["calls"].get(name, 0)
        for name, value in instance.get("counts", {}).items():
            counts[name] += value
        for name, items in instance.get("values", {}).items():
            values[name].extend(items)
    metrics: Dict[str, float] = {}
    for name, suffix in _CALL_LAYERS.items():
        metrics[name + ".calls"] = local_calls[name] / (local_count or 1)
        metrics["%s.%s" % (name, suffix)] = (local_self[name]
                                             / (local_count or 1))
    for phase in PHASES:
        metrics["core.phase.%s.s" % phase] = phase_s[phase] / count
        metrics["core.phase.%s.mult_work" % phase] = phase_work[phase] / count
    for name in ("run_report", "registry_for_run", "validate_run_report"):
        metrics["obs.%s.s" % name] = self_total.get("obs." + name, 0.0) / count
    metrics["core.unattributed_s"] = unattributed / count
    metrics["crypto.modular.counter_calls"] = (
        counts["crypto.modular.counter_calls"] / counts["local_auctions"]
        if counts["local_auctions"] else 0.0)
    metrics["crypto.fastexp.fixed_base_table.hit_ratio"] = _ratio(
        counts["fixed_base_table.hits"], counts["fixed_base_table.misses"])
    metrics["crypto.fastexp.public_cache.hit_ratio"] = _ratio(
        counts["public_cache.hits"], counts["public_cache.misses"])
    metrics["parallel.run_pool_auctions.s"] = (sum(pool_s) / len(pool_s)
                                               if pool_s else 0.0)
    metrics["parallel.shards"] = (counts["parallel.shards"] / len(pool_s)
                                  if pool_s else 0.0)
    warm = values.get("parallel.warm_state_bytes", [])
    metrics["parallel.warm_state_bytes"] = (sum(warm) / len(warm)
                                            if warm else 0.0)
    metrics["trace.reconcile_residue_s"] = worst_residue
    layers = dict(sorted((name, seconds / count)
                         for name, seconds in self_total.items()))
    return {"metrics": metrics, "self_s": layers,
            "reconcile": {"instances": len(instances),
                          "wall_s": wall / count,
                          "layers_self_s": sum(layers.values()),
                          "unattributed_s": unattributed / count,
                          "max_abs_residue_s": worst_residue}}


def instances_from_dump(dump: Dict[str, Any],
                        roots: Dict[str, Sequence[float]]
                        ) -> List[Dict[str, Any]]:
    """Split one process's dump into per-instance records."""
    spans: Dict[str, List[Any]] = defaultdict(list)
    for span in dump["spans"]:
        spans[str(span[4])].append(span)
    return [{"root": list(root), "spans": spans.get(key, []),
             "counts": dump["counts"].get(key, {}),
             "values": dump["values"].get(key, {})}
            for key, root in roots.items()]
