"""DMW010 — blocking calls reachable inside ``async def`` bodies.

The asyncio socket transport (``repro.network.asyncio_transport``) keeps
every participant's traffic on one event loop; the round barrier is an
ack-counted gather with a wall-clock bound.  A *blocking* call on that
loop — ``time.sleep``, synchronous socket or file I/O, ``subprocess`` —
stalls every agent at once: the simulated clock keeps its schedule but
real delivery does not, the ack barrier times out spuriously, and the
transport's timeout/retry semantics (the in-process simulator's own
delivery loop) silently drift.  Inside coroutines, waiting
must be ``await``-shaped (``asyncio.sleep``, reader/writer calls).

The rule flags a blocking call either directly inside an ``async def``
body or one call-graph hop away: a synchronous helper that itself makes
a blocking call, invoked from a coroutine (the project call graph
resolves the helper; unresolvable calls are not guessed at).  Nested
``def``/``async def`` bodies are analyzed on their own, not attributed
to the enclosing coroutine.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Optional, Tuple

from ..base import ProjectRule, Violation, dotted_name
from ..callgraph import FunctionInfo

#: Exact dotted names that block the event loop.
BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.wait",
    "os.waitpid",
    "socket.create_connection",
    "urllib.request.urlopen",
}

#: Dotted-name prefixes that block (any member of the module).
BLOCKING_PREFIXES = ("subprocess.", "requests.")

#: Bare built-in calls that perform synchronous file I/O.
BLOCKING_BUILTINS = {"open", "input"}


def _blocking_description(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        if call.func.id in BLOCKING_BUILTINS:
            return "`%s()`" % call.func.id
        return None
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    if dotted in BLOCKING_CALLS:
        return "`%s`" % dotted
    if any(dotted.startswith(prefix) for prefix in BLOCKING_PREFIXES):
        return "`%s`" % dotted
    return None


def _own_body_calls(function: FunctionInfo) -> Iterator[ast.Call]:
    """Call nodes in the function body, excluding nested defs."""
    stack: List[ast.AST] = list(
        ast.iter_child_nodes(function.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _direct_blocking(function: FunctionInfo
                     ) -> List[Tuple[ast.Call, str]]:
    found: List[Tuple[ast.Call, str]] = []
    for call in _own_body_calls(function):
        description = _blocking_description(call)
        if description is not None:
            found.append((call, description))
    return found


class AsyncBlockingRule(ProjectRule):
    rule_id = "DMW010"
    description = ("blocking call reachable inside an async def body "
                   "(stalls the event loop)")
    invariant = ("the asyncio transport's round barrier and timeout "
                 "semantics mirror the in-process simulator only while "
                 "the event loop runs freely; a blocking call inside a "
                 "coroutine stalls every agent and desynchronizes the "
                 "ack barrier from the simulated clock")
    include_parts = ("network",)

    def check_project(self, project: Any) -> Iterator[Violation]:
        graph = project.callgraph
        for function in project.project.iter_functions():
            if not function.is_async:
                continue
            context = project.context_for(function.path)
            if context is None or not self.applies_to(context):
                continue
            for call, description in _direct_blocking(function):
                yield self.violation(
                    context, call,
                    "blocking call %s inside `async def %s` — use the "
                    "awaitable equivalent (e.g. asyncio.sleep, stream "
                    "I/O)" % (description, function.name))
            # One hop: a sync helper that blocks, called from this
            # coroutine.
            for edge in graph.callees(function.qualname):
                callee = project.project.functions.get(edge.callee)
                if callee is None or callee.is_async:
                    continue
                blocking = _direct_blocking(callee)
                if not blocking:
                    continue
                _node, description = blocking[0]
                yield self.violation(
                    context, edge.node,
                    "`async def %s` calls helper `%s`, which makes "
                    "blocking call %s — the helper blocks the event "
                    "loop one hop away" % (function.name, callee.qualname,
                                           description))
