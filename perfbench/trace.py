"""Spans and counts at the boundaries of the ``repro.*`` layers.

The traced run wraps the public entry points of each layer from the
benchmark's own code: at the class method, or at the module-level name the
caller looks up (``repro.session.session`` imports the chase functions by
name, so they are wrapped there).  Each wrapped call records a span — name,
start, end, parent span and request id — and the tracer keeps, per name, the
call count, the total time and the self time (the span's duration minus the
part its child spans cover).  Hot helpers are counted without a span.

Spawned service workers re-import the benchmark's main module; when
``TRACE_DIR_ENV`` names a directory there, :func:`install_worker_tracing`
installs the same wrappers in the worker and appends, after every request,
one JSON line with the request's compute span and the layer totals that
request added.  The client joins those lines to its own request spans by
request id.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.denial import DenialConstraint
from repro.core.instance import NormalInstance
from repro.preservation.sat_extensions import ExtensionSearchSpace
from repro.query.engine import QueryEngine
from repro.reasoning.current_db import CurrentDatabaseEnumerator
from repro.serve import Mutation, ReasoningService
from repro.serve import service as serve_module
from repro.session import PROBLEMS, ProblemRequest, ReasoningSession
from repro.session import session as session_module
from repro.session import snapshot as snapshot_module
from repro.solvers.order_encoding import CompletionEncoder
from repro.solvers.sat import Solver

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: session method -> problem name, for the asks the benchmark makes (all
#: but SP)
ASKS = {method: problem for problem, method in PROBLEMS.items() if problem != "sp"}
MUTATORS = ("add_tuple", "add_order", "add_denial")


@dataclasses.dataclass(frozen=True)
class TracedRequest(ProblemRequest):
    """A :class:`ProblemRequest` that carries a request id to the worker."""

    rid: int = 0


@dataclasses.dataclass(frozen=True)
class TracedMutation(Mutation):
    """A :class:`Mutation` that carries a request id to the worker."""

    rid: int = 0


class _Frame:
    __slots__ = ("name", "start", "child", "sid", "parent", "worked")

    def __init__(self, name: str, start: float, sid: int, parent: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        self.parent = parent
        self.worked = False


class Tracer:
    """Span stack, per-name totals and counters for one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: (name, start, end, parent span id, request id)
        self.spans: List[Tuple[str, float, float, int, Optional[int]]] = []
        self.rid: Optional[int] = None
        self._stack: List[_Frame] = []
        self._next_sid = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Spans and counts
    # ------------------------------------------------------------------ #
    def enter(self, name: str) -> _Frame:
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.worked = True
        frame = _Frame(name, time.perf_counter(), self._next_sid, parent.sid if parent else 0)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame.child
        self.spans.append((name, frame.start, end, frame.parent, self.rid))
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def in_span(self, prefix: str) -> bool:
        return any(frame.name.startswith(prefix) for frame in self._stack)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attribute: str, wrapper: Callable[..., Any]) -> None:
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def span_wrap(self, owner: Any, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.exit(frame)

        self._patch(owner, attribute, wrapper)

    def generator_wrap(self, owner: Any, attribute: str, name: str, item_count: str) -> None:
        """Time a generator while its body runs; count the items it yields."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = original(*args, **kwargs)
            tracer.count(name + ".calls")
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.count(item_count)
                yield item

        self._patch(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer table reads."""
        # repro.core
        self.span_wrap(NormalInstance, "entity_block", "core.entity_block")
        self.generator_wrap(
            DenialConstraint,
            "grounded_implications_with_support",
            "core.denial.ground",
            "core.denial.groundings",
        )
        # repro.reasoning: the session looks the chase functions up by name
        for attribute, name in (
            ("chase_certain_orders", "reasoning.chase.build"),
            ("extend_chase_with_tuples", "reasoning.chase.extend"),
            ("extend_chase_with_order", "reasoning.chase.extend"),
            ("extend_chase_with_copies", "reasoning.chase.extend"),
        ):
            self.span_wrap(session_module, attribute, name)
        self.generator_wrap(
            CurrentDatabaseEnumerator,
            "databases",
            "reasoning.current_db",
            "reasoning.current_db.databases",
        )
        # repro.solvers
        self.span_wrap(CompletionEncoder, "__init__", "solvers.encoder.build")
        self._wrap_solve()
        self._wrap_add_clause()
        # repro.preservation
        self.span_wrap(ExtensionSearchSpace, "__init__", "preservation.space.build")
        self._wrap_extend()
        for attribute in (
            "maximal_consistent_selections",
            "bounded_selection_core",
            "greedy_maximal_selection",
            "certain_answers",
        ):
            self.span_wrap(ExtensionSearchSpace, attribute, "preservation.space.search")
        self.generator_wrap(
            ExtensionSearchSpace,
            "iterate_consistent_selections",
            "preservation.space.search",
            "preservation.space.selections",
        )
        # repro.query
        self.span_wrap(QueryEngine, "answers", "query.engine.answers")
        # repro.session
        for method, problem in ASKS.items():
            self._wrap_ask(method, problem)
        for method in MUTATORS:
            self.span_wrap(ReasoningSession, method, f"session.mutate.{method}")
        self._wrap_snapshots()
        return self

    def _wrap_solve(self) -> None:
        original = Solver.__dict__["solve"]
        tracer = self

        @functools.wraps(original)
        def solve(solver: Solver, *args: Any, **kwargs: Any) -> Any:
            before = solver._stats["conflicts"], solver._stats["propagations"]
            frame = tracer.enter("solvers.sat.solve")
            try:
                return original(solver, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.count("solvers.sat.conflicts", solver._stats["conflicts"] - before[0])
                tracer.count(
                    "solvers.sat.propagations", solver._stats["propagations"] - before[1]
                )

        self._patch(Solver, "solve", solve)

    def _wrap_add_clause(self) -> None:
        original = Solver.__dict__["add_clause"]
        tracer = self

        @functools.wraps(original)
        def add_clause(solver: Solver, literals: Any) -> bool:
            tracer.count("solvers.sat.clauses_added")
            return original(solver, literals)

        self._patch(Solver, "add_clause", add_clause)

    def _wrap_extend(self) -> None:
        original = ExtensionSearchSpace.__dict__["extend_with_tuples"]
        tracer = self

        @functools.wraps(original)
        def extend_with_tuples(space: Any, *args: Any, **kwargs: Any) -> bool:
            frame = tracer.enter("preservation.space.extend")
            try:
                extended = original(space, *args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.count("preservation.space.extend_ok" if extended else "preservation.space.extend_fail")
            return extended

        self._patch(ExtensionSearchSpace, "extend_with_tuples", extend_with_tuples)

    def _wrap_ask(self, method: str, problem: str) -> None:
        """An ask made by the benchmark (not one session method calling
        another) is a top-level ``session.ask`` span; it is a memo hit when
        no wrapped layer below it did any work."""
        original = ReasoningSession.__dict__[method]
        tracer = self

        @functools.wraps(original)
        def ask(session: ReasoningSession, *args: Any, **kwargs: Any) -> Any:
            if tracer.in_span("session."):
                frame = tracer.enter("session.inner")
                try:
                    return original(session, *args, **kwargs)
                finally:
                    tracer.exit(frame)
            frame = tracer.enter(f"session.ask.{problem}")
            try:
                return original(session, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.count("session.asks")
                if not frame.worked:
                    tracer.count("session.memo_hits")

        self._patch(ReasoningSession, method, ask)

    def _wrap_snapshots(self) -> None:
        tracer = self
        originals = {name: serve_module.__dict__[name] for name in ("snapshot_bytes", "restore_bytes")}

        def snapshot_bytes(*args: Any, **kwargs: Any) -> bytes:
            frame = tracer.enter("session.snapshot")
            try:
                payload: bytes = originals["snapshot_bytes"](*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.count("session.snapshot.bytes", len(payload))
            return payload

        def restore_bytes(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter("session.restore")
            try:
                return originals["restore_bytes"](*args, **kwargs)
            finally:
                tracer.exit(frame)

        # the service looks the functions up by name in its own module, the
        # benchmark in the snapshot module
        for module in (serve_module, snapshot_module):
            self._patch(module, "snapshot_bytes", snapshot_bytes)
            self._patch(module, "restore_bytes", restore_bytes)

    # ------------------------------------------------------------------ #
    # Aggregates across processes
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }

    def merge(self, totals: Dict[str, Dict[str, float]]) -> None:
        for key, target in (
            ("calls", self.calls),
            ("total", self.total),
            ("self", self.self_time),
            ("counts", self.counts),
        ):
            for name, value in totals.get(key, {}).items():
                target[name] = target.get(name, 0) + value


def _difference(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    return {
        key: {
            name: value - before[key].get(name, 0)
            for name, value in values.items()
            if value != before[key].get(name, 0)
        }
        for key, values in after.items()
    }


def install_worker_tracing(directory: str) -> Tracer:
    """Trace a spawned service worker: wrap the layers and the worker's
    request handler, and append one line per request to this process's file
    in *directory*.  A line is flushed before the handler returns, because
    the service terminates its workers on close."""
    tracer = Tracer().install()
    original = serve_module.__dict__["_serve_handler"]
    path = os.path.join(directory, f"worker-{os.getpid()}.jsonl")

    def _serve_handler(work: Any, state: Dict[str, Any]) -> Any:
        before = tracer.totals()
        tracer.rid = getattr(work.item, "rid", None)
        frame = tracer.enter("serve.compute")
        try:
            return original(work, state)
        finally:
            tracer.exit(frame)
            line = {
                "rid": tracer.rid,
                "start": frame.start,
                "end": tracer.spans[-1][2],
                "totals": _difference(tracer.totals(), before),
            }
            tracer.rid = None
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(line) + "\n")

    # the supervisor ships the handler by reference, so the worker resolves
    # this wrapper when it unpickles its start arguments
    serve_module._serve_handler = _serve_handler  # type: ignore[attr-defined]
    return tracer


def read_worker_lines(directory: str) -> List[Dict[str, Any]]:
    lines: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                lines.extend(json.loads(line) for line in handle if line.strip())
    return lines


def wrap_client(tracer: Tracer) -> None:
    """Client-side request spans around :meth:`ReasoningService.submit`.
    Requests of different client tasks overlap, so these spans are recorded
    flat (no parent) with the request id the item carries."""
    original = ReasoningService.__dict__["submit"]

    @functools.wraps(original)
    async def submit(service: ReasoningService, specification: Any, item: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return await original(service, specification, item, **kwargs)
        finally:
            end = time.perf_counter()
            tracer.spans.append(("serve.request", start, end, 0, getattr(item, "rid", None)))

    tracer._patch(ReasoningService, "submit", submit)
