"""The four workloads, driven through the public session and service API.

Each workload has a deterministic operation stream made from the seed, a
``setup`` that builds and warms its sessions (or service), a timed ``run``
that consumes a prefix of the stream — as long a prefix as fits in the run's
seconds, or a fixed number of operations in the traced run — and a
``verify`` step, outside timing, that checks every answer.

* ``cold-load`` — distinct specifications of 2k tuples (two relations,
  the denial-constraint template), each loaded cold: rows, then session,
  then CPS, then one COP.  Entity grouping, denial grounding, the encoder
  build and clause loading do the work; the warm solver does none.
* ``warm-ask`` — a read-only closed loop over pre-warmed sessions on small
  specifications (CCQA stays tractable) and ``preservation_workload``
  specifications: COP, DCIP, CCQA, CPS, CPP, ECP and BCP.  Solver probes,
  current-database enumeration, query evaluation and the extension space do
  the work; the build layers sit idle.  It is the bypass workload for
  ``cold-load``, and the reverse.
* ``mutate-stream`` — bounded episodes on fresh pre-warmed sessions
  (restored from a snapshot): timeline-consistent ``add_tuple``,
  ``add_order`` and rare ``add_denial`` writes, with windowed re-asks of
  CPS, CCQA and COP.  Footprint-scoped invalidation, chase extends and the
  tuple deltas run only here.
* ``serve-closed`` — a :class:`ReasoningService` with one worker; two client
  tasks in one process drive a closed loop over four logical sessions, 80%
  reads and 20% timeline-consistent mutations, with the default compaction
  threshold.  Each logical session takes a fresh specification after 36
  writes.  Only this workload measures routing, supervisor queueing,
  pickling, IPC and log compaction.

Both write streams follow the library's declared traffic shape (see
:data:`perfbench.gen.WRITE_MIX`).  The read mixes — the problem weights,
the share of reversed COP pairs and of repeated CCQA queries — are the
benchmark's own choice, not measured traffic: no source fixes them.  They
are set so every problem is asked and every gated verdict varies.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.serve import Mutation, ReasoningService
from repro.session import PROBLEMS, ProblemRequest, ReasoningSession
from repro.session import snapshot as snapshot_module
from repro.workloads.synthetic import preservation_workload

from perfbench.gen import TimelineSpec, apply_mutation
from perfbench.kernel import ReferenceClock
from perfbench.trace import TracedMutation, TracedRequest

#: length of one round of timed work between two kernel timings
ROUND_S = 0.5

#: latency sample kinds: reads (in ``cold-load`` the cold first answer),
#: writes, and ``cold-load``'s warm COP after the first answer
KINDS = ("ask", "mutate", "followup")

#: outcome-mix floors: below them a run is degenerate and fails
CONSISTENT_FLOOR = 0.95
NONEMPTY_CCQA_FLOOR = 0.05


class Timing:
    """Raw samples of one timed phase, in rounds of about ``ROUND_S`` with a
    kernel timing at every round boundary; :meth:`finish` normalises them."""

    def __init__(self, clock: ReferenceClock) -> None:
        self.clock = clock
        self.samples: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        self.raw: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        self.elapsed = 0.0
        self.raw_elapsed = 0.0
        self._rounds: List[Tuple[float, float, float, List[Tuple[str, float]]]] = []
        self._pending: List[Tuple[str, float]] = []
        self._excluded = 0.0
        self._round_start = time.perf_counter()

    def record(self, kind: str, seconds: float) -> None:
        self._pending.append((kind, seconds))

    def round_due(self) -> bool:
        return time.perf_counter() - self._round_start >= ROUND_S

    def exclude(self, seconds: float) -> None:
        """Take *seconds* of work that is not an operation out of the
        current round's elapsed time."""
        self._excluded += seconds

    def end_round(self) -> None:
        self._rounds.append((self._round_start, time.perf_counter(), self._excluded, self._pending))
        self._pending = []
        self._excluded = 0.0
        self.clock.sample()
        self._round_start = time.perf_counter()

    def finish(self) -> None:
        """Normalise every round by the kernel timings around it."""
        for start, end, excluded, pending in self._rounds:
            factor = self.clock.factor(start, end)
            for kind, seconds in pending:
                self.samples[kind].append(seconds * factor)
                self.raw[kind].append(seconds)
            self.elapsed += (end - start - excluded) * factor
            self.raw_elapsed += end - start - excluded
        self._rounds = []

    def ops(self) -> int:
        """Operations recorded so far."""
        return sum(len(pending) for _, _, _, pending in self._rounds) + len(self._pending) + sum(
            len(samples) for samples in self.samples.values()
        )


class Stop:
    """When the timed phase ends: after *seconds* of wall time, or after
    *ops* operations (the traced run, whose counts must not depend on
    speed)."""

    def __init__(self, seconds: Optional[float] = None, ops: Optional[int] = None) -> None:
        self.deadline = None if seconds is None else time.perf_counter() + seconds
        self.ops = ops

    def __call__(self, done: int) -> bool:
        if self.ops is not None:
            return done >= self.ops
        assert self.deadline is not None
        return time.perf_counter() >= self.deadline


class Outcomes:
    """The outcome mix and the correctness tally of one run."""

    def __init__(self) -> None:
        self.cps = [0, 0]  # consistent, asked
        self.verdicts: Dict[str, List[int]] = {}  # problem -> [true, false]
        self.ccqa = [0, 0]  # non-empty, asked
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ask(self, problem: str, value: Any) -> None:
        if problem == "cps":
            self.cps[0] += bool(value)
            self.cps[1] += 1
        elif problem == "ccqa":
            self.ccqa[0] += bool(value)
            self.ccqa[1] += 1
        elif isinstance(value, bool):
            split = self.verdicts.setdefault(problem, [0, 0])
            split[0 if value else 1] += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def mix(self) -> Dict[str, Any]:
        return {
            "consistent_share": self.cps[0] / self.cps[1] if self.cps[1] else None,
            "verdicts": {problem: list(split) for problem, split in sorted(self.verdicts.items())},
            "ccqa_nonempty_share": self.ccqa[0] / self.ccqa[1] if self.ccqa[1] else None,
        }

    def degenerate(self, split_problems: Tuple[str, ...], needs_ccqa: bool) -> List[str]:
        """Why the mix is degenerate (empty when it is not)."""
        reasons = []
        if not self.cps[1] or self.cps[0] / self.cps[1] < CONSISTENT_FLOOR:
            reasons.append(f"consistent share {self.cps} below {CONSISTENT_FLOOR}")
        for problem in split_problems:
            split = self.verdicts.get(problem, [0, 0])
            if not split[0] or not split[1]:
                reasons.append(f"{problem} verdict never varies: {split}")
        if needs_ccqa and (not self.ccqa[1] or self.ccqa[0] / self.ccqa[1] < NONEMPTY_CCQA_FLOOR):
            reasons.append(f"non-empty CCQA share {self.ccqa} below {NONEMPTY_CCQA_FLOOR}")
        return reasons


def _order_key(order: Dict[str, List[Tuple[Any, Any]]]) -> Tuple[Any, ...]:
    return tuple((attribute, tuple(pairs)) for attribute, pairs in sorted(order.items()))


def _ask(session: ReasoningSession, problem: str, args: tuple) -> Any:
    """Ask *problem* on *session*; *args* are the method's arguments, the
    query first for the problems that take one."""
    return getattr(session, PROBLEMS[problem])(*args)


def _request(problem: str, args: tuple, kind: type = ProblemRequest, **extra: Any) -> Any:
    """The service request for one ask of :func:`_ask`'s form."""
    if problem == "ccqa":
        return kind(problem, query=args[0], args=args[1:], **extra)
    return kind(problem, args=args, **extra)


def _ask_key(problem: str, args: tuple) -> Tuple[Any, ...]:
    """A structural key for one ask (queries compare structurally)."""
    if problem == "cop":
        return (problem, args[0], _order_key(args[1]))
    return (problem,) + tuple(args)


class _AskPicker:
    """Reads over one timeline session: COP on orders of one or two pairs
    never asked before on this session (30% with a reversed pair), DCIP per
    relation, CPS, and CCQA from the session's query pool, where half of the
    CCQA asks repeat a query already asked and half take the next fresh
    one.  ``double`` adds two-attribute selections to the pool, so a long
    read-only run does not run out of fresh queries."""

    REPEAT_SHARE = 0.5
    REVERSED_SHARE = 0.3

    def __init__(
        self,
        timeline: TimelineSpec,
        rng: random.Random,
        weights: Dict[str, int],
        double: bool = False,
    ) -> None:
        self.timeline = timeline
        self.rng = rng
        self.pool = timeline.query_pool(double)
        self.asked: List[Any] = []
        self.orders: set = set()
        self.problems = list(weights)
        self.weights = list(weights.values())

    def order(self) -> Tuple[str, Dict[str, List[Tuple[Any, Any]]]]:
        for _ in range(20):
            relation, order = self.timeline.cop_order(
                reverse=self.rng.random() < self.REVERSED_SHARE, pairs=self.rng.choice((1, 2))
            )
            key = (relation, _order_key(order))
            if key not in self.orders:
                break
        self.orders.add(key)
        return relation, order

    def query(self) -> Any:
        if self.asked and (not self.pool or self.rng.random() < self.REPEAT_SHARE):
            return self.rng.choice(self.asked)
        query = self.pool.pop()
        self.asked.append(query)
        return query

    def pick(self, problem: Optional[str] = None) -> Tuple[str, tuple]:
        problem = problem or self.rng.choices(self.problems, self.weights)[0]
        if problem == "cop":
            return problem, self.order()
        if problem == "dcip":
            return problem, (self.rng.choice(self.timeline.schemas).name,)
        if problem == "ccqa":
            return problem, (self.query(),)
        return problem, ()


class Workload:
    """Base of the four workloads; see the module docstring."""

    name = ""
    #: operations of the traced run
    trace_ops = 0
    #: problems whose verdict must vary across a run
    split_problems: Tuple[str, ...] = ()
    needs_ccqa = False
    #: whether timings are normalised by the reference kernel (see
    #: :class:`~perfbench.kernel.ReferenceClock`)
    normalised = True
    #: what the workload's reads are called in its printed latencies
    ask_label = "ask"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.outcomes = Outcomes()
        self.state: Any = None

    def rng(self, *salt: Any) -> random.Random:
        return random.Random(repr((self.name, self.seed) + salt))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, timing: Timing, stop: Stop) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def fingerprint(self) -> List[Any]:
        """A summary of the generated inputs (the self-test compares two
        seeds by it)."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# cold-load
# --------------------------------------------------------------------------- #
class ColdLoad(Workload):
    name = "cold-load"
    trace_ops = 4  # two cold loads of two asks each
    ask_label = "first_answer"
    split_problems = ("cop",)
    #: tuples per specification: one size, so the median of a run's loads
    #: does not depend on how many loads fit in the run
    SIZE = 2000
    LOADS = 40
    BLOCK = 4
    #: tuples of the set-up's warm-up load
    WARM_SIZE = 800

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # the inputs are generated here, outside every clock, so that
        # ``setup_s`` and the loads time the library and not the generator
        self.warm = self._timeline("warm", self.WARM_SIZE)
        self.timelines = [self._timeline(index, self.SIZE) for index in range(self.LOADS)]

    def _timeline(self, index: Any, size: int) -> TimelineSpec:
        return TimelineSpec(
            self.rng("load", index), f"c{index}", relations=2,
            entities=size // (2 * self.BLOCK), block=self.BLOCK,
            order_density=0.2, tie_rate=0.3,
        )

    def setup(self) -> None:
        # one smaller cold load first, so imports and first-call costs are
        # paid before the timed phase
        ReasoningSession(self.warm.build()).consistent()

    def run(self, timing: Timing, stop: Stop) -> None:
        for index, timeline in enumerate(self.timelines):
            if stop(timing.ops()):
                break
            # even loads ask a pair that is certain by construction, odd
            # loads a reversed timeline pair, which is never certain
            reverse = index % 2 == 1
            relation, order = timeline.cop_order(reverse=True) if reverse else timeline.certain_order()
            started = time.perf_counter()
            session = ReasoningSession(timeline.build())
            consistent = session.consistent()
            answered = time.perf_counter()
            certain = session.certain_ordering(relation, order)
            finished = time.perf_counter()
            timing.record("ask", answered - started)
            timing.record("followup", finished - answered)
            timing.end_round()
            del session
            self.outcomes.ask("cps", consistent)
            self.outcomes.ask("cop", certain)
            self.outcomes.attempted += 2
            self.outcomes.check(consistent is True, f"{timeline.name}: CPS {consistent}, expected True")
            self.outcomes.check(
                certain is not reverse,
                f"{timeline.name}: COP {certain} on a {'reversed' if reverse else 'certain'} pair",
            )

    def verify(self) -> None:
        """Every check is by construction and runs inside :meth:`run`."""

    def fingerprint(self) -> List[Any]:
        return [timeline.rows["R0"][:3] for timeline in self.timelines[:2]]


# --------------------------------------------------------------------------- #
# warm-ask
# --------------------------------------------------------------------------- #
class WarmAsk(Workload):
    name = "warm-ask"
    trace_ops = 2000
    split_problems = ("cop", "dcip", "cpp", "bcp")
    needs_ccqa = True
    TIMELINES = 128
    PRESERVATION = 16
    TIMELINE_WEIGHTS = {"cop": 45, "ccqa": 35, "dcip": 10, "cps": 10}
    #: asks a session answers before it is restored from its warm snapshot
    #: (the restore is not timed), so the state the asks leave behind, and
    #: with it the run's peak memory, does not grow with the number of asks
    #: a run gets through
    RECYCLE = 64

    def _sessions(self) -> List[Dict[str, Any]]:
        sessions = []
        for index in range(self.TIMELINES):
            timeline = TimelineSpec(
                self.rng("spec", index), f"w{index}", relations=2, entities=4, block=3,
                order_density=0.3, tie_rate=0.35, dense_relations=index % 2,
            )
            sessions.append({"timeline": timeline, "spec": timeline.build})
        for index in range(self.PRESERVATION):
            seed = self.rng("preservation", index).randrange(1 << 30)

            def build(seed: int = seed, spoiler: bool = index % 2 == 0) -> Any:
                return preservation_workload(
                    candidates=4, conflict_groups=2, spoiler=spoiler, seed=seed
                )[0]

            query = preservation_workload(candidates=4, conflict_groups=2, seed=seed)[1]
            sessions.append({"timeline": None, "spec": build, "query": query})
        return sessions

    def setup(self) -> None:
        sessions = self._sessions()
        for index, entry in enumerate(sessions):
            session = entry["session"] = ReasoningSession(entry["spec"]())
            session.consistent()
            if entry["timeline"] is not None:
                entry["picker"] = _AskPicker(
                    entry["timeline"], self.rng("asks", index), self.TIMELINE_WEIGHTS, double=True
                )
                for schema in entry["timeline"].schemas:
                    session.deterministic(schema.name)
            else:
                session.cpp(entry["query"])
            # every session the loop asks is a restored one, from the
            # first round on, so the cost of an ask does not change once
            # the recycling starts
            entry["payload"] = snapshot_module.snapshot_bytes(session)
            entry["session"] = snapshot_module.restore_bytes(entry["payload"])
            entry["asks"] = 0
        self.state = {"sessions": sessions, "answers": {}, "rng": self.rng("stream")}

    def _next(self) -> Tuple[int, str, tuple]:
        rng = self.state["rng"]
        sessions = self.state["sessions"]
        index = rng.randrange(len(sessions))
        entry = sessions[index]
        if entry["timeline"] is not None:
            problem, args = entry["picker"].pick()
            return index, problem, args
        problem = rng.choices(("cpp", "ecp", "bcp", "ccqa"), (35, 15, 35, 15))[0]
        if problem == "bcp":
            return index, problem, (entry["query"], rng.randrange(3))
        return index, problem, (entry["query"],)

    def run(self, timing: Timing, stop: Stop) -> None:
        sessions = self.state["sessions"]
        answers = self.state["answers"]
        done = 0
        while not stop(done):
            index, problem, args = self._next()
            session = sessions[index]["session"]
            started = time.perf_counter()
            value = _ask(session, problem, args)
            timing.record("ask", time.perf_counter() - started)
            done += 1
            entry = sessions[index]
            entry["asks"] += 1
            if entry["asks"] == self.RECYCLE:
                paused = time.perf_counter()
                entry["session"] = snapshot_module.restore_bytes(entry["payload"])
                entry["asks"] = 0
                timing.exclude(time.perf_counter() - paused)
            if timing.round_due():
                timing.end_round()
            self.outcomes.ask(problem, value)
            self.outcomes.attempted += 1
            key = (index,) + _ask_key(problem, args)
            first = answers.setdefault(key, (value, args))[0]
            self.outcomes.check(first == value, f"{key}: repeat answered {value!r}, first {first!r}")
            if problem == "cop" and value:
                self.outcomes.check(
                    self._timeline_order(sessions[index]["timeline"], args[1]),
                    f"{key}: certain order contradicts the timeline",
                )
        timing.end_round()

    @staticmethod
    def _timeline_order(timeline: TimelineSpec, order: Dict[str, List[Tuple[Any, Any]]]) -> bool:
        position = {tid: i for tids in timeline.timeline.values() for i, tid in enumerate(tids)}
        return all(position[lower] < position[upper] for pairs in order.values() for lower, upper in pairs)

    def verify(self) -> None:
        """Each distinct ask once more, on a fresh cold session per
        specification, in a shuffled order."""
        by_session: Dict[int, List[Tuple[Any, ...]]] = {}
        for key in self.state["answers"]:
            by_session.setdefault(key[0], []).append(key)
        rng = self.rng("verify")
        for index, keys in sorted(by_session.items()):
            cold = ReasoningSession(self.state["sessions"][index]["spec"]())
            rng.shuffle(keys)
            for key in keys:
                expected, args = self.state["answers"][key]
                value = _ask(cold, key[1], args)
                self.outcomes.check(value == expected, f"{key}: warm {expected!r}, cold {value!r}")

    def fingerprint(self) -> List[Any]:
        return [entry["timeline"].rows["R0"][:3] for entry in self._sessions()[:2]]


# --------------------------------------------------------------------------- #
# mutate-stream
# --------------------------------------------------------------------------- #
class MutateStream(Workload):
    name = "mutate-stream"
    trace_ops = 400
    split_problems = ("cop",)
    needs_ccqa = True
    BASES = 12
    EPISODE = 16  # mutations per episode
    WINDOW = 4  # mutations between re-asks

    def _bases(self) -> List[TimelineSpec]:
        return [
            TimelineSpec(
                self.rng("base", index), f"m{index}", relations=2, entities=3, block=3,
                order_density=0.35, tie_rate=0.3,
            )
            for index in range(self.BASES)
        ]

    def setup(self) -> None:
        bases = self._bases()
        payloads = []
        for index, base in enumerate(bases):
            session = ReasoningSession(base.build())
            session.consistent()
            picker = _AskPicker(base.fork(self.rng("warm", index)), self.rng("warm", index), {"ccqa": 1})
            for _ in range(3):
                _ask(session, *picker.pick("ccqa"))
                _ask(session, *picker.pick("cop"))
            for schema in base.schemas:
                session.deterministic(schema.name)  # caches the chase
            if index % self.BASES != self.BASES - 1:
                # a session that has answered a preservation question holds
                # an extension space, which the writes then extend
                session.cpp(picker.pick("ccqa")[1][0])
            payloads.append(snapshot_module.snapshot_bytes(session))
        self.state = {"bases": bases, "payloads": payloads, "episodes": [], "stats": {}}

    def _episode(self, number: int) -> Dict[str, Any]:
        index = number % self.BASES
        rng = self.rng("episode", number)
        timeline = self.state["bases"][index].fork(rng)
        return {
            "base": index,
            "timeline": timeline,
            "picker": _AskPicker(timeline, rng, {"ccqa": 1}),
            "mutations": [],
            "final": [],
        }

    def run(self, timing: Timing, stop: Stop) -> None:
        done = 0
        number = len(self.state["episodes"])
        while not stop(done):
            episode = self._episode(number)
            number += 1
            session = snapshot_module.restore_bytes(self.state["payloads"][episode["base"]])
            picker = episode["picker"]
            for step in range(1, self.EPISODE + 1):
                op, args = episode["timeline"].new_mutation()
                started = time.perf_counter()
                getattr(session, op)(*args)
                timing.record("mutate", time.perf_counter() - started)
                episode["mutations"].append((op, args))
                done += 1
                self.outcomes.attempted += 1
                if step % self.WINDOW == 0:
                    window = [("cps", ())] + [picker.pick(p) for p in ("ccqa", "cop")]
                    if step == self.EPISODE:
                        window += [picker.pick(p) for p in ("ccqa", "cop", "dcip", "dcip")]
                    for problem, args in window:
                        started = time.perf_counter()
                        value = _ask(session, problem, args)
                        timing.record("ask", time.perf_counter() - started)
                        done += 1
                        self.outcomes.attempted += 1
                        self.outcomes.ask(problem, value)
                        if step == self.EPISODE:
                            episode["final"].append((problem, args, value))
                if timing.round_due():
                    timing.end_round()
                if stop(done):
                    break
            for name, value in session.mutation_stats().items():
                self.state["stats"][name] = self.state["stats"].get(name, 0) + value
            del episode["picker"]
            self.state["episodes"].append(episode)
        timing.end_round()

    def verify(self) -> None:
        """The end-of-episode answers against a cold rebuild of the final
        specification (mutations applied to the rows, no session)."""
        for episode in self.state["episodes"]:
            if not episode["final"]:
                continue  # cut short by the end of the run
            specification = self.state["bases"][episode["base"]].build()
            for op, args in episode["mutations"]:
                apply_mutation(specification, op, args)
            cold = ReasoningSession(specification)
            for problem, args, value in episode["final"]:
                expected = _ask(cold, problem, args)
                self.outcomes.check(
                    value == expected,
                    f"episode of base {episode['base']}: {problem} warm {value!r}, rebuild {expected!r}",
                )

    def fingerprint(self) -> List[Any]:
        return [base.rows["R0"][:3] for base in self._bases()[:2]]


# --------------------------------------------------------------------------- #
# serve-closed
# --------------------------------------------------------------------------- #
class ServeClosed(Workload):
    name = "serve-closed"
    trace_ops = 800
    split_problems = ("cop",)
    needs_ccqa = True
    normalised = False
    SESSIONS = 4
    CLIENTS = 2
    READ_SHARE = 0.8
    WEIGHTS = {"cop": 35, "ccqa": 35, "dcip": 15, "cps": 15}
    #: writes to one logical session before a fresh specification takes
    #: its place: past the service's default compaction threshold (32), so
    #: every episode is compacted once, and bounded, so the tuple-heavy
    #: write mix does not grow the per-ask cost without end
    EPISODE = 36
    DEADLINE_S = 60.0

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed)
        self.traced = traced
        self.queue_depths: List[int] = []

    def _episode(self, index: int, number: int) -> Dict[str, Any]:
        """Logical session *index*'s *number*-th specification, its reads
        and its committed writes."""
        timeline = TimelineSpec(
            self.rng("spec", index, number), f"s{index}e{number}", relations=2, entities=2, block=3,
            order_density=0.5, tie_rate=0.25,
        )
        return {
            "number": number,
            "timeline": timeline,
            "spec": timeline.build(),
            "picker": _AskPicker(timeline, self.rng("asks", index, number), self.WEIGHTS),
            "log": [],
        }

    def setup(self) -> None:
        self.close()
        slots = [self._episode(index, 0) for index in range(self.SESSIONS)]
        service = ReasoningService(processes=1, default_deadline=self.DEADLINE_S)
        self.state = {"service": service, "slots": slots, "rid": 0, "retries": 0}
        self.state["clients"] = [self.rng("client", client) for client in range(self.CLIENTS)]

        async def warm() -> None:
            for slot in slots:
                for problem, args in [("cps", ())] + [
                    ("dcip", (schema.name,)) for schema in slot["timeline"].schemas
                ]:
                    answer = await service.submit(slot["spec"], _request(problem, args))
                    if not answer.ok:
                        raise RuntimeError(f"warm-up {problem} failed: {answer.error}")

        asyncio.run(warm())

    def close(self) -> None:
        if self.state is not None:
            self.state["service"].close()
            self.state = None

    def _item(self, slot: Dict[str, Any], rng: random.Random) -> Tuple[Any, Optional[Tuple[str, tuple]], Tuple[str, tuple]]:
        """The next request on *slot*: the wire item, the mutation it
        commits (or None) and the ask it makes."""
        self.state["rid"] += 1
        rid = self.state["rid"]
        if rng.random() >= self.READ_SHARE:
            op, args = slot["timeline"].new_mutation()
            item = TracedMutation(op, args, rid=rid) if self.traced else Mutation(op, args)
            return item, (op, args), (op, args)
        problem, args = slot["picker"].pick()
        item = _request(problem, args, TracedRequest, rid=rid) if self.traced else _request(problem, args)
        return item, None, (problem, args)

    def run(self, timing: Timing, stop: Stop) -> None:
        """Rounds of ``ROUND_S``: both clients run until the round ends, and
        the kernel is timed while nothing is in flight.  In the traced run
        each client stops after its share of ``stop.ops``, so every session
        sees the same requests however fast the run goes."""
        shares = None if stop.ops is None else [
            (stop.ops + client) // self.CLIENTS for client in range(self.CLIENTS)
        ]
        counts = [0] * self.CLIENTS

        def finished(client: int) -> bool:
            if shares is not None:
                return counts[client] >= shares[client]
            return stop(sum(counts))

        async def client_task(client: int, deadline: float) -> None:
            service = self.state["service"]
            slots = self.state["slots"]
            rng = self.state["clients"][client]
            owned = list(range(client, self.SESSIONS, self.CLIENTS))
            while not finished(client) and time.perf_counter() < deadline:
                index = rng.choice(owned)
                slot = slots[index]
                item, mutation, (problem, args) = self._item(slot, rng)
                if self.traced:
                    self.queue_depths.append(service.stats()["supervisor"]["queued"])
                started = time.perf_counter()
                answer = await service.submit(slot["spec"], item)
                timing.record("mutate" if mutation else "ask", time.perf_counter() - started)
                counts[client] += 1
                self.outcomes.attempted += 1
                self.state["retries"] += answer.attempts - 1
                if not answer.ok:
                    self.outcomes.fail(f"session {index} {problem}: {answer.error or answer.degraded}")
                elif mutation is not None:
                    slot["log"].append(mutation)
                    if len(slot["log"]) == self.EPISODE:
                        slots[index] = self._episode(index, slot["number"] + 1)
                else:
                    self.outcomes.ask(problem, answer.value)

        async def drive() -> None:
            while not all(finished(client) for client in range(self.CLIENTS)):
                deadline = time.perf_counter() + ROUND_S
                await asyncio.gather(*(client_task(c, deadline) for c in range(self.CLIENTS)))
                timing.end_round()

        asyncio.run(drive())

    def verify(self) -> None:
        """Final per-session answers through the service against an
        in-process session that replays the committed mutations."""
        service = self.state["service"]

        async def final() -> List[List[Tuple[str, tuple, Any]]]:
            results = []
            for index, slot in enumerate(self.state["slots"]):
                picker = slot["picker"]
                asks = [("cps", ())] + [("dcip", (s.name,)) for s in picker.timeline.schemas]
                asks += [("ccqa", (query,)) for query in picker.asked[-6:]]
                asks += [picker.pick("cop") for _ in range(4)]
                answers = []
                for problem, args in asks:
                    answer = await service.submit(slot["spec"], _request(problem, args))
                    self.outcomes.attempted += 1
                    if not answer.ok:
                        self.outcomes.fail(f"final {problem} on session {index}: {answer.error}")
                        continue
                    answers.append((problem, args, answer.value))
                results.append(answers)
            return results

        finals = asyncio.run(final())
        for index, answers in enumerate(finals):
            slot = self.state["slots"][index]
            replay = ReasoningSession(slot["timeline"].build())
            for op, args in slot["log"]:
                getattr(replay, op)(*args)
            for problem, args, value in answers:
                expected = _ask(replay, problem, args)
                self.outcomes.check(
                    value == expected,
                    f"session {index}: {problem} served {value!r}, replay {expected!r}",
                )

    def service_counters(self) -> Dict[str, float]:
        service = self.state["service"]
        return {
            "compactions": service.compactions,
            "respawns": service.stats()["supervisor"]["respawns"],
            "retries": self.state["retries"],
        }

    def fingerprint(self) -> List[Any]:
        return [self._episode(index, 0)["timeline"].rows["R0"][:3] for index in range(2)]


WORKLOADS = {
    workload.name: workload for workload in (ColdLoad, WarmAsk, MutateStream, ServeClosed)
}
