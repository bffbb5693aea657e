"""Specifications that are consistent by construction.

Every entity block has a *hidden timeline*: a total order of its tuples that
the generator draws first.  Everything it emits afterwards agrees with that
timeline, so the timeline itself is a consistent completion and CPS is
``True`` on every state the benchmark asks about:

* the ``a0`` payload never decreases along the timeline (ties are allowed,
  which is what leaves completions ambiguous), so the template rule "larger
  ``a0`` is more current" holds on the timeline;
* every attribute's currency order is the timeline, so the correlation rules
  ``t ≺_a0 s ⇒ t ≺_ai s`` hold as well;
* initial partial orders and later ``add_order`` pairs are timeline pairs;
* tuples added later go to the end of their block's timeline with an ``a0``
  at least the block's maximum.

The generator owns its ids and its random stream: the same seed gives the
same specification, query pool and mutation stream.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, Hashable, List, Tuple

from repro.core import (
    CurrencyAtom,
    DenialConstraint,
    RelationSchema,
    RelationTuple,
    Specification,
    TemporalInstance,
)
from repro.core.denial import AttrRef, Comparison
from repro.query.ast import SPQuery

ATTRIBUTES = ("a0", "a1", "a2")
#: values of ``a1``, ``a2`` and of a block's first ``a0``
VALUE_DOMAIN = 4
#: the write mix, ``add_tuple:add_order:add_denial`` = 6:3:1 — the traffic
#: shape the library declares in ``repro.workloads.streaming_mutation_workload``
WRITE_MIX = {"add_tuple": 6, "add_order": 3, "add_denial": 1}

BlockKey = Tuple[str, Hashable]


def monotone_rule(schema: RelationSchema) -> DenialConstraint:
    """Larger ``a0`` is more current."""
    return DenialConstraint(
        schema,
        ("s", "t"),
        body=[Comparison(AttrRef("s", "a0"), ">", AttrRef("t", "a0"))],
        head=CurrencyAtom("t", "a0", "s"),
        name=f"monotone_a0_{schema.name}",
    )


def correlation_rule(schema: RelationSchema, attribute: str) -> DenialConstraint:
    """The ``a0`` order carries over to *attribute*."""
    return DenialConstraint(
        schema,
        ("s", "t"),
        body=[CurrencyAtom("t", "a0", "s")],
        head=CurrencyAtom("t", attribute, "s"),
        name=f"correlate_a0_{attribute}_{schema.name}",
    )


class TimelineSpec:
    """A specification plus the hidden timeline that makes it consistent.

    ``timeline[(relation, eid)]`` lists the block's tids oldest first;
    ``payload[tid]`` is the tuple's ``a0``.  :meth:`build` turns the rows
    into a fresh :class:`Specification`; the mutation helpers return the
    arguments of a session mutator and record the mutation in the timeline,
    so the next mutation stays consistent with everything applied before
    it.  ``dense_relations`` relations get every timeline pair as an initial
    order, so their current instance is deterministic.
    """

    def __init__(
        self,
        rng: random.Random,
        name: str,
        relations: int,
        entities: int,
        block: int,
        order_density: float,
        tie_rate: float,
        dense_relations: int = 0,
    ) -> None:
        self.rng = rng
        self.name = name
        self.tie_rate = tie_rate
        self.timeline: Dict[BlockKey, List[Hashable]] = {}
        self.payload: Dict[Hashable, int] = {}
        self.fresh = 0
        #: relations that already carry the ``a0 ⇒ a2`` rule
        self.denials: set = set()
        self.schemas = [RelationSchema(f"R{index}", ATTRIBUTES) for index in range(relations)]
        #: relation -> [(tid, values)] and [(attribute, lower, upper)]
        self.rows: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
        self.orders: Dict[str, List[Tuple[str, str, str]]] = {}
        for index, schema in enumerate(self.schemas):
            rows = self.rows[schema.name] = []
            orders = self.orders[schema.name] = []
            density = 1.0 if index < dense_relations else order_density
            for entity in range(entities):
                eid = f"e{entity}"
                tids = []
                a0 = rng.randrange(VALUE_DOMAIN)
                for position in range(block):
                    if position and rng.random() >= tie_rate:
                        a0 += 1
                    tid = f"{name}_{schema.name}_{eid}_{position}"
                    rows.append((tid, self._values(schema, eid, a0)))
                    self.payload[tid] = a0
                    tids.append(tid)
                self.timeline[(schema.name, eid)] = tids
                for attribute in ATTRIBUTES:
                    for i in range(block):
                        for j in range(i + 1, block):
                            if rng.random() < density:
                                orders.append((attribute, tids[i], tids[j]))

    def build(self) -> Specification:
        """A fresh :class:`Specification` from the generated rows."""
        instances: Dict[str, TemporalInstance] = {}
        constraints: Dict[str, List[DenialConstraint]] = {}
        for schema in self.schemas:
            instance = TemporalInstance(schema)
            for tid, values in self.rows[schema.name]:
                instance.add(RelationTuple(schema, tid, values))
            for attribute, lower, upper in self.orders[schema.name]:
                instance.add_order(attribute, lower, upper)
            instances[schema.name] = instance
            constraints[schema.name] = [monotone_rule(schema), correlation_rule(schema, "a1")]
        return Specification(instances, constraints)

    def fork(self, rng: random.Random) -> "TimelineSpec":
        """A copy whose timeline advances independently (the rows, which
        mutations never touch, are shared)."""
        twin = copy.copy(self)
        twin.rng = rng
        twin.timeline = {key: list(tids) for key, tids in self.timeline.items()}
        twin.payload = dict(self.payload)
        twin.denials = set(self.denials)
        return twin

    def _values(self, schema: RelationSchema, eid: Hashable, a0: int) -> Dict[str, object]:
        return {
            schema.eid: eid,
            "a0": a0,
            "a1": self.rng.randrange(VALUE_DOMAIN),
            "a2": self.rng.randrange(VALUE_DOMAIN),
        }

    def blocks(self) -> List[BlockKey]:
        return sorted(self.timeline)

    # ------------------------------------------------------------------ #
    # Asks
    # ------------------------------------------------------------------ #
    def cop_order(
        self, reverse: bool, pairs: int = 1
    ) -> Tuple[str, Dict[str, List[Tuple[Hashable, Hashable]]]]:
        """A COP order of *pairs* pairs over the blocks of one relation, in
        timeline orientation except the first when *reverse*.  An order with
        a reversed pair is never certain, because the timeline is a
        consistent completion that orders that pair the other way."""
        relation = self.rng.choice(self.schemas).name
        blocks = [key for key in self.blocks() if key[0] == relation]
        order: Dict[str, List[Tuple[Hashable, Hashable]]] = {}
        for index in range(pairs):
            tids = self.timeline[self.rng.choice(blocks)]
            i, j = sorted(self.rng.sample(range(len(tids)), 2))
            pair = (tids[j], tids[i]) if reverse and index == 0 else (tids[i], tids[j])
            order.setdefault(self.rng.choice(ATTRIBUTES), []).append(pair)
        return relation, order

    def certain_order(self) -> Tuple[str, Dict[str, List[Tuple[Hashable, Hashable]]]]:
        """A COP order of one pair that is certain by construction: two
        tuples of one block with strictly increasing ``a0``, on ``a0`` or
        ``a1``.  The rule "larger ``a0`` is more current" orders the pair on
        ``a0`` in every consistent completion, and the correlation rule
        carries that order over to ``a1``."""
        strict = [
            (key, i, j)
            for key in self.blocks()
            for i, lower in enumerate(self.timeline[key])
            for j, upper in enumerate(self.timeline[key])
            if self.payload[lower] < self.payload[upper]
        ]
        (relation, eid), i, j = self.rng.choice(strict)
        tids = self.timeline[(relation, eid)]
        return relation, {self.rng.choice(("a0", "a1")): [(tids[i], tids[j])]}

    def query_pool(self, double: bool) -> List[SPQuery]:
        """Every SP query that projects one attribute and selects another
        (and, when *double*, both others) on values the generator can
        produce, in a seeded order."""
        top = max(self.payload.values()) + 1
        pool = []
        for schema in self.schemas:
            for projected in ATTRIBUTES:
                for selected in ATTRIBUTES:
                    if selected == projected:
                        continue
                    for value in self._domain(selected, top):
                        pool.append(self._query(schema, projected, {selected: value}))
            for projected in ATTRIBUTES if double else ():
                first, second = [a for a in ATTRIBUTES if a != projected]
                for one in self._domain(first, top):
                    for two in self._domain(second, top):
                        pool.append(self._query(schema, projected, {first: one, second: two}))
        self.rng.shuffle(pool)
        return pool

    def _domain(self, attribute: str, top: int) -> range:
        return range(top) if attribute == "a0" else range(VALUE_DOMAIN)

    def _query(self, schema: RelationSchema, projected: str, selection: Dict[str, int]) -> SPQuery:
        label = "_".join(f"{a}{v}" for a, v in sorted(selection.items()))
        return SPQuery(
            schema.name, schema, [projected], eq_const=selection,
            name=f"{self.name}_{schema.name}_{projected}_{label}",
        )

    # ------------------------------------------------------------------ #
    # Mutations (each returns the mutator name and its arguments)
    # ------------------------------------------------------------------ #
    def new_mutation(self) -> Tuple[str, tuple]:
        """One write drawn from :data:`WRITE_MIX`.  The timeline is known to
        satisfy one further rule per relation, so once every relation has
        it the draw is between tuples and orders alone."""
        ops = [op for op in WRITE_MIX if op != "add_denial" or len(self.denials) < len(self.schemas)]
        op = self.rng.choices(ops, [WRITE_MIX[op] for op in ops])[0]
        return getattr(self, op.replace("add_", "new_"))()

    def new_tuple(self) -> Tuple[str, tuple]:
        """``add_tuple``: a tuple at the end of a block's timeline — strictly
        more current in ``a0`` unless it ties with the current maximum."""
        relation, eid = self.rng.choice(self.blocks())
        tids = self.timeline[(relation, eid)]
        a0 = self.payload[tids[-1]]
        if self.rng.random() >= self.tie_rate:
            a0 += 1
        schema = self._schema(relation)
        self.fresh += 1
        tid = f"{self.name}_{relation}_{eid}_n{self.fresh}"
        tids.append(tid)
        self.payload[tid] = a0
        return "add_tuple", (relation, tid, self._values(schema, eid, a0))

    def new_order(self) -> Tuple[str, tuple]:
        """``add_order``: one timeline pair of one block."""
        relation, eid = self.rng.choice(self.blocks())
        tids = self.timeline[(relation, eid)]
        i, j = sorted(self.rng.sample(range(len(tids)), 2))
        return "add_order", (relation, self.rng.choice(ATTRIBUTES), tids[i], tids[j])

    def new_denial(self) -> Tuple[str, tuple]:
        """``add_denial``: a correlation rule ``a0 ⇒ a2`` the timeline
        satisfies, once per relation."""
        schema = self.rng.choice([s for s in self.schemas if s.name not in self.denials])
        self.denials.add(schema.name)
        return "add_denial", (schema.name, correlation_rule(schema, "a2"))

    def _schema(self, relation: str) -> RelationSchema:
        return next(schema for schema in self.schemas if schema.name == relation)


def apply_mutation(specification: Specification, op: str, args: tuple) -> None:
    """Apply a mutator's arguments straight to a :class:`Specification`,
    bypassing every session: the cold-rebuild side of the correctness
    checks."""
    if op == "add_tuple":
        relation, tid, values = args
        instance = specification.instance(relation)
        instance.add(RelationTuple(instance.schema, tid, values))
    elif op == "add_order":
        relation, attribute, lower, upper = args
        specification.instance(relation).add_order(attribute, lower, upper)
    elif op == "add_denial":
        relation, constraint = args
        specification.add_constraint(relation, constraint)
    else:
        raise ValueError(f"unknown mutation {op!r}")
