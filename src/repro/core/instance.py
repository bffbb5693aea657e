"""Normal and temporal instances.

A *normal instance* is a plain finite relation instance; a *temporal instance*
``D_t = (D, ≺_A1, ..., ≺_An)`` additionally carries one partial currency order
per ordinary attribute, relating only tuples of the same entity (Section 2 of
the paper).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.partial_order import PartialOrder
from repro.core.schema import RelationSchema
from repro.core.tuples import RelationTuple
from repro.exceptions import PartialOrderError, SchemaError, TupleError

__all__ = ["NormalInstance", "TemporalInstance"]


class NormalInstance:
    """A finite instance of a relation schema, with set semantics on values.

    Current instances ``LST(D^c)`` are normal instances (the paper strips all
    currency orders from them); queries are evaluated over normal instances.

    Index lifecycle
    ---------------
    The instance keeps two kinds of index.

    * The **entity-block index** ``_blocks`` (``eid -> [tuples]``, in
      insertion order) is maintained *eagerly* by :meth:`add`, next to
      ``_by_tid``.  :meth:`entities`, :meth:`entity_block`,
      :meth:`has_entity` and ``entity_tids`` read it, so grouping tuples into
      the blocks ``I_e`` costs O(|I_e|) per block instead of a scan over the
      whole instance — encoding a specification is then linear in the number
      of entities for a fixed block size.
    * The **per-column hash indexes** for the query evaluator
      (:mod:`repro.query.evaluator`) are built lazily on the first
      :meth:`index_on` / :meth:`rows` call and invalidated whenever a tuple is
      added, so instances that are never queried pay nothing and instances
      that are queried repeatedly (the candidate-enumeration loops of the
      CCQA and preservation layers) amortise one index build over many
      probes.
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[RelationTuple] = ()) -> None:
        self._schema = schema
        self._tuples: List[RelationTuple] = []
        self._by_tid: Dict[Hashable, RelationTuple] = {}
        self._blocks: Dict[Any, List[RelationTuple]] = {}
        self._rows: Optional[Tuple[Tuple[Any, ...], ...]] = None
        self._value_set: Optional[FrozenSet[Tuple[Any, ...]]] = None
        self._indexes: Dict[int, Dict[Any, Tuple[Tuple[Any, ...], ...]]] = {}
        for t in tuples:
            self.add(t)

    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> RelationSchema:
        """Schema of this instance."""
        return self._schema

    def add(self, tup: RelationTuple) -> None:
        """Add a tuple (tids must be unique within the instance)."""
        if tup.schema.name != self._schema.name:
            raise TupleError(
                f"tuple of schema {tup.schema.name!r} added to instance of {self._schema.name!r}"
            )
        if tup.tid in self._by_tid:
            raise TupleError(f"duplicate tuple id {tup.tid!r} in instance {self._schema.name!r}")
        # the block is looked up first, so an unhashable entity id fails
        # before any carrier is written
        block = self._blocks.setdefault(tup.eid, [])
        self._tuples.append(tup)
        self._by_tid[tup.tid] = tup
        block.append(tup)
        self._invalidate_row_caches()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # instances pickled before the entity-block index existed (snapshot
        # files, router resume logs) carry only the tuple list
        if "_blocks" not in state:
            self._blocks = {}
            for tup in self._tuples:
                self._blocks.setdefault(tup.eid, []).append(tup)
            self._invalidate_row_caches()

    def _invalidate_row_caches(self) -> None:
        """Reset every derived view of the tuple carrier.

        Any method that writes ``_tuples``/``_by_tid``/``_blocks`` must call
        this in the same body (enforced statically by reprolint rule R5); the
        lazy rows, value-set and per-column indexes are only correct because
        no write path skips it.
        """
        self._rows = None
        self._value_set = None
        self._indexes.clear()

    def tuples(self) -> List[RelationTuple]:
        """All tuples, in insertion order."""
        return list(self._tuples)

    def tuple_by_tid(self, tid: Hashable) -> RelationTuple:
        """Look a tuple up by its tuple id."""
        try:
            return self._by_tid[tid]
        except KeyError:
            raise TupleError(f"no tuple with id {tid!r} in {self._schema.name!r}") from None

    def has_tid(self, tid: Hashable) -> bool:
        """Whether a tuple with id *tid* exists."""
        return tid in self._by_tid

    def tids(self) -> List[Hashable]:
        """All tuple ids, in insertion order."""
        return [t.tid for t in self._tuples]

    def entities(self) -> List[Any]:
        """Distinct entity ids, in first-appearance order."""
        return list(self._blocks)

    def has_entity(self, eid: Any) -> bool:
        """Whether some tuple pertains to the entity *eid*."""
        return eid in self._blocks

    def entity_block(self, eid: Any) -> List[RelationTuple]:
        """Tuples pertaining to the entity *eid* (the set ``I_e``), in
        insertion order."""
        return list(self._blocks.get(eid, ()))

    def value_set(self) -> FrozenSet[Tuple[Any, ...]]:
        """The instance as a set of value tuples (EID first) — set semantics."""
        if self._value_set is None:
            self._value_set = frozenset(self.rows())
        return self._value_set

    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        """Distinct value tuples (EID first) in first-appearance order.

        Cached; the cache (and every column index) is invalidated by
        :meth:`add`.
        """
        if self._rows is None:
            seen: Set[Tuple[Any, ...]] = set()
            out: List[Tuple[Any, ...]] = []
            for t in self._tuples:
                row = t.value_tuple()
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            self._rows = tuple(out)
        return self._rows

    def index_on(self, column: int) -> Mapping[Any, Tuple[Tuple[Any, ...], ...]]:
        """A hash index on *column* (0 = EID, then ordinary attributes).

        Maps each value occurring at that position to the tuple of distinct
        rows carrying it.  Built lazily and cached until the next :meth:`add`.
        """
        index = self._indexes.get(column)
        if index is None:
            buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
            for row in self.rows():
                buckets.setdefault(row[column], []).append(row)
            index = {value: tuple(rows) for value, rows in buckets.items()}
            self._indexes[column] = index
        return index

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[RelationTuple]:
        return iter(self._tuples)

    def __contains__(self, tup: RelationTuple) -> bool:
        return tup.tid in self._by_tid

    def __eq__(self, other: object) -> bool:
        """Equality by schema name and *set of value tuples* (normal instances
        are compared as relations, not by tuple ids)."""
        if not isinstance(other, NormalInstance):
            return NotImplemented
        return self._schema.name == other._schema.name and self.value_set() == other.value_set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NormalInstance({self._schema.name}, {len(self._tuples)} tuples)"


class TemporalInstance(NormalInstance):
    """A normal instance equipped with one partial currency order per attribute.

    The orders are indexed by ordinary attribute name and contain pairs of
    *tuple ids*.  The class enforces the paper's well-formedness condition
    that ``t1 ≺_A t2`` implies ``t1[EID] = t2[EID]``.
    """

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[RelationTuple] = (),
        orders: Optional[Mapping[str, PartialOrder]] = None,
    ) -> None:
        super().__init__(schema, tuples)
        self._orders: Dict[str, PartialOrder] = {a: PartialOrder() for a in schema.attributes}
        # register constructor-passed tuples in the order carriers, exactly as
        # a post-construction add() does — otherwise an instance rebuilt from
        # its tuple list (copy(), apply_imports) would compare structurally
        # unequal to one grown tuple by tuple, despite inducing identical
        # encodings
        for tup in self._tuples:
            for order in self._orders.values():
                order.add_element(tup.tid)
        if orders:
            for attribute, order in orders.items():
                for lower, upper in order.pairs():
                    self.add_order(attribute, lower, upper)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Mapping[Hashable, Mapping[str, Any]] | Iterable[Tuple[Hashable, Mapping[str, Any]]],
        orders: Optional[Mapping[str, Iterable[Tuple[Hashable, Hashable]]]] = None,
    ) -> "TemporalInstance":
        """Build a temporal instance from ``tid -> {attribute: value}`` rows.

        *orders* maps attribute names to iterables of ``(lower_tid, upper_tid)``
        pairs.
        """
        items = rows.items() if isinstance(rows, Mapping) else rows
        instance = cls(schema)
        for tid, values in items:
            instance.add(RelationTuple(schema, tid, values))
        if orders:
            for attribute, pairs in orders.items():
                for lower, upper in pairs:
                    instance.add_order(attribute, lower, upper)
        return instance

    def add(self, tup: RelationTuple) -> None:
        super().add(tup)
        # keep carrier sets of existing orders in sync
        if hasattr(self, "_orders"):
            for order in self._orders.values():
                order.add_element(tup.tid)

    def add_order(self, attribute: str, lower_tid: Hashable, upper_tid: Hashable) -> bool:
        """Record ``lower ≺_attribute upper`` between two existing tuples."""
        self._schema.check_attributes([attribute])
        lower = self.tuple_by_tid(lower_tid)
        upper = self.tuple_by_tid(upper_tid)
        if lower.eid != upper.eid:
            raise PartialOrderError(
                f"currency order on {attribute!r} relates tuples of distinct entities "
                f"{lower.eid!r} and {upper.eid!r}"
            )
        return self._orders[attribute].add(lower_tid, upper_tid)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def order(self, attribute: str) -> PartialOrder:
        """The currency order ``≺_attribute`` (over tuple ids)."""
        self._schema.check_attributes([attribute])
        return self._orders[attribute]

    def orders(self) -> Dict[str, PartialOrder]:
        """All currency orders, keyed by attribute."""
        return dict(self._orders)

    def precedes(self, attribute: str, lower_tid: Hashable, upper_tid: Hashable) -> bool:
        """Whether ``lower ≺_attribute upper`` is recorded."""
        return self.order(attribute).precedes(lower_tid, upper_tid)

    def normal_instance(self) -> NormalInstance:
        """Drop the currency orders (the embedded normal instance)."""
        return NormalInstance(self._schema, self._tuples)

    def copy(self) -> "TemporalInstance":
        """A deep copy (tuples are shared; orders are copied)."""
        clone = TemporalInstance(self._schema, self._tuples)
        for attribute, order in self._orders.items():
            for lower, upper in order.pairs():
                clone.add_order(attribute, lower, upper)
        return clone

    # ------------------------------------------------------------------ #
    # Currency-specific helpers
    # ------------------------------------------------------------------ #
    def entity_tids(self, eid: Any) -> List[Hashable]:
        """Tuple ids of the entity block ``I_e``."""
        return [t.tid for t in self.entity_block(eid)]

    def structurally_equal(self, other: "TemporalInstance") -> bool:
        """Same schema, same tuples (ids *and* values, in insertion order) and
        same currency orders.

        Unlike ``__eq__`` (the value-set semantics of the embedded normal
        instance), this distinguishes tuples by tuple id — the granularity the
        currency orders and the preservation encodings work at — so a rebuilt
        instance compares equal to the original exactly when every encoding
        derived from it would be identical.
        """
        if not isinstance(other, TemporalInstance):
            return False
        return (
            self._schema == other.schema
            and [(t.tid, t.value_tuple()) for t in self._tuples]
            == [(t.tid, t.value_tuple()) for t in other._tuples]
            and self._orders == other._orders
        )

    def contained_in(self, other: "TemporalInstance") -> bool:
        """Order containment ``self ⊆ other`` (Section 3): same tuples assumed,
        every currency pair of *self* must appear in *other*."""
        if set(self._schema.attributes) != set(other.schema.attributes):
            raise SchemaError("contained_in() requires instances over the same attributes")
        return all(
            other.order(attribute).contains(self._orders[attribute])
            for attribute in self._schema.attributes
        )

    def is_completion_of(self, base: "TemporalInstance") -> bool:
        """Whether this instance is a *completion* of *base*: it extends every
        order of *base* and is total exactly on each entity block."""
        if not base.contained_in(self):
            return False
        return self.is_complete()

    def is_complete(self) -> bool:
        """Whether every attribute order is total on every entity block and
        never relates tuples of distinct entities."""
        blocks = [self.entity_tids(eid) for eid in self.entities()]
        for attribute in self._schema.attributes:
            order = self._orders[attribute]
            for block in blocks:
                if not order.is_total_on(block):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = sum(o.pair_count() for o in self._orders.values())
        return (
            f"TemporalInstance({self._schema.name}, {len(self._tuples)} tuples, "
            f"{pairs} order pairs)"
        )
