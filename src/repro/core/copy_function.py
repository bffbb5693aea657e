"""Copy functions between data sources (Section 2 of the paper).

A copy function ``ρ`` of signature ``R1[~A] ⇐ R2[~B]`` is a partial mapping
from the tuples of a *target* temporal instance (of schema ``R1``) to tuples
of a *source* instance (of schema ``R2``) such that

* **copying condition** — ``ρ(t) = s`` implies ``t[Ai] = s[Bi]`` for every
  position ``i`` of the signature (correlated attributes are copied together);
* **≺-compatibility** — currency orders on the copied attributes are inherited:
  if ``ρ(t1)=s1``, ``ρ(t2)=s2``, the ``t``'s share an EID, the ``s``'s share an
  EID and ``s1 ≺_Bi s2`` then ``t1 ≺_Ai t2``.

The class stores target/source by *instance name* so a copy function can be
re-validated against extensions of a specification; helper methods take the
concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

from repro.core.instance import TemporalInstance
from repro.core.schema import RelationSchema
from repro.exceptions import CopyFunctionError

__all__ = ["CopySignature", "CopyFunction"]


@dataclass(frozen=True)
class CopySignature:
    """The signature ``R1[~A] ⇐ R2[~B]`` of a copy function."""

    target_schema: RelationSchema
    target_attributes: Tuple[str, ...]
    source_schema: RelationSchema
    source_attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.target_attributes) != len(self.source_attributes):
            raise CopyFunctionError(
                "copy signature must pair equally many target and source attributes"
            )
        if not self.target_attributes:
            raise CopyFunctionError("copy signature must contain at least one attribute pair")
        self.target_schema.check_attributes(self.target_attributes)
        self.source_schema.check_attributes(self.source_attributes)

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """Iterate over ``(target_attribute, source_attribute)`` pairs."""
        return iter(zip(self.target_attributes, self.source_attributes))

    def covers_all_target_attributes(self) -> bool:
        """Whether the signature covers every non-EID attribute of the target.

        Only such copy functions may be *extended* by importing whole new
        tuples (Section 4: "only copy functions that cover all attributes but
        EID of Ri can be extended").
        """
        return set(self.target_attributes) == set(self.target_schema.attributes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.target_schema.name}[{', '.join(self.target_attributes)}] <= "
            f"{self.source_schema.name}[{', '.join(self.source_attributes)}]"
        )


class CopyFunction:
    """A copy function ``ρ`` from a target instance to a source instance.

    Parameters
    ----------
    name:
        Identifier of the copy function within a specification.
    signature:
        The attribute correspondence.
    target, source:
        Names of the target / source temporal instances in the specification.
    mapping:
        Partial mapping ``target tuple id -> source tuple id``.
    """

    def __init__(
        self,
        name: str,
        signature: CopySignature,
        target: str,
        source: str,
        mapping: Optional[Mapping[Hashable, Hashable]] = None,
    ) -> None:
        self.name = name
        self.signature = signature
        self.target = target
        self.source = source
        self.mapping: Dict[Hashable, Hashable] = dict(mapping or {})

    # ------------------------------------------------------------------ #
    # Basic operations
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, target_tid: Hashable) -> Optional[Hashable]:
        """``ρ(t)``: the source tuple id that *target_tid* was copied from."""
        return self.mapping.get(target_tid)

    def is_defined_on(self, target_tid: Hashable) -> bool:
        """Whether ``ρ`` is defined on the target tuple id."""
        return target_tid in self.mapping

    def extended_with(self, additions: Mapping[Hashable, Hashable]) -> "CopyFunction":
        """A new copy function with *additions* merged in.

        Existing entries may not be redefined (extensions must agree with ρ on
        its domain, Section 4).
        """
        merged = dict(self.mapping)
        for target_tid, source_tid in additions.items():
            if target_tid in merged and merged[target_tid] != source_tid:
                raise CopyFunctionError(
                    f"extension of {self.name!r} redefines ρ({target_tid!r})"
                )
            merged[target_tid] = source_tid
        return CopyFunction(self.name, self.signature, self.target, self.source, merged)

    # ------------------------------------------------------------------ #
    # Validation against concrete instances
    # ------------------------------------------------------------------ #
    def check_copying_condition(
        self, target_instance: TemporalInstance, source_instance: TemporalInstance
    ) -> None:
        """Raise :class:`CopyFunctionError` unless every mapped pair agrees on
        the signature attributes (the copying condition)."""
        for target_tid, source_tid in self.mapping.items():
            target_tuple = target_instance.tuple_by_tid(target_tid)
            source_tuple = source_instance.tuple_by_tid(source_tid)
            for target_attr, source_attr in self.signature.pairs():
                if target_tuple[target_attr] != source_tuple[source_attr]:
                    raise CopyFunctionError(
                        f"copy function {self.name!r} violates the copying condition on "
                        f"ρ({target_tid!r}) = {source_tid!r}: "
                        f"{target_attr}={target_tuple[target_attr]!r} vs "
                        f"{source_attr}={source_tuple[source_attr]!r}"
                    )

    def satisfies_copying_condition(
        self, target_instance: TemporalInstance, source_instance: TemporalInstance
    ) -> bool:
        """Boolean form of :meth:`check_copying_condition`."""
        try:
            self.check_copying_condition(target_instance, source_instance)
        except CopyFunctionError:
            return False
        return True

    def compatibility_implications(
        self, target_instance: TemporalInstance, source_instance: TemporalInstance
    ) -> Iterator[Tuple[Tuple[str, Hashable, Hashable], Tuple[str, Hashable, Hashable]]]:
        """≺-compatibility as implications "source pair ⟹ target pair".

        Yields ``((source_attr, s1, s2), (target_attr, t1, t2))`` for every
        pair of mapped target tuples sharing an EID whose source tuples are
        *distinct* and share an EID, and every attribute pair of the
        signature.  A completion is ≺-compatible iff it satisfies all these
        implications.  Pairs of target tuples copied from the same source
        tuple are skipped: ``s ≺ s`` never holds, so their implication is
        vacuous — and the chase's back-transfer (which relies on the
        contrapositive plus totality) is only sound for distinct sources.
        """
        # group the mapped target tuples by entity once, so each tuple is
        # paired only with its own block (mapping order kept within a group)
        mapped: List[Hashable] = list(self.mapping)
        eids = [target_instance.tuple_by_tid(tid).eid for tid in mapped]
        by_entity: Dict[Any, List[Hashable]] = {}
        for tid, eid in zip(mapped, eids):
            by_entity.setdefault(eid, []).append(tid)
        for t1, eid in zip(mapped, eids):
            for t2 in by_entity[eid]:
                if t1 == t2:
                    continue
                s1, s2 = self.mapping[t1], self.mapping[t2]
                if s1 == s2:
                    continue
                source1 = source_instance.tuple_by_tid(s1)
                source2 = source_instance.tuple_by_tid(s2)
                if source1.eid != source2.eid:
                    continue
                for target_attr, source_attr in self.signature.pairs():
                    yield ((source_attr, s1, s2), (target_attr, t1, t2))

    def is_compatible(
        self, target_instance: TemporalInstance, source_instance: TemporalInstance
    ) -> bool:
        """≺-compatibility w.r.t. the currency orders *currently present* in the
        two instances (used on completions, Definition in Section 2)."""
        for (src_attr, s1, s2), (tgt_attr, t1, t2) in self.compatibility_implications(
            target_instance, source_instance
        ):
            if source_instance.precedes(src_attr, s1, s2) and not target_instance.precedes(
                tgt_attr, t1, t2
            ):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        """Structural equality: name, signature, endpoints and mapping."""
        if not isinstance(other, CopyFunction):
            return NotImplemented
        return (
            self.name == other.name
            and self.signature == other.signature
            and self.target == other.target
            and self.source == other.source
            and self.mapping == other.mapping
        )

    # copy functions are mutable (the mapping dict), so hashing stays by
    # identity; equal-but-distinct objects are not conflated in sets/dicts
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CopyFunction({self.name!r}: {self.signature}, "
            f"{self.target!r} <= {self.source!r}, {len(self.mapping)} mapped)"
        )
