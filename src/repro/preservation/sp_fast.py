"""PTIME currency-preservation checks for SP queries without denial
constraints (Theorem 6.4).

Applicability requires an *unchained* specification on top of the
constraint-free condition: the single-import probes below enumerate base
candidate imports only, so a chained specification — where an import creates
a *derived* candidate — can hide an answer change from them
(:func:`~repro.preservation.extensions.has_chained_imports` gates this
exactly; chained specifications go to the SAT search).

Without denial constraints the currency orders of distinct entities and
distinct attributes interact only through copy functions, and copy functions
relate same-entity tuples only.  Two consequences drive the algorithm:

* the effect of an extension decomposes per target entity — imports for
  different entities never constrain each other — so the reachable per-entity
  current tuples ("contributions") are exactly those reachable by importing
  tuples for that entity alone;
* whether an entity's contribution to the query answer can change is decided
  by single-import probes: adding further imports only adds order constraints,
  so any value change (or loss of a unique current value) witnessed by some
  extension is already witnessed by importing one suitable source tuple.

The check then mirrors conditions (C1)/(C2) of the paper's proof:

* (C1) an answer tuple ``r`` can be *removed* iff every entity currently
  contributing ``r`` has a probe that changes its contribution away from ``r``
  (the per-entity probes combine into one extension);
* (C2) a new answer tuple can *appear* iff some entity has a probe whose new
  contribution is a tuple outside the current certain answers.

Both conditions are decided with polynomially many chase/poss computations.
The exhaustive CPP solver is used as ground truth for this module in the test
suite.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.specification import Specification
from repro.exceptions import QueryError, SpecificationError
from repro.preservation.extensions import (
    CandidateImport,
    apply_imports,
    candidate_imports,
    has_chained_imports,
)
from repro.query.ast import SPQuery
from repro.reasoning.chase import chase_certain_orders
from repro.reasoning.sp import UnknownValue, sp_certain_answers

__all__ = ["sp_is_currency_preserving", "sp_has_bounded_extension"]

Contribution = Optional[Tuple[Any, ...]]  # the entity's answer tuple, or None


def _check_applicable(
    query: SPQuery, specification: Specification, match_entities_by_eid: bool
) -> None:
    if not isinstance(query, SPQuery):
        raise QueryError("the PTIME CPP/BCP algorithms require an SPQuery")
    if specification.has_denial_constraints():
        raise SpecificationError(
            "the PTIME CPP/BCP algorithms require a specification without denial constraints"
        )
    if has_chained_imports(specification, match_entities_by_eid=match_entities_by_eid):
        # the single-import probes below only see base candidate imports; a
        # chained specification can hide an answer change behind a *derived*
        # import (one whose source tuple is itself imported), so the
        # algorithm is unsound for that regime — reject instead of silently
        # answering the wrong question.  The check is exact (closure-based):
        # a chaining copy graph with no actual derived candidate stays in.
        raise SpecificationError(
            "the PTIME CPP/BCP algorithms require an unchained specification "
            "(no derived candidate imports); use the SAT search for chained ones"
        )


def _entity_contribution(
    query: SPQuery, specification: Specification, eid: Hashable
) -> Contribution:
    """The answer tuple contributed by entity *eid* in poss(S), or None when
    the entity contributes nothing (selection fails or a relevant attribute has
    several possible current values)."""
    chase = chase_certain_orders(specification)
    if not chase.consistent:
        return None
    instance = specification.instance(query.relation)
    if not instance.has_entity(eid):
        return None
    schema = instance.schema
    block = instance.entity_tids(eid)
    values: Dict[str, Any] = {}
    for attribute in schema.attributes:
        order = chase.order_for(query.relation, attribute)
        sinks = order.maxima(block)
        sink_values = {instance.tuple_by_tid(tid)[attribute] for tid in sinks}
        values[attribute] = (
            next(iter(sink_values)) if len(sink_values) == 1 else UnknownValue(eid, attribute)
        )
    # selection
    for attribute, constant in query.eq_const.items():
        if values[attribute] != constant:
            return None
    for left, right in query.eq_attr:
        if values[left] != values[right]:
            return None
    row = tuple(values[attribute] for attribute in query.projection)
    if any(isinstance(value, UnknownValue) for value in row):
        return None
    return row


def _probe_contributions(
    query: SPQuery,
    specification: Specification,
    eid: Hashable,
    probes: List[CandidateImport],
) -> List[Contribution]:
    """Contributions of entity *eid* under every single-import probe that is
    consistent, including the no-import baseline."""
    results: List[Contribution] = []
    for probe in probes:
        extension = apply_imports(specification, [probe])
        if not chase_certain_orders(extension.specification).consistent:
            continue
        results.append(_entity_contribution(query, extension.specification, eid))
    return results


def sp_is_currency_preserving(
    query: SPQuery,
    specification: Specification,
    match_entities_by_eid: bool = True,
    _applicability_checked: bool = False,
) -> bool:
    """Decide CPP for an SP query on a constraint-free specification (PTIME).

    ``_applicability_checked`` is internal: callers that already verified the
    SP / constraint-free / unchained conditions (the ``"auto"`` dispatch in
    :mod:`repro.preservation.cpp`, and the bounded search below for its
    extension specs — an extension of an applicable specification stays
    applicable, since applying imports can only remove candidates) skip the
    re-check, which would otherwise redo a full closure round per call.
    """
    if not _applicability_checked:
        _check_applicable(query, specification, match_entities_by_eid)
    chase = chase_certain_orders(specification)
    if not chase.consistent:
        return False  # Mod(S) empty: not currency preserving by definition

    base_answers = sp_certain_answers(query, specification)
    assert base_answers is not None  # consistent, checked above

    instance = specification.instance(query.relation)
    all_candidates = candidate_imports(
        specification, match_entities_by_eid=match_entities_by_eid
    )
    # only imports into the query relation can affect an SP query
    relevant_names = {
        cf.name for cf in specification.copy_functions if cf.target == query.relation
    }
    candidates = [c for c in all_candidates if c.copy_function in relevant_names]

    contributions: Dict[Hashable, Contribution] = {
        eid: _entity_contribution(query, specification, eid) for eid in instance.entities()
    }

    for eid in instance.entities():
        probes = [c for c in candidates if c.target_eid == eid]
        if not probes:
            continue
        probe_results = _probe_contributions(query, specification, eid, probes)
        base = contributions[eid]
        for new_contribution in probe_results:
            if new_contribution == base:
                continue
            # (C2): a brand-new answer tuple appears
            if new_contribution is not None and new_contribution not in base_answers:
                return False
            # (C1): the entity stops contributing its old tuple; the answer
            # tuple disappears if no other entity still contributes it and no
            # probe is needed for those entities (they are left untouched)
            if base is not None and base in base_answers:
                others = [
                    other
                    for other, contribution in contributions.items()
                    if other != eid and contribution == base
                ]
                if not others:
                    return False
                # with several contributors, the tuple disappears only if every
                # contributor can be switched away from it; check each one
                if all(
                    any(
                        result != base
                        for result in _probe_contributions(
                            query,
                            specification,
                            other,
                            [c for c in candidates if c.target_eid == other],
                        )
                    )
                    for other in others
                ):
                    return False
    return True


def sp_has_bounded_extension(
    query: SPQuery,
    specification: Specification,
    k: int,
    match_entities_by_eid: bool = True,
) -> bool:
    """Decide BCP for an SP query on a constraint-free specification with a
    fixed bound *k* (PTIME for fixed k, Theorem 6.4).

    The search enumerates extensions of at most *k* imports restricted to the
    query relation's copy functions (imports elsewhere cannot affect an SP
    query) and checks each with the PTIME CPP test.
    """
    _check_applicable(query, specification, match_entities_by_eid)
    if k < 0:
        raise SpecificationError("the bound k must be non-negative")
    if not chase_certain_orders(specification).consistent:
        return False
    if sp_is_currency_preserving(
        query, specification, match_entities_by_eid=match_entities_by_eid,
        _applicability_checked=True,
    ):
        return True
    relevant_names = {
        cf.name for cf in specification.copy_functions if cf.target == query.relation
    }
    from itertools import combinations

    candidates = [
        c
        for c in candidate_imports(specification, match_entities_by_eid=match_entities_by_eid)
        if c.copy_function in relevant_names
    ]
    for size in range(1, min(k, len(candidates)) + 1):
        for subset in combinations(candidates, size):
            extension = apply_imports(specification, subset)
            if not chase_certain_orders(extension.specification).consistent:
                continue
            if sp_is_currency_preserving(
                query, extension.specification,
                match_entities_by_eid=match_entities_by_eid,
                _applicability_checked=True,
            ):
                return True
    return False
