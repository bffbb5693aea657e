"""Extensions of copy functions (Section 4 of the paper).

An *extension* of a copy function ``ρ : Ri[~A] ⇐ Rj[~B]`` imports additional
tuples from the source into the target:

* the target instance grows by new tuples whose signature-attribute values are
  copied verbatim from some source tuple (the signature must cover every
  non-EID attribute of the target, so the new tuple is fully determined up to
  its EID);
* no new entities are introduced (``π_EID(D^e) = π_EID(D)``);
* the extended copy function agrees with ρ wherever ρ was defined and maps
  every new tuple to the source tuple it was copied from.

``Ext(ρ)`` — all extensions of a collection of copy functions — is realised
here over the *closure* of candidate imports.  A candidate import is a
(copy function, source tuple, target entity) triple; when copy functions
chain (the target of one extendable copy function is the source of another),
applying an import can create **derived** candidates that do not exist in the
base specification: the freshly imported tuple itself becomes importable
further down the chain.  :func:`candidate_closure` iterates
:func:`candidate_imports` over :func:`apply_imports` to a fixpoint and
records, for every derived candidate, the *prerequisite* import that creates
its source tuple.  An element of ``Ext(ρ)`` is then exactly a non-empty
**downward-closed** subset of the closure (every derived import accompanied
by its prerequisite chain).

By default a source tuple is imported into the target entity carrying the
same EID value (the workloads keep entity ids aligned across sources); set
``match_entities_by_eid=False`` to consider every target entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.copy_function import CopyFunction
from repro.core.instance import TemporalInstance
from repro.core.specification import Specification
from repro.core.tuples import RelationTuple
from repro.exceptions import SpecificationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cpp imports us)
    from repro.preservation.cpp import AnswerDifferenceCertificate

__all__ = [
    "CandidateImport",
    "CandidateClosure",
    "SpecificationExtension",
    "candidate_imports",
    "candidate_closure",
    "could_chain",
    "apply_imports",
    "enumerate_extensions",
    "enumerate_extensions_naive",
]


@dataclass(frozen=True)
class CandidateImport:
    """One potential import: copy *source_tid* of the source instance into the
    target instance as a new tuple for entity *target_eid*."""

    copy_function: str
    source_tid: Hashable
    target_eid: Hashable

    def new_tid(self) -> Tuple[str, str, Hashable, Hashable]:
        """The tuple id used for the imported tuple.

        A structured (tuple-based) id: string concatenation collided when the
        source tid or entity id themselves contained the separator, silently
        merging two distinct imports into one tuple.  Derived imports nest
        naturally — their ``source_tid`` is itself such a tuple.
        """
        return ("import", self.copy_function, self.source_tid, self.target_eid)


@dataclass
class SpecificationExtension:
    """An element of ``Ext(ρ)`` applied to a specification.

    ``imports`` lists the candidate imports realised by this extension;
    ``specification`` is the extended specification ``S^e`` (new tuples added
    to the target instances, copy functions extended accordingly).
    ``certificate`` is filled by
    :func:`repro.preservation.cpp.find_violating_extension` when the extension
    witnesses a CPP violation: an
    :class:`~repro.preservation.cpp.AnswerDifferenceCertificate` naming the
    concrete answer tuple that changed and a current database witnessing the
    change.
    """

    base: Specification
    imports: Tuple[CandidateImport, ...]
    specification: Specification
    certificate: Optional["AnswerDifferenceCertificate"] = field(
        default=None, compare=False
    )

    @property
    def size_increase(self) -> int:
        """Number of additional mapped tuples (``|ρ^e| - |ρ|``)."""
        return len(self.imports)

    def describe(self) -> str:
        """A short human-readable description (used by examples and benches)."""
        parts = [
            f"{imp.copy_function}: {imp.source_tid}→entity {imp.target_eid}"
            for imp in self.imports
        ]
        return "; ".join(parts) if parts else "(no imports)"


# --------------------------------------------------------------------------- #
# Candidate enumeration
# --------------------------------------------------------------------------- #
def _extendable_copy_functions(specification: Specification) -> List[CopyFunction]:
    return [
        cf
        for cf in specification.copy_functions
        if cf.signature.covers_all_target_attributes()
    ]


def could_chain(specification: Specification) -> bool:
    """Structural over-approximation of chaining: some extendable copy
    function's source is another's target, so imports *could* create derived
    candidates.  Whether any derived candidate actually exists is decided by
    :func:`has_chained_imports` / :func:`candidate_closure`; this check is
    merely a constant-time pre-filter."""
    extendable = _extendable_copy_functions(specification)
    targets = {cf.target for cf in extendable}
    return any(cf.source in targets for cf in extendable)


def has_chained_imports(
    specification: Specification, match_entities_by_eid: bool = True
) -> bool:
    """Whether the candidate closure actually contains a *derived* import.

    Exact, unlike the copy-graph over-approximation :func:`could_chain`: a
    specification whose graph chains but whose chained sources have nothing
    importable is reported unchained, keeping it eligible for the fast paths
    that are only proven for the unchained regime (the single-import probes
    of :mod:`repro.preservation.sp_fast`).

    One round decides it — no fixpoint: applying imports only *adds* copy
    mappings (so no previously-skipped base candidate can reappear) and never
    adds target entities, hence every candidate newly admitted after applying
    all base candidates sources an imported tuple, i.e. is derived.  The
    constant-time graph check short-circuits the round for the common
    unchained topology, and productive copy cycles — which make
    :func:`candidate_closure` diverge — are simply reported as chained here.
    """
    if not could_chain(specification):
        return False
    base = candidate_imports(
        specification, match_entities_by_eid=match_entities_by_eid
    )
    if not base:
        return False
    extended = apply_imports(specification, base).specification
    return bool(
        candidate_imports(extended, match_entities_by_eid=match_entities_by_eid)
    )


def candidate_imports(
    specification: Specification,
    match_entities_by_eid: bool = True,
    copy_function_names: Optional[Iterable[str]] = None,
) -> List[CandidateImport]:
    """All candidate imports of the specification's extendable copy functions.

    A source tuple already imported (i.e. some mapped target tuple has exactly
    its signature values for the same entity) is skipped — re-importing it
    cannot change any completion.  This enumerates one level only; for chained
    copy functions use :func:`candidate_closure`.
    """
    wanted = set(copy_function_names) if copy_function_names is not None else None
    candidates: List[CandidateImport] = []
    for copy_function in _extendable_copy_functions(specification):
        if wanted is not None and copy_function.name not in wanted:
            continue
        source = specification.instance(copy_function.source)
        target = specification.instance(copy_function.target)
        target_entities = target.entities()
        for source_tuple in source.tuples():
            if match_entities_by_eid:
                entities = [source_tuple.eid] if target.has_entity(source_tuple.eid) else []
            else:
                entities = list(target_entities)
            for eid in entities:
                if _already_present(copy_function, target, source_tuple, eid):
                    continue
                candidates.append(
                    CandidateImport(copy_function.name, source_tuple.tid, eid)
                )
    return candidates


def _already_present(
    copy_function: CopyFunction,
    target: TemporalInstance,
    source_tuple: RelationTuple,
    eid: Hashable,
) -> bool:
    """Whether the target already contains a *mapped* copy of *source_tuple*
    for entity *eid* (importing it again is a no-op)."""
    for target_tid, source_tid in copy_function.mapping.items():
        if source_tid != source_tuple.tid:
            continue
        if target.tuple_by_tid(target_tid).eid == eid:
            return True
    return False


@dataclass(frozen=True)
class CandidateClosure:
    """The fixpoint of candidate imports under application.

    ``candidates`` lists every import reachable by any chain of imports, base
    candidates first and then level by level; ``prerequisites`` maps the index
    of each *derived* candidate to the index of the import that creates its
    source tuple (prerequisites may themselves be derived — follow
    :meth:`prerequisite_chain`).  ``depths[i]`` is the closure level candidate
    *i* first appeared at (0 for base candidates).  ``extension`` applies the
    whole closure: the maximal extension ``S^full``.
    """

    candidates: Tuple[CandidateImport, ...]
    prerequisites: Mapping[int, int]
    depths: Tuple[int, ...]
    extension: SpecificationExtension

    def prerequisite_chain(self, index: int) -> List[int]:
        """Indices of the imports candidate *index* depends on, outermost last
        (empty for base candidates)."""
        chain: List[int] = []
        while index in self.prerequisites:
            index = self.prerequisites[index]
            chain.append(index)
        return chain

    def is_downward_closed(self, selection: Iterable[int]) -> bool:
        """Whether *selection* contains the prerequisite of each of its
        derived candidates (i.e. denotes a valid element of ``Ext(ρ)``)."""
        chosen = set(selection)
        return all(
            self.prerequisites[index] in chosen
            for index in chosen
            if index in self.prerequisites
        )

    def downward_closure(self, selection: Iterable[int]) -> FrozenSet[int]:
        """*selection* plus every missing prerequisite."""
        closed = set(selection)
        for index in list(closed):
            closed.update(self.prerequisite_chain(index))
        return frozenset(closed)

    def _forest_of(self, selection: Iterable[int]) -> Tuple[List[int], Dict[int, List[int]]]:
        """(roots, children) of the prerequisite forest restricted to
        *selection* (every derived candidate has exactly one prerequisite)."""
        chosen = sorted(set(selection))
        chosen_set = set(chosen)
        children: Dict[int, List[int]] = {}
        roots: List[int] = []
        for index in chosen:
            parent = self.prerequisites.get(index)
            if parent is not None and parent in chosen_set:
                children.setdefault(parent, []).append(index)
            else:
                roots.append(index)
        return roots, children

    def count_closed_subsets(self, selection: Iterable[int]) -> int:
        """``len(list(closed_subsets(selection)))`` without materialising:
        per subtree, the ancestor-closed choices are "absent" plus the
        product over children; the total is the product over roots.  Lets
        callers bound the cost of :meth:`closed_subsets` up front."""
        roots, children = self._forest_of(selection)

        def subtree_count(index: int) -> int:
            product = 1
            for child in children.get(index, ()):
                product *= subtree_count(child)
            return 1 + product

        total = 1
        for root in roots:
            total *= subtree_count(root)
        return total

    def closed_subsets(self, selection: Iterable[int]) -> Iterator[FrozenSet[int]]:
        """All downward-closed subsets of *selection* (itself assumed downward
        closed) — the elements of ``Ext(ρ)`` it dominates, plus ∅.

        The prerequisite relation is a forest (every derived candidate has
        exactly one prerequisite), so the downward-closed subsets are the
        products of per-tree ancestor-closed subtrees.  The product is
        generated **lazily** (one subset at a time, depth-first): consumers
        that stop early — the bounded search materialises at most its family
        cap before degrading to restricted solver sweeps — pay only for what
        they draw, never for the whole (possibly exponential) family.
        """
        roots, children = self._forest_of(selection)

        def subtree_options(index: int) -> Iterator[FrozenSet[int]]:
            yield frozenset()
            node = frozenset({index})
            for kid_set in product_over(tuple(children.get(index, ()))):
                yield node | kid_set

        def product_over(nodes: Sequence[int]) -> Iterator[FrozenSet[int]]:
            # iterative depth-first product (one heap frame per node): wide
            # closures — thousands of independent candidates — must not hit
            # the interpreter recursion limit on the first draw.  Recursion
            # remains only across tree *depth* (prerequisite chains), which
            # the closure construction already bounds.
            if not nodes:
                yield frozenset()
                return
            last = len(nodes) - 1
            partial: List[FrozenSet[int]] = [frozenset()] * (len(nodes) + 1)
            generators: List[Iterator[FrozenSet[int]]] = [subtree_options(nodes[0])]
            while generators:
                level = len(generators) - 1
                choice = next(generators[level], None)
                if choice is None:
                    generators.pop()
                    continue
                combined = partial[level] | choice
                if level == last:
                    yield combined
                else:
                    partial[level + 1] = combined
                    generators.append(subtree_options(nodes[level + 1]))

        return product_over(tuple(roots))


def candidate_closure(
    specification: Specification,
    match_entities_by_eid: bool = True,
    copy_function_names: Optional[Iterable[str]] = None,
) -> CandidateClosure:
    """Iterate :func:`candidate_imports` over :func:`apply_imports` to a
    fixpoint.

    Each round applies every candidate found so far and collects the imports
    the extended specification newly admits; a round that admits nothing ends
    the iteration.  For an acyclic copy-function graph the number of
    productive rounds is bounded by the longest source→target chain; a cyclic
    graph whose cycle keeps producing importable tuples cannot converge and is
    rejected with :class:`SpecificationError` (each lap of the cycle would
    mint a fresh value-equal tuple forever).
    """
    targets = {cf.name: cf.target for cf in specification.copy_functions}
    sources = {cf.name: cf.source for cf in specification.copy_functions}
    candidates: List[CandidateImport] = []
    by_new_tid: Dict[Tuple[str, Hashable], int] = {}
    prerequisites: Dict[int, int] = {}
    depths: List[int] = []
    extension = apply_imports(specification, [])
    current = specification
    level = 0
    max_levels = len(_extendable_copy_functions(specification)) + 1
    while True:
        fresh = candidate_imports(
            current,
            match_entities_by_eid=match_entities_by_eid,
            copy_function_names=copy_function_names,
        )
        if not fresh:
            break
        if level >= max_levels:
            raise SpecificationError(
                "the candidate-import closure did not converge within "
                f"{max_levels} rounds; the copy-function graph contains a "
                "productive cycle, so Ext(ρ) is infinite"
            )
        for candidate in fresh:
            index = len(candidates)
            candidates.append(candidate)
            depths.append(level)
            by_new_tid[(targets[candidate.copy_function], candidate.new_tid())] = index
            prerequisite = by_new_tid.get(
                (sources[candidate.copy_function], candidate.source_tid)
            )
            if prerequisite is not None:
                prerequisites[index] = prerequisite
        extension = apply_imports(specification, candidates)
        current = extension.specification
        level += 1
    return CandidateClosure(
        candidates=tuple(candidates),
        prerequisites=prerequisites,
        depths=tuple(depths),
        extension=extension,
    )


# --------------------------------------------------------------------------- #
# Applying extensions
# --------------------------------------------------------------------------- #
def apply_imports(
    specification: Specification, imports: Sequence[CandidateImport]
) -> SpecificationExtension:
    """Build the extended specification ``S^e`` realising *imports*.

    Duplicate candidate imports are deduplicated (order preserved): importing
    the same source tuple into the same entity twice is a no-op on the
    extended instance, and ``size_increase`` must count mapped tuples, not
    repetitions of the request.

    Imports may be given in any order and may depend on each other: a derived
    import's source tuple is read from the *extended* source instance, so it
    only has to be created by some other import of the same call.  A set of
    imports that is not downward closed — some source tuple exists in neither
    the base specification nor any co-applied import — is rejected with
    :class:`SpecificationError`.
    """
    imports = tuple(dict.fromkeys(imports))
    functions_by_name = {cf.name: cf for cf in specification.copy_functions}
    for imp in imports:
        if imp.copy_function not in functions_by_name:
            raise SpecificationError(f"unknown copy function {imp.copy_function!r} in extension")
        if not functions_by_name[imp.copy_function].signature.covers_all_target_attributes():
            raise SpecificationError(
                f"copy function {imp.copy_function!r} does not cover all target attributes and "
                "therefore cannot be extended"
            )

    extended = specification.copy()
    new_mappings: Dict[str, Dict[Hashable, Hashable]] = {
        imp.copy_function: {} for imp in imports
    }
    pending: List[CandidateImport] = list(imports)
    while pending:
        remaining: List[CandidateImport] = []
        progressed = False
        for imp in pending:
            copy_function = functions_by_name[imp.copy_function]
            source = extended.instance(copy_function.source)
            if not source.has_tid(imp.source_tid):
                remaining.append(imp)  # prerequisite import not applied yet
                continue
            source_tuple = source.tuple_by_tid(imp.source_tid)
            target = extended.instance(copy_function.target)
            target_schema = target.schema
            values = {target_schema.eid: imp.target_eid}
            for target_attr, source_attr in copy_function.signature.pairs():
                values[target_attr] = source_tuple[source_attr]
            new_tid = imp.new_tid()
            if not target.has_tid(new_tid):
                target.add(RelationTuple(target_schema, new_tid, values))
            new_mappings[imp.copy_function][new_tid] = imp.source_tid
            progressed = True
        if remaining and not progressed:
            missing = ", ".join(
                f"{imp.source_tid!r} (via {imp.copy_function!r})" for imp in remaining[:3]
            )
            raise SpecificationError(
                "imports reference source tuples that exist in neither the base "
                f"specification nor any co-applied import — missing prerequisite "
                f"imports for: {missing}"
            )
        pending = remaining

    extended_functions: List[CopyFunction] = []
    for copy_function in extended.copy_functions:
        additions = new_mappings.get(copy_function.name)
        if additions:
            extended_functions.append(copy_function.extended_with(additions))
        else:
            extended_functions.append(copy_function)
    extended.copy_functions = extended_functions
    return SpecificationExtension(
        base=specification, imports=tuple(imports), specification=extended
    )


def enumerate_extensions_naive(
    specification: Specification,
    max_imports: Optional[int] = None,
    match_entities_by_eid: bool = True,
    copy_function_names: Optional[Iterable[str]] = None,
) -> Iterator[SpecificationExtension]:
    """Enumerate ``Ext(ρ)`` explicitly: every non-empty *downward-closed*
    subset of the candidate-import closure (optionally capped at
    *max_imports* imports per extension), in increasing subset size.

    This is the seed path — exponential in the size of the closure, and it
    materialises a full :class:`~repro.core.specification.Specification` per
    subset.  It is retained as the reference oracle for the SAT-encoded
    search (:mod:`repro.preservation.sat_extensions`), mirroring
    ``evaluate_naive`` and ``solve_naive`` in the query and solver layers.
    Subsets that skip a derived import's prerequisite are not extensions (the
    derived tuple's source would not exist) and are not enumerated.
    """
    closure = candidate_closure(
        specification,
        match_entities_by_eid=match_entities_by_eid,
        copy_function_names=copy_function_names,
    )
    candidates = closure.candidates
    upper = len(candidates) if max_imports is None else min(max_imports, len(candidates))
    for size in range(1, upper + 1):
        for subset in combinations(range(len(candidates)), size):
            if not closure.is_downward_closed(subset):
                continue
            yield apply_imports(specification, [candidates[i] for i in subset])


#: Backwards-compatible name for the explicit enumerator.
enumerate_extensions = enumerate_extensions_naive
