"""Cold encoding cost grows linearly in the number of entities.

The reductions of the paper work block by block: for a fixed entity-block
size, encoding a specification should cost time linear in the number of
entities.  Time is too noisy to assert on, so these tests count a
deterministic proxy instead — reads of ``RelationTuple.eid`` while a
:class:`~repro.solvers.order_encoding.CompletionEncoder` is built.  A
whole-instance scan per entity block (the quadratic grouping this guards
against) shows up as a 4x growth per doubling of the instance.
"""

import pytest

from repro.analysis.runtime import classify_growth
from repro.core.tuples import RelationTuple
from repro.solvers.order_encoding import CompletionEncoder
from repro.workloads.synthetic import chain_copy_specification

SIZES = (400, 800, 1600)
BLOCK = 4
RELATIONS = 2


def _family(size: int, seed: int):
    """*size* tuples over two relations in blocks of :data:`BLOCK`, with the
    standard denial constraints and a copy function between the relations."""
    return chain_copy_specification(
        relations=RELATIONS,
        entities=size // (RELATIONS * BLOCK),
        tuples_per_entity=BLOCK,
        with_constraints=True,
        seed=seed,
    )


def _eid_reads_while_encoding(specification, monkeypatch) -> int:
    reads = 0
    read_eid = RelationTuple.eid.fget

    def counting_eid(tup):
        nonlocal reads
        reads += 1
        return read_eid(tup)

    with monkeypatch.context() as patch:
        patch.setattr(RelationTuple, "eid", property(counting_eid))
        CompletionEncoder(specification)
    return reads


@pytest.mark.parametrize("seed", [3, 11])
def test_encoder_build_reads_grow_linearly(seed, monkeypatch):
    specs = [_family(size, seed) for size in SIZES]
    assert [sum(len(i) for i in s.instances.values()) for s in specs] == list(SIZES)
    assert all(s.copy_functions for s in specs)
    reads = [_eid_reads_while_encoding(spec, monkeypatch) for spec in specs]
    assert reads[0] > 0
    growth = [later / earlier for earlier, later in zip(reads, reads[1:])]
    assert max(growth) <= 2.5, f"eid reads {reads} grow by {growth} per doubling"
    kind, exponent, _ = classify_growth(SIZES, reads)
    assert kind != "exponential" and exponent is not None and exponent < 1.25, (kind, exponent)


def test_entity_blocks_are_not_scanned(monkeypatch):
    # without copy functions nothing in the build needs an entity id: the
    # blocks come from the instance's index and denial groundings are
    # same-entity by construction
    spec = _family(SIZES[-1], 3)
    spec.copy_functions.clear()
    assert _eid_reads_while_encoding(spec, monkeypatch) == 0
