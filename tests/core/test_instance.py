"""Unit tests for normal and temporal instances."""

import pickle
import random

import pytest

from repro.core.instance import NormalInstance, TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.tuples import RelationTuple
from repro.exceptions import PartialOrderError, TupleError


@pytest.fixture()
def schema():
    return RelationSchema("R", ("A", "B"))


def make_tuple(schema, tid, eid, a, b):
    return RelationTuple(schema, tid, {"EID": eid, "A": a, "B": b})


class TestNormalInstance:
    def test_add_and_lookup(self, schema):
        instance = NormalInstance(schema)
        instance.add(make_tuple(schema, "t1", "e", 1, 2))
        assert instance.tuple_by_tid("t1")["A"] == 1
        assert instance.has_tid("t1")
        assert len(instance) == 1

    def test_duplicate_tid_rejected(self, schema):
        instance = NormalInstance(schema, [make_tuple(schema, "t1", "e", 1, 2)])
        with pytest.raises(TupleError):
            instance.add(make_tuple(schema, "t1", "e", 3, 4))

    def test_wrong_schema_rejected(self, schema):
        other = RelationSchema("S", ("A", "B"))
        instance = NormalInstance(schema)
        with pytest.raises(TupleError):
            instance.add(make_tuple(other, "t1", "e", 1, 2))

    def test_unknown_tid_lookup_raises(self, schema):
        with pytest.raises(TupleError):
            NormalInstance(schema).tuple_by_tid("zzz")

    def test_entities_in_first_appearance_order(self, schema):
        instance = NormalInstance(
            schema,
            [
                make_tuple(schema, "t1", "e2", 1, 2),
                make_tuple(schema, "t2", "e1", 1, 2),
                make_tuple(schema, "t3", "e2", 5, 6),
            ],
        )
        assert instance.entities() == ["e2", "e1"]

    def test_entity_block(self, schema):
        instance = NormalInstance(
            schema,
            [make_tuple(schema, "t1", "e1", 1, 2), make_tuple(schema, "t2", "e2", 3, 4)],
        )
        assert [t.tid for t in instance.entity_block("e1")] == ["t1"]

    def test_value_set_equality_ignores_tids(self, schema):
        first = NormalInstance(schema, [make_tuple(schema, "t1", "e", 1, 2)])
        second = NormalInstance(schema, [make_tuple(schema, "x9", "e", 1, 2)])
        assert first == second

    def test_value_set_inequality(self, schema):
        first = NormalInstance(schema, [make_tuple(schema, "t1", "e", 1, 2)])
        second = NormalInstance(schema, [make_tuple(schema, "t1", "e", 1, 3)])
        assert first != second


class TestInstanceIndexes:
    def test_rows_deduplicate_and_preserve_order(self, schema):
        instance = NormalInstance(
            schema,
            [
                make_tuple(schema, "t1", "e1", 1, 2),
                make_tuple(schema, "t2", "e1", 1, 2),  # value-duplicate
                make_tuple(schema, "t3", "e2", 3, 4),
            ],
        )
        assert instance.rows() == (("e1", 1, 2), ("e2", 3, 4))
        assert instance.value_set() == frozenset({("e1", 1, 2), ("e2", 3, 4)})

    def test_index_on_groups_rows_by_column_value(self, schema):
        instance = NormalInstance(
            schema,
            [
                make_tuple(schema, "t1", "e1", 1, 10),
                make_tuple(schema, "t2", "e2", 1, 20),
                make_tuple(schema, "t3", "e3", 2, 30),
            ],
        )
        index = instance.index_on(1)  # column 1 = attribute A
        assert set(index[1]) == {("e1", 1, 10), ("e2", 1, 20)}
        assert index[2] == (("e3", 2, 30),)

    def test_indexes_invalidated_on_add(self, schema):
        instance = NormalInstance(schema, [make_tuple(schema, "t1", "e1", 1, 10)])
        assert instance.index_on(1)[1] == (("e1", 1, 10),)
        instance.add(make_tuple(schema, "t2", "e2", 1, 20))
        assert set(instance.index_on(1)[1]) == {("e1", 1, 10), ("e2", 1, 20)}
        assert instance.rows() == (("e1", 1, 10), ("e2", 1, 20))

    def test_temporal_instance_inherits_indexes(self, two_entity_instance):
        index = two_entity_instance.index_on(0)
        assert {eid for eid in index} == {"e1", "e2"}
        assert len(index["e1"]) == 2


class TestTemporalInstance:
    def test_orders_start_empty(self, two_entity_instance):
        for attribute in two_entity_instance.schema.attributes:
            assert two_entity_instance.order(attribute).pair_count() == 0

    def test_add_order_same_entity(self, two_entity_instance):
        assert two_entity_instance.add_order("A", "t1", "t2")
        assert two_entity_instance.precedes("A", "t1", "t2")

    def test_add_order_cross_entity_rejected(self, two_entity_instance):
        with pytest.raises(PartialOrderError):
            two_entity_instance.add_order("A", "t1", "u1")

    def test_from_rows_with_orders(self, schema):
        instance = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e", "A": 1, "B": 1}, "t2": {"EID": "e", "A": 2, "B": 2}},
            orders={"A": [("t1", "t2")]},
        )
        assert instance.precedes("A", "t1", "t2")

    def test_normal_instance_drops_orders(self, two_entity_instance):
        two_entity_instance.add_order("A", "t1", "t2")
        normal = two_entity_instance.normal_instance()
        assert isinstance(normal, NormalInstance)
        assert not isinstance(normal, TemporalInstance)
        assert len(normal) == len(two_entity_instance)

    def test_copy_is_deep_for_orders(self, two_entity_instance):
        clone = two_entity_instance.copy()
        clone.add_order("A", "t1", "t2")
        assert not two_entity_instance.precedes("A", "t1", "t2")

    def test_contained_in(self, schema):
        base = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e", "A": 1, "B": 1}, "t2": {"EID": "e", "A": 2, "B": 2}},
        )
        extended = base.copy()
        extended.add_order("A", "t1", "t2")
        assert base.contained_in(extended)
        assert not extended.contained_in(base)

    def test_is_complete_detects_missing_comparability(self, two_entity_instance):
        assert not two_entity_instance.is_complete()
        two_entity_instance.add_order("A", "t1", "t2")
        two_entity_instance.add_order("B", "t1", "t2")
        two_entity_instance.add_order("A", "u1", "u2")
        two_entity_instance.add_order("B", "u2", "u1")
        assert two_entity_instance.is_complete()

    def test_is_completion_of(self, schema):
        base = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e", "A": 1, "B": 1}, "t2": {"EID": "e", "A": 2, "B": 2}},
            orders={"A": [("t1", "t2")]},
        )
        completion = base.copy()
        completion.add_order("B", "t2", "t1")
        assert completion.is_completion_of(base)
        # reversing the base pair is not a completion of it
        other = TemporalInstance.from_rows(
            schema,
            {"t1": {"EID": "e", "A": 1, "B": 1}, "t2": {"EID": "e", "A": 2, "B": 2}},
            orders={"A": [("t2", "t1")], "B": [("t1", "t2")]},
        )
        assert not other.is_completion_of(base)

    def test_entity_tids(self, two_entity_instance):
        assert two_entity_instance.entity_tids("e1") == ["t1", "t2"]


# --------------------------------------------------------------------------- #
# entity-block index
# --------------------------------------------------------------------------- #
def _scan_entities(instance):
    """Linear-scan reference for ``entities()``: first-appearance order."""
    out = []
    for tup in instance:
        if tup.eid not in out:
            out.append(tup.eid)
    return out


def _assert_index_matches_scan(instance):
    tuples = list(instance)
    assert instance.entities() == _scan_entities(instance)
    for eid in _scan_entities(instance):
        scanned = [t for t in tuples if t.eid == eid]
        assert instance.has_entity(eid)
        assert instance.entity_block(eid) == scanned
        assert [t.tid for t in instance.entity_block(eid)] == [t.tid for t in scanned]
        if isinstance(instance, TemporalInstance):
            assert instance.entity_tids(eid) == [t.tid for t in scanned]
    assert not instance.has_entity("no-such-entity")
    assert instance.entity_block("no-such-entity") == []


def _random_rows(seed, count=24):
    rng = random.Random(seed)
    entities = [f"e{index}" for index in range(rng.randint(1, 6))] + [0, 1.5]
    return [
        (f"t{index}", {"EID": rng.choice(entities), "A": rng.randrange(3), "B": rng.randrange(3)})
        for index in range(count)
    ]


class TestEntityBlockIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_add_keeps_index_equal_to_scan(self, schema, seed):
        instance = TemporalInstance(schema)
        _assert_index_matches_scan(instance)
        for tid, values in _random_rows(seed):
            instance.add(RelationTuple(schema, tid, values))
            _assert_index_matches_scan(instance)

    @pytest.mark.parametrize("seed", range(8))
    def test_derived_instances_match_scan(self, schema, seed):
        instance = TemporalInstance.from_rows(schema, _random_rows(seed))
        _assert_index_matches_scan(instance)
        _assert_index_matches_scan(instance.copy())
        _assert_index_matches_scan(instance.normal_instance())
        _assert_index_matches_scan(pickle.loads(pickle.dumps(instance)))
        _assert_index_matches_scan(pickle.loads(pickle.dumps(instance.normal_instance())))

    def test_copy_grows_independently(self, two_entity_instance, pair_schema):
        clone = two_entity_instance.copy()
        clone.add(RelationTuple(pair_schema, "t3", {"EID": "e1", "A": 5, "B": 50}))
        assert clone.entity_tids("e1") == ["t1", "t2", "t3"]
        assert two_entity_instance.entity_tids("e1") == ["t1", "t2"]

    def test_entity_block_is_a_fresh_list(self, two_entity_instance):
        two_entity_instance.entity_block("e1").clear()
        assert two_entity_instance.entity_tids("e1") == ["t1", "t2"]

    def test_pickle_without_block_index_restores(self, two_entity_instance, monkeypatch):
        # the state layout of instances pickled before the index existed
        def legacy_state(self):
            state = dict(self.__dict__)
            del state["_blocks"]
            return state

        monkeypatch.setattr(NormalInstance, "__getstate__", legacy_state, raising=False)
        payload = pickle.dumps(two_entity_instance)
        monkeypatch.undo()
        assert b"_blocks" not in payload
        restored = pickle.loads(payload)
        _assert_index_matches_scan(restored)
        assert restored.structurally_equal(two_entity_instance)
        restored.add_order("A", "t1", "t2")
        assert restored.precedes("A", "t1", "t2")

    def test_snapshot_file_without_block_index_restores(self, tmp_path, monkeypatch):
        from repro.session import ReasoningSession
        from repro.session.snapshot import SnapshotStore
        from repro.workloads.synthetic import SyntheticConfig, random_specification

        spec = random_specification(SyntheticConfig(entities=3, tuples_per_entity=3, seed=4))
        session = ReasoningSession(spec)
        expected = session.consistent()

        def legacy_state(self):
            state = dict(self.__dict__)
            del state["_blocks"]
            return state

        store = SnapshotStore(str(tmp_path))
        monkeypatch.setattr(NormalInstance, "__getstate__", legacy_state, raising=False)
        store.store_session(session)
        monkeypatch.undo()
        restored = store.load_session(spec)
        assert restored is not None, "an old-format snapshot must restore, not miss"
        for instance in restored.specification.instances.values():
            _assert_index_matches_scan(instance)
        assert restored.consistent() == expected
        assert restored.consistent() == ReasoningSession(spec.copy()).consistent()


def test_unhashable_entity_id_leaves_the_instance_unchanged(schema):
    instance = NormalInstance(schema, [make_tuple(schema, "t1", "e", 1, 2)])
    with pytest.raises(TypeError):
        instance.add(make_tuple(schema, "t2", ["not", "hashable"], 1, 2))
    assert instance.tids() == ["t1"] and not instance.has_tid("t2")
    assert instance.entities() == ["e"]
