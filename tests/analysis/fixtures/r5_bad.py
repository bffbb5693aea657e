"""R5 violation: a carrier write with no cache invalidation in the body."""


class BadInstance:
    def __init__(self, schema):
        self._tuples = []
        self._by_tid = {}
        self._blocks = {}
        self._indexes = {}

    def add(self, tup):
        self._tuples.append(tup)
        self._by_tid[tup.tid] = tup

    def regroup(self, tuples):
        # rebuilds only the entity-block index, and forgets the hook
        self._blocks = {}
        for tup in tuples:
            self._blocks.setdefault(tup.eid, []).append(tup)

    def _invalidate_row_caches(self):
        self._indexes.clear()
