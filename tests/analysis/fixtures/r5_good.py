"""R5 clean: every carrier write invalidates (or delegates to a parent that
does)."""


class GoodInstance:
    def __init__(self, schema):
        self._tuples = []
        self._by_tid = {}
        self._blocks = {}
        self._indexes = {}

    def add(self, tup):
        self._tuples.append(tup)
        self._by_tid[tup.tid] = tup
        self._blocks.setdefault(tup.eid, []).append(tup)
        self._invalidate_row_caches()

    def __setstate__(self, state):
        self.__dict__.update(state)
        if "_blocks" not in state:
            self._blocks = {}
            for tup in self._tuples:
                self._blocks.setdefault(tup.eid, []).append(tup)
            self._invalidate_row_caches()

    def _invalidate_row_caches(self):
        self._indexes.clear()


class DelegatingInstance(GoodInstance):
    def add(self, tup):
        super().add(tup)
