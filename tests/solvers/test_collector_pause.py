"""The cyclic collector is paused around bulk construction only.

``CompletionEncoder`` builds its encoding and loads it into a fresh solver
with the collector paused (the allocations are long-lived, so collections
would walk them for nothing); solving runs with it on.  The pause must
restore the caller's collector state on every path.
"""

import gc

import pytest

from repro.solvers.order_encoding import CompletionEncoder, _collector_paused
from repro.solvers.sat import Solver
from repro.workloads.synthetic import SyntheticConfig, random_specification


@pytest.fixture(autouse=True)
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_pause_disables_then_restores():
    with _collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with _collector_paused():
            raise RuntimeError("build failed")
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    with _collector_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        with _collector_paused():
            raise ValueError
    assert not gc.isenabled()


def test_nested_pauses_leave_the_decision_to_the_outermost():
    with _collector_paused():
        with _collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_encoder_builds_and_loads_paused_but_solves_with_collector_on(monkeypatch):
    seen = {"add_clause": set(), "solve": set()}
    add_clause, solve = Solver.add_clause, Solver.solve

    def recording_add_clause(solver, literals):
        seen["add_clause"].add(gc.isenabled())
        return add_clause(solver, literals)

    def recording_solve(solver, *args, **kwargs):
        seen["solve"].add(gc.isenabled())
        return solve(solver, *args, **kwargs)

    monkeypatch.setattr(Solver, "add_clause", recording_add_clause)
    monkeypatch.setattr(Solver, "solve", recording_solve)
    spec = random_specification(SyntheticConfig(entities=3, tuples_per_entity=3, seed=2))
    encoder = CompletionEncoder(spec, backend="reference")
    assert gc.isenabled()
    assert encoder.satisfiable() in (True, False)
    assert seen == {"add_clause": {False}, "solve": {True}}
    assert gc.isenabled()
    # later feeds (clauses added between solves) are not bulk builds
    lower, upper = spec.instance("R0").entity_tids("e0")[:2]
    encoder.require_pair("R0", "a0", lower, upper)
    encoder.satisfiable()
    assert seen["add_clause"] == {False, True}
