import random

import pytest
from hypothesis import given, strategies as st

from dyncolor.adversary import AdversaryView
from dyncolor.config import Config
from dyncolor.engine import Engine, Update
from dyncolor.graph import (
    DegreeCapExceeded,
    DuplicateEdge,
    DynamicGraph,
    GraphError,
    MissingEdge,
)


def test_empty_graph():
    g = DynamicGraph(5, 3)
    assert g.edge_count == 0
    assert g.edges() == []
    assert g.degree(1) == 0


def test_insert_delete_roundtrip():
    g = DynamicGraph(6, 4)
    g.insert_edge(1, 2)
    g.insert_edge(2, 3)
    assert g.has_edge(2, 1)
    assert g.degree(2) == 2
    g.delete_edge(1, 2)
    assert not g.has_edge(1, 2)
    assert g.degree(2) == 1
    g.assert_consistent()


def test_rejects_self_loop():
    g = DynamicGraph(4, 2)
    with pytest.raises(GraphError):
        g.insert_edge(2, 2)


def test_rejects_duplicate():
    g = DynamicGraph(4, 2)
    g.insert_edge(1, 2)
    with pytest.raises(DuplicateEdge):
        g.insert_edge(2, 1)


def test_rejects_missing_delete():
    g = DynamicGraph(4, 2)
    with pytest.raises(MissingEdge):
        g.delete_edge(1, 2)


def test_rejects_cap_violation():
    g = DynamicGraph(5, 2)
    g.insert_edge(1, 2)
    g.insert_edge(1, 3)
    with pytest.raises(DegreeCapExceeded):
        g.insert_edge(1, 4)
    # graph unchanged after the rejection
    assert g.degree(1) == 2
    g.assert_consistent()


def test_full_tracks_vertices_at_the_cap():
    g = DynamicGraph(5, 2)
    g.insert_edge(1, 2)
    assert g.full == set()
    g.insert_edge(1, 3)
    assert g.full == {1}
    with pytest.raises(DegreeCapExceeded):
        g.insert_edge(1, 4)
    assert g.full == {1}
    g.delete_edge(1, 3)
    assert g.full == set()
    g.assert_consistent()


def test_rejects_bad_vertex():
    g = DynamicGraph(4, 2)
    with pytest.raises(ValueError):
        g.insert_edge(0, 1)
    with pytest.raises(ValueError):
        g.insert_edge(1, 5)


def test_bad_construction():
    with pytest.raises(ValueError):
        DynamicGraph(0, 1)
    with pytest.raises(ValueError):
        DynamicGraph(5, 5)


def test_flat_edge_arrays_track_edge_list():
    g = DynamicGraph(8, 5)
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]:
        g.insert_edge(u, v)
    g.delete_edge(2, 3)
    g.delete_edge(1, 2)
    # each deletion moves the last slot into the hole; adversary streams
    # draw edges by slot, so this order is part of their reproducibility
    assert g.edges() == [(4, 5), (1, 5), (3, 4)]
    g.assert_consistent()


@given(
    st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), max_size=60),
    st.integers(0, 2**32),
)
def test_random_walk_consistency(pairs, seed):
    eng = Engine(10, 4, Config(zeta=3), seed=0)
    g = eng.g
    view = AdversaryView(eng)
    live = set()
    for u, v in pairs:
        if u == v:
            continue
        k = (min(u, v), max(u, v))
        if k in live:
            eng.apply(Update("-", u, v))
            live.discard(k)
        elif g.degree(u) < 4 and g.degree(v) < 4:
            eng.apply(Update("+", u, v))
            live.add(k)
        else:
            continue
        edges = g.edges()
        assert set(edges) == live and len(edges) == g.edge_count == len(live)
        assert edges == list(zip(g._eu, g._ev))
        assert [g.edge_at(i) for i in range(g.edge_count)] == edges
        assert g._pos == {a * 11 + b: i for i, (a, b) in enumerate(edges)}
        assert all(g.has_edge(a, b) and g.has_edge(b, a) for a, b in edges)
        assert sum(g.degree(x) for x in range(1, 11)) == 2 * len(live)
        # one draw of randrange(edge_count) per sampled edge
        e = view.random_edge(random.Random(seed))
        if live:
            assert e in live
            assert e == g.edge_at(random.Random(seed).randrange(g.edge_count))
        else:
            assert e is None
    g.assert_consistent()
