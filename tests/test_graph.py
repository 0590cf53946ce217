import random

import numpy as np
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
from dyncolor.instances import mixed_graph, random_graph

from conftest import build_graph


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
    with pytest.raises(ValueError):  # past the int32 edge arrays
        DynamicGraph(2**31, 5)


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


# ---------------------------------------------------------------------------
# bulk load


def _layout(g: DynamicGraph):
    """Everything a load leaves behind, set iteration orders included."""
    return (
        [list(a) for a in g.adj],
        g._eu.tolist(),
        g._ev.tolist(),
        list(g._pos.items()),
        list(g.full),
    )


@st.composite
def _edge_lists(draw):
    """(n, cap, edges): a seeded random_graph or mixed_graph instance, or
    a valid list built pair by pair, in a drawn order and orientation."""
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["random", "mixed", "pairs"]))
    if kind == "random":
        n = draw(st.integers(2, 160))
        cap = draw(st.integers(1, n - 1))
        edges = random_graph(n, cap, draw(st.floats(0.05, 1.0)), seed)
    elif kind == "mixed":
        n = draw(st.integers(24, 160))
        cap = draw(st.integers(6, min(40, n - 1)))
        edges = mixed_graph(n, cap, seed)[0]
    else:
        n = draw(st.integers(2, 12))
        cap = draw(st.integers(1, n - 1))
        g = DynamicGraph(n, cap)
        for u, v in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)))):
            if u != v and not g.has_edge(u, v) and g.degree(u) < cap and g.degree(v) < cap:
                g.insert_edge(u, v)
        edges = g.edges()
    edges = list(edges)
    if draw(st.booleans()):
        rng = random.Random(seed)
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return n, cap, edges


@given(_edge_lists())
def test_from_edges_builds_what_per_edge_inserts_build(case):
    n, cap, edges = case
    g = DynamicGraph.from_edges(n, cap, edges)
    assert _layout(g) == _layout(build_graph(n, cap, edges))
    g.assert_consistent()


def test_from_edges_fills_capped_vertices_in_the_order_they_reach_the_cap():
    # 8, 16, 24 and 40 share a slot of a small set's table, so the order
    # of the adds shows in the iteration order
    n, cap = 40, 2
    edges = [(24, 1), (8, 2), (24, 3), (40, 16), (8, 4), (16, 5), (40, 6)]
    g = DynamicGraph.from_edges(n, cap, edges)
    ref = build_graph(n, cap, edges)
    assert list(ref.full) != list(set(sorted(ref.full)))
    assert _layout(g) == _layout(ref)


def test_from_edges_takes_the_vectorized_path_on_valid_ints(monkeypatch):
    n, cap = 300, 40
    edges = random_graph(n, cap, 0.9, 3)
    ref = build_graph(n, cap, edges)

    def no_replay(self, u, v):
        raise AssertionError("valid int pairs must not be replayed edge by edge")

    monkeypatch.setattr(DynamicGraph, "insert_edge", no_replay)
    assert _layout(DynamicGraph.from_edges(n, cap, edges)) == _layout(ref)
    assert _layout(DynamicGraph.from_edges(n, cap, iter(edges))) == _layout(ref)


def test_from_edges_of_nothing_is_the_empty_graph():
    for edges in ([], (), iter([])):
        g = DynamicGraph.from_edges(6, 3, edges)
        assert _layout(g) == _layout(DynamicGraph(6, 3))
        g.assert_consistent()


def test_from_edges_accepts_numpy_endpoints_as_inserts_do():
    edges = [(np.int64(u), np.int64(v)) for u, v in random_graph(40, 6, 0.8, 2)]
    g = DynamicGraph.from_edges(40, 6, edges)
    assert _layout(g) == _layout(build_graph(40, 6, edges))
    g.assert_consistent()


def _raised(load):
    with pytest.raises(Exception) as info:
        load()
    return type(info.value), str(info.value)


# n = 6, cap = 2; each list goes wrong only at its last edge, after valid ones
@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2), (0, 3)],
        [(1, 2), (3, 7)],
        [(1, 2), (4, 4)],
        [(1, 2), (2, 3), (1, 2)],
        [(1, 2), (2, 3), (3, 2)],
        [(1, 2), (1, 3), (1, 4)],
        [(1, 2), (3, 2.5)],
        [(1, 2), (1, "3")],
        [(1, 2), (2**70, 3)],
        [(1, 2), (3, 4, 5)],
        [(1, 2), (3,)],
    ],
    ids=[
        "vertex-0",
        "vertex-n+1",
        "self-loop",
        "duplicate",
        "reversed-duplicate",
        "over-cap",
        "float",
        "str",
        "huge",
        "triple",
        "single",
    ],
)
def test_from_edges_raises_what_the_per_edge_loop_raises(edges):
    assert _raised(lambda: DynamicGraph.from_edges(6, 2, edges)) == _raised(
        lambda: build_graph(6, 2, edges)
    )
