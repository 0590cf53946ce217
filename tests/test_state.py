import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor.decomposition import Decomposition, compute_acd, refine_to_sparser_denser
from dyncolor.graph import DynamicGraph
from dyncolor.instances import planted_clique_graph
from dyncolor.state import ColorOutOfRange, ColoringState
from dyncolor.verify import (
    brute_clique_palette,
    brute_palette,
    brute_partition,
    check_view_consistency,
    sparse_palette,
)

from conftest import build_graph, dense_cfg


def _planted_state(seed=6, n=50, delta=20):
    edges, _ = planted_clique_graph(
        n, delta, seed=seed, clique_size=delta + 1,
        anti_edges_per_clique=6, noise_avg_deg=2.0,
    )
    g = build_graph(n, delta, edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    assert d.cliques
    return g, d, ColoringState(d)


def test_set_color_roundtrip():
    g, d, st_ = _planted_state()
    v = min(d.cliques[0].members)
    before = (
        [set(s) for s in st_.classes],
        [dict(m) for m in st_.clique_classes],
        [set(p) for p in st_.clique_palette],
        [set(r) for r in st_.redundant],
    )
    st_.set_color(v, 3)
    st_.set_color(v, None)
    after = (
        [set(s) for s in st_.classes],
        [dict(m) for m in st_.clique_classes],
        [set(p) for p in st_.clique_palette],
        [set(r) for r in st_.redundant],
    )
    assert before == after
    assert st_.phi[v] is None


def test_color_out_of_range():
    g, d, st_ = _planted_state()
    with pytest.raises(ColorOutOfRange):
        st_.set_color(1, g.delta_cap + 2)
    with pytest.raises(ColorOutOfRange):
        st_.set_color(1, 0)


def test_clique_palette_tracks_scratch_recomputation():
    g, d, st_ = _planted_state()
    c = d.cliques[0]
    rng = random.Random(1)
    members = sorted(c.members)
    for _ in range(300):
        v = rng.choice(members)
        chi = rng.choice([None] + list(range(1, g.delta_cap + 2)))
        st_.set_color(v, chi)
        assert set(st_.clique_palette[0]) == brute_clique_palette(st_, c.members)
        truth = {
            chi2
            for chi2, h in st_.clique_classes[0].items()
            if len(h) >= 2
        }
        assert st_.redundant[0] == truth


def test_redundant_enters_at_two_and_leaves_at_one():
    g, d, st_ = _planted_state()
    a, b, c3 = sorted(d.cliques[0].members)[:3]
    st_.set_color(a, 5)
    assert 5 not in st_.redundant[0]
    st_.set_color(b, 5)
    assert 5 in st_.redundant[0]
    st_.set_color(c3, 5)  # multiplicity 3 (improper, but views must track)
    assert 5 in st_.redundant[0]
    st_.set_color(c3, None)
    st_.set_color(b, None)
    assert 5 not in st_.redundant[0]
    assert st_.clique_holders(0, 5) == {a}


def test_sparse_palette_examples():
    n, delta = 10, 4
    g = DynamicGraph(n, delta)
    d = Decomposition(g)
    st_ = ColoringState(d)
    # no sparser neighbors -> full palette
    assert sparse_palette(d, st_, 1) == set(range(1, delta + 2))
    g.insert_edge(1, 2)
    g.insert_edge(1, 3)
    st_.set_color(2, 1)
    st_.set_color(3, 2)
    assert sparse_palette(d, st_, 1) == {3, 4, 5}


def test_matching_pointers():
    g, d, st_ = _planted_state()
    a, b = sorted(d.cliques[0].members)[:2]
    st_.match(a, b)
    assert st_.matched[a] == b and st_.matched[b] == a
    st_.unmatch(b)
    assert st_.matched[a] is None and st_.matched[b] is None
    st_.unmatch(a)  # idempotent on unmatched


# ---------------------------------------------------------------------------
# accounting bound


def _k5_state(missing_edge=None):
    delta = 4
    g = DynamicGraph(5, delta)
    for u in range(1, 6):
        for v in range(u + 1, 6):
            if missing_edge and {u, v} == set(missing_edge):
                continue
            g.insert_edge(u, v)
    cfg = dense_cfg()
    # hand-built partition: the degree floor of the clustering heuristic
    # cannot recover near-cliques this small
    raw = brute_partition(g, set(), [set(range(1, 6))])
    d = refine_to_sparser_denser(raw, g, cfg)
    assert len(d.cliques) == 1
    return g, d, ColoringState(d)


def test_accounting_complete_clique():
    g, d, st_ = _k5_state()
    for v, chi in ((1, 1), (2, 2), (3, 3), (4, 4)):
        st_.set_color(v, chi)
    v = 5
    bound = st_.accounting_lower_bound(v)
    assert bound == 1  # 4 - 4 + 0 - 0 + 1
    lhs = brute_clique_palette(st_, d.cliques[0].members) & brute_palette(g, st_, v)
    assert len(lhs) == 1


def test_accounting_with_matched_pair():
    # K5 minus {1,2}: color 1 repeated on the pair, M = 1, v = 3 uncolored
    g, d, st_ = _k5_state(missing_edge=(1, 2))
    st_.set_color(1, 1)
    st_.set_color(2, 1)
    st_.set_color(4, 2)
    st_.set_color(5, 3)
    v = 3
    bound = st_.accounting_lower_bound(v)
    assert st_.matching_size(0) == 1
    assert bound == 2  # 4 - 4 + 1 - 0 + 1
    lhs = brute_clique_palette(st_, d.cliques[0].members) & brute_palette(g, st_, v)
    assert lhs == {4, 5}


def test_accounting_bound_sound_on_random_states():
    g, d, st_ = _planted_state(seed=9)
    rng = random.Random(2)
    members = sorted(d.cliques[0].members)
    for _ in range(200):
        v = rng.choice(members)
        st_.set_color(v, rng.choice([None] + list(range(1, g.delta_cap + 2))))
        u = rng.choice(members)
        lhs = len(
            brute_clique_palette(st_, d.cliques[0].members)
            & brute_palette(g, st_, u)
        )
        assert lhs >= st_.accounting_lower_bound(u)


# ---------------------------------------------------------------------------
# rebuild oracle


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_rebuild_equals_incremental(seed):
    g, d, st_ = _planted_state(seed=6)
    rng = random.Random(seed)
    for _ in range(120):
        v = rng.randint(1, g.n)
        st_.set_color(v, rng.choice([None] + list(range(1, g.delta_cap + 2))))
    assert check_view_consistency(d, st_) == []
