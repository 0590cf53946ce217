import random
from fractions import Fraction

import pytest

from dyncolor import fresh
from dyncolor.config import Config
from dyncolor.engine import Engine, EngineFailure, PhaseRestart
from dyncolor.fresh import color_dense, dense_order, one_shot_coloring
from dyncolor.instances import mixed_graph
from dyncolor.verify import brute_clique_palette, brute_palette, verify_fresh_properties

from conftest import dense_cfg, planted_engine


def test_fresh_on_edgeless_graph():
    eng = Engine(40, 10, dense_cfg(zeta=2), seed=1, mode="phased", strict=True)
    assert all(c is not None for c in eng.state.phi[1:])
    assert eng.verify_now() == []
    assert verify_fresh_properties(eng.g, eng.decomp, eng.state, eng.cfg) == []


def test_fresh_single_complete_clique_distinct_colors():
    delta = 20
    n = delta + 1
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    eng = Engine(
        n, delta, dense_cfg(), seed=2, mode="phased", initial_edges=edges,
        strict=True,
    )
    assert len(eng.decomp.cliques) == 1
    c = eng.decomp.cliques[0]
    assert c.sum_anti == 0
    assert eng.state.matching_size(0) == 0  # no matching calls needed
    colors = [eng.state.phi[v] for v in range(1, n + 1)]
    assert sorted(colors) == list(range(1, n + 1))  # all 21 distinct


def test_fresh_mixed_instance_properties_pass():
    n, delta = 500, 64
    edges, _ = mixed_graph(n, delta, seed=5)
    eng = Engine(
        n, delta, Config(epsilon=Fraction(1, 8), zeta=4), seed=3,
        mode="phased", initial_edges=edges, strict=True,
    )
    assert verify_fresh_properties(eng.g, eng.decomp, eng.state, eng.cfg) == []
    assert eng.verify_now() == []


def test_fresh_report_is_reproducible():
    reports = []
    for _ in range(2):
        eng, _ = planted_engine(seed=17, strict=True)
        reports.append(eng.fresh_reports[-1].to_dict())
    assert reports[0] == reports[1]


def test_one_shot_only_colors_sparse_vertices():
    eng, _ = planted_engine(seed=5, zeta=320)
    st = eng.state
    for v in range(1, eng.g.n + 1):
        st.set_color(v, None)
    one_shot_coloring(eng)
    for v in range(1, eng.g.n + 1):
        if eng.decomp.part[v] is not None:
            assert st.phi[v] is None


def test_one_shot_removes_adjacent_same_colored_pairs():
    # statistical form of the conflict-removal contract: after the pass,
    # no two adjacent sparse vertices share a color, over many seeds
    for seed in range(20):
        eng, _ = planted_engine(seed=seed, zeta=320, strict=False)
        st = eng.state
        for v in range(1, eng.g.n + 1):
            st.set_color(v, None)
        one_shot_coloring(eng)
        for u, v in eng.g.edges():
            if st.phi[u] is not None:
                assert st.phi[u] != st.phi[v]


def test_one_shot_noop_without_sparse_vertices():
    delta = 20
    n = delta + 1
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    eng = Engine(n, delta, dense_cfg(), seed=2, mode="phased", initial_edges=edges)
    st = eng.state
    for v in range(1, n + 1):
        st.set_color(v, None)
    one_shot_coloring(eng)
    assert all(c is None for c in st.phi[1:])


def test_color_dense_last_vertex_forced_color():
    delta = 20
    n = delta + 1
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    eng = Engine(n, delta, dense_cfg(), seed=2, mode="phased", initial_edges=edges)
    st = eng.state
    v = 7
    st.set_color(v, None)
    forced = set(st.clique_palette[0])
    assert len(forced) == 1
    color_dense(eng, v)
    assert st.phi[v] == forced.pop()


def test_color_dense_failures_restart_the_phase():
    delta = 20
    n = delta + 1
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    eng = Engine(n, delta, dense_cfg(), seed=2, mode="phased", initial_edges=edges)
    # all delta + 1 colors are held inside the clique
    with pytest.raises(PhaseRestart, match=r"^clique palette exhausted in clique 0$"):
        color_dense(eng, 7)
    eng.state.set_color(7, None)
    eng.log_n = 0  # a trial budget of zero
    with pytest.raises(PhaseRestart, match=r"^retry cap in clique 0 while coloring 7$"):
        color_dense(eng, 7)
    # every fresh attempt of the next phase fails the same way
    with pytest.raises(
        EngineFailure, match=r"^fresh coloring failed: retry cap in clique 0 while coloring 1$"
    ):
        eng._start_phase()


def test_color_dense_accepts_only_palette_intersection():
    eng, _ = planted_engine(seed=19, zeta=320)
    st = eng.state
    c = eng.decomp.cliques[0]
    rng = random.Random(0)
    for v in rng.sample(sorted(c.members), 15):
        st.set_color(v, None)
        allowed = brute_clique_palette(st, c.members) & brute_palette(eng.g, st, v)
        color_dense(eng, v)
        assert st.phi[v] in allowed
        for u in eng.g.adj[v]:
            assert st.phi[u] != st.phi[v]


def test_fresh_detects_corrupted_dense_balance():
    eng, _ = planted_engine(seed=5, zeta=320)
    st = eng.state
    members = sorted(eng.decomp.cliques[0].members)
    chi = st.phi[members[0]]
    # force a third holder of chi inside the clique
    others = [v for v in members if st.phi[v] != chi]
    st.set_color(others[0], chi)
    st.set_color(others[1], chi)
    kinds = {
        v.kind
        for v in verify_fresh_properties(eng.g, eng.decomp, st, eng.cfg)
    }
    assert "dense-balance" in kinds


@pytest.mark.parametrize("build", ["planted", "mixed"])
def test_dense_order_is_outliers_then_inliers_by_id(monkeypatch, build):
    if build == "planted":
        eng, _ = planted_engine(seed=5)
    else:
        n, delta = 500, 64
        edges, _ = mixed_graph(n, delta, seed=5)
        eng = Engine(
            n, delta, Config(epsilon=Fraction(1, 8), zeta=4), seed=3,
            mode="phased", initial_edges=edges,
        )
    d = eng.decomp
    assert d.cliques
    expected = [sorted(c.members, key=lambda v: (d.is_inlier(v), v)) for c in d.cliques]
    assert [dense_order(d, c) for c in d.cliques] == expected
    if build == "mixed":  # a planted clique's members are all inliers
        assert {d.is_inlier(v) for c in d.cliques for v in c.members} == {False, True}

    # a fresh coloring colors each clique's members in that order
    colored = []
    monkeypatch.setattr(
        fresh, "color_dense", lambda eng, v: (colored.append(v), color_dense(eng, v))
    )
    eng._start_phase()
    assert colored
    done = set(colored)
    assert colored == [v for members in expected for v in members if v in done]
