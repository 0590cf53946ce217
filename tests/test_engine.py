import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from dyncolor import engine as engine_mod
from dyncolor.adversary import adversary_stream
from dyncolor.config import Config
from dyncolor.decomposition import validate_decomposition
from dyncolor.drive import drive
from dyncolor.engine import Engine, EngineFailure, InlierPaletteEmpty, PhaseRestart, Update
from dyncolor.graph import (
    DegreeCapExceeded,
    DuplicateEdge,
    DynamicGraph,
    GraphError,
    MissingEdge,
    VertexOutOfRange,
)
from dyncolor.instances import mixed_graph, planted_clique_graph
from dyncolor.sets import SampleSet
from dyncolor.verify import verify_fresh_properties

from conftest import dense_cfg, planted_engine, random_updates


# ---------------------------------------------------------------------------
# mode dispatch


def test_auto_mode_respects_threshold():
    # naive iff delta * eps^2 * DELTA_CONST < zeta
    cfg = dense_cfg(zeta=1)
    assert Engine(100, 64, cfg, seed=0).mode == "phased"
    assert Engine(100, 63, cfg, seed=0).mode == "naive"


def test_explicit_mode_wins():
    cfg = dense_cfg(zeta=1)
    assert Engine(100, 64, cfg, seed=0, mode="naive").mode == "naive"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Engine(10, 4, Config(zeta=2), seed=0, mode="bogus")


# ---------------------------------------------------------------------------
# naive recoloring


def test_naive_isolated_vertex_gets_color_one(tiny_engine):
    assert all(c == 1 for c in tiny_engine.state.phi[1:])


def test_naive_saturated_neighborhood_gets_last_color():
    delta = 5
    eng = Engine(delta + 2, delta, Config(zeta=3), seed=0)
    # rebuild a star state by hand: neighbors of 1 use colors 1..delta
    for v in range(1, delta + 2 + 1):
        eng.state.set_color(v, None)
    for i, v in enumerate(range(2, delta + 2), start=1):
        eng.g.insert_edge(1, v)
        eng.state.set_color(v, i)
    eng.naive_recolor(1)
    assert eng.state.phi[1] == delta + 1


def test_naive_matches_min_free_color_oracle():
    eng = Engine(30, 8, Config(zeta=3), seed=1)
    random_updates(eng, 200, seed=4)
    for v in range(1, 31):
        used = {eng.state.phi[u] for u in eng.g.adj[v]} - {None}
        free = min(set(range(1, 10)) - used)
        eng.state.set_color(v, None)
        scans, probes = eng.meter.class_scans, eng.meter.palette_probes
        eng.naive_recolor(v)
        assert eng.state.phi[v] == free
        # metered as one adjacency scan, then one probe per color tried
        assert eng.meter.class_scans - scans == eng.g.degree(v)
        assert eng.meter.palette_probes - probes == free


def test_naive_without_free_color_raises():
    # the cap leaves a free color among delta+1; forcing delta+1 neighbors
    # past it (bypassing insert_edge) must stop the class walk at delta+1
    delta = 3
    eng = Engine(delta + 2, delta, Config(zeta=3), seed=0)
    for v in range(1, delta + 3):
        eng.state.set_color(v, None)
    for chi, v in enumerate(range(2, delta + 3), start=1):
        eng.g.adj[1].add(v)
        eng.state.set_color(v, chi)
    with pytest.raises(AssertionError, match="free color"):
        eng.naive_recolor(1)


def test_naive_runs_stay_proper():
    eng = Engine(25, 6, Config(zeta=3), seed=2, strict=True)
    random_updates(eng, 400, seed=5)
    assert eng.verify_now() == []


# ---------------------------------------------------------------------------
# phased update handlers


def test_insert_without_conflict_changes_nothing():
    eng, _ = planted_engine(seed=5)
    # find a non-adjacent differently-colored pair with spare degree
    st = eng.state
    g = eng.g
    pair = None
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if (
                not g.has_edge(u, v)
                and st.phi[u] != st.phi[v]
                and g.degree(u) < g.delta_cap
                and g.degree(v) < g.delta_cap
            ):
                pair = (u, v)
                break
        if pair:
            break
    before = list(st.phi)
    rep = eng.apply(Update("+", *pair))
    assert st.phi == before
    assert rep.recolorings == 0


def test_conflict_insert_recolors_and_stays_clean():
    # zeta = 320 -> t = 20, so updates land mid-phase and the conflict
    # pair picked from the live state is still same-colored when applied
    eng, _ = planted_engine(seed=3, zeta=320)
    assert eng.phase.t == 20
    rng = random.Random(0)
    for step in range(150):
        st, g = eng.state, eng.g
        pair = None
        for chi in range(1, g.delta_cap + 2):
            cls = sorted(st.classes[chi])
            for i, u in enumerate(cls):
                if g.degree(u) >= g.delta_cap:
                    continue
                for v in cls[i + 1 :]:
                    if g.degree(v) < g.delta_cap and not g.has_edge(u, v):
                        pair = (u, v)
                        break
                if pair:
                    break
            if pair:
                break
        if pair is None:
            break
        fresh_before = eng.meter.fresh_runs
        rep = eng.apply(Update("+", *pair))
        if eng.meter.fresh_runs == fresh_before:
            # phase boundaries recolor everything, voiding the staged pair
            assert rep.recolorings >= 1
        assert eng.verify_now() == []


def test_delete_between_cliqueless_endpoints_no_recoloring():
    eng, _ = planted_engine(seed=5)
    sparse = [v for v in range(1, eng.g.n + 1) if eng.decomp.part[v] is None]
    edge = None
    for u in sparse:
        for v in eng.g.adj[u]:
            if eng.decomp.part[v] is None:
                edge = (min(u, v), max(u, v))
                break
        if edge:
            break
    assert edge is not None
    rep = eng.apply(Update("-", *edge))
    assert rep.recolorings == 0
    assert eng.verify_now() == []


def test_intra_clique_delete_raises_matching_by_one():
    eng, planted = planted_engine(seed=7, zeta=320)
    ci = 0
    rng = random.Random(1)
    # delete intra-clique edges until floor(8 a_D) ticks up
    for _ in range(40):
        c = eng.decomp.cliques[ci]
        members = sorted(c.members)
        target_before = c.matching_target()
        assert eng.state.matching_size(ci) >= target_before
        u, v = rng.sample(members, 2)
        if not eng.g.has_edge(u, v):
            continue
        fresh_before = eng.meter.fresh_runs
        eng.apply(Update("-", min(u, v), max(u, v)))
        c = eng.decomp.cliques[ci]
        if (
            eng.meter.fresh_runs == fresh_before
            and c.matching_target() == target_before + 1
        ):
            assert eng.state.matching_size(ci) >= target_before + 1
            assert eng.verify_now() == []
            return
        assert eng.verify_now() == []
    pytest.fail("matching target never increased")


def test_matched_pair_conflict_insert_restores_invariant():
    eng, _ = planted_engine(seed=11)
    st = eng.state
    pair = None
    for u in range(1, eng.g.n + 1):
        w = st.matched[u]
        if (
            w is not None
            and u < w
            and not eng.g.has_edge(u, w)
            and eng.g.degree(u) < eng.g.delta_cap
            and eng.g.degree(w) < eng.g.delta_cap
        ):
            pair = (u, w)
            break
    if pair is None:
        pytest.skip("no matched pair available at this seed")
    u, w = pair
    assert st.phi[u] == st.phi[w]
    eng.apply(Update("+", u, w))
    assert st.matched[u] != w
    assert eng.verify_now() == []


# ---------------------------------------------------------------------------
# recoloring internals


@pytest.mark.parametrize("colors", [2, 3, 64, 65, 129, 513])
def test_trial_color_draws_what_randint_draws(colors):
    eng = Engine(colors, colors - 1, Config(zeta=3), seed=0, mode="naive")
    eng.rng = random.Random(colors)
    ref = random.Random(colors)
    assert [eng.trial_color() for _ in range(20_000)] == [
        ref.randint(1, colors) for _ in range(20_000)
    ]
    assert eng.rng.getstate() == ref.getstate()
    assert eng.meter.color_trials == 20_000


_vertex_sets = hst.sets(hst.integers(1, 30), max_size=20)


@settings(max_examples=300, deadline=None)
@given(_vertex_sets, _vertex_sets)
def test_holders_among_is_the_holder_set_metered_as_its_class(cls, nbrs):
    eng = Engine(30, 29, Config(zeta=3), seed=0, mode="naive")
    chi = 5
    eng.state.classes[chi] = set(cls)
    held = eng.holders_among(chi, nbrs)
    assert held == {u for u in cls if u in nbrs}
    assert eng.meter.class_scans == len(cls)
    # the answer is a set of its own: the class is left as it was
    held.add(0)
    assert eng.state.classes[chi] == cls


def _two_cliques_joined_by_an_outlier():
    """A phased engine over two planted cliques, in which the ends of the
    two anti-edges are outliers, plus one edge from an outlier x of the
    first clique to a member y of the second, applied to the frozen
    partition."""
    edges, _ = planted_clique_graph(
        200, 60, seed=1, num_cliques=2, clique_size=58, anti_edges_per_clique=2,
        noise_avg_deg=6.0, cross_avg_deg=1.5,
    )
    eng = Engine(200, 60, dense_cfg(), seed=1, mode="phased", initial_edges=edges)
    g, d = eng.g, eng.decomp
    first, second = d.cliques
    x = next(u for u in sorted(first.members) if not d.is_inlier(u) and g.degree(u) < 60)
    y = next(u for u in sorted(second.members) if g.degree(u) < 60)
    g.insert_edge(x, y)
    d.apply_insert(x, y)
    assert not d.is_inlier(x)
    return eng, x, y


# the three checks as plain walks over a class in a given order, each
# leaving at the first holder that decides


def _sparse_walk(eng, v, order):
    w = None
    for u in order:
        if u in eng.g.adj[v]:
            if eng.decomp.part[u] is None or w is not None:
                return False, None
            w = u
    return True, w


def _outlier_walk(eng, v, chi, order):
    d = eng.decomp
    if chi in eng.state.redundant[d.part[v]]:
        return False
    for u in order:
        if u in eng.g.adj[v] and not (d.part[u] == d.part[v] and d.is_inlier(u)):
            return False
    return True


def _matching_walk(eng, u, v, chi, order):
    ext = eng.decomp.ext
    if chi in eng.state.redundant[eng.decomp.part[u]]:
        return False
    return not any(x in ext[u] or x in ext[v] for x in order)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_checks_decide_as_plain_class_walks_in_either_order(data):
    eng, _, _ = _two_cliques_joined_by_an_outlier()
    g, d = eng.g, eng.decomp
    chi = data.draw(hst.integers(1, g.delta_cap + 1))
    sparse = data.draw(hst.sampled_from(sorted(d.sparse_vertices)))
    dense = data.draw(hst.sampled_from([v for c in d.cliques for v in sorted(c.members)]))
    members = sorted(d.cliques[data.draw(hst.integers(0, 1))].members)
    u, v = data.draw(hst.lists(hst.sampled_from(members), min_size=2, max_size=2, unique=True))
    # a class drawn partly from the sets the checks look in, so that each
    # check meets holders of every kind
    near = sorted(g.adj[sparse] | g.adj[dense] | d.ext[u] | d.ext[v])
    cls = data.draw(hst.sets(hst.integers(1, g.n), max_size=8))
    cls |= data.draw(hst.sets(hst.sampled_from(near), max_size=4))
    eng.state.classes[chi] = cls
    for order in (sorted(cls), sorted(cls, reverse=True)):
        assert eng.sparse_color_check(sparse, chi) == _sparse_walk(eng, sparse, order)
        assert eng.outlier_color_check(dense, chi) == _outlier_walk(eng, dense, chi, order)
        assert eng.matching_color_check(u, v, chi) == _matching_walk(eng, u, v, chi, order)


def test_outlier_color_check_refuses_every_holder_but_same_clique_inliers():
    eng, x, y = _two_cliques_joined_by_an_outlier()
    g, d, st = eng.g, eng.decomp, eng.state
    ci = d.part[x]
    chi = next(k for k in range(1, g.delta_cap + 2) if k not in st.redundant[ci])
    inliers = sorted(u for u in g.adj[x] if d.part[u] == ci and d.is_inlier(u))
    z = inliers[0]
    v, s = next(
        (v, s) for v in sorted(d.cliques[ci].members) for s in sorted(g.adj[v])
        if d.part[s] is None
    )
    cases = [
        (v, {s}, False),  # a sparser neighbor
        (z, {x}, False),  # an outlier of z's own clique
        (x, {y}, False),  # a member of another clique
        (x, set(inliers[:2]), True),  # inliers of x's own clique only
    ]
    for w, holders, ok in cases:
        st.classes[chi] = holders
        assert eng.outlier_color_check(w, chi) is ok, (w, holders)
    # a redundant color is refused before any holder is looked at
    st.classes[chi] = set()
    st.redundant[ci].add(chi)
    assert eng.outlier_color_check(x, chi) is False


def test_sparse_color_check_rejects_sparser_holder():
    eng, _ = planted_engine(seed=5)
    st, g = eng.state, eng.g
    sparse = [v for v in range(1, g.n + 1) if eng.decomp.part[v] is None]
    v = next(
        u for u in sparse if any(eng.decomp.part[w] is None for w in g.adj[u])
    )
    w = next(u for u in g.adj[v] if eng.decomp.part[u] is None)
    ok, _ = eng.sparse_color_check(v, st.phi[w])
    assert not ok


def test_sparse_recolor_steals_from_unique_denser_holder():
    eng, _ = planted_engine(seed=5)
    st, g = eng.state, eng.g
    # find sparse v adjacent to a denser w whose color is otherwise unused
    # among neighbors of v
    found = None
    for v in range(1, g.n + 1):
        if eng.decomp.part[v] is not None:
            continue
        for w in sorted(g.adj[v]):
            if eng.decomp.part[w] is None:
                continue
            chi = st.phi[w]
            holders = [
                x for x in st.classes[chi] if x in g.adj[v] and x != w
            ]
            if not holders:
                found = (v, w, chi)
                break
        if found:
            break
    if found is None:
        pytest.skip("no steal configuration at this seed")
    v, w, chi = found
    ok, thief_target = eng.sparse_color_check(v, chi)
    assert ok and thief_target == w


def _script_trials(monkeypatch, eng, colors):
    """The engine's next uniform trial colors are `colors`, each metered as
    one trial and drawing nothing from its rng; later draws are its own."""
    draw, queue = eng.trial_color, list(colors)

    def scripted(palette=None):
        if palette is None and queue:
            eng.meter.color_trials += 1
            return queue.pop(0)
        return draw(palette)

    monkeypatch.setattr(eng, "trial_color", scripted)


def test_sparse_recolor_hands_a_stolen_matched_pair_to_recolor_matching(monkeypatch):
    eng, _ = planted_engine(seed=5)
    st, g, d = eng.state, eng.g, eng.decomp
    # sparse v whose only holder of chi among its neighbors is a matched w
    v, w, chi = next(
        (v, w, st.phi[w])
        for v in d.sparse_vertices
        for w in sorted(g.adj[v])
        if st.matched[w] is not None and eng.sparse_color_check(v, st.phi[w]) == (True, w)
    )
    x, ci = st.matched[w], d.part[w]
    st.set_color(v, None)
    # the pair's next color: open to both and held by no other member
    chi2 = next(
        k
        for k in range(1, g.delta_cap + 2)
        if eng.matching_color_check(w, x, k) and not st.clique_holders(ci, k) - {w, x}
    )
    _script_trials(monkeypatch, eng, [chi, chi2])
    steals = eng.meter.steals
    eng.recolor_sparse(v)
    assert st.phi[v] == chi
    assert st.phi[w] == st.phi[x] == chi2
    assert st.matched[w] == x and st.matched[x] == w
    assert eng.meter.steals == steals + 1
    assert eng.verify_now() == []


def test_recolor_matching_recolors_an_existing_pair(monkeypatch):
    eng, _ = planted_engine(seed=5)
    st, d = eng.state, eng.decomp
    u = next(v for v in range(1, eng.g.n + 1) if st.matched[v] is not None)
    w, ci, old = st.matched[u], d.part[u], st.phi[u]
    chi = next(
        k
        for k in range(1, eng.g.delta_cap + 2)
        if eng.matching_color_check(u, w, k) and not st.clique_holders(ci, k)
    )
    _script_trials(monkeypatch, eng, [chi])
    eng.recolor_matching(u, w)
    assert st.phi[u] == st.phi[w] == chi != old
    assert st.matched[u] == w
    assert eng.verify_now() == []


def test_outlier_takes_a_color_no_member_holds(monkeypatch):
    # four anti-edges make a_D = 8/78, so every anti-edge end is an outlier
    eng, _ = planted_engine(seed=5, anti=4)
    st, d = eng.state, eng.decomp
    c = d.cliques[0]
    v = next(u for u in sorted(c.members) if not d.is_inlier(u))
    st.set_color(v, None)
    chi = next(
        k
        for k in range(1, eng.g.delta_cap + 2)
        if eng.outlier_color_check(v, k) and not st.clique_holders(c.index, k)
    )
    _script_trials(monkeypatch, eng, [chi])
    steals = eng.meter.steals
    eng.recolor_dense(v)
    assert st.phi[v] == chi
    assert eng.meter.steals == steals
    assert eng.verify_now() == []


def test_phase_restart_on_retry_exhaustion():
    eng, _ = planted_engine(seed=5)
    eng.phase.retry_cap_sparse = 0
    sparse = next(
        v for v in range(1, eng.g.n + 1) if eng.decomp.part[v] is None
    )
    eng.state.set_color(sparse, None)
    with pytest.raises(PhaseRestart, match=rf"^sparse retry cap at v={sparse}$"):
        eng.recolor_sparse(sparse)


def test_outlier_retry_cap_restarts_the_phase():
    eng, _ = planted_engine(seed=5, anti=4)
    d = eng.decomp
    v = next(u for u in sorted(d.cliques[0].members) if not d.is_inlier(u))
    eng.state.set_color(v, None)
    eng.phase.retry_cap_sparse = 0
    with pytest.raises(PhaseRestart, match=rf"^outlier retry cap at v={v}$"):
        eng.recolor_dense(v)


def test_matching_retry_cap_restarts_the_phase():
    eng, _ = planted_engine(seed=5)
    st = eng.state
    u = next(v for v in range(1, eng.g.n + 1) if st.matched[v] is not None)
    w = st.matched[u]
    eng.phase.retry_cap_matching = 0
    message = re.escape(f"matching retry cap at pair ({u},{w})")
    with pytest.raises(PhaseRestart, match=f"^{message}$"):
        eng.recolor_matching(u, w)


def _inlier_without_palette(eng):
    """An uncolored, unmatched inlier whose clique palette is emptied."""
    st, d = eng.state, eng.decomp
    v = next(
        u
        for u in sorted(d.cliques[0].members)
        if d.is_inlier(u) and st.matched[u] is None
    )
    st.set_color(v, None)
    st.clique_palette[0] = SampleSet()
    return v


def test_inlier_with_an_empty_palette_raises_in_strict_mode():
    eng, _ = planted_engine(seed=5, strict=True)
    v = _inlier_without_palette(eng)
    with pytest.raises(InlierPaletteEmpty, match=rf"^no palette color for inlier {v}$"):
        eng.recolor_dense(v)


def test_inlier_with_an_empty_palette_restarts_the_phase():
    eng, _ = planted_engine(seed=5, strict=False)
    v = _inlier_without_palette(eng)
    with pytest.raises(PhaseRestart, match=rf"^inlier palette empty at v={v}$"):
        eng.recolor_dense(v)


def test_matching_repair_without_anti_edges_restarts_the_phase():
    eng, _ = planted_engine(seed=5, anti=0)
    assert not len(eng.decomp.cliques[0].anti_edges)
    with pytest.raises(PhaseRestart, match=r"^no anti-edges left in clique 0$"):
        eng.add_anti_edge_matching(0)


def test_anti_edge_retry_cap_restarts_the_phase():
    eng, _ = planted_engine(seed=5)
    assert len(eng.decomp.cliques[0].anti_edges)
    eng.phase.retry_cap_matching = 0
    with pytest.raises(PhaseRestart, match=r"^anti-edge retry cap in clique 0$"):
        eng.add_anti_edge_matching(0)


def _refused_update(g, refusal):
    """An update that apply refuses for the named reason, and the error
    the refusing call raises: apply's own for an unknown op, otherwise the
    graph call's, raised on a copy of g."""
    if refusal == "unknown-op":
        return Update("*", 1, 2), ValueError("unknown op '*'")
    u, v = g.edge_at(0)
    if refusal == "self-loop":
        u = v
    elif refusal == "vertex-out-of-range":
        v = g.n + 1
    elif refusal != "duplicate-insert":
        if refusal == "degree-cap":
            u = min(g.full)
        v = next(w for w in range(1, g.n + 1) if w != u and not g.has_edge(u, w))
    upd = Update("-" if refusal == "missing-delete" else "+", u, v)
    copy = DynamicGraph.from_edges(g.n, g.delta_cap, g.edges())
    with pytest.raises(GraphError) as expected:
        (copy.insert_edge if upd.op == "+" else copy.delete_edge)(u, v)
    return upd, expected.value


@pytest.mark.parametrize(
    "refusal, error",
    [
        ("unknown-op", ValueError),
        ("duplicate-insert", DuplicateEdge),
        ("missing-delete", MissingEdge),
        ("self-loop", GraphError),
        ("vertex-out-of-range", VertexOutOfRange),
        ("degree-cap", DegreeCapExceeded),
    ],
)
def test_a_refused_update_at_a_phase_boundary_does_no_work(refusal, error):
    eng, _ = planted_engine(seed=3, zeta=320)
    upd, expected = _refused_update(eng.g, refusal)
    assert type(expected) is error
    eng.phase.counter = eng.phase.t
    fresh_runs, phi, edges = eng.meter.fresh_runs, list(eng.state.phi), eng.g.edges()
    rng_state = eng.rng.getstate()
    with pytest.raises(type(expected)) as raised:
        eng.apply(upd)
    assert type(raised.value) is type(expected)
    assert str(raised.value) == str(expected)
    assert eng.meter.fresh_runs == fresh_runs
    assert eng.state.phi == phi
    assert eng.rng.getstate() == rng_state
    assert eng.phase.counter == eng.phase.t
    assert eng.g.edges() == edges


def test_apply_recolors_the_phase_when_an_update_restarts(monkeypatch):
    eng, _ = planted_engine(seed=3, zeta=320)
    st, g, part = eng.state, eng.g, eng.decomp.part
    u, v = next(
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if part[u] is None
        and part[v] is None
        and st.phi[u] == st.phi[v]
        and not g.has_edge(u, v)
        and g.degree(u) < g.delta_cap
        and g.degree(v) < g.delta_cap
    )
    # the update's own sparse recolor trips a retry cap; every later call,
    # those of the fresh coloring included, runs the real recolorer
    recolor = eng.recolor_sparse
    tripped = []

    def restart_once(w):
        if not tripped:
            tripped.append(w)
            raise PhaseRestart(f"forced at v={w}")
        recolor(w)

    monkeypatch.setattr(eng, "recolor_sparse", restart_once)
    restarts, fresh_runs = eng.meter.restarts, eng.meter.fresh_runs
    report = eng.apply(Update("+", u, v))
    assert tripped == [u]
    assert report.restarts == 1
    assert eng.meter.restarts == restarts + 1
    assert eng.meter.fresh_runs == fresh_runs + 1
    assert eng.phase.counter == 1
    assert eng.verify_now() == []
    # the fresh coloring recolors, through recolor_sparse, every sparser
    # vertex that the one-shot round leaves uncolored, and the update
    # reports those recolors as its own
    left = len(eng.decomp.sparse_vertices) - eng.fresh_reports[-1].one_shot_colored
    assert left > 0
    assert report.sparse_recolors == left


def test_rebuild_certifies_sparse_pool_above_512_vertices():
    # 25 disjoint K_21 at epsilon = 1/110: adjacent members share 19 < 20
    # neighbors, so no clique is found and every pooled vertex has
    # sparsity 0; the phase start must refuse the partition at any n
    delta, blocks = 20, 25
    edges = [
        (b * 21 + i, b * 21 + j)
        for b in range(blocks)
        for i in range(1, 22)
        for j in range(i + 1, 22)
    ]
    cfg = Config(epsilon=Fraction(1, 110), zeta=1)
    with pytest.raises(EngineFailure, match=r"^525 .* \(first: \[1, 2, 3, 4, 5\]\)$"):
        Engine(21 * blocks, delta, cfg, seed=0, mode="phased", initial_edges=edges)


def test_phase_boundary_triggers_fresh():
    eng, _ = planted_engine(seed=3, zeta=32)  # t = floor(32/16) = 2
    assert eng.phase.t == 2
    runs0 = eng.meter.fresh_runs
    random_updates(eng, 5, seed=9)
    assert eng.meter.fresh_runs > runs0


def test_per_update_report_counts_steals_and_sparse_recolors():
    eng, _ = planted_engine(seed=3)
    maxima = {"sparse": 0, "steals": 0}
    rng = random.Random(7)
    for _ in range(300):
        st, g = eng.state, eng.g
        # adversarial conflict insert when possible
        pair = None
        for chi in rng.sample(range(1, g.delta_cap + 2), g.delta_cap + 1):
            cls = sorted(st.classes[chi])
            for i, u in enumerate(cls):
                if g.degree(u) >= g.delta_cap:
                    continue
                for v in cls[i + 1 :]:
                    if g.degree(v) < g.delta_cap and not g.has_edge(u, v):
                        pair = (u, v)
                        break
                if pair:
                    break
            if pair:
                break
        if pair is None:
            break
        rep = eng.apply(Update("+", *pair))
        maxima["sparse"] = max(maxima["sparse"], rep.sparse_recolors)
        maxima["steals"] = max(maxima["steals"], rep.steals)
    assert maxima["sparse"] <= 1
    assert maxima["steals"] <= 3


# ---------------------------------------------------------------------------
# determinism


def test_identical_seeds_identical_runs():
    snaps = []
    for _ in range(2):
        eng, _ = planted_engine(seed=13, strict=False)
        random_updates(eng, 150, seed=21)
        snaps.append((eng.snapshot(), eng.meter.snapshot()))
    assert snaps[0] == snaps[1]


def test_strict_changes_nothing_but_the_empty_inlier_palette():
    runs = []
    for strict in (True, False):
        eng, _ = planted_engine(seed=5, zeta=320, strict=strict)
        assert eng.phase.t > 1
        drive(eng, adversary_stream("matching", eng, 300, 9))
        assert eng.meter.fresh_runs > 1
        runs.append((
            eng.state.phi,
            eng.state.matched,
            dataclasses.asdict(eng.meter),
            [r.to_dict() for r in eng.fresh_reports],
            eng.rng.getstate(),
        ))
    assert runs[0] == runs[1]


def test_different_seeds_differ():
    eng1, _ = planted_engine(seed=13, strict=False)
    eng2, _ = planted_engine(seed=14, strict=False)
    assert eng1.snapshot()["phi"] != eng2.snapshot()["phi"]


# ---------------------------------------------------------------------------
# in-regime phased run


@pytest.mark.parametrize("adversary", ["conflict", "matching"])
def test_in_regime_rebuilds_pass_every_decomposition_rule(monkeypatch, adversary):
    # criterion 1's planted instance at Delta*eps^2 = 5/4 >= zeta = 1, so
    # certification guarantees the zeta-sparsity validate_decomposition
    # checks; gamma = 4 makes phases of 4 updates
    n, delta = 160, 80
    edges, _ = planted_clique_graph(
        n, delta, seed=1000, clique_size=78, anti_edges_per_clique=30,
        noise_avg_deg=6.0, cross_avg_deg=1.5,
    )
    cfg = Config(epsilon=Fraction(1, 8), zeta=1, gamma=4)
    assert cfg.dense_path_active(delta) and cfg.phase_length == 4
    eng = Engine(n, delta, cfg, seed=7, mode="phased", strict=True, initial_edges=edges)

    def check_rebuild():
        assert eng.decomp.cliques
        assert validate_decomposition(eng.decomp, eng.g, cfg) == []
        assert verify_fresh_properties(eng.decomp, eng.state, cfg) == []
        assert eng.verify_now() == []

    start_phase = eng._start_phase

    def checked_start_phase():
        start_phase()
        check_rebuild()

    check_rebuild()
    monkeypatch.setattr(eng, "_start_phase", checked_start_phase)
    drive(eng, adversary_stream(adversary, eng, 400, 7))
    assert eng.meter.fresh_runs == 100
    assert eng.meter.restarts == 0


# ---------------------------------------------------------------------------
# golden run over a clique instance


# sha256 of every phase's decomposition and the final coloring of one
# phased run with four almost-cliques throughout; recorded before the
# decomposition moved from a float matrix to packed bitsets, so it pins
# that the rewrite changed no partition, inlier set, anti-edge order or color
CLIQUE_RUN_DIGEST = "1d236682dcb2e11d6fe347b1efd7be348a811f5082017730850ddee7a65b1b14"


def test_clique_instance_matches_recorded_digest(monkeypatch):
    phases = []
    refine = engine_mod.refine_to_sparser_denser

    def recording_refine(raw, g, cfg):
        d = refine(raw, g, cfg)
        phases.append({
            "part": [-1 if p is None else p for p in d.part[1:]],
            "cliques": [
                [
                    sorted(c.members),
                    [v for v in sorted(c.members) if d.is_inlier(v)],
                    list(c.anti_edges),
                ]
                for c in d.cliques
            ],
        })
        return d

    monkeypatch.setattr(engine_mod, "refine_to_sparser_denser", recording_refine)
    edges, _ = mixed_graph(512, 64, seed=3)
    cfg = Config(epsilon=Fraction(1, 8), zeta=80)
    eng = Engine(512, 64, cfg, seed=5, mode="phased", initial_edges=edges)
    drive(eng, adversary_stream("matching", eng, 300, 9))
    assert eng.verify_now() == []
    assert eng.meter.restarts == 0
    assert len(phases) == eng.meter.fresh_runs == 60
    assert all(len(p["cliques"]) == 4 for p in phases)
    doc = {"phases": phases, "phi": eng.state.phi[1:]}
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == CLIQUE_RUN_DIGEST
