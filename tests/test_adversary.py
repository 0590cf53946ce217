import hashlib
import math
import random
from bisect import bisect_right
from functools import cache
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from dyncolor.adversary import (
    AdversaryView,
    DecompositionView,
    ParseError,
    conflict_adversary,
    matching_attacker,
    oblivious_adversary,
    TraceReader,
    adversary_stream,
    record_trace,
)
from dyncolor.config import Config
from dyncolor.engine import Engine, Update
from dyncolor.graph import DynamicGraph
from dyncolor.instances import random_graph
from dyncolor.state import ColoringState

from conftest import planted_engine


# ---------------------------------------------------------------------------
# oblivious streams


def test_oblivious_deterministic():
    a = oblivious_adversary(30, 8, 200, density=0.5, seed=7)
    b = oblivious_adversary(30, 8, 200, density=0.5, seed=7)
    assert a == b
    c = oblivious_adversary(30, 8, 200, density=0.5, seed=8)
    assert a != c


def test_oblivious_zero_steps():
    assert oblivious_adversary(10, 3, 0, density=0.5, seed=1) == []


def test_oblivious_prefixes_replay_cleanly():
    stream = oblivious_adversary(40, 6, 500, density=0.6, seed=3)
    assert len(stream) == 500
    g = DynamicGraph(40, 6)
    for upd in stream:  # insert_edge / delete_edge raise on invalid input
        if upd.op == "+":
            g.insert_edge(upd.u, upd.v)
        else:
            g.delete_edge(upd.u, upd.v)


# sha256 over the "op u v" lines, recorded when the generator kept its own
# edge list, position map and degree array instead of a DynamicGraph
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            (1000, 250, 50000, 0.5, 1),
            "520478227df77b2bbae98f38b75633560bb38fe477d904fa969f88f550b1d3fd",
        ),
        (
            (40, 39, 5000, 1.0, 2),
            "560613762fd10c600b67eea108a2bead47054c1e149426763a00fe07d6fb5769",
        ),
    ],
)
def test_oblivious_stream_matches_recorded_digest(args, digest):
    lines = "".join(f"{u.op} {u.u} {u.v}\n" for u in oblivious_adversary(*args))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_oblivious_rejects_bad_density():
    with pytest.raises(ValueError):
        oblivious_adversary(10, 3, 5, density=0.0, seed=1)


# ---------------------------------------------------------------------------
# adaptive adversaries


def test_conflict_adversary_picks_same_colored_pair():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    upd = conflict_adversary(view, random.Random(0))
    assert upd.op == "+"
    assert eng.state.phi[upd.u] == eng.state.phi[upd.v]
    assert not eng.g.has_edge(upd.u, upd.v)


def test_conflict_adversary_falls_back_to_deletion():
    # all vertices distinctly colored -> no conflict pair -> delete an edge
    delta = 20
    n = delta + 1
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    from conftest import dense_cfg

    eng = Engine(n, delta, dense_cfg(), seed=2, mode="phased", initial_edges=edges)
    upd = conflict_adversary(AdversaryView(eng), random.Random(0))
    assert upd.op == "-"
    assert eng.g.has_edge(upd.u, upd.v)


def test_conflict_adversary_inserts_into_an_empty_graph():
    # two vertices under cap 1: once the first insert splits their colors,
    # no pair shares a color, so every step on the empty graph (3, 5 and
    # 7) draws one pair to insert, and every other step deletes the edge
    eng = Engine(2, 1, Config(), seed=0)
    view, rng = AdversaryView(eng), random.Random(5)
    stream, on_empty = [], []
    for step in range(1, 9):
        if not eng.g.edge_count and eng.state.phi[1] != eng.state.phi[2]:
            on_empty.append(step)
        upd = conflict_adversary(view, rng)
        eng.apply(upd)
        stream.append(f"{upd.op} {upd.u} {upd.v}")
    assert stream == ["+ 1 2", "- 1 2"] * 4
    assert on_empty == [3, 5, 7]
    # the stream's draws are pinned through the next one
    assert rng.random() == 0.5739411879281008


def _pool_conflict_adversary(eng: Engine, rng: random.Random) -> Update:
    """Reference: the pool-building conflict adversary, which reads every
    color class and every member's degree on each step."""
    view = AdversaryView(eng)
    cap = view.delta_cap
    pools = []
    weights = []
    for cls in (tuple(sorted(s)) for s in eng.state.classes[1:] if s):
        es = [u for u in cls if view.degree(u) < cap]
        if len(es) >= 2:
            pools.append(es)
            weights.append(len(es) * (len(es) - 1) // 2)
    total = sum(weights)
    if total:
        for _ in range(20):
            idx = rng.randrange(total)
            for es, w in zip(pools, weights):
                if idx < w:
                    u, v = rng.sample(es, 2)
                    break
                idx -= w
            if not view.has_edge(u, v):
                return Update("+", min(u, v), max(u, v))
    e = view.random_edge(rng)
    if e is not None:
        return Update("-", *e)
    for _ in range(10000):
        u, v = rng.sample(range(1, view.n + 1), 2)
        if not view.has_edge(u, v) and view.degree(u) < cap and view.degree(v) < cap:
            return Update("+", min(u, v), max(u, v))
    raise RuntimeError("no valid update exists")


def _capped_naive_engine() -> Engine:
    """Naive engine on a graph filled to its cap: most vertices are capped."""
    return Engine(60, 6, Config(zeta=3), seed=1, initial_edges=random_graph(60, 6, 1.0, 1))


def _complete_engine() -> Engine:
    """K_26 at cap 25: every color is distinct, so every step deletes."""
    n = 26
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Engine(n, n - 1, Config(zeta=3), seed=2, mode="naive", initial_edges=edges)


@pytest.mark.parametrize(
    "build, seed, shares_capped",
    [
        (_capped_naive_engine, 11, True),
        (lambda: planted_engine(seed=3, zeta=320)[0], 12, True),
        (_complete_engine, 13, False),
    ],
    ids=["naive-capped", "phased-planted", "complete"],
)
def test_conflict_adversary_matches_pool_reference(build, seed, shares_capped):
    eng = build()
    view = AdversaryView(eng)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    # steps at which a capped vertex shares its color class, so the
    # capped-vertex set decides which class members are eligible
    capped_in_shared_class = 0
    for _ in range(300):
        st = eng.state
        capped_in_shared_class += any(
            len(st.classes[st.phi[v]]) >= 2 for v in eng.g.full
        )
        expected = _pool_conflict_adversary(eng, ref_rng)
        assert conflict_adversary(view, rng) == expected
        assert rng.getstate() == ref_rng.getstate()
        if not shares_capped:
            assert expected.op == "-"
        eng.apply(expected)
    assert (capped_in_shared_class > 0) == shares_capped
    eng.g.assert_consistent()


def test_matching_attacker_joins_matched_pair():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    joinable = [
        (u, v)
        for u, v in view.matched_pairs()
        if not eng.g.has_edge(u, v)
        and eng.g.degree(u) < eng.g.delta_cap
        and eng.g.degree(v) < eng.g.delta_cap
    ]
    if not joinable:
        pytest.skip("no joinable matched pair at this seed")
    upd = matching_attacker(view, DecompositionView(eng), random.Random(0))
    assert upd.op == "+"
    assert (min(upd.u, upd.v), max(upd.u, upd.v)) in [
        (min(a, b), max(a, b)) for a, b in joinable
    ]


def test_matching_attacker_deletes_inside_clique_without_pairs():
    eng, _ = planted_engine(seed=5)
    for v in range(1, eng.g.n + 1):
        if eng.state.matched[v] is not None:
            eng.state.unmatch(v)
    upd = matching_attacker(
        AdversaryView(eng), DecompositionView(eng), random.Random(1)
    )
    assert upd.op == "-"
    ci = eng.decomp.part[upd.u]
    assert ci is not None and ci == eng.decomp.part[upd.v]
    assert eng.g.has_edge(upd.u, upd.v)


def test_matching_attacker_without_cliques_repeats_the_conflict_stream():
    # a naive engine has no cliques and no matched pairs, so every step
    # falls through to the conflict adversary with the same rng
    edges = random_graph(60, 12, 0.8, seed=1)
    streams = {}
    for kind in ("conflict", "matching"):
        eng = Engine(60, 12, Config(zeta=3), seed=1, mode="naive", initial_edges=edges)
        assert DecompositionView(eng).clique_count() == 0
        streams[kind] = []
        for upd in adversary_stream(kind, eng, 300, seed=1):
            streams[kind].append(upd)
            eng.apply(upd)
    assert streams["matching"] == streams["conflict"]
    assert {upd.op for upd in streams["conflict"]} == {"+", "-"}


def test_adversary_stream_oblivious_is_the_seeded_walk_and_unknown_kinds_fail():
    eng = Engine(30, 8, Config(), seed=1)
    stream = list(adversary_stream("oblivious", eng, 50, seed=7))
    assert stream == oblivious_adversary(30, 8, 50, 0.5, 7)
    with pytest.raises(ValueError, match="unknown adversary 'greedy'"):
        adversary_stream("greedy", eng, 50, seed=7)


def test_matched_pairs_index_matches_a_scan_of_matched():
    eng, _ = planted_engine(seed=3, zeta=320, strict=True)
    view, dview = AdversaryView(eng), DecompositionView(eng)
    rng = random.Random(4)
    seen = 0
    for _ in range(200):
        matched = eng.state.matched
        scan = [
            (u, matched[u])
            for u in range(1, eng.g.n + 1)
            if matched[u] is not None and u < matched[u]
        ]
        assert view.matched_pairs() == scan
        seen += len(scan)
        eng.apply(matching_attacker(view, dview, rng))
    assert seen > 0
    assert eng.verify_now() == []


def test_adaptive_runs_stay_clean():
    eng, _ = planted_engine(seed=3, zeta=320, strict=True)
    view = AdversaryView(eng)
    dview = DecompositionView(eng)
    rng = random.Random(9)
    for step in range(120):
        fn = matching_attacker if step % 2 else conflict_adversary
        upd = (
            fn(view, dview, rng) if fn is matching_attacker else fn(view, rng)
        )
        eng.apply(upd)
    assert eng.verify_now() == []


# ---------------------------------------------------------------------------
# read-only views


def test_views_are_sealed():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    with pytest.raises(AttributeError):
        view.n = 3
    dview = DecompositionView(eng)
    with pytest.raises(AttributeError):
        dview.anything = 1


def _spare_sizes(eng: Engine) -> list[int]:
    """Oracle: per color 0..Δ+1 (index 0 unused), how many of its holders
    are below the degree cap, counted from phi and the degrees."""
    g, phi = eng.g, eng.state.phi
    sizes = [0] * (g.delta_cap + 2)
    for u in range(1, g.n + 1):
        if phi[u] is not None and g.degree(u) < g.delta_cap:
            sizes[phi[u]] += 1
    return sizes


def test_view_accessors_match_engine():
    # the capped engine leaves at most one spare holder per color; at
    # density 0.9 spare and capped holders share classes of several
    half_capped = Engine(
        60, 6, Config(zeta=3), seed=1, initial_edges=random_graph(60, 6, 0.9, 1)
    )
    for eng in (_capped_naive_engine(), half_capped):
        g, phi = eng.g, eng.state.phi
        assert any(g.degree(v) == g.delta_cap for v in range(1, g.n + 1))
        view = AdversaryView(eng)
        assert view.n == g.n
        assert view.delta_cap == g.delta_cap
        v = 5
        assert view.degree(v) == g.degree(v)
        sizes = _spare_sizes(eng)
        spares = view._spares
        spares.refresh()
        assert spares.weights == [math.comb(k, 2) for k in sizes]
        assert spares.total == sum(spares.weights)
        for chi in range(1, g.delta_cap + 2):
            spare = [
                u
                for u in range(1, g.n + 1)
                if phi[u] == chi and g.degree(u) < g.delta_cap
            ]
            assert view.spare_members(chi) == spare
            assert sizes[chi] == len(spare)
    assert spares.total > 0


@cache
def _index_instance(delta: int) -> list[tuple[int, int]]:
    return random_graph(96, delta, 1.0, delta)


# Δ + 1 = 64 is a power of two, where the Fenwick descent starts at the
# last color; Δ + 1 = 65 puts one color past the top step
@pytest.mark.parametrize("delta", [63, 64])
@given(data=st.data())
def test_spare_pair_index_matches_brute_force(delta, data):
    eng = Engine(
        96, delta, Config(zeta=3), seed=1, mode="naive",
        initial_edges=_index_instance(delta),
    )
    g = eng.g
    top = delta + 1
    colors = st.one_of(
        st.sampled_from([None, 1, 2, 3, top // 2, top - 1, top]),
        st.integers(1, top),
    )
    view = AdversaryView(eng)
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(
            st.sampled_from(["color", "color", "insert", "delete", "replace", "view"])
        )
        if op == "color":
            eng.state.set_color(data.draw(st.integers(1, g.n)), data.draw(colors))
        elif op == "insert":
            spare = [u for u in range(1, g.n + 1) if u not in g.full]
            free = [
                (u, w) for u in spare for w in spare if u < w and not g.has_edge(u, w)
            ]
            if free:
                g.insert_edge(*data.draw(st.sampled_from(free)))
        elif op == "delete":
            g.delete_edge(*g.edge_at(data.draw(st.integers(0, g.edge_count - 1))))
        elif op == "replace":
            old, eng.state = eng.state, ColoringState(eng.decomp)
            for v in range(1, g.n + 1):
                eng.state.set_color(v, old.phi[v])
            eng.state.matched = list(old.matched)
        else:  # another view takes the watch registration over
            AdversaryView(eng)._spares.refresh()
        if not data.draw(st.booleans()):
            continue
        spares = view._spares
        spares.refresh()
        weights = [math.comb(k, 2) for k in _spare_sizes(eng)]
        assert spares.weights == weights
        assert spares.total == sum(weights)
        if spares.total:
            cum = list(accumulate(weights))
            rs = {0, spares.total - 1}
            rs.update(data.draw(st.lists(st.integers(0, spares.total - 1), max_size=5)))
            for r in rs:
                assert spares.find(r) == bisect_right(cum, r)


def test_conflict_adversary_views_take_turns_on_one_engine():
    """Two views alternate, and then a fresh view per step, across phase
    rebuilds; each re-registers its watch set and matches the reference."""
    for fresh_views in (False, True):
        eng, _ = planted_engine(seed=3, zeta=320)
        views = [AdversaryView(eng), AdversaryView(eng)]
        rng, ref_rng = random.Random(14), random.Random(14)
        runs = eng.meter.fresh_runs
        for step in range(90):
            view = AdversaryView(eng) if fresh_views else views[step // 3 % 2]
            expected = _pool_conflict_adversary(eng, ref_rng)
            assert conflict_adversary(view, rng) == expected
            assert rng.getstate() == ref_rng.getstate()
            eng.apply(expected)
        assert eng.meter.fresh_runs - runs >= 2


# ---------------------------------------------------------------------------
# traces


def test_trace_round_trip(tmp_path):
    stream = oblivious_adversary(25, 5, 300, density=0.5, seed=4)
    p = tmp_path / "walk.trace"
    record_trace(str(p), 25, 5, stream)
    reader = TraceReader(str(p))
    assert (reader.n, reader.delta) == (25, 5)
    assert list(reader) == stream
    # a second iteration yields the same stream (stateless reader)
    assert list(reader) == stream


def test_trace_bad_op_reports_line_number(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("6 3\n+ 1 2\nx 1 2\n")
    reader = TraceReader(str(p))
    with pytest.raises(ParseError) as exc:
        list(reader)
    assert exc.value.lineno == 3


def test_trace_bad_header(tmp_path):
    p = tmp_path / "hdr.trace"
    p.write_text("6\n")
    with pytest.raises(ParseError) as exc:
        TraceReader(str(p))
    assert exc.value.lineno == 1
    p2 = tmp_path / "hdr2.trace"
    p2.write_text("0 3\n")
    with pytest.raises(ParseError):
        TraceReader(str(p2))
    p3 = tmp_path / "hdr3.trace"
    p3.write_text("3000000000 4\n")
    with pytest.raises(ParseError) as exc:
        TraceReader(str(p3))
    assert exc.value.lineno == 1


def test_trace_non_integer_vertex(tmp_path):
    p = tmp_path / "vert.trace"
    p.write_text("6 3\n+ a 2\n")
    with pytest.raises(ParseError) as exc:
        list(TraceReader(str(p)))
    assert exc.value.lineno == 2
