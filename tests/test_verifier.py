import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor.instances import fuzz_graph
from dyncolor.verify import (
    brute_force_sparsity,
    check_balance,
    check_invariants,
    check_proper,
    check_proper_fast,
    verify_fresh_properties,
)

from conftest import build_graph, kernel_sparsity, planted_engine


# ---------------------------------------------------------------------------
# propriety


def test_proper_triangle_three_colors():
    eng, _ = planted_engine(seed=5)
    assert check_proper(eng.g, eng.state) == []


def test_proper_flags_uncolored_vertex():
    eng, _ = planted_engine(seed=5)
    eng.state.set_color(3, None)
    out = check_proper(eng.g, eng.state)
    assert len(out) == 1 and out[0].kind == "propriety"
    assert "v=3" in out[0].location


def test_proper_flags_monochromatic_edge():
    eng, _ = planted_engine(seed=5)
    u, v = next(iter(eng.g.edges()))
    eng.state.set_color(u, eng.state.phi[v])
    out = check_proper(eng.g, eng.state)
    assert out and all(x.kind == "propriety" for x in out)
    assert any(str(u) in x.location and str(v) in x.location for x in out)


def test_proper_fast_agrees_with_slow():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(2, 30)
        edges, cap = fuzz_graph(n, seed=trial)
        g = build_graph(n, cap, edges)
        from dyncolor.decomposition import Decomposition
        from dyncolor.state import ColoringState

        state = ColoringState(Decomposition(g))
        for v in range(1, n + 1):
            state.set_color(
                v, rng.choice([None] + list(range(1, cap + 2)))
            )
        slow = check_proper(g, state)
        fast = check_proper_fast(g, state)
        assert bool(slow) == bool(fast)
        if slow:
            assert sorted(v.location for v in slow) == sorted(
                v.location for v in fast
            )


# ---------------------------------------------------------------------------
# invariant sweep corruptions


def test_invariants_clean_after_build():
    eng, _ = planted_engine(seed=5)
    assert check_invariants(eng.g, eng.decomp, eng.state, eng.cfg) == []


def test_invariants_flag_matched_asymmetry():
    eng, _ = planted_engine(seed=5)
    pair = next(
        (u, w)
        for u, w in enumerate(eng.state.matched)
        if w is not None and u < w
    )
    eng.state.matched[pair[1]] = None  # break symmetry by hand
    kinds = {v.kind for v in check_invariants(eng.g, eng.decomp, eng.state, eng.cfg)}
    assert "matched-symmetry" in kinds


def test_invariants_flag_adjacent_matched_pair():
    eng, _ = planted_engine(seed=5)
    st_ = eng.state
    members = sorted(eng.decomp.cliques[0].members)
    u, w = next(
        (a, b)
        for a in members
        for b in members
        if a < b and eng.g.has_edge(a, b) and st_.matched[a] is None
        and st_.matched[b] is None
    )
    st_.matched[u], st_.matched[w] = w, u
    kinds = {v.kind for v in check_invariants(eng.g, eng.decomp, st_, eng.cfg)}
    assert "matched-symmetry" in kinds


def test_invariants_flag_three_holders():
    eng, _ = planted_engine(seed=5)
    st_ = eng.state
    members = sorted(eng.decomp.cliques[0].members)
    chi = st_.phi[members[0]]
    extra = [v for v in members if st_.phi[v] != chi][:2]
    for v in extra:
        st_.set_color(v, chi)
    kinds = {v.kind for v in check_invariants(eng.g, eng.decomp, st_, eng.cfg)}
    assert "dense-balance" in kinds


def test_invariants_flag_matching_deficit():
    eng, _ = planted_engine(seed=5)
    st_ = eng.state
    u = next(
        v for v in range(1, eng.g.n + 1) if st_.matched[v] is not None
    )
    w = st_.matched[u]
    st_.unmatch(u)
    st_.set_color(w, None)  # drop the duplicate holder too
    out = check_invariants(eng.g, eng.decomp, st_, eng.cfg)
    assert any(v.kind == "matching" for v in out)


def test_sweep_flags_matched_pair_index_drift():
    eng, _ = planted_engine(seed=5)
    lows = eng.state.matched_lows
    assert lows and eng.verify_now() == []
    u = min(lows)
    lows.discard(u)
    assert [(x.kind, x.location) for x in eng.verify_now()] == [("view-consistency", "matched")]
    lows.add(u)
    assert eng.verify_now() == []


# ---------------------------------------------------------------------------
# decomposition drift


def _corrupt_ext(d, c, v):
    # rebinds E(v), since v may hold the shared decomposition.NO_EXT
    ext = d.ext[v]
    d.ext[v] = ext | {max(c.members - {v})}
    return lambda: d.ext.__setitem__(v, ext)


def _corrupt_sum_ext(d, c, v):
    c.sum_ext += 1
    return lambda: setattr(c, "sum_ext", c.sum_ext - 1)


def _corrupt_anti_edges(d, c, v):
    pair = c.anti_edges.sorted()[0]
    c.anti_edges.discard(pair)
    return lambda: c.anti_edges.add(pair)


def _corrupt_part(d, c, v):
    d.part[v] = None
    return lambda: d.part.__setitem__(v, c.index)


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("ext-set", _corrupt_ext),
        ("aggregate", _corrupt_sum_ext),
        ("anti-edge-set", _corrupt_anti_edges),
        ("partition", _corrupt_part),
    ],
)
def test_sweep_flags_each_drift_fact(kind, corrupt):
    eng, _ = planted_engine(seed=5)
    d = eng.decomp
    c = d.cliques[0]
    v = next(u for u in sorted(c.members) if eng.state.matched[u] is None)
    assert eng.verify_now() == []
    restore = corrupt(d, c, v)
    assert kind in {x.kind for x in eng.verify_now()}
    restore()
    assert eng.verify_now() == []


# ---------------------------------------------------------------------------
# balance sweep


def test_balance_clean_right_after_fresh():
    eng, _ = planted_engine(seed=5)
    assert check_balance(eng.state, eng.cfg) == []


def test_balance_flags_overfull_sparse_class():
    # zeta=320 puts the class cap at 8*(160/320 + 8) = 68 < |S|
    eng, _ = planted_engine(seed=5, zeta=320)
    st_ = eng.state
    sparse = [v for v in range(1, eng.g.n + 1) if eng.decomp.part[v] is None]
    assert check_balance(st_, eng.cfg) == []
    for v in sparse:
        st_.set_color(v, 1)
    for out in (
        check_balance(st_, eng.cfg),
        verify_fresh_properties(eng.g, eng.decomp, st_, eng.cfg),
    ):
        flagged = [v for v in out if v.kind == "sparse-balance"]
        assert [v.location for v in flagged] == ["chi=1"]
        assert flagged[0].details.startswith(f"{len(sparse)} > ")


# ---------------------------------------------------------------------------
# sparsity oracle equivalence


@given(st.integers(0, 100_000))
@settings(max_examples=60)
def test_sparsity_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    edges, cap = fuzz_graph(n, seed=seed)
    g = build_graph(n, cap, edges)
    assert kernel_sparsity(g) == [brute_force_sparsity(g, v) for v in range(1, n + 1)]
