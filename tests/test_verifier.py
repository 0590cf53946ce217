import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor.config import SLACK_COEFF, Config
from dyncolor.decomposition import Decomposition
from dyncolor.instances import fuzz_graph
from dyncolor.report import Violation
from dyncolor.state import ColoringState
from dyncolor.verify import (
    brute_force_sparsity,
    check_balance,
    check_invariants,
    check_proper,
    check_sparse_slack,
    sparse_slacks,
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
    # the numpy sweep lists what a plain scan does: uncolored vertices in
    # id order, then monochromatic edges in slot order
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(2, 30)
        edges, cap = fuzz_graph(n, seed=trial)
        g = build_graph(n, cap, edges)
        state = ColoringState(Decomposition(g))
        for v in range(1, n + 1):
            state.set_color(
                v, rng.choice([None] + list(range(1, cap + 2)))
            )
        phi = state.phi
        scan = [
            Violation("propriety", f"v={v}", "uncolored vertex")
            for v in range(1, n + 1)
            if phi[v] is None
        ] + [
            Violation("propriety", f"edge={{{u},{v}}}", f"both colored {phi[u]}")
            for u, v in g.edges()
            if phi[u] is not None and phi[u] == phi[v]
        ]
        assert check_proper(g, state) == scan


# ---------------------------------------------------------------------------
# invariant sweep corruptions


def test_invariants_clean_after_build():
    eng, _ = planted_engine(seed=5)
    assert check_invariants(eng.g, eng.decomp, eng.state) == []


def test_invariants_flag_matched_asymmetry():
    eng, _ = planted_engine(seed=5)
    pair = next(
        (u, w)
        for u, w in enumerate(eng.state.matched)
        if w is not None and u < w
    )
    eng.state.matched[pair[1]] = None  # break symmetry by hand
    kinds = {v.kind for v in check_invariants(eng.g, eng.decomp, eng.state)}
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
    kinds = {v.kind for v in check_invariants(eng.g, eng.decomp, st_)}
    assert "matched-symmetry" in kinds


def test_invariants_flag_three_holders():
    eng, _ = planted_engine(seed=5)
    st_ = eng.state
    members = sorted(eng.decomp.cliques[0].members)
    chi = st_.phi[members[0]]
    extra = [v for v in members if st_.phi[v] != chi][:2]
    for v in extra:
        st_.set_color(v, chi)
    kinds = {v.kind for v in check_invariants(eng.g, eng.decomp, st_)}
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
    out = check_invariants(eng.g, eng.decomp, st_)
    assert any(v.kind == "matching" for v in out)


def _pair_outside_the_clique(eng):
    # an unmatched clique member matched to a non-adjacent sparser vertex
    st, g, part = eng.state, eng.g, eng.decomp.part
    u = next(v for v in sorted(eng.decomp.cliques[0].members) if st.matched[v] is None)
    x = next(x for x in range(1, g.n + 1) if part[x] is None and not g.has_edge(u, x))
    st.matched[u], st.matched[x] = x, u

    def restore():
        st.matched[u] = st.matched[x] = None

    return restore


def _pair_on_two_colors(eng):
    st = eng.state
    w = st.matched[min(st.matched_lows)]
    chi = st.phi[w]
    st.phi[w] = chi % st.num_colors + 1
    return lambda: st.phi.__setitem__(w, chi)


@pytest.mark.parametrize(
    "details, corrupt",
    [("not co-clique", _pair_outside_the_clique), ("colors differ", _pair_on_two_colors)],
)
def test_invariants_flag_each_matched_pair_fault(details, corrupt):
    eng, _ = planted_engine(seed=5)
    assert eng.verify_now() == []
    restore = corrupt(eng)
    out = check_invariants(eng.g, eng.decomp, eng.state)
    assert ("matched-symmetry", details) in {(x.kind, x.details) for x in out}
    restore()
    assert eng.verify_now() == []


def test_sweep_flags_matched_pair_index_drift():
    eng, _ = planted_engine(seed=5)
    lows = eng.state.matched_lows
    assert lows and eng.verify_now() == []
    u = min(lows)
    lows.discard(u)
    assert [(x.kind, x.location) for x in eng.verify_now()] == [("view-consistency", "matched")]
    lows.add(u)
    assert eng.verify_now() == []


def _drift_class(st, c, v):
    chi = st.phi[v]
    st.classes[chi].discard(v)
    return lambda: st.classes[chi].add(v)


def _drift_clique_class(st, c, v):
    holders = st.clique_classes[c.index][st.phi[v]]
    holders.discard(v)
    return lambda: holders.add(v)


def _drift_palette(st, c, v):
    chi = st.clique_palette[c.index].sorted()[0]
    st.clique_palette[c.index].discard(chi)
    return lambda: st.clique_palette[c.index].add(chi)


def _drift_redundant(st, c, v):
    # a color no member holds
    chi = st.clique_palette[c.index].sorted()[0]
    st.redundant[c.index].add(chi)
    return lambda: st.redundant[c.index].discard(chi)


@pytest.mark.parametrize(
    "details, corrupt",
    [
        ("class drift", _drift_class),
        ("clique class drift", _drift_clique_class),
        ("palette drift", _drift_palette),
        ("redundant drift", _drift_redundant),
    ],
)
def test_sweep_flags_each_view_drift(details, corrupt):
    eng, _ = planted_engine(seed=5)
    st = eng.state
    c = eng.decomp.cliques[0]
    v = next(u for u in sorted(c.members) if st.matched[u] is None)
    assert eng.verify_now() == []
    restore = corrupt(st, c, v)
    assert ("view-consistency", details) in {(x.kind, x.details) for x in eng.verify_now()}
    restore()
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
        verify_fresh_properties(eng.decomp, st_, eng.cfg),
    ):
        flagged = [v for v in out if v.kind == "sparse-balance"]
        assert [v.location for v in flagged] == ["chi=1"]
        assert flagged[0].details.startswith(f"{len(sparse)} > ")


def test_slack_flags_a_sparser_vertex_below_its_floor():
    # vertex 83's 14 sparser neighbors hold 13 colors (95 and 140 share
    # 46), so its slack is 81 - 13 = 68, the least of any sparser vertex.
    # A floor of SLACK_COEFF * gamma * zeta = 3 * 1/3 * 68 clears every
    # vertex until 95 takes color 2, which no sparser neighbor of 83 holds
    eng, _ = planted_engine(seed=5)
    st_ = eng.state
    cfg = Config(epsilon=eng.cfg.epsilon, zeta=68, gamma=Fraction(1, 3))
    assert SLACK_COEFF * cfg.gamma * cfg.zeta == 68
    slacks = sparse_slacks(eng.decomp, st_)
    assert slacks[83] == min(slacks.values()) == 68
    assert st_.phi[95] == st_.phi[140] == 46
    assert check_sparse_slack(eng.decomp, st_, cfg) == []
    st_.set_color(95, 2)
    want = [Violation("sparse-slack", "v=83", "67 < 68")]
    assert check_sparse_slack(eng.decomp, st_, cfg) == want
    fresh = verify_fresh_properties(eng.decomp, st_, cfg)
    assert [v for v in fresh if v.kind == "sparse-slack"] == want


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
