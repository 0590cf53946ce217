import dataclasses
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import config as config_mod, decomposition as decomposition_mod
from dyncolor.config import Config
from dyncolor.decomposition import (
    NO_EXT,
    Decomposition,
    DecompositionFailed,
    all_neighborhood_edge_counts,
    certify_sparse_pool,
    check_drift,
    compute_acd,
    refine_to_sparser_denser,
    validate_decomposition,
)
from dyncolor.graph import DynamicGraph
from dyncolor.instances import fuzz_graph, mixed_graph, planted_clique_graph, random_graph
from dyncolor.verify import brute_acd, brute_force_sparsity, brute_partition

from conftest import build_graph, dense_cfg, kernel_sparsity


# ---------------------------------------------------------------------------
# sparsity


def test_sparsity_star_center():
    # center of a star at full degree, no edges among leaves
    delta = 10
    g = DynamicGraph(delta + 1, delta)
    for leaf in range(2, delta + 2):
        g.insert_edge(1, leaf)
    assert brute_force_sparsity(g, 1) == Fraction(delta - 1, 2)


def test_sparsity_complete_graph():
    delta = 6
    g = DynamicGraph(delta + 1, delta)
    for u in range(1, delta + 2):
        for v in range(u + 1, delta + 2):
            g.insert_edge(u, v)
    assert brute_force_sparsity(g, 1) == 0


def test_sparsity_matches_brute_force_random():
    edges = random_graph(30, 12, 0.4, seed=5)
    g = build_graph(30, 12, edges)
    assert kernel_sparsity(g) == [brute_force_sparsity(g, v) for v in range(1, 31)]


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_sparsity_oracle_equivalence_fuzz(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 32)
    cap = rng.randint(2, n - 1)
    edges = random_graph(n, cap, rng.uniform(0.05, 0.9), seed=seed)
    g = build_graph(n, cap, edges)
    assert kernel_sparsity(g) == [brute_force_sparsity(g, v) for v in range(1, n + 1)]


def test_neighborhood_edge_counts_bitsets_vs_loops():
    edges = random_graph(25, 10, 0.5, seed=9)
    g = build_graph(25, 10, edges)
    m = all_neighborhood_edge_counts(g)
    for v in range(1, 26):
        nbrs = sorted(g.adj[v])
        expect = sum(
            1
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1 :]
            if g.has_edge(a, b)
        )
        assert m[v - 1] == expect


# ---------------------------------------------------------------------------
# compute_acd


def _complete_blocks(num: int, size: int) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for b in range(num):
        base = b * size
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                edges.append((base + i, base + j))
    return num * size, edges


def test_acd_disjoint_cliques():
    delta = 20
    n, edges = _complete_blocks(3, delta + 1)
    g = build_graph(n, delta, edges)
    raw = compute_acd(g, dense_cfg())
    assert raw.sparse == set()
    assert len(raw.candidates) == 3
    assert sorted(map(len, raw.candidates)) == [21, 21, 21]


def test_acd_floors_are_inclusive():
    # K_8 blocks under delta = 8, eps = 1/8: two members share 6 = ceil(3/4 * 8)
    # neighbors and each has 7 = ceil(7/8 * 8) neighbors inside its block, so
    # both the friendship and the intra-degree test sit exactly on their floor
    delta = 8
    n, edges = _complete_blocks(3, delta)
    g = build_graph(n, delta, edges)
    raw = compute_acd(g, dense_cfg())
    assert raw.sparse == set()
    assert raw.candidates == [set(range(1, 9)), set(range(9, 17)), set(range(17, 25))]


def test_acd_bipartite_all_sparse():
    # bipartite neighborhoods are independent sets, so everything is sparse
    rng = random.Random(11)
    n, delta = 40, 20
    left, right = range(1, 21), range(21, 41)
    g = DynamicGraph(n, delta)
    for u in left:
        for v in right:
            if rng.random() < 0.6 and g.degree(u) < delta and g.degree(v) < delta:
                g.insert_edge(u, v)
    cfg = dense_cfg()
    raw = compute_acd(g, cfg)
    assert raw.candidates == []
    assert raw.sparse == set(range(1, n + 1))
    floor_val = cfg.sparsity_floor() * delta
    for v in range(1, n + 1):
        assert brute_force_sparsity(g, v) >= floor_val


def test_acd_planted_cluster_recovered():
    delta = 20
    n = 60
    edges, planted = planted_clique_graph(
        n, delta, seed=2, clique_size=delta + 1,
        anti_edges_per_clique=10, noise_avg_deg=2.0,
    )
    g = build_graph(n, delta, edges)
    cfg = dense_cfg()
    raw = compute_acd(g, cfg)
    assert len(raw.candidates) == 1
    assert raw.candidates[0] == planted[0]
    d = refine_to_sparser_denser(raw, g, cfg)
    assert validate_decomposition(d, g, cfg) == []


def test_acd_certify_failure():
    # with epsilon = 1/110 and delta = 20, the similarity floor
    # ceil((1 - 2*eps) * delta) = 20 exceeds the overlap delta - 1 = 19 of
    # adjacent K_21 members, so the clustering misses the clique; the
    # pooled clique vertices have sparsity 0 and fail certification
    delta = 20
    n, edges = _complete_blocks(1, delta + 1)
    g = build_graph(n, delta, edges)
    cfg = Config(epsilon=Fraction(1, 110), zeta=1)
    # the clustering alone degrades to an all-sparse pool
    raw = compute_acd(g, cfg)
    assert raw.candidates == []
    assert raw.sparse == set(range(1, n + 1))
    with pytest.raises(DecompositionFailed, match=r"^21 .* \(first: \[1, 2, 3, 4, 5\]\)$"):
        certify_sparse_pool(g, cfg, raw)


def test_certify_counts_only_vertices_the_degree_bound_admits(monkeypatch):
    # delta = 8, eps = 1/8: a pooled vertex fails with more than
    # 8*7/2 - 8*(8/64) = 27 edges in its neighborhood.  A star centre of
    # degree 8 could hold 28, so its (zero) edges are counted; at degree 7
    # it holds at most 21 and certifies without counting
    calls = []
    counts = decomposition_mod.all_neighborhood_edge_counts

    def counting(g):
        calls.append(g.n)
        return counts(g)

    monkeypatch.setattr(decomposition_mod, "all_neighborhood_edge_counts", counting)
    delta = 8
    g = build_graph(10, delta, [(1, leaf) for leaf in range(2, delta + 2)])
    cfg = dense_cfg()
    assert brute_force_sparsity(g, 1) == Fraction(delta - 1, 2) >= cfg.sparsity_floor() * delta
    raw = compute_acd(g, cfg)
    assert raw.sparse == set(range(1, 11))
    certify_sparse_pool(g, cfg, raw)
    assert calls == [10]
    certify_sparse_pool(g, cfg, dataclasses.replace(raw, sparse=raw.sparse - {1}))
    g.delete_edge(1, delta + 1)
    raw = compute_acd(g, cfg)
    assert raw.sparse == set(range(1, 11))
    certify_sparse_pool(g, cfg, raw)
    assert calls == [10]


def _oracle_instance(kind: str, seed: int) -> tuple[int, int, list[tuple[int, int]]]:
    rng = random.Random(seed)
    if kind == "random":
        n = rng.randint(4, 60)
        cap = rng.randint(1, n - 1)
        return n, cap, random_graph(n, cap, rng.uniform(0.05, 1.0), seed)
    if kind == "fuzz":
        n = rng.randint(2, 40)
        edges, cap = fuzz_graph(n, seed)
        return n, cap, edges
    # small caps put clique overlaps right on the similarity floor; larger
    # ones let near-cliques with anti-edges clear the degree floor
    cap = rng.randint(6, 40)
    n = rng.randint(2 * cap, 4 * cap)
    if kind == "mixed":
        return n, cap, mixed_graph(n, cap, seed)[0]
    size = rng.randint(cap - 2, cap + 1)
    edges, _ = planted_clique_graph(
        n, cap, seed, num_cliques=rng.randint(1, n // size), clique_size=size,
        anti_edges_per_clique=rng.randint(0, cap // 2), noise_avg_deg=rng.uniform(0, 4),
        cross_avg_deg=rng.uniform(0, 2),
    )
    return n, cap, edges


@given(
    st.sampled_from(["random", "mixed", "planted", "fuzz"]),
    st.integers(0, 10_000),
    st.sampled_from([Fraction(1, 7), Fraction(1, 8), Fraction(1, 12)]),
    st.booleans(),
)
@settings(max_examples=60)
def test_acd_and_edge_counts_match_set_oracles(kind, seed, eps, permuted):
    n, cap, edges = _oracle_instance(kind, seed)
    g = build_graph(n, cap, edges)
    if permuted:
        # a delete moves the last slot into the hole and an insert appends,
        # so the kernels read the same edges in another slot order
        rng = random.Random(seed)
        stream = rng.sample(edges, len(edges) // 2)
        for u, v in stream:
            g.delete_edge(u, v)
        for u, v in rng.sample(stream, len(stream)):
            g.insert_edge(u, v)
        assert sorted(g.edges()) == sorted((min(e), max(e)) for e in edges)
    cfg = Config(epsilon=eps, zeta=1)
    raw = compute_acd(g, cfg)
    brute = brute_acd(g, cfg)
    assert raw == brute  # same sparse set, same candidates in order
    # members are inserted in ascending id, which fixes the iteration
    # order the anti-edge sampling inherits
    assert all(list(c) == list(set(sorted(c))) for c in raw.candidates)
    assert raw.deg.tolist() == brute.deg.tolist()
    members = [v for c in raw.candidates for v in c]
    assert raw.intra[members].tolist() == brute.intra[members].tolist()
    assert kernel_sparsity(g) == [brute_force_sparsity(g, v) for v in range(1, n + 1)]
    # certification fails exactly when some pooled vertex is below the floor
    floor_val = cfg.sparsity_floor() * cap
    below = [v for v in sorted(raw.sparse) if brute_force_sparsity(g, v) < floor_val]
    if below:
        message = f"{len(below)} unclustered vertices below the sparsity floor (first: {below[:5]})"
        with pytest.raises(DecompositionFailed, match=f"^{re.escape(message)}$"):
            certify_sparse_pool(g, cfg, raw)
    else:
        certify_sparse_pool(g, cfg, raw)


def test_acd_peak_memory_stays_chunked():
    # the similarity step holds bit rows of the core and fixed-size chunks
    # of their pairwise ANDs, never a core x n matrix
    edges, _ = mixed_graph(2048, 128, seed=1)
    g = build_graph(2048, 128, edges)
    cfg = Config(epsilon=Fraction(1, 8), zeta=320)
    tracemalloc.start()
    try:
        raw = compute_acd(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(raw.candidates) == 8
    assert peak < 12 * 2**20


def test_acd_second_round_joins_what_smallest_neighbors_miss():
    # two K_8 blocks joined by the non-friend edges (1, 9), (2, 10) and
    # (3, 11): the smallest core neighbor of 9, 10 and 11 lies in the
    # other block and shares no neighbor with them, and only 12..16 test
    # against a vertex of their own block (9).  The first round leaves
    # {9, 12..16}, 6 < 7 vertices, plus two singletons; only the second
    # round's tests of the edges between them recover the block
    delta = 8
    n, edges = _complete_blocks(2, delta)
    g = build_graph(n, delta, edges + [(1, 9), (2, 10), (3, 11)])
    cfg = dense_cfg()
    raw = compute_acd(g, cfg)
    assert raw.candidates == [set(range(1, 9)), set(range(9, 17))]
    assert raw.sparse == set()
    assert raw == brute_acd(g, cfg)


def test_acd_member_order_matches_oracle_on_scattered_ids():
    # a random relabelling scatters each near-clique over the id range, so
    # members share slots of the set's hash table and its iteration order,
    # which the anti-edge sampling inherits, depends on insertion order;
    # members are inserted in ascending id, as the oracle inserts them
    n, cap = 600, 40
    edges, _ = mixed_graph(n, cap, seed=3)
    perm = list(range(1, n + 1))
    random.Random(3).shuffle(perm)
    g = build_graph(n, cap, [(perm[u - 1], perm[v - 1]) for u, v in edges])
    cfg = dense_cfg()
    raw = compute_acd(g, cfg)
    brute = brute_acd(g, cfg)
    assert raw == brute and raw.candidates
    assert [list(c) for c in raw.candidates] == [list(set(sorted(c))) for c in brute.candidates]
    assert any(list(c) != sorted(c) for c in raw.candidates)


def test_acd_popcounts_few_core_pairs(monkeypatch):
    # the instance below holds 62,952 core edges; the spanning forest
    # popcounts a small fraction of them, in one call per round
    pairs = []
    overlaps = decomposition_mod._row_overlaps

    def counting(bits, i, j):
        pairs.append(len(i))
        return overlaps(bits, i, j)

    monkeypatch.setattr(decomposition_mod, "_row_overlaps", counting)
    edges, _ = mixed_graph(2048, 128, seed=1)
    g = build_graph(2048, 128, edges)
    raw = compute_acd(g, Config(epsilon=Fraction(1, 8), zeta=320))
    assert len(raw.candidates) == 8
    assert len(pairs) == 2
    assert 0 < sum(pairs) < 1_500


# ---------------------------------------------------------------------------
# refinement


def _raw_single(members, sparse, g, cfg):
    return brute_partition(g, set(sparse), [set(members)])


def test_refine_keeps_tight_clique():
    delta = 8
    n, edges = _complete_blocks(1, delta + 1)
    g = build_graph(n, delta, edges)
    cfg = dense_cfg()
    raw = compute_acd(g, cfg)
    d = refine_to_sparser_denser(raw, g, cfg)
    assert len(d.cliques) == 1
    assert d.cliques[0].sum_anti == 0
    assert d.cliques[0].sum_ext == 0
    assert d.sparse_vertices == []


def test_refine_dissolves_at_boundary(monkeypatch):
    # the dissolution test is inclusive: a_C + e_C == threshold dissolves.
    # K_9 minus one edge has a_C = 2/9 and e_C = 0; DELTA_CONST is tuned
    # so the threshold 50*zeta/(DELTA_CONST*eps^2) equals 2/9 exactly.
    delta = 8
    n, edges = _complete_blocks(1, delta + 1)
    g = build_graph(n, delta, edges)
    g.delete_edge(1, 2)
    raw = compute_acd(g, dense_cfg())
    assert len(raw.candidates) == 1

    cfg = Config(epsilon=Fraction(1, 8), zeta=1)
    monkeypatch.setattr(config_mod, "DELTA_CONST", 14400)
    assert cfg.dissolve_threshold() == Fraction(2, 9)
    d = refine_to_sparser_denser(raw, g, cfg)
    assert d.cliques == []
    assert set(d.sparse_vertices) == set(range(1, n + 1))

    # just below the boundary the clique is retained
    monkeypatch.setattr(config_mod, "DELTA_CONST", 14399)
    assert cfg.dissolve_threshold() > Fraction(2, 9)
    d2 = refine_to_sparser_denser(raw, g, cfg)
    assert len(d2.cliques) == 1


def test_refine_retained_cliques_below_threshold():
    # no retained clique may sit at or above the dissolution threshold,
    # and every sparse-pool vertex must clear the certification floor
    delta = 24
    edges, _ = planted_clique_graph(
        70, delta, seed=4, clique_size=delta + 1,
        anti_edges_per_clique=10, noise_avg_deg=3.0,
    )
    g = build_graph(70, delta, edges)
    cfg = dense_cfg(zeta=1)
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    threshold = cfg.dissolve_threshold()
    for c in d.cliques:
        assert Fraction(c.sum_anti + c.sum_ext, c.size) < threshold
    floor_val = cfg.sparsity_floor() * delta
    for v in d.sparse_vertices:
        assert brute_force_sparsity(g, v) >= floor_val


def test_exact_aggregates_and_anti_edges():
    eng_edges, planted = planted_clique_graph(
        50, 20, seed=6, clique_size=21, anti_edges_per_clique=8,
        noise_avg_deg=2.0,
    )
    g = build_graph(50, 20, eng_edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    assert len(d.cliques) == 1
    c = d.cliques[0]
    # identity deg(v) + 1 = |D| + e_v - a_v for every member
    for v in sorted(c.members):
        assert g.degree(v) + 1 == c.size + len(d.ext[v]) - d.a_v(v)
    # |F_D| = a_D * |D| / 2 exactly
    assert 2 * len(c.anti_edges) == sum(d.a_v(v) for v in c.members)
    assert validate_decomposition(d, g, cfg) == []


# ---------------------------------------------------------------------------
# inliers


def test_inliers_all_when_no_deviation():
    delta = 8
    n, edges = _complete_blocks(1, delta + 1)
    g = build_graph(n, delta, edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    c = d.cliques[0]
    assert all(d.is_inlier(v) for v in c.members)


def test_inlier_boundary_is_inclusive():
    from dyncolor.decomposition import Clique
    from dyncolor.sets import SampleSet

    # 8 members; one vertex holds a_v = 8 * a_D exactly -> still an inlier.
    # Four anti-edges make sum_anti = 8, so a_D = 1 and 8*a_D = 8 = a_1
    members = set(range(1, 9))
    anti_edges = SampleSet([(1, 2), (3, 4), (5, 6), (7, 8)])
    c = Clique(index=0, members=members, anti_edges=anti_edges)
    assert c.sum_anti == 8
    assert c.admits_inlier(0, 8)
    assert not c.admits_inlier(0, 9)


def test_inliers_match_direct_comparison_and_markov():
    edges, _ = planted_clique_graph(
        60, 24, seed=8, clique_size=25, anti_edges_per_clique=12,
        noise_avg_deg=3.0,
    )
    g = build_graph(60, 24, edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    for c in d.cliques:
        expect = {
            v
            for v in c.members
            if len(d.ext[v]) * c.size <= 8 * c.sum_ext
            and d.a_v(v) * c.size <= 8 * c.sum_anti
        }
        inliers = {v for v in c.members if d.is_inlier(v)}
        assert inliers == expect
        assert len(inliers) * 4 >= 3 * c.size


# ---------------------------------------------------------------------------
# validation and drift


def test_validator_accepts_refined_output():
    eng_edges, _ = planted_clique_graph(
        80, 30, seed=12, clique_size=31, anti_edges_per_clique=6,
        noise_avg_deg=4.0,
    )
    g = build_graph(80, 30, eng_edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    assert len(d.cliques) == 1
    assert validate_decomposition(d, g, cfg) == []


def test_validator_flags_dense_vertex_in_sparse_set():
    delta = 10
    n, edges = _complete_blocks(1, delta + 1)
    g = build_graph(n, delta, edges)
    d = Decomposition(g)  # everything sparse, including K vertices
    cfg = dense_cfg(zeta=1)
    kinds = {v.kind for v in validate_decomposition(d, g, cfg)}
    assert kinds == {"sparsity"}


def test_validator_flags_injected_corruptions():
    eng_edges, _ = planted_clique_graph(
        50, 20, seed=3, clique_size=21, anti_edges_per_clique=4,
        noise_avg_deg=2.0,
    )
    g = build_graph(50, 20, eng_edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    c = d.cliques[0]
    v = min(c.members)
    # corrupt E(v): rebind it, since v may hold the shared NO_EXT
    ext = d.ext[v]
    d.ext[v] = ext | {max(c.members)}
    kinds = {x.kind for x in validate_decomposition(d, g, cfg)}
    assert "ext-set" in kinds
    d.ext[v] = ext
    # corrupt the aggregate
    c.sum_ext += 1
    kinds = {x.kind for x in validate_decomposition(d, g, cfg)}
    assert "aggregate" in kinds
    c.sum_ext -= 1
    # grow the clique past its size cap with two outside vertices
    extra = set(sorted(set(range(1, 51)) - c.members)[:2])
    assert c.size + 2 > cfg.acd_floors(20)[2]
    c.members |= extra
    kinds = {x.kind for x in validate_decomposition(d, g, cfg)}
    assert "clique-size" in kinds
    c.members -= extra
    # push a_D + e_D past the dissolve threshold
    bump = int(cfg.dissolve_threshold() * c.size) + 1
    c.sum_ext += bump
    kinds = {x.kind for x in validate_decomposition(d, g, cfg)}
    assert "avg-threshold" in kinds
    c.sum_ext -= bump
    assert validate_decomposition(d, g, cfg) == []


def test_drift_matches_recomputation():
    eng_edges, planted = planted_clique_graph(
        60, 24, seed=14, clique_size=25, anti_edges_per_clique=10,
        noise_avg_deg=3.0,
    )
    g = build_graph(60, 24, eng_edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    rng = random.Random(0)
    members = sorted(planted[0])
    outside = [v for v in range(1, 61) if v not in planted[0]]
    for _ in range(200):
        u = rng.choice(members)
        v = rng.choice(members + outside)
        if u == v:
            continue
        if g.has_edge(u, v):
            g.delete_edge(u, v)
            d.apply_delete(u, v)
        elif g.degree(u) < 24 and g.degree(v) < 24:
            g.insert_edge(u, v)
            d.apply_insert(u, v)
    viols = validate_decomposition(d, g, cfg)
    # membership is frozen so intra-degree/threshold clauses may drift;
    # the maintained sets and aggregates must not
    assert not [
        x
        for x in viols
        if x.kind in ("ext-set", "anti-set", "aggregate", "anti-edge-set")
    ]


def test_members_without_external_neighbors_share_one_empty_set():
    # two planted cliques with cross edges, so some members have external
    # neighbors and some have none
    n, cap = 90, 24
    edges, _ = planted_clique_graph(
        n, cap, seed=14, num_cliques=2, clique_size=25, anti_edges_per_clique=10,
        noise_avg_deg=3.0, cross_avg_deg=1.5,
    )
    g = build_graph(n, cap, edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    members = sorted(v for c in d.cliques for v in c.members)
    bare = [v for v in members if g.adj[v] <= d.cliques[d.part[v]].members]
    linked = [v for v in members if v not in bare]
    assert bare and linked
    assert isinstance(NO_EXT, frozenset) and not NO_EXT
    assert all(d.ext[v] is NO_EXT for v in bare)
    assert len({id(d.ext[v]) for v in linked}) == len(linked)
    # an external insert gives that member its own set and no other
    v = next(v for v in bare if g.degree(v) < cap)
    w = next(w for w in d.sparse_vertices if g.degree(w) < cap)
    g.insert_edge(v, w)
    d.apply_insert(v, w)
    assert type(d.ext[v]) is set and d.ext[v] == {w}
    assert all(d.ext[u] is NO_EXT for u in bare if u != v)
    assert check_drift(d) == []
    rng = random.Random(14)
    for _ in range(300):
        u = rng.choice(members)
        x = rng.randint(1, n)
        if u == x:
            continue
        if g.has_edge(u, x):
            g.delete_edge(u, x)
            d.apply_delete(u, x)
        elif g.degree(u) < cap and g.degree(x) < cap:
            g.insert_edge(u, x)
            d.apply_insert(u, x)
        assert check_drift(d) == []


@pytest.mark.parametrize("seed", [14, 15, 17])
def test_member_counts_track_drift_step_by_step(seed):
    # two planted cliques with cross edges: updates land inside a clique,
    # between the cliques and between a clique and the sparse rest
    n, cap = 90, 24
    edges, _ = planted_clique_graph(
        n, cap, seed=seed, num_cliques=2, clique_size=25, anti_edges_per_clique=10,
        noise_avg_deg=3.0, cross_avg_deg=1.5,
    )
    g = build_graph(n, cap, edges)
    cfg = dense_cfg()
    d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
    assert len(d.cliques) == 2
    rng = random.Random(seed)
    kinds = set()
    for _ in range(300):
        c = rng.choice(d.cliques)
        u = rng.choice(sorted(c.members))
        v = rng.choice(sorted(c.members)) if rng.random() < 0.5 else rng.randint(1, n)
        if u == v:
            continue
        if g.has_edge(u, v):
            g.delete_edge(u, v)
            d.apply_delete(u, v)
        elif g.degree(u) < cap and g.degree(v) < cap:
            g.insert_edge(u, v)
            d.apply_insert(u, v)
        else:
            continue
        kinds.add((g.has_edge(u, v), v in c.members))
        for c in d.cliques:
            anti = {w: len(c.members - g.adj[w] - {w}) for w in c.members}
            ext = {w: len(g.adj[w] - c.members) for w in c.members}
            assert (c.sum_anti, c.sum_ext) == (sum(anti.values()), sum(ext.values()))
            for w in c.members:
                assert d.a_v(w) == anti[w]
                assert len(d.ext[w]) == ext[w]
                assert sum(w in pair for pair in c.anti_edges) == anti[w]
                assert d.is_inlier(w) == c.admits_inlier(ext[w], anti[w])
    # inserts and deletes, each inside a clique and across its boundary
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
