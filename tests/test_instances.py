"""random_graph against the plain randint loop it replaced, and pinned outputs
of random_graph and planted_clique_graph."""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncolor import instances
from dyncolor.instances import (
    fuzz_graph,
    mixed_graph,
    planted_clique_graph,
    random_graph,
    random_sparse_graph,
)


def _reference_random_graph(
    n: int, delta_cap: int, density: float, seed: int
) -> list[tuple[int, int]]:
    """~density * n * delta_cap / 2 random edges under the degree cap."""
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    target = int(density * n * delta_cap / 2)
    edges: set[tuple[int, int]] = set()
    deg = [0] * (n + 1)
    misses = 0
    while len(edges) < target and misses < 50 * target + 1000:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in edges or deg[u] >= delta_cap or deg[v] >= delta_cap:
            misses += 1
            continue
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    return sorted(edges)


def _digest(edges: list[tuple[int, int]]) -> str:
    return hashlib.sha256(repr(edges).encode()).hexdigest()


# sha256 of repr(edge list), recorded from the randint loop above
PINNED = [
    (lambda: random_graph(512, 128, 0.8, 1),
     "28c74908721aa04370dfcb28e9a81926868ff89c807dcd73b4825470b811b644"),
    (lambda: random_graph(1000, 999, 0.3, 2),
     "04cceeb853ac60450b11114f36e7658acdc626c1b968f90212ed8adef6fc7f36"),
    (lambda: random_sparse_graph(600, 40, 6.0, 3),
     "d408113dc5d9232a5690b12529ec7ed1a81b60174079559f5ba78e05eff16216"),
    (lambda: fuzz_graph(40, 4)[0],
     "4bd7ca501161b4f1fe76b98611c0344d8418937ad876f4023834d849aab0bb9b"),
    # the naive-conflict benchmark instance
    (lambda: random_graph(2048, 512, 0.8, 1),
     "da7fc63f25eec9676e164123dd5275d1204af47e3dd51557f3f9b9dffa33400a"),
]

# sha256 of repr(edge list), recorded before planted_clique_graph's two
# rejection loops were folded into one helper; the last case is cap-tight,
# so its cross loop ends at the miss limit with 16 of 36 edges placed
PINNED_PLANTED = [
    (lambda: mixed_graph(512, 64, 3)[0],
     "8c6f3adf20c8ed20e612acaead5fd3425d13865902e436468eb016dd06c46c90"),
    (lambda: planted_clique_graph(
        160, 80, 1000, clique_size=78, anti_edges_per_clique=30,
        noise_avg_deg=6.0, cross_avg_deg=1.5)[0],
     "728e2b7dd3a3c6efce3e3ce1b8afaaf8bcbf8a92c7eb7e41bd7793c0a3f6cf7e"),
    (lambda: planted_clique_graph(
        30, 6, 5, num_cliques=2, clique_size=6, anti_edges_per_clique=1,
        noise_avg_deg=2.0, cross_avg_deg=4.0)[0],
     "f024d6027cc14b332ec27a1e9747599897409402c250519e597c0d7f68e7f2b9"),
]

# tracemalloc peak of random_graph(1024, 256, 0.8, 1) under the randint loop
REFERENCE_PEAK_BYTES = 16_254_360


@pytest.mark.parametrize("make, digest", PINNED)
def test_pinned_edge_digests(make, digest):
    assert _digest(make()) == digest


@pytest.mark.parametrize("make, digest", PINNED_PLANTED)
def test_pinned_planted_edge_digests(make, digest):
    assert _digest(make()) == digest


def _grid():
    # the rejection width k = n.bit_length() changes at each power of two;
    # caps 1 and n // 4 bind, so the miss limit ends those loops.  Past
    # n = 65, density 1.0 runs at cap 1 only: each larger cap there costs
    # the reference loop about a second.
    for n in (2, 3, 31, 32, 33, 63, 64, 65, 255, 256, 257):
        for cap in sorted({1, max(1, n // 4), n - 1}):
            for density in (0.01, 0.5, 1.0):
                if n <= 65 or cap == 1 or density < 1.0:
                    yield n, cap, density
    # random_graph decides a batch of draws at a time.  Caps above 1 that
    # bind past n = 65: (300, 40) and (500, 20) end at the miss limit in
    # their fourth batch, and (3000, 40) meets its target in its second,
    # where the cap refuses candidates.  (1025, 200) meets its target in
    # its fourth batch.
    yield from ((300, 40, 1.0), (500, 20, 1.0), (3000, 40, 0.95), (1025, 200, 0.9))


@pytest.mark.parametrize("n, cap, density", list(_grid()))
def test_matches_reference_across_bit_lengths(n, cap, density):
    seed = n * 1000 + cap
    assert random_graph(n, cap, density, seed) == _reference_random_graph(n, cap, density, seed)


@st.composite
def _graph_args(draw):
    n = draw(st.integers(2, 100))
    cap = draw(st.integers(1, n - 1))
    density = draw(st.floats(0.001, 1.0))
    return n, cap, density, draw(st.integers(0, 2**32))


@given(_graph_args())
def test_matches_reference_sweep(args):
    assert random_graph(*args) == _reference_random_graph(*args)


def test_wrappers_match_reference(monkeypatch):
    got = [
        (fuzz_graph(2 + seed % 50, seed), random_sparse_graph(200, 30, 4.0, seed))
        for seed in range(50)
    ]
    monkeypatch.setattr(instances, "random_graph", _reference_random_graph)
    want = [
        (fuzz_graph(2 + seed % 50, seed), random_sparse_graph(200, 30, 4.0, seed))
        for seed in range(50)
    ]
    assert got == want


@pytest.mark.parametrize(
    "n, cap, density",
    [
        (1, 2, 1.0),  # every draw a self-loop: the old loop never ended
        (0, 1, 1.0),
        (2**31, 5, 1.0),  # past DynamicGraph's int32 edge arrays
        (10, 0, 1.0),
        (10, 10, 1.0),
        (10, -3, 1.0),
        (10, 3, 0.0),
        (10, 3, 1.5),
    ],
)
def test_rejects_what_dynamic_graph_refuses(n, cap, density):
    with pytest.raises(ValueError):
        random_graph(n, cap, density, 0)


def test_peak_memory_no_higher_than_reference():
    random_graph(8, 3, 0.5, 0)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        random_graph(1024, 256, 0.8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= REFERENCE_PEAK_BYTES
