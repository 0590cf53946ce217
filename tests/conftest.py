"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis
import pytest

from dyncolor.config import Config
from dyncolor.decomposition import all_neighborhood_edge_counts
from dyncolor.engine import Engine, Update
from dyncolor.graph import DynamicGraph

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50
)
hypothesis.settings.load_profile("default")


def build_graph(n: int, delta_cap: int, edges) -> DynamicGraph:
    g = DynamicGraph(n, delta_cap)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def kernel_sparsity(g: DynamicGraph) -> list[Fraction]:
    """Sparsity of every vertex (index v-1) from all_neighborhood_edge_counts,
    the kernel certification runs; one call per graph."""
    cap = g.delta_cap
    half = cap * (cap - 1) // 2
    return [Fraction(half - int(m), cap) for m in all_neighborhood_edge_counts(g)]


def dense_cfg(zeta: int = 1) -> Config:
    """Config that keeps the dense path active for delta >= 64 * zeta."""
    return Config(epsilon=Fraction(1, 8), zeta=zeta)


def planted_engine(
    seed: int = 3,
    n: int = 160,
    delta: int = 80,
    clique_size: int = 78,
    anti: int = 30,
    strict: bool = True,
    zeta: int = 1,
):
    """Engine over one planted near-clique plus sparse noise; phased mode."""
    from dyncolor.instances import planted_clique_graph

    edges, planted = planted_clique_graph(
        n,
        delta,
        seed=seed,
        clique_size=clique_size,
        anti_edges_per_clique=anti,
        noise_avg_deg=6.0,
        cross_avg_deg=1.5,
    )
    eng = Engine(
        n,
        delta,
        dense_cfg(zeta),
        seed=seed,
        mode="phased",
        strict=strict,
        initial_edges=edges,
    )
    return eng, planted


def random_updates(
    eng: Engine, steps: int, seed: int, delete_prob: float = 0.45
) -> None:
    """Apply a valid random update walk to an engine in place."""
    rng = random.Random(seed)
    live = set(eng.g.edges())
    n, cap = eng.g.n, eng.g.delta_cap
    for _ in range(steps):
        if live and rng.random() < delete_prob:
            u, v = rng.choice(sorted(live))
            eng.apply(Update("-", u, v))
            live.discard((u, v))
            continue
        for _ in range(300):
            u, v = rng.sample(range(1, n + 1), 2)
            k = (min(u, v), max(u, v))
            if k not in live and eng.g.degree(u) < cap and eng.g.degree(v) < cap:
                eng.apply(Update("+", *k))
                live.add(k)
                break
        else:
            u, v = rng.choice(sorted(live))
            eng.apply(Update("-", u, v))
            live.discard((u, v))


@pytest.fixture
def tiny_engine():
    """Naive-mode engine on an empty 12-vertex graph."""
    return Engine(12, 5, Config(zeta=3), seed=0)
