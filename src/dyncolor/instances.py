"""Seeded graph families for tests and benchmarks.

Every edge list respects the given degree cap, so it can be fed
straight into the engine.  random_graph and random_sparse_graph return
the edges alone, planted_clique_graph and mixed_graph the edges and the
planted vertex sets, and fuzz_graph the edges and the cap it drew.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import chain

import numpy as np

# words per Mersenne Twister batch, and keys per decoding slice
_CHUNK = 1 << 14


def _randint_stream(rng: random.Random, n: int) -> Iterator[list[int]]:
    """Lists of successive rng.randint(1, n) values, for 2 <= n < 2**31.

    randint(1, n) is 1 + getrandbits(k), redrawn while the draw is >= n,
    with k = n.bit_length() <= 32: the top k bits of one 32-bit Mersenne
    Twister output.  getrandbits(32 * w) returns w successive outputs,
    the first in the least significant word, so one call yields w draws
    at once.  Batches double up to _CHUNK words; each batch leaves rng
    where the last of its words left it, not where its last value did.
    """
    shift = 32 - n.bit_length()
    words = 64
    while True:
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        r = np.frombuffer(raw, dtype="<u4") >> shift
        yield (r[r < n] + 1).tolist()
        words = min(2 * words, _CHUNK)


def random_graph(
    n: int, delta_cap: int, density: float, seed: int
) -> list[tuple[int, int]]:
    """~density * n * delta_cap / 2 random edges under the degree cap.

    Draws (u, v) pairs from random.Random(seed) as successive
    rng.randint(1, n) values, taken in batches of Mersenne Twister words
    (see _randint_stream).  The rng is local, so the words drawn past the
    last pair used change nothing.  A self-loop is skipped and not
    counted; a repeated edge or one with a capped end counts as a miss.
    Drawing stops at the target edge count or after 50 * target + 1000
    misses.  Edges come back as sorted (min, max) pairs.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if not 2 <= n < 2**31:
        raise ValueError("n must be in [2, 2**31)")
    if not 1 <= delta_cap <= n - 1:
        raise ValueError("delta_cap must be in [1, n-1]")
    rng = random.Random(seed)
    target = int(density * n * delta_cap / 2)
    max_misses = 50 * target + 1000
    n1 = n + 1
    # edge (u, v), u < v, is the key u*(n+1)+v, as in DynamicGraph
    keys: set[int] = set()
    deg = [0] * n1
    misses = 0
    if target > 0:
        draws = chain.from_iterable(_randint_stream(rng, n))
        for u, v in zip(draws, draws):
            if u == v:
                continue
            if u > v:
                u, v = v, u
            key = u * n1 + v
            if key in keys or deg[u] >= delta_cap or deg[v] >= delta_cap:
                misses += 1
                if misses >= max_misses:
                    break
                continue
            keys.add(key)
            deg[u] += 1
            deg[v] += 1
            if len(keys) >= target:
                break
    # free the key ints before decoding, and decode a slice at a time, so
    # the peak stays below that of the set of tuples this replaced
    ordered = np.fromiter(keys, dtype=np.int64, count=len(keys))
    del keys
    ordered.sort()
    edges: list[tuple[int, int]] = []
    for lo in range(0, len(ordered), _CHUNK):
        u, v = np.divmod(ordered[lo : lo + _CHUNK], n1)
        edges += zip(u.tolist(), v.tolist())
    return edges


def random_sparse_graph(
    n: int, delta_cap: int, avg_deg: float, seed: int
) -> list[tuple[int, int]]:
    """Low-density random graph with expected average degree avg_deg."""
    density = min(1.0, avg_deg / delta_cap)
    return random_graph(n, delta_cap, density, seed)


def planted_clique_graph(
    n: int,
    delta_cap: int,
    seed: int,
    num_cliques: int = 1,
    clique_size: int | None = None,
    anti_edges_per_clique: int | None = None,
    noise_avg_deg: float = 4.0,
    cross_avg_deg: float = 0.0,
) -> tuple[list[tuple[int, int]], list[set[int]]]:
    """Disjoint near-cliques on a prefix of the vertices plus sparse noise.

    Each planted set has clique_size vertices (default delta_cap - 2) with
    anti_edges_per_clique internal non-edges removed at random; remaining
    vertices get random low-degree noise edges that avoid raising planted
    degrees past the cap.  Returns (edges, planted vertex sets).
    """
    rng = random.Random(seed)
    size = clique_size if clique_size is not None else delta_cap - 2
    if size < 2 or num_cliques * size > n:
        raise ValueError("planted cliques do not fit")
    if size > delta_cap + 1:
        raise ValueError("clique size exceeds delta_cap + 1")
    anti = (
        anti_edges_per_clique
        if anti_edges_per_clique is not None
        else max(1, size // 20)
    )

    edges: set[tuple[int, int]] = set()
    deg = [0] * (n + 1)
    planted: list[set[int]] = []
    base = 1
    for _ in range(num_cliques):
        members = list(range(base, base + size))
        base += size
        planted.append(set(members))
        full = [
            (u, v) for i, u in enumerate(members) for v in members[i + 1 :]
        ]
        removed = set(rng.sample(full, min(anti, len(full))))
        for e in full:
            if e not in removed:
                edges.add(e)
                deg[e[0]] += 1
                deg[e[1]] += 1

    def add_random_edges(want: int, draw) -> None:
        # rejects duplicates and capped ends; stops at want edges or after
        # 50 * want + 1000 misses, the limit shrinking as edges land
        misses = 0
        while want > 0 and misses < 50 * want + 1000:
            u, v = draw()
            k = (u, v) if u < v else (v, u)
            if k in edges or deg[u] >= delta_cap or deg[v] >= delta_cap:
                misses += 1
                continue
            edges.add(k)
            deg[u] += 1
            deg[v] += 1
            want -= 1

    rest = list(range(base, n + 1))
    clique_vertices = list(range(1, base))
    if rest and clique_vertices and cross_avg_deg > 0:
        # sparse-to-clique edges give denser vertices external neighbors
        add_random_edges(
            int(cross_avg_deg * len(rest) / 2),
            lambda: (rng.choice(rest), rng.choice(clique_vertices)),
        )
    if len(rest) >= 2 and noise_avg_deg > 0:
        add_random_edges(int(noise_avg_deg * len(rest) / 2), lambda: rng.sample(rest, 2))
    return sorted(edges), planted


def mixed_graph(
    n: int, delta_cap: int, seed: int
) -> tuple[list[tuple[int, int]], list[set[int]]]:
    """Planted near-cliques covering about half the vertices plus noise."""
    size = delta_cap - 2
    num = max(1, (n // 2) // max(2, size))
    return planted_clique_graph(
        n,
        delta_cap,
        seed,
        num_cliques=num,
        clique_size=size,
        noise_avg_deg=min(8.0, delta_cap / 4),
    )


def families(n: int, delta_cap: int, seed: int):
    """(name, edges) for the planted, random-sparse and mixed families."""
    yield "planted", planted_clique_graph(n, delta_cap, seed)[0]
    yield "random-sparse", random_sparse_graph(n, delta_cap, avg_deg=6.0, seed=seed)
    yield "mixed", mixed_graph(n, delta_cap, seed)[0]


def fuzz_graph(n: int, seed: int) -> tuple[list[tuple[int, int]], int]:
    """Small arbitrary graph for oracle fuzzing: random density and cap."""
    rng = random.Random(seed)
    delta_cap = rng.randint(1, max(1, n - 1))
    density = rng.random()
    return random_graph(n, delta_cap, max(0.01, density), seed + 1), delta_cap
