"""Seeded graph families for tests and benchmarks.

Every edge list respects the given degree cap, so it can be fed
straight into the engine.  random_graph and random_sparse_graph return
the edges alone, planted_clique_graph and mixed_graph the edges and the
planted vertex sets, and fuzz_graph the edges and the cap it drew.

random_graph decides its drawn pairs in numpy passes over batches of
Mersenne Twister words, with the result of a plain per-pair loop.  Two
facts make that exact: degrees only grow, so only the first occurrence
of an edge can be accepted; and the cap can refuse a candidate only at
a vertex whose degree plus its candidate count in the batch exceeds the
cap, so the loop's cap rule runs only over candidates at such vertices.
Batches double from about two words per wanted edge, up to the larger
of _WORDS and the edge count so far, which keeps their temporaries
below the returned edge list.
"""

from __future__ import annotations

import random

import numpy as np

from .graph import VERTEX_LIMIT

# Mersenne Twister words per batch at most, until more edges than that are
# accepted; and keys per decoding slice
_WORDS = 1 << 17
_CHUNK = 1 << 14


def random_graph(
    n: int, delta_cap: int, density: float, seed: int
) -> list[tuple[int, int]]:
    """~density * n * delta_cap / 2 random edges under the degree cap.

    The rule is a loop over (u, v) pairs of successive rng.randint(1, n)
    values from random.Random(seed): a self-loop is skipped and not
    counted; a repeated edge or one with an end at the cap is a miss;
    any other pair is accepted.  Drawing stops at the target edge count
    or after 50 * target + 1000 misses.  Edges come back as sorted
    (min, max) pairs, each vertex one int object shared by its tuples.

    randint(1, n) is 1 + getrandbits(k), redrawn while the draw is >= n,
    with k = n.bit_length() <= 32: the top k bits of one 32-bit Mersenne
    Twister output.  getrandbits(32 * w) returns w successive outputs,
    the first in the least significant word, so the values come in
    batches of words.  The first batch has about two words per wanted
    edge, at most _WORDS; each next one doubles, up to the larger of
    _WORDS and the edges accepted so far.  So a batch's temporaries stay
    below the edge list returned, and a long run of misses takes few
    batches.  The rng is local, so the words drawn past the last pair
    used change nothing.

    Each batch is decided in array passes, exactly as the loop decides
    it, because degrees only grow:
    - only the first occurrence of an edge can be accepted.  A later one
      is a duplicate if the first was accepted, and still has a capped
      end if it was refused.  Pairs with an end at the cap when the batch
      starts are misses; one sort of the rest finds the first occurrences
      and a search of the sorted accepted keys drops those accepted
      earlier, leaving the candidates.
    - a candidate can be refused only at a vertex whose degree plus its
      candidate count in the batch exceeds the cap.  Candidates touching
      no such vertex are accepted; the loop's cap rule runs in order over
      the rest, and stops once the target is met before the next one.
    Running counts of accepts and misses then give the pair where the
    loop would have stopped, and the batch is cut there.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if not 2 <= n < VERTEX_LIMIT:
        raise ValueError("n must be in [2, 2**31)")
    if not 1 <= delta_cap <= n - 1:
        raise ValueError("delta_cap must be in [1, n-1]")
    rng = random.Random(seed)
    target = int(density * n * delta_cap / 2)
    max_misses = 50 * target + 1000
    n1 = n + 1
    shift = 32 - n.bit_length()
    # edge (u, v), u < v, is the key u*(n+1)+v, as in DynamicGraph; the
    # accepted keys stay sorted, behind a sentinel that every search hits
    accepted = np.array([np.iinfo(np.int64).max])
    deg = np.zeros(n1, dtype=np.int64)
    carry = np.empty(0, dtype=np.int64)
    misses = 0
    words = min(2 * target + 64, _WORDS)
    while target:
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        r = np.frombuffer(raw, dtype="<u4") >> shift
        vals = np.concatenate((carry, r[r < n] + 1), dtype=np.int64)
        del raw, r
        even = len(vals) & ~1
        carry = vals[even:]
        u, v = vals[0:even:2], vals[1:even:2]
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        del vals, u, v, keep
        # candidates: first occurrences, among the pairs with both ends
        # below the cap, of keys not accepted before.  Each run of equal
        # sorted keys is one key, first drawn at the least position in it.
        live = np.flatnonzero((deg[lo] < delta_cap) & (deg[hi] < delta_cap))
        keys = lo[live] * n1 + hi[live]
        order = np.argsort(keys)
        keys = keys[order]
        runs = np.flatnonzero(np.diff(keys, prepend=-1))
        keys = keys[runs]
        slots = np.searchsorted(accepted, keys)
        fresh = accepted[slots] != keys
        keys, slots = keys[fresh], slots[fresh]
        by_key = live[np.minimum.reduceat(order, runs)[fresh]]
        del live, order, runs, fresh
        # candidates in drawing order; only those at a hot vertex, one
        # with fewer free slots than candidates, can be refused
        cand = np.sort(by_key)
        have = len(accepted) - 1
        cl, ch = lo[cand], hi[cand]
        room = delta_cap - deg
        hot = np.bincount(cl, minlength=n1) + np.bincount(ch, minlength=n1) > room
        ok = ~(hot[cl] | hot[ch])
        at_hot = np.flatnonzero(~ok)
        if len(at_hot):
            left = room.tolist()
            # accepts still wanted before each hot candidate, less those of
            # the candidates that no hot vertex can refuse; at 0 the loop
            # has stopped earlier in the batch
            want = (target - have - np.cumsum(ok)[at_hot]).tolist()
            got = 0
            for j, a, b, w in zip(at_hot.tolist(), cl[at_hot].tolist(), ch[at_hot].tolist(), want):
                if got >= w:
                    break
                if left[a] and left[b]:
                    left[a] -= 1
                    left[b] -= 1
                    ok[j] = True
                    got += 1
        take = np.zeros(len(lo), dtype=bool)
        take[cand[ok]] = True
        del cand, cl, ch, room, hot, ok, at_hot
        # the loop stops at the pair that brings the accepts to target or
        # the misses to max_misses
        took = np.cumsum(take)
        stop = min(
            np.searchsorted(took, target - have),
            np.searchsorted(np.arange(1, len(took) + 1) - took, max_misses - misses),
        )
        take[stop + 1 :] = False
        new = take[by_key]
        accepted = np.insert(accepted, slots[new], keys[new])
        if stop < len(take):
            break
        misses += len(take) - np.count_nonzero(new)
        deg += np.bincount(lo[take], minlength=n1) + np.bincount(hi[take], minlength=n1)
        del lo, hi, keys, slots, by_key, take, took, new
        words = min(2 * words, max(_WORDS, len(accepted)))
    accepted = accepted[:-1]
    # one int object per vertex, shared by every tuple that holds it
    ids = np.array(range(n1), dtype=object)
    edges: list[tuple[int, int]] = []
    for at in range(0, len(accepted), _CHUNK):
        u, v = np.divmod(accepted[at : at + _CHUNK], n1)
        edges += zip(ids[u].tolist(), ids[v].tolist())
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
