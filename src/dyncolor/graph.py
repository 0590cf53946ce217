"""Dynamic graph on a fixed vertex set [1..n] with a hard degree cap."""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from itertools import chain, islice

import numpy as np

# entries a bulk load turns into Python objects at a time
_SLICE = 1 << 14
# vertex ids must fit the array("i") edge arrays, so n < 2**31
VERTEX_LIMIT = 2**31


class GraphError(Exception):
    pass


class DuplicateEdge(GraphError):
    pass


class MissingEdge(GraphError):
    pass


class DegreeCapExceeded(GraphError):
    pass


class VertexOutOfRange(GraphError, ValueError):
    pass


class DynamicGraph:
    """Adjacency-set graph; updates are rejected rather than clamped.

    Besides the per-vertex adjacency sets, every edge (u, v) with u < v
    sits in one slot of the flat arrays _eu/_ev, found through a position
    map keyed by u*(n+1)+v, so edges can be enumerated and sampled (and
    the whole edge set scanned by the verifier) without touching the
    adjacency structure.  Deletion moves the last slot into the hole.

    from_edges(n, delta_cap, edges) builds the graph that inserting the
    edges one at a time, in order, would build, down to the iteration
    order of every set.  An edge list of int pairs that insert_edge would
    accept is loaded by vectorized passes; any other list (a non-int
    endpoint, one out of range, a self-loop, a duplicate, a degree over
    the cap) is replayed through insert_edge, so it raises what the
    per-edge loop raises, at the same edge.
    """

    def __init__(self, n: int, delta_cap: int) -> None:
        if not 1 <= n < VERTEX_LIMIT:
            raise ValueError(f"n must be in [1, 2**31), got {n}")
        if delta_cap < 1 or delta_cap > n - 1:
            raise ValueError("delta_cap must be in [1, n-1]")
        self.n = n
        self.delta_cap = delta_cap
        self.adj: list[set[int]] = [set() for _ in range(n + 1)]
        # zero-copy viewable as numpy arrays so the verifier can sweep
        # propriety without a python loop
        self._eu = array("i")
        self._ev = array("i")
        self._pos: dict[int, int] = {}
        self.full: set[int] = set()

    @classmethod
    def from_edges(
        cls, n: int, delta_cap: int, edges: Iterable[tuple[int, int]]
    ) -> DynamicGraph:
        """The graph that inserting edges one at a time, in order, builds."""
        g = cls(n, delta_cap)
        if not isinstance(edges, list):
            edges = list(edges)
        if g._bulk_load(edges):
            return g
        g = cls(n, delta_cap)
        for u, v in edges:
            g.insert_edge(u, v)
        return g

    def _bulk_load(self, edges: list) -> bool:
        """Load edges into this empty graph as insert_edge would, in
        vectorized passes.  False, with the graph left part-built, when
        insert_edge would refuse one of them or an endpoint is not an int.

        Each temporary array is dropped before the adjacency sets and the
        position map grow, which keeps the peak memory near the per-edge
        loop's.
        """
        m = len(edges)
        if not m:
            return True
        n, cap = self.n, self.delta_cap
        try:
            if set(map(len, edges)) != {2}:
                return False
        except TypeError:
            return False
        # numpy reads 2.5 as 2 and "3" as 3, so only exact ints pass
        if set(map(type, chain.from_iterable(edges))) != {int}:
            return False
        try:
            ends = np.fromiter(chain.from_iterable(edges), dtype=np.intc, count=2 * m)
        except OverflowError:
            return False
        if ends.min() < 1 or ends.max() > n:
            return False
        u, v = ends[0::2], ends[1::2]
        if (u == v).any():
            return False
        deg = np.bincount(ends, minlength=n + 1)
        if deg.max() > cap:
            return False
        self._eu = array("i", np.minimum(u, v).tobytes())
        self._ev = array("i", np.maximum(u, v).tobytes())
        del u, v

        # every end grouped by vertex, each group in edge order
        by_end = np.argsort(ends, kind="stable")
        capped = np.flatnonzero(deg == cap)
        # capped vertices in the order they reach the cap, the order of
        # their last ends
        self.full.update(capped[np.argsort(by_end[np.cumsum(deg)[capped] - 1])].tolist())
        # end j's partner is end j ^ 1
        by_end ^= 1
        nbrs = ends[by_end]
        del ends, by_end
        # one int object per vertex, shared by every set that holds it
        ids = np.array(range(n + 1), dtype=object)
        fill = chain.from_iterable(
            ids[nbrs[at : at + _SLICE]].tolist() for at in range(0, 2 * m, _SLICE)
        )
        for nbr_set, d in zip(self.adj, deg.tolist()):
            if d:
                nbr_set.update(islice(fill, d))
        del nbrs

        # the keys u*(n+1)+v fit in int64 because n < VERTEX_LIMIT
        keys = np.frombuffer(self._eu, dtype=np.intc).astype(np.int64)
        keys *= n + 1
        keys += np.frombuffer(self._ev, dtype=np.intc)
        for at in range(0, m, _SLICE):
            self._pos.update(zip(keys[at : at + _SLICE].tolist(), range(at, at + _SLICE)))
        # a repeated edge is a key already in the map
        return len(self._pos) == m

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise VertexOutOfRange(f"vertex {v} outside [1, {self.n}]")

    @property
    def edge_count(self) -> int:
        return len(self._eu)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """Live edges as (min, max) pairs, in slot order."""
        return list(zip(self._eu, self._ev))

    def edge_at(self, i: int) -> tuple[int, int]:
        """The edge in slot i, 0 <= i < edge_count, as a (min, max) pair."""
        return self._eu[i], self._ev[i]

    def check_insert(self, u: int, v: int) -> None:
        """Raise what insert_edge(u, v) would refuse with; change nothing."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        if v in self.adj[u]:
            raise DuplicateEdge(f"edge {{{u},{v}}} already present")
        if len(self.adj[u]) >= self.delta_cap or len(self.adj[v]) >= self.delta_cap:
            raise DegreeCapExceeded(
                f"inserting {{{u},{v}}} would exceed degree cap {self.delta_cap}"
            )

    def check_delete(self, u: int, v: int) -> None:
        """Raise what delete_edge(u, v) would refuse with; change nothing."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self.adj[u]:
            raise MissingEdge(f"edge {{{u},{v}}} not present")

    def insert_edge(self, u: int, v: int) -> None:
        self.check_insert(u, v)
        self.adj[u].add(v)
        self.adj[v].add(u)
        if len(self.adj[u]) == self.delta_cap:
            self.full.add(u)
        if len(self.adj[v]) == self.delta_cap:
            self.full.add(v)
        if u > v:
            u, v = v, u
        self._pos[u * (self.n + 1) + v] = len(self._eu)
        self._eu.append(u)
        self._ev.append(v)

    def delete_edge(self, u: int, v: int) -> None:
        self.check_delete(u, v)
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.full.discard(u)
        self.full.discard(v)
        if u > v:
            u, v = v, u
        n1 = self.n + 1
        i = self._pos.pop(u * n1 + v)
        lu = self._eu.pop()
        lv = self._ev.pop()
        if i < len(self._eu):
            self._eu[i] = lu
            self._ev[i] = lv
            self._pos[lu * n1 + lv] = i

    def assert_consistent(self) -> None:
        """Debug check: symmetry, no self-loops, cap, slot/adjacency agreement,
        and the set of vertices at the cap."""
        seen = set()
        for v in range(1, self.n + 1):
            assert len(self.adj[v]) <= self.delta_cap, f"degree cap broken at {v}"
            for u in self.adj[v]:
                assert u != v, f"self-loop at {v}"
                assert v in self.adj[u], f"asymmetry {u}-{v}"
                seen.add((min(u, v), max(u, v)))
        edges = self.edges()
        assert len(edges) == len(seen) and set(edges) == seen, "edge slots out of sync"
        assert all(u < v for u, v in edges), "edge slot not (min, max)"
        assert self._pos == {
            u * (self.n + 1) + v: i for i, (u, v) in enumerate(edges)
        }, "position map out of sync"
        assert self.full == {
            v for v in range(1, self.n + 1) if len(self.adj[v]) == self.delta_cap
        }, "capped-vertex set out of sync"
