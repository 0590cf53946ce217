"""Dynamic graph on a fixed vertex set [1..n] with a hard degree cap."""

from __future__ import annotations

from array import array


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
    """

    def __init__(self, n: int, delta_cap: int) -> None:
        if n < 1:
            raise ValueError("n must be positive")
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

    def insert_edge(self, u: int, v: int) -> None:
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
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self.adj[u]:
            raise MissingEdge(f"edge {{{u},{v}}} not present")
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
