"""Update-stream generators and trace recording.

Oblivious streams are materialized up front from a seed; adaptive
adversaries are callbacks invoked once per engine step through a
read-only view of the coloring, the matched array and the graph.
Traces are plain text ("n delta" header, then "+ u v" / "- u v" lines)
so they diff cleanly and replay with O(1) memory.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .engine import Engine, Update
from .graph import DynamicGraph


class ParseError(Exception):
    def __init__(self, path: str, lineno: int, message: str) -> None:
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class AdversaryView:
    """What an adaptive adversary may observe: colors, matches, graph.

    Accessors copy nothing mutable out and accept nothing in, so the
    adversary cannot perturb engine state.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: Engine) -> None:
        object.__setattr__(self, "_engine", engine)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("view is read-only")

    @property
    def n(self) -> int:
        return self._engine.g.n

    @property
    def delta_cap(self) -> int:
        return self._engine.g.delta_cap

    @property
    def edge_count(self) -> int:
        return self._engine.g.edge_count

    def degree(self, v: int) -> int:
        return self._engine.g.degree(v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._engine.g.has_edge(u, v)

    def color_classes(self) -> list[tuple[int, ...]]:
        return [
            tuple(sorted(s)) for s in self._engine.state.classes[1:] if s
        ]

    def matched_pairs(self) -> list[tuple[int, int]]:
        matched = self._engine.state.matched
        return [
            (u, matched[u])
            for u in range(1, self.n + 1)
            if matched[u] is not None and u < matched[u]
        ]

    def random_edge(self, rng: random.Random) -> tuple[int, int] | None:
        g = self._engine.g
        if not g.edge_count:
            return None
        return g.edge_at(rng.randrange(g.edge_count))


class DecompositionView:
    """Read-only window on the frozen partition for clique-aware attacks."""

    __slots__ = ("_engine",)

    def __init__(self, engine: Engine) -> None:
        object.__setattr__(self, "_engine", engine)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("view is read-only")

    def clique_count(self) -> int:
        return len(self._engine.decomp.cliques)

    def members(self, ci: int) -> tuple[int, ...]:
        return tuple(sorted(self._engine.decomp.cliques[ci].members))


# ---------------------------------------------------------------------------
# generators


def oblivious_adversary(
    n: int, delta: int, steps: int, density: float, seed: int
) -> list[Update]:
    """Seeded stream: fill to ~density*n*delta/2 edges, then a mixed walk.

    Every prefix is valid for a DynamicGraph(n, delta).
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    target = int(density * n * delta / 2)
    g = DynamicGraph(n, delta)
    out: list[Update] = []

    def try_insert() -> Update | None:
        for _ in range(200):
            u, v = rng.sample(range(1, n + 1), 2)
            if u > v:
                u, v = v, u
            if g.has_edge(u, v) or g.degree(u) >= delta or g.degree(v) >= delta:
                continue
            g.insert_edge(u, v)
            return Update("+", u, v)
        return None

    def do_delete() -> Update:
        u, v = g.edge_at(rng.randrange(g.edge_count))
        g.delete_edge(u, v)
        return Update("-", u, v)

    while len(out) < steps:
        if g.edge_count < target:
            upd = try_insert()
            if upd is None:
                if not g.edge_count:
                    break
                upd = do_delete()
        elif g.edge_count and rng.random() < 0.5:
            upd = do_delete()
        else:
            upd = try_insert()
            if upd is None:
                upd = do_delete()
        out.append(upd)
    return out


def conflict_adversary(view: AdversaryView, rng: random.Random) -> Update:
    """Insert between a uniform same-colored non-adjacent pair with spare
    degree; fall back to a random deletion, then to a random insertion."""
    cap = view.delta_cap
    # colors are proper between updates, so same-colored vertices are
    # never adjacent: class-weighted sampling over spare-degree members
    # is uniform over the eligible pairs without enumerating them
    pools = []
    weights = []
    for cls in view.color_classes():
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
    return _random_insertion(view, rng)


def matching_attacker(
    view: AdversaryView, decomp_view: DecompositionView, rng: random.Random
) -> Update:
    """Break a matched pair by joining it; else delete inside a clique;
    else behave like the conflict adversary."""
    cap = view.delta_cap
    pairs = [
        (u, v)
        for u, v in view.matched_pairs()
        if not view.has_edge(u, v) and view.degree(u) < cap and view.degree(v) < cap
    ]
    if pairs:
        u, v = pairs[rng.randrange(len(pairs))]
        return Update("+", u, v)
    cliques = list(range(decomp_view.clique_count()))
    rng.shuffle(cliques)
    for ci in cliques:
        members = decomp_view.members(ci)
        if len(members) < 2:
            continue
        for _ in range(16):
            u, v = rng.sample(members, 2)
            if view.has_edge(u, v):
                return Update("-", min(u, v), max(u, v))
    return conflict_adversary(view, rng)


def adversary_stream(kind: str, eng: Engine, steps: int, seed: int) -> Iterator[Update]:
    """steps updates from the named adversary against eng.

    The oblivious walk (density 0.5) is drawn from seed up front; the
    adaptive adversaries draw from random.Random(seed), one update per
    step, each after the engine has applied the previous one.
    """
    if kind == "oblivious":
        return iter(oblivious_adversary(eng.g.n, eng.g.delta_cap, steps, 0.5, seed))
    rng = random.Random(seed)
    view = AdversaryView(eng)
    if kind == "conflict":
        return (conflict_adversary(view, rng) for _ in range(steps))
    if kind == "matching":
        dview = DecompositionView(eng)
        return (matching_attacker(view, dview, rng) for _ in range(steps))
    raise ValueError(f"unknown adversary {kind!r}")


def _random_insertion(view: AdversaryView, rng: random.Random) -> Update:
    cap = view.delta_cap
    for _ in range(10000):
        u, v = rng.sample(range(1, view.n + 1), 2)
        if not view.has_edge(u, v) and view.degree(u) < cap and view.degree(v) < cap:
            return Update("+", min(u, v), max(u, v))
    raise RuntimeError("no valid update exists")


# ---------------------------------------------------------------------------
# traces


def record_trace(path: str, n: int, delta: int, stream: Iterable[Update]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(f"{n} {delta}\n")
        for upd in stream:
            f.write(f"{upd.op} {upd.u} {upd.v}\n")


class TraceReader:
    """Header-parsed trace whose updates stream lazily from disk.

    lineno is the line of the update yielded last, so a caller can place
    an update the engine rejects.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.lineno = 1
        with open(path) as f:
            header = f.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(path, 1, f"bad header {header.strip()!r}")
        try:
            self.n, self.delta = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, 1, f"bad header {header.strip()!r}") from None
        if self.n < 1 or self.delta < 1:
            raise ParseError(path, 1, "n and delta must be positive")

    def __iter__(self) -> Iterator[Update]:
        with open(self.path) as f:
            f.readline()
            for lineno, line in enumerate(f, start=2):
                self.lineno = lineno
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 3 or parts[0] not in ("+", "-"):
                    raise ParseError(self.path, lineno, f"bad update {line.strip()!r}")
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ParseError(
                        self.path, lineno, f"bad update {line.strip()!r}"
                    ) from None
                yield Update(parts[0], u, v)
