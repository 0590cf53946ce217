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
from .graph import VERTEX_LIMIT, DynamicGraph


class ParseError(Exception):
    def __init__(self, path: str, lineno: int, message: str) -> None:
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class _SparePairs:
    """Fenwick tree over colors 1..Δ+1 of the pair weights C(k, 2), where
    k counts the color's holders below the degree cap.

    refresh() brings it up to date with the engine through one loop of
    point updates: the colors that set_color touched and the colors of the
    vertices that entered or left g.full since the last refresh.  When the
    coloring does not carry this index's watch set (a new coloring carries
    none; another view may have registered its own), the index restarts
    from zeros with every color 1..Δ+1 dirty, so the same loop indexes the
    new coloring in O(Δ log Δ).
    """

    __slots__ = ("eng", "watch", "full", "weights", "total", "tree")

    def __init__(self, eng: Engine) -> None:
        self.eng = eng
        # no coloring carries this set, so the first refresh starts over
        self.watch: set[int | None] = set()
        self.full: set[int] = set()
        self.weights: list[int] = []
        self.total = 0
        self.tree: list[int] = []

    def refresh(self) -> None:
        st, g = self.eng.state, self.eng.g
        if st.watch is not self.watch:
            colors = g.delta_cap + 2
            self.watch = st.watch = set(range(1, colors))
            self.weights = [0] * colors
            self.total = 0
            self.tree = [0] * colors
        dirty = self.watch
        moved = g.full ^ self.full
        if moved:
            self.full ^= moved
            phi = st.phi
            dirty.update(phi[v] for v in moved)
        if not dirty:
            return
        dirty.discard(None)
        classes, full, weights, tree = st.classes, self.full, self.weights, self.tree
        size = len(tree)
        for chi in dirty:
            cls = classes[chi]
            k = len(cls) - len(cls & full)
            d = k * (k - 1) // 2 - weights[chi]
            if d:
                weights[chi] += d
                self.total += d
                while chi < size:
                    tree[chi] += d
                    chi += chi & -chi
        dirty.clear()

    def find(self, r: int) -> int:
        """The least color whose weight prefix sum exceeds r, 0 <= r < total."""
        tree, size = self.tree, len(self.tree)
        pos, step = 0, 1 << ((size - 1).bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt < size and tree[nxt] <= r:
                pos = nxt
                r -= tree[nxt]
            step >>= 1
        return pos + 1


class AdversaryView:
    """What an adaptive adversary may observe: colors, matches, graph.

    Accessors copy nothing mutable out and accept nothing in, so the
    adversary cannot perturb engine state.  The view keeps one private
    index of spare same-color pairs, and registers its watch set on the
    engine's coloring to keep that index current.
    """

    __slots__ = ("_engine", "_spares")

    def __init__(self, engine: Engine) -> None:
        object.__setattr__(self, "_engine", engine)
        object.__setattr__(self, "_spares", _SparePairs(engine))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("view is read-only")

    @property
    def n(self) -> int:
        return self._engine.g.n

    @property
    def delta_cap(self) -> int:
        return self._engine.g.delta_cap

    def degree(self, v: int) -> int:
        return self._engine.g.degree(v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._engine.g.has_edge(u, v)

    def spare_members(self, chi: int) -> list[int]:
        """Holders of color chi below the degree cap, in ascending id."""
        return sorted(self._engine.state.classes[chi] - self._engine.g.full)

    def matched_pairs(self) -> list[tuple[int, int]]:
        """Every matched pair as (low, high), in ascending low end."""
        st = self._engine.state
        matched = st.matched
        return [(u, matched[u]) for u in sorted(st.matched_lows)]

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
    # colors are proper between updates, so same-colored vertices are
    # never adjacent: class-weighted sampling over spare-degree members
    # is uniform over the eligible pairs without enumerating them
    spares = view._spares
    spares.refresh()
    total = spares.total
    if total:
        chi = spares.find(rng.randrange(total))
        u, v = rng.sample(view.spare_members(chi), 2)
        return Update("+", min(u, v), max(u, v))
    e = view.random_edge(rng)
    if e is not None:
        return Update("-", *e)
    # the graph is empty, so every pair can be inserted
    u, v = rng.sample(range(1, view.n + 1), 2)
    return Update("+", min(u, v), max(u, v))


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
        # a rebuild gives every member a neighbor inside, so |D| >= 2
        members = decomp_view.members(ci)
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
        with open(path, "rb") as f:
            header = self._decode(1, f.readline())
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(path, 1, f"bad header {header.strip()!r}")
        try:
            self.n, self.delta = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, 1, f"bad header {header.strip()!r}") from None
        if self.n < 1 or self.delta < 1:
            raise ParseError(path, 1, "n and delta must be positive")
        if self.n >= VERTEX_LIMIT:
            raise ParseError(path, 1, f"n must be below 2**31, got {self.n}")

    # one line at a time, so that a bad byte is blamed on its own line; a
    # text-mode reader decodes whole chunks
    def _decode(self, lineno: int, raw: bytes) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(self.path, lineno, "not UTF-8 text") from None

    def __iter__(self) -> Iterator[Update]:
        with open(self.path, "rb") as f:
            f.readline()
            for lineno, raw in enumerate(f, start=2):
                self.lineno = lineno
                line = self._decode(lineno, raw)
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
