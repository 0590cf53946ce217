"""Sparser-denser decomposition: sparsity, clustering, refinement, validation.

The partition is recomputed from scratch at phase boundaries and frozen
for the duration of a phase; only the per-vertex external/anti-neighbor
sets and the per-clique aggregates drift with edge updates.  Aggregates
are exact rationals so floor/threshold comparisons never depend on
floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import Config
from .graph import DynamicGraph
from .report import Violation
from .sets import SampleSet


class DecompositionFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# sparsity


def sparsity(g: DynamicGraph, v: int) -> Fraction:
    """Edge deficit of G[N(v)] against a full clique, normalized by the cap.

    v is zeta-sparse iff zeta <= sparsity(g, v).
    """
    nbrs = g.adj[v]
    twice_m = 0
    for u in nbrs:
        twice_m += len(g.adj[u] & nbrs)
    d = g.delta_cap
    return Fraction(d * (d - 1) // 2 - twice_m // 2, d)


def all_neighborhood_edge_counts(g: DynamicGraph) -> np.ndarray:
    """m_v (edges inside G[N(v)]) for every vertex, via triangle counts."""
    n = g.n
    a = np.zeros((n, n), dtype=np.float32)
    for v in range(1, n + 1):
        row = a[v - 1]
        for u in g.adj[v]:
            row[u - 1] = 1.0
    tri = (a @ a) * a
    m = tri.sum(axis=1) / 2.0
    return np.rint(m).astype(np.int64)


# ---------------------------------------------------------------------------
# decomposition data


@dataclass
class Clique:
    index: int
    members: set[int]
    anti_edges: SampleSet  # (u, v) pairs with u < v
    sum_ext: int = 0
    sum_anti: int = 0
    inliers: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def avg_anti(self) -> Fraction:
        return Fraction(self.sum_anti, self.size)

    @property
    def avg_ext(self) -> Fraction:
        return Fraction(self.sum_ext, self.size)

    def matching_target(self) -> int:
        return math.floor(8 * self.avg_anti)


@dataclass
class RawPartition:
    sparse: set[int]
    candidates: list[set[int]]


class Decomposition:
    """Frozen vertex partition plus drifting per-vertex/per-clique data."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.part: list[int | None] = [None] * (n + 1)
        self.cliques: list[Clique] = []
        self.ext: dict[int, set[int]] = {}
        self.anti: dict[int, set[int]] = {}

    def clique_of(self, v: int) -> Clique | None:
        i = self.part[v]
        return None if i is None else self.cliques[i]

    def e_v(self, v: int) -> int:
        return len(self.ext[v])

    def a_v(self, v: int) -> int:
        return len(self.anti[v])

    def is_inlier(self, v: int) -> bool:
        """Inlier test against the current (drifted) averages."""
        c = self.clique_of(v)
        if c is None:
            return False
        return (
            len(self.ext[v]) <= 8 * c.avg_ext and len(self.anti[v]) <= 8 * c.avg_anti
        )

    @property
    def sparse_vertices(self) -> list[int]:
        return [v for v in range(1, self.n + 1) if self.part[v] is None]

    # -- incremental drift while membership stays frozen -------------------

    def apply_insert(self, u: int, v: int) -> None:
        iu, iv = self.part[u], self.part[v]
        if iu is not None and iu == iv:
            # an anti-edge inside the clique disappears
            c = self.cliques[iu]
            c.anti_edges.discard((u, v) if u < v else (v, u))
            self.anti[u].discard(v)
            self.anti[v].discard(u)
            c.sum_anti -= 2
        else:
            if iu is not None:
                self.ext[u].add(v)
                self.cliques[iu].sum_ext += 1
            if iv is not None:
                self.ext[v].add(u)
                self.cliques[iv].sum_ext += 1

    def apply_delete(self, u: int, v: int) -> None:
        iu, iv = self.part[u], self.part[v]
        if iu is not None and iu == iv:
            c = self.cliques[iu]
            c.anti_edges.add((u, v) if u < v else (v, u))
            self.anti[u].add(v)
            self.anti[v].add(u)
            c.sum_anti += 2
        else:
            if iu is not None:
                self.ext[u].discard(v)
                self.cliques[iu].sum_ext -= 1
            if iv is not None:
                self.ext[v].discard(u)
                self.cliques[iv].sum_ext -= 1


def trivial_decomposition(n: int) -> Decomposition:
    """All vertices sparser; used when the dense path is inactive."""
    return Decomposition(n)


# ---------------------------------------------------------------------------
# clustering heuristic


def compute_acd(
    g: DynamicGraph, cfg: Config, certify: bool = True
) -> RawPartition:
    """Almost-clique candidates via neighborhood-similarity clustering.

    Only vertices of degree >= (1-eps)*cap can belong to an almost-clique,
    which keeps the quadratic similarity step confined to the (usually
    tiny) high-degree core.  Candidates are verified against the
    almost-clique definition; vertices of failed candidates fall back to
    the sparse pool.  With certify=True, every pooled vertex must clear
    the sparsity floor, otherwise DecompositionFailed is raised.
    """
    d = g.delta_cap
    eps = cfg.epsilon
    deg_floor = math.ceil((1 - eps) * d)
    sim_floor = math.ceil((1 - 2 * eps) * d)

    core = [v for v in range(1, g.n + 1) if g.degree(v) >= deg_floor]
    candidates: list[set[int]] = []
    if core:
        idx = {v: i for i, v in enumerate(core)}
        a = np.zeros((len(core), g.n), dtype=np.float32)
        for v in core:
            row = a[idx[v]]
            for u in g.adj[v]:
                row[u - 1] = 1.0
        overlap = a @ a.T
        # friendship: adjacent core pairs with large common neighborhoods
        adj_mask = np.zeros((len(core), len(core)), dtype=bool)
        for v in core:
            for u in g.adj[v]:
                if u in idx:
                    adj_mask[idx[v], idx[u]] = True
        friend = adj_mask & (overlap >= (sim_floor - 0.5))

        seen = [False] * len(core)
        for start in range(len(core)):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                x = stack.pop()
                for y in np.flatnonzero(friend[x]):
                    if not seen[y]:
                        seen[y] = True
                        comp.append(int(y))
                        stack.append(int(y))
            if len(comp) >= deg_floor:
                candidates.append({core[i] for i in comp})

    sparse = set(range(1, g.n + 1))
    accepted: list[set[int]] = []
    size_cap = math.floor((1 + eps) * d)
    for cand in candidates:
        if len(cand) > size_cap:
            continue
        if all(len(g.adj[v] & cand) >= deg_floor for v in cand):
            accepted.append(cand)
            sparse -= cand

    if certify and sparse:
        floor_val = cfg.sparsity_floor() * d
        m = all_neighborhood_edge_counts(g)
        half = Fraction(d * (d - 1), 2)
        bad = [
            v
            for v in sorted(sparse)
            if Fraction(int(half - m[v - 1]), d) < floor_val
        ]
        if bad:
            raise DecompositionFailed(
                f"{len(bad)} unclustered vertices below the sparsity floor "
                f"(first: {bad[:5]})"
            )

    return RawPartition(sparse=sparse, candidates=accepted)


# ---------------------------------------------------------------------------
# refinement


def refine_to_sparser_denser(
    raw: RawPartition, g: DynamicGraph, cfg: Config
) -> Decomposition:
    """Drop loose cliques into S and materialize exact per-clique data."""
    d = Decomposition(g.n)
    threshold = cfg.dissolve_threshold()
    kept: list[set[int]] = []
    for cand in raw.candidates:
        size = len(cand)
        sum_ext = sum(len(g.adj[v] - cand) for v in cand)
        sum_anti = sum(size - 1 - len(g.adj[v] & cand) for v in cand)
        if Fraction(sum_ext + sum_anti, size) >= threshold:
            continue  # dissolved into S
        kept.append(cand)

    for i, cand in enumerate(kept):
        clique = Clique(index=i, members=cand, anti_edges=SampleSet())
        mem_sorted = sorted(cand)
        for v in mem_sorted:
            d.part[v] = i
            ev = g.adj[v] - cand
            av = cand - g.adj[v] - {v}
            d.ext[v] = ev
            d.anti[v] = av
            clique.sum_ext += len(ev)
            clique.sum_anti += len(av)
            for u in av:
                if v < u:
                    clique.anti_edges.add((v, u))
        clique.inliers = classify_inliers(
            clique, {v: len(d.ext[v]) for v in cand}, {v: len(d.anti[v]) for v in cand}
        )
        d.cliques.append(clique)
    return d


def classify_inliers(c: Clique, ev: dict[int, int], av: dict[int, int]) -> set[int]:
    """Members within 8x of both clique averages (complement: outliers)."""
    e_avg, a_avg = c.avg_ext, c.avg_anti
    return {v for v in c.members if ev[v] <= 8 * e_avg and av[v] <= 8 * a_avg}


# ---------------------------------------------------------------------------
# validation


def validate_decomposition(
    d: Decomposition, g: DynamicGraph, cfg: Config
) -> list[Violation]:
    """Check the partition against the graph; violations are data."""
    out: list[Violation] = []
    cap = g.delta_cap
    eps = cfg.epsilon
    deg_floor = math.ceil((1 - eps) * cap)
    size_cap = math.floor((1 + eps) * cap)
    threshold = cfg.dissolve_threshold()

    for v in range(1, d.n + 1):
        if d.part[v] is None and sparsity(g, v) < cfg.zeta:
            out.append(
                Violation(
                    "sparsity", f"v={v}", f"zeta*={sparsity(g, v)} < zeta={cfg.zeta}"
                )
            )

    for c in d.cliques:
        loc = f"clique={c.index}"
        if c.size > size_cap:
            out.append(Violation("clique-size", loc, f"|D|={c.size} > {size_cap}"))
        for v in sorted(c.members):
            if d.part[v] != c.index:
                out.append(Violation("partition", loc, f"part[{v}] != {c.index}"))
            intra = len(g.adj[v] & c.members)
            if intra < deg_floor:
                out.append(
                    Violation("intra-degree", loc, f"v={v} intra={intra} < {deg_floor}")
                )
            true_ext = g.adj[v] - c.members
            true_anti = c.members - g.adj[v] - {v}
            if d.ext[v] != true_ext:
                out.append(Violation("ext-set", loc, f"E({v}) stale"))
            if d.anti[v] != true_anti:
                out.append(Violation("anti-set", loc, f"A({v}) stale"))
        if c.avg_anti + c.avg_ext > threshold:
            out.append(
                Violation(
                    "avg-threshold", loc, f"a_D+e_D={c.avg_anti + c.avg_ext} > {threshold}"
                )
            )
        true_sum_ext = sum(len(g.adj[v] - c.members) for v in c.members)
        true_sum_anti = sum(
            c.size - 1 - len(g.adj[v] & c.members) for v in c.members
        )
        if c.sum_ext != true_sum_ext or c.sum_anti != true_sum_anti:
            out.append(
                Violation(
                    "aggregate",
                    loc,
                    f"sums ({c.sum_ext},{c.sum_anti}) != ({true_sum_ext},{true_sum_anti})",
                )
            )
        true_f = {
            (u, v)
            for u in c.members
            for v in c.members
            if u < v and v not in g.adj[u]
        }
        if set(c.anti_edges) != true_f:
            out.append(Violation("anti-edge-set", loc, "F_D out of sync"))
        elif 2 * len(c.anti_edges) != c.sum_anti:
            out.append(
                Violation("aggregate", loc, "|F_D| inconsistent with sum of a_v")
            )
    return out
