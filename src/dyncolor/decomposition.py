"""Sparser-denser decomposition: sparsity, clustering, refinement, validation.

The partition is recomputed from scratch at phase boundaries and frozen
for the duration of a phase; only the per-vertex external/anti-neighbor
sets and the per-clique aggregates drift with edge updates.  Aggregates
are exact integers, and every floor/threshold comparison is made in
integer or rational arithmetic, never in floating point.

The rebuild reads degrees off the adjacency sets once and packs the
neighborhoods of the high-degree core into uint64 bit rows built from
the graph's flat edge arrays, so common-neighbor counts are exact
popcounts.  The friendship components of the core come from a spanning
forest: each core vertex is tested against its smallest core neighbor,
then only the core edges between the components found so far are
tested, so most edges inside a component are never popcounted.
Intra-candidate degrees are one bincount over same-label core edges;
RawPartition carries both degree arrays on to certification and
refinement.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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


def all_neighborhood_edge_counts(g: DynamicGraph) -> np.ndarray:
    """m_v (edges inside G[N(v)]) for every vertex, index v-1.

    The sparsity of v is (cap*(cap-1)/2 - m_v)/cap, the edge deficit of
    G[N(v)] against a full clique normalized by the cap; v is zeta-sparse
    iff zeta <= its sparsity.

    Each edge {u, v} lies on |N(u) & N(v)| triangles, one popcount of two
    bit rows; summing that over the edges at v counts every edge of
    G[N(v)] twice.
    """
    eu, ev = _edge_endpoints(g)
    rows = np.arange(-1, g.n, dtype=np.int64)  # vertex v owns row v-1
    bits = _bit_rows(rows, g.n, eu, ev)
    tri = _row_overlaps(bits, eu - 1, ev - 1)
    twice_m = np.bincount(eu - 1, tri, g.n) + np.bincount(ev - 1, tri, g.n)
    return twice_m.astype(np.int64) // 2


# ---------------------------------------------------------------------------
# vectorised counts over the flat edge arrays

# bytes per temporary array in the bit-row kernels: the unpacked rows of
# _bit_rows and the ANDed row pairs of _row_overlaps are cut into chunks
# of this size, so a rebuild's peak memory stays flat in n and the
# temporaries stay in cache
_CHUNK_BYTES = 1 << 18


def _edge_endpoints(g: DynamicGraph) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the edge arrays (u < v per slot).

    A view would hold a buffer export on the graph's arrays, which then
    refuse to grow, for as long as it lived, e.g. in a traceback.
    """
    return (
        np.frombuffer(g._eu, dtype=np.int32).astype(np.int64),
        np.frombuffer(g._ev, dtype=np.int32).astype(np.int64),
    )


def _bit_rows(rows: np.ndarray, n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Packed neighborhoods, one uint64 row per vertex v with rows[v] >= 0.

    Columns are the vertices adjacent to some row vertex, in id order;
    popcounts of ANDed rows are common-neighbor counts.
    """
    k = int(rows.max()) + 1
    r = np.concatenate((rows[eu], rows[ev]))
    dst = np.concatenate((ev, eu))
    keep = r >= 0
    r, dst = r[keep], dst[keep]
    col = np.zeros(n + 1, dtype=np.int64)
    col[dst] = 1
    np.cumsum(col, out=col)
    width = max(64, -(-int(col[-1]) // 64) * 64)
    step = max(1, _CHUNK_BYTES // width)
    # flat bit index of each entry, and the chunk of rows it falls in
    pos = r * width + col[dst] - 1
    chunk = r // step
    out = np.empty(k * width // 8, dtype=np.uint8)
    for c, lo in enumerate(range(0, k * width, step * width)):
        block = np.zeros(min(step * width, k * width - lo), dtype=bool)
        block[pos[chunk == c] - lo] = True
        out[lo // 8 : (lo + len(block)) // 8] = np.packbits(block, bitorder="little")
    return out.view(np.uint64).reshape(k, -1)


def _row_overlaps(bits: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """popcount(bits[i[p]] & bits[j[p]]) for every pair p."""
    out = np.empty(len(i), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * bits.shape[1]))
    for lo in range(0, len(i), step):
        both = np.take(bits, i[lo : lo + step], axis=0)
        both &= np.take(bits, j[lo : lo + step], axis=0)
        out[lo : lo + step] = np.bitwise_count(both).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# decomposition data


@dataclass
class Clique:
    index: int
    members: set[int]
    anti_edges: SampleSet  # (u, v) pairs with u < v
    sum_ext: int = 0
    inliers: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def sum_anti(self) -> int:
        """Sum of a_v over the members: each anti-edge counts at both ends."""
        return 2 * len(self.anti_edges)

    @property
    def avg_anti(self) -> Fraction:
        return Fraction(self.sum_anti, self.size)

    @property
    def avg_ext(self) -> Fraction:
        return Fraction(self.sum_ext, self.size)

    def matching_target(self) -> int:
        """floor(8 * a_D)."""
        return 8 * self.sum_anti // self.size

    def admits_inlier(self, e_v: int, a_v: int) -> bool:
        """e_v <= 8*e_D and a_v <= 8*a_D, compared in integers."""
        size = self.size
        return e_v * size <= 8 * self.sum_ext and a_v * size <= 8 * self.sum_anti


@dataclass
class RawPartition:
    sparse: set[int]
    candidates: list[set[int]]  # pairwise disjoint
    # per vertex id: its degree, and (on candidate members) its neighbors
    # inside its own candidate; certification and refinement read them
    deg: np.ndarray = field(compare=False, repr=False)
    intra: np.ndarray = field(compare=False, repr=False)


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
        return c is not None and c.admits_inlier(len(self.ext[v]), len(self.anti[v]))

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
        else:
            if iu is not None:
                self.ext[u].discard(v)
                self.cliques[iu].sum_ext -= 1
            if iv is not None:
                self.ext[v].discard(u)
                self.cliques[iv].sum_ext -= 1


# ---------------------------------------------------------------------------
# clustering heuristic


def compute_acd(g: DynamicGraph, cfg: Config) -> RawPartition:
    """Almost-clique candidates via neighborhood-similarity clustering.

    Only vertices of degree >= (1-eps)*cap can belong to an almost-clique,
    which confines the similarity step to the (usually small) high-degree
    core.  Two adjacent core vertices are friends when they share at
    least (1-2*eps)*cap neighbors; the friendship components of size
    >= (1-eps)*cap are the candidates, in order of their smallest vertex,
    found by _friend_components without popcounting every core edge.
    Candidates are verified against the almost-clique definition;
    vertices of failed candidates fall back to the sparse pool, which
    certify_sparse_pool checks.
    """
    d = g.delta_cap
    eps = cfg.epsilon
    deg_floor = math.ceil((1 - eps) * d)
    sim_floor = math.ceil((1 - 2 * eps) * d)
    size_cap = math.floor((1 + eps) * d)

    deg = np.fromiter(map(len, g.adj), dtype=np.int64, count=g.n + 1)
    intra = np.zeros(g.n + 1, dtype=np.int64)
    sparse = set(range(1, g.n + 1))
    accepted: list[set[int]] = []
    core = np.flatnonzero(deg >= deg_floor)
    if len(core):
        k = len(core)
        eu, ev = _edge_endpoints(g)
        rows = np.full(g.n + 1, -1, dtype=np.int64)
        rows[core] = np.arange(k)
        bits = _bit_rows(rows, g.n, eu, ev)
        ru, rv = rows[eu], rows[ev]
        inside = (ru >= 0) & (rv >= 0)
        ru, rv = ru[inside], rv[inside]

        def core_nbrs(x: int) -> np.ndarray:
            adj = g.adj[int(core[x])]
            r = rows[np.fromiter(adj, dtype=np.int64, count=len(adj))]
            return np.sort(r[r >= 0])

        comps = _friend_components(bits, ru, rv, sim_floor, deg_floor, core_nbrs)
        # intra-candidate degrees: one bincount over same-label core edges
        label = np.full(k, -1, dtype=np.int64)
        for i, comp in enumerate(comps):
            label[comp] = i
        lu = label[ru]
        same = (lu >= 0) & (lu == label[rv])
        intra[core] = np.bincount(ru[same], minlength=k) + np.bincount(rv[same], minlength=k)
        for comp in comps:
            members = core[comp]
            if len(comp) <= size_cap and intra[members].min() >= deg_floor:
                # insertion order fixes the set's iteration order, which the
                # anti-neighbor sets and so the anti-edge sampling inherit
                cand = set(members.tolist())
                accepted.append(cand)
                sparse -= cand

    return RawPartition(sparse=sparse, candidates=accepted, deg=deg, intra=intra)


def certify_sparse_pool(g: DynamicGraph, cfg: Config, raw: RawPartition) -> None:
    """Raise DecompositionFailed unless every vertex in raw.sparse clears
    the sparsity floor.

    v is below the floor iff m_v > limit, and m_v <= deg(v)(deg(v)-1)/2,
    so edges inside neighborhoods are counted only when some pooled
    vertex has the degree to exceed the limit.
    """
    d = g.delta_cap
    floor_val = cfg.sparsity_floor() * d
    limit = math.floor(Fraction(d * (d - 1), 2) - d * floor_val)
    deg = raw.deg
    roomy = np.flatnonzero(deg * (deg - 1) // 2 > limit).tolist()
    suspects = [v for v in roomy if v in raw.sparse]
    if not suspects:
        return
    m = all_neighborhood_edge_counts(g)
    bad = [v for v in suspects if m[v - 1] > limit]
    if bad:
        raise DecompositionFailed(
            f"{len(bad)} unclustered vertices below the sparsity floor "
            f"(first: {bad[:5]})"
        )


def _friend_components(
    bits: np.ndarray,
    fu: np.ndarray,
    fv: np.ndarray,
    sim_floor: int,
    min_size: int,
    nbrs: Callable[[int], np.ndarray],
) -> list[np.ndarray]:
    """Friendship components of >= min_size nodes, ordered by smallest node.

    Nodes are bit rows and (fu, fv) the edges between them; an edge is a
    friendship when its rows overlap in >= sim_floor bits.  A spanning
    forest decides the components in two rounds:

    1. every node is tested against its smallest neighbor;
    2. only the edges whose ends round 1 left in different components are
       tested.

    This is exact: an edge left untested joins two nodes of one component.

    Each component lists its nodes in the discovery order of a stack
    search from its smallest node that visits friends in ascending order
    and marks them when pushed; it tests a popped node's unmarked
    neighbors, nbrs(x) in ascending order, and stops once it has found
    the whole component.
    """
    k = len(bits)

    def friends(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return _row_overlaps(bits, i, j) >= sim_floor

    first = np.full(k, k, dtype=np.int64)
    np.minimum.at(first, fu, fv)
    np.minimum.at(first, fv, fu)
    x = np.flatnonzero(first < k)
    y = first[x]
    keep = friends(x, y)
    label = _merge(np.arange(k), x[keep], y[keep])
    apart = label[fu] != label[fv]
    x, y = fu[apart], fv[apart]
    keep = friends(x, y)
    label = _merge(label, x[keep], y[keep])

    sizes = np.bincount(label, minlength=k)
    seen = np.zeros(k, dtype=bool)
    comps = []
    for root in np.flatnonzero(sizes >= min_size).tolist():
        seen[root] = True
        found, stack = [root], [root]
        while len(found) < sizes[root]:
            x = stack.pop()
            ys = nbrs(x)
            ys = ys[~seen[ys]]
            new = ys[friends(np.full(len(ys), x), ys)].tolist()
            seen[new] = True
            found += new
            stack += new
        comps.append(np.array(found))
    return comps


def _merge(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the components of label along the edges (a, b), in place.

    label[x] is the smallest node of x's component.  Each round hooks the
    larger of two adjacent roots onto the smaller, then jumps pointers
    until every node points at a root again; the edges left between
    components go into the next round.
    """
    while len(a):
        la, lb = label[a], label[b]
        cross = la != lb
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label[:] = up
    return label


# ---------------------------------------------------------------------------
# refinement


def refine_to_sparser_denser(
    raw: RawPartition, g: DynamicGraph, cfg: Config
) -> Decomposition:
    """Drop loose cliques into S and materialize exact per-clique data."""
    d = Decomposition(g.n)
    threshold = cfg.dissolve_threshold()
    deg, intra = raw.deg, raw.intra
    kept = []
    for cand in raw.candidates:
        size = len(cand)
        members = sorted(cand)
        inside = intra[members]
        e = (deg[members] - inside).tolist()
        a = (size - 1 - inside).tolist()
        if Fraction(sum(e) + sum(a), size) >= threshold:
            continue  # dissolved into S
        kept.append((cand, members, e, a))

    for i, (cand, members, e, a) in enumerate(kept):
        clique = Clique(index=i, members=cand, anti_edges=SampleSet(), sum_ext=sum(e))
        for v, e_v, a_v in zip(members, e, a):
            d.part[v] = i
            # the same set expressions as a from-scratch scan, for the
            # same iteration order; most members have neither kind
            d.ext[v] = g.adj[v] - cand if e_v else set()
            av = d.anti[v] = cand - g.adj[v] - {v} if a_v else set()
            for u in av:
                if v < u:
                    clique.anti_edges.add((v, u))
        clique.inliers = classify_inliers(clique, dict(zip(members, e)), dict(zip(members, a)))
        d.cliques.append(clique)
    return d


def classify_inliers(c: Clique, ev: dict[int, int], av: dict[int, int]) -> set[int]:
    """Members within 8x of both clique averages (complement: outliers)."""
    return {v for v in c.members if c.admits_inlier(ev[v], av[v])}


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

    m = all_neighborhood_edge_counts(g)
    for v in d.sparse_vertices:
        zeta_v = Fraction(cap * (cap - 1) // 2 - int(m[v - 1]), cap)
        if zeta_v < cfg.zeta:
            out.append(Violation("sparsity", f"v={v}", f"zeta*={zeta_v} < zeta={cfg.zeta}"))

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
    return out
