"""Sparser-denser decomposition: sparsity, clustering, refinement, validation.

The partition is recomputed from scratch at phase boundaries and frozen
for the duration of a phase; only the members' external-neighbor sets,
each clique's anti-edge set and its external-edge total drift with edge
updates.  A member's anti-degree is derived from its degree through
deg(v) + 1 = |D| + e_v - a_v rather than stored.  Aggregates are exact
integers, and every floor/threshold comparison is made in integer or
rational arithmetic, never in floating point.

The rebuild reads degrees off the adjacency sets once, copies the
graph's flat edge arrays once as int32, and maps both ends of every edge
to their core rows in one gather.  That gather feeds both the uint64 bit
rows of the core's neighborhoods, written straight into their packed
words, so common-neighbor counts are exact popcounts, and the list of
core edges.  The friendship components of the core come from a spanning
forest: each core vertex is tested against its smallest core neighbor,
then only the core edges between the components found so far are
tested, so most edges inside a component are never popcounted.
Intra-component degrees are one bincount over same-label core edges;
RawPartition carries both degree arrays on to certification and
refinement.
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


# the one external set of every clique member with no external neighbor,
# so a rebuild allocates none; apply_insert gives a member its own set
NO_EXT: frozenset[int] = frozenset()


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
    rows = np.arange(-1, g.n, dtype=np.intp)  # vertex v owns row v-1
    ru, rv = np.take(rows, eu), np.take(rows, ev)
    bits = _bit_rows(((ru, ev), (rv, eu)), g.n, g.n)
    tri = _row_overlaps(bits, ru, rv)
    twice_m = np.bincount(ru, tri, g.n) + np.bincount(rv, tri, g.n)
    return twice_m.astype(np.int64) // 2


# ---------------------------------------------------------------------------
# vectorised counts over the flat edge arrays

# bytes per temporary array of ANDed row pairs in _row_overlaps, which
# cuts its pairs into chunks of this size, so a rebuild's peak memory
# stays flat in n and the temporaries stay in cache
_CHUNK_BYTES = 1 << 18


def _edge_endpoints(g: DynamicGraph) -> tuple[np.ndarray, np.ndarray]:
    """int32 copies of the edge arrays (u < v per slot).  A view would hold
    a buffer export on the graph's arrays, which then refuse to grow, for
    as long as it lived, e.g. in a traceback."""
    return np.array(g._eu, dtype=np.int32), np.array(g._ev, dtype=np.int32)


def _bit_rows(ends: tuple, n: int, k: int) -> np.ndarray:
    """Packed neighborhoods of k row vertices, one uint64 row each.

    ends is ((ru, ev), (rv, eu)): the int32 edge arrays and the rows of
    their ends, rows[eu] and rows[ev], gathered once by the caller, -1
    for an end without a row.  Each end with a row gets the other end's
    bit.  Columns are the vertices adjacent to some row vertex, in id
    order; popcounts of ANDed rows are common-neighbor counts.  A slot
    holds each edge once, so no bit is set twice, and adding the bits
    into their words ors them without an unpacked temporary.
    """
    ends = [(r[keep], dst[keep]) for r, dst in ends for keep in (r >= 0,)]
    col = np.zeros(n + 1, dtype=np.intp)
    for _, dst in ends:
        col[dst] = 1
    np.cumsum(col, out=col)
    width = max(64, -(-int(col[-1]) // 64) * 64)
    out = np.zeros(k * width // 64, dtype=np.uint64)
    for r, dst in ends:
        pos = r * width + np.take(col, dst) - 1
        np.add.at(out, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64))
    return out.reshape(k, -1)


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

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def sum_anti(self) -> int:
        """Sum of a_v over the members: each anti-edge counts at both ends."""
        return 2 * len(self.anti_edges)

    def matching_target(self) -> int:
        """floor(8 * a_D)."""
        return 8 * self.sum_anti // self.size

    def admits_inlier(self, e_v: int, a_v: int) -> bool:
        """e_v <= 8*e_D and a_v <= 8*a_D, compared in integers."""
        size = len(self.members)
        return e_v * size <= 8 * self.sum_ext and a_v * size <= 8 * self.sum_anti


@dataclass
class RawPartition:
    # pairwise disjoint, and every vertex outside them is in the sparse
    # pool; each set is built by inserting its members in ascending id, so
    # its iteration order, and the anti-edge order refine derives from it,
    # depends on the member set alone
    candidates: list[set[int]]
    # per vertex id: its degree, and (on candidate members) its neighbors
    # inside its own candidate; certification and refinement read them
    deg: np.ndarray = field(compare=False, repr=False)
    intra: np.ndarray = field(compare=False, repr=False)


class Decomposition:
    """Frozen vertex partition of g plus drifting per-vertex/per-clique data."""

    def __init__(self, g: DynamicGraph) -> None:
        self.g = g
        self.part: list[int | None] = [None] * (g.n + 1)
        self.cliques: list[Clique] = []
        self.ext: dict[int, set[int] | frozenset[int]] = {}

    def a_v(self, v: int) -> int:
        """Members of v's clique not adjacent to v: |D| - 1 - deg(v) + e_v."""
        c = self.cliques[self.part[v]]
        return len(c.members) - 1 - len(self.g.adj[v]) + len(self.ext[v])

    def is_inlier(self, v: int) -> bool:
        """Inlier test against the current (drifted) averages."""
        i = self.part[v]
        return i is not None and self.cliques[i].admits_inlier(len(self.ext[v]), self.a_v(v))

    @property
    def sparse_vertices(self) -> list[int]:
        return [v for v in range(1, self.g.n + 1) if self.part[v] is None]

    # -- incremental drift while membership stays frozen -------------------

    def apply_insert(self, u: int, v: int) -> None:
        iu, iv = self.part[u], self.part[v]
        if iu is not None and iu == iv:
            # an anti-edge inside the clique disappears
            self.cliques[iu].anti_edges.discard((u, v) if u < v else (v, u))
        else:
            for a, b, i in ((u, v, iu), (v, u, iv)):
                if i is not None:
                    if self.ext[a] is NO_EXT:
                        self.ext[a] = set()  # a's first external neighbor
                    self.ext[a].add(b)
                    self.cliques[i].sum_ext += 1

    def apply_delete(self, u: int, v: int) -> None:
        iu, iv = self.part[u], self.part[v]
        if iu is not None and iu == iv:
            self.cliques[iu].anti_edges.add((u, v) if u < v else (v, u))
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

    The rule's integers come from Config.acd_floors.  Only vertices of
    degree >= deg_floor can belong to an almost-clique, which confines
    the similarity step to the (usually small) high-degree core.  Two
    adjacent core vertices are friends when they share at least
    sim_floor neighbors; the friendship components of deg_floor to
    size_cap members are the candidates, in order of their smallest
    vertex, labelled by _friend_components without popcounting every
    core edge.  Candidates are verified against the almost-clique
    definition; vertices of failed candidates fall back to the sparse
    pool, which certify_sparse_pool checks.
    """
    deg_floor, sim_floor, size_cap = cfg.acd_floors(g.delta_cap)
    deg = np.fromiter(map(len, g.adj), dtype=np.int64, count=g.n + 1)
    intra = np.zeros(g.n + 1, dtype=np.int64)
    accepted: list[set[int]] = []
    core = np.flatnonzero(deg >= deg_floor)
    if len(core):
        k = len(core)
        eu, ev = _edge_endpoints(g)
        rows = np.full(g.n + 1, -1, dtype=np.intp)
        rows[core] = np.arange(k)
        ru, rv = np.take(rows, eu), np.take(rows, ev)
        bits = _bit_rows(((ru, ev), (rv, eu)), g.n, k)
        inside = (ru >= 0) & (rv >= 0)
        ru, rv = ru[inside], rv[inside]
        label = _friend_components(bits, ru, rv, sim_floor)
        # intra-component degrees: one bincount over same-label core edges
        same = label[ru] == label[rv]
        intra[core] = np.bincount(ru[same], minlength=k) + np.bincount(rv[same], minlength=k)
        sizes = np.bincount(label, minlength=k)
        for root in np.flatnonzero((sizes >= deg_floor) & (sizes <= size_cap)).tolist():
            members = core[label == root]
            if intra[members].min() >= deg_floor:
                accepted.append(set(members.tolist()))

    return RawPartition(candidates=accepted, deg=deg, intra=intra)


def certify_sparse_pool(g: DynamicGraph, cfg: Config, raw: RawPartition) -> None:
    """Raise DecompositionFailed unless every vertex of the sparse pool,
    the vertices in no candidate, clears the sparsity floor.

    v is below the floor iff m_v > limit, and m_v <= deg(v)(deg(v)-1)/2,
    so edges inside neighborhoods are counted only when some pooled
    vertex has the degree to exceed the limit.
    """
    d = g.delta_cap
    floor_val = cfg.sparsity_floor() * d
    limit = math.floor(Fraction(d * (d - 1), 2) - d * floor_val)
    deg = raw.deg[1:]  # slot 0 is no vertex
    roomy = (np.flatnonzero(deg * (deg - 1) // 2 > limit) + 1).tolist()
    clustered = set().union(*raw.candidates)
    suspects = [v for v in roomy if v not in clustered]
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
    bits: np.ndarray, fu: np.ndarray, fv: np.ndarray, sim_floor: int
) -> np.ndarray:
    """Label each node with the smallest node of its friendship component.

    Nodes are bit rows and (fu, fv) the edges between them; an edge is a
    friendship when its rows overlap in >= sim_floor bits.  A spanning
    forest decides the components in two rounds:

    1. every node is tested against its smallest neighbor;
    2. only the edges whose ends round 1 left in different components are
       tested.

    This is exact: an edge left untested joins two nodes of one component.
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
    return _merge(label, x[keep], y[keep])


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
    d = Decomposition(g)
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
            d.ext[v] = g.adj[v] - cand if e_v else NO_EXT
            if a_v:
                for u in cand - g.adj[v] - {v}:
                    if v < u:
                        clique.anti_edges.add((v, u))
        d.cliques.append(clique)
    return d


# ---------------------------------------------------------------------------
# validation


def validate_decomposition(
    d: Decomposition, g: DynamicGraph, cfg: Config
) -> list[Violation]:
    """Check the partition against the graph; violations are data.

    The rules a rebuild sets up (sparsity, size cap, intra-degree, the
    average threshold) may drift within a phase; check_drift covers the
    facts every update keeps.  The sparsity rule tests zeta-sparsity,
    which certification guarantees only when delta_cap * eps^2 >= zeta.
    """
    out: list[Violation] = []
    cap = g.delta_cap
    deg_floor, _, size_cap = cfg.acd_floors(cap)
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
            intra = len(g.adj[v] & c.members)
            if intra < deg_floor:
                out.append(
                    Violation("intra-degree", loc, f"v={v} intra={intra} < {deg_floor}")
                )
        avg = Fraction(c.sum_anti + c.sum_ext, c.size)
        if avg > threshold:
            out.append(Violation("avg-threshold", loc, f"a_D+e_D={avg} > {threshold}"))
    return out + check_drift(d)


def check_drift(d: Decomposition) -> list[Violation]:
    """The facts apply_insert/apply_delete keep true after every update:
    each member's part, E(v) = N(v) - D and a_v, the clique's sums of e_v
    and a_v, and F_D.  Each member's external and anti sets are computed
    once, as set differences against the graph."""
    out: list[Violation] = []
    adj = d.g.adj
    for c in d.cliques:
        loc = f"clique={c.index}"
        sum_ext = sum_anti = 0
        true_f = set()
        for v in sorted(c.members):
            ext = adj[v] - c.members
            anti = c.members - adj[v]
            anti.discard(v)
            sum_ext += len(ext)
            sum_anti += len(anti)
            true_f.update((v, u) for u in anti if v < u)
            if d.ext.get(v) != ext:
                out.append(Violation("ext-set", loc, f"E({v}) stale"))
            if d.part[v] != c.index:
                # a_v reads v's clique through part
                out.append(Violation("partition", loc, f"part[{v}] != {c.index}"))
            elif d.a_v(v) != len(anti):
                out.append(Violation("anti-set", loc, f"a_{v}={d.a_v(v)} != {len(anti)}"))
        if (c.sum_ext, c.sum_anti) != (sum_ext, sum_anti):
            out.append(
                Violation(
                    "aggregate",
                    loc,
                    f"sums ({c.sum_ext},{c.sum_anti}) != ({sum_ext},{sum_anti})",
                )
            )
        if set(c.anti_edges) != true_f:
            out.append(Violation("anti-edge-set", loc, "F_D out of sync"))
    return out
