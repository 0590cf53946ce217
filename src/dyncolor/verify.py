"""Independent brute-force oracles and invariant sweeps.

Everything here recomputes from the graph and phi alone, never trusting
the engine's incremental views; the sweeps are what the acceptance runs
execute after every update (or at phase boundaries for large n).  The
sparse palettes, slacks and class sizes and the accounting bound are
computed here and nowhere else.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .config import C_BAL, SLACK_COEFF, Config, ceil_log2
from .decomposition import Clique, Decomposition, RawPartition, check_drift
from .graph import DynamicGraph
from .report import Violation
from .state import ColoringState


def brute_force_sparsity(g: DynamicGraph, v: int) -> Fraction:
    """Triple-loop edge count inside G[N(v)]; oracle of
    all_neighborhood_edge_counts."""
    nbrs = sorted(g.adj[v])
    m = 0
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1 :]:
            if w in g.adj[u]:
                m += 1
    d = g.delta_cap
    return Fraction(d * (d - 1) // 2 - m, d)


def brute_partition(g: DynamicGraph, candidates: list[set[int]]) -> RawPartition:
    """A RawPartition of the given candidates, with its degree arrays
    counted from the adjacency sets."""
    deg = np.array([len(a) for a in g.adj], dtype=np.int64)
    intra = np.zeros(g.n + 1, dtype=np.int64)
    for cand in candidates:
        for v in cand:
            intra[v] = len(g.adj[v] & cand)
    return RawPartition(candidates=candidates, deg=deg, intra=intra)


def brute_acd(g: DynamicGraph, cfg: Config) -> RawPartition:
    """Set-based twin of compute_acd: the same clustering rule, with
    overlaps as set intersections and components found by a plain DFS."""
    deg_floor, sim_floor, size_cap = cfg.acd_floors(g.delta_cap)
    core = {v for v in range(1, g.n + 1) if len(g.adj[v]) >= deg_floor}

    def friends(v: int) -> list[int]:
        return [
            u
            for u in sorted(g.adj[v] & core)
            if len(g.adj[u] & g.adj[v]) >= sim_floor
        ]

    seen: set[int] = set()
    accepted: list[set[int]] = []
    for start in sorted(core):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            new = [y for y in friends(stack.pop()) if y not in comp]
            comp.update(new)
            stack += new
        seen |= comp
        if deg_floor <= len(comp) <= size_cap and all(
            len(g.adj[v] & comp) >= deg_floor for v in comp
        ):
            accepted.append(comp)
    return brute_partition(g, accepted)


def brute_palette(g: DynamicGraph, state: ColoringState, v: int) -> set[int]:
    """L(v): colors unused by any neighbor."""
    used = {state.phi[u] for u in g.adj[v] if state.phi[u] is not None}
    return set(range(1, state.num_colors + 1)) - used


def brute_clique_palette(state: ColoringState, members: set[int]) -> set[int]:
    """L(D): colors unused inside the clique."""
    used = {state.phi[u] for u in members if state.phi[u] is not None}
    return set(range(1, state.num_colors + 1)) - used


def sparse_palette(decomp: Decomposition, state: ColoringState, v: int) -> set[int]:
    """Colors not used by any sparser neighbor of v."""
    part, phi = decomp.part, state.phi
    used = {phi[u] for u in decomp.g.adj[v] if part[u] is None and phi[u] is not None}
    return set(range(1, state.num_colors + 1)) - used


def sparse_slacks(decomp: Decomposition, state: ColoringState) -> dict[int, int]:
    """Each sparser vertex's slack: the size of its sparse palette."""
    return {v: len(sparse_palette(decomp, state, v)) for v in decomp.sparse_vertices}


def sparse_class_sizes(state: ColoringState) -> list[int]:
    """The number of sparser vertices holding each color, indexed by color."""
    sizes = [0] * (state.num_colors + 1)
    for v in state.decomp.sparse_vertices:
        if state.phi[v] is not None:
            sizes[state.phi[v]] += 1
    return sizes


# ---------------------------------------------------------------------------
# sweeps


def check_proper(g: DynamicGraph, state: ColoringState) -> list[Violation]:
    """Every vertex colored, and every edge's ends colored differently:
    uncolored vertices in id order, then monochromatic edges in slot
    order, found in two numpy passes over phi."""
    # uncolored (None) becomes NaN, which equals nothing
    phi = np.array(state.phi, dtype=np.float64)
    out = [
        Violation("propriety", f"v={v}", "uncolored vertex")
        for v in (np.flatnonzero(np.isnan(phi[1:])) + 1).tolist()
    ]
    eu = np.frombuffer(g._eu, dtype=np.int32)
    ev = np.frombuffer(g._ev, dtype=np.int32)
    for i in np.flatnonzero(phi[eu] == phi[ev]).tolist():
        u, v = g.edge_at(i)
        chi = state.phi[u]
        out.append(Violation("propriety", f"edge={{{u},{v}}}", f"both colored {chi}"))
    return out


def check_view_consistency(
    decomp: Decomposition, state: ColoringState
) -> list[Violation]:
    """The incremental views must equal the ones recomputed from phi and
    the frozen partition: the global classes, each clique's holders per
    color (walking its members), L(D) as the colors without a holder,
    M_D as the colors with two holders or more, set_color's rule, and the
    matched-pair index as the lower ends of the pairs in matched."""
    out: list[Violation] = []
    phi = state.phi
    classes: list[set[int]] = [set() for _ in range(state.num_colors + 1)]
    for v in range(1, state.n + 1):
        if phi[v] is not None:
            classes[phi[v]].add(v)
    for chi in range(1, state.num_colors + 1):
        if state.classes[chi] != classes[chi]:
            out.append(Violation("view-consistency", f"chi={chi}", "class drift"))
    for c in decomp.cliques:
        loc = f"clique={c.index}"
        holders: dict[int, set[int]] = {}
        for v in c.members:
            if phi[v] is not None:
                holders.setdefault(phi[v], set()).add(v)
        if state.clique_classes[c.index] != holders:
            out.append(Violation("view-consistency", loc, "clique class drift"))
        if set(state.clique_palette[c.index]) != brute_clique_palette(state, c.members):
            out.append(Violation("view-consistency", loc, "palette drift"))
        if state.redundant[c.index] != {chi for chi, h in holders.items() if len(h) >= 2}:
            out.append(Violation("view-consistency", loc, "redundant drift"))
    matched = state.matched
    lows = {v for v in range(1, state.n + 1) if matched[v] is not None and v < matched[v]}
    if state.matched_lows != lows:
        out.append(Violation("view-consistency", "matched", "pair index drift"))
    return out


def check_sparse_slack(
    decomp: Decomposition, state: ColoringState, cfg: Config
) -> list[Violation]:
    """Every sparser vertex keeps SLACK_COEFF*gamma*zeta colors unused by
    its sparser neighbors."""
    slack_floor = SLACK_COEFF * cfg.gamma * cfg.zeta
    return [
        Violation("sparse-slack", f"v={v}", f"{slack} < {slack_floor}")
        for v, slack in sparse_slacks(decomp, state).items()
        if slack < slack_floor
    ]


def check_balance(state: ColoringState, cfg: Config) -> list[Violation]:
    """Color-class size bound for the sparse part."""
    n = state.n
    cap = C_BAL * (Fraction(n, cfg.zeta) + Fraction(ceil_log2(n)))
    return [
        Violation("sparse-balance", f"chi={chi}", f"{size} > {cap}")
        for chi, size in enumerate(sparse_class_sizes(state))
        if size > cap
    ]


def check_dense_balance(decomp: Decomposition, state: ColoringState) -> list[Violation]:
    """No color has more than two holders inside one clique."""
    return [
        Violation("dense-balance", f"clique={c.index},chi={chi}", f"{len(holders)} holders")
        for c in decomp.cliques
        for chi, holders in state.clique_classes[c.index].items()
        if len(holders) > 2
    ]


def check_matching(decomp: Decomposition, state: ColoringState) -> list[Violation]:
    """Every clique's colorful matching reaches floor(8*a_D)."""
    return [
        Violation(
            "matching",
            f"clique={c.index}",
            f"|M_D|={state.matching_size(c.index)} < floor(8a_D)={c.matching_target()}",
        )
        for c in decomp.cliques
        if state.matching_size(c.index) < c.matching_target()
    ]


def verify_fresh_properties(
    decomp: Decomposition, state: ColoringState, cfg: Config
) -> list[Violation]:
    """Slack, balance and matching checks on a completed fresh coloring."""
    return (
        check_sparse_slack(decomp, state, cfg)
        + check_balance(state, cfg)
        + check_dense_balance(decomp, state)
        + check_matching(decomp, state)
    )


def accounting_bounds(
    decomp: Decomposition, state: ColoringState, c: Clique
) -> dict[int, int]:
    """Each member's guaranteed (possibly negative) |L(D) cap L(v)|.

    L(D) keeps delta_cap + 1 - |D| + |M_D| + (uncolored members) colors,
    one base per clique, and each colored external neighbor of v removes
    at most one.  This is delta_cap - deg(v) + |M_D| - a_v + (uncolored
    members and external neighbors), with deg(v) cancelled through
    a_v = |D| - 1 - deg(v) + e_v.
    """
    phi = state.phi
    base = (
        decomp.g.delta_cap
        + 1
        - len(c.members)
        + state.matching_size(c.index)
        + sum(1 for u in c.members if phi[u] is None)
    )
    return {
        v: base - sum(1 for u in decomp.ext[v] if phi[u] is not None) for v in c.members
    }


def check_invariants(
    g: DynamicGraph, decomp: Decomposition, state: ColoringState
) -> list[Violation]:
    """Dense Balance, Matching, matched-array sanity, accounting bound."""
    out = check_dense_balance(decomp, state) + check_matching(decomp, state)

    for u in range(1, g.n + 1):
        w = state.matched[u]
        if w is None:
            continue
        if state.matched[w] != u:
            out.append(Violation("matched-symmetry", f"u={u}", f"partner {w} disagrees"))
            continue
        if u < w:
            if decomp.part[u] is None or decomp.part[u] != decomp.part[w]:
                out.append(
                    Violation("matched-symmetry", f"pair=({u},{w})", "not co-clique")
                )
            if g.has_edge(u, w):
                out.append(Violation("matched-symmetry", f"pair=({u},{w})", "adjacent"))
            if (
                state.phi[u] is not None
                and state.phi[w] is not None
                and state.phi[u] != state.phi[w]
            ):
                out.append(
                    Violation("matched-symmetry", f"pair=({u},{w})", "colors differ")
                )

    phi = state.phi
    for c in decomp.cliques:
        palette = brute_clique_palette(state, c.members)
        bounds = accounting_bounds(decomp, state, c)
        for v in sorted(c.members):
            if decomp.part[v] != c.index:
                continue  # a member outside its clique is check_drift's to report
            # |L(D) cap L(v)|, without building L(v)
            lhs = len(palette - {phi[u] for u in g.adj[v]})
            if lhs < bounds[v]:
                out.append(
                    Violation("accounting", f"v={v}", f"|L(D) cap L(v)|={lhs} < {bounds[v]}")
                )
    return out


def check_all(
    g: DynamicGraph,
    decomp: Decomposition,
    state: ColoringState,
    cfg: Config,
) -> list[Violation]:
    """The whole sweep.  No check in it reads cfg; it takes an engine's
    four parts so that a caller can pass them as they are."""
    return (
        check_proper(g, state)
        + check_invariants(g, decomp, state)
        + check_view_consistency(decomp, state)
        + check_drift(decomp)
    )
