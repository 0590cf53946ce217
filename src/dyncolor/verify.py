"""Independent brute-force oracles and invariant sweeps.

Everything here recomputes from the graph and phi alone, never trusting
the engine's incremental views; the sweeps are what the acceptance runs
execute after every update (or at phase boundaries for large n).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .config import C_BAL, SLACK_COEFF, Config, ceil_log2
from .decomposition import Decomposition, RawPartition
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


def brute_partition(
    g: DynamicGraph, sparse: set[int], candidates: list[set[int]]
) -> RawPartition:
    """A RawPartition of the given parts, with its degree arrays counted
    from the adjacency sets."""
    deg = np.array([len(a) for a in g.adj], dtype=np.int64)
    intra = np.zeros(g.n + 1, dtype=np.int64)
    for cand in candidates:
        for v in cand:
            intra[v] = len(g.adj[v] & cand)
    return RawPartition(sparse=sparse, candidates=candidates, deg=deg, intra=intra)


def brute_acd(g: DynamicGraph, cfg: Config) -> RawPartition:
    """Set-based twin of compute_acd: the same clustering rule, with
    overlaps as set intersections and a plain DFS that lists each
    component's members in push order."""
    d = g.delta_cap
    eps = cfg.epsilon
    deg_floor = math.ceil((1 - eps) * d)
    sim_floor = math.ceil((1 - 2 * eps) * d)
    size_cap = math.floor((1 + eps) * d)
    core = {v for v in range(1, g.n + 1) if len(g.adj[v]) >= deg_floor}

    def friends(v: int) -> list[int]:
        return [
            u
            for u in sorted(g.adj[v] & core)
            if len(g.adj[u] & g.adj[v]) >= sim_floor
        ]

    seen: set[int] = set()
    sparse = set(range(1, g.n + 1))
    accepted: list[set[int]] = []
    for start in sorted(core):
        if start in seen:
            continue
        order = [start]
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in friends(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
                    order.append(y)
        comp = set(order)
        if deg_floor <= len(comp) <= size_cap and all(
            len(g.adj[v] & comp) >= deg_floor for v in comp
        ):
            accepted.append(comp)
            sparse -= comp
    return brute_partition(g, sparse, accepted)


def brute_palette(g: DynamicGraph, state: ColoringState, v: int) -> set[int]:
    """L(v): colors unused by any neighbor."""
    used = {state.phi[u] for u in g.adj[v] if state.phi[u] is not None}
    return set(range(1, state.num_colors + 1)) - used


def brute_clique_palette(state: ColoringState, members: set[int]) -> set[int]:
    """L(D): colors unused inside the clique."""
    used = {state.phi[u] for u in members if state.phi[u] is not None}
    return set(range(1, state.num_colors + 1)) - used


# ---------------------------------------------------------------------------
# sweeps


def check_proper_fast(g: DynamicGraph, state: ColoringState) -> list[Violation]:
    """Vectorized propriety sweep; falls back to the slow scan only to
    describe a violation once one is detected."""
    # uncolored (None) becomes NaN, which equals nothing
    phi = np.array(state.phi, dtype=np.float64)
    if np.isnan(phi[1:]).any():
        return check_proper(g, state)
    if g.edge_count:
        eu = np.frombuffer(g._eu, dtype=np.int32)
        ev = np.frombuffer(g._ev, dtype=np.int32)
        if (phi[eu] == phi[ev]).any():
            return check_proper(g, state)
    return []


def check_proper(g: DynamicGraph, state: ColoringState) -> list[Violation]:
    """Every edge bi-colored with distinct colors; every vertex colored."""
    out: list[Violation] = []
    phi = state.phi
    for v in range(1, g.n + 1):
        if phi[v] is None:
            out.append(Violation("propriety", f"v={v}", "uncolored vertex"))
    for u, v in g.edges():
        if phi[u] is not None and phi[u] == phi[v]:
            out.append(
                Violation("propriety", f"edge={{{u},{v}}}", f"both colored {phi[u]}")
            )
    return out


def check_view_consistency(
    g: DynamicGraph, decomp: Decomposition, state: ColoringState
) -> list[Violation]:
    """Incremental views must equal a from-scratch rebuild over phi."""
    out: list[Violation] = []
    rebuilt = ColoringState.rebuild(
        g.n, state.num_colors, decomp, state.phi, state.matched
    )
    for chi in range(1, state.num_colors + 1):
        if state.classes[chi] != rebuilt.classes[chi]:
            out.append(Violation("view-consistency", f"chi={chi}", "class drift"))
    for c in decomp.cliques:
        ci = c.index
        if state.clique_classes[ci] != rebuilt.clique_classes[ci]:
            out.append(Violation("view-consistency", f"clique={ci}", "clique class drift"))
        if set(state.clique_palette[ci]) != set(rebuilt.clique_palette[ci]):
            out.append(Violation("view-consistency", f"clique={ci}", "palette drift"))
        if state.redundant[ci] != rebuilt.redundant[ci]:
            out.append(Violation("view-consistency", f"clique={ci}", "redundant drift"))
    return out


def check_sparse_slack(
    g: DynamicGraph, decomp: Decomposition, state: ColoringState, cfg: Config
) -> list[Violation]:
    """Every sparser vertex keeps SLACK_COEFF*gamma*zeta colors unused by
    its sparser neighbors."""
    out: list[Violation] = []
    slack_floor = SLACK_COEFF * cfg.gamma * cfg.zeta
    for v in range(1, g.n + 1):
        if decomp.part[v] is None:
            slack = len(state.sparse_palette(g, v))
            if slack < slack_floor:
                out.append(Violation("sparse-slack", f"v={v}", f"{slack} < {slack_floor}"))
    return out


def check_balance(
    state: ColoringState,
    decomp: Decomposition,
    cfg: Config,
    phase_elapsed: int,
) -> list[Violation]:
    """Mid-phase color-class size bound for the sparse part."""
    out: list[Violation] = []
    n = state.n
    cap = C_BAL * (
        Fraction(n, cfg.zeta)
        + Fraction(phase_elapsed, cfg.zeta)
        + Fraction(ceil_log2(n))
    )
    for chi in range(1, state.num_colors + 1):
        sparse_size = sum(1 for v in state.classes[chi] if decomp.part[v] is None)
        if sparse_size > cap:
            out.append(Violation("sparse-balance", f"chi={chi}", f"{sparse_size} > {cap}"))
    return out


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
    g: DynamicGraph, decomp: Decomposition, state: ColoringState, cfg: Config
) -> list[Violation]:
    """Slack, balance and matching checks on a completed fresh coloring."""
    return (
        check_sparse_slack(g, decomp, state, cfg)
        + check_balance(state, decomp, cfg, phase_elapsed=0)
        + check_dense_balance(decomp, state)
        + check_matching(decomp, state)
    )


def check_invariants(
    g: DynamicGraph, decomp: Decomposition, state: ColoringState, cfg: Config
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

    for c in decomp.cliques:
        palette = brute_clique_palette(state, c.members)
        for v in sorted(c.members):
            lhs = len(palette & brute_palette(g, state, v))
            bound = state.accounting_lower_bound(g, v)
            if lhs < bound:
                out.append(
                    Violation("accounting", f"v={v}", f"|L(D) cap L(v)|={lhs} < {bound}")
                )
    return out


def check_all(
    g: DynamicGraph,
    decomp: Decomposition,
    state: ColoringState,
    cfg: Config,
) -> list[Violation]:
    return (
        check_proper_fast(g, state)
        + check_invariants(g, decomp, state, cfg)
        + check_view_consistency(g, decomp, state)
    )
