"""Phase-boundary recoloring of the whole graph.

Sparser vertices are seeded by a one-shot random coloring (creating
palette slack), then finished in a uniformly random order through the
engine's sparse recolorer.  Cliques are handled in index order: build
the colorful matching, color outliers, then inliers, all by sampling
from the clique palette.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .config import RETRY_SCALE

if TYPE_CHECKING:
    from .decomposition import Clique, Decomposition
    from .engine import Engine


class PhaseRestart(Exception):
    """A retry cap was exhausted; the phase is recolored from scratch."""


@dataclass
class FreshReport:
    """Counts of one fresh coloring; its slack and class sizes are verify.py's."""

    trial_count: int
    sparse_trials: int
    one_shot_colored: int
    matching_sizes: list[int]

    def to_dict(self) -> dict:
        return asdict(self)


def fresh_coloring(eng: "Engine") -> FreshReport:
    """Total recoloring of the current graph over the frozen partition.

    The caller provides a blank ColoringState; raises PhaseRestart if any
    sub-procedure exhausts its retry budget.
    """
    st = eng.state
    trials_at_start = eng.meter.color_trials

    colored = one_shot_coloring(eng)

    uncolored = [v for v in eng.decomp.sparse_vertices if st.phi[v] is None]
    eng.rng.shuffle(uncolored)
    sparse_before = eng.meter.color_trials
    for v in uncolored:
        eng.recolor_sparse(v)
    sparse_trials = eng.meter.color_trials - sparse_before

    for c in eng.decomp.cliques:
        eng.restore_matching(c.index)
        for v in dense_order(eng.decomp, c):
            if st.phi[v] is None:
                color_dense(eng, v)

    return FreshReport(
        trial_count=eng.meter.color_trials - trials_at_start,
        sparse_trials=sparse_trials,
        one_shot_colored=colored,
        matching_sizes=[st.matching_size(c.index) for c in eng.decomp.cliques],
    )


def dense_order(decomp: "Decomposition", c: "Clique") -> list[int]:
    """c's members in the order fresh coloring colors them: outliers
    first, then inliers, each in id order.  The graph holds still during
    a fresh coloring, so no member's status changes while it runs."""
    outliers: list[int] = []
    inliers: list[int] = []
    ext, a_v = decomp.ext, decomp.a_v
    for v in sorted(c.members):
        # decomp.is_inlier(v), with v's clique already known
        (inliers if c.admits_inlier(len(ext[v]), a_v(v)) else outliers).append(v)
    return outliers + inliers


def one_shot_coloring(eng: "Engine") -> int:
    """Each sparser vertex tries one random color with probability 1/8;
    adjacent same-colored pairs are then both uncolored."""
    st = eng.state
    g = eng.g
    for v in eng.decomp.sparse_vertices:
        if eng.rng.random() < 0.125:
            st.set_color(v, eng.trial_color())
    conflicted: set[int] = set()
    for chi in range(1, st.num_colors + 1):
        members = st.classes[chi]
        k = len(members)
        # metered as the pairwise pass it models: one scan per pair
        eng.meter.class_scans += k * (k - 1) // 2
        conflicted.update(u for u in members if not g.adj[u].isdisjoint(members))
    for v in sorted(conflicted):
        st.set_color(v, None)
    return sum(len(st.classes[chi]) for chi in range(1, st.num_colors + 1))


def color_dense(eng: "Engine", v: int) -> None:
    """Sample from the clique palette until a color unused by N(v) appears."""
    ci = eng.decomp.part[v]
    palette = eng.state.clique_palette[ci]
    if not len(palette):
        raise PhaseRestart(f"clique palette exhausted in clique {ci}")
    adj_v = eng.g.adj[v]
    cap = RETRY_SCALE * len(palette) * eng.log_n
    for _ in range(cap):
        chi = eng.trial_color(palette)
        if not eng.holders_among(chi, adj_v):
            eng._color(v, chi)
            return
    raise PhaseRestart(f"retry cap in clique {ci} while coloring {v}")
