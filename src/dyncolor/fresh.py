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
    from .engine import Engine


class FreshFailed(Exception):
    pass


@dataclass
class FreshReport:
    trial_count: int
    sparse_trials: int
    one_shot_colored: int
    matching_sizes: list[int]
    min_sparse_slack: int | None = None
    max_sparse_class: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def fresh_coloring(eng: "Engine") -> FreshReport:
    """Total recoloring of the current graph over the frozen partition.

    The caller provides a blank ColoringState; raises PhaseRestart or
    FreshFailed if any sub-procedure exhausts its retry budget.
    """
    st = eng.state
    trials_at_start = eng.meter.color_trials

    colored = one_shot_coloring(eng)

    sparse = [v for v in range(1, eng.g.n + 1) if eng.decomp.part[v] is None]
    uncolored = [v for v in sparse if st.phi[v] is None]
    eng.rng.shuffle(uncolored)
    sparse_before = eng.meter.color_trials
    for v in uncolored:
        eng.recolor_sparse(v)
    sparse_trials = eng.meter.color_trials - sparse_before

    for c in eng.decomp.cliques:
        eng.restore_matching(c.index)
        outliers = sorted(c.members - c.inliers)
        for v in outliers:
            if st.phi[v] is None:
                color_dense(eng, v)
        for v in sorted(c.inliers):
            if st.phi[v] is None:
                color_dense(eng, v)

    report = FreshReport(
        trial_count=eng.meter.color_trials - trials_at_start,
        sparse_trials=sparse_trials,
        one_shot_colored=colored,
        matching_sizes=[st.matching_size(c.index) for c in eng.decomp.cliques],
    )
    if eng.strict:
        report.min_sparse_slack = min(
            (len(st.sparse_palette(eng.g, v)) for v in sparse), default=None
        )
        report.max_sparse_class = max(
            (
                sum(1 for v in st.classes[chi] if eng.decomp.part[v] is None)
                for chi in range(1, st.num_colors + 1)
            ),
            default=0,
        )
    return report


def one_shot_coloring(eng: "Engine") -> int:
    """Each sparser vertex tries one random color with probability 1/8;
    adjacent same-colored pairs are then both uncolored."""
    st = eng.state
    g = eng.g
    for v in range(1, g.n + 1):
        if eng.decomp.part[v] is not None:
            continue
        if eng.rng.random() < 0.125:
            eng.meter.color_trials += 1
            st.set_color(v, eng.rng.randint(1, st.num_colors))
    conflicted: set[int] = set()
    for chi in range(1, st.num_colors + 1):
        members = list(st.classes[chi])
        for i, u in enumerate(members):
            adj_u = g.adj[u]
            for v in members[i + 1 :]:
                eng.meter.class_scans += 1
                if v in adj_u:
                    conflicted.add(u)
                    conflicted.add(v)
    for v in sorted(conflicted):
        st.set_color(v, None)
    return sum(len(st.classes[chi]) for chi in range(1, st.num_colors + 1))


def color_dense(eng: "Engine", v: int) -> None:
    """Sample from the clique palette until a color unused by N(v) appears."""
    st = eng.state
    ci = eng.decomp.part[v]
    palette = st.clique_palette[ci]
    adj_v = eng.g.adj[v]
    cap = RETRY_SCALE * max(1, len(palette)) * eng.log_n
    for _ in range(cap):
        if not len(palette):
            raise FreshFailed(f"clique palette exhausted in clique {ci}")
        eng.meter.color_trials += 1
        chi = palette.sample(eng.rng)
        ok = True
        for u in st.classes[chi]:
            eng.meter.class_scans += 1
            if u in adj_v:
                ok = False
                break
        if ok:
            eng._color(v, chi)
            return
    raise FreshFailed(f"retry cap in clique {ci} while coloring {v}")
