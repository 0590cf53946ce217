"""Update handlers and recoloring procedures.

Two regimes: below the dispatch threshold the naive recolorer scans the
neighborhood of the conflicting endpoint; above it, updates run in
phases over a frozen sparser-denser partition, recoloring through
random color trials with color stealing.  All availability checks walk
color classes (never adjacency lists) on the phased path, and every
probe is counted by the cost meter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import fresh as fresh_mod
from .config import RETRY_SCALE, Config, ceil_log2
from .decomposition import (
    DecompositionFailed,
    Decomposition,
    certify_sparse_pool,
    compute_acd,
    refine_to_sparser_denser,
)
from .graph import DynamicGraph
from .state import ColoringState

# fresh colorings tried per phase start before the engine gives up
FRESH_RETRIES = 2


class PhaseRestart(Exception):
    """A retry cap was exhausted; the phase is recolored from scratch."""


class InlierPaletteEmpty(Exception):
    """The deterministic inlier search found no color; invariants were broken."""


class EngineFailure(Exception):
    """Fresh coloring or decomposition failed beyond the retry budget."""


@dataclass
class CostMeter:
    color_trials: int = 0
    class_scans: int = 0
    palette_probes: int = 0
    recolorings: int = 0
    fresh_cost: int = 0
    fresh_runs: int = 0
    restarts: int = 0

    def total_ops(self) -> int:
        return self.color_trials + self.class_scans + self.palette_probes + self.recolorings

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.color_trials, self.class_scans, self.palette_probes, self.recolorings)


@dataclass(slots=True)
class CostReport:
    color_trials: int
    class_scans: int
    palette_probes: int
    recolorings: int
    sparse_recolors: int
    steals: int
    # a retry cap tripped and the phase was recolored inside this update
    restarted: bool = False


@dataclass
class PhaseController:
    t: int
    retry_cap_sparse: int
    retry_cap_matching: int
    counter: int = 0


@dataclass(frozen=True)
class Update:
    op: str  # "+" or "-"
    u: int
    v: int


class Engine:
    """Single-threaded coloring engine; reproducible from (seed, trace)."""

    def __init__(
        self,
        n: int,
        delta_cap: int,
        cfg: Config,
        seed: int,
        mode: str = "auto",
        strict: bool = False,
        initial_edges: list[tuple[int, int]] | None = None,
    ) -> None:
        self.cfg = cfg
        self.g = DynamicGraph(n, delta_cap)
        self.rng = random.Random(seed)
        self.seed = seed
        # strict mode raises on a broken invariant instead of restarting the
        # phase, and fills the fresh reports' slack and class-size figures
        self.strict = strict
        if mode == "auto":
            mode = "phased" if cfg.dense_path_active(delta_cap) else "naive"
        if mode not in ("phased", "naive"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode

        self.meter = CostMeter()
        # all vertices sparser until a phase starts; the naive mode keeps it
        self.decomp = Decomposition(n)
        self.state = ColoringState(n, delta_cap + 1, self.decomp)
        t = cfg.phase_length
        self.log_n = ceil_log2(n)
        self.phase = PhaseController(
            t=t,
            retry_cap_sparse=math.ceil(RETRY_SCALE * (delta_cap + 1) / t) * self.log_n,
            retry_cap_matching=RETRY_SCALE * self.log_n,
        )
        self._update_sparse_recolors = 0
        self._update_steals = 0
        self.updates_applied = 0
        self.fresh_reports: list = []

        if initial_edges:
            for u, v in initial_edges:
                self.g.insert_edge(u, v)
        if self.mode == "phased":
            self._start_phase()
        else:
            self._naive_color_all()

    # ------------------------------------------------------------------
    # phase management

    def _start_phase(self) -> None:
        try:
            raw = compute_acd(self.g, self.cfg)
            certify_sparse_pool(self.g, self.cfg, raw)
        except DecompositionFailed as exc:
            raise EngineFailure(str(exc)) from exc
        self.decomp = refine_to_sparser_denser(raw, self.g, self.cfg)
        before = self.meter.total_ops()
        last_err: Exception | None = None
        for attempt in range(FRESH_RETRIES + 1):
            self.state = ColoringState(self.g.n, self.g.delta_cap + 1, self.decomp)
            try:
                report = fresh_mod.fresh_coloring(self)
                break
            except (PhaseRestart, fresh_mod.FreshFailed) as exc:
                last_err = exc
                self.rng = random.Random(self.rng.getrandbits(64))
        else:
            raise EngineFailure(f"fresh coloring failed: {last_err}")
        self.meter.fresh_cost += self.meter.total_ops() - before
        self.meter.fresh_runs += 1
        self.fresh_reports.append(report)
        self.phase.counter = 0

    def _naive_color_all(self) -> None:
        for v in range(1, self.g.n + 1):
            if self.state.phi[v] is None:
                self.naive_recolor(v)

    # ------------------------------------------------------------------
    # public surface

    def apply(self, update: Update) -> CostReport:
        if self.mode == "phased" and self.phase.counter >= self.phase.t:
            self._start_phase()
        before = self.meter.snapshot()
        self._update_sparse_recolors = 0
        self._update_steals = 0
        restarted = False
        try:
            if update.op == "+":
                self._handle_insert(update.u, update.v)
            elif update.op == "-":
                self._handle_delete(update.u, update.v)
            else:
                raise ValueError(f"unknown op {update.op!r}")
        except PhaseRestart:
            self.meter.restarts += 1
            restarted = True
            self._start_phase()
        self.phase.counter += 1
        self.updates_applied += 1
        after = self.meter.snapshot()
        return CostReport(
            *(a - b for a, b in zip(after, before)),
            sparse_recolors=self._update_sparse_recolors,
            steals=self._update_steals,
            restarted=restarted,
        )

    def snapshot(self) -> dict:
        return {
            "n": self.g.n,
            "delta": self.g.delta_cap,
            "mode": self.mode,
            "phase_counter": self.phase.counter,
            "updates": self.updates_applied,
            **self.state.to_dict(),
        }

    def verify_now(self) -> list:
        from . import verify as verify_mod

        return verify_mod.check_all(self.g, self.decomp, self.state, self.cfg)

    # ------------------------------------------------------------------
    # update handlers

    def _handle_insert(self, u: int, v: int) -> None:
        self.g.insert_edge(u, v)
        if self.mode == "phased":
            self.decomp.apply_insert(u, v)
        st = self.state
        unmatched_clique: int | None = None
        if st.phi[u] is not None and st.phi[u] == st.phi[v]:
            st.set_color(u, None)
            if st.matched[u] is not None:
                st.unmatch(u)
                unmatched_clique = self.decomp.part[u]
        if self.mode == "phased":
            iu, iv = self.decomp.part[u], self.decomp.part[v]
            # a conflict on a matched vertex shrinks its clique's matching
            # even when the edge leaves the clique, so the deficit check
            # covers u's clique whenever a pair was broken, not only the
            # same-clique case
            for ci in {i for i in (unmatched_clique, iu if iu == iv else None) if i is not None}:
                self.restore_matching(ci)
        if st.phi[u] is None:
            self._dispatch_recolor(u)

    def _handle_delete(self, u: int, v: int) -> None:
        self.g.delete_edge(u, v)
        if self.mode == "phased":
            self.decomp.apply_delete(u, v)
            iu, iv = self.decomp.part[u], self.decomp.part[v]
            if iu is not None and iu == iv:
                self.restore_matching(iu)

    def _dispatch_recolor(self, u: int) -> None:
        if self.mode == "naive":
            self.naive_recolor(u)
        elif self.decomp.part[u] is None:
            self.recolor_sparse(u)
        elif self.state.matched[u] is not None:
            self.recolor_matching(u, self.state.matched[u])
        else:
            self.recolor_dense(u)

    # ------------------------------------------------------------------
    # coloring helpers

    def _color(self, v: int, chi: int) -> None:
        self.state.set_color(v, chi)
        self.meter.recolorings += 1
        if self.decomp.part[v] is None:
            self._update_sparse_recolors += 1

    def _steal(self, w: int) -> None:
        self.state.set_color(w, None)
        self._update_steals += 1

    # ------------------------------------------------------------------
    # naive regime

    def naive_recolor(self, v: int) -> None:
        """Smallest free color after one adjacency scan."""
        st = self.state
        used = set()
        for u in self.g.adj[v]:
            self.meter.class_scans += 1
            if st.phi[u] is not None:
                used.add(st.phi[u])
        for chi in range(1, self.g.delta_cap + 2):
            self.meter.palette_probes += 1
            if chi not in used:
                self._color(v, chi)
                return
        raise AssertionError("degree cap guarantees a free color")

    # ------------------------------------------------------------------
    # sparser path

    def sparse_color_check(self, v: int, chi: int) -> tuple[bool, int | None]:
        """Availability of chi for sparser v, via its color class only.

        Returns (ok, w) where w is the unique denser neighbor currently
        holding chi, if any.
        """
        st = self.state
        part = self.decomp.part
        adj_v = self.g.adj[v]
        w: int | None = None
        for u in st.classes[chi]:
            self.meter.class_scans += 1
            if u in adj_v:
                if part[u] is None:
                    return False, None
                if w is not None:
                    return False, None
                w = u
        return True, w

    def recolor_sparse(self, v: int) -> None:
        st = self.state
        for _ in range(self.phase.retry_cap_sparse):
            self.meter.color_trials += 1
            chi = self.rng.randint(1, self.g.delta_cap + 1)
            ok, w = self.sparse_color_check(v, chi)
            if not ok:
                continue
            if w is not None:
                self._steal(w)
                self._color(v, chi)
                if st.matched[w] is None:
                    self.recolor_dense(w)
                else:
                    self.recolor_matching(w, st.matched[w])
            else:
                self._color(v, chi)
            return
        raise PhaseRestart(f"sparse retry cap at v={v}")

    # ------------------------------------------------------------------
    # denser path

    def outlier_color_check(self, v: int, chi: int) -> bool:
        """chi must be non-redundant and unused by non-inlier neighbors."""
        st = self.state
        ci = self.decomp.part[v]
        if chi in st.redundant[ci]:
            return False
        adj_v = self.g.adj[v]
        part = self.decomp.part
        for u in st.classes[chi]:
            self.meter.class_scans += 1
            if u in adj_v and not (part[u] == ci and self.decomp.is_inlier(u)):
                return False
        return True

    def recolor_dense(self, v: int) -> None:
        ci = self.decomp.part[v]
        assert ci is not None and self.state.matched[v] is None
        if self.decomp.is_inlier(v):
            self._recolor_inlier(v, ci)
        else:
            self._recolor_outlier(v, ci)

    def _recolor_inlier(self, v: int, ci: int) -> None:
        st = self.state
        used_ext = set()
        for u in self.decomp.ext[v]:
            self.meter.palette_probes += 1
            if st.phi[u] is not None:
                used_ext.add(st.phi[u])
        for chi in st.clique_palette[ci].sorted():
            self.meter.palette_probes += 1
            if chi not in used_ext:
                self._color(v, chi)
                return
        if self.strict:
            raise InlierPaletteEmpty(f"no palette color for inlier {v}")
        raise PhaseRestart(f"inlier palette empty at v={v}")

    def _recolor_outlier(self, v: int, ci: int) -> None:
        st = self.state
        for _ in range(self.phase.retry_cap_sparse):
            self.meter.color_trials += 1
            chi = self.rng.randint(1, self.g.delta_cap + 1)
            if not self.outlier_color_check(v, chi):
                continue
            inlier_holders = [
                u for u in st.clique_holders(ci, chi) if self.decomp.is_inlier(u)
            ]
            assert len(inlier_holders) <= 1, "redundant colors are filtered out"
            if inlier_holders:
                u = inlier_holders[0]
                self._steal(u)
                self._color(v, chi)
                self.recolor_dense(u)
            else:
                self._color(v, chi)
            return
        raise PhaseRestart(f"outlier retry cap at v={v}")

    def matching_color_check(self, u: int, v: int, chi: int) -> bool:
        """chi must be non-redundant and unused by external neighbors of u, v."""
        st = self.state
        ci = self.decomp.part[u]
        if chi in st.redundant[ci]:
            return False
        ext_u, ext_v = self.decomp.ext[u], self.decomp.ext[v]
        for w in st.classes[chi]:
            self.meter.class_scans += 1
            if w in ext_u or w in ext_v:
                return False
        return True

    def recolor_matching(self, u: int, v: int) -> None:
        st = self.state
        ci = self.decomp.part[u]
        assert ci is not None and ci == self.decomp.part[v]
        if st.matched[u] is None and st.matched[v] is None:
            st.match(u, v)
        else:
            assert st.matched[u] == v and st.matched[v] == u
        for _ in range(self.phase.retry_cap_matching):
            self.meter.color_trials += 1
            chi = self.rng.randint(1, self.g.delta_cap + 1)
            if not self.matching_color_check(u, v, chi):
                continue
            # u or v may still hold a color (re-coloring an existing pair);
            # re-using it is fine and is not a steal
            holders = st.clique_holders(ci, chi) - {u, v}
            if len(holders) == 1:
                (w,) = holders
                assert st.matched[w] is None, "matched colors are redundant"
                self._steal(w)
                self._color(u, chi)
                self._color(v, chi)
                self.recolor_dense(w)
            else:
                self._color(u, chi)
                self._color(v, chi)
            return
        raise PhaseRestart(f"matching retry cap at pair ({u},{v})")

    def restore_matching(self, ci: int) -> None:
        """Augment clique ci's colorful matching up to floor(8*a_D).

        A loop, not a single augmentation: recoloring a new pair can strip
        a color whose two holders were an unmatched coincidence, leaving
        the matching size unchanged.
        """
        target = self.decomp.cliques[ci].matching_target()
        while self.state.matching_size(ci) < target:
            self.add_anti_edge_matching(ci)

    def add_anti_edge_matching(self, ci: int) -> None:
        st = self.state
        c = self.decomp.cliques[ci]
        if not len(c.anti_edges):
            raise PhaseRestart(f"no anti-edges left in clique {ci}")
        for _ in range(self.phase.retry_cap_matching):
            self.meter.palette_probes += 1
            x, y = c.anti_edges.sample(self.rng)
            if st.matched[x] is None and st.matched[y] is None:
                # the pair ends matched on a shared color, but the size
                # of the derived matching may stay flat when the new
                # colors break coincidental two-holder colors;
                # restore_matching loops until its target is met
                self.recolor_matching(x, y)
                if self.strict:
                    assert st.matched[x] == y
                return
        raise PhaseRestart(f"anti-edge retry cap in clique {ci}")
