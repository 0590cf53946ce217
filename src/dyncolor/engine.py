"""Update handlers and recoloring procedures.

Two regimes: below the dispatch threshold the naive recolorer gives the
conflicting endpoint the smallest color that no neighbor holds; above
it, updates run in phases over a frozen sparser-denser partition,
recoloring through random color trials with color stealing.  Each step
has one home: Engine.trial_color draws and meters every trial color,
Engine.holders_among answers every availability check of the random
paths, and Engine._take does every steal.  An availability check is
metered as the paper charges it, one scan of the whole color class,
although CPython's set intersection iterates the smaller of its two
sets.  The naive path is metered as the one neighborhood scan it models.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

from . import fresh as fresh_mod
from . import verify as verify_mod
from .config import RETRY_SCALE, Config, ceil_log2
from .decomposition import (
    DecompositionFailed,
    Decomposition,
    certify_sparse_pool,
    compute_acd,
    refine_to_sparser_denser,
)
from .fresh import PhaseRestart
from .graph import DynamicGraph
from .sets import SampleSet
from .state import ColoringState

# fresh colorings tried per phase start before the engine gives up
FRESH_RETRIES = 2


class InlierPaletteEmpty(Exception):
    """The deterministic inlier search found no color; invariants were broken."""


class EngineFailure(Exception):
    """Fresh coloring or decomposition failed beyond the retry budget."""


@dataclass
class CostMeter:
    """Op counts, each a closed form of what its step models, not of
    the order CPython iterates in.

    color_trials     one per trial_color draw
    class_scans      |class| per holders_among check, deg(v) per naive
                     recolor, C(k, 2) per one-shot class of k members
    palette_probes   chi per naive recolor onto chi, one per external
                     neighbor or palette color the inlier search reads,
                     one per anti-edge drawn
    recolorings      one per _color; sparse_recolors, those of sparser v
    fresh_cost       the total_ops of phase starts, retries included;
                     fresh_runs, the phase starts
    restarts         updates in which a retry cap restarted the phase
    steals           one per holder that _take strips
    """

    color_trials: int = 0
    class_scans: int = 0
    palette_probes: int = 0
    recolorings: int = 0
    fresh_cost: int = 0
    fresh_runs: int = 0
    restarts: int = 0
    sparse_recolors: int = 0
    steals: int = 0

    def total_ops(self) -> int:
        return self.color_trials + self.class_scans + self.palette_probes + self.recolorings

    def snapshot(self) -> tuple[int, int, int, int, int, int, int]:
        """The per-update counts, in CostReport field order."""
        return (
            self.color_trials,
            self.class_scans,
            self.palette_probes,
            self.recolorings,
            self.sparse_recolors,
            self.steals,
            self.restarts,
        )


@dataclass(slots=True)
class CostReport:
    color_trials: int
    class_scans: int
    palette_probes: int
    recolorings: int
    sparse_recolors: int
    steals: int
    # 1 when a retry cap tripped and the phase was recolored inside this update
    restarts: int


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
        self.g = DynamicGraph.from_edges(n, delta_cap, initial_edges or ())
        self.rng = random.Random(seed)
        # strict mode raises InlierPaletteEmpty on an empty inlier palette
        # instead of restarting the phase; nothing else reads it
        self.strict = strict
        if mode == "auto":
            mode = "phased" if cfg.dense_path_active(delta_cap) else "naive"
        if mode not in ("phased", "naive"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode

        self.meter = CostMeter()
        # all vertices sparser until a phase starts; the naive mode keeps it
        self.decomp = Decomposition(self.g)
        self.state = ColoringState(self.decomp)
        t = cfg.phase_length
        self.log_n = ceil_log2(n)
        self.phase = PhaseController(
            t=t,
            retry_cap_sparse=math.ceil(RETRY_SCALE * (delta_cap + 1) / t) * self.log_n,
            retry_cap_matching=RETRY_SCALE * self.log_n,
        )
        self.updates_applied = 0
        self.fresh_reports: list = []

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
            self.state = ColoringState(self.decomp)
            try:
                report = fresh_mod.fresh_coloring(self)
                break
            except PhaseRestart as exc:
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
        if update.op == "+":
            handle, check = self._handle_insert, self.g.check_insert
        elif update.op == "-":
            handle, check = self._handle_delete, self.g.check_delete
        else:
            raise ValueError(f"unknown op {update.op!r}")
        if self.mode == "phased" and self.phase.counter >= self.phase.t:
            # an update the graph refuses must not start the phase it is due
            check(update.u, update.v)
            self._start_phase()
        before = self.meter.snapshot()
        try:
            handle(update.u, update.v)
        except PhaseRestart:
            self.meter.restarts += 1
            self._start_phase()
        self.phase.counter += 1
        self.updates_applied += 1
        return CostReport(*map(operator.sub, self.meter.snapshot(), before))

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
        return verify_mod.check_all(self.g, self.decomp, self.state, self.cfg)

    # ------------------------------------------------------------------
    # update handlers

    def _handle_insert(self, u: int, v: int) -> None:
        self.g.insert_edge(u, v)
        self.decomp.apply_insert(u, v)
        st = self.state
        broke_pair = False
        if st.phi[u] is not None and st.phi[u] == st.phi[v]:
            st.set_color(u, None)
            if st.matched[u] is not None:
                st.unmatch(u)
                broke_pair = True
        part = self.decomp.part
        iu = part[u]
        # a conflict on a matched vertex shrinks its clique's matching
        # even when the edge leaves the clique, so the deficit check
        # covers u's clique whenever a pair was broken, not only the
        # same-clique case
        if iu is not None and (broke_pair or iu == part[v]):
            self.restore_matching(iu)
        if st.phi[u] is None:
            self._dispatch_recolor(u)

    def _handle_delete(self, u: int, v: int) -> None:
        self.g.delete_edge(u, v)
        self.decomp.apply_delete(u, v)
        iu = self.decomp.part[u]
        if iu is not None and iu == self.decomp.part[v]:
            self.restore_matching(iu)

    def _dispatch_recolor(self, u: int) -> None:
        if self.mode == "naive":
            self.naive_recolor(u)
        elif self.decomp.part[u] is None:
            self.recolor_sparse(u)
        else:
            self.recolor_dense(u)

    # ------------------------------------------------------------------
    # coloring helpers

    def _color(self, v: int, chi: int) -> None:
        self.state.set_color(v, chi)
        self.meter.recolorings += 1
        if self.decomp.part[v] is None:
            self.meter.sparse_recolors += 1

    def trial_color(self, palette: SampleSet | None = None) -> int:
        """One trial color, metered as one color trial: uniform in [1, Δ+1],
        or over palette when given."""
        self.meter.color_trials += 1
        if palette is None:
            # rng.randint(1, Δ+1) without its call layers: the same
            # getrandbits draws, redrawn while out of range
            colors = self.g.delta_cap + 1
            k = colors.bit_length()
            r = self.rng.getrandbits(k)
            while r >= colors:
                r = self.rng.getrandbits(k)
            return r + 1
        return palette.sample(self.rng)

    def holders_among(self, chi: int, nbrs: set[int] | frozenset[int]) -> set[int]:
        """The holders of chi that lie in nbrs, as one C-level set
        intersection.  Metered as the modelled scan of chi's whole class,
        one class scan per member, whichever set CPython iterates."""
        cls = self.state.classes[chi]
        self.meter.class_scans += len(cls)
        return cls & nbrs

    def _take(self, chi: int, targets: tuple[int, ...], w: int | None) -> None:
        """Color every target chi.  A holder w of chi has it stolen first
        and is recolored last, with its partner if it is matched."""
        st = self.state
        if w is not None:
            st.set_color(w, None)
            self.meter.steals += 1
        for x in targets:
            self._color(x, chi)
        if w is None:
            return
        if st.matched[w] is None:
            self.recolor_dense(w)
        else:
            self.recolor_matching(w, st.matched[w])

    # ------------------------------------------------------------------
    # naive regime

    def naive_recolor(self, v: int) -> None:
        """Smallest free color: the first class disjoint from N(v).

        Metered as one adjacency scan (deg(v) class scans) followed by
        one palette probe per color tried.
        """
        adj_v = self.g.adj[v]
        classes = self.state.classes
        self.meter.class_scans += len(adj_v)
        for chi in range(1, self.g.delta_cap + 2):
            if classes[chi].isdisjoint(adj_v):
                self.meter.palette_probes += chi
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
        held = self.holders_among(chi, self.g.adj[v])
        if not held:
            return True, None
        if len(held) == 1:
            (w,) = held
            if self.decomp.part[w] is not None:
                return True, w
        return False, None

    def recolor_sparse(self, v: int) -> None:
        for _ in range(self.phase.retry_cap_sparse):
            chi = self.trial_color()
            ok, w = self.sparse_color_check(v, chi)
            if ok:
                if w is None:
                    self._color(v, chi)
                else:
                    self._take(chi, (v,), w)
                return
        raise PhaseRestart(f"sparse retry cap at v={v}")

    # ------------------------------------------------------------------
    # denser path

    def outlier_color_check(self, v: int, chi: int) -> bool:
        """chi must be non-redundant and unused by non-inlier neighbors."""
        part = self.decomp.part
        ci = part[v]
        if chi in self.state.redundant[ci]:
            return False
        held = self.holders_among(chi, self.g.adj[v])
        return all(part[u] == ci and self.decomp.is_inlier(u) for u in held)

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
        for _ in range(self.phase.retry_cap_sparse):
            chi = self.trial_color()
            if self.outlier_color_check(v, chi):
                inlier_holders = [
                    u for u in self.state.clique_holders(ci, chi) if self.decomp.is_inlier(u)
                ]
                assert len(inlier_holders) <= 1, "redundant colors are filtered out"
                self._take(chi, (v,), inlier_holders[0] if inlier_holders else None)
                return
        raise PhaseRestart(f"outlier retry cap at v={v}")

    def matching_color_check(self, u: int, v: int, chi: int) -> bool:
        """chi must be non-redundant and unused by external neighbors of u, v."""
        ci = self.decomp.part[u]
        if chi in self.state.redundant[ci]:
            return False
        ext = self.decomp.ext
        return not self.holders_among(chi, ext[u] | ext[v])

    def recolor_matching(self, u: int, v: int) -> None:
        st = self.state
        ci = self.decomp.part[u]
        assert ci is not None and ci == self.decomp.part[v]
        if st.matched[u] is None and st.matched[v] is None:
            st.match(u, v)
        else:
            assert st.matched[u] == v and st.matched[v] == u
        for _ in range(self.phase.retry_cap_matching):
            chi = self.trial_color()
            if self.matching_color_check(u, v, chi):
                # u or v may still hold a color (re-coloring an existing
                # pair); re-using it is fine and is not a steal
                holders = st.clique_holders(ci, chi) - {u, v}
                w = holders.pop() if holders else None
                assert w is None or st.matched[w] is None, "matched colors are redundant"
                self._take(chi, (u, v), w)
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
                assert st.matched[x] == y
                return
        raise PhaseRestart(f"anti-edge retry cap in clique {ci}")
