"""Color assignment plus every indexed view the recolorer samples from;
figures recomputed from phi alone (sparse slack, class sizes) live in verify.py.

All views (global classes, per-clique classes, clique palettes, the
redundant-color sets) are derived from phi and the frozen partition;
they are updated in lockstep by set_color, and
verify.check_view_consistency recomputes them from phi alone.  The
index of matched pairs is derived from matched, kept by match and
unmatch, and recomputed by the same check.
Redundant sets are never mutated directly: a color enters M_D exactly
when its per-clique class reaches two holders, which is what makes
floor(8*a_D) comparisons testable.
"""

from __future__ import annotations

from .decomposition import Decomposition
from .sets import SampleSet


# what clique_holders answers for a color no member holds; no caller mutates it
NO_HOLDERS: frozenset[int] = frozenset()


class ColorOutOfRange(Exception):
    pass


class ColoringState:
    def __init__(self, decomp: Decomposition) -> None:
        n = self.n = decomp.g.n
        num_colors = self.num_colors = decomp.g.delta_cap + 1
        self.decomp = decomp
        self.phi: list[int | None] = [None] * (n + 1)
        self.classes: list[set[int]] = [set() for _ in range(num_colors + 1)]
        self.clique_classes: list[dict[int, set[int]]] = [
            {} for _ in decomp.cliques
        ]
        # sampleable so the fresh-coloring stage can draw uniformly from L(D)
        self.clique_palette: list[SampleSet] = [
            SampleSet(range(1, num_colors + 1)) for _ in decomp.cliques
        ]
        self.redundant: list[set[int]] = [set() for _ in decomp.cliques]
        self.matched: list[int | None] = [None] * (n + 1)
        # the lower end of every matched pair, kept by match and unmatch
        self.matched_lows: set[int] = set()
        # a set registered by one adversary view: set_color adds both the
        # old and the new color of every change to it (None included)
        self.watch: set[int | None] | None = None

    # -- core mutation ------------------------------------------------------

    def set_color(self, v: int, chi: int | None) -> None:
        if chi is not None and not 1 <= chi <= self.num_colors:
            raise ColorOutOfRange(f"color {chi} outside [1, {self.num_colors}]")
        old = self.phi[v]
        if old == chi:
            return
        if self.watch is not None:
            self.watch.update((old, chi))
        ci = self.decomp.part[v]
        if old is not None:
            self.classes[old].discard(v)
            if ci is not None:
                holders = self.clique_classes[ci][old]
                holders.discard(v)
                if len(holders) == 1:
                    self.redundant[ci].discard(old)
                elif not holders:
                    del self.clique_classes[ci][old]
                    self.clique_palette[ci].add(old)
        self.phi[v] = chi
        if chi is not None:
            self.classes[chi].add(v)
            if ci is not None:
                holders = self.clique_classes[ci].get(chi)
                if holders is None:
                    holders = self.clique_classes[ci][chi] = set()
                    self.clique_palette[ci].discard(chi)
                holders.add(v)
                if len(holders) == 2:
                    self.redundant[ci].add(chi)

    def match(self, u: int, v: int) -> None:
        assert self.matched[u] is None and self.matched[v] is None
        self.matched[u] = v
        self.matched[v] = u
        self.matched_lows.add(min(u, v))

    def unmatch(self, u: int) -> None:
        w = self.matched[u]
        if w is not None:
            self.matched[u] = None
            self.matched[w] = None
            self.matched_lows.discard(min(u, w))

    # -- derived queries ----------------------------------------------------

    def matching_size(self, ci: int) -> int:
        return len(self.redundant[ci])

    def clique_holders(self, ci: int, chi: int) -> set[int] | frozenset[int]:
        return self.clique_classes[ci].get(chi, NO_HOLDERS)

    def accounting_lower_bound(self, v: int) -> int:
        """Guaranteed (possibly negative) size of L(D) intersect L(v)."""
        ci = self.decomp.part[v]
        assert ci is not None, "accounting bound applies to denser vertices"
        c = self.decomp.cliques[ci]
        uncolored = sum(1 for u in c.members if self.phi[u] is None)
        uncolored += sum(1 for u in self.decomp.ext[v] if self.phi[u] is None)
        g = self.decomp.g
        return (
            g.delta_cap
            - g.degree(v)
            + self.matching_size(ci)
            - self.decomp.a_v(v)
            + uncolored
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "phi": self.phi[1:],
            "matched": self.matched[1:],
        }
