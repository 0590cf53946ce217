"""The update loop shared by the CLI and the acceptance runs."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .engine import CostReport, Engine, Update
from .report import Violation


class DriveResult(NamedTuple):
    violations: list[Violation]
    reports: list[CostReport]  # one per applied update, in order

    @property
    def applied(self) -> int:
        return len(self.reports)


def drive(
    eng: Engine,
    updates: Iterable[Update],
    *,
    sweep_every: int = 0,
    sweep_after_rebuild: bool = False,
) -> DriveResult:
    """Apply updates in order, with full invariant sweeps (Engine.verify_now)
    after every sweep_every-th update (0: never) and, with
    sweep_after_rebuild, after each update that ran a fresh coloring (a
    phase boundary or a restart).  Either schedule adds one final sweep."""
    res = DriveResult([], [])
    last_fresh = eng.meter.fresh_runs
    for upd in updates:
        res.reports.append(eng.apply(upd))
        rebuilt = eng.meter.fresh_runs != last_fresh
        last_fresh = eng.meter.fresh_runs
        if (sweep_every and res.applied % sweep_every == 0) or (
            sweep_after_rebuild and rebuilt
        ):
            res.violations.extend(eng.verify_now())
    if sweep_every or sweep_after_rebuild:
        res.violations.extend(eng.verify_now())
    return res
