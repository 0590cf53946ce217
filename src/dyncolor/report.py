"""Violation records shared by the validator and the invariant sweeps."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    details: str = ""


def summarize(violations: list[Violation], limit: int = 20) -> str:
    lines = [f"{v.kind} @ {v.location}: {v.details}" for v in violations[:limit]]
    if len(violations) > limit:
        lines.append(f"... and {len(violations) - limit} more")
    return "\n".join(lines)
