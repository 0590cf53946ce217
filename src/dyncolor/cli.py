"""Command-line front end: trace generation, metered runs, scaling fits.

Exit codes: 0 clean, 1 invariant violation detected, 2 usage error,
3 engine failure.  Operation counts (not wall clock) are the primary
measurand; wall-clock timings live under the "timing" key so that
everything else is byte-stable for a fixed (seed, trace, config).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from . import adversary as adv
from .config import Config, auto_zeta
from .drive import drive
from .engine import CostMeter, Engine, EngineFailure, InlierPaletteEmpty
from .graph import VERTEX_LIMIT, GraphError
from .instances import random_graph
from .report import summarize

METRICS_SCHEMA = "dyncolor-metrics/1"
EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3

# Config's epsilon needs Delta*eps^2 >= 1 before the dense machinery can
# engage at all; below that Delta the small-graph fallback 1/8 is used
EPS_LARGE = Config.epsilon
EPS_SMALL = Fraction(1, 8)
EPS_DELTA_FLOOR = math.ceil(1 / EPS_LARGE**2)
# an adversary's stream seed is the run seed XOR this salt
STREAM_SALT = 0x5EED


class UsageError(Exception):
    pass


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("COLOR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"COLOR_SEED must be an integer, got {env!r}") from None
    return 0


def resolve_epsilon(delta: int, flag: str | None) -> tuple[Fraction, str]:
    if flag is not None:
        eps = Fraction(flag)
        return eps, "explicit"
    if delta >= EPS_DELTA_FLOOR:
        return EPS_LARGE, "default-large-delta"
    return EPS_SMALL, "fallback-small-delta"


def resolve_zeta(n: int, flag: str) -> int:
    if flag == "auto":
        return auto_zeta(n)
    z = int(flag)
    if z < 1:
        raise UsageError("zeta must be >= 1 or 'auto'")
    return z


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 2 or args.delta < 1 or args.delta > args.n - 1:
        raise UsageError("need n >= 2 and 1 <= delta <= n-1")
    if args.steps < 0:
        raise UsageError("steps must be >= 0")
    seed = resolve_seed(args.seed)
    try:
        stream = adv.oblivious_adversary(args.n, args.delta, args.steps, args.density, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    adv.record_trace(args.out, args.n, args.delta, stream)
    print(f"wrote {len(stream)} updates to {args.out}")
    return EXIT_OK


def _aggregate(values: list[int]) -> dict:
    if not values:
        return {"mean": 0.0, "median": 0.0, "max": 0}
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def run_engine(
    *,
    n: int,
    delta: int,
    cfg: Config,
    seed: int,
    mode: str,
    verify: str,
    updates=None,
    adversary: str | None = None,
    steps: int = 0,
) -> dict:
    """Drive one engine run and return the metrics document."""
    t0 = time.perf_counter()
    eng = Engine(n, delta, cfg, seed=seed, mode=mode, strict=verify != "off")
    if updates is None:
        updates = adv.adversary_stream(adversary, eng, steps, seed ^ STREAM_SALT)
    res = drive(
        eng,
        updates,
        sweep_every=1 if verify == "every" else 0,
        sweep_after_rebuild=verify == "phase",
    )
    applied, violations = res.applied, res.violations
    wall = time.perf_counter() - t0

    m = eng.meter
    doc = {
        "schema": METRICS_SCHEMA,
        "header": {
            "n": n,
            "delta": delta,
            "mode": eng.mode,
            "seed": seed,
            "verify": verify,
            "adversary": adversary,
            "config": cfg.to_dict(),
        },
        "updates": applied,
        "meter": {
            "color_trials": m.color_trials,
            "class_scans": m.class_scans,
            "palette_probes": m.palette_probes,
            "recolorings": m.recolorings,
            "fresh_cost": m.fresh_cost,
            "fresh_runs": m.fresh_runs,
            "restarts": m.restarts,
            "total_ops": m.total_ops(),
        },
        "per_update": {
            "color_trials": _aggregate([r.color_trials for r in res.reports]),
            "class_scans": _aggregate([r.class_scans for r in res.reports]),
            "palette_probes": _aggregate([r.palette_probes for r in res.reports]),
        },
        "amortized_ops": m.total_ops() / max(1, applied),
        "amortized_trials": m.color_trials / max(1, applied),
        "fresh_reports": [r.to_dict() for r in eng.fresh_reports],
        "violations": {
            "count": len(violations),
            "first": summarize(violations, limit=10),
        },
        "state": eng.snapshot(),
        "timing": {"wall_clock_s": wall, "wall_clock_per_update_s": wall / max(1, applied)},
    }
    return doc


def cmd_run(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    if args.trace is not None:
        reader = adv.TraceReader(args.trace)
        n, delta = reader.n, reader.delta
        updates, adversary = iter(reader), None
    else:
        if args.adversary is None:
            raise UsageError("need --trace or --adversary")
        if args.n is None or args.delta is None:
            raise UsageError("need --n and --delta with --adversary")
        n, delta = args.n, args.delta
        if n >= VERTEX_LIMIT:
            raise UsageError(f"n must be below 2**31, got {n}")
        updates, adversary = None, args.adversary
    if delta < 1 or delta > n - 1:
        raise UsageError("need 1 <= delta <= n-1")
    if args.steps < 0:
        raise UsageError("steps must be >= 0")

    try:
        eps, eps_origin = resolve_epsilon(delta, args.epsilon)
        zeta = resolve_zeta(n, args.zeta)
        cfg = Config(epsilon=eps, zeta=zeta, gamma=Fraction(args.gamma))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None
    try:
        doc = run_engine(
            n=n,
            delta=delta,
            cfg=cfg,
            seed=seed,
            mode=args.mode,
            verify=args.verify,
            updates=updates,
            adversary=adversary,
            steps=args.steps,
        )
    except GraphError as exc:
        if args.trace is None:
            raise
        # the update the engine rejected is the one the reader yielded last
        raise adv.ParseError(reader.path, reader.lineno, str(exc)) from None
    doc["header"]["epsilon_origin"] = eps_origin
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    return EXIT_VIOLATION if doc["violations"]["count"] else EXIT_OK


def scaling_pair(n: int, steps: int, rep_seed: int) -> dict[str, dict]:
    """One scaling measurement per engine kind, phased then naive: the
    conflict adversary on one dense instance, generated once for both.

    The meter is reset after the initial coloring, so the amortized
    figures cover update work only, including the phase-boundary
    recolorings the updates trigger."""
    delta = n // 4
    edges = random_graph(n, delta, 0.8, seed=rep_seed * 7919 + n)
    configs = {
        "phased": Config(
            epsilon=EPS_SMALL,
            zeta=max(1, math.ceil(n ** (1.0 / 3.0))),
            gamma=Fraction(1),
        ),
        "naive": Config(epsilon=EPS_SMALL, zeta=1),
    }
    rows = {}
    for kind, cfg in configs.items():
        eng = Engine(n, delta, cfg, seed=rep_seed, mode=kind, initial_edges=edges)
        eng.meter = m = CostMeter()
        applied = drive(
            eng, adv.adversary_stream("conflict", eng, steps, rep_seed ^ STREAM_SALT)
        ).applied
        rows[kind] = {
            "n": n,
            "delta": delta,
            "adversary": "conflict",
            "engine": kind,
            "amortized_ops": m.total_ops() / max(1, applied),
            "amortized_trials": m.color_trials / max(1, applied),
        }
    return rows


def fit_slope(rows: list[dict]) -> float:
    xs = np.log([r["n"] for r in rows])
    ys = np.log([r["amortized_ops"] for r in rows])
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_scaling(args: argparse.Namespace) -> int:
    try:
        grid = [int(x) for x in args.n_grid.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --n-grid {args.n_grid!r}") from None
    if len(set(grid)) < 2 or min(grid) < 4:
        raise UsageError("--n-grid needs two distinct sizes, each >= 4")
    if args.reps < 1 or args.steps < 1:
        raise UsageError("need --reps >= 1 and --steps >= 1")
    seed = resolve_seed(args.seed)
    by_kind: dict[str, list[dict]] = {"phased": [], "naive": []}
    for n in grid:
        pairs = [scaling_pair(n, args.steps, seed + r) for r in range(args.reps)]
        for kind, kind_rows in by_kind.items():
            per_rep = [pair[kind] for pair in pairs]
            row = dict(per_rep[0])
            row["amortized_ops"] = statistics.fmean(
                r["amortized_ops"] for r in per_rep
            )
            row["amortized_trials"] = statistics.fmean(
                r["amortized_trials"] for r in per_rep
            )
            kind_rows.append(row)
            print(
                f"{kind:>6} n={n:>6} amortized_ops={row['amortized_ops']:.1f}",
                file=sys.stderr,
            )
    rows = by_kind["phased"] + by_kind["naive"]
    slopes = {kind: fit_slope(kind_rows) for kind, kind_rows in by_kind.items()}
    for r in rows:
        r["slope"] = slopes[r["engine"]]
    doc = {
        "schema": "dyncolor-scaling/1",
        "grid": grid,
        "steps": args.steps,
        "reps": args.reps,
        "seed": seed,
        "rows": rows,
        "slope_phased": slopes["phased"],
        "slope_naive": slopes["naive"],
    }
    if args.out_json:
        with open(args.out_json, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as f:
            w = csv.DictWriter(
                f,
                fieldnames=[
                    "n", "delta", "adversary", "engine",
                    "amortized_ops", "amortized_trials", "slope",
                ],
            )
            w.writeheader()
            w.writerows(rows)
    print(json.dumps({"slope_phased": slopes["phased"], "slope_naive": slopes["naive"]}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dyncolor",
        description="dynamic (Delta+1)-coloring engine: traces, runs, scaling",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an oblivious update trace")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--delta", type=int, required=True)
    g.add_argument("--steps", type=int, required=True)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run the engine on a trace or adversary")
    r.add_argument("--trace", default=None)
    r.add_argument("--adversary", choices=["oblivious", "conflict", "matching"], default=None)
    r.add_argument("--steps", type=int, default=1000)
    r.add_argument("--n", type=int, default=None)
    r.add_argument("--delta", type=int, default=None)
    r.add_argument("--epsilon", default=None, help="fraction like 1/8 (default: auto)")
    r.add_argument("--zeta", default="auto", help="integer or 'auto' = ceil(n^(2/3))")
    r.add_argument("--gamma", default=str(Config.gamma))
    r.add_argument("--mode", choices=["auto", "naive", "phased"], default="auto")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--verify", choices=["off", "phase", "every"], default="off")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("scaling", help="amortized-cost scaling fit over an n grid")
    s.add_argument("--n-grid", required=True, help="comma-separated sizes")
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out-csv", default=None)
    s.add_argument("--out-json", default=None)
    s.set_defaults(func=cmd_scaling)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except adv.ParseError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EngineFailure, InlierPaletteEmpty) as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
