"""Seeded workloads of the dyncolor engine, measured end to end and by layer.

Every workload is a closed loop with one client: an adaptive adversary
looks at the coloring after each ``Engine.apply`` returns and only then
picks the next update.  One repetition generates the instance, builds the
engine (bulk load plus the initial coloring or first phase), runs a fixed
number of updates and checks the final coloring with ``verify.check_all``
outside every timed region.  The first repetition of a run is a warm-up:
it is checked like the others but timed into no metric.  All repetitions
of a run use the same inputs, so their fingerprints must agree; a traced
repetition must also agree with an untraced one, which shows the wrappers
change nothing.
"""

from __future__ import annotations

import bisect
import ctypes
import dataclasses
import gc
import glob
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from dyncolor import adversary as adv
from dyncolor import decomposition, engine, fresh, instances, verify
from dyncolor.cli import EPS_SMALL, resolve_epsilon
from dyncolor.config import Config, auto_zeta
from dyncolor.engine import Engine
from dyncolor.graph import DynamicGraph
from dyncolor.report import summarize
from dyncolor.state import ColoringState

from spans import SpanTable, Tracer

# a run times at least this many repetitions after the warm-up, so
# setup_s is a median
MIN_REPS = 3
# a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "updates_per_s": "1/s",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "instances.generate_s": "s",
    "graph.bulk_load_s": "s",
    "graph.bulk_load_edges": "count",
    "graph.insert_calls": "count",
    "graph.delete_calls": "count",
    "graph.mutation_s": "s",
    "adversary.steps": "count",
    "adversary.step_s": "s",
    "decomposition.compute_acd_s": "s",
    "decomposition.compute_acd_calls": "count",
    "decomposition.refine_s": "s",
    "decomposition.refine_calls": "count",
    "decomposition.drift_s": "s",
    "decomposition.cliques": "count",
    "decomposition.core_size": "count",
    "decomposition.sparse_share": "ratio",
    "state.alloc_s": "s",
    "state.alloc_calls": "count",
    "state.set_color_calls": "count",
    "fresh.fresh_coloring_self_s": "s",
    "fresh.one_shot_coloring_s": "s",
    "fresh.color_dense_s": "s",
    "fresh.trials": "count",
    "fresh.one_shot_colored_share": "ratio",
    "engine.apply_s": "s",
    "engine.rebuild_s": "s",
    "engine.rebuilds": "count",
    "engine.restarts": "count",
    "engine.naive_recolor_s": "s",
    "engine.recolor_sparse_s": "s",
    "engine.recolor_sparse_in_rebuild_s": "s",
    "engine.recolor_sparse_in_update_s": "s",
    "engine.recolor_dense_s": "s",
    "engine.recolor_matching_s": "s",
    "engine.add_anti_edge_matching_s": "s",
    "engine.recolor_in_update_s": "s",
    "engine.ops_per_update": "ops",
    "engine.color_trials_per_update": "ops",
    "engine.class_scans_per_update": "ops",
    "engine.palette_probes_per_update": "ops",
    "engine.recolorings_per_update": "ops",
    "engine.recolorings_per_trial": "ratio",
    "engine.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Instance:
    n: int
    delta: int
    edges: list[tuple[int, int]]
    cfg: Config
    mode: str
    adversary: str  # "conflict" or "matching"


def naive_conflict(seed: int) -> Instance:
    """The CLI's default config, which resolves to the naive engine."""
    n, delta = 2048, 512
    eps, _ = resolve_epsilon(delta, None)
    cfg = Config(epsilon=eps, zeta=auto_zeta(n), gamma=Fraction(1, 16))
    edges = instances.random_graph(n, delta, 0.8, seed)
    return Instance(n, delta, edges, cfg, "auto", "conflict")


def phased_sparse_conflict(seed: int) -> Instance:
    """The scaling fit's phased config (t = 13) on a clique-free instance."""
    n, delta = 2048, 512
    cfg = Config(epsilon=EPS_SMALL, zeta=math.ceil(n ** (1 / 3)), gamma=Fraction(1))
    edges = instances.random_graph(n, delta, 0.8, seed)
    return Instance(n, delta, edges, cfg, "phased", "conflict")


def phased_dense_matching(seed: int) -> Instance:
    """Planted near-cliques, phased with t = 20, against the matching attacker."""
    n, delta = 2048, 128
    cfg = Config(epsilon=EPS_SMALL, zeta=320, gamma=Fraction(1, 16))
    edges, _planted = instances.mixed_graph(n, delta, seed)
    return Instance(n, delta, edges, cfg, "phased", "matching")


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Instance]
    updates: int
    # a run without cliques would silently stop measuring the dense path
    needs_cliques: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("naive-conflict", naive_conflict, 4000),
        Workload("phased-sparse-conflict", phased_sparse_conflict, 600),
        Workload("phased-dense-matching", phased_dense_matching, 300, needs_cliques=True),
    )
}


def derive(seed: int, tag: str) -> int:
    """Independent 64-bit seed for one consumer of the workload seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _digest(values) -> str:
    return hashlib.sha256(array("q", values).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# one repetition


@dataclass
class Rep:
    setup_s: float
    run_s: float
    latencies: array  # seconds inside Engine.apply, one per applied update
    attempted: int
    failed: int
    problems: list[str]
    mode: str
    cliques: int
    cliques_min: int
    core_size: int
    sparse_share: float
    fingerprints: dict[str, str]
    meter: dict[str, int]  # meter movement over the update stream
    fresh_trials: int
    counts: dict[str, int]  # tracer counts over the update stream


def run_rep(wl: Workload, seed: int, tracer: Tracer | None = None) -> Rep:
    gc.collect()
    t0 = time.perf_counter()
    inst = wl.make(derive(seed, "instance"))
    eng = Engine(
        inst.n,
        inst.delta,
        inst.cfg,
        seed=derive(seed, "engine"),
        mode=inst.mode,
        initial_edges=inst.edges,
    )
    setup_s = time.perf_counter() - t0

    view = adv.AdversaryView(eng)
    arng = random.Random(derive(seed, "adversary"))
    if inst.adversary == "matching":
        dview = adv.DecompositionView(eng)
        next_update = lambda: adv.matching_attacker(view, dview, arng)  # noqa: E731
    else:
        next_update = lambda: adv.conflict_adversary(view, arng)  # noqa: E731
    meter0 = dataclasses.asdict(eng.meter)
    reports0 = len(eng.fresh_reports)
    latencies = array("d")
    applied = []
    problems: list[str] = []
    failed = 0
    cliques_min = len(eng.decomp.cliques)
    if tracer is not None:
        tracer.counts.clear()
    perf_counter = time.perf_counter

    t1 = perf_counter()
    for i in range(wl.updates):
        try:
            upd = next_update()
            s = perf_counter()
            eng.apply(upd)
        except Exception:
            # this update and every one after it count as failed
            problems.append(f"update {i} failed:\n{traceback.format_exc()}")
            failed = wl.updates - i
            break
        latencies.append(perf_counter() - s)
        applied.append(upd)
        if len(eng.decomp.cliques) < cliques_min:
            cliques_min = len(eng.decomp.cliques)
    run_s = perf_counter() - t1

    counts = dict(tracer.counts) if tracer is not None else {}
    meter = {k: v - meter0[k] for k, v in dataclasses.asdict(eng.meter).items()}
    violations = verify.check_all(eng.g, eng.decomp, eng.state, eng.cfg)
    if violations:
        failed = wl.updates
        problems.append(
            f"final coloring fails verify.check_all ({len(violations)} violations): "
            f"{summarize(violations, limit=3)}"
        )
    if wl.needs_cliques and cliques_min == 0:
        problems.append("the decomposition reached zero cliques")

    deg_floor = math.ceil((1 - inst.cfg.epsilon) * inst.delta)
    return Rep(
        setup_s=setup_s,
        run_s=run_s,
        latencies=latencies,
        attempted=wl.updates,
        failed=failed,
        problems=problems,
        mode=eng.mode,
        cliques=len(eng.decomp.cliques),
        cliques_min=cliques_min,
        core_size=sum(1 for v in range(1, inst.n + 1) if eng.g.degree(v) >= deg_floor),
        sparse_share=sum(1 for p in eng.decomp.part[1:] if p is None) / inst.n,
        fingerprints={
            "edges": _digest(x for edge in inst.edges for x in edge),
            "stream": _digest(
                x for u in applied for x in (1 if u.op == "+" else -1, u.u, u.v)
            ),
            "coloring": _digest(0 if c is None else c for c in eng.state.phi[1:]),
        },
        meter=meter,
        fresh_trials=sum(r.trial_count for r in eng.fresh_reports[reports0:]),
        counts=counts,
    )


# ---------------------------------------------------------------------------
# end-to-end metrics


def percentile(ordered: list[float], q: int) -> tuple[float, int]:
    """q-th percentile of sorted samples and the number of samples above it."""
    cut = statistics.median(ordered) if q == 50 else statistics.quantiles(ordered, n=100)[q - 1]
    return cut, len(ordered) - bisect.bisect_right(ordered, cut)


def end_to_end(reps: list[Rep]) -> tuple[dict[str, float], list[str], list[str]]:
    """Metrics, report lines and problems.

    setup_s is a median.  The stream figures pool the repetitions: run_s is
    their mean, updates_per_s their updates over their time in
    Engine.apply, and the percentiles take all their samples.  The host
    slows a run in spells of seconds, not in rare outliers, and over such
    spells a mean varies less from run to run than a median.
    """
    lines, problems = [], []
    if not reps:
        return {}, lines, ["no repetition was timed"]
    lat = sorted(x for r in reps for x in r.latencies)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "run_s": statistics.fmean(r.run_s for r in reps),
    }
    if not lat:
        return metrics, lines, ["no update was applied"]
    metrics["updates_per_s"] = len(lat) / sum(lat)
    for q in (50, 99):
        name = f"update_p{q}_us"
        cut, beyond = percentile(lat, q)
        if beyond < MIN_BEYOND:
            problems.append(
                f"{name}: only {beyond} of {len(lat)} samples lie beyond it; "
                f"a percentile needs {MIN_BEYOND}"
            )
            continue
        metrics[name] = cut * 1e6
        lines.append(f"{name}: {len(lat)} samples, {beyond} beyond it")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(
        f"setup_s: median of {len(reps)} repetitions; "
        f"run_s, updates_per_s: over {len(reps)} repetitions"
    )
    return metrics, lines, problems


# ---------------------------------------------------------------------------
# per-layer metrics


ADVERSARIES = ("adversary.conflict_adversary", "adversary.matching_attacker")
REBUILD_PARTS = (
    "decomposition.compute_acd",
    "decomposition.refine",
    "state.alloc",
    "fresh.fresh_coloring",
)
RECOLORS = (
    "engine.naive_recolor",
    "engine.recolor_sparse",
    "engine.recolor_dense",
    "engine.recolor_matching",
    "engine.add_anti_edge_matching",
)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer.

    The engine module holds compute_acd, refine_to_sparser_denser and
    ColoringState in its own namespace, and fresh_coloring reaches
    one_shot_coloring and color_dense through module globals, so wrapping
    those attributes catches every call the engine makes.
    """
    tracer.wrap(instances, "random_graph", "instances.random_graph")
    tracer.wrap(instances, "mixed_graph", "instances.mixed_graph")
    tracer.wrap(Engine, "__init__", "engine.init")
    tracer.wrap(Engine, "apply", "engine.apply")
    for name in RECOLORS:
        tracer.wrap(Engine, name.split(".")[1], name)
    tracer.wrap(DynamicGraph, "insert_edge", "graph.insert_edge")
    tracer.wrap(DynamicGraph, "delete_edge", "graph.delete_edge")
    tracer.wrap(adv, "conflict_adversary", "adversary.conflict_adversary")
    tracer.wrap(adv, "matching_attacker", "adversary.matching_attacker")
    tracer.wrap(engine, "compute_acd", "decomposition.compute_acd")
    tracer.wrap(engine, "refine_to_sparser_denser", "decomposition.refine")
    tracer.wrap(decomposition.Decomposition, "apply_insert", "decomposition.apply_insert")
    tracer.wrap(decomposition.Decomposition, "apply_delete", "decomposition.apply_delete")
    tracer.wrap(engine, "ColoringState", "state.alloc")
    tracer.count(ColoringState, "set_color", "state.set_color")
    tracer.wrap(fresh, "fresh_coloring", "fresh.fresh_coloring")
    one_shot = fresh.one_shot_coloring
    counts = tracer.counts

    def one_shot_counted(eng: Engine) -> int:
        tried = eng.meter.color_trials
        colored = one_shot(eng)
        counts["fresh.one_shot_tried"] += eng.meter.color_trials - tried
        counts["fresh.one_shot_colored"] += colored
        return colored

    tracer.wrap(fresh, "one_shot_coloring", "fresh.one_shot_coloring", inner=one_shot_counted)
    tracer.wrap(fresh, "color_dense", "fresh.color_dense")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: SpanTable, rep: Rep) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced repetition, plus self-test failures.

    Everything but set-up figures covers the update stream only, i.e. the
    spans under ``engine.apply`` and the adversary steps.
    """
    sel, total, total_self = t.select, t.total, t.total_self
    apply_, init = ("engine.apply",), ("engine.init",)
    m: dict[str, float] = {}
    m["instances.generate_s"] = total(sel(("instances.random_graph", "instances.mixed_graph")))

    bulk = sel(("graph.insert_edge",), under=init)
    ins = sel(("graph.insert_edge",), under=apply_)
    dels = sel(("graph.delete_edge",), under=apply_)
    m["graph.bulk_load_s"] = total(bulk)
    m["graph.bulk_load_edges"] = len(bulk)
    m["graph.insert_calls"] = len(ins)
    m["graph.delete_calls"] = len(dels)
    m["graph.mutation_s"] = total(ins + dels)

    steps = sel(ADVERSARIES, not_under=ADVERSARIES)
    m["adversary.steps"] = len(steps)
    m["adversary.step_s"] = total(steps)

    acd = sel(("decomposition.compute_acd",), under=apply_)
    refine = sel(("decomposition.refine",), under=apply_)
    drift = sel(("decomposition.apply_insert", "decomposition.apply_delete"), under=apply_)
    m["decomposition.compute_acd_s"] = total(acd)
    m["decomposition.compute_acd_calls"] = len(acd)
    m["decomposition.refine_s"] = total(refine)
    m["decomposition.refine_calls"] = len(refine)
    m["decomposition.drift_s"] = total(drift)
    m["decomposition.cliques"] = rep.cliques
    m["decomposition.core_size"] = rep.core_size
    m["decomposition.sparse_share"] = rep.sparse_share

    alloc = sel(("state.alloc",), under=apply_)
    m["state.alloc_s"] = total(alloc)
    m["state.alloc_calls"] = len(alloc)
    m["state.set_color_calls"] = rep.counts.get("state.set_color", 0)

    def self_s(name: str, **kw) -> float:
        return total_self(sel((name,), **kw))

    m["fresh.fresh_coloring_self_s"] = self_s("fresh.fresh_coloring", under=apply_)
    m["fresh.one_shot_coloring_s"] = self_s("fresh.one_shot_coloring", under=apply_)
    m["fresh.color_dense_s"] = self_s("fresh.color_dense", under=apply_)
    m["fresh.trials"] = rep.fresh_trials
    m["fresh.one_shot_colored_share"] = _ratio(
        rep.counts.get("fresh.one_shot_colored", 0), rep.counts.get("fresh.one_shot_tried", 0)
    )

    applies = sel(apply_)
    rebuild = sel(REBUILD_PARTS, under=apply_)
    in_update = sel(RECOLORS, under=apply_, not_under=("fresh.fresh_coloring",))
    m["engine.apply_s"] = total(applies)
    m["engine.rebuild_s"] = total(rebuild)
    m["engine.rebuilds"] = rep.meter["fresh_runs"]
    m["engine.restarts"] = rep.meter["restarts"]
    m["engine.naive_recolor_s"] = self_s("engine.naive_recolor", under=apply_)
    m["engine.recolor_sparse_s"] = self_s("engine.recolor_sparse", under=apply_)
    m["engine.recolor_sparse_in_rebuild_s"] = self_s(
        "engine.recolor_sparse", under=("fresh.fresh_coloring",), not_under=init
    )
    m["engine.recolor_sparse_in_update_s"] = self_s(
        "engine.recolor_sparse", under=apply_, not_under=("fresh.fresh_coloring",)
    )
    for name in ("engine.recolor_dense", "engine.recolor_matching", "engine.add_anti_edge_matching"):
        m[name + "_s"] = self_s(name, under=apply_, not_under=("fresh.fresh_coloring",))
    m["engine.recolor_in_update_s"] = total_self(in_update)

    # the CostMeter parts that make up the paper's op count
    parts = ("color_trials", "class_scans", "palette_probes", "recolorings")
    updates = max(1, len(rep.latencies))
    m["engine.ops_per_update"] = sum(rep.meter[k] for k in parts) / updates
    for k in parts:
        m[f"engine.{k}_per_update"] = rep.meter[k] / updates
    m["engine.recolorings_per_trial"] = _ratio(rep.meter["recolorings"], rep.meter["color_trials"])
    m["engine.unattributed_s"] = total_self(applies)

    # self-tests of the tracing itself
    problems = t.nesting_errors()
    if m["engine.rebuild_s"] > m["engine.apply_s"]:
        problems.append("rebuild parts sum to more than engine.apply_s")
    accounted = (
        m["engine.rebuild_s"]
        + m["engine.recolor_in_update_s"]
        + m["graph.mutation_s"]
        + m["decomposition.drift_s"]
        + m["engine.unattributed_s"]
    )
    if abs(accounted - m["engine.apply_s"]) > 1e-6 * max(1.0, m["engine.apply_s"]):
        problems.append(
            f"apply spans do not add up: {accounted:.6f} s accounted "
            f"of {m['engine.apply_s']:.6f} s"
        )
    if not rep.failed and not (m["adversary.steps"] == len(applies) == len(rep.latencies)):
        problems.append("adversary or apply spans do not match the applied updates")
    return m, problems


# ---------------------------------------------------------------------------
# a run


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be queried."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha(root: Path) -> str:
    """HEAD of the checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    problems: list[str]
    lines: list[str]


def _fits(start: float, seconds: int, last: float) -> bool:
    """Whether one more repetition as long as the last ends within the run."""
    return time.perf_counter() - start + last <= seconds


def _check_reps(reps: list[Rep], reference: Rep) -> list[str]:
    out = []
    for k, r in enumerate(reps):
        out += r.problems
        if r.fingerprints != reference.fingerprints or r.meter != reference.meter:
            out.append(
                f"repetition {k} differs from the first on the same inputs: "
                f"fingerprints {r.fingerprints} vs {reference.fingerprints}, "
                f"meter {r.meter} vs {reference.meter}"
            )
    return out


def run(name: str, seed: int, seconds: int, trace: bool, root: Path) -> Result:
    wl = WORKLOADS[name]
    start = time.perf_counter()
    lines = [
        "record: "
        + json.dumps(
            {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "trace": int(trace),
                "git_sha": git_sha(root),
                "nproc": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "blas_threads": blas_threads(),
                "updates_per_rep": wl.updates,
            }
        )
    ]
    # the warm-up pays for first calls and cold caches
    warmup = run_rep(wl, seed)
    reps = [warmup]
    timed: list[Rep] = []
    rep_s = 0.0
    # a traced run times MIN_REPS untraced repetitions, the baseline of the
    # tracing overhead, and spends the rest of --seconds on traced ones
    while not reps[-1].problems and (
        len(timed) < MIN_REPS or (not trace and _fits(start, seconds, rep_s))
    ):
        t = time.perf_counter()
        timed.append(run_rep(wl, seed))
        reps.append(timed[-1])
        rep_s = time.perf_counter() - t
    problems = _check_reps(reps, warmup)
    if not trace:
        metrics, more, e2e_problems = end_to_end(timed)
        lines += more
        problems += e2e_problems
        units = END_TO_END
    elif not timed:
        metrics, units = {}, PER_LAYER
    else:
        untraced_run_s = statistics.fmean(r.run_s for r in timed)
        tracer = Tracer()
        install(tracer)
        layers = []
        traced: list[Rep] = []
        try:
            while True:
                t = time.perf_counter()
                tracer.clear()
                rep = run_rep(wl, seed, tracer)
                if tracer.open_spans:
                    problems.append(f"{tracer.open_spans} spans left open")
                traced.append(rep)
                m, p = layer_metrics(SpanTable(tracer), rep)
                layers.append(m)
                problems += p
                if rep.problems or not _fits(start, seconds, time.perf_counter() - t):
                    break
        finally:
            leftover = tracer.uninstall()
        if leftover:
            problems.append(f"wrappers not removed: {leftover}")
        reps += traced
        problems = _check_reps(traced, warmup) + problems
        metrics = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
        traced_run_s = statistics.fmean(r.run_s for r in traced)
        metrics["trace.overhead_s"] = traced_run_s - untraced_run_s
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_run_s
        lines.append(
            f"per-layer figures: means of {len(traced)} traced repetitions; "
            f"run_s untraced {untraced_run_s:.4f} s (mean of {len(timed)}), "
            f"traced {traced_run_s:.4f} s"
        )
        units = PER_LAYER

    last = reps[-1]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    lines += [
        "per repetition: "
        + json.dumps(
            {
                # the first is the warm-up
                "setup_s": [round(r.setup_s, 4) for r in reps],
                "run_s": [round(r.run_s, 4) for r in reps],
                "rebuilds": [r.meter["fresh_runs"] for r in reps],
                "restarts": [r.meter["restarts"] for r in reps],
            }
        ),
        f"engine.mode: {last.mode}",
        f"decomposition.cliques: {last.cliques} at the end, {last.cliques_min} at least",
        f"fingerprints: {last.fingerprints}",
        f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} updates)",
    ]
    return Result(metrics, units, attempted, failed, problems, lines)
