"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "ACCEPTANCE <k> [PASS|FAIL]" line with the
measured quantity next to its tolerance.  Heavy shared runs (the
adversary sweeps, the fresh-coloring families, the scaling grid) live in
session-scoped fixtures so several criteria can read the same data.

Seeds here start at 1000; the constants they exercise (gamma = 1/16,
C_bal = 8, C_trials = 0.1) were frozen from scripts/calibrate_fresh.py
on seeds 1..50.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from dyncolor import adversary as adv
from dyncolor.cli import (
    STREAM_SALT,
    fit_slope,
    main as cli_main,
    resolve_epsilon,
    scaling_pair,
)
from dyncolor.config import Config, auto_zeta
from dyncolor.decomposition import compute_acd, refine_to_sparser_denser
from dyncolor.drive import drive
from dyncolor.engine import Engine
from dyncolor.graph import DynamicGraph
from dyncolor.instances import families, fuzz_graph, planted_clique_graph
from dyncolor.state import ColoringState
from dyncolor.verify import (
    accounting_bounds,
    brute_clique_palette,
    brute_force_sparsity,
    brute_partition,
    check_view_consistency,
    sparse_palette,
    verify_fresh_properties,
)

from conftest import kernel_sparsity

pytestmark = pytest.mark.slow

SEED = 1000
ADVERSARY_STEPS = 50_000
C_TRIALS = 0.1  # frozen by calibration (worst observed ratio 0.012)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared runs


def _drive(
    label: str,
    *,
    n: int,
    delta: int,
    cfg: Config,
    seed: int,
    mode: str,
    adversary: str,
    steps: int,
    sweep_every: int,
    initial_edges=None,
) -> dict:
    """One metered adversary run with periodic full invariant sweeps."""
    eng = Engine(n, delta, cfg, seed=seed, mode=mode, initial_edges=initial_edges)
    stream = adv.adversary_stream(
        adversary, eng, steps, seed if adversary == "oblivious" else seed ^ STREAM_SALT
    )
    res = drive(eng, stream, sweep_every=sweep_every)
    # a phase restart rewrites the whole coloring inside one apply();
    # per-update recolor maxima only cover regular steps
    regular = [r for r in res.reports if not r.restarts]
    return {
        "label": label,
        "updates": res.applied,
        "violations": res.violations,
        "max_sparse_recolors": max((r.sparse_recolors for r in regular), default=0),
        "max_steals": max((r.steals for r in regular), default=0),
    }


@pytest.fixture(scope="session")
def adversary_runs():
    """2 adversaries x n in {128..1024} at default constants, plus two
    planted-clique runs that keep the phased/dense machinery engaged.

    The grid has no matching-attacker rows: mode="auto" resolves to naive
    at these sizes, so there are no cliques or matched pairs, and the
    attacker falls through to the conflict adversary with the same rng,
    engine seed and stream seed; each such row repeated its conflict row
    update for update.  The planted dense-matching run keeps the attacker
    working against cliques."""
    runs = []
    for adversary in ("oblivious", "conflict"):
        for n in (128, 256, 512, 1024):
            delta = n // 4
            eps, _ = resolve_epsilon(delta, None)
            cfg = Config(epsilon=eps, zeta=auto_zeta(n))
            sweep = 1 if n <= 512 else max(1, cfg.phase_length)
            runs.append(
                _drive(
                    f"{adversary}/n={n}",
                    n=n, delta=delta, cfg=cfg, seed=SEED + n,
                    mode="auto", adversary=adversary,
                    steps=ADVERSARY_STEPS, sweep_every=sweep,
                )
            )
    # dense-path coverage: one big near-clique, phased mode, sweep every step
    n, delta = 160, 80
    edges, _ = planted_clique_graph(
        n, delta, seed=SEED, clique_size=78, anti_edges_per_clique=30,
        noise_avg_deg=6.0, cross_avg_deg=1.5,
    )
    for adversary in ("conflict", "matching"):
        runs.append(
            _drive(
                f"dense-{adversary}/n={n}",
                n=n, delta=delta,
                cfg=Config(epsilon=Fraction(1, 8), zeta=320),
                seed=SEED, mode="phased", adversary=adversary,
                steps=10_000, sweep_every=1, initial_edges=edges,
            )
        )
    return runs


@pytest.fixture(scope="session")
def fresh_family_runs():
    """50 seeds x 3 families x n in {500, 2000}: one fresh coloring each."""
    rows = []
    cfg = Config(epsilon=Fraction(1, 8), zeta=4)
    for n, delta in ((500, 64), (2000, 128)):
        for seed in range(SEED, SEED + 50):
            for fam, edges in families(n, delta, seed):
                eng = Engine(
                    n, delta, cfg, seed=seed, mode="phased", strict=True,
                    initial_edges=edges,
                )
                rows.append(
                    {
                        "n": n,
                        "family": fam,
                        "seed": seed,
                        "violations": verify_fresh_properties(
                            eng.decomp, eng.state, eng.cfg
                        ),
                        "sparse_trials": eng.fresh_reports[-1].sparse_trials,
                    }
                )
    return rows


@pytest.fixture(scope="session")
def scaling_rows():
    pairs = [scaling_pair(n, 800, 1) for n in (512, 1024, 2048, 4096, 8192)]
    return {kind: [pair[kind] for pair in pairs] for kind in ("phased", "naive")}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_propriety_under_adaptation(adversary_runs):
    bad = {
        r["label"]: [v for v in r["violations"] if v.kind != "accounting"]
        for r in adversary_runs
    }
    worst = {k: v for k, v in bad.items() if v}
    total = sum(r["updates"] for r in adversary_runs)
    _report(
        1,
        not worst,
        f"{len(adversary_runs)} runs / {total} updates, "
        f"invariant violations: {sorted(worst) if worst else 0} (tolerance 0)",
    )


def test_criterion_2_accounting_bound(adversary_runs):
    acc = [
        v for r in adversary_runs for v in r["violations"] if v.kind == "accounting"
    ]
    _report(
        2,
        not acc,
        f"accounting violations across all sweeps: {len(acc)} (tolerance 0)",
    )


def test_criterion_3_oracle_equivalence():
    rng = random.Random(33)
    cfg = Config(epsilon=Fraction(1, 8), zeta=2)
    graphs = cliques_seen = 0
    for i in range(1000):
        n = rng.randint(4, 64)
        if i % 3 == 2 and n >= 24:
            # planted near-clique so the dense-side oracles get exercised
            delta = max(8, n // 3)
            size = min(delta + 1, n)
            edges, planted = planted_clique_graph(
                n, delta, seed=i, clique_size=size,
                anti_edges_per_clique=max(1, size // 10),
                noise_avg_deg=2.0, cross_avg_deg=1.0,
            )
            g = DynamicGraph(n, delta)
            for u, v in edges:
                g.insert_edge(u, v)
            raw = brute_partition(g, [set(planted[0])])
            d = refine_to_sparser_denser(raw, g, cfg)
        else:
            edges, delta = fuzz_graph(n, seed=i)
            g = DynamicGraph(n, delta)
            for u, v in edges:
                g.insert_edge(u, v)
            d = refine_to_sparser_denser(compute_acd(g, cfg), g, cfg)
        graphs += 1
        cliques_seen += len(d.cliques)

        st = ColoringState(d)
        for v in range(1, n + 1):
            st.set_color(v, rng.choice([None] + list(range(1, delta + 2))))

        assert kernel_sparsity(g) == [brute_force_sparsity(g, v) for v in range(1, n + 1)]
        for v in range(1, n + 1):
            # the palette agrees with the class view the recolorer scans
            assert sparse_palette(d, st, v) == {
                chi
                for chi in range(1, delta + 2)
                if not any(u in g.adj[v] and d.part[u] is None for u in st.classes[chi])
            }

        assert check_view_consistency(d, st) == []

        for c in d.cliques:
            assert set(st.clique_palette[c.index]) == brute_clique_palette(
                st, c.members
            )
            bounds = accounting_bounds(d, st, c)
            for v in c.members:
                m = sum(
                    1
                    for chi in range(1, delta + 2)
                    if sum(1 for u in c.members if st.phi[u] == chi) >= 2
                )
                anti = len(c.members - {v} - g.adj[v])
                ext = [u for u in g.adj[v] if d.part[u] != c.index]
                unc = sum(1 for u in c.members if st.phi[u] is None) + sum(
                    1 for u in ext if st.phi[u] is None
                )
                assert bounds[v] == (
                    delta - g.degree(v) + m - anti + unc
                )
    _report(
        3,
        graphs == 1000,
        f"{graphs} fuzzed graphs ({cliques_seen} cliques), all oracles exact",
    )


def test_criterion_4_fresh_coloring_properties(fresh_family_runs):
    failing = [
        (r["n"], r["family"], r["seed"])
        for r in fresh_family_runs
        if r["violations"]
    ]
    _report(
        4,
        not failing,
        f"{len(fresh_family_runs)} fresh colorings, failures: "
        f"{failing if failing else 0} (target 0)",
    )


def test_criterion_5_trial_count_bound(fresh_family_runs):
    def budget(n: int) -> float:
        return C_TRIALS * n * math.log2(n) ** 2

    over = [
        r for r in fresh_family_runs if r["sparse_trials"] > budget(r["n"])
    ]
    means = {}
    for n in (500, 2000):
        ratios = [
            r["sparse_trials"] / (r["n"] * math.log2(r["n"]) ** 2)
            for r in fresh_family_runs
            if r["n"] == n
        ]
        means[n] = sum(ratios) / len(ratios)
    monotone = means[2000] <= 1.5 * means[500]
    _report(
        5,
        not over and monotone,
        f"trials <= {C_TRIALS}*n*log2^2(n) in {len(fresh_family_runs)}/"
        f"{len(fresh_family_runs)} runs; mean ratio 500->{means[500]:.4f}, "
        f"2000->{means[2000]:.4f} (growth cap x1.5)",
    )


def test_criterion_6_single_sparse_recolor(adversary_runs):
    worst_sparse = max(r["max_sparse_recolors"] for r in adversary_runs)
    worst_steals = max(r["max_steals"] for r in adversary_runs)
    _report(
        6,
        worst_sparse <= 1 and worst_steals <= 3,
        f"max sparser recolors/update = {worst_sparse} (<= 1), "
        f"max steal chain = {worst_steals} (<= 3)",
    )


def test_criterion_7_amortized_scaling(adversary_runs, scaling_rows):
    slope_phased = fit_slope(scaling_rows["phased"])
    slope_naive = fit_slope(scaling_rows["naive"])
    ok = (
        0.45 <= slope_phased <= 0.9
        and slope_phased <= slope_naive - 0.1
        and 0.85 <= slope_naive <= 1.15
    )
    _report(
        7,
        ok,
        f"log-log slope phased = {slope_phased:.3f} (in [0.45, 0.9]), "
        f"naive = {slope_naive:.3f} (in [0.85, 1.15], gap >= 0.1)",
    )


def _three_sigma(p: float, trials: int) -> float:
    return 3 * math.sqrt(max(p * (1 - p), 1e-12) / trials)


def test_criterion_8_per_trial_success_probabilities():
    trials = 10_000
    details = []
    ok = True

    # recolor_sparse: forced state with exactly t free colors at a
    # sparser vertex -> per-trial success probability exactly t/(delta+1)
    n, delta = 60, 40
    eng = Engine(n, delta, Config(epsilon=Fraction(1, 8), zeta=128),
                 seed=SEED, mode="phased")
    t = eng.phase.t
    assert t == 8
    blocked = delta + 1 - t
    for i, v in enumerate(range(2, 2 + blocked), start=1):
        eng.g.insert_edge(1, v)
        eng.state.set_color(v, i)
    eng.state.set_color(1, None)
    rng = random.Random(7)
    hits = sum(
        1
        for _ in range(trials)
        if eng.sparse_color_check(1, rng.randint(1, delta + 1))[0]
    )
    p_target = t / (delta + 1)
    ok &= hits / trials >= p_target - _three_sigma(p_target, trials)
    details.append(f"sparse {hits / trials:.4f}>= t/(D+1)={p_target:.4f}")

    # outlier recolor: count the blocked colors directly, require the
    # premise blocked <= delta/2, compare the empirical rate to 1 - B/(D+1)
    n, delta = 160, 80
    edges, _ = planted_clique_graph(
        n, delta, seed=SEED, clique_size=78, anti_edges_per_clique=30,
        noise_avg_deg=6.0, cross_avg_deg=1.5,
    )
    eng = Engine(n, delta, Config(epsilon=Fraction(1, 8), zeta=320),
                 seed=SEED, mode="phased", initial_edges=edges)
    c = eng.decomp.cliques[0]
    outliers = [v for v in sorted(c.members) if not eng.decomp.is_inlier(v)]
    v = outliers[0] if outliers else next(
        u for u in sorted(c.members) if eng.state.matched[u] is None
    )
    eng.state.set_color(v, None)
    blocked_colors = sum(
        1
        for chi in range(1, delta + 2)
        if not eng.outlier_color_check(v, chi)
    )
    premise = blocked_colors <= delta / 2
    p_true = 1 - blocked_colors / (delta + 1)
    rng = random.Random(8)
    hits = sum(
        1
        for _ in range(trials)
        if eng.outlier_color_check(v, rng.randint(1, delta + 1))
    )
    p_hat = hits / trials
    sigma3 = _three_sigma(p_true, trials)
    ok &= premise and abs(p_hat - p_true) <= sigma3 and p_hat >= 0.5 - sigma3
    details.append(
        f"outlier {p_hat:.4f} vs {p_true:.4f} (blocked {blocked_colors} <= "
        f"{delta // 2})"
    )

    # anti-edge sampling: fraction of fully unmatched anti-edges is the
    # per-sample acceptance probability; force the premise (at most half
    # of the anti-edges touch matched vertices) by releasing pairs
    def q_unmatched() -> float:
        return sum(
            1
            for x, y in c.anti_edges
            if eng.state.matched[x] is None and eng.state.matched[y] is None
        ) / len(c.anti_edges)

    pairs = [
        u
        for u in sorted(c.members)
        if eng.state.matched[u] is not None and u < eng.state.matched[u]
    ]
    while q_unmatched() < 0.5 and pairs:
        eng.state.unmatch(pairs.pop())
    q_true = q_unmatched()
    premise = q_true >= 0.5
    rng = random.Random(9)
    hits = 0
    for _ in range(trials):
        x, y = c.anti_edges.sample(rng)
        if eng.state.matched[x] is None and eng.state.matched[y] is None:
            hits += 1
    q_hat = hits / trials
    sigma3 = _three_sigma(q_true, trials)
    ok &= premise and abs(q_hat - q_true) <= sigma3 and q_hat >= 0.5 - sigma3
    details.append(f"anti-edge {q_hat:.4f} vs {q_true:.4f} (premise >= 0.5)")

    _report(8, ok, "; ".join(details) + " (each within 3 sigma)")


def test_criterion_9_determinism(tmp_path):
    trace = tmp_path / "det.trace"
    assert (
        cli_main(
            ["gen", "--n", "80", "--delta", "16", "--steps", "2000",
             "--seed", "4", "--out", str(trace)]
        )
        == 0
    )
    payloads = []
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        assert (
            cli_main(
                ["run", "--trace", str(trace), "--mode", "phased",
                 "--zeta", "8", "--seed", "5", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        doc.pop("timing")
        payloads.append(json.dumps(doc, sort_keys=True).encode())
    _report(
        9,
        payloads[0] == payloads[1],
        f"state dump + metrics byte-identical over {2000} updates "
        "(wall-clock fields excluded)",
    )
