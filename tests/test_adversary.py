import hashlib
import random

import pytest

from dyncolor.adversary import (
    AdversaryView,
    DecompositionView,
    ParseError,
    conflict_adversary,
    matching_attacker,
    oblivious_adversary,
    TraceReader,
    record_trace,
)
from dyncolor.engine import Engine
from dyncolor.graph import DynamicGraph

from conftest import planted_engine


# ---------------------------------------------------------------------------
# oblivious streams


def test_oblivious_deterministic():
    a = oblivious_adversary(30, 8, 200, density=0.5, seed=7)
    b = oblivious_adversary(30, 8, 200, density=0.5, seed=7)
    assert a == b
    c = oblivious_adversary(30, 8, 200, density=0.5, seed=8)
    assert a != c


def test_oblivious_zero_steps():
    assert oblivious_adversary(10, 3, 0, density=0.5, seed=1) == []


def test_oblivious_prefixes_replay_cleanly():
    stream = oblivious_adversary(40, 6, 500, density=0.6, seed=3)
    assert len(stream) == 500
    g = DynamicGraph(40, 6)
    for upd in stream:  # insert_edge / delete_edge raise on invalid input
        if upd.op == "+":
            g.insert_edge(upd.u, upd.v)
        else:
            g.delete_edge(upd.u, upd.v)


# sha256 over the "op u v" lines, recorded when the generator kept its own
# edge list, position map and degree array instead of a DynamicGraph
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            (1000, 250, 50000, 0.5, 1),
            "520478227df77b2bbae98f38b75633560bb38fe477d904fa969f88f550b1d3fd",
        ),
        (
            (40, 39, 5000, 1.0, 2),
            "560613762fd10c600b67eea108a2bead47054c1e149426763a00fe07d6fb5769",
        ),
    ],
)
def test_oblivious_stream_matches_recorded_digest(args, digest):
    lines = "".join(f"{u.op} {u.u} {u.v}\n" for u in oblivious_adversary(*args))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_oblivious_rejects_bad_density():
    with pytest.raises(ValueError):
        oblivious_adversary(10, 3, 5, density=0.0, seed=1)


# ---------------------------------------------------------------------------
# adaptive adversaries


def test_conflict_adversary_picks_same_colored_pair():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    upd = conflict_adversary(view, random.Random(0))
    assert upd.op == "+"
    assert eng.state.phi[upd.u] == eng.state.phi[upd.v]
    assert not eng.g.has_edge(upd.u, upd.v)


def test_conflict_adversary_falls_back_to_deletion():
    # all vertices distinctly colored -> no conflict pair -> delete an edge
    delta = 20
    n = delta + 1
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    from conftest import dense_cfg

    eng = Engine(n, delta, dense_cfg(), seed=2, mode="phased", initial_edges=edges)
    upd = conflict_adversary(AdversaryView(eng), random.Random(0))
    assert upd.op == "-"
    assert eng.g.has_edge(upd.u, upd.v)


def test_matching_attacker_joins_matched_pair():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    joinable = [
        (u, v)
        for u, v in view.matched_pairs()
        if not eng.g.has_edge(u, v)
        and eng.g.degree(u) < eng.g.delta_cap
        and eng.g.degree(v) < eng.g.delta_cap
    ]
    if not joinable:
        pytest.skip("no joinable matched pair at this seed")
    upd = matching_attacker(view, DecompositionView(eng), random.Random(0))
    assert upd.op == "+"
    assert (min(upd.u, upd.v), max(upd.u, upd.v)) in [
        (min(a, b), max(a, b)) for a, b in joinable
    ]


def test_matching_attacker_deletes_inside_clique_without_pairs():
    eng, _ = planted_engine(seed=5)
    for v in range(1, eng.g.n + 1):
        if eng.state.matched[v] is not None:
            eng.state.unmatch(v)
    upd = matching_attacker(
        AdversaryView(eng), DecompositionView(eng), random.Random(1)
    )
    assert upd.op == "-"
    ci = eng.decomp.part[upd.u]
    assert ci is not None and ci == eng.decomp.part[upd.v]
    assert eng.g.has_edge(upd.u, upd.v)


def test_adaptive_runs_stay_clean():
    eng, _ = planted_engine(seed=3, zeta=320, strict=True)
    view = AdversaryView(eng)
    dview = DecompositionView(eng)
    rng = random.Random(9)
    for step in range(120):
        fn = matching_attacker if step % 2 else conflict_adversary
        upd = (
            fn(view, dview, rng) if fn is matching_attacker else fn(view, rng)
        )
        eng.apply(upd)
    assert eng.verify_now() == []


# ---------------------------------------------------------------------------
# read-only views


def test_views_are_sealed():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    with pytest.raises(AttributeError):
        view.n = 3
    dview = DecompositionView(eng)
    with pytest.raises(AttributeError):
        dview.anything = 1


def test_view_accessors_match_engine():
    eng, _ = planted_engine(seed=5)
    view = AdversaryView(eng)
    assert view.n == eng.g.n
    assert view.delta_cap == eng.g.delta_cap
    assert view.edge_count == eng.g.edge_count
    v = 5
    assert view.degree(v) == eng.g.degree(v)
    classes = view.color_classes()
    assert sum(len(c) for c in classes) == eng.g.n  # everyone colored


# ---------------------------------------------------------------------------
# traces


def test_trace_round_trip(tmp_path):
    stream = oblivious_adversary(25, 5, 300, density=0.5, seed=4)
    p = tmp_path / "walk.trace"
    record_trace(str(p), 25, 5, stream)
    reader = TraceReader(str(p))
    assert (reader.n, reader.delta) == (25, 5)
    assert list(reader) == stream
    # a second iteration yields the same stream (stateless reader)
    assert list(reader) == stream


def test_trace_bad_op_reports_line_number(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("6 3\n+ 1 2\nx 1 2\n")
    reader = TraceReader(str(p))
    with pytest.raises(ParseError) as exc:
        list(reader)
    assert exc.value.lineno == 3


def test_trace_bad_header(tmp_path):
    p = tmp_path / "hdr.trace"
    p.write_text("6\n")
    with pytest.raises(ParseError) as exc:
        TraceReader(str(p))
    assert exc.value.lineno == 1
    p2 = tmp_path / "hdr2.trace"
    p2.write_text("0 3\n")
    with pytest.raises(ParseError):
        TraceReader(str(p2))


def test_trace_non_integer_vertex(tmp_path):
    p = tmp_path / "vert.trace"
    p.write_text("6 3\n+ a 2\n")
    with pytest.raises(ParseError) as exc:
        list(TraceReader(str(p)))
    assert exc.value.lineno == 2
