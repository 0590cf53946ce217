import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dyncolor.sets import SampleSet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dyncolor"
PROGRAM = [SRC, ROOT / "scripts", ROOT / "perfbench"]


def test_basic_ops():
    s = SampleSet()
    assert len(s) == 0
    s.add(3)
    s.add(7)
    s.add(3)
    assert len(s) == 2
    assert 3 in s and 7 in s and 5 not in s
    s.discard(3)
    assert 3 not in s and len(s) == 1
    s.discard(99)  # no-op
    assert len(s) == 1


def test_sample_uniformity():
    s = SampleSet(range(5))
    rng = random.Random(0)
    counts = Counter(s.sample(rng) for _ in range(5000))
    assert set(counts) == set(range(5))
    for c in counts.values():
        assert 800 < c < 1200


def test_sample_empty_raises():
    s = SampleSet()
    try:
        s.sample(random.Random(0))
    except IndexError:
        pass
    else:
        raise AssertionError("expected IndexError")


def test_sorted_view():
    s = SampleSet([5, 1, 3])
    s.discard(1)
    s.add(2)
    assert s.sorted() == [2, 3, 5]


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20))))
def test_matches_builtin_set(ops):
    s = SampleSet()
    ref: set[int] = set()
    for add, x in ops:
        if add:
            s.add(x)
            ref.add(x)
        else:
            s.discard(x)
            ref.discard(x)
        assert len(s) == len(ref)
        assert set(s) == ref


@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 129, 513])
@pytest.mark.parametrize("discards", [0, 40])
def test_sample_draws_what_randrange_draws(size, discards):
    s = SampleSet(range(size + discards))
    for x in random.Random(size).sample(range(size + discards), discards):
        s.discard(x)
    items = list(s)
    assert len(items) == size
    rng, ref = random.Random(size), random.Random(size)
    assert [s.sample(rng) for _ in range(20_000)] == [
        items[ref.randrange(size)] for _ in range(20_000)
    ]
    assert rng.getstate() == ref.getstate()


@given(st.lists(st.integers(0, 20)))
def test_bulk_constructor_builds_what_add_builds(items):
    looped = SampleSet()
    for x in items:
        looped.add(x)
    bulk = SampleSet(items)
    assert bulk._items == looped._items
    assert bulk._pos == looped._pos


def test_bulk_constructor_keeps_a_duplicate_at_its_first_position():
    s = SampleSet([4, 9, 4, 2, 9])
    assert s._items == [4, 9, 2]
    assert s._pos == {4: 0, 9: 1, 2: 2}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_only_sets_reads_the_item_list():
    # SampleSet is the one home of uniform sampling: code elsewhere samples
    # through SampleSet.sample, never by indexing its list
    readers = [
        str(path.relative_to(ROOT))
        for d in PROGRAM
        for path in sorted(d.glob("*.py"))
        if path != SRC / "sets.py"
        and any(isinstance(n, ast.Attribute) and n.attr == "_items" for n in ast.walk(_parse(path)))
    ]
    assert readers == []


def test_trial_color_samples_a_palette_through_sample_set():
    fn = next(
        n
        for n in ast.walk(_parse(SRC / "engine.py"))
        if isinstance(n, ast.FunctionDef) and n.name == "trial_color"
    )
    assert any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "sample"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "palette"
        for n in ast.walk(fn)
    )
