import random
from collections import Counter

from hypothesis import given, strategies as st

from dyncolor.sets import SampleSet


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
