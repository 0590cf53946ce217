"""Constant-time sampleable sets.

The recoloring procedures need sets that support membership tests,
insertion, deletion and uniform sampling cheaply.  A list with a
position index gives O(1) for all four (swap-with-last deletion);
iteration order is insertion-history dependent, so callers that need a
canonical order must sort explicitly.
"""

from __future__ import annotations

from random import Random
from typing import Hashable, Iterable, Iterator


class SampleSet:
    """Set with O(1) add/discard/contains and uniform sampling."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items: Iterable = ()) -> None:
        # what a loop of add() would build: each item once, at its first position
        self._items: list = list(dict.fromkeys(items))
        self._pos: dict = dict(zip(self._items, range(len(self._items))))

    def __contains__(self, x: Hashable) -> bool:
        return x in self._pos

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"SampleSet({self._items!r})"

    def add(self, x: Hashable) -> None:
        if x not in self._pos:
            self._pos[x] = len(self._items)
            self._items.append(x)

    def discard(self, x: Hashable) -> None:
        i = self._pos.pop(x, None)
        if i is None:
            return
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._pos[last] = i

    def sample(self, rng: Random):
        """Uniform element; raises IndexError on an empty set."""
        items = self._items
        n = len(items)
        if not n:
            raise IndexError("sample from an empty SampleSet")
        # rng.randrange(n) without its call layers: the same getrandbits
        # draws, redrawn while out of range
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return items[r]

    def sorted(self) -> list:
        return sorted(self._items)
