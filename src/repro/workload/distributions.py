"""Request-skew distributions used by the paper's workloads."""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, TypeVar

__all__ = ["hot_one_split", "cascade_split", "zipf_weights",
           "WeightedChoice"]

T = TypeVar("T")


def hot_one_split(n: int, hot_share: float) -> List[float]:
    """One hot item takes ``hot_share``; the rest split the remainder
    evenly.  (Metadata Server: 1 of 4 folders receives 50% of requests.)
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= hot_share <= 1.0:
        raise ValueError("hot_share must be in [0, 1]")
    if n == 1:
        return [1.0]
    cold = (1.0 - hot_share) / (n - 1)
    return [hot_share] + [cold] * (n - 1)


def cascade_split(n: int, fraction: float = 0.35) -> List[float]:
    """E-Store's skew: the first partition receives ``fraction`` of all
    requests, the second ``fraction`` of the remainder, and so on; the
    tail gets whatever is left."""
    if n <= 0:
        raise ValueError("n must be positive")
    weights: List[float] = []
    remaining = 1.0
    for _ in range(n - 1):
        weights.append(remaining * fraction)
        remaining *= (1.0 - fraction)
    weights.append(remaining)
    return weights


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Normalized Zipf weights: weight(i) ∝ 1 / (i+1)^exponent."""
    raw = [1.0 / (i + 1) ** exponent for i in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


class WeightedChoice:
    """Reproducible weighted sampling with O(n) setup, O(log n) draws."""

    def __init__(self, items: Sequence[T], weights: Sequence[float],
                 rng: random.Random) -> None:
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        if not items:
            raise ValueError("need at least one item")
        self._items = list(items)
        self._rng = rng
        self._cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError("weights must be non-negative")
            total += weight
            self._cumulative.append(total)
        if total <= 0:
            raise ValueError("total weight must be positive")
        self._total = total

    def pick(self) -> T:
        point = self._rng.random() * self._total
        index = bisect.bisect_right(self._cumulative, point)
        return self._items[min(index, len(self._items) - 1)]
