"""Semantic answer reuse: replay recorded interval histories.

A retired SWOPE answer dominates a whole family of weaker requests: a
filter decided against ``η`` can answer any ``η′ >= η`` (every interval
narrow enough to decide against ``η`` by the paper's rule 1 is narrow
enough for ``η′``, since the rule-1 goal ``2εη′`` only widens), and a
top-``k`` answer can answer any ``k′ <= k`` (the ``k′``-th largest upper
bound is no smaller and the answer set's worst width no larger, so the
Definition 5 stopping quantity only improves). This module turns that
dominance into *bit-identical* derived answers by driving the engine's
own :class:`~repro.core.engine.SwopeFilter` /
:class:`~repro.core.engine.SwopeTopK` rules through
:func:`~repro.core.engine.run_adaptive` over the per-iteration interval
history the cache recorded — same sample sizes, same bounds, same
tie-breaks — instead of re-deriving anything from final estimates.

The replay is deliberately *partial*: it serves only when the recorded
history provably contains every interval the derived run would have
consulted. An attribute the cached run retired early by rule 2/3 (its
interval still wide, but far from ``η``) has no later bounds on record;
if the derived threshold ``η′`` still needs them, the replay returns
``None`` and the caller falls back to a fresh execution. A refusal is
always safe — reuse is an optimisation, never an approximation.

Histories are lists of ``(sample_size, {attribute: (lower, upper,
width, midpoint)})`` — note ``width`` and ``midpoint`` are recorded
explicitly because the paper's stopping quantities use the *unclipped*
interval algebra (``width = 2λ + b``), which is not recoverable from
the clipped ``(lower, upper)`` pair alone.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import NamedTuple, TypeVar

from repro.core.engine import (
    PhaseTimings,
    StoppingRule,
    SwopeFilter,
    SwopeTopK,
    run_adaptive,
)
from repro.core.results import FilterResult, TopKResult

__all__ = ["Bounds", "History", "replay_filter", "replay_top_k"]

#: One recorded interval: ``(lower, upper, width, midpoint)``.
Bounds = tuple[float, float, float, float]

#: One query's per-iteration history: ``(sample_size, {attribute: bounds})``.
History = Sequence[tuple[int, Mapping[str, Bounds]]]


class _Recorded(NamedTuple):
    """A recorded interval, read by the rules like a live one."""

    lower: float
    upper: float
    width: float
    midpoint: float

    @property
    def estimate(self) -> float:
        # The plug-in estimate is not recorded; only the exact filter
        # rule reads it, and exact rules are never replayed.
        return max(self.lower, min(self.upper, self.midpoint))


class _Refused(Exception):
    """The history lacks an interval the derived run would consult."""


class _Replay:
    """A recorded history posing as the loop's provider, sampler and
    schedule: same sample sizes and intervals, zero cells.

    ``sizes`` ends with one size past the recording, so a derived run
    that would need an iteration the cached run never executed asks for
    it and is refused rather than extrapolated.
    """

    bounds_per_attribute = 1
    cells_scanned = 0
    cells_saved = 0

    def __init__(self, history: History, population_size: int) -> None:
        self._bounds = {size: bounds for size, bounds in history}
        recorded = tuple(size for size, _ in history)
        self.sizes = recorded + ((recorded[-1] if recorded else 0) + 1,)
        self.num_rows = population_size
        self.timings = PhaseTimings()

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> dict[str, _Recorded]:
        bounds = self._bounds.get(sample_size, {})
        if any(attribute not in bounds for attribute in attributes):
            raise _Refused
        return {a: _Recorded(*bounds[a]) for a in attributes}

    def release(self, name: str) -> None:
        """Nothing to release: a replay holds no counters."""


_R = TypeVar("_R", TopKResult, FilterResult)


def _replay(
    rule: StoppingRule[_R],
    history: History,
    candidates: Sequence[str],
    population_size: int,
    target: str | None,
) -> _R | None:
    """Drive ``rule`` over ``history``; ``None`` when it does not cover."""
    if not candidates:
        return None
    replay = _Replay(history, population_size)
    try:
        # Replays a recorded history: no budget, scan or plan to account.
        result = run_adaptive(  # noqa: SWP011
            rule, replay, replay, candidates, replay, target=target
        )
    except _Refused:
        return None
    # Stats of a replayed run: real loop shape, zero work.
    result.stats.wall_seconds = 0.0
    return result


def replay_filter(
    history: History,
    candidates: Sequence[str],
    threshold: float,
    epsilon: float,
    population_size: int,
    *,
    target: str | None = None,
) -> FilterResult | None:
    """Replay a cached filter history against a (possibly higher) ``η``.

    Returns the :class:`~repro.core.results.FilterResult` a fresh run at
    ``threshold`` would produce, or ``None`` when the history does not
    cover every interval that run would need (see module docstring).
    """
    return _replay(
        SwopeFilter(threshold, epsilon),
        history,
        candidates,
        population_size,
        target,
    )


def replay_top_k(
    history: History,
    candidates: Sequence[str],
    k: int,
    epsilon: float,
    population_size: int,
    *,
    prune: bool = True,
    target: str | None = None,
) -> TopKResult | None:
    """Replay a cached top-``k`` history against a (possibly smaller) ``k``.

    Returns the :class:`~repro.core.results.TopKResult` a fresh run at
    ``k`` would produce, or ``None`` when the history does not cover it.
    """
    return _replay(
        SwopeTopK(k, epsilon, prune),
        history,
        candidates,
        population_size,
        target,
    )
