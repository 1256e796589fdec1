"""Analytic per-query cost estimates.

The planner's scheduling decision — which query of a batch to run first —
needs a *deterministic* prediction of each query's cost, because a
cache-warm rerun must schedule exactly like the cold run it reuses (the
bit-identity gate of ``docs/PLANNER.md``). This module provides that
prediction without looking at the data:

* Lemma 3's concentration half-width ``λ(M)`` and bias allowance
  ``b(α, M)`` are pure functions of the sample size, the population
  size, the per-bound failure probability, and the attribute's support
  size — no counts involved. :class:`CostModel` evaluates them over a
  query's actual :class:`~repro.core.schedule.SampleSchedule` to find
  the first sample size at which the paper's *guaranteed* decision rule
  would fire (filter rule 1: ``width < 2εη``; for top-k a scale proxy
  ``width <= ε·ĥ`` with ``ĥ`` the score's data-independent ceiling),
  and charges the per-row cell cost of the query shape (1 cell/row for
  an entropy candidate, 3 for an MI candidate: one marginal plus a
  two-cell joint).

The predictions are heuristics, not guarantees: the true retirement
size depends on the data (an attribute near a filter threshold retires
by rule 1, one far from it retires earlier by rule 2/3). They only need
to *rank* queries consistently; :func:`repro.core.plan.plan_queries`
orders a batch cheapest-first so later, more expensive queries join the
shared scan at a frontier the cheap ones already paid for.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.bounds import bias_bound, permutation_half_width
from repro.core.engine import (
    default_failure_probability,
    validate_failure_probability,
)
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnSource
from repro.exceptions import ParameterError

__all__ = ["CostEstimate", "CostModel"]


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one query over a concrete schedule.

    ``predicted_sample_size`` is the schedule size at which the model
    expects the query to retire; ``predicted_cells`` is the cell cost of
    scanning every candidate (at its per-row rate) up to that size.
    Both are deterministic functions of the query shape and the store's
    *schema* (row count and support sizes), never of its values.
    """

    predicted_sample_size: int
    predicted_cells: int


class _LemmaTerms:
    """The data-independent Lemma 3 terms of one estimate, each computed once.

    ``λ(M)`` depends only on ``(M, N, p)`` and ``b(u, M)`` only on
    ``(u, M, N)``, so every candidate (and each of the three MI bounds)
    of one query shares them. The scalar functions of
    :mod:`repro.core.bounds` evaluate both, and ``b`` is recovered as
    ``width - 2λ`` exactly as :class:`~repro.core.bounds.ConfidenceInterval`
    reports it, so every prediction is bit-for-bit what per-candidate
    ``entropy_interval`` calls would give.
    """

    def __init__(self, population: int, per_bound: float) -> None:
        self._population = population
        self._per_bound = per_bound
        self._half_widths: dict[int, float] = {}
        self._biases: dict[tuple[int, int], float] = {}

    def half_width(self, size: int) -> float:
        lam = self._half_widths.get(size)
        if lam is None:
            lam = permutation_half_width(size, self._population, self._per_bound)
            self._half_widths[size] = lam
        return lam

    def bias(self, support: int, size: int) -> float:
        key = (support, size)
        bias = self._biases.get(key)
        if bias is None:
            lam = self.half_width(size)
            width = 2.0 * lam + bias_bound(support, size, self._population)
            bias = width - 2.0 * lam
            self._biases[key] = bias
        return bias


class CostModel:
    """Deterministic per-query cost predictor for the planner.

    Purely analytic: a function of the query shape and the store schema,
    so two sessions always order the same plan the same way. Being pure,
    each prediction is computed once per process and then served from a
    bounded memo (:func:`_predict`), so a rerun plans without
    re-evaluating the Lemma 3 terms.
    """

    def estimate(
        self,
        store: ColumnSource,
        *,
        kind: str,
        score: str,
        epsilon: float,
        candidates: Sequence[str],
        target: str | None = None,
        threshold: float | None = None,
        failure_probability: float | None = None,
        initial_size: int | None = None,
    ) -> CostEstimate:
        """Predict retirement size and cell cost of one query shape.

        The schedule is built exactly as the executor builds it (same
        ``M0``, same doubling, same per-round failure split), so the
        widths evaluated here are the widths the run will actually see.
        """
        if not candidates:
            raise ParameterError("cost estimate needs at least one candidate")
        if failure_probability is None:
            failure_probability = default_failure_probability(store.num_rows)
        validate_failure_probability(failure_probability)
        mutual = score == "mutual_information"
        names = list(candidates)
        all_names = [target, *names] if mutual and target is not None else names
        supports = {
            name: store.support_size(name) for name in all_names if name is not None
        }
        return _predict(
            store.num_rows,
            kind,
            mutual,
            epsilon,
            threshold,
            failure_probability,
            initial_size,
            tuple(supports[name] for name in names),
            supports.get(target or "", 2),
            max(supports.values()),
        )


@functools.lru_cache(maxsize=4096)
def _predict(
    population: int,
    kind: str,
    mutual: bool,
    epsilon: float,
    threshold: float | None,
    failure_probability: float,
    initial_size: int | None,
    candidate_supports: tuple[int, ...],
    target_support: int,
    max_support: int,
) -> CostEstimate:
    """The estimate of one query shape, from everything it depends on.

    The arguments are exactly what the prediction reads of the store and
    the query (row count, supports, ``p_f``, ``M0``), so the memo can
    never serve a shape it was not computed for.
    """
    schedule = SampleSchedule.for_query(
        population,
        len(candidate_supports) + 1 if mutual else len(candidate_supports),
        failure_probability,
        max_support,
        initial_size=initial_size,
    )
    per_bound = schedule.per_round_failure(
        failure_probability,
        len(candidate_supports),
        bounds_per_attribute=3 if mutual else 1,
    )
    terms = _LemmaTerms(population, per_bound)
    retire_by_support: dict[int, int] = {}
    predicted_m = 0
    cells = 0
    for support in candidate_supports:
        retire = retire_by_support.get(support)
        if retire is None:
            retire = _retirement_size(
                schedule,
                population,
                terms,
                kind=kind,
                mutual=mutual,
                support=support,
                target_support=target_support,
                epsilon=epsilon,
                threshold=threshold,
            )
            retire_by_support[support] = retire
        predicted_m = max(predicted_m, retire)
        cells += (3 if mutual else 1) * retire
    if mutual:
        # The target's marginal is scanned to the query's final size.
        cells += predicted_m
    return CostEstimate(predicted_sample_size=predicted_m, predicted_cells=cells)


def _retirement_size(
    schedule: SampleSchedule,
    population: int,
    terms: _LemmaTerms,
    *,
    kind: str,
    mutual: bool,
    support: int,
    target_support: int,
    epsilon: float,
    threshold: float | None,
) -> int:
    """First schedule size where the guaranteed decision width holds."""
    if kind == "filter" and threshold is not None:
        goal = 2.0 * epsilon * threshold
    elif mutual:
        # MI is bounded by min(H(α_t), H(α)) <= log2 of either support.
        ceiling = math.log2(max(2, min(support, target_support)))
        goal = epsilon * ceiling
    else:
        goal = epsilon * math.log2(max(2, support))
    for size in schedule.sizes:
        if size >= population:
            break
        lam = terms.half_width(size)
        bias = terms.bias(support, size)
        if mutual:
            bias_t = terms.bias(target_support, size)
            bias_j = terms.bias(support * target_support, size)
            width = 6.0 * lam + bias_t + bias + bias_j
        else:
            width = 2.0 * lam + bias
        if width < goal:
            return size
    return population
