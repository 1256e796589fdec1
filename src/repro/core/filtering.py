"""SWOPE approximate filtering query on empirical entropy (Algorithm 2).

Given a threshold ``η``, return a set ``X`` of attributes such that, with
probability at least ``1 - p_f`` (Definition 6):

* every attribute with ``H(α) >= (1 + ε)η`` is in ``X``;
* no attribute with ``H(α) < (1 - ε)η`` is in ``X``;
* attributes in the ``[(1 - ε)η, (1 + ε)η)`` band may go either way.

Expected running time
``O(min{hN, h log(h log N / p_f) log² N / (ε² η²)})`` (Theorem 4) —
dependent on the user's threshold rather than on the data-dependent
smallest gap ``δ`` that dominates the exact EntropyFilter baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import PlanExecutor
from repro.core.results import FilterResult
from repro.core.schedule import SampleSchedule
from repro.data.backends import CountingBackend
from repro.data.column_store import ColumnSource
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.cache sits above)
    from repro.cache import PlanCache

__all__ = ["swope_filter_entropy"]


def swope_filter_entropy(
    store: ColumnSource,
    threshold: float,
    *,
    epsilon: float = 0.05,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sequential: bool = False,
    backend: str | CountingBackend | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | None" = None,
) -> FilterResult:
    """Answer an approximate entropy filtering query with SWOPE (Algorithm 2).

    Parameters
    ----------
    store:
        The dataset to query.
    threshold:
        The filter threshold ``η`` in bits.
    epsilon:
        Error parameter of Definition 6. The paper's evaluation default
        for entropy filtering queries is ``0.05``.
    failure_probability:
        ``p_f``; defaults to the paper's ``1/N``.
    seed:
        Seed or generator controlling the random shuffle.
    attributes:
        Restrict the query to these attributes (default: all).
    schedule:
        Override the sample-size schedule.
    sequential, backend:
        Physical-order reads and the counting backend, as in
        :func:`repro.core.topk.swope_top_k_entropy`.
    budget, cancellation, strict:
        Resilience controls as in
        :func:`repro.core.topk.swope_top_k_entropy`; a truncated run
        resolves still-undecided attributes by interval midpoint and
        lists them in ``result.guarantee.undecided``.
    trace, metrics:
        Observability hooks as in
        :func:`repro.core.topk.swope_top_k_entropy` — a
        :class:`~repro.obs.sinks.TraceSink` receives the structured
        event stream, a :class:`~repro.obs.metrics.MetricsRegistry`
        aggregates counters and latency histograms.
    cache:
        Plan cache as in
        :func:`repro.core.topk.swope_top_k_entropy` — note semantic
        reuse here: a stored answer at threshold ``η`` can serve any
        ``η′ ≥ η`` whose decisions its history proves.

    Returns
    -------
    FilterResult
        The included attributes ordered by decreasing estimate, estimates
        for every examined attribute, run statistics, and the
        :class:`~repro.core.results.GuaranteeStatus` of the run.
    """
    return PlanExecutor(
        store,
        seed=seed,
        sequential=sequential,
        failure_probability=failure_probability,
        backend=backend,
        cache=cache,
    ).filter_entropy(
        threshold, epsilon=epsilon, attributes=attributes,
        schedule=schedule, trace=trace, budget=budget,
        cancellation=cancellation, strict=strict, metrics=metrics,
    )
