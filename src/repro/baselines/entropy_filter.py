"""EntropyFilter: the exact-answer filtering baseline of Wang & Ding (KDD'19).

Same bounds as SWOPE-Filtering, but an attribute is only retired once its
whole confidence interval clears the threshold — so attributes whose score
sits close to ``η`` keep the loop sampling until the data-dependent gap
``δ = |H(α) - η|`` is resolved (expected cost ``O(h log(hN) log²N / δ²)``).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.adaptive_exact import exact_stopping_filter
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import QuerySpec, prepare_query
from repro.core.results import FilterResult
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler

__all__ = ["entropy_filter"]


def entropy_filter(
    store: ColumnStore,
    threshold: float,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sequential: bool = False,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> FilterResult:
    """Answer an *exact* entropy filtering query by adaptive sampling.

    Parameters mirror :func:`repro.core.filtering.swope_filter_entropy`,
    minus ``epsilon``.
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    sampler = PrefixSampler(store, seed=seed, sequential=sequential)
    query = prepare_query(
        store,
        QuerySpec("filter", "entropy", threshold=threshold, attributes=attributes),
        failure_probability=failure_probability,
        schedule=schedule,
        sampler=sampler,
    )
    return exact_stopping_filter(
        query.provider, sampler, query.names, threshold, query.schedule,
        budget=budget, cancellation=cancellation, strict=strict,
    )
