"""EntropyFilter extended to empirical mutual information (exact filter).

The Section 6.3 competitor: KDD'19 stop-when-certain filtering over the
Section 4 mutual-information confidence intervals.
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

__all__ = ["entropy_filter_mutual_information"]


def entropy_filter_mutual_information(
    store: ColumnStore,
    target: str,
    threshold: float,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sequential: bool = False,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> FilterResult:
    """Answer an *exact* MI filtering query by adaptive sampling.

    Parameters mirror
    :func:`repro.core.mi_filtering.swope_filter_mutual_information`, minus
    ``epsilon``.
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    sampler = PrefixSampler(store, seed=seed, sequential=sequential)
    query = prepare_query(
        store,
        QuerySpec(
            "filter",
            "mutual_information",
            threshold=threshold,
            target=target,
            attributes=candidates,
        ),
        failure_probability=failure_probability,
        schedule=schedule,
        sampler=sampler,
    )
    return exact_stopping_filter(
        query.provider, sampler, query.names, threshold, query.schedule,
        target=target, budget=budget, cancellation=cancellation, strict=strict,
    )
