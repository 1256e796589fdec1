"""EntropyRank extended to empirical mutual information (exact top-k).

The paper's evaluation (Section 6.3) runs EntropyRank's exact stopping rule
over the mutual-information bounds — this module is that competitor: the
Section 4 MI intervals with the KDD'19 stop-when-certain condition.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.adaptive_exact import exact_stopping_top_k
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import QuerySpec, prepare_query
from repro.core.results import TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler

__all__ = ["entropy_rank_top_k_mutual_information"]


def entropy_rank_top_k_mutual_information(
    store: ColumnStore,
    target: str,
    k: int,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sequential: bool = False,
    prune: bool = True,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """Answer an *exact* MI top-k query by adaptive sampling.

    Parameters mirror
    :func:`repro.core.mi_topk.swope_top_k_mutual_information`, minus
    ``epsilon``.
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    sampler = PrefixSampler(store, seed=seed, sequential=sequential)
    query = prepare_query(
        store,
        QuerySpec(
            "top_k", "mutual_information", k=k, target=target, attributes=candidates
        ),
        failure_probability=failure_probability,
        schedule=schedule,
        sampler=sampler,
    )
    return exact_stopping_top_k(
        query.provider, sampler, query.names, k, query.schedule,
        prune=prune, target=target,
        budget=budget, cancellation=cancellation, strict=strict,
    )
