"""EntropyRank: the exact-answer top-k baseline of Wang & Ding (KDD'19).

The state of the art the reproduced paper compares against. Same sampling
substrate and Lemma 3 bounds as SWOPE, but the loop only stops once the
returned set is *provably the exact* top-k (k-th largest lower bound ≥
(k+1)-th largest upper bound), so the sample must grow until the
data-dependent gap Δ between the k-th and (k+1)-th entropies is resolved —
expected cost ``O(h log(hN) log²N / Δ²)``.
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

__all__ = ["entropy_rank_top_k"]


def entropy_rank_top_k(
    store: ColumnStore,
    k: int,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sequential: bool = False,
    prune: bool = True,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """Answer an *exact* entropy top-k query by adaptive sampling.

    Parameters mirror :func:`repro.core.topk.swope_top_k_entropy`, minus
    ``epsilon`` — this baseline has no approximation knob.
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    sampler = PrefixSampler(store, seed=seed, sequential=sequential)
    query = prepare_query(
        store,
        QuerySpec("top_k", "entropy", k=k, attributes=attributes),
        failure_probability=failure_probability,
        schedule=schedule,
        sampler=sampler,
    )
    return exact_stopping_top_k(
        query.provider, sampler, query.names, k, query.schedule,
        prune=prune, budget=budget, cancellation=cancellation, strict=strict,
    )
