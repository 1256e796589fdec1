"""Exact-answer adaptive baselines (KDD'19 [32]) on the SWOPE loop.

EntropyRank and EntropyFilter (Wang & Ding, "Fast Approximation of
Empirical Entropy via Subsampling", KDD 2019 — reference [32] of the
reproduced paper) use the same sampling-without-replacement bounds as SWOPE
but *exact* stopping rules (:class:`~repro.core.engine.ExactTopK`,
:class:`~repro.core.engine.ExactFilter`):

* **top-k**: stop once the k-th largest lower bound is no smaller than the
  (k+1)-th largest upper bound — the answer is then provably the exact
  top-k set;
* **filtering**: retire an attribute only once its whole interval clears
  the threshold (``lower > η`` include, ``upper < η`` exclude).

Both rules force the sample to grow until data-dependent gaps (Δ between
the k-th and (k+1)-th scores; δ between a score and η) are resolved, which
is the inefficiency the reproduced paper removes. Running them on the same
providers, schedule and loop as SWOPE
(:func:`~repro.core.engine.run_adaptive`) makes the comparison isolate
exactly that difference, and gives the MI variants for free.
"""

from __future__ import annotations

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.engine import (
    ExactFilter,
    ExactTopK,
    ScoreProvider,
    run_adaptive,
    validate_k,
    validate_threshold,
)
from repro.core.results import FilterResult, TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.sampling import PrefixSampler

__all__ = ["exact_stopping_top_k", "exact_stopping_filter"]


def exact_stopping_top_k(
    provider: ScoreProvider,
    sampler: PrefixSampler,
    candidates: list[str],
    k: int,
    schedule: SampleSchedule,
    *,
    prune: bool = True,
    target: str | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """EntropyRank-style top-k: run until the exact answer is certain.

    ``budget``/``cancellation``/``strict`` follow the engine's contract
    (:func:`repro.core.engine.adaptive_top_k`): the checkpoint runs once
    per iteration, a truncated run returns the current best-effort
    ranking with ``result.guarantee`` recording why it stopped, and
    ``strict=True`` raises instead. Converged exact runs keep
    ``result.guarantee`` as ``None`` — exactness needs no certificate.
    """
    return run_adaptive(
        ExactTopK(validate_k(k), prune), provider, sampler, candidates, schedule,
        target=target, budget=budget, cancellation=cancellation, strict=strict,
    )


def exact_stopping_filter(
    provider: ScoreProvider,
    sampler: PrefixSampler,
    candidates: list[str],
    threshold: float,
    schedule: SampleSchedule,
    *,
    target: str | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> FilterResult:
    """EntropyFilter-style filtering: retire only on certain comparisons.

    ``budget``/``cancellation``/``strict`` follow the engine's contract:
    a truncated run resolves the still-undecided attributes best-effort
    by interval midpoint, lists them in ``result.guarantee.undecided``,
    and ``strict=True`` raises with the partial result attached.
    """
    return run_adaptive(
        ExactFilter(validate_threshold(threshold)), provider, sampler,
        candidates, schedule,
        target=target, budget=budget, cancellation=cancellation, strict=strict,
    )
