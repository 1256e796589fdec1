"""Naive fixed-size sampling baseline (ablation, not from the paper).

A single fixed-size without-replacement sample, plug-in scores, no bounds,
no adaptivity. This is what a practitioner gets from "just subsample 1% and
rank" — fast but with *no* guarantee. It exists to quantify what the
adaptive machinery buys: the ablation benches compare its accuracy against
SWOPE at matched sample sizes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engine import validate_k, validate_threshold
from repro.core.estimators import entropy_from_counts, joint_entropy_from_counter
from repro.core.results import AttributeEstimate, FilterResult, RunStats, TopKResult
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError

__all__ = [
    "naive_sample_entropies",
    "naive_sample_mutual_informations",
    "naive_top_k_entropy",
    "naive_filter_entropy",
]


def _check_sample_size(sample_size: int, population: int) -> int:
    if not 1 <= sample_size <= population:
        raise ParameterError(
            f"sample size must be in [1, {population}], got {sample_size}"
        )
    return int(sample_size)


def naive_sample_entropies(
    store: ColumnStore,
    sample_size: int,
    *,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
) -> dict[str, float]:
    """Plug-in entropies from one fixed-size random sample (no bounds)."""
    sample_size = _check_sample_size(sample_size, store.num_rows)
    names = list(attributes) if attributes is not None else list(store.attributes)
    sampler = PrefixSampler(store, seed=seed)
    return {
        name: entropy_from_counts(
            sampler.marginal_counts(name, sample_size), total=sample_size
        )
        for name in names
    }


def naive_sample_mutual_informations(
    store: ColumnStore,
    target: str,
    sample_size: int,
    *,
    seed: int | np.random.Generator | None = None,
    candidates: list[str] | None = None,
) -> dict[str, float]:
    """Plug-in MI scores against ``target`` from one fixed-size sample."""
    if target not in store:
        raise SchemaError(f"unknown target attribute {target!r}")
    sample_size = _check_sample_size(sample_size, store.num_rows)
    if candidates is None:
        candidates = [a for a in store.attributes if a != target]
    if target in candidates:
        raise ParameterError(f"target {target!r} cannot also be a candidate")
    sampler = PrefixSampler(store, seed=seed)
    # Joints first: the marginals below are then the margins of the
    # joint block tables, and no column is read twice.
    joints = sampler.joint_counts_batch(target, candidates, sample_size)
    h_target = entropy_from_counts(
        sampler.marginal_counts(target, sample_size), total=sample_size
    )
    scores: dict[str, float] = {}
    for name in candidates:
        h_cand = entropy_from_counts(
            sampler.marginal_counts(name, sample_size), total=sample_size
        )
        h_joint = joint_entropy_from_counter(joints[name])
        scores[name] = max(0.0, h_target + h_cand - h_joint)
    return scores


def _estimate(attribute: str, score: float, sample_size: int) -> AttributeEstimate:
    return AttributeEstimate(
        attribute=attribute,
        estimate=score,
        lower=score,
        upper=score,
        sample_size=sample_size,
    )


def naive_top_k_entropy(
    store: ColumnStore,
    k: int,
    sample_size: int,
    *,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
) -> TopKResult:
    """Top-k by plug-in scores of one fixed-size sample. No guarantee."""
    k = validate_k(k)
    started = time.perf_counter()
    scores = naive_sample_entropies(
        store, sample_size, seed=seed, attributes=attributes
    )
    ranked = sorted(scores, key=lambda a: (-scores[a], a))[: min(k, len(scores))]
    stats = RunStats(
        iterations=1,
        final_sample_size=sample_size,
        population_size=store.num_rows,
        cells_scanned=sample_size * len(scores),
        wall_seconds=time.perf_counter() - started,
    )
    return TopKResult(
        attributes=ranked,
        estimates=[_estimate(a, scores[a], sample_size) for a in ranked],
        stats=stats,
        k=k,
    )


def naive_filter_entropy(
    store: ColumnStore,
    threshold: float,
    sample_size: int,
    *,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
) -> FilterResult:
    """Filtering by plug-in scores of one fixed-size sample. No guarantee."""
    threshold = validate_threshold(threshold)
    started = time.perf_counter()
    scores = naive_sample_entropies(
        store, sample_size, seed=seed, attributes=attributes
    )
    included = sorted(
        (a for a, s in scores.items() if s >= threshold),
        key=lambda a: (-scores[a], a),
    )
    stats = RunStats(
        iterations=1,
        final_sample_size=sample_size,
        population_size=store.num_rows,
        cells_scanned=sample_size * len(scores),
        wall_seconds=time.perf_counter() - started,
    )
    return FilterResult(
        attributes=included,
        estimates={a: _estimate(a, s, sample_size) for a, s in scores.items()},
        stats=stats,
        threshold=threshold,
    )
