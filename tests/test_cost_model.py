"""Tests for the planner's analytic cost model (``repro.core.cost``).

``CostModel.estimate`` computes each data-independent Lemma 3 term once
per estimate: ``λ`` once per schedule size, ``b`` once per distinct
support (and target×support product), the retirement size once per
distinct support. The schedule the planner picks depends on those
predictions through ``width < goal`` comparisons, so the memoised model
must agree *exactly* with the per-candidate scalar model it replaced.
That model is kept below as the reference.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cost as cost
from repro.core.bounds import entropy_interval
from repro.core.cost import CostEstimate, CostModel
from repro.core.engine import (
    default_failure_probability,
    validate_failure_probability,
)
from repro.core.schedule import SampleSchedule


@dataclass(frozen=True)
class _Schema:
    """The slice of a ``ColumnSource`` the cost model reads: its schema."""

    num_rows: int
    supports: dict[str, int]

    def support_size(self, name: str) -> int:
        return self.supports[name]


# ----------------------------------------------------------------------
# Reference: the per-candidate scalar model, one entropy_interval per term
# ----------------------------------------------------------------------


def _reference_parts(
    support: int, sample_size: int, population: int, per_bound: float
) -> tuple[float, float]:
    iv = entropy_interval(0.0, support, sample_size, population, per_bound)
    return iv.half_width, iv.width - 2.0 * iv.half_width


def _reference_retirement(
    schedule: SampleSchedule,
    population: int,
    per_bound: float,
    *,
    kind: str,
    mutual: bool,
    support: int,
    target_support: int,
    epsilon: float,
    threshold: float | None,
) -> int:
    if kind == "filter" and threshold is not None:
        goal = 2.0 * epsilon * threshold
    elif mutual:
        ceiling = math.log2(max(2, min(support, target_support)))
        goal = epsilon * ceiling
    else:
        goal = epsilon * math.log2(max(2, support))
    for size in schedule.sizes:
        if size >= population:
            break
        lam, bias = _reference_parts(support, size, population, per_bound)
        if mutual:
            _, bias_t = _reference_parts(
                target_support, size, population, per_bound
            )
            _, bias_j = _reference_parts(
                support * target_support, size, population, per_bound
            )
            width = 6.0 * lam + bias_t + bias + bias_j
        else:
            width = 2.0 * lam + bias
        if width < goal:
            return size
    return population


def _reference_estimate(
    store: _Schema,
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
    if failure_probability is None:
        failure_probability = default_failure_probability(store.num_rows)
    validate_failure_probability(failure_probability)
    mutual = score == "mutual_information"
    names = list(candidates)
    all_names = [target, *names] if mutual and target is not None else names
    num_attributes = len(names) + 1 if mutual else len(names)
    population = store.num_rows
    supports = {
        name: store.support_size(name) for name in all_names if name is not None
    }
    schedule = SampleSchedule.for_query(
        population,
        num_attributes,
        failure_probability,
        max(supports.values()),
        initial_size=initial_size,
    )
    per_bound = schedule.per_round_failure(
        failure_probability,
        len(names),
        bounds_per_attribute=3 if mutual else 1,
    )
    target_support = supports.get(target or "", 2)
    predicted_m = 0
    cells = 0
    for name in names:
        retire = _reference_retirement(
            schedule,
            population,
            per_bound,
            kind=kind,
            mutual=mutual,
            support=supports[name],
            target_support=target_support,
            epsilon=epsilon,
            threshold=threshold,
        )
        predicted_m = max(predicted_m, retire)
        cells += (3 if mutual else 1) * retire
    if mutual:
        cells += predicted_m
    return CostEstimate(predicted_sample_size=predicted_m, predicted_cells=cells)


# ----------------------------------------------------------------------
# Differential test
# ----------------------------------------------------------------------


@st.composite
def _query_shapes(draw):
    population = int(10 ** draw(st.floats(min_value=3.0, max_value=8.0)))
    score = draw(st.sampled_from(["entropy", "mutual_information"]))
    kind = draw(st.sampled_from(["top_k", "filter"]))
    # Few distinct supports, drawn with repeats, so the per-support
    # memo is exercised on shared and on distinct values.
    pool = draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=4)
    )
    candidate_supports = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=10)
    )
    supports = {f"c{i}": u for i, u in enumerate(candidate_supports)}
    target = None
    if score == "mutual_information":
        target = "t"
        supports[target] = draw(st.integers(min_value=1, max_value=1000))
    threshold = (
        draw(
            st.one_of(
                st.none(), st.floats(min_value=0.01, max_value=10.0)
            )
        )
        if kind == "filter"
        else None
    )
    return {
        "store": _Schema(num_rows=population, supports=supports),
        "kind": kind,
        "score": score,
        "epsilon": draw(st.floats(min_value=0.005, max_value=1.0)),
        "candidates": [f"c{i}" for i in range(len(candidate_supports))],
        "target": target,
        "threshold": threshold,
        "failure_probability": draw(
            st.one_of(st.none(), st.floats(min_value=1e-9, max_value=0.5))
        ),
        "initial_size": draw(
            st.one_of(
                st.none(), st.integers(min_value=1, max_value=population)
            )
        ),
    }


@settings(max_examples=400, deadline=None)
@given(shape=_query_shapes())
def test_estimate_equals_per_candidate_reference(shape) -> None:
    # The memo is not cleared between examples, so a key that mixed up
    # two shapes would serve one shape's estimate for another here.
    store = shape.pop("store")
    expected = _reference_estimate(store, **shape)
    assert CostModel().estimate(store, **shape) == expected
    # Asked again, through a different store object with the same
    # schema: served from the memo, bit-identical.
    hits = cost._predict.cache_info().hits
    same_schema = _Schema(num_rows=store.num_rows, supports=dict(store.supports))
    assert CostModel().estimate(same_schema, **shape) == expected
    assert cost._predict.cache_info().hits == hits + 1


# ----------------------------------------------------------------------
# Each term once
# ----------------------------------------------------------------------


def test_half_width_computed_once_per_schedule_size(monkeypatch) -> None:
    calls: Counter[int] = Counter()
    bias_calls: Counter[tuple[int, int]] = Counter()
    real_half_width = cost.permutation_half_width
    real_bias = cost.bias_bound

    def counting_half_width(sample_size, population_size, failure_probability):
        calls[sample_size] += 1
        return real_half_width(sample_size, population_size, failure_probability)

    def counting_bias(support_size, sample_size, population_size):
        bias_calls[(support_size, sample_size)] += 1
        return real_bias(support_size, sample_size, population_size)

    monkeypatch.setattr(cost, "permutation_half_width", counting_half_width)
    monkeypatch.setattr(cost, "bias_bound", counting_bias)
    supports = {f"c{i}": 2 + i % 5 for i in range(24)}
    supports["t"] = 6
    store = _Schema(num_rows=10**6, supports=supports)
    CostModel().estimate(
        store,
        kind="filter",
        score="mutual_information",
        epsilon=0.05,
        candidates=[f"c{i}" for i in range(24)],
        target="t",
        threshold=0.2,
    )
    assert calls, "the estimate evaluated no half-width"
    assert max(calls.values()) == 1
    assert max(bias_calls.values()) == 1
    # Five distinct candidate supports, one target: at most five
    # candidate biases, one target bias and five joint biases per size.
    per_size = Counter(size for _, size in bias_calls)
    assert max(per_size.values()) <= 11


def test_estimate_is_computed_once_per_process(monkeypatch) -> None:
    calls: list[int] = []
    real_half_width = cost.permutation_half_width

    def counting_half_width(*args):
        calls.append(1)
        return real_half_width(*args)

    monkeypatch.setattr(cost, "permutation_half_width", counting_half_width)
    store = _Schema(num_rows=10**5, supports={"a": 4, "b": 9, "t": 3})
    shape = dict(kind="top_k", score="mutual_information", epsilon=0.1,
                 candidates=["a", "b"], target="t")
    first = CostModel().estimate(store, **shape)
    evaluated = len(calls)
    assert evaluated > 0
    assert CostModel().estimate(store, **shape) == first
    assert len(calls) == evaluated  # the rerun evaluated no Lemma 3 term
    # Any input the prediction reads is part of the key.
    for changed in (
        dict(shape, epsilon=0.2),
        dict(shape, failure_probability=0.01),
        dict(shape, initial_size=64),
        dict(shape, candidates=["b", "a", "a"]),
    ):
        CostModel().estimate(store, **changed)
    CostModel().estimate(_Schema(10**5, {"a": 4, "b": 9, "t": 5}), **shape)
    CostModel().estimate(_Schema(10**6, {"a": 4, "b": 9, "t": 3}), **shape)
    assert cost._predict.cache_info().currsize == 7
    assert cost._predict.cache_info().maxsize is not None  # bounded


@pytest.mark.parametrize("score", ["entropy", "mutual_information"])
def test_equal_supports_retire_together(score: str) -> None:
    supports = {f"c{i}": 8 for i in range(6)}
    supports["t"] = 4
    store = _Schema(num_rows=10**5, supports=supports)
    target = "t" if score == "mutual_information" else None
    estimate = CostModel().estimate(
        store, kind="top_k", score=score, epsilon=0.1,
        candidates=[f"c{i}" for i in range(6)], target=target,
    )
    size = estimate.predicted_sample_size
    if target is None:
        assert estimate.predicted_cells == 6 * size
    else:
        assert estimate.predicted_cells == 6 * 3 * size + size
