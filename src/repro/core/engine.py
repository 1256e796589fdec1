"""Shared adaptive-sampling engine behind all four SWOPE algorithms.

Algorithms 1–4 of the paper, and the KDD'19 EntropyRank/EntropyFilter
baselines [32], differ only in (a) which score they bound — entropy or
mutual information — and (b) which stopping rule they apply. This module
factors the common structure:

* **Score providers** (:class:`EntropyScoreProvider`,
  :class:`MutualInformationScoreProvider`) turn an attribute name and a
  sample size into a confidence interval, hiding whether one bound (entropy)
  or three bounds (MI: target, candidate, joint) were consumed.
* **Stopping rules** (:class:`SwopeTopK`, :class:`SwopeFilter`,
  :class:`ExactTopK`, :class:`ExactFilter`) are small frozen objects
  deciding retirements, pruning, stopping, the answer and its guarantee.
* **One loop** (:func:`run_adaptive`) does everything else: iteration,
  trace events, budgets, checkpoints, run statistics, metrics, strict
  mode. :func:`adaptive_top_k` / :func:`adaptive_filter` are the SWOPE
  entry points :meth:`repro.core.plan.PlanExecutor.execute_one` calls.

The unifying observation that makes this factoring exact: for both
scores the stopping quantity of the top-k rule, ``2λ + b_max`` (entropy)
or ``6λ + b'_max`` (MI), equals the maximum interval *width* over the
current answer set ``R``.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable, Generic, Protocol, TypeVar

from repro.core.bounds import (
    ConfidenceInterval,
    MutualInformationInterval,
    entropy_interval,
    entropy_intervals,
    mi_intervals,
)
from repro.core.budget import (
    CancellationToken,
    QueryBudget,
    check_interruption,
    raise_interrupted,
)
from repro.core.estimators import (
    _entropies_from_trusted_counts,
    _entropy_from_trusted_counts,
)
from repro.core.results import (
    AttributeEstimate,
    FilterResult,
    GuaranteeStatus,
    RunStats,
    TopKResult,
)
from repro.core.schedule import SampleSchedule
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError, UnknownAttributeError
from repro.obs.events import (
    BudgetDegradationEvent,
    IterationEvent,
    PruneEvent,
    QueryEndEvent,
    QueryStartEvent,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry, record_query
from repro.obs.sinks import TraceSink

__all__ = [
    "EntropyScoreProvider",
    "ExactFilter",
    "ExactTopK",
    "Interval",
    "LoopCheckpoint",
    "MutualInformationScoreProvider",
    "PhaseTimings",
    "QueryTrace",
    "ScoreProvider",
    "StoppingRule",
    "SwopeFilter",
    "SwopeTopK",
    "adaptive_top_k",
    "adaptive_filter",
    "run_adaptive",
    "validate_epsilon",
    "validate_failure_probability",
    "validate_k",
    "validate_threshold",
    "default_failure_probability",
]


class Interval(Protocol):
    """What the stopping rules read from a Lemma 3 / Section 4 interval."""

    @property
    def estimate(self) -> float: ...

    @property
    def lower(self) -> float: ...

    @property
    def upper(self) -> float: ...

    @property
    def width(self) -> float: ...

    @property
    def midpoint(self) -> float: ...


# ----------------------------------------------------------------------
# Parameter validation shared by every public query function
# ----------------------------------------------------------------------
def validate_epsilon(epsilon: float) -> float:
    """Check ``0 < ε < 1`` (Definitions 5–6), finite, and return it."""
    if not math.isfinite(epsilon) or not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be a finite value in (0, 1), got {epsilon}")
    return float(epsilon)


def validate_failure_probability(failure_probability: float) -> float:
    """Check ``0 < p_f < 1``, finite, and return it."""
    if not math.isfinite(failure_probability) or not 0.0 < failure_probability < 1.0:
        raise ParameterError(
            f"failure probability must be a finite value in (0, 1),"
            f" got {failure_probability}"
        )
    return float(failure_probability)


def validate_k(k: int) -> int:
    """Check ``k >= 1`` and return it."""
    if int(k) != k or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    return int(k)


def validate_threshold(threshold: float) -> float:
    """Check ``η >= 0`` (scores are non-negative), finite, and return it.

    NaN and infinity are rejected explicitly: ``float("nan") < 0.0`` is
    False, so a bare range check would admit a NaN threshold into the
    filtering loop, where no interval comparison can ever decide an
    attribute against it.
    """
    if not math.isfinite(threshold) or threshold < 0.0:
        raise ParameterError(f"threshold must be finite and >= 0, got {threshold}")
    return float(threshold)


def default_failure_probability(population_size: int) -> float:
    """The paper's default ``p_f = 1/N`` (Section 6.1), floored for tiny N."""
    return min(0.5, 1.0 / max(population_size, 2))


# ----------------------------------------------------------------------
# Score providers
# ----------------------------------------------------------------------
@dataclass
class PhaseTimings:
    """Cumulative wall-clock split of a provider's work, by phase.

    Providers accumulate into one instance over their lifetime; the
    adaptive loops snapshot it at query start and write the per-query
    deltas into :class:`~repro.core.results.RunStats`, so a
    session-shared provider attributes each query only its own time.
    """

    #: Seconds spent gathering sample blocks and histogramming them.
    counting_seconds: float = 0.0
    #: Seconds spent turning counts into entropies and Lemma 1–3 intervals.
    bounds_seconds: float = 0.0

    def snapshot(self) -> tuple[float, float]:
        """Current ``(counting_seconds, bounds_seconds)`` for delta accounting."""
        return (self.counting_seconds, self.bounds_seconds)


class ScoreProvider(Protocol):
    """What the adaptive loop needs from a score implementation."""

    #: How many Lemma 3 bounds one interval consumes (1 entropy, 3 MI) —
    #: used to split the failure budget.
    bounds_per_attribute: int

    #: Cumulative counting/bounds wall-clock, snapshotted by the loop.
    timings: PhaseTimings

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> Mapping[str, Interval]:
        """Confidence intervals of a batch of attributes at ``sample_size``.

        One counting pass and one bounds pass for the whole batch; each
        returned interval is bit-identical to the providers' scalar
        ``interval`` for the same attribute and sample size.
        """
        ...  # pragma: no cover - protocol


class EntropyScoreProvider:
    """Lemma 3 entropy intervals over a prefix sampler.

    ``beta_mode`` selects the sensitivity form inside λ: the paper's
    tight closed form (default) or the loose ``2 log2(M)/M`` analysis
    bound (ablation A5).
    """

    bounds_per_attribute = 1

    def __init__(
        self,
        sampler: PrefixSampler,
        failure_per_bound: float,
        *,
        beta_mode: str = "tight",
    ) -> None:
        self._sampler = sampler
        self._p = validate_failure_probability(failure_per_bound)
        self._n = sampler.num_rows
        self._beta_mode = beta_mode
        self.timings = PhaseTimings()

    def interval(self, attribute: str, sample_size: int) -> ConfidenceInterval:
        return self.intervals((attribute,), sample_size)[attribute]

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> dict[str, ConfidenceInterval]:
        counting_start = time.perf_counter()
        counts = self._sampler.marginal_counts_batch(attributes, sample_size)
        bounds_start = time.perf_counter()
        store = self._sampler.store
        names = list(counts)
        ivs = entropy_intervals(
            _entropies_from_trusted_counts([counts[a] for a in names], sample_size),
            [store.support_size(a) for a in names],
            sample_size,
            self._n,
            self._p,
            beta_mode=self._beta_mode,
        )
        done = time.perf_counter()
        self.timings.counting_seconds += bounds_start - counting_start
        self.timings.bounds_seconds += done - bounds_start
        return dict(zip(names, ivs))


class MutualInformationScoreProvider:
    """Section 4 MI intervals ``I(α_t, α)`` over a prefix sampler.

    The target attribute's entropy interval is computed once per sample
    size and shared across all candidates of that iteration (as in
    Algorithm 3, line 3).
    """

    bounds_per_attribute = 3

    def __init__(
        self, sampler: PrefixSampler, target: str, failure_per_bound: float
    ) -> None:
        if target not in sampler.store:
            raise SchemaError(f"unknown target attribute {target!r}")
        self._sampler = sampler
        self._target = target
        self._p = validate_failure_probability(failure_per_bound)
        self._n = sampler.num_rows
        self._target_cache: tuple[int, ConfidenceInterval] | None = None
        self.timings = PhaseTimings()

    @property
    def target(self) -> str:
        """The target attribute ``α_t``."""
        return self._target

    def _target_interval(self, sample_size: int) -> ConfidenceInterval:
        if self._target_cache is not None and self._target_cache[0] == sample_size:
            return self._target_cache[1]
        counting_start = time.perf_counter()
        counts = self._sampler.marginal_counts(self._target, sample_size)
        bounds_start = time.perf_counter()
        sample_entropy = _entropy_from_trusted_counts(counts, sample_size)
        iv = entropy_interval(
            sample_entropy,
            self._sampler.store.support_size(self._target),
            sample_size,
            self._n,
            self._p,
        )
        done = time.perf_counter()
        self.timings.counting_seconds += bounds_start - counting_start
        self.timings.bounds_seconds += done - bounds_start
        self._target_cache = (sample_size, iv)
        return iv

    def interval(self, attribute: str, sample_size: int) -> MutualInformationInterval:
        return self.intervals((attribute,), sample_size)[attribute]

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> dict[str, MutualInformationInterval]:
        for attribute in attributes:
            if attribute == self._target:
                raise SchemaError(
                    f"candidate equals the target attribute {attribute!r}"
                )
        store = self._sampler.store
        # Joints first: their block tables leave the target's and every
        # candidate's block margins pending in the sampler, so the
        # marginal counts below read no column again.
        counting_start = time.perf_counter()
        joints = self._sampler.joint_counts_batch(
            self._target, attributes, sample_size
        )
        self.timings.counting_seconds += time.perf_counter() - counting_start
        target_iv = self._target_interval(sample_size)
        counting_start = time.perf_counter()
        counts = self._sampler.marginal_counts_batch(attributes, sample_size)
        bounds_start = time.perf_counter()
        names = list(counts)
        ivs = mi_intervals(
            target_iv,
            _entropies_from_trusted_counts([counts[a] for a in names], sample_size),
            [store.support_size(a) for a in names],
            _entropies_from_trusted_counts(
                [joints[a].nonzero_counts() for a in names], sample_size
            ),
            store.support_size(self._target),
            sample_size,
            self._n,
            self._p,
        )
        done = time.perf_counter()
        self.timings.counting_seconds += bounds_start - counting_start
        self.timings.bounds_seconds += done - bounds_start
        return dict(zip(names, ivs))


# ----------------------------------------------------------------------
# Tracing and checkpoints
# ----------------------------------------------------------------------
@dataclass
class QueryTrace:
    """Per-iteration history of one adaptive query.

    A :class:`~repro.obs.sinks.TraceSink` that keeps the
    :class:`~repro.obs.events.IterationEvent` of every iteration in
    ``iterations`` and ignores all other events. Pass a fresh instance
    as ``trace=`` to any SWOPE query function; interval widths over
    ``iterations`` visualise how the bounds tighten and exactly when the
    stopping rule fires (see ``examples/bound_convergence.py``).
    """

    iterations: list[IterationEvent] = field(default_factory=list)
    enabled = True

    def emit(self, event: TraceEvent) -> None:
        """Keep iteration events; drop the rest."""
        if isinstance(event, IterationEvent):
            self.iterations.append(event)

    def widths(self, attribute: str) -> list[tuple[int, float]]:
        """``(sample_size, upper - lower)`` wherever ``attribute`` appears.

        Raises
        ------
        UnknownAttributeError
            If ``attribute`` never appears in any recorded iteration —
            neither as a live candidate nor in the computed bounds. A
            silent ``[]`` here used to mask typos in diagnostics code.
        """
        out = []
        known = False
        for snapshot in self.iterations:
            if attribute in snapshot.bounds:
                known = True
                lower, upper = snapshot.bounds[attribute]
                out.append((snapshot.sample_size, upper - lower))
            elif attribute in snapshot.candidates:
                known = True
        if not known:
            raise UnknownAttributeError(
                f"attribute {attribute!r} appears in no recorded iteration"
                " of this trace"
            )
        return out


@dataclass(frozen=True)
class LoopCheckpoint:
    """Resumable state of an adaptive loop at one iteration boundary.

    Captured by the ``checkpoint=`` hook of :func:`run_adaptive` *after*
    the boundary's pruning/retiring, so a loop restarted from it
    (``resume_state=``) replays exactly the iterations an uninterrupted
    run would have executed next — the shared sampler's counters carry
    the rest of the state. Everything here is deterministic at a fixed
    seed; serialisation belongs to :mod:`repro.durability.checkpoint`.

    Attributes
    ----------
    kind:
        ``"top_k"`` or ``"filter"`` — which rule family the state belongs
        to (resuming into the other is a :class:`ParameterError`).
    next_index:
        Schedule index the resumed loop runs first.
    iterations:
        Iterations completed so far (feeds ``RunStats.iterations``).
    live:
        Live candidates (top-k) / still-undecided attributes (filter).
    pruned:
        Candidates pruned so far (top-k; feeds
        ``RunStats.candidates_pruned``).
    included:
        Attributes already included (filter only), in decision order.
    estimates:
        Estimates of every retired attribute (filter only), in decision
        order.
    """

    kind: str
    next_index: int
    iterations: int
    live: tuple[str, ...]
    pruned: int = 0
    included: tuple[str, ...] = ()
    estimates: tuple[AttributeEstimate, ...] = ()


#: The per-iteration-boundary hook the plan executor uses to persist state.
CheckpointHook = Callable[[LoopCheckpoint], None]


class _Schedule(Protocol):
    """The sample sizes a loop may visit (a :class:`SampleSchedule`)."""

    @property
    def sizes(self) -> tuple[int, ...]: ...


class _Meter(Protocol):
    """What the loop reads from and releases on its sampler."""

    @property
    def num_rows(self) -> int: ...

    @property
    def cells_scanned(self) -> int: ...

    @property
    def cells_saved(self) -> int: ...

    def release(self, name: str) -> None: ...


def _resume_state_for(
    resume_state: LoopCheckpoint | None, kind: str, schedule: _Schedule
) -> LoopCheckpoint | None:
    """Validate a ``resume_state`` against the loop it is entering."""
    if resume_state is None:
        return None
    if resume_state.kind != kind:
        raise ParameterError(
            f"cannot resume a {resume_state.kind!r} loop state in a"
            f" {kind!r} loop"
        )
    if not 0 < resume_state.next_index < len(schedule.sizes):
        raise ParameterError(
            f"resume state points at schedule index {resume_state.next_index},"
            f" outside (0, {len(schedule.sizes)})"
        )
    if not resume_state.live:
        raise ParameterError("resume state has no live attributes")
    return resume_state


class _TraceState:
    """Routes the loop's observations to an enabled TraceSink.

    Pre-computes the only flag the hot loop consults: ``active`` —
    whether structured events must be constructed at all. A disabled
    sink (:class:`repro.obs.sinks.NullSink`) and ``trace=None`` are
    indistinguishable here, which is what makes the default path
    zero-overhead: no event objects, no bounds dicts, no emit calls.
    """

    __slots__ = ("sink", "active", "events")

    def __init__(self, trace: TraceSink | None) -> None:
        self.sink = trace if getattr(trace, "enabled", True) else None
        self.active = self.sink is not None
        self.events = 0

    def emit(self, event: TraceEvent) -> None:
        assert self.sink is not None
        self.sink.emit(event)
        self.events += 1


# ----------------------------------------------------------------------
# Stopping rules
# ----------------------------------------------------------------------
def _estimate_from_interval(
    attribute: str, iv: Interval, sample_size: int
) -> AttributeEstimate:
    return AttributeEstimate(
        attribute=attribute,
        estimate=max(iv.lower, min(iv.upper, iv.midpoint)),
        lower=iv.lower,
        upper=iv.upper,
        sample_size=sample_size,
    )


Intervals = Mapping[str, Interval]
_R = TypeVar("_R", TopKResult, FilterResult)


class StoppingRule(Generic[_R]):
    """What :func:`run_adaptive` asks of a stopping rule.

    Rules are pure functions of the live attributes and their current
    intervals; the loop alone touches the sampler, trace, stats, and
    budget. Each iteration the loop applies ``retire`` (filter decisions,
    ``(attribute, included)`` pairs) before the ``stopped`` test and
    ``pruned`` (top-k pruning) after the interruption check; at the end
    ``conclude`` builds the answer and its guarantee (``None`` for a
    converged exact rule: exactness needs no certificate).
    """

    kind: str
    epsilon: float
    k: int | None
    threshold: float | None

    def retire(
        self, live: Sequence[str], intervals: Intervals, final: bool
    ) -> list[tuple[str, bool]]:
        return []

    def stopped(self, live: Sequence[str], intervals: Intervals, final: bool) -> bool:
        raise NotImplementedError  # pragma: no cover - abstract

    def pruned(self, live: Sequence[str], intervals: Intervals) -> list[str]:
        return []

    def conclude(
        self, live: Sequence[str], intervals: Intervals, included: list[str],
        retired: dict[str, AttributeEstimate], reason: str, stats: RunStats,
        target: str | None,
    ) -> _R:
        raise NotImplementedError  # pragma: no cover - abstract


class _TopKRule(StoppingRule[TopKResult]):
    """Top-k rules: nothing retires; prune, then answer the best ``k``."""

    kind = "top_k"
    threshold = None
    k: int
    prune: bool

    def _ranked(self, live: Sequence[str], intervals: Intervals) -> list[str]:
        raise NotImplementedError  # pragma: no cover - abstract

    def pruned(self, live: Sequence[str], intervals: Intervals) -> list[str]:
        """Algorithm 1, lines 15–17: drop upper bounds below the k-th
        largest lower bound (heap selection, ``O(n log k)``)."""
        k = min(self.k, len(live))
        if not self.prune or len(live) <= k:
            return []
        lower_k = heapq.nlargest(k, [intervals[a].lower for a in live])[-1]
        return [a for a in live if intervals[a].upper < lower_k]

    def _guarantee(self, answer: list[Interval], reason: str) -> GuaranteeStatus | None:
        # The answer satisfies Definition 5 with ε' = w_max / Ū_k.
        upper_k = min(iv.upper for iv in answer)
        width_max = max(iv.width for iv in answer)
        return GuaranteeStatus(
            guarantee_met=reason == "converged",
            stopping_reason=reason,
            requested_epsilon=self.epsilon,
            achieved_epsilon=0.0 if upper_k <= 0.0 else width_max / upper_k,
        )

    def conclude(
        self, live: Sequence[str], intervals: Intervals, included: list[str],
        retired: dict[str, AttributeEstimate], reason: str, stats: RunStats,
        target: str | None,
    ) -> TopKResult:
        names = self._ranked(live, intervals)
        size = stats.final_sample_size
        return TopKResult(
            attributes=names,
            estimates=[_estimate_from_interval(a, intervals[a], size) for a in names],
            stats=stats,
            k=self.k,
            target=target,
            guarantee=self._guarantee([intervals[a] for a in names], reason),
        )


@dataclass(frozen=True)
class SwopeTopK(_TopKRule):
    """Definition 5 (Algorithms 1 and 3): stop once ``(Ū_k - w_max) / Ū_k
    >= 1 - ε``, with ``Ū_k`` the k-th largest upper bound and ``w_max``
    the largest width in the answer set ``R`` (``2λ + b_max`` for
    entropy, ``6λ + b'_max`` for MI). ``Ū_k <= 0`` means every remaining
    score is exactly zero, so any k attributes do."""

    k: int
    epsilon: float
    prune: bool = True

    def _ranked(self, live: Sequence[str], intervals: Intervals) -> list[str]:
        by_upper = sorted(live, key=lambda a: intervals[a].upper, reverse=True)
        return by_upper[: min(self.k, len(live))]

    def stopped(self, live: Sequence[str], intervals: Intervals, final: bool) -> bool:
        answer = [intervals[a] for a in self._ranked(live, intervals)]
        upper_k = answer[-1].upper
        width_max = max(iv.width for iv in answer)
        return upper_k <= 0.0 or (upper_k - width_max) / upper_k >= 1.0 - self.epsilon


@dataclass(frozen=True)
class ExactTopK(_TopKRule):
    """EntropyRank [32]: rank by *lower* bound and stop once the k-th
    largest lower bound is at least the (k+1)-th largest upper bound —
    the answer is then the exact top-k — or at ``M = N``."""

    k: int
    prune: bool = True
    epsilon = 0.0

    def _ranked(self, live: Sequence[str], intervals: Intervals) -> list[str]:
        by_lower = sorted(live, key=lambda a: intervals[a].lower, reverse=True)
        return by_lower[: min(self.k, len(live))]

    def stopped(self, live: Sequence[str], intervals: Intervals, final: bool) -> bool:
        if final or len(live) <= self.k:
            return True
        uppers = sorted((intervals[a].upper for a in live), reverse=True)
        return intervals[self._ranked(live, intervals)[-1]].lower >= uppers[self.k]

    def _guarantee(self, answer: list[Interval], reason: str) -> GuaranteeStatus | None:
        # Truncated, the ranking is still a valid best-effort answer.
        return None if reason == "converged" else super()._guarantee(answer, reason)


class _FilterRule(StoppingRule[FilterResult]):
    """Filter rules: stop once nothing is undecided; nothing is pruned."""

    kind = "filter"
    k = None
    threshold: float

    def stopped(self, live: Sequence[str], intervals: Intervals, final: bool) -> bool:
        return not live

    def _guarantee(
        self, undecided: tuple[str, ...], intervals: Intervals, reason: str
    ) -> GuaranteeStatus | None:
        achieved = self.epsilon
        if undecided and self.threshold > 0.0:
            # The smallest ε' whose width rule (width < 2ε'η) would have
            # decided every remaining attribute at its final interval.
            worst = max(intervals[a].width for a in undecided)
            achieved = max(self.epsilon, worst / (2.0 * self.threshold))
        elif undecided:  # pragma: no cover - η = 0 decides everything at once
            achieved = float("inf")
        return GuaranteeStatus(
            guarantee_met=reason == "converged",
            stopping_reason=reason,
            requested_epsilon=self.epsilon,
            achieved_epsilon=achieved,
            undecided=undecided,
        )

    def conclude(
        self, live: Sequence[str], intervals: Intervals, included: list[str],
        retired: dict[str, AttributeEstimate], reason: str, stats: RunStats,
        target: str | None,
    ) -> FilterResult:
        # Only a truncated run leaves attributes undecided (at M = N every
        # width is 0): resolve them best-effort by midpoint, keeping the
        # still valid current interval.
        answer = list(included)
        for attribute in live:
            iv = intervals[attribute]
            if iv.midpoint >= self.threshold:
                answer.append(attribute)
            retired[attribute] = _estimate_from_interval(
                attribute, iv, stats.final_sample_size
            )
        answer.sort(key=lambda a: retired[a].estimate, reverse=True)
        return FilterResult(
            attributes=answer,
            estimates=retired,
            stats=stats,
            threshold=self.threshold,
            target=target,
            guarantee=self._guarantee(tuple(live), intervals, reason),
        )


@dataclass(frozen=True)
class SwopeFilter(_FilterRule):
    """Definition 6 (Algorithms 2 and 4). Each undecided attribute, in the
    paper's order: (1) width ``< 2εη`` decides by midpoint ``>= η``;
    (2) else lower ``>= (1 - ε)η`` includes; (3) else upper
    ``< (1 + ε)η`` excludes."""

    threshold: float
    epsilon: float

    def retire(
        self, live: Sequence[str], intervals: Intervals, final: bool
    ) -> list[tuple[str, bool]]:
        eta, eps = self.threshold, self.epsilon
        decided: list[tuple[str, bool]] = []
        for attribute in live:
            iv = intervals[attribute]
            if iv.width < 2.0 * eps * eta:
                decided.append((attribute, iv.midpoint >= eta))
            elif iv.lower >= (1.0 - eps) * eta:
                decided.append((attribute, True))
            elif iv.upper < (1.0 + eps) * eta:
                decided.append((attribute, False))
        return decided


@dataclass(frozen=True)
class ExactFilter(_FilterRule):
    """EntropyFilter [32]: include once ``lower > η``, exclude once
    ``upper < η``. A score equal to ``η`` satisfies neither, so at
    ``M = N`` (exact bounds) the rest are decided by ``estimate >= η`` —
    the exact answer's closed threshold."""

    threshold: float
    epsilon = 0.0

    def retire(
        self, live: Sequence[str], intervals: Intervals, final: bool
    ) -> list[tuple[str, bool]]:
        eta = self.threshold
        decided: list[tuple[str, bool]] = []
        for attribute in live:
            iv = intervals[attribute]
            if iv.lower > eta:
                decided.append((attribute, True))
            elif iv.upper < eta:
                decided.append((attribute, False))
            elif final:
                decided.append((attribute, iv.estimate >= eta))
        return decided

    def _guarantee(
        self, undecided: tuple[str, ...], intervals: Intervals, reason: str
    ) -> GuaranteeStatus | None:
        if reason == "converged":
            return None  # exactness needs no certificate
        return super()._guarantee(undecided, intervals, reason)


#: What a converged exact rule reports to the trace and the metrics.
_EXACT = GuaranteeStatus(
    guarantee_met=True,
    stopping_reason="converged",
    requested_epsilon=0.0,
    achieved_epsilon=0.0,
)

_QUERY_NOUNS = {"top_k": "top-k", "filter": "filtering"}


# ----------------------------------------------------------------------
# The adaptive loop
# ----------------------------------------------------------------------
def run_adaptive(
    rule: StoppingRule[_R],
    provider: ScoreProvider,
    sampler: _Meter,
    candidates: Sequence[str],
    schedule: _Schedule,
    *,
    target: str | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointHook | None = None,
    resume_state: LoopCheckpoint | None = None,
) -> _R:
    """Run one adaptive query to its stopping ``rule``.

    Each iteration computes the live attributes' intervals at the next
    schedule size, lets the rule retire attributes, tests the rule, and
    — unless it is satisfied, the schedule is exhausted, or the budget /
    cancellation checkpoint fires — lets the rule prune before growing
    the sample.

    Parameters
    ----------
    rule:
        The stopping rule: :class:`SwopeTopK`, :class:`SwopeFilter`,
        :class:`ExactTopK`, or :class:`ExactFilter`.
    provider:
        Score implementation (entropy or MI).
    sampler:
        The prefix sampler over the queried store (also the cost meter).
    candidates:
        Candidate attribute names (for MI: all attributes except the
        target).
    schedule:
        Sample-size growth schedule.
    target:
        Recorded on the result for MI queries.
    budget:
        Optional :class:`~repro.core.budget.QueryBudget` checked once
        per iteration; on exhaustion the loop returns a best-effort
        answer built from the current intervals (still valid Lemma 3
        bounds) with ``result.guarantee`` recording why it stopped.
    cancellation:
        Optional :class:`~repro.core.budget.CancellationToken` observed
        at the same per-iteration checkpoint.
    strict:
        Raise :class:`~repro.exceptions.BudgetExceededError` /
        :class:`~repro.exceptions.QueryCancelledError` (carrying the
        best-effort result as ``.partial``) instead of returning a
        degraded answer.
    trace:
        Any :class:`~repro.obs.sinks.TraceSink` (a :class:`QueryTrace`
        keeps just the iterations), which receives the structured event
        stream (``query_start``, ``iteration``, ``prune``,
        ``budget_degradation``, ``query_end``) — including for degraded
        and strict-raised runs. ``None`` or a disabled sink costs
        nothing.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the run's
        accounting feeds the standard instruments via
        :func:`repro.obs.metrics.record_query`.
    checkpoint:
        Optional hook called once per iteration boundary (after pruning,
        only when the loop will continue) with the
        :class:`LoopCheckpoint` a resumed loop needs; the plan executor
        persists it via :mod:`repro.durability.checkpoint`.
    resume_state:
        A previously captured :class:`LoopCheckpoint` to restart from:
        the loop skips the already-completed iterations (their counters
        live in the shared sampler) and emits no ``query_start`` event —
        the interrupted run already emitted it.
    """
    if not candidates:
        raise ParameterError(
            f"{_QUERY_NOUNS[rule.kind]} query needs at least one candidate"
            " attribute"
        )
    resume_state = _resume_state_for(resume_state, rule.kind, schedule)
    started = time.perf_counter()
    cells_at_start, saved_at_start = sampler.cells_scanned, sampler.cells_saved
    counting_at_start, bounds_at_start = provider.timings.snapshot()
    stats = RunStats()
    score = "entropy" if provider.bounds_per_attribute == 1 else "mutual_information"
    tracer = _TraceState(trace)
    if tracer.active and resume_state is None:
        tracer.emit(
            QueryStartEvent(
                kind=rule.kind,
                score=score,
                candidates=tuple(candidates),
                population_size=sampler.num_rows,
                epsilon=rule.epsilon,
                k=rule.k,
                threshold=rule.threshold,
                target=target,
                schedule=tuple(schedule.sizes),
            )
        )
    state = resume_state or LoopCheckpoint(rule.kind, 0, 0, tuple(candidates))
    live, included = list(state.live), list(state.included)
    retired = {e.attribute: e for e in state.estimates}
    iterations, start_index = state.iterations, state.next_index
    stats.candidates_pruned = state.pruned
    last_index = len(schedule.sizes) - 1
    reason = "converged"
    sample_size = schedule.sizes[start_index]
    intervals: Intervals = {}
    for index in range(start_index, len(schedule.sizes)):
        sample_size = schedule.sizes[index]
        final = index == last_index
        iterations += 1
        intervals = provider.intervals(live, sample_size)
        decided = rule.retire(live, intervals, final)
        for attribute, include in decided:
            if include:
                included.append(attribute)
            retired[attribute] = _estimate_from_interval(
                attribute, intervals[attribute], sample_size
            )
            sampler.release(attribute)
        alive = live
        if decided:
            done = {attribute for attribute, _ in decided}
            live = [a for a in live if a not in done]
        stopped = rule.stopped(live, intervals, final)
        if tracer.active:
            tracer.emit(
                IterationEvent(
                    index=index,
                    sample_size=sample_size,
                    candidates=tuple(alive),
                    bounds={a: (iv.lower, iv.upper) for a, iv in intervals.items()},
                    decided=tuple(attribute for attribute, _ in decided),
                    stopped=stopped,
                )
            )
        if stopped or final:
            break
        # Between one sample size and the next, so every query holds
        # valid intervals to answer from. The cell budget is this
        # query's own reads, so a shared sampler is budgeted per query.
        interrupted = check_interruption(
            budget,
            cancellation,
            elapsed_seconds=time.perf_counter() - started,
            cells_used=sampler.cells_scanned - cells_at_start,
            next_sample_size=schedule.sizes[index + 1],
        )
        if interrupted is not None:
            reason = interrupted
            if tracer.active:
                tracer.emit(
                    BudgetDegradationEvent(sample_size=sample_size, reason=reason)
                )
            break
        gone = rule.pruned(live, intervals)
        if gone:
            for attribute in gone:
                stats.candidates_pruned += 1
                sampler.release(attribute)
            dropped = set(gone)
            live = [a for a in live if a not in dropped]
            if tracer.active:
                tracer.emit(
                    PruneEvent(
                        sample_size=sample_size,
                        pruned=tuple(gone),
                        survivors=len(live),
                    )
                )
        if checkpoint is not None:
            checkpoint(
                LoopCheckpoint(
                    kind=rule.kind,
                    next_index=index + 1,
                    iterations=iterations,
                    live=tuple(live),
                    pruned=stats.candidates_pruned,
                    included=tuple(included),
                    estimates=tuple(retired.values()),
                )
            )
    stats.iterations = iterations
    stats.final_sample_size = sample_size
    stats.population_size = sampler.num_rows
    stats.cells_scanned = sampler.cells_scanned
    # Unlike the cumulative cells meter, saved cells are this query's own
    # delta — that is what cache metrics sum up.
    stats.cells_saved = sampler.cells_saved - saved_at_start
    stats.wall_seconds = time.perf_counter() - started
    stats.counting_seconds = provider.timings.counting_seconds - counting_at_start
    stats.bounds_seconds = provider.timings.bounds_seconds - bounds_at_start
    result = rule.conclude(live, intervals, included, retired, reason, stats, target)
    status = result.guarantee if result.guarantee is not None else _EXACT
    if tracer.active:
        tracer.emit(
            QueryEndEvent(
                stopping_reason=status.stopping_reason,
                guarantee_met=status.guarantee_met,
                requested_epsilon=status.requested_epsilon,
                achieved_epsilon=status.achieved_epsilon,
                iterations=iterations,
                final_sample_size=sample_size,
                cells_scanned=sampler.cells_scanned,
                answer=tuple(result.attributes),
                undecided=status.undecided,
            )
        )
    stats.trace_event_count = tracer.events
    if metrics is not None:
        record_query(
            metrics,
            kind=rule.kind,
            score=score,
            stats=stats,
            guarantee=status,
        )
    if strict and not status.guarantee_met:
        raise_interrupted(reason, result)
    return result


def adaptive_top_k(
    provider: ScoreProvider,
    sampler: PrefixSampler,
    candidates: list[str],
    k: int,
    epsilon: float,
    schedule: SampleSchedule,
    *,
    prune: bool = True,
    target: str | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointHook | None = None,
    resume_state: LoopCheckpoint | None = None,
) -> TopKResult:
    """SWOPE approximate top-k (Algorithms 1 and 3, :class:`SwopeTopK`).

    ``k`` is clamped to ``len(candidates)``; ``epsilon`` is the
    relative-error parameter of Definition 5; ``prune`` applies the
    candidate-pruning step (the ablation benches switch it off). The
    other arguments are :func:`run_adaptive`'s.
    """
    epsilon = validate_epsilon(epsilon)
    rule = SwopeTopK(validate_k(k), epsilon, prune)
    return run_adaptive(
        rule, provider, sampler, candidates, schedule,
        target=target, trace=trace, budget=budget, cancellation=cancellation,
        strict=strict, metrics=metrics, checkpoint=checkpoint,
        resume_state=resume_state,
    )


def adaptive_filter(
    provider: ScoreProvider,
    sampler: PrefixSampler,
    candidates: list[str],
    threshold: float,
    epsilon: float,
    schedule: SampleSchedule,
    *,
    target: str | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointHook | None = None,
    resume_state: LoopCheckpoint | None = None,
) -> FilterResult:
    """SWOPE approximate filtering (Algorithms 2 and 4, :class:`SwopeFilter`).

    A truncated run resolves the still-undecided attributes best-effort
    by interval midpoint and lists them in ``result.guarantee.undecided``;
    a filter checkpoint carries the already-included attributes and
    retired estimates, in decision order, so a resumed run's final
    ordering is bit-identical. The other arguments are
    :func:`run_adaptive`'s.
    """
    epsilon = validate_epsilon(epsilon)
    rule = SwopeFilter(validate_threshold(threshold), epsilon)
    return run_adaptive(
        rule, provider, sampler, candidates, schedule,
        target=target, trace=trace, budget=budget, cancellation=cancellation,
        strict=strict, metrics=metrics, checkpoint=checkpoint,
        resume_state=resume_state,
    )
