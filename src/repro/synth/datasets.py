"""Census-like synthetic dataset registry (the paper's Table 2 analogues).

The paper evaluates on four public datasets — cdc-behavioral-risk,
census-american-housing (hus), census-american-population (pus), and enem —
after removing columns with support size above 1000. Those files are not
available offline, so this module builds deterministic synthetic analogues
that match each dataset's *column count* and reproduce, at a row count
scaled to a single-core machine, the statistical features the algorithms
are sensitive to:

* **entropy anchors** — columns whose entropy sits just above/below each
  filter threshold the paper sweeps (0.5–3.0 bits), both at a hair's
  distance (hard for the exact EntropyFilter) and at a comfortable margin;
* **top twins** — clusters of high-support columns whose entropies differ
  by a few thousandths of a bit around every top-k boundary the paper
  evaluates (k ∈ {1, 2, 4, 8, 10}); the tiny gap Δ is what makes the exact
  EntropyRank expensive and is common in real census extracts (many
  near-duplicate coding columns);
* **MI groups** — a designated target column plus noisy copies whose
  population mutual information is dialled (via
  :func:`repro.synth.correlation.retention_for_mi`) to put small gaps at
  the MI top-k boundaries and to straddle the MI filter thresholds
  (0.1–0.5 bits);
* **filler** — bulk columns with random supports and entropies.

Row counts are scaled versus the paper (see ``DatasetPlan.paper_rows``);
EXPERIMENTS.md discusses how that scaling affects measured speedup factors.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError
from repro.synth.correlation import noisy_copy, retention_for_mi
from repro.synth.distributions import (
    probabilities_with_entropy,
    sample_categorical,
)

__all__ = [
    "ColumnPlan",
    "DatasetPlan",
    "SyntheticDataset",
    "DATASETS",
    "build_plan",
    "generate",
    "load_dataset",
    "dataset_summary",
]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnPlan:
    """How one synthetic column is generated.

    ``kind`` is one of ``"anchor"``, ``"twin"``, ``"mi_base"``,
    ``"mi_member"``, ``"filler"``. Marginal columns carry a
    ``target_entropy``; MI members instead carry the ``base`` column name
    and the ``retention`` of the noisy-copy channel (derived from
    ``target_mi`` at plan-build time).
    """

    name: str
    support_size: int
    kind: str
    target_entropy: float | None = None
    base: str | None = None
    retention: float | None = None
    target_mi: float | None = None


@dataclass(frozen=True)
class DatasetPlan:
    """Full recipe of one synthetic dataset."""

    key: str
    title: str
    num_rows: int
    paper_rows: int
    paper_columns: int
    seed: int
    columns: tuple[ColumnPlan, ...]
    mi_targets: tuple[str, ...]

    @property
    def num_columns(self) -> int:
        return len(self.columns)


@dataclass
class SyntheticDataset:
    """A generated dataset plus its recipe.

    Attributes
    ----------
    store:
        The encoded columnar data.
    plan:
        The generating plan (population-level entropy/MI targets per
        column; the empirical values on the finite sample deviate by
        sampling noise — ground truth for experiments is always computed
        on the realised data, never on the plan).
    mi_targets:
        Suggested target attributes for mutual-information queries (the
        MI group bases, whose MI landscape against the other columns is
        engineered — see the module docstring).
    """

    store: ColumnStore
    plan: DatasetPlan
    mi_targets: tuple[str, ...]

    def random_targets(self, count: int, seed: int = 0) -> tuple[str, ...]:
        """``count`` arbitrary columns to use as MI targets.

        The paper picks 20 random target columns per dataset. On these
        analogues, correlation is concentrated in the engineered MI
        groups, so a random target mostly sees a near-zero MI landscape
        — statistically valid, but it exercises the degenerate regime
        where every algorithm must sample close to N (Theorem 5 with
        I(α*_k) → 0). The experiment harness therefore defaults to the
        engineered targets and exposes this as ``target_mode="random"``.
        """
        if not 1 <= count <= self.store.num_attributes:
            raise ParameterError(
                f"count must be in [1, {self.store.num_attributes}], got {count}"
            )
        rng = np.random.default_rng(seed)
        picks = rng.choice(
            self.store.num_attributes, size=count, replace=False
        )
        names = self.store.attributes
        return tuple(names[i] for i in sorted(picks.tolist()))


# Twin clusters: gaps of 0.15 bits at every top-k boundary the paper
# sweeps (k = 1, 2, 4, 8, 10). The gap size is calibrated for the scaled
# row counts: small enough that the exact EntropyRank stopping rule
# (2λ + b ≤ Δ) cannot fire until the sample nearly exhausts the dataset,
# yet several times the realised estimator noise at SWOPE's much earlier
# stopping point (2λ + b ≤ ε·H̄_k ≈ 0.9 bits), so SWOPE still ranks the
# twins correctly. The entropies sit near the top of the u = 1000/800
# range, where the plug-in estimator's variance is lowest.
_TOP_TWIN_ENTROPIES_A = (9.30, 9.15, 9.00, 8.85, 8.70, 8.55)
_TOP_TWIN_ENTROPIES_B = (8.40, 8.25, 8.10, 7.95, 7.80)

# Ranked MI members: 0.1-bit gaps at the same k boundaries (same
# calibration logic: exact stopping needs 6λ + b' ≤ Δ = 0.1, forcing the
# sample to ~N; SWOPE stops at 6λ + b' ≤ ε·Ī_k ≈ 1.2 bits), and values
# large enough that SWOPE's relative stopping rule fires well before the
# sample exhausts the dataset (Theorem 5: cost ~ 1/I(α*_k)²).
_MI_RANKED = (
    4.50, 4.40, 4.30,
    3.90, 3.80,
    3.30, 3.00,
    2.70, 2.60,
    2.40, 2.30,
    1.90, 1.70, 1.50,
)
# Band members straddling the MI filter thresholds {0.1, ..., 0.5}.
_MI_BAND = (0.05, 0.08, 0.11, 0.15, 0.20, 0.28, 0.35, 0.45, 0.55)

# Entropy anchors per filter threshold: two at a hair's distance (the
# exact EntropyFilter must resolve these to the bitter end) and two at a
# comfortable margin.
_ANCHOR_THRESHOLDS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_ANCHOR_OFFSETS = (-0.015, 0.015, -0.25, 0.25)

_MI_BASE_SUPPORT = 64
_MI_BASE_ENTROPY = 5.8


def _mi_group_columns(group_index: int, rng: np.random.Generator) -> list[ColumnPlan]:
    """One MI group: a base column and its ranked + band noisy copies."""
    base_name = f"mi_base_{group_index:02d}"
    base_probs = probabilities_with_entropy(_MI_BASE_SUPPORT, _MI_BASE_ENTROPY)
    columns = [
        ColumnPlan(
            name=base_name,
            support_size=_MI_BASE_SUPPORT,
            kind="mi_base",
            target_entropy=_MI_BASE_ENTROPY,
        )
    ]
    for rank, target_mi in enumerate([*_MI_RANKED, *_MI_BAND]):
        retention = retention_for_mi(base_probs, target_mi)
        columns.append(
            ColumnPlan(
                name=f"mi_m_{group_index:02d}_{rank:02d}",
                support_size=_MI_BASE_SUPPORT,
                kind="mi_member",
                base=base_name,
                retention=retention,
                target_mi=target_mi,
            )
        )
    return columns


def build_plan(
    key: str,
    title: str,
    num_rows: int,
    num_columns: int,
    paper_rows: int,
    paper_columns: int,
    seed: int,
    *,
    mi_groups: int = 2,
) -> DatasetPlan:
    """Construct a dataset plan with the engineered column mix.

    The fixed structural columns (anchors, twins, MI groups) are laid out
    first; the remaining budget becomes filler columns with seeded random
    supports and entropies. ``num_columns`` must leave room for the
    structural columns.
    """
    rng = np.random.default_rng(seed)
    columns: list[ColumnPlan] = []
    for t_index, threshold in enumerate(_ANCHOR_THRESHOLDS):
        for o_index, offset in enumerate(_ANCHOR_OFFSETS):
            target = max(0.05, threshold + offset)
            support = int(rng.integers(12, 49))
            columns.append(
                ColumnPlan(
                    name=f"ent_anchor_{t_index}{o_index}",
                    support_size=support,
                    kind="anchor",
                    target_entropy=target,
                )
            )
    for index, entropy in enumerate(_TOP_TWIN_ENTROPIES_A):
        columns.append(
            ColumnPlan(
                name=f"top_twin_a_{index:02d}",
                support_size=1000,
                kind="twin",
                target_entropy=entropy,
            )
        )
    for index, entropy in enumerate(_TOP_TWIN_ENTROPIES_B):
        columns.append(
            ColumnPlan(
                name=f"top_twin_b_{index:02d}",
                support_size=800,
                kind="twin",
                target_entropy=entropy,
            )
        )
    mi_targets: list[str] = []
    for group_index in range(mi_groups):
        group = _mi_group_columns(group_index, rng)
        mi_targets.append(group[0].name)
        columns.extend(group)
    if len(columns) > num_columns:
        raise ParameterError(
            f"dataset {key!r}: {num_columns} columns cannot hold the"
            f" {len(columns)} structural columns ({mi_groups} MI groups)"
        )
    filler_needed = num_columns - len(columns)
    for index in range(filler_needed):
        support = int(rng.integers(2, 201))
        max_entropy = float(np.log2(support))
        target = float(rng.uniform(0.2, 0.95)) * max_entropy
        columns.append(
            ColumnPlan(
                name=f"filler_{index:03d}",
                support_size=support,
                kind="filler",
                target_entropy=target,
            )
        )
    return DatasetPlan(
        key=key,
        title=title,
        num_rows=num_rows,
        paper_rows=paper_rows,
        paper_columns=paper_columns,
        seed=seed,
        columns=tuple(columns),
        mi_targets=tuple(mi_targets),
    )


# ----------------------------------------------------------------------
# Registry: the four Table 2 analogues
# ----------------------------------------------------------------------
class _PlanRegistry(Mapping[str, DatasetPlan]):
    """A read-only mapping whose keys are fixed and whose plans are
    built on first lookup.

    Building a plan draws its column mix, which takes tens of
    milliseconds; a process that lists the keys (the CLI's ``choices``)
    or uses one dataset builds no other plan.
    """

    def __init__(self, recipes: dict[str, Callable[[], DatasetPlan]]) -> None:
        self._recipes = recipes
        self._plans: dict[str, DatasetPlan] = {}

    def __getitem__(self, key: str) -> DatasetPlan:
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._recipes[key]()
        return plan

    def __contains__(self, key: object) -> bool:
        return key in self._recipes

    def __iter__(self) -> Iterator[str]:
        return iter(self._recipes)

    def __len__(self) -> int:
        return len(self._recipes)


DATASETS: Mapping[str, DatasetPlan] = _PlanRegistry(
    {
        "cdc": partial(
            build_plan, "cdc", "cdc-behavioral-risk (synthetic analogue)",
            num_rows=300_000, num_columns=100,
            paper_rows=3_753_802, paper_columns=100, seed=1101, mi_groups=2,
        ),
        "hus": partial(
            build_plan, "hus", "census-american-housing (synthetic analogue)",
            num_rows=400_000, num_columns=107,
            paper_rows=14_768_919, paper_columns=107, seed=1102, mi_groups=2,
        ),
        "pus": partial(
            build_plan, "pus", "census-american-population (synthetic analogue)",
            num_rows=500_000, num_columns=179,
            paper_rows=31_290_943, paper_columns=179, seed=1103, mi_groups=3,
        ),
        "enem": partial(
            build_plan, "enem", "enem (synthetic analogue)",
            num_rows=500_000, num_columns=117,
            paper_rows=33_714_152, paper_columns=117, seed=1104, mi_groups=2,
        ),
    }
)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate(plan: DatasetPlan, *, scale: float = 1.0) -> SyntheticDataset:
    """Materialise a plan into a :class:`SyntheticDataset`.

    Parameters
    ----------
    plan:
        The dataset recipe.
    scale:
        Row-count multiplier (``0.1`` for a quick run, ``1.0`` default).
        The number of rows is floored at 1000 so bound formulas stay in a
        sane regime.
    """
    if scale <= 0:
        raise ParameterError(f"scale must be > 0, got {scale}")
    num_rows = max(1000, int(round(plan.num_rows * scale)))
    rng = np.random.default_rng(plan.seed)
    columns: dict[str, np.ndarray] = {}
    supports: dict[str, int] = {}
    for column in plan.columns:
        if column.kind == "mi_member":
            assert column.base is not None and column.retention is not None
            base_values = columns[column.base]
            values = noisy_copy(rng, base_values, column.support_size, column.retention)
        else:
            assert column.target_entropy is not None
            probs = probabilities_with_entropy(
                column.support_size, column.target_entropy
            )
            values = sample_categorical(rng, probs, num_rows)
        columns[column.name] = values
        supports[column.name] = column.support_size
    store = ColumnStore(columns, support_sizes=supports)
    return SyntheticDataset(store=store, plan=plan, mi_targets=plan.mi_targets)


_GENERATED_CACHE: dict[tuple[str, float], SyntheticDataset] = {}


def load_dataset(key: str, *, scale: float = 1.0, cached: bool = True) -> SyntheticDataset:
    """Load (and memoise) one of the registry datasets.

    Parameters
    ----------
    key:
        One of ``"cdc"``, ``"hus"``, ``"pus"``, ``"enem"``.
    scale:
        Row-count multiplier passed to :func:`generate`.
    cached:
        Keep the generated dataset in an in-process cache so repeated
        experiment/benchmark calls do not regenerate it.
    """
    if key not in DATASETS:
        raise ParameterError(
            f"unknown dataset {key!r}; available: {sorted(DATASETS)}"
        )
    cache_key = (key, float(scale))
    if cached and cache_key in _GENERATED_CACHE:
        return _GENERATED_CACHE[cache_key]
    dataset = generate(DATASETS[key], scale=scale)
    if cached:
        _GENERATED_CACHE[cache_key] = dataset
    return dataset


def dataset_summary(keys: Iterable[str] | None = None, *, scale: float = 1.0) -> list[dict[str, object]]:
    """Rows of the Table 2 analogue: per-dataset shapes, ours vs. paper.

    Purely plan-based (no generation), except row counts are scaled the
    same way :func:`generate` scales them.
    """
    rows = []
    for key in keys if keys is not None else sorted(DATASETS):
        plan = DATASETS[key]
        rows.append(
            {
                "dataset": key,
                "title": plan.title,
                "rows": max(1000, int(round(plan.num_rows * scale))),
                "columns": plan.num_columns,
                "paper_rows": plan.paper_rows,
                "paper_columns": plan.paper_columns,
                "mi_targets": len(plan.mi_targets),
            }
        )
    return rows
