"""Property test: the sampler's counters against a plain-bincount reference.

The sampler reads each block once, in ascending row order, counts dense
pairs through ``CountingBackend.count_pairs`` in narrow codes, and serves
marginal extensions from the margins of joint block tables. None of that
may change a counter or the cost meters. This suite drives a
:class:`~repro.data.sampling.PrefixSampler` through random prefix
schedules and call orders and compares every counter, ``cells_scanned``
and ``cells_saved`` against :class:`Reference`, which recounts each
prefix from scratch with ``np.bincount`` over
``default_rng(seed).permutation(N)[:M]`` and imports nothing from
``repro.data``.

Supports cover the code-width boundaries: ``7 · 4681 = 32767`` (the
largest int16 product), ``8 · 4096 = 32768`` and ``3 · 10923 = 32769``
(int32 codes), and a sparse pair ``1001 · 1000`` above the dense limit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.backends import ProcessBackend
from repro.data.column_store import ColumnStore
from repro.data.joint import DENSE_LIMIT, JointCounter
from repro.data.sampling import PrefixSampler

NUM_ROWS = 300
SUPPORTS = {
    "a": 7,
    "b": 8,
    "c": 4681,
    "d": 4096,
    "e": 1001,
    "f": 1000,
    "g": 3,
    "h": 10923,
}
NAMES = tuple(SUPPORTS)
#: How one schedule step touches the sampler.
STEPS = (
    "joints_then_marginals",
    "marginals_then_joints",
    "joints_only",
    "marginals_only",
    "joints_release_marginals",
)


def make_columns(seed: int) -> dict[str, np.ndarray]:
    """Random codes with a fifth of each column at its largest value."""
    rng = np.random.default_rng(seed)
    columns = {}
    for name, support in SUPPORTS.items():
        column = rng.integers(0, support, size=NUM_ROWS)
        column[rng.random(NUM_ROWS) < 0.2] = support - 1
        columns[name] = column
    return columns


def canonical(first: str, second: str) -> tuple[str, str]:
    return (first, second) if first <= second else (second, first)


class Reference:
    """Counters and meters recomputed from scratch for every prefix."""

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        seed: int,
        sequential: bool,
        warm_prefix: int | None,
    ) -> None:
        self.columns = columns
        self.order = (
            np.arange(NUM_ROWS)
            if sequential
            else np.random.default_rng(seed).permutation(NUM_ROWS)
        )
        self.warm_prefix = warm_prefix
        self.marginal_counted: dict[str, int] = {}
        self.joint_counted: dict[tuple[str, str], int] = {}
        self.cells_scanned = 0
        self.cells_saved = 0

    def marginal(self, name: str, num_rows: int) -> np.ndarray:
        rows = self.order[:num_rows]
        return np.bincount(self.columns[name][rows], minlength=SUPPORTS[name])

    def pair_codes(self, key: tuple[str, str], num_rows: int) -> np.ndarray:
        rows = self.order[:num_rows]
        first = self.columns[key[0]][rows].astype(np.int64)
        return first * SUPPORTS[key[1]] + self.columns[key[1]][rows]

    def joint(self, key: tuple[str, str], num_rows: int) -> tuple[np.ndarray, ...]:
        """Sorted distinct codes of the pair over the prefix, and their counts."""
        return np.unique(self.pair_codes(key, num_rows), return_counts=True)

    def _extend(self, counted: int, num_rows: int, cells: int) -> None:
        warm = self.warm_prefix
        if warm is not None and counted < warm <= num_rows:
            self.cells_saved += cells * (warm - counted)
            counted = warm
        self.cells_scanned += cells * (num_rows - counted)

    def count_marginals(self, names: list[str], num_rows: int) -> None:
        for name in dict.fromkeys(names):
            self._extend(self.marginal_counted.get(name, 0), num_rows, 1)
            self.marginal_counted[name] = num_rows

    def count_joints(self, first: str, seconds: list[str], num_rows: int) -> None:
        for second in dict.fromkeys(seconds):
            key = canonical(first, second)
            self._extend(self.joint_counted.get(key, 0), num_rows, 2)
            self.joint_counted[key] = num_rows

    def release(self, name: str) -> None:
        self.marginal_counted.pop(name, None)
        for key in [key for key in self.joint_counted if name in key]:
            del self.joint_counted[key]


class WarmCache:
    """A counter cache holding every counter at one prefix, from the reference."""

    def __init__(self, reference: Reference, prefix: int) -> None:
        self.reference = reference
        self.prefix = prefix

    def best_marginal(self, name, counted, num_rows):
        if not counted < self.prefix <= num_rows:
            return None
        return self.prefix, self.reference.marginal(name, self.prefix)

    def best_joint(self, first, second, counted, num_rows):
        if not counted < self.prefix <= num_rows:
            return None
        product = SUPPORTS[first] * SUPPORTS[second]
        codes, counts = self.reference.joint((first, second), self.prefix)
        state: dict[str, object] = {
            "support_first": SUPPORTS[first],
            "support_second": SUPPORTS[second],
            "total": self.prefix,
        }
        if product <= DENSE_LIMIT:
            dense = np.zeros(product, dtype=np.int64)
            dense[codes] = counts
            state["dense"] = dense
        else:
            state["sparse_codes"] = codes
            state["sparse_counts"] = counts
        return self.prefix, JointCounter.from_snapshot(state)


def counter_codes(counter: JointCounter) -> tuple[np.ndarray, np.ndarray]:
    """Sorted nonzero codes of a sampler counter, and their counts."""
    state = counter.snapshot()
    if "dense" in state:
        dense = np.asarray(state["dense"])
        codes = np.flatnonzero(dense)
        return codes, dense[codes]
    codes = np.asarray(state["sparse_codes"])
    counts = np.asarray(state["sparse_counts"])
    order = np.argsort(codes)
    return codes[order], counts[order]


@pytest.fixture(scope="module")
def pooled_backend():
    backend = ProcessBackend(max_workers=2, min_parallel_cells=0)
    yield backend
    backend.close()


schedules = st.lists(
    st.tuples(st.integers(1, NUM_ROWS), st.sampled_from(STEPS)),
    min_size=1,
    max_size=5,
).map(lambda steps: sorted(steps, key=lambda step: step[0]))


@pytest.mark.parametrize("backend_kind", ["configured", "pooled"])
@settings(max_examples=40, deadline=None)
@given(
    data_seed=st.integers(0, 2**16),
    shuffle_seed=st.integers(0, 2**16),
    first=st.sampled_from(NAMES),
    seconds=st.lists(st.sampled_from(NAMES), min_size=1, max_size=5),
    schedule=schedules,
    sequential=st.booleans(),
    warm_prefix=st.one_of(st.none(), st.integers(1, NUM_ROWS)),
)
@example(  # 32767 (int16) and, transposed, 32768 (int32) and a sparse pair
    data_seed=1, shuffle_seed=2, first="a", seconds=["c", "b", "e"],
    schedule=[(40, "joints_then_marginals"), (300, "joints_release_marginals")],
    sequential=False, warm_prefix=None,
)
@example(
    data_seed=3, shuffle_seed=4, first="d", seconds=["b", "a", "g"],
    schedule=[(10, "marginals_then_joints"), (90, "joints_only"),
              (200, "joints_then_marginals")],
    sequential=False, warm_prefix=None,
)
@example(  # 32769 and the sparse pair, warm-started at another prefix
    data_seed=5, shuffle_seed=6, first="g", seconds=["h", "b"],
    schedule=[(20, "joints_then_marginals"), (150, "joints_then_marginals")],
    sequential=False, warm_prefix=70,
)
@example(
    data_seed=7, shuffle_seed=8, first="e", seconds=["f", "a"],
    schedule=[(100, "joints_then_marginals"), (250, "marginals_only"),
              (300, "joints_then_marginals")],
    sequential=True, warm_prefix=120,
)
def test_counters_and_meters_match_bincount_reference(
    request,
    backend_kind,
    data_seed,
    shuffle_seed,
    first,
    seconds,
    schedule,
    sequential,
    warm_prefix,
):
    seconds = [name for name in seconds if name != first] or [
        next(name for name in NAMES if name != first)
    ]
    columns = make_columns(data_seed)
    backend = (
        request.getfixturevalue("pooled_backend")
        if backend_kind == "pooled"
        else None
    )
    sampler = PrefixSampler(
        ColumnStore(columns, SUPPORTS),
        seed=shuffle_seed,
        sequential=sequential,
        backend=backend,
    )
    reference = Reference(columns, shuffle_seed, sequential, warm_prefix)
    if warm_prefix is not None:
        sampler.attach_counter_cache(WarmCache(reference, warm_prefix))
    marginal_names = [first, *seconds]
    released = seconds[-1]

    def joints(num_rows: int) -> None:
        got = sampler.joint_counts_batch(first, seconds, num_rows)
        reference.count_joints(first, seconds, num_rows)
        assert list(got) == list(dict.fromkeys(seconds))
        for second, counter in got.items():
            key = canonical(first, second)
            assert counter.total == num_rows
            want_codes, want_counts = reference.joint(key, num_rows)
            got_codes, got_counts = counter_codes(counter)
            np.testing.assert_array_equal(got_codes, want_codes)
            np.testing.assert_array_equal(got_counts, want_counts)

    def marginals(num_rows: int) -> None:
        got = sampler.marginal_counts_batch(marginal_names, num_rows)
        reference.count_marginals(marginal_names, num_rows)
        for name, counts in got.items():
            np.testing.assert_array_equal(counts, reference.marginal(name, num_rows))

    def release() -> None:
        sampler.release(released)
        reference.release(released)

    actions = {
        "joints_then_marginals": (joints, marginals),
        "marginals_then_joints": (marginals, joints),
        "joints_only": (joints,),
        "marginals_only": (marginals,),
        "joints_release_marginals": (joints, lambda _rows: release(), marginals),
    }
    for num_rows, step in schedule:
        for action in actions[step]:
            action(num_rows)
            assert sampler.cells_scanned == reference.cells_scanned
            assert sampler.cells_saved == reference.cells_saved
