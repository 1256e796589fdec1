"""The lazily drawn shuffle, its seed-derived identity, and store hashing.

Three properties keep a cache hit free of O(N) work:

* laziness — ``PrefixSampler`` draws its permutation on the first read
  that needs rows, so a plan served entirely from the plan cache never
  calls ``Generator.permutation``; int and ``None`` seeds still give
  exactly ``default_rng(seed).permutation(N)``, and a caller's
  ``Generator`` is consumed at construction as before;
* identity — ``shuffle_fingerprint()`` hashes the bit generator's type
  and pre-draw state, ``N`` and the numpy version, so it is O(1); it is
  stored in checkpoints so a resumed run binds the same cache partition;
* hashing once — ``ColumnStore.fingerprint()`` is memoized, so executors
  sharing a store hash it once.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import partition_filename
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data import column_store, sampling
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.durability.checkpoint import load_checkpoint
from repro.exceptions import CheckpointMismatchError
from repro.testing.chaos import (
    BoundaryFaultToken,
    ChaosPlan,
    SimulatedKillError,
    count_iteration_boundaries,
    plan_fingerprint,
)

SEED = 5
BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def _store(num_rows: int = 800) -> ColumnStore:
    rng = np.random.default_rng(3)
    target = rng.integers(0, 4, num_rows)
    return ColumnStore(
        {
            "target": target,
            "copy": np.where(rng.random(num_rows) < 0.7, target, 0),
            "wide": rng.integers(0, 12, num_rows),
            "narrow": rng.integers(0, 2, num_rows),
        }
    )


def _specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=2),
        QuerySpec(kind="top_k", score="mutual_information", k=1, target="target"),
    ]


class _CountingGenerator(np.random.Generator):
    """A ``Generator`` that counts its ``permutation`` draws."""

    draws = 0

    def permutation(self, x, axis=0):
        type(self).draws += 1
        return super().permutation(x, axis)


@pytest.fixture
def permutation_draws(monkeypatch):
    """Route ``default_rng`` through :class:`_CountingGenerator`."""
    monkeypatch.setattr(_CountingGenerator, "draws", 0)
    monkeypatch.setattr(
        np.random,
        "default_rng",
        lambda seed=None: _CountingGenerator(np.random.PCG64(seed)),
    )
    return _CountingGenerator


@pytest.fixture
def store_hashes(monkeypatch):
    """Count sha256 digests started by the in-memory store's fingerprint."""
    calls = []

    def sha256(*args):
        calls.append(1)
        return hashlib.sha256(*args)

    monkeypatch.setattr(column_store, "hashlib", SimpleNamespace(sha256=sha256))
    return calls


# ----------------------------------------------------------------------
# Laziness
# ----------------------------------------------------------------------
class TestLazyDraw:
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_int_seed_prefix_is_default_rng_permutation(self, seed):
        store = _store()
        expected = np.random.default_rng(seed).permutation(store.num_rows)
        for size in (1, 37, store.num_rows):
            sampler = PrefixSampler(store, seed=seed)
            np.testing.assert_array_equal(
                sampler.shuffled_prefix(size), expected[:size]
            )

    def test_caller_generator_consumed_at_construction(self):
        store = _store()
        caller = np.random.default_rng(21)
        reference = np.random.default_rng(21)
        sampler = PrefixSampler(store, seed=caller)
        drawn = reference.permutation(store.num_rows)
        assert caller.integers(0, 2**62) == reference.integers(0, 2**62)
        np.testing.assert_array_equal(sampler.shuffled_prefix(50), drawn[:50])

    def test_construction_and_identity_do_not_draw(self, permutation_draws):
        sampler = PrefixSampler(_store(), seed=SEED)
        sampler.shuffle_fingerprint()
        sampler.counter_snapshot()
        assert permutation_draws.draws == 0
        sampler.marginal_counts("wide", 10)
        sampler.marginal_counts("wide", 20)
        assert permutation_draws.draws == 1

    def test_checkpoint_snapshot_draws(self, permutation_draws):
        state = PrefixSampler(_store(), seed=SEED).state_snapshot()
        assert permutation_draws.draws == 1
        expected = np.random.PCG64(SEED)
        np.testing.assert_array_equal(
            state["permutation"],
            np.random.Generator(expected).permutation(_store().num_rows),
        )

    def test_cache_hit_skips_shuffle_and_rehash(
        self, tmp_path, permutation_draws, store_hashes
    ):
        store = _store()
        cold = PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
            plan_queries(store, _specs())
        )
        assert permutation_draws.draws == 1
        assert len(store_hashes) == 1
        for _ in range(3):
            warm = PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
                plan_queries(store, _specs())
            )
            assert warm.stats.cells_scanned == 0
            for name, result in warm.results.items():
                assert result.attributes == cold.results[name].attributes
        assert permutation_draws.draws == 1  # no warm executor drew
        assert len(store_hashes) == 1  # four executors, one hash


# ----------------------------------------------------------------------
# One shuffle held per process
# ----------------------------------------------------------------------
class TestHeldShuffle:
    def test_two_executors_with_one_seed_draw_once(self, permutation_draws):
        store = _store()
        first = PlanExecutor(store, seed=SEED).execute(plan_queries(store, _specs()))
        second = PlanExecutor(store, seed=SEED).execute(plan_queries(store, _specs()))
        assert permutation_draws.draws == 1
        assert plan_fingerprint(first) == plan_fingerprint(second)
        PlanExecutor(store, seed=SEED + 1).execute(plan_queries(store, _specs()))
        assert permutation_draws.draws == 2

    def test_new_seed_frees_the_held_shuffle_before_drawing(self, monkeypatch):
        store = _store()
        sampler = PrefixSampler(store, seed=SEED)
        held = weakref.ref(sampler.shuffled_prefix(store.num_rows).base)
        del sampler
        assert held() is not None  # still held for the next sampler
        alive_at_draw = []

        class Recording(np.random.Generator):
            def permutation(self, x, axis=0):
                alive_at_draw.append(held() is not None)
                return super().permutation(x, axis)

        monkeypatch.setattr(
            np.random, "default_rng",
            lambda seed=None: Recording(np.random.PCG64(seed)),
        )
        PrefixSampler(store, seed=SEED + 1).shuffled_prefix(10)
        assert alive_at_draw == [False]
        assert held() is None

    def test_a_live_sampler_keeps_its_shuffle(self):
        store = _store()
        first = PrefixSampler(store, seed=SEED)
        rows = first.shuffled_prefix(store.num_rows).copy()
        PrefixSampler(store, seed=SEED + 1).shuffled_prefix(10)
        np.testing.assert_array_equal(first.shuffled_prefix(store.num_rows), rows)

    def test_threads_drawing_two_seeds_hold_at_most_one(self):
        store = _store()
        expected = {
            seed: np.random.default_rng(seed).permutation(store.num_rows)
            for seed in (SEED, SEED + 1)
        }
        wrong: list[int] = []

        def draw(thread: int) -> None:
            for index in range(40):
                seed = SEED + (thread + index) % 2
                rows = PrefixSampler(store, seed=seed).shuffled_prefix(store.num_rows)
                if not np.array_equal(rows, expected[seed]):
                    wrong.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sampling._held_shuffle) == 1

    @pytest.mark.parametrize(
        "options",
        [{"seed": SEED}, {"seed": np.random.default_rng(SEED)}, {"sequential": True}],
        ids=["int_seed", "generator", "sequential"],
    )
    def test_shuffled_prefix_is_read_only(self, options):
        prefix = PrefixSampler(_store(), **options).shuffled_prefix(20)
        assert not prefix.flags.writeable
        with pytest.raises(ValueError):
            prefix[0] = 1


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
def _identity(bit_generator, num_rows: int = 100) -> str:
    sampler = PrefixSampler(_store(num_rows), seed=np.random.Generator(bit_generator))
    return sampler.shuffle_fingerprint()


class TestShuffleIdentity:
    def test_same_seed_same_identity(self):
        store = _store()
        assert (
            PrefixSampler(store, seed=SEED).shuffle_fingerprint()
            == PrefixSampler(store, seed=SEED).shuffle_fingerprint()
        )

    def test_int_seed_matches_equivalent_generator(self):
        store = _store()
        from_int = PrefixSampler(store, seed=SEED).shuffle_fingerprint()
        from_generator = PrefixSampler(
            store, seed=np.random.default_rng(SEED)
        ).shuffle_fingerprint()
        assert from_int == from_generator

    def test_differs_by_state_type_rows_and_numpy(self, monkeypatch):
        base = _identity(np.random.PCG64(1))
        assert _identity(np.random.PCG64(2)) != base  # state
        assert _identity(np.random.PCG64DXSM(1)) != base  # type
        assert _identity(np.random.PCG64(1), num_rows=101) != base  # N
        advanced = np.random.PCG64(1).advance(1)
        assert _identity(advanced) != base  # state, same seed
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert _identity(np.random.PCG64(1)) != base  # numpy version

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_canonical_json_for_every_bit_generator(self, name):
        bit_generator = getattr(np.random, name)(9)
        identity = _identity(bit_generator)
        assert len(identity) == 64
        assert identity == _identity(getattr(np.random, name)(9))
        document = {
            "bit_generator": name,
            "state": json.loads(
                json.dumps(
                    getattr(np.random, name)(9).state,
                    default=lambda value: value.tolist(),
                )
            ),
            "num_rows": 100,
            "numpy": np.__version__,
        }
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert identity == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_identity_is_independent_of_the_draw(self):
        sampler = PrefixSampler(_store(), seed=SEED)
        before = sampler.shuffle_fingerprint()
        sampler.marginal_counts("wide", 100)
        assert sampler.shuffle_fingerprint() == before

    def test_sequential_marker(self):
        assert (
            PrefixSampler(_store(), sequential=True).shuffle_fingerprint()
            == "sequential"
        )


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpointIdentity:
    def test_resume_binds_the_interrupted_partition(self, tmp_path):
        store = _store()
        specs = _specs()
        plan = plan_queries(store, specs)
        boundaries = count_iteration_boundaries(store, specs, seed=SEED)
        cache_dir = tmp_path / "cache"
        path = tmp_path / "plan.ckpt"
        interrupted = PlanExecutor(
            store, seed=SEED, checkpoint_path=path, cache_dir=cache_dir
        )
        with pytest.raises(SimulatedKillError):
            interrupted.execute(
                plan,
                cancellation=BoundaryFaultToken(ChaosPlan.kill_at(boundaries - 1)),
            )
        expected = partition_filename(
            store.fingerprint(), interrupted.sampler.shuffle_fingerprint()
        )

        resumed = PlanExecutor.resume(path, store, cache_dir=cache_dir)
        assert (
            resumed.sampler.shuffle_fingerprint()
            == interrupted.sampler.shuffle_fingerprint()
        )
        outcome = resumed.execute(resumed.resumed_plan())
        assert [p.name for p in cache_dir.glob("part-*.json")] == [expected]
        reference = PlanExecutor(store, seed=SEED).execute(plan)
        assert plan_fingerprint(outcome) == plan_fingerprint(reference)

    def test_checkpoint_records_shuffle_identity(self, tmp_path):
        store = _store()
        path = tmp_path / "plan.ckpt"
        executor = PlanExecutor(store, seed=SEED, checkpoint_path=path)
        executor.execute(plan_queries(store, _specs()))
        sampler_section = load_checkpoint(path, store=store).sampler
        assert sampler_section["shuffle"] == executor.sampler.shuffle_fingerprint()

    def test_v2_checkpoint_refused(self, tmp_path):
        store = _store()
        path = tmp_path / "plan.ckpt"
        PlanExecutor(store, seed=SEED, checkpoint_path=path).execute(
            plan_queries(store, _specs())
        )
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 2
        del envelope["payload"]["sampler"]["shuffle"]
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointMismatchError, match="schema version 2"):
            PlanExecutor.resume(path, store)
