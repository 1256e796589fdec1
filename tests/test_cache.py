"""Tests for the persistent cross-plan cache (``repro.cache``).

Covers the three layers the ISSUE's bit-identity gate cares about:

* the on-disk partition format — roundtrip, plus every degradation path
  (corruption, schema skew, checksum mismatch, foreign partition) must
  fall back to an *empty* partition, never an error;
* executor integration — a cache-warm run produces byte-identical
  answers to the cold run at zero scanned cells, counter blocks
  warm-start fresh queries, and metrics reconcile against RunStats;
* semantic reuse — dominated requests (``k′ <= k``, ``η′ >= η``) are
  served from a stored history bit-identically to a fresh run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.cache.store as cache_store
from repro.cache import (
    CACHE_FORMAT,
    CACHE_SCHEMA_VERSION,
    CachePartition,
    PlanCache,
    partition_filename,
)
from repro.core import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.results import GuaranteeStatus
from repro.durability.checkpoint import result_from_payload, result_to_payload
from repro.exceptions import ParameterError
from repro.obs.metrics import MetricsRegistry
from repro.data.column_store import ColumnStore

SEED = 11


def _store() -> ColumnStore:
    rng = np.random.default_rng(42)
    n = 600
    target = rng.integers(0, 5, n)
    keep = rng.random(n) < 0.7
    return ColumnStore(
        {
            "wide": rng.integers(0, 32, n),
            "medium": rng.integers(0, 8, n),
            "narrow": rng.integers(0, 3, n),
            "target": target,
            "noisy": np.where(keep, target, rng.integers(0, 5, n)),
        }
    )


def _specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1, prune=False),
        QuerySpec(kind="filter", score="entropy", threshold=2.0, epsilon=0.1),
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, epsilon=0.5,
            target="target", prune=False,
        ),
    ]


def _payloads(result) -> list[dict]:
    """Answer payloads with work accounting stripped.

    A served answer legitimately differs from the run that produced it
    in ``cells_scanned``/``cells_saved``/timings — the bit-identity gate
    is about the *answer*: attributes, estimates, bounds, guarantee.
    """
    payloads = []
    for name in result:
        payload = result_to_payload(result[name])
        payload.pop("stats")
        payloads.append(payload)
    return payloads


def _partition_path(store: ColumnStore, directory: Path, seed: int = SEED) -> Path:
    executor = PlanExecutor(store, seed=seed)
    return directory / partition_filename(
        store.fingerprint(), executor.sampler.shuffle_fingerprint()
    )


# ----------------------------------------------------------------------
# Partition store: roundtrip and degradation paths
# ----------------------------------------------------------------------


def test_partition_roundtrip(tmp_path: Path) -> None:
    store = _store()
    cache = PlanCache(tmp_path)
    executor = PlanExecutor(store, seed=SEED, cache=cache)
    cold = executor.execute(plan_queries(store, _specs()))

    path = _partition_path(store, tmp_path)
    assert path.exists()
    document = json.loads(path.read_text())
    assert document["format"] == CACHE_FORMAT
    assert document["schema_version"] == CACHE_SCHEMA_VERSION

    # A fresh cache over the same directory serves every answer back.
    warm_exec = PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path))
    warm = warm_exec.execute(plan_queries(store, _specs()))
    assert _payloads(warm) == _payloads(cold)
    assert warm.stats.cells_scanned == 0


def test_in_memory_cache_flush_is_noop(tmp_path: Path) -> None:
    store = _store()
    cache = PlanCache()
    PlanExecutor(store, seed=SEED, cache=cache).execute(
        plan_queries(store, _specs()[:1])
    )
    cache.flush()  # no directory: nothing written anywhere
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "tamper",
    ["garbage", "wrong_format", "stale_schema", "bad_checksum", "foreign"],
)
def test_defective_partition_degrades_to_cold(tmp_path: Path, tamper: str) -> None:
    store = _store()
    spec = _specs()[0]
    cold_exec = PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path))
    cold = cold_exec.execute(plan_queries(store, [spec]))
    path = _partition_path(store, tmp_path)
    document = json.loads(path.read_text())

    if tamper == "garbage":
        path.write_text("{not json")
    elif tamper == "wrong_format":
        document["format"] = "something-else"
        path.write_text(json.dumps(document))
    elif tamper == "stale_schema":
        document["schema_version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
    elif tamper == "bad_checksum":
        document["payload"]["answers"] = []
        path.write_text(json.dumps(document))  # sha256 now stale
    elif tamper == "foreign":
        document["payload"]["fingerprint"] = "0" * 64
        # Re-seal in the written form so only the partition identity is
        # wrong.
        canonical = json.dumps(
            document["payload"], sort_keys=True, separators=(",", ":")
        )
        document["sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")))

    # The defective file must behave exactly like no cache at all: the
    # run goes cold (scans cells) but still lands on the same answer.
    warm_exec = PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path))
    warm = warm_exec.execute(plan_queries(store, [spec]))
    assert warm.stats.cells_scanned > 0
    assert _payloads(warm) == _payloads(cold)


def test_partition_requires_fingerprints() -> None:
    with pytest.raises(TypeError):
        CachePartition("fp", "shuffle")  # type: ignore[misc]
    with pytest.raises(TypeError):
        PlanCache().partition("fp", "shuffle")  # type: ignore[misc]


def test_executor_rejects_cache_and_cache_dir(tmp_path: Path) -> None:
    with pytest.raises(ParameterError):
        PlanExecutor(_store(), seed=SEED, cache=PlanCache(), cache_dir=tmp_path)


# ----------------------------------------------------------------------
# Envelope: serialized once on flush, verified byte for byte on load
# ----------------------------------------------------------------------

GOLDEN_PARTITION = Path(__file__).parent / "golden" / "cache_partition_v1.json"


def _fixture_store() -> ColumnStore:
    """The store ``golden/cache_partition_v1.json`` was written for.

    Its columns are arithmetic, and the fixture run reads rows in
    sequential order, so the partition's file name and contents do not
    depend on a random generator or the numpy version.
    """
    i = np.arange(240)
    return ColumnStore(
        {
            "a": i % 6,
            "b": (i * 7 + i // 5) % 4,
            "c": (i // 3 + i * i) % 3,
            "t": (i * 5 + i // 7) % 5,
        }
    )


def _fixture_specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=1, epsilon=0.5, prune=False),
        QuerySpec(
            kind="filter", score="mutual_information", threshold=0.05,
            epsilon=0.5, target="t",
        ),
    ]


def _json_dumps_envelope(payload: dict) -> bytes:
    """The envelope as one ``json.dumps`` call over the whole document."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    envelope = {
        "format": CACHE_FORMAT,
        "schema_version": CACHE_SCHEMA_VERSION,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def _absorb(part: CachePartition, name: str, counts: list[int]) -> None:
    part.absorb_sampler_state(
        {
            "marginals": {
                name: {"counted": sum(counts), "counts": np.array(counts)}
            },
            "joints": [],
        }
    )


def _records(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory`` by relative path: a partition's records."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_flush_bytes_equal_json_dumps_envelope(tmp_path: Path) -> None:
    store = _store()
    PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path)).execute(
        plan_queries(store, _specs())
    )
    path = _partition_path(store, tmp_path)
    records = _records(tmp_path)
    # The answers record, the counter record, one history per answer.
    assert len(records) == 2 + len(_specs())
    counters = path.with_suffix("") / "counters.json"
    assert json.loads(counters.read_bytes())["payload"]["joints"]  # MI joints
    for raw in records.values():
        assert raw == _json_dumps_envelope(json.loads(raw)["payload"])


def test_canonical_once_per_changed_record_and_never_on_load(
    tmp_path: Path, monkeypatch
) -> None:
    calls: list[int] = []
    real_canonical = cache_store._canonical

    def counting(payload):
        calls.append(1)
        return real_canonical(payload)

    monkeypatch.setattr(cache_store, "_canonical", counting)
    cache = PlanCache(tmp_path)
    first = cache.partition(fingerprint="a" * 64, shuffle="s" * 64)
    second = cache.partition(fingerprint="b" * 64, shuffle="s" * 64)
    cache.partition(fingerprint="c" * 64, shuffle="s" * 64)  # stays clean
    _absorb(first, "x", [2, 3])
    _absorb(second, "y", [1, 4, 0])
    cache.flush()
    assert len(calls) == 4  # a counter record and an answers record each
    cache.flush()  # nothing dirty: nothing serialized
    assert len(calls) == 4
    counters = tmp_path / partition_filename("a" * 64, "s" * 64)
    counters = counters.with_suffix("") / "counters.json"
    sealed = counters.read_bytes()
    _absorb(first, "x", [1, 1])  # not deeper than the cached prefix
    cache.flush()
    assert len(calls) == 4

    calls.clear()
    reloaded = PlanCache(tmp_path).partition(fingerprint="a" * 64, shuffle="s" * 64)
    assert calls == []
    best = reloaded.best_marginal("x", 0, 10)
    assert best is not None and best[0] == 5
    assert best[1].tolist() == [2, 3]
    assert counters.read_bytes() == sealed


def _served(directory: Path, part: CachePartition) -> tuple | None:
    """What a fresh cache over ``directory`` serves of counter ``x``."""
    return (
        PlanCache(directory)
        .partition(fingerprint=part.fingerprint, shuffle=part.shuffle)
        .best_marginal("x", 0, 100)
    )


@pytest.mark.parametrize("defect", ["flipped_byte", "reindented", "reindented_payload"])
def test_partition_not_as_written_loads_empty(tmp_path: Path, defect: str) -> None:
    cache = PlanCache(tmp_path)
    part = cache.partition(fingerprint="a" * 64, shuffle="s" * 64)
    _absorb(part, "x", [2, 3, 7])
    cache.flush()
    answers = tmp_path / partition_filename(part.fingerprint, part.shuffle)
    counters = answers.with_suffix("") / "counters.json"
    assert _served(tmp_path, part) is not None  # intact: served

    # Each record in turn: a defect in either one loses the counters.
    for path, digit_after in ((counters, b'"counted":'), (answers, b'"counters":"')):
        raw = path.read_bytes()
        document = json.loads(raw)
        if defect == "flipped_byte":
            # One digit of the payload changes; the file stays valid JSON.
            at = raw.index(digit_after) + len(digit_after)
            flipped = b"9" if raw[at : at + 1] != b"9" else b"8"
            path.write_bytes(raw[:at] + flipped + raw[at + 1 :])
        elif defect == "reindented":
            path.write_text(json.dumps(document, sort_keys=True, indent=2))
        else:
            # Same envelope bytes around a payload that is not canonical.
            canonical = json.dumps(
                document["payload"], sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            reindented = json.dumps(
                document["payload"], sort_keys=True, indent=1
            ).encode("utf-8")
            path.write_bytes(raw.replace(canonical, reindented))
        assert json.loads(path.read_bytes())["sha256"] == document["sha256"]

        assert _served(tmp_path, part) is None
        path.write_bytes(raw)
        assert _served(tmp_path, part) is not None


GOLDEN_PARTITION_V2 = Path(__file__).parent / "golden" / "cache_partition_v2"


def test_golden_v1_partition_is_a_cold_miss(tmp_path: Path) -> None:
    # A schema 1 partition (one file holding answers, histories and
    # counters) is never migrated: this build runs cold over it, lands
    # on the answers a cache-free run gives, and replaces it.
    store = _fixture_store()
    name = partition_filename(store.fingerprint(), "sequential")
    stale_dir = tmp_path / "stale"
    stale_dir.mkdir()
    shutil.copyfile(GOLDEN_PARTITION, stale_dir / name)
    stale = PlanExecutor(store, sequential=True, cache_dir=stale_dir).execute(
        plan_queries(store, _fixture_specs())
    )
    assert stale.stats.cells_scanned > 0
    document = json.loads((stale_dir / name).read_bytes())
    assert document["schema_version"] == CACHE_SCHEMA_VERSION == 2

    fresh = PlanExecutor(store, sequential=True).execute(
        plan_queries(store, _fixture_specs())
    )
    assert _payloads(stale) == _payloads(fresh)


def test_golden_v2_partition_served_warm(tmp_path: Path) -> None:
    # The fixture's record set, written by schema version 2: this build
    # serves it without rewriting a byte, with the answers a cold run
    # gives.
    store = _fixture_store()
    name = partition_filename(store.fingerprint(), "sequential")
    assert (GOLDEN_PARTITION_V2 / name).is_file()
    warm_dir = tmp_path / "warm"
    shutil.copytree(GOLDEN_PARTITION_V2, warm_dir)
    warm = PlanExecutor(store, sequential=True, cache_dir=warm_dir).execute(
        plan_queries(store, _fixture_specs())
    )
    assert warm.stats.cells_scanned == 0
    assert _records(warm_dir) == _records(GOLDEN_PARTITION_V2)

    cold_dir = tmp_path / "cold"
    cold = PlanExecutor(store, sequential=True, cache_dir=cold_dir).execute(
        plan_queries(store, _fixture_specs())
    )
    assert cold.stats.cells_scanned > 0
    assert _payloads(warm) == _payloads(cold)
    assert sorted(_records(cold_dir)) == sorted(_records(GOLDEN_PARTITION_V2))


# ----------------------------------------------------------------------
# Executor integration: the bit-identity gate
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["numpy", "process"])
def test_cold_warm_bit_identity(tmp_path: Path, backend: str) -> None:
    store = _store()
    cold_exec = PlanExecutor(
        store, seed=SEED, backend=backend, cache_dir=tmp_path
    )
    cold = cold_exec.execute(plan_queries(store, _specs()))
    assert cold.stats.cells_scanned > 0

    warm_exec = PlanExecutor(
        store, seed=SEED, backend=backend, cache_dir=tmp_path
    )
    warm = warm_exec.execute(plan_queries(store, _specs()))
    assert warm.stats.cells_scanned == 0
    assert _payloads(warm) == _payloads(cold)


#: One query per ``swope_*`` façade; each runs on a fresh executor.
_FACADES = {
    "topk-entropy": lambda store, cache: swope_top_k_entropy(
        store, 2, seed=SEED, cache=cache
    ),
    "filter-entropy": lambda store, cache: swope_filter_entropy(
        store, 2.0, seed=SEED, cache=cache
    ),
    "topk-mi": lambda store, cache: swope_top_k_mutual_information(
        store, "target", 2, seed=SEED, cache=cache
    ),
    "filter-mi": lambda store, cache: swope_filter_mutual_information(
        store, "target", 0.1, seed=SEED, cache=cache
    ),
}


@pytest.mark.parametrize("query", sorted(_FACADES))
def test_facade_cold_then_warm_on_one_cache(tmp_path: Path, query: str) -> None:
    store = _store()
    cache = PlanCache(tmp_path)
    cold = _FACADES[query](store, cache)
    assert cold.stats.cells_scanned > 0
    (partition,) = tmp_path.glob("part-*.json")
    written = _records(tmp_path)

    warm = _FACADES[query](store, cache)
    assert warm.stats.cells_scanned == 0
    cold_answer, warm_answer = result_to_payload(cold), result_to_payload(warm)
    cold_answer.pop("stats")
    warm_answer.pop("stats")
    assert warm_answer == cold_answer
    # A hit must not rewrite any record of the cache.
    assert _records(tmp_path) == written


def test_counter_blocks_warm_start_new_queries(tmp_path: Path) -> None:
    store = _store()
    # Cold: a top-k entropy query counts every candidate marginal.
    cold = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    cold.execute(
        plan_queries(
            store,
            [QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1,
                       prune=False)],
        )
    )
    # Warm: a *different* query (never cached as an answer) over the same
    # attributes seeds its counters from the cached blocks.
    warm = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    result = warm.execute(
        plan_queries(
            store,
            [QuerySpec(kind="filter", score="entropy", threshold=1.5,
                       epsilon=0.1)],
        )
    )
    (stats,) = [result[name].stats for name in result]
    assert stats.cells_saved > 0
    # Both paths agree with a cache-free run, byte for byte.
    bare = PlanExecutor(store, seed=SEED)
    fresh = bare.execute(
        plan_queries(
            store,
            [QuerySpec(kind="filter", score="entropy", threshold=1.5,
                       epsilon=0.1)],
        )
    )
    assert _payloads(result) == _payloads(fresh)


def test_metrics_reconcile_with_run_stats(tmp_path: Path) -> None:
    store = _store()
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, _specs())
    )
    registry = MetricsRegistry()
    warm_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    warm = warm_exec.execute(plan_queries(store, _specs()), metrics=registry)
    assert registry.counter("cache_lookups_total").value == len(_specs())
    assert registry.counter("cache_hits_total").value == len(_specs())
    assert registry.counter("cache_misses_total").value == 0
    saved = sum(warm[name].stats.cells_saved for name in warm)
    assert registry.counter("cache_cells_saved_total").value == saved
    assert saved > 0


def test_cold_run_records_misses(tmp_path: Path) -> None:
    store = _store()
    registry = MetricsRegistry()
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, _specs()), metrics=registry
    )
    assert registry.counter("cache_lookups_total").value == len(_specs())
    assert registry.counter("cache_misses_total").value == len(_specs())
    assert registry.counter("cache_hits_total").value == 0


# ----------------------------------------------------------------------
# Semantic reuse
# ----------------------------------------------------------------------


def test_semantic_topk_smaller_k_served_bit_identical(tmp_path: Path) -> None:
    store = _store()
    tk3 = QuerySpec(kind="top_k", score="entropy", k=3, epsilon=0.1, prune=False)
    tk1 = QuerySpec(kind="top_k", score="entropy", k=1, epsilon=0.1, prune=False)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [tk3])
    )
    registry = MetricsRegistry()
    served_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    served = served_exec.execute(plan_queries(store, [tk1]), metrics=registry)
    assert served.stats.cells_scanned == 0
    assert registry.counter("cache_answers_reused_total").value == 1

    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [tk1]))
    assert _payloads(served) == _payloads(fresh)


def test_semantic_filter_higher_threshold_served(tmp_path: Path) -> None:
    store = _store()
    # η = 5.2 sits above every attribute's entropy, so the stored run
    # excludes everything — and exclusion against η decides exclusion
    # against any η′ > η at the same recorded iteration, so the replay
    # serves the weaker η′ = 6.0 without touching data.
    f_lo = QuerySpec(kind="filter", score="entropy", threshold=5.2, epsilon=0.1)
    f_hi = QuerySpec(kind="filter", score="entropy", threshold=6.0, epsilon=0.1)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [f_lo])
    )
    served_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    served = served_exec.execute(plan_queries(store, [f_hi]))
    assert served.stats.cells_scanned == 0

    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [f_hi]))
    assert _payloads(served) == _payloads(fresh)


def test_semantic_refusal_falls_back_bit_identical(tmp_path: Path) -> None:
    store = _store()
    # A stored η = 2.0 run stops as soon as the η-decisions land; the
    # tighter-margin η′ = 2.2 usually needs bounds the history never
    # recorded. Whether the replay serves or refuses, the answer must
    # equal a fresh run's, byte for byte.
    f_lo = QuerySpec(kind="filter", score="entropy", threshold=2.0, epsilon=0.1)
    f_hi = QuerySpec(kind="filter", score="entropy", threshold=2.2, epsilon=0.1)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [f_lo])
    )
    served_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    served = served_exec.execute(plan_queries(store, [f_hi]))
    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [f_hi]))
    assert _payloads(served) == _payloads(fresh)


def test_put_answer_refuses_nonconverged() -> None:
    store = _store()
    part = CachePartition(fingerprint="f" * 64, shuffle="s" * 64)
    fresh = PlanExecutor(store, seed=SEED).execute(
        plan_queries(store, _specs()[:1])
    )
    (result,) = [fresh[name] for name in fresh]
    degraded = type(result)(
        attributes=result.attributes,
        estimates=result.estimates,
        stats=result.stats,
        k=result.k,
        target=result.target,
        guarantee=GuaranteeStatus(
            guarantee_met=False,
            stopping_reason="cell_budget",
            requested_epsilon=0.1,
            achieved_epsilon=0.4,
        ),
    )
    history = ((64, {"wide": (1.0, 2.0, 1.0, 1.5)}),)
    kwargs = dict(
        kind="top_k", score="entropy", epsilon=0.1,
        failure_probability=1 / store.num_rows, schedule_start=64,
        candidates=("wide",), target=None, prune=False, param=2.0,
    )
    part.put_answer(history=history, result=degraded, **kwargs)
    assert part._answers == []
    part.put_answer(history=(), result=result, **kwargs)
    assert part._answers == []  # empty history is unusable for replay
    part.put_answer(history=history, result=result, **kwargs)
    assert len(part._answers) == 1
    assert part.dirty


# ----------------------------------------------------------------------
# Records: each read only by the hit that needs it, bound by digest
# ----------------------------------------------------------------------


@pytest.fixture
def decoders(monkeypatch) -> dict[str, int]:
    """Count calls of the history and counter decoders of the store."""
    calls = {"history": 0, "counters": 0, "array": 0, "joint": 0}

    def counting(kind, real):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)

        return wrapper

    for kind, name in (
        ("history", "_decode_history"),
        ("counters", "_decode_counters"),
        ("array", "decode_array"),
        ("joint", "decode_joint_snapshot"),
    ):
        monkeypatch.setattr(
            cache_store, name, counting(kind, getattr(cache_store, name))
        )
    return calls


def test_exact_hit_decodes_no_history_or_counter(tmp_path: Path, decoders) -> None:
    store = _store()
    cold = PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, _specs())
    )
    assert decoders == {"history": 0, "counters": 0, "array": 0, "joint": 0}
    warm = PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, _specs())
    )
    assert warm.stats.cells_scanned == 0
    assert _payloads(warm) == _payloads(cold)
    assert decoders == {"history": 0, "counters": 0, "array": 0, "joint": 0}


def test_semantic_hit_decodes_only_its_history(tmp_path: Path, decoders) -> None:
    store = _store()
    tk3 = QuerySpec(kind="top_k", score="entropy", k=3, epsilon=0.1, prune=False)
    f_lo = QuerySpec(kind="filter", score="entropy", threshold=5.2, epsilon=0.1)
    for spec in (tk3, f_lo):  # two answers, two history records
        PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
            plan_queries(store, [spec])
        )
    decoders.update(dict.fromkeys(decoders, 0))
    tk1 = QuerySpec(kind="top_k", score="entropy", k=1, epsilon=0.1, prune=False)
    served = PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [tk1])
    )
    assert served.stats.cells_scanned == 0
    assert decoders == {"history": 1, "counters": 0, "array": 0, "joint": 0}
    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [tk1]))
    assert _payloads(served) == _payloads(fresh)


def test_scan_decodes_counters_it_warm_starts(tmp_path: Path, decoders) -> None:
    store = _store()
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(
            store,
            [QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1,
                       prune=False)],
        )
    )
    result = PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(
            store,
            [QuerySpec(kind="filter", score="entropy", threshold=1.5,
                       epsilon=0.1)],
        )
    )
    (stats,) = [result[name].stats for name in result]
    assert stats.cells_saved > 0
    assert decoders["counters"] == 1  # the record is parsed once
    # Only the blocks served are decoded, each once.
    assert 1 <= decoders["array"] <= len(store.attributes)
    assert decoders["history"] == 0


def _history_record(directory: Path) -> Path:
    (path,) = directory.glob("part-*/history-*.json")
    return path


def test_answers_with_an_older_history_record_miss(tmp_path: Path) -> None:
    store = _store()
    tk3 = QuerySpec(kind="top_k", score="entropy", k=3, epsilon=0.1, prune=False)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [tk3])
    )
    older = _history_record(tmp_path).read_bytes()
    (counters,) = tmp_path.glob("part-*/counters.json")
    sealed = counters.stat().st_ino  # an atomic re-seal replaces the inode

    # Flush n: the same answer with a different (still replayable)
    # history; its record replaces flush n-1's under the same name.
    executor = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    part = executor.cache.partition(
        fingerprint=store.fingerprint(),
        shuffle=executor.sampler.shuffle_fingerprint(),
    )
    (entry,) = part._answers
    history = part._history(entry)
    assert history is not None
    shape = dict(
        kind=entry.kind, score=entry.score, epsilon=entry.epsilon,
        failure_probability=entry.failure_probability,
        schedule_start=entry.schedule_start, candidates=entry.candidates,
        target=entry.target, prune=entry.prune,
    )
    part.put_answer(
        **shape,
        param=entry.param,
        history=[(size, {**bounds, "unused": (0.0, 1.0, 1.0, 0.5)})
                 for size, bounds in history],
        result=result_from_payload(entry.result),
    )
    executor.cache.flush()
    assert _history_record(tmp_path).read_bytes() != older
    assert counters.stat().st_ino == sealed  # an unchanged record is not re-sealed

    def lookup_k1():
        fresh = PlanCache(tmp_path).partition(
            fingerprint=part.fingerprint, shuffle=part.shuffle
        )
        return fresh.lookup_answer(
            **shape, param=1.0, population_size=store.num_rows
        )

    served = lookup_k1()
    assert served is not None and served.mode == "semantic"
    # A crash between the two writes of a flush: flush n's answers
    # record, flush n-1's history record. The replay must not run.
    _history_record(tmp_path).write_bytes(older)
    assert lookup_k1() is None


def test_answers_with_an_older_counter_record_miss(tmp_path: Path) -> None:
    cache = PlanCache(tmp_path)
    part = cache.partition(fingerprint="a" * 64, shuffle="s" * 64)
    _absorb(part, "x", [2, 3])
    cache.flush()
    counters = tmp_path / partition_filename(part.fingerprint, part.shuffle)
    counters = counters.with_suffix("") / "counters.json"
    older = counters.read_bytes()
    _absorb(part, "x", [4, 5])
    cache.flush()
    assert _served(tmp_path, part)[0] == 9
    counters.write_bytes(older)
    assert _served(tmp_path, part) is None
