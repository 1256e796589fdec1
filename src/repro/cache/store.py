"""Persistent cross-plan counter and answer cache.

The paper's prefix-sampling structure makes caching unusually clean:
for a fixed dataset *and a fixed shuffle*, the marginal counter of an
attribute at prefix length ``M`` is a pure function of ``(dataset,
shuffle, attribute, M)`` — valid forever, reusable by any later
session. Likewise a retired answer, together with the per-iteration
interval history that produced it, is a pure function of the query
shape. This module stores both:

* **Counter blocks** — the largest counted prefix seen per attribute
  (and per joint pair), absorbed from a sampler's state snapshot at
  flush time and served back to a later sampler that reaches the same
  prefix, skipping the counting work for every cached row.
* **Retired answers** — the full result payload plus its interval
  history, served back *exactly* (same parameters) or *semantically*
  (a dominated ``η′ >= η`` / ``k′ <= k`` request, replayed by
  :mod:`repro.cache.semantic`).

Cache state is partitioned by ``(dataset fingerprint, shuffle
fingerprint)`` — both sha256 digests — because counters from a
different dataset *or* a different row order are garbage for this one.
There is deliberately no way to read or write cache state without
naming the fingerprint (enforced tree-wide by analysis rule SWP017).

On disk a partition is a set of separately sealed records, each a
JSON file in the checkpoint envelope discipline (format marker, schema
version, payload sha256, atomic replace via
:mod:`repro.durability.atomic`):

* the **answers record** ``part-<key>.json`` — every retired answer's
  query shape and result, the sha256 of its history record, and the
  sha256 of the counter record;
* one **history record** per answer, ``part-<key>/history-<answer>.json``,
  named by the answer's family and parameter;
* the **counter record** ``part-<key>/counters.json`` — the counter
  blocks.

Each record is read only when something needs it: an exact hit parses
the answers record alone, a semantic hit also the histories it
replays, and the counter record is parsed when a scan asks for a
counter or brings new ones, each array decoded only when it is served.
A flush re-seals only the records that changed, the answers record
last. The answers record is the partition's root: a history or counter
record is used only if its payload digest is the one the root names, so
a record set torn by a crash between two writes reads as a miss, never
as a wrong replay.

Each payload is serialized once on flush, and on load the sha256 is
checked against the payload bytes as they appear in the file, so a file
must be byte for byte what was written. Unlike checkpoints, though, a
bad cache file is *not* an error: a cache miss is always safe, so
corruption, version skew, or checksum mismatch silently degrade to a
miss and the run proceeds cold.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.cache.semantic import Bounds, History, replay_filter, replay_top_k
from repro.core.results import FilterResult, TopKResult
from repro.data.joint import JointCounter
from repro.durability.atomic import atomic_write_text
from repro.durability.checkpoint import (
    decode_array,
    decode_joint_snapshot,
    encode_array,
    encode_joint_snapshot,
    envelope_intact,
    result_from_payload,
    result_to_payload,
    seal_envelope,
)
from repro.exceptions import ReproError

__all__ = [
    "CACHE_FORMAT",
    "CACHE_SCHEMA_VERSION",
    "CachePartition",
    "CachedAnswer",
    "PlanCache",
    "ServedAnswer",
    "partition_filename",
]

#: Envelope discriminator; a file without it is not a cache partition.
CACHE_FORMAT = "repro-plan-cache"

#: Bumped on any payload-layout change; mismatching files are treated as
#: empty (cache semantics: stale state degrades to a miss, never an error).
#: v2: a partition is an answers record plus history and counter records
#: (v1 was one file holding all three).
CACHE_SCHEMA_VERSION = 2

QueryResult = Union[TopKResult, FilterResult]

#: Exceptions that turn a cache-record read into a miss.
_LOAD_ERRORS = (
    OSError,
    ValueError,  # includes json.JSONDecodeError
    KeyError,
    TypeError,
    AttributeError,
    ReproError,  # corrupt arrays from the shared codecs, bad counter shapes
)

#: The counter record's file name inside a partition's record directory.
_COUNTERS = "counters.json"


def partition_filename(fingerprint: str, shuffle: str) -> str:
    """File name of one ``(dataset fingerprint, shuffle)`` partition's
    answers record; its other records sit in the directory of the same
    name without the ``.json`` suffix."""
    digest = hashlib.sha256(f"{fingerprint}\n{shuffle}".encode("utf-8"))
    return f"part-{digest.hexdigest()[:32]}.json"


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_record(path: Path, payload: dict[str, Any]) -> str:
    """Seal ``payload`` atomically into ``path``; return its sha256."""
    text = _canonical(payload)
    atomic_write_text(
        path, seal_envelope(CACHE_FORMAT, CACHE_SCHEMA_VERSION, text)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_record(path: Path, sha256: str | None = None) -> dict[str, Any] | None:
    """The payload of a sealed record, or ``None`` for any defect.

    A record must carry this build's format and schema version, be byte
    for byte as sealed, and, when ``sha256`` is given, hold the payload
    with that digest (the one the answers record names).
    """
    try:
        raw = path.read_bytes()
        document = json.loads(raw)
        if (
            document.get("format") != CACHE_FORMAT
            or document.get("schema_version") != CACHE_SCHEMA_VERSION
            or (sha256 is not None and document.get("sha256") != sha256)
            or not envelope_intact(raw, document)
        ):
            return None
        payload = document["payload"]
        return payload if isinstance(payload, dict) else None
    except _LOAD_ERRORS:
        return None


def _encode_history(history: History) -> list[Any]:
    return [
        [size, {a: list(b) for a, b in bounds.items()}] for size, bounds in history
    ]


def _decode_history(raw: list[Any]) -> History:
    return tuple(
        (
            int(size),
            {
                str(a): (float(b[0]), float(b[1]), float(b[2]), float(b[3]))
                for a, b in bounds.items()
            },
        )
        for size, bounds in raw
    )


def _decode_counters(
    payload: dict[str, Any],
) -> tuple[dict[str, dict[str, Any]], dict[tuple[str, str], dict[str, Any]]]:
    """The counter record's blocks, keyed; arrays stay encoded."""
    marginals = {
        str(name): {"counted": int(entry["counted"]), "counts": entry["counts"]}
        for name, entry in payload["marginals"].items()
    }
    joints = {
        (str(entry["first"]), str(entry["second"])): {
            "counted": int(entry["counted"]),
            "counter": entry["counter"],
        }
        for entry in payload["joints"]
    }
    return marginals, joints


#: What identifies a retired answer: its family and its parameter.
_AnswerKey = tuple[tuple[Any, ...], float]


@dataclass(frozen=True)
class CachedAnswer:
    """One retired answer; its history is a record of its own.

    The *family* fields identify runs that are interchangeable up to the
    query parameter: same kind, score, ``ε``, failure probability,
    schedule start (the floor-ratcheted first sample size — two runs
    starting at different sizes walk different schedules and are not
    comparable), target, candidate tuple, and pruning mode. ``param`` is
    the threshold ``η`` for filters and ``k`` for top-k.
    ``history_sha256`` is the payload digest of the sealed history
    record, ``None`` until the answer is flushed.
    """

    kind: str
    score: str
    epsilon: float
    failure_probability: float
    schedule_start: int
    target: str | None
    candidates: tuple[str, ...]
    prune: bool
    param: float
    result: dict[str, Any]
    history_sha256: str | None = None

    @property
    def family(
        self,
    ) -> tuple[str, str, float, float, int, str | None, tuple[str, ...], bool]:
        return (
            self.kind,
            self.score,
            self.epsilon,
            self.failure_probability,
            self.schedule_start,
            self.target,
            self.candidates,
            self.prune,
        )

    @property
    def key(self) -> _AnswerKey:
        return (self.family, self.param)


def _history_filename(key: _AnswerKey) -> str:
    """Record name of one answer's history: a digest of its key."""
    family, param = key
    digest = hashlib.sha256(
        json.dumps([*family, param], separators=(",", ":")).encode("utf-8")
    )
    return f"history-{digest.hexdigest()[:32]}.json"


@dataclass(frozen=True)
class ServedAnswer:
    """A cache hit: the rebuilt result plus how it was derived.

    ``mode`` is ``"exact"`` (stored result, work stats zeroed and moved
    into ``cells_saved``) or ``"semantic"`` (replayed from a dominating
    entry's history; ``source_param`` names the entry that served it).
    """

    result: QueryResult
    mode: str
    source_param: float


class CachePartition:
    """Counter blocks and retired answers of one (dataset, shuffle) pair.

    Construct via :meth:`PlanCache.partition` — the keyword-only
    fingerprints are the cache key and must always be spelled at the
    call site (analysis rule SWP017 flags fingerprint-free access).
    With a ``directory`` the answers record is read here, and the other
    records when first needed (see the module docstring).
    """

    def __init__(
        self, *, fingerprint: str, shuffle: str, directory: Path | None = None
    ) -> None:
        self.fingerprint = fingerprint
        self.shuffle = shuffle
        self._root: Path | None = None
        self._records: Path | None = None
        if directory is not None:
            self._root = directory / partition_filename(fingerprint, shuffle)
            self._records = self._root.with_suffix("")
        self._answers: list[CachedAnswer] = []
        # Histories read or put in this process, by answer key.
        self._histories: dict[_AnswerKey, History] = {}
        self._unsaved_histories: set[_AnswerKey] = set()
        # Counter blocks with their arrays encoded: attribute (or the
        # canonical joint pair) -> {"counted": prefix, "counts"/"counter":
        # encoded}; only the largest prefix is kept. Filled from the
        # counter record on first use.
        self._marginals: dict[str, dict[str, Any]] = {}
        self._joints: dict[tuple[str, str], dict[str, Any]] = {}
        self._counters_sha256: str | None = None
        self._counters_read = self._root is None
        self._counters_changed = False
        self._answers_changed = False
        if self._root is not None:
            self._read_answers()

    # ------------------------------------------------------------------
    # Counter blocks (repro.data.sampling.CounterCache protocol)
    # ------------------------------------------------------------------
    def best_marginal(
        self, name: str, counted: int, num_rows: int
    ) -> tuple[int, np.ndarray] | None:
        """A cached counter for ``name`` covering ``(counted, num_rows]``.

        Counters only grow, so a cached prefix is usable exactly when it
        lies strictly beyond what the sampler already counted and at or
        before the prefix it is about to extend to. Returns a *writable
        copy* — the sampler will keep extending it in place.
        """
        self._read_counters()
        entry = self._marginals.get(name)
        if entry is None or not counted < entry["counted"] <= num_rows:
            return None
        try:
            counts = np.asarray(decode_array(entry["counts"]), dtype=np.int64)
        except _LOAD_ERRORS:
            return None
        return entry["counted"], counts

    def best_joint(
        self, first: str, second: str, counted: int, num_rows: int
    ) -> tuple[int, JointCounter] | None:
        """Like :meth:`best_marginal` for the joint pair ``(first, second)``.

        ``first``/``second`` are taken in the sampler's canonical key
        order (lexicographic); the returned counter is the caller's own.
        """
        self._read_counters()
        key = (first, second) if first <= second else (second, first)
        entry = self._joints.get(key)
        if entry is None or not counted < entry["counted"] <= num_rows:
            return None
        try:
            counter = JointCounter.from_snapshot(
                decode_joint_snapshot(entry["counter"])
            )
        except _LOAD_ERRORS:
            return None
        return entry["counted"], counter

    def absorb_sampler_state(self, state: dict[str, Any]) -> None:
        """Keep the deepest counted prefix per counter from a snapshot.

        ``state`` is :meth:`~repro.data.sampling.PrefixSampler.counter_snapshot`
        output with live arrays; everything kept is encoded at once. A
        snapshot with nothing counted (a plan served from answers) does
        not read the counter record.
        """
        for name, entry in state["marginals"].items():
            counted = int(entry["counted"])
            if counted <= 0:
                continue
            self._read_counters()
            current = self._marginals.get(name)
            if current is None or current["counted"] < counted:
                self._marginals[str(name)] = {
                    "counted": counted,
                    "counts": encode_array(np.asarray(entry["counts"])),
                }
                self._counters_changed = True
        for joint in state["joints"]:
            counted = int(joint["counted"])
            if counted <= 0:
                continue
            self._read_counters()
            key = (str(joint["first"]), str(joint["second"]))
            current = self._joints.get(key)
            if current is None or current["counted"] < counted:
                self._joints[key] = {
                    "counted": counted,
                    "counter": encode_joint_snapshot(joint["counter"]),
                }
                self._counters_changed = True

    # ------------------------------------------------------------------
    # Retired answers
    # ------------------------------------------------------------------
    def put_answer(
        self,
        *,
        kind: str,
        score: str,
        epsilon: float,
        failure_probability: float,
        schedule_start: int,
        candidates: tuple[str, ...],
        target: str | None,
        prune: bool,
        param: float,
        history: History,
        result: QueryResult,
    ) -> None:
        """Store a retired answer; non-converged results are refused.

        A result whose guarantee was not met (budget exhaustion,
        cancellation) says nothing reusable about the data — only
        ``converged`` answers enter the cache.
        """
        guarantee = result.guarantee
        if guarantee is None or not guarantee.guarantee_met:
            return
        if not history:
            return
        entry = CachedAnswer(
            kind=kind,
            score=score,
            epsilon=epsilon,
            failure_probability=failure_probability,
            schedule_start=schedule_start,
            target=target,
            candidates=tuple(candidates),
            prune=prune,
            param=param,
            result=result_to_payload(result),
        )
        key = entry.key
        self._answers = [e for e in self._answers if e.key != key]
        self._answers.append(entry)
        self._histories[key] = tuple(
            (int(size), dict(bounds)) for size, bounds in history
        )
        self._unsaved_histories.add(key)
        self._answers_changed = True

    def lookup_answer(
        self,
        *,
        kind: str,
        score: str,
        epsilon: float,
        failure_probability: float,
        schedule_start: int,
        candidates: tuple[str, ...],
        target: str | None,
        prune: bool,
        param: float,
        population_size: int,
    ) -> ServedAnswer | None:
        """Serve a stored or dominated answer for this query shape.

        Exact match first. Otherwise semantic reuse walks dominating
        entries nearest-first — for a filter, stored thresholds
        ``η <= η′`` descending; for top-k, stored ``k >= k′`` ascending —
        and replays each history until one covers the request. Replay
        refusal (history insufficient or its record unreadable) falls
        through to the next entry, then to a miss.
        """
        family = (
            kind,
            score,
            epsilon,
            failure_probability,
            schedule_start,
            target,
            tuple(candidates),
            prune,
        )
        entries = [e for e in self._answers if e.family == family]
        for entry in entries:
            if entry.param == param:
                return ServedAnswer(
                    self._rebuild_exact(entry), "exact", entry.param
                )
        if kind == "filter":
            dominating = sorted(
                (e for e in entries if e.param <= param),
                key=lambda e: -e.param,
            )
        else:
            dominating = sorted(
                (e for e in entries if e.param >= param),
                key=lambda e: e.param,
            )
        for entry in dominating:
            history = self._history(entry)
            if history is None:
                continue
            derived: QueryResult | None
            if kind == "filter":
                derived = replay_filter(
                    history,
                    entry.candidates,
                    param,
                    epsilon,
                    population_size,
                    target=target,
                )
            else:
                derived = replay_top_k(
                    history,
                    entry.candidates,
                    int(param),
                    epsilon,
                    population_size,
                    prune=prune,
                    target=target,
                )
            if derived is not None:
                return ServedAnswer(derived, "semantic", entry.param)
        return None

    @staticmethod
    def _rebuild_exact(entry: CachedAnswer) -> QueryResult:
        """Fresh result object for an exact hit, with honest work stats.

        The stored stats describe the run that *produced* the answer;
        serving it does no counting, so the work fields are zeroed and
        the avoided work lands in ``cells_saved``. Loop-shape fields
        (iterations, final sample size, pruning) are kept — they
        describe the answer, not this serve.
        """
        result = result_from_payload(entry.result)
        stats = result.stats
        stats.cells_saved = stats.cells_saved + stats.cells_scanned
        stats.cells_scanned = 0
        stats.wall_seconds = 0.0
        stats.counting_seconds = 0.0
        stats.bounds_seconds = 0.0
        stats.trace_event_count = 0
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Whether this partition holds state not yet written to disk."""
        return self._answers_changed or self._counters_changed

    def _read_answers(self) -> None:
        """Load the answers record; any defect leaves the partition empty."""
        assert self._root is not None
        payload = _read_record(self._root)
        if (
            payload is None
            or payload.get("fingerprint") != self.fingerprint
            or payload.get("shuffle") != self.shuffle
        ):
            return  # missing, corrupt, stale or foreign: start cold
        try:
            answers = [
                CachedAnswer(
                    kind=str(raw["kind"]),
                    score=str(raw["score"]),
                    epsilon=float(raw["epsilon"]),
                    failure_probability=float(raw["failure_probability"]),
                    schedule_start=int(raw["schedule_start"]),
                    target=None if raw["target"] is None else str(raw["target"]),
                    candidates=tuple(str(a) for a in raw["candidates"]),
                    prune=bool(raw["prune"]),
                    param=float(raw["param"]),
                    result=dict(raw["result"]),
                    history_sha256=str(raw["history"]),
                )
                for raw in payload["answers"]
            ]
            counters = payload["counters"]
        except _LOAD_ERRORS:
            return
        self._answers = answers
        self._counters_sha256 = None if counters is None else str(counters)

    def _history(self, entry: CachedAnswer) -> History | None:
        """An answer's history, read from its record on first use."""
        key = entry.key
        history = self._histories.get(key)
        if (
            history is None
            and self._records is not None
            and entry.history_sha256 is not None
        ):
            payload = _read_record(
                self._records / _history_filename(key), entry.history_sha256
            )
            try:
                history = None if payload is None else _decode_history(
                    payload["history"]
                )
            except _LOAD_ERRORS:
                return None
            if history is not None:
                self._histories[key] = history
        return history

    def _read_counters(self) -> None:
        """Load the counter record once; a defect leaves no counters."""
        if self._counters_read:
            return
        self._counters_read = True
        if self._records is None or self._counters_sha256 is None:
            return
        payload = _read_record(self._records / _COUNTERS, self._counters_sha256)
        if payload is None:
            return
        try:
            self._marginals, self._joints = _decode_counters(payload)
        except _LOAD_ERRORS:
            return

    def _save(self) -> None:
        """Re-seal the changed records, the answers record last."""
        assert self._root is not None and self._records is not None
        if self._counters_changed or self._unsaved_histories:
            self._records.mkdir(exist_ok=True)
        if self._counters_changed:
            self._counters_sha256 = _write_record(
                self._records / _COUNTERS,
                {
                    "marginals": dict(sorted(self._marginals.items())),
                    "joints": [
                        {"first": key[0], "second": key[1], **entry}
                        for key, entry in sorted(self._joints.items())
                    ],
                },
            )
            self._counters_changed = False
        if self._unsaved_histories:
            self._answers = [
                replace(
                    e,
                    history_sha256=_write_record(
                        self._records / _history_filename(e.key),
                        {"history": _encode_history(self._histories[e.key])},
                    ),
                )
                if e.key in self._unsaved_histories
                else e
                for e in self._answers
            ]
            self._unsaved_histories.clear()
        _write_record(
            self._root,
            {
                "fingerprint": self.fingerprint,
                "shuffle": self.shuffle,
                "counters": self._counters_sha256,
                "answers": [
                    {
                        "kind": e.kind,
                        "score": e.score,
                        "epsilon": e.epsilon,
                        "failure_probability": e.failure_probability,
                        "schedule_start": e.schedule_start,
                        "target": e.target,
                        "candidates": list(e.candidates),
                        "prune": e.prune,
                        "param": e.param,
                        "result": e.result,
                        "history": e.history_sha256,
                    }
                    for e in self._answers
                ],
            },
        )
        self._answers_changed = False


@dataclass
class PlanCache:
    """Partitioned plan cache, in-memory or backed by a directory.

    With ``directory=None`` the cache lives only for the process —
    useful for sharing work between executors in one session and for
    tests. With a directory, each partition reads its answers record on
    first access (its other records when needed) and :meth:`flush`
    writes the changed records of dirty partitions atomically.
    """

    directory: Path | None = None
    _partitions: dict[tuple[str, str], CachePartition] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.directory is not None:
            self.directory = Path(self.directory)

    def partition(self, *, fingerprint: str, shuffle: str) -> CachePartition:
        """The partition for one (dataset fingerprint, shuffle) pair.

        Both keys are mandatory and keyword-only: there is no such thing
        as cache state without a dataset identity (SWP017).
        """
        key = (fingerprint, shuffle)
        part = self._partitions.get(key)
        if part is None:
            part = CachePartition(
                fingerprint=fingerprint, shuffle=shuffle, directory=self.directory
            )
            self._partitions[key] = part
        return part

    def flush(self) -> None:
        """Atomically write every dirty partition (no-op when in-memory)."""
        if self.directory is None:
            return
        dirty = [p for p in self._partitions.values() if p.dirty]
        if not dirty:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        for part in dirty:
            part._save()
