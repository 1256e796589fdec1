"""Sampling-without-replacement substrate (random shuffle + prefix view).

The paper treats a uniformly random subset :math:`\\mathcal{S}` of size ``M``
as *the first M records after a random shuffle* of the input dataset
(Section 2.2). All four SWOPE algorithms, as well as the EntropyRank /
EntropyFilter baselines, grow the sample by extending this prefix — so the
sample of a later iteration always contains the sample of every earlier
iteration, and the martingale argument of Section 3.1 applies.

:class:`PrefixSampler` implements this substrate:

* one random permutation of ``[0, N)`` (the shuffle), drawn on the first
  read that needs rows and identified by the generator state it is drawn
  from, so a plan answered entirely from a cache never pays for it; the
  process keeps the last one drawn (read-only, keyed by that identity),
  so samplers that reuse a seed draw it once;
* per-attribute occurrence counters ``m_i`` maintained *incrementally*
  (extending the prefix from ``M`` to ``M'`` touches only the ``M' - M``
  new records of each requested attribute — the columnar "sequential
  sampling" the paper describes);
* pairwise joint counters (for empirical mutual information) maintained the
  same way through :class:`repro.data.joint.JointCounter`;
* an exact account of work done (``cells_scanned``) so experiments can
  report a machine-independent cost next to wall-clock time.

Each new block ``perm[M:M']`` is read in ascending row order: counts do
not depend on the order of records within a block, so the sampler sorts
the block's row indices once and every gather sweeps memory (or an mmap
store's pages) forward. A dense joint count of a block also yields both
marginal counts of that block as its row and column sums; the sampler
keeps them as *pending margins*, so an MI iteration that counts joints
first reads each candidate's block once.

The sampler also supports ``sequential=True``, which skips the shuffle and
reads the physical row order directly. The paper does this for cache
friendliness on columnar storage; it is statistically equivalent only when
the physical order is itself exchangeable (true for our synthetic
generators, which emit i.i.d. rows).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.data.backends import CountingBackend, resolve_backend
from repro.data.column_store import ColumnSource
from repro.data.joint import JointCounter
from repro.exceptions import ParameterError, SchemaError

__all__ = ["CounterCache", "PrefixSampler"]

#: A dense pair waiting for its block count: ``(second, key, counter)``,
#: ``key`` being the pair's canonical (sorted) name order.
_DensePair = tuple[str, tuple[str, str], JointCounter]


class CounterCache(Protocol):
    """Read-side protocol for warm-starting counters from a prior run.

    Implemented by :class:`repro.cache.CachePartition`; defined here so
    the sampler depends only on the shape, not on the cache subsystem.
    Both methods return ``None`` (no usable entry) or a ``(prefix,
    counter)`` pair where ``counted < prefix <= num_rows`` and the
    counter is owned by the caller (safe to extend in place).
    """

    def best_marginal(
        self, name: str, counted: int, num_rows: int
    ) -> tuple[int, np.ndarray] | None:
        """Cached marginal counter for ``name`` within ``(counted, num_rows]``."""
        ...

    def best_joint(
        self, first: str, second: str, counted: int, num_rows: int
    ) -> tuple[int, JointCounter] | None:
        """Cached joint counter for the canonical pair ``(first, second)``."""
        ...


def _shuffle_identity(rng: np.random.Generator, num_rows: int) -> str:
    """sha256 identity of the permutation ``rng`` is about to draw.

    ``rng.permutation(num_rows)`` is a pure function of the bit
    generator's type and state, ``num_rows``, and the numpy release
    implementing the draw, so hashing those identifies the shuffle
    without drawing it. The numpy version is part of the key because a
    release may change the algorithm: after an upgrade the identity
    changes, and caches keyed on it miss rather than serve counters of
    a different permutation.
    """
    document = {
        "bit_generator": type(rng.bit_generator).__name__,
        "state": rng.bit_generator.state,
        "num_rows": num_rows,
        "numpy": np.__version__,
    }
    # Some states hold arrays (MT19937's key, Philox's counter and buffer).
    canonical = json.dumps(
        document,
        sort_keys=True,
        separators=(",", ":"),
        default=lambda array: array.tolist(),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: The last shuffle drawn, keyed by its :func:`_shuffle_identity`. A
#: permutation is a pure function of that identity, so samplers sharing
#: a seed share one read-only array. At most one is held, and it is
#: dropped before a different one is drawn, so a draw never finds more
#: shuffles in memory than the live samplers hold.
_held_shuffle: dict[str, np.ndarray] = {}
_held_shuffle_lock = threading.Lock()


def _draw_shuffle(
    rng: np.random.Generator, identity: str, num_rows: int, *, reuse: bool = True
) -> np.ndarray:
    """``rng.permutation(num_rows)``, drawn once per identity while held.

    ``reuse=False`` always draws, for a caller's generator whose stream
    must advance; the drawn shuffle is then the one held.
    """
    with _held_shuffle_lock:
        perm = _held_shuffle.get(identity) if reuse else None
        if perm is None:
            _held_shuffle.clear()
            perm = rng.permutation(num_rows)
            perm.flags.writeable = False
            _held_shuffle[identity] = perm
        return perm


class PrefixSampler:
    """Shuffled prefix view of a :class:`~repro.data.column_store.ColumnSource`
    with incremental counts.

    Parameters
    ----------
    store:
        The dataset to sample from.
    seed:
        Seed or generator for the shuffle. Queries made with the same seed
        on the same store are fully reproducible. An int or ``None`` seed
        defers the draw to the first read that needs rows; a
        :class:`numpy.random.Generator` is consumed here, so the caller's
        stream advances by one ``permutation(N)`` at construction.
    sequential:
        When true, no shuffle is performed and "sampling M records" means
        reading the first M *physical* rows. Only valid when the physical
        row order is already random/exchangeable.
    retain:
        When true, :meth:`release` becomes a no-op, so counters survive
        the releasing that query loops do when they retire attributes —
        the mode :class:`repro.core.plan.PlanExecutor` uses to let
        later queries reuse earlier queries' samples.
    backend:
        Counting strategy: a :data:`~repro.data.backends.BACKEND_NAMES`
        name, a :class:`~repro.data.backends.CountingBackend` instance,
        or ``None`` to honour the ``REPRO_BACKEND`` environment variable
        (default ``"numpy"``). All backends produce bit-identical counts;
        they differ only in how the per-column work is executed.

    Notes
    -----
    Counters are created lazily per attribute (and per attribute pair), so
    a query over a small candidate set never pays for unrelated columns.
    """

    def __init__(
        self,
        store: ColumnSource,
        seed: int | np.random.Generator | None = None,
        *,
        sequential: bool = False,
        retain: bool = False,
        backend: str | CountingBackend | None = None,
        counter_cache: CounterCache | None = None,
    ) -> None:
        self._store = store
        self._n = store.num_rows
        self._counter_cache = counter_cache
        self._cells_saved = 0
        self._sequential = sequential
        # The shuffle: drawn from ``_rng`` on first use (see _permutation).
        self._perm: np.ndarray | None = None
        self._rng: np.random.Generator | None = None
        if sequential:
            self._shuffle_id = "sequential"
        elif isinstance(seed, np.random.Generator):
            self._shuffle_id = _shuffle_identity(seed, self._n)
            self._perm = _draw_shuffle(seed, self._shuffle_id, self._n, reuse=False)
        else:
            self._rng = np.random.default_rng(seed)
            self._shuffle_id = _shuffle_identity(self._rng, self._n)
        # attribute -> (rows_counted, counts[u_alpha])
        self._marginals: dict[str, tuple[int, np.ndarray]] = {}
        # (attr_a, attr_b) -> (rows_counted, JointCounter)
        self._joints: dict[tuple[str, str], tuple[int, JointCounter]] = {}
        self._cells_scanned = 0
        self._retain = retain
        self._backend = resolve_backend(backend)
        # Per-iteration permutation-block cache: the [start, stop) slice
        # of the shuffle, materialized once and shared by every column
        # and joint pair extending over the same block.
        self._block_range: tuple[int, int] | None = None
        self._block_rows: np.ndarray | None = None
        # attribute -> (start, stop, counts of the prefix block
        # [start, stop)): margins of the last dense joint delta, added
        # by the next marginal extension over exactly that block.
        self._pending: dict[str, tuple[int, int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnSource:
        """The underlying dataset."""
        return self._store

    @property
    def num_rows(self) -> int:
        """``N``, the number of records in the underlying dataset."""
        return self._n

    @property
    def backend(self) -> CountingBackend:
        """The counting backend executing this sampler's batched counts."""
        return self._backend

    @property
    def cells_scanned(self) -> int:
        """Total attribute values read so far (machine-independent cost).

        Every record of every attribute contributes one cell each time it
        is consumed by a counter; a joint counter over a pair consumes two
        cells per record, matching the cost of reading both columns.

        This is the paper's per-attribute cost model, and it is kept as
        such: a marginal extension served from the margins of a joint
        block (see :meth:`joint_counts_batch`) still charges one cell
        per row, although the candidate's block was read only once.
        """
        return self._cells_scanned

    @property
    def cells_saved(self) -> int:
        """Cells *not* scanned because a counter cache served the prefix.

        The warm-start complement of :attr:`cells_scanned`: every cached
        row of every attribute that a counter jumped over instead of
        counting, at the same per-cell accounting (two cells per row for
        a joint pair).
        """
        return self._cells_saved

    def attach_counter_cache(self, cache: CounterCache | None) -> None:
        """Set (or clear) the warm-start source consulted by batch counts."""
        self._counter_cache = cache

    def shuffle_fingerprint(self) -> str:
        """sha256 identity of the row order this sampler scans in.

        Counters are a pure function of (dataset, row order, prefix
        length), so cache partitions key on this next to the dataset
        fingerprint. The identity hashes what determines the shuffle —
        bit generator type and state before the draw, ``N``, and the
        numpy version — so it costs O(1) and never forces the draw.
        Sequential samplers all share the physical order and return the
        literal marker ``"sequential"``.
        """
        return self._shuffle_id

    @property
    def counted_attributes(self) -> tuple[str, ...]:
        """Attributes holding a live marginal counter, sorted by name.

        Shared-cost introspection for the plan executor and the CLI's
        batch accounting: retained counters are exactly the counts later
        queries get for free.
        """
        return tuple(sorted(self._marginals))

    def counted_prefix(self, name: str) -> int:
        """Rows counted so far for ``name``'s marginal (0 if never counted)."""
        entry = self._marginals.get(name)
        return entry[0] if entry is not None else 0

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing substrate)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict[str, object]:
        """In-memory snapshot of the sampler's resumable state.

        Captures everything a resumed process needs to continue the scan
        bit-identically: the shuffle itself (``None`` in sequential
        mode; taking the snapshot draws it if no read has yet) and its
        :meth:`shuffle_fingerprint`, the :meth:`counter_snapshot`, and
        the cumulative ``cells_scanned`` meter, which downstream stats
        and trace events are derived from. Arrays are returned live;
        serialisation belongs to :mod:`repro.durability.checkpoint`. The
        returned structures must not be mutated.
        """
        return {
            "num_rows": self._n,
            "sequential": self._sequential,
            "shuffle": self._shuffle_id,
            "permutation": self._permutation(),
            "cells_scanned": self._cells_scanned,
            "cells_saved": self._cells_saved,
            **self.counter_snapshot(),
        }

    def counter_snapshot(self) -> dict[str, object]:
        """Every marginal and joint counter with its counted prefix.

        The part of :meth:`state_snapshot` that a counter cache keeps;
        unlike the full snapshot it never draws the shuffle. Arrays are
        returned live and must not be mutated.
        """
        return {
            "marginals": {
                name: {"counted": counted, "counts": counts}
                for name, (counted, counts) in self._marginals.items()
            },
            "joints": [
                {
                    "first": key[0],
                    "second": key[1],
                    "counted": counted,
                    "counter": counter.snapshot(),
                }
                for key, (counted, counter) in self._joints.items()
            ],
        }

    @classmethod
    def from_state(
        cls,
        store: ColumnSource,
        state: dict[str, object],
        *,
        retain: bool = True,
        backend: str | CountingBackend | None = None,
    ) -> "PrefixSampler":
        """Rebuild a sampler over ``store`` from a :meth:`state_snapshot`.

        The restored sampler continues the scan exactly where the
        snapshot left it: same shuffle, same counted prefixes, same
        ``cells_scanned`` meter. Structural mismatches against ``store``
        (row count, counter lengths vs. support sizes, out-of-range
        prefixes) raise :class:`~repro.exceptions.ParameterError` — the
        checkpoint layer's dataset fingerprint should make these
        unreachable, so they guard against hand-edited state only.
        """
        num_rows = int(state["num_rows"])  # type: ignore[arg-type]
        if num_rows != store.num_rows:
            raise ParameterError(
                f"sampler snapshot covers {num_rows} rows but the store has"
                f" {store.num_rows}"
            )
        sequential = bool(state["sequential"])
        sampler = cls(store, sequential=True, retain=retain, backend=backend)
        if not sequential:
            perm = np.asarray(state["permutation"], dtype=np.int64)
            if perm.shape != (num_rows,):
                raise ParameterError(
                    f"snapshot permutation has shape {perm.shape}, expected"
                    f" ({num_rows},)"
                )
            perm.flags.writeable = False
            sampler._sequential = False
            sampler._perm = perm
            sampler._shuffle_id = str(state["shuffle"])
        marginals = state["marginals"]
        assert isinstance(marginals, dict)
        for name, entry in marginals.items():
            if name not in store:
                raise SchemaError(f"snapshot counts unknown attribute {name!r}")
            counted = int(entry["counted"])
            counts = np.asarray(entry["counts"], dtype=np.int64)
            support = store.support_size(name)
            if counts.shape != (support,):
                raise ParameterError(
                    f"marginal snapshot for {name!r} has shape {counts.shape},"
                    f" expected ({support},)"
                )
            if not 0 <= counted <= num_rows:
                raise ParameterError(
                    f"marginal snapshot for {name!r} counts {counted} rows,"
                    f" outside [0, {num_rows}]"
                )
            sampler._marginals[name] = (counted, counts.copy())
        joints = state["joints"]
        assert isinstance(joints, list)
        for entry in joints:
            first, second = str(entry["first"]), str(entry["second"])
            if first not in store or second not in store:
                raise SchemaError(
                    f"snapshot counts unknown attribute pair ({first!r},"
                    f" {second!r})"
                )
            counted = int(entry["counted"])
            if not 0 <= counted <= num_rows:
                raise ParameterError(
                    f"joint snapshot for ({first!r}, {second!r}) counts"
                    f" {counted} rows, outside [0, {num_rows}]"
                )
            counter = JointCounter.from_snapshot(entry["counter"])
            sampler._joints[(first, second)] = (counted, counter)
        sampler._cells_scanned = int(state["cells_scanned"])  # type: ignore[arg-type]
        sampler._cells_saved = int(state.get("cells_saved", 0))  # type: ignore[arg-type]
        return sampler

    def shuffled_prefix(self, num_rows: int) -> np.ndarray:
        """The row indices making up the first ``num_rows`` samples.

        A read-only view: the shuffle may be shared with other samplers
        of the same seed.
        """
        self._check_prefix(num_rows)
        perm = self._permutation()
        if perm is None:
            perm = np.arange(num_rows)
            perm.flags.writeable = False
        return perm[:num_rows]

    def _permutation(self) -> np.ndarray | None:
        """The shuffle, drawn on first use; ``None`` in sequential mode."""
        if self._rng is not None:
            self._perm = _draw_shuffle(self._rng, self._shuffle_id, self._n)
            self._rng = None
        return self._perm

    def _check_prefix(self, num_rows: int) -> None:
        if not 0 < num_rows <= self._n:
            raise ParameterError(
                f"prefix size must be in [1, {self._n}], got {num_rows}"
            )

    def _prefix_rows(self, start: int, stop: int) -> np.ndarray | slice:
        """Row selector for prefix positions ``start:stop``, cached per block.

        Within one adaptive iteration every live column (and joint pair)
        extends its counts over the same ``[start, stop)`` block of the
        shuffle, so the block is materialized once and shared until a
        different block is requested. It is materialized *sorted*: counts
        do not depend on the order of records within a block, and
        ascending row indices make every gather a forward sweep.
        Sequential samplers return a plain slice (the physical order
        needs no gather).
        """
        perm = self._permutation()
        if perm is None:
            return slice(start, stop)
        if self._block_range != (start, stop):
            self._block_range = (start, stop)
            self._block_rows = np.sort(perm[start:stop])
        rows = self._block_rows
        assert rows is not None
        return rows

    # ------------------------------------------------------------------
    # Marginal counts
    # ------------------------------------------------------------------
    def marginal_counts(self, name: str, num_rows: int) -> np.ndarray:
        """Occurrence counts ``m_i`` of ``name`` over the first ``num_rows`` samples.

        The returned array is the sampler's live counter — callers must not
        mutate it. Extending the prefix is incremental: only the new block
        of records is read.

        Raises
        ------
        ParameterError
            If ``num_rows`` is smaller than a prefix already counted for
            this attribute (prefixes only grow) or out of range.
        """
        return self.marginal_counts_batch((name,), num_rows)[name]

    def marginal_counts_batch(
        self, names: Sequence[str], num_rows: int
    ) -> dict[str, np.ndarray]:
        """Occurrence counts of several attributes over the same prefix.

        The batched form of :meth:`marginal_counts` (which delegates
        here): one backend pass counts every requested column, with the
        permutation block materialized once and shared. Counts, cost
        accounting, and error behaviour are identical to issuing the
        equivalent scalar calls — attributes whose counters are at
        different prefixes each extend only their own missing block.

        A column whose counter stands at the start of a pending margin
        over exactly ``[counted, num_rows)`` (left by a dense
        :meth:`joint_counts_batch` call) adds that margin instead of
        gathering; any other pending margin of a requested column is
        dropped.

        Returns the live counter arrays keyed by name (callers must not
        mutate them); duplicate names collapse to one entry.
        """
        self._check_prefix(num_rows)
        ordered: list[str] = []
        seen: set[str] = set()
        for name in names:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        starts: dict[str, int] = {}
        counters: dict[str, np.ndarray] = {}
        for name in ordered:
            state = self._marginals.get(name)
            if state is None:
                counted = 0
                counts = np.zeros(self._store.support_size(name), dtype=np.int64)
            else:
                counted, counts = state
            if num_rows < counted:
                raise ParameterError(
                    f"prefix for {name!r} already at {counted} rows; cannot"
                    f" shrink to {num_rows} (prefix samples only grow)"
                )
            if self._counter_cache is not None and counted < num_rows:
                served = self._counter_cache.best_marginal(
                    name, counted, num_rows
                )
                if served is not None:
                    # Jump the counter to the cached prefix; the block
                    # below then extends only the remaining rows.
                    counted, counts = served
                    self._cells_saved += counted - (
                        0 if state is None else state[0]
                    )
                    self._marginals[name] = (counted, counts)
            starts[name] = counted
            counters[name] = counts
        # Group extensions by their start offset (counters at different
        # prefixes need different blocks) so each block is gathered once;
        # a pending margin of exactly the missing block is added instead.
        by_start: dict[int, list[str]] = {}
        for name in ordered:
            start = starts[name]
            pending = self._pending.pop(name, None)
            if start == num_rows:
                continue
            if pending is not None and pending[:2] == (start, num_rows):
                counters[name] += pending[2]
                self._cells_scanned += num_rows - start
                self._marginals[name] = (num_rows, counters[name])
            else:
                by_start.setdefault(start, []).append(name)
        for start, group in by_start.items():
            rows = self._prefix_rows(start, num_rows)
            fresh = self._backend.count_columns(
                [self._store.column(name) for name in group],
                [counters[name].shape[0] for name in group],
                rows,
            )
            for name, delta in zip(group, fresh):
                counters[name] += delta
                self._cells_scanned += num_rows - start
                self._marginals[name] = (num_rows, counters[name])
        return counters

    # ------------------------------------------------------------------
    # Joint counts
    # ------------------------------------------------------------------
    def joint_counts(self, first: str, second: str, num_rows: int) -> JointCounter:
        """Joint occurrence counts of ``(first, second)`` over the prefix.

        The pair key is order-sensitive only in naming; ``(a, b)`` and
        ``(b, a)`` share one counter internally (joint entropy is
        symmetric).
        """
        return self.joint_counts_batch(first, (second,), num_rows)[second]

    def joint_counts_batch(
        self, first: str, seconds: Sequence[str], num_rows: int
    ) -> dict[str, JointCounter]:
        """Joint counts of ``first`` with each of ``seconds`` over the prefix.

        The batched form of :meth:`joint_counts` (which delegates here).
        Dense pairs extending over the same block are counted by one
        :meth:`~repro.data.backends.CountingBackend.count_pairs` call,
        which gathers the ``first`` block once. The row and column sums
        of each pair's block table are left as pending margins of
        ``first`` and the second attribute, so a following
        :meth:`marginal_counts_batch` over the same block reads neither
        column again. Sparse pairs are counted by
        :meth:`JointCounter.update`. Counts, cost accounting, and error
        behaviour are identical to the equivalent scalar calls.

        Returns the live counters keyed by the second attribute's name;
        duplicate names collapse to one entry.
        """
        self._check_prefix(num_rows)
        out: dict[str, JointCounter] = {}
        # start offset -> dense pairs extending over [start, num_rows)
        dense: dict[int, list[_DensePair]] = {}
        try:
            for second in seconds:
                if second in out:
                    continue
                if first == second:
                    raise SchemaError(
                        f"joint counts of an attribute with itself ({first!r})"
                        " are the marginal counts; use marginal_counts()"
                    )
                key = (first, second) if first <= second else (second, first)
                state = self._joints.get(key)
                if state is None:
                    counted = 0
                    counter = JointCounter(
                        self._store.support_size(key[0]),
                        self._store.support_size(key[1]),
                    )
                else:
                    counted, counter = state
                if num_rows < counted:
                    raise ParameterError(
                        f"prefix for pair {key!r} already at {counted} rows;"
                        f" cannot shrink to {num_rows}"
                    )
                if self._counter_cache is not None and counted < num_rows:
                    served_joint = self._counter_cache.best_joint(
                        key[0], key[1], counted, num_rows
                    )
                    if served_joint is not None:
                        previous = counted
                        counted, counter = served_joint
                        self._cells_saved += 2 * (counted - previous)
                        self._joints[key] = (counted, counter)
                if num_rows > counted and counter.is_dense:
                    dense.setdefault(counted, []).append((second, key, counter))
                elif num_rows > counted:
                    rows = self._prefix_rows(counted, num_rows)
                    blocks = (
                        self._store.column(key[0])[rows],
                        self._store.column(key[1])[rows],
                    )
                    counter.update(*blocks)
                    self._cells_scanned += 2 * (num_rows - counted)
                    self._joints[key] = (num_rows, counter)
                out[second] = counter
        finally:
            # Count the dense pairs gathered so far even when a later
            # pair raises, as the scalar calls would have.
            self._count_dense_pairs(first, dense, num_rows)
        return out

    def _count_dense_pairs(
        self, first: str, dense: dict[int, list[_DensePair]], num_rows: int
    ) -> None:
        """Count dense pairs per block, leaving their margins pending."""
        first_support = self._store.support_size(first)
        first_margins: dict[int, np.ndarray] = {}
        for start, group in dense.items():
            supports = [self._store.support_size(second) for second, _, _ in group]
            deltas = self._backend.count_pairs(
                self._store.column(first),
                first_support,
                [self._store.column(second) for second, _, _ in group],
                supports,
                self._prefix_rows(start, num_rows),
            )
            for (second, key, counter), support, delta in zip(
                group, supports, deltas
            ):
                table = delta.reshape(first_support, support)
                counter.add_table(table if key[0] == first else table.T)
                self._cells_scanned += 2 * (num_rows - start)
                self._joints[key] = (num_rows, counter)
                self._pending[second] = (start, num_rows, table.sum(axis=0))
            first_margins[start] = table.sum(axis=1)
        if first_margins:
            # One pending slot per attribute: prefer the block the first
            # attribute's marginal counter would extend over next.
            start = self.counted_prefix(first)
            if start not in first_margins:
                start = next(iter(first_margins))
            self._pending[first] = (start, num_rows, first_margins[start])

    # ------------------------------------------------------------------
    # Cache hygiene
    # ------------------------------------------------------------------
    def release(self, name: str) -> None:
        """Drop the marginal counter of ``name`` (e.g. after pruning).

        Joint counters involving ``name`` are also dropped, as is a
        pending margin of ``name``. Releasing an attribute that was never
        counted is a no-op, as is any release on a sampler constructed
        with ``retain=True``.
        """
        if self._retain:
            return
        self._pending.pop(name, None)
        self._marginals.pop(name, None)
        for key in [k for k in self._joints if name in k]:
            self._joints.pop(key)
