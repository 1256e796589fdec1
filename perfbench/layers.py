"""Per-layer metrics from the traced phase's spans.

``_s`` metrics are self time per request (span minus child spans),
summed over the named spans. Layers that run on every workload report
seconds. Cache, durability, trace/metrics I/O and the shuffle
fingerprint run only on some workloads; their time is reported as a
``_share`` of request wall time, so an idle layer reads 0 as a ratio
rather than as a constant time. Counts are per request unless they are
ratios.
"""

from __future__ import annotations

import statistics
from typing import TextIO

from spans import Span, self_times

# metric -> span names whose self time it sums, per request.
SELF_SECONDS = {
    "plan.plan_queries_s": ("plan.plan_queries",),
    "plan.executor_init_s": ("plan.executor_init",),
    "plan.execute_self_s": ("plan.execute",),
    "cost.estimate_s": ("cost.estimate",),
    "engine.loop_self_s": ("engine.loop",),
    "bounds.entropy_intervals_s": ("bounds.entropy_intervals",),
    "bounds.mi_intervals_s": ("bounds.mi_intervals",),
    "sampling.init_s": ("sampling.init",),
    "sampling.marginal_batch_self_s": ("sampling.marginal_batch",),
    "sampling.joint_batch_self_s": ("sampling.joint_batch",),
    "backend.count_columns_s": ("backend.count_columns",),
    "joint.update_s": ("joint.update",),
}
# metric -> span names whose self time it sums, as a share of request time.
SELF_SHARES = {
    "sampling.fingerprint_share": ("sampling.fingerprint",),
    "cache.open_share": ("cache.open",),
    "cache.partition_share": ("cache.partition",),
    "cache.lookup_share": ("cache.lookup",),
    "cache.flush_share": ("cache.flush", "cache.absorb"),
    "checkpoint.encode_share": ("checkpoint.encode",),
    "checkpoint.save_share": ("checkpoint.save",),
    "checkpoint.store_fingerprint_share": ("checkpoint.store_fingerprint",),
    "trace.emit_share": ("trace.open", "trace.emit", "trace.close"),
    "metrics.record_share": ("metrics.record", "metrics.write"),
}

UNITS: dict[str, str] = {
    **{name: "s" for name in SELF_SECONDS},
    "cost.estimate_calls": "count",
    "engine.iterations": "count",
    "bounds.calls": "count",
    "sampling.cells_scanned": "cells",
    "sampling.cells_saved": "cells",
    "sampling.reuse_ratio": "ratio",
    "backend.count_columns_calls": "count",
    "backend.rows_counted": "count",
    "joint.update_calls": "count",
    "joint.rows_counted": "count",
    "store.build_s": "s",
    "store.column_calls": "count",
    "store.major_faults": "count",
    "cache.lookup_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.warm_start_ratio": "ratio",
    "cache.bytes_written": "B",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "B",
    "trace.events": "count",
    "trace.bytes": "B",
    **{name: "ratio" for name in SELF_SHARES},
    "plan.zero_cell_share": "ratio",
    "bytes_written_per_plan": "B",
    "failed_share": "ratio",
    "spans.coverage": "ratio",
    "spans.overhead_s": "s",
}


# Written down before measuring: which end-to-end metric each layer's
# metrics should move, on which workloads, and where they should move
# little or not at all.
SHOULD_MOVE: tuple[tuple[tuple[str, ...], str, str, str], ...] = (
    (("plan.",), "plan_p50_s", "warm_rerun, mixed_cold", "-"),
    (("cost.",), "plan_p50_s", "warm_rerun", "durable_traced"),
    (("engine.", "bounds."), "plan_p50_s", "mixed_cold", "warm_rerun"),
    (("sampling.",), "plan_p50_s, peak_rss_mb", "out_of_core, mixed_cold", "-"),
    (("backend.",), "plan_p50_s", "mixed_cold, out_of_core", "warm_rerun"),
    (("joint.",), "plan_p50_s", "mixed_cold", "warm_rerun"),
    (("store.",), "setup_s, plan_p50_s", "out_of_core", "mixed_cold"),
    (("cache.",), "plan_p50_s, bytes_written_per_plan", "warm_rerun", "all others"),
    (("checkpoint.",), "plan_p50_s, bytes_written_per_plan", "durable_traced",
     "mixed_cold, out_of_core"),
    # The store fingerprint lives in the checkpoint module, but every
    # executor bound to a cache computes it too.
    (("checkpoint.store_fingerprint",), "plan_p50_s", "warm_rerun", "mixed_cold"),
    (("trace.", "metrics."), "plan_p50_s", "durable_traced", "all others"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(spans: list[Span], traced, untraced, e2e: dict[str, float]) -> dict[str, float]:
    """Every metric in :data:`UNITS`, from the traced phase's spans."""
    own = self_times(spans)
    in_request = [
        (span, time)
        for span, time in zip(spans, own)
        if span.request is not None and span.request >= 0
    ]
    requests = [span for span, _ in in_request if span.name == "request"]
    count = len(requests)
    wall = sum(span.duration for span in requests)

    def self_sum(names: tuple[str, ...]) -> float:
        return sum(time for span, time in in_request if span.name in names)

    def calls(*names: str) -> int:
        return sum(1 for span, _ in in_request if span.name in names)

    def counted(key: str, *names: str) -> int:
        return sum(
            span.counts.get(key, 0)
            for span, _ in in_request
            if not names or span.name in names
        )

    values: dict[str, float] = {
        name: self_sum(names) / count for name, names in SELF_SECONDS.items()
    }
    values.update(
        {name: _ratio(self_sum(names), wall) for name, names in SELF_SHARES.items()}
    )
    scanned = counted("cells_scanned")
    saved = counted("cells_saved")
    lookups = calls("cache.lookup")
    warm = calls("cache.warm")
    setup_build: dict[int, float] = {}
    for span, time in zip(spans, own):
        if span.request is not None and span.request < 0:
            setup_build.setdefault(span.request, 0.0)
            if span.name == "store.build":
                setup_build[span.request] += time
    values.update(
        {
            "cost.estimate_calls": calls("cost.estimate") / count,
            "engine.iterations": counted("iterations", "engine.loop") / count,
            "bounds.calls": calls("bounds.entropy_intervals", "bounds.mi_intervals")
            / count,
            "sampling.cells_scanned": scanned / count,
            "sampling.cells_saved": saved / count,
            "sampling.reuse_ratio": _ratio(saved, scanned + saved),
            "backend.count_columns_calls": calls("backend.count_columns") / count,
            "backend.rows_counted": counted("rows", "backend.count_columns") / count,
            "joint.update_calls": calls("joint.update") / count,
            "joint.rows_counted": counted("rows", "joint.update") / count,
            "store.build_s": statistics.median(setup_build.values()),
            "store.column_calls": counted("column_calls") / count,
            "store.major_faults": traced.major_faults / count,
            "cache.lookup_calls": lookups / count,
            "cache.hit_ratio": _ratio(counted("hit", "cache.lookup"), lookups),
            "cache.warm_start_ratio": _ratio(counted("hit", "cache.warm"), warm),
            "cache.bytes_written": counted("bytes", "cache.flush") / count,
            "checkpoint.saves": calls("checkpoint.save") / count,
            "checkpoint.bytes": counted("bytes", "checkpoint.save") / count,
            "trace.events": calls("trace.emit") / count,
            "trace.bytes": counted("bytes", "trace.open", "trace.emit", "trace.close")
            / count,
            "plan.zero_cell_share": _ratio(
                sum(1 for r in traced.requests if r is not None and r.counters["cells"] == 0),
                count,
            ),
            "bytes_written_per_plan": e2e["bytes_written_per_plan"],
            "failed_share": e2e["failed_share"],
            "spans.coverage": _ratio(
                wall - sum(time for span, time in in_request if span.name == "request"),
                wall,
            ),
            "spans.overhead_s": statistics.median(traced.latencies)
            - statistics.median(untraced.latencies),
        }
    )
    return values


def print_layers(values: dict[str, float], out: TextIO) -> None:
    print("per-layer (traced half; per request unless a ratio):", file=out)
    for name, unit in UNITS.items():
        print(f"  {name:36s} {values[name]:<14.6g} {unit}", file=out)
    print("layer map (layer: moves metric | on workloads | little or none on):",
          file=out)
    for prefixes, moves, on, little in SHOULD_MOVE:
        print(f"  {'/'.join(prefixes):18s} {moves:36s} | {on:24s} | {little}",
              file=out)
