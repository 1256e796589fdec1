"""The repository's benchmark: one workload, one seed, one closed loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mixed_cold --seed 1 --seconds 20 --trace 0

One client sends one request (a whole query plan) at a time and sends
the next only after the previous one returns. Set-up builds the store
several times and reports the median; exact ground truth and a warm-up
request follow and are not timed. The timed phase then runs requests
for ``--seconds`` (and on to the end of a session, and at least
``MIN_REQUESTS`` requests). Every answer is checked against exact scores
with the Definition 5/6 checks of ``repro.experiments.accuracy``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half with spans around the program's layers (see
``spans.py``), and prints per-layer metrics, span coverage of request
time and the tracing overhead. Either way a human-readable block comes
first and one JSON object is the last line of standard output. The
command exits 1 if any query raised or broke its guarantee, or if a
deterministic counter did not repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

# A tail percentile needs ten samples beyond it, so a run never stops
# before eleven requests.
MIN_REQUESTS = 11
TAIL_BEYOND = 10
# Requests whose counters are pinned in expected_counters.json.
PINNED_REQUESTS = 3
EXPECTED = HERE / "expected_counters.json"
WARM_UP_INDEX = 10**9

END_TO_END_UNITS = {
    "setup_s": "s",
    "plan_p50_s": "s",
    "plan_tail_s": "s",
    "plans_per_s": "1/s",
    "cells_per_plan": "cells",
    "bytes_written_per_plan": "B",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}
# End-to-end metrics that are 0 on some workload by design; they are
# printed on every run but bounded nowhere (see BENCHMARK.json).
UNBOUNDED = ("bytes_written_per_plan", "failed_share")


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SOURCE}; run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))


@dataclass
class Phase:
    """One timed closed loop."""

    latencies: list[float] = field(default_factory=list)
    requests: list[Any] = field(default_factory=list)
    bytes_written: list[int] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_kb: int = 0
    processes: int = 1
    peak_reset: bool = False
    major_faults: int = 0


def timed_phase(workload, seconds: float, tracer) -> Phase:
    """Closed loop for ``seconds``; ``tracer`` records spans if it has them."""
    import procfs

    workload.reset()
    gc.collect()
    procfs.release_free_memory()
    phase = Phase()
    pids = [os.getpid(), *procfs.worker_pids()]
    phase.processes = len(pids)
    phase.peak_reset = procfs.reset_peak_rss(pids)
    faults = procfs.major_faults(pids)
    started = time.perf_counter()
    index = 0
    while True:
        tracer.request = index
        before = tracer.bytes_written
        span = tracer.begin("request") if tracer.record_spans else None
        t0 = time.perf_counter()
        try:
            phase.requests.append(workload.request(index, tracer))
        except Exception as exc:  # a failed request is counted, not fatal
            phase.requests.append(None)
            phase.errors.append((index, f"{type(exc).__name__}: {exc}"))
        finally:
            phase.latencies.append(time.perf_counter() - t0)
            if span is not None:
                tracer.end(span)
        phase.bytes_written.append(tracer.bytes_written - before)
        index += 1
        elapsed = time.perf_counter() - started
        if (
            elapsed >= seconds
            and index >= MIN_REQUESTS
            and index % workload.session_length == 0
        ):
            break
    phase.wall_s = time.perf_counter() - started
    phase.peak_rss_kb = procfs.peak_rss_kb(pids)
    phase.major_faults = procfs.major_faults(pids) - faults
    tracer.request = None
    return phase


def check_answers(workload, phase: Phase) -> tuple[int, int, list[str]]:
    """(queries attempted, queries failed, messages) for one phase."""
    from repro.experiments.accuracy import (
        check_filter_guarantee,
        check_top_k_guarantee,
    )

    attempted = failed = 0
    messages = [f"request {i}: {error}" for i, error in phase.errors]
    for index, request in enumerate(phase.requests):
        specs = workload.specs(index)
        attempted += len(specs)
        if request is None:
            failed += len(specs)
            continue
        for spec in request.plan:
            result = request.results[spec.name]
            scores = {
                name: workload.exact[spec.score][name] for name in spec.attributes
            }
            check = (
                check_top_k_guarantee if spec.kind == "top_k" else check_filter_guarantee
            )
            problems = check(result, scores, spec.epsilon)
            if result.guarantee is not None and not result.guarantee.guarantee_met:
                problems.append(f"guarantee not met ({result.guarantee.stopping_reason})")
            if problems:
                failed += 1
                messages.append(f"request {index} {spec.name}: {'; '.join(problems)}")
    return attempted, failed, messages


def counter_mismatches(workload, phases: list[Phase], scale: float) -> list[str]:
    """Deterministic counters must repeat across phases and match the pins."""
    records = [
        [r.counters if r is not None else None for r in phase.requests]
        for phase in phases
    ]
    problems = []
    # A session replays the same plans on a fresh cache: its counters repeat.
    length = workload.session_length
    if length > 1:
        for records_of_phase in records:
            for index in range(length, len(records_of_phase)):
                if records_of_phase[index] != records_of_phase[index - length]:
                    problems.append(
                        f"request {index}: counters {records_of_phase[index]},"
                        f" {length} requests earlier {records_of_phase[index - length]}"
                    )
    for other in records[1:]:
        for index, (first, second) in enumerate(zip(records[0], other)):
            if first != second:
                problems.append(f"request {index}: counters {first} then {second}")
    if scale == 1.0 and EXPECTED.is_file():
        pinned = json.loads(EXPECTED.read_text()).get(workload.name, {})
        expected = pinned.get(str(workload.seed))
        if expected is not None:
            for index, (want, got) in enumerate(zip(expected, records[0])):
                if want != got:
                    problems.append(
                        f"request {index}: counters {got}, pinned {want}"
                    )
    return problems


def update_expected(workload, phase: Phase) -> None:
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    pinned.setdefault(workload.name, {})[str(workload.seed)] = [
        r.counters for r in phase.requests[:PINNED_REQUESTS]
    ]
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond."""
    ordered = sorted(latencies)
    position = len(ordered) - TAIL_BEYOND - 1
    return ordered[position], 100.0 * (position + 1) / len(ordered)


def end_to_end(workload, setups: list[float], phase: Phase, failed: int,
               attempted: int) -> dict[str, float]:
    cells = [r.counters["cells"] for r in phase.requests if r is not None]
    return {
        "setup_s": statistics.median(setups),
        "plan_p50_s": statistics.median(phase.latencies),
        "plan_tail_s": tail(phase.latencies)[0],
        "plans_per_s": len(phase.latencies) / phase.wall_s,
        "cells_per_plan": statistics.fmean(cells) if cells else 0.0,
        "bytes_written_per_plan": statistics.fmean(phase.bytes_written),
        "peak_rss_mb": phase.peak_rss_kb * 1024 / 1e6,
        "failed_share": failed / attempted,
    }


def report(workload, seconds: float, trace: bool, env_before, env_after,
           setups, phase, e2e, attempted, failed, out: TextIO) -> None:
    nproc = env_before["nproc"]
    ram = env_before["mem_total_bytes"]
    data = workload.dataset_bytes
    load_in = env_before["loadavg"]
    load_out = env_after["loadavg"]
    noisy = load_in[0] > nproc
    zero = sum(1 for r in phase.requests if r is not None and r.counters["cells"] == 0)
    print(f"perfbench workload={workload.name} seed={workload.seed}"
          f" seconds={seconds} trace={int(trace)}", file=out)
    print(f"  why: {workload.why}", file=out)
    print(f"env: nproc={nproc} python={env_before['python']}"
          f" numpy={env_before['numpy']} ram={ram / 1e9:.2f}GB"
          f" load_before={'/'.join(f'{x:.2f}' for x in load_in)}"
          f" load_after={'/'.join(f'{x:.2f}' for x in load_out)}"
          f"{'  NOISY: started with load above nproc' if noisy else ''}", file=out)
    where = "on disk (fits page cache)" if workload.on_disk and data < ram / 2 else (
        "on disk" if workload.on_disk else "in memory")
    print(f"data: {workload.rows:,} rows x {workload.store.num_attributes} columns,"
          f" {data / 1e6:.1f} MB {where}, {100 * data / ram:.2f}% of RAM", file=out)
    _, percentile = tail(phase.latencies)
    notes = {
        "setup_s": f"median of {len(setups)} builds",
        "plan_tail_s": f"p{percentile:.1f} of {len(phase.latencies)} requests,"
                       f" {TAIL_BEYOND} beyond",
        "plans_per_s": f"{len(phase.latencies)} requests in {phase.wall_s:.2f}s,"
                       f" N={workload.rows:,}",
        "cells_per_plan": f"{zero / len(phase.requests):.3f} of requests scan 0 cells",
        "peak_rss_mb": f"dataset {data / 1e6:.1f} MB;"
                       f" rss/dataset {e2e['peak_rss_mb'] * 1e6 / data:.2f};"
                       f" {phase.processes} processes"
                       f"{'' if phase.peak_reset else '; VmHWM reset refused'}",
        "failed_share": f"{failed} of {attempted} queries",
    }
    if trace:
        print("end-to-end (untraced half of a traced run):", file=out)
    for name, unit in END_TO_END_UNITS.items():
        note = notes.get(name, "")
        print(f"  {name:24s} {e2e[name]:<14.6g} {unit:6s} {note}", file=out)
    first = phase.requests[0]
    if first is not None:
        print(f"counters (request 0): {json.dumps(first.counters, sort_keys=True)}",
              file=out)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, out: TextIO = sys.stdout,
        update: bool = False) -> int:
    """Run one workload and print its report; return the exit code."""
    import layers
    import procfs
    from spans import Tracer, installed, write_spans
    from workloads import WORKLOADS

    env_before = procfs.environment()
    workdir = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, scale, workdir)
    tracer = Tracer(spans=bool(trace))
    try:
        setups = []
        with installed(tracer) if trace else nullcontext():
            for repeat in range(workload.setup_repeats):
                tracer.request = -1 - repeat
                with tracer.span("setup"):
                    setups.append(workload.build_store())
        workload.prepare()
        workload.request(WARM_UP_INDEX)
        meter = Tracer(spans=False)
        with installed(meter):
            untraced = timed_phase(workload, seconds / 2 if trace else seconds, meter)
        phases = [untraced]
        if trace:
            with installed(tracer):
                traced = timed_phase(workload, seconds / 2, tracer)
            phases.append(traced)
        if update:
            update_expected(workload, untraced)
        attempted = failed = 0
        messages: list[str] = []
        for phase in phases:
            a, f, m = check_answers(workload, phase)
            attempted, failed, messages = attempted + a, failed + f, messages + m
        mismatches = counter_mismatches(workload, phases, scale)
        e2e = end_to_end(workload, setups, untraced, failed, attempted)
        env_after = procfs.environment()
        report(workload, seconds, trace, env_before, env_after, setups,
               untraced, e2e, attempted, failed, out)
        for message in messages + mismatches:
            print(f"FAIL {message}", file=out)
        if trace:
            per_layer = layers.per_layer(tracer.spans, traced, untraced, e2e)
            layers.print_layers(per_layer, out)
            write_spans(tracer.spans, ROOT / ".perfbench_out"
                        / f"spans-{workload_name}-{seed}.jsonl")
            metrics = {
                name: {"value": per_layer[name], "unit": unit}
                for name, unit in layers.UNITS.items()
            }
        else:
            metrics = {
                name: {"value": e2e[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
                if name not in UNBOUNDED
            }
    finally:
        try:
            workload.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            # No process this run started may outlive it.
            leftover = procfs.stop_children()
            if leftover:
                print(f"note: stopped leftover child processes {leftover}",
                      file=sys.stderr)
    correct = failed == 0 and not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), file=out)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-expected", action="store_true",
        help=f"pin this seed's first {PINNED_REQUESTS} request counters"
             f" in {EXPECTED.name}",
    )
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the run still stops its
    # worker processes and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               update=args.update_expected)


if __name__ == "__main__":
    raise SystemExit(main())
