"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Every workload runs traced and untraced, every metric name is printed,
spans nest inside their parents, and the self times of one request's
spans add up to the request span.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, installed, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.01
SECONDS = 0.2


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed(name: str, trace: bool) -> None:
    out = io.StringIO()
    assert run.run(name, 3, SECONDS, trace, scale=SCALE, out=out) == 0
    text = out.getvalue()
    for metric in run.END_TO_END_UNITS:
        assert f"  {metric} " in text
    result = _last_json(text)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REQUESTS
    expected = (
        layers.UNITS
        if trace
        else {k: u for k, u in run.END_TO_END_UNITS.items() if k not in run.UNBOUNDED}
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["spans.coverage"]["value"] > 0.9


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_nest_and_self_times_sum(name: str, tmp_path: Path) -> None:
    workload = WORKLOADS[name](5, SCALE, tmp_path)
    try:
        workload.build_store()
        workload.prepare()
        tracer = Tracer()
        with installed(tracer):
            phase = run.timed_phase(workload, SECONDS, tracer)
    finally:
        workload.close()
    spans = tracer.spans
    assert len(phase.requests) >= run.MIN_REQUESTS
    assert {s.name for s in spans} >= {"request", "plan.execute", "sampling.init"}
    for span in spans:
        assert span.end >= span.start
        if span.parent is None:
            assert span.name == "request"
            continue
        parent = spans[span.parent]
        assert parent.start <= span.start and span.end <= parent.end
        assert parent.request == span.request
    own = self_times(spans)
    for request in (s for s in spans if s.name == "request"):
        total = sum(t for s, t in zip(spans, own) if s.request == request.request)
        assert total == pytest.approx(request.duration, rel=1e-9, abs=1e-12)


def test_no_child_process_outlives_a_run() -> None:
    """The process backend's workers and resource tracker are all stopped."""
    import procfs

    out = io.StringIO()
    assert run.run("out_of_core", 4, SECONDS, False, scale=SCALE, out=out) == 0
    assert procfs.child_pids() == []


def test_probes_are_removed_after_the_block() -> None:
    from repro.core import engine, plan

    before = (plan.plan_queries, engine.entropy_intervals, plan.PlanExecutor.execute)
    with installed(Tracer()):
        assert plan.plan_queries is not before[0]
        assert engine.entropy_intervals is not before[1]
    assert (plan.plan_queries, engine.entropy_intervals,
            plan.PlanExecutor.execute) == before


def test_a_text_write_is_counted_once(tmp_path: Path) -> None:
    from repro.durability import atomic

    meter = Tracer(spans=False)
    with installed(meter):
        atomic.atomic_write_text(tmp_path / "a.json", "abc")
        with atomic.AtomicTextFile(tmp_path / "b.jsonl") as stream:
            stream.write("de")
    assert meter.bytes_written == 5


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero, no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
