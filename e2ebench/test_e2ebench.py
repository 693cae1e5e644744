"""The benchmark's own tests: every workload untraced and traced at a
small size, the metric names against BENCHMARK.json, the span
arithmetic, and the refusal to run without the package source.

Run from the repository root::

    python3 -m pytest e2ebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

#: Not the default seed, so the tests cover another input.
SEED = 5


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "e2ebench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "small",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_checked_and_names_match(workload: str, trace: int) -> None:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()
    section = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    # Every metric of the section, on every workload.
    assert set(result["metrics"]) == set(units)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], float)
    # The record keeps the end-to-end view in both modes (tracing
    # overhead is the traced record minus the untraced one).
    assert set(record["end_to_end"]) == set(run.END_TO_END)


def test_benchmark_json_covers_every_printed_metric() -> None:
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [metric["name"] for metric in spec["end_to_end"]]
    assert names == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_without_package_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("sweep-paper", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children() -> None:
    tracer = Tracer()

    def leaf() -> None:
        time.sleep(0.02)

    with tracer.span("root"):
        with tracer.span("child"):
            leaf()
        time.sleep(0.01)
        with tracer.span("child"):
            leaf()
    summary = tracer.summary()
    root, child = summary["root"], summary["child"]
    assert child["calls"] == 2
    assert child["self_s"] == pytest.approx(child["total_s"])
    assert root["self_s"] == pytest.approx(root["total_s"] - child["total_s"])
    assert 0.005 < root["self_s"] < 0.05


def test_cross_thread_spans_hang_under_the_open_span_of_their_step() -> None:
    tracer = Tracer()
    tracer.step = 3

    def call() -> None:
        with tracer.span("call"):
            pass

    with tracer.span("router"):
        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    spans = {span.name: span for span in tracer.spans}
    assert spans["call"].parent == spans["router"].span_id
    assert spans["call"].step == spans["router"].step == 3


def test_patched_restores_inherited_and_own_attributes() -> None:
    class Base:
        def method(self) -> str:
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    with patched([(Child, "method", lambda fn: tracer.wrap("m", fn))]):
        assert Child().method() == "base"
        assert "method" in vars(Child)
    assert "method" not in vars(Child)
    assert [span.name for span in tracer.spans] == ["m"]
