"""Pieces every workload shares: run results, set-up timing, RSS."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    metrics: "dict[str, float]"
    attempted: int
    failed: int
    #: Everything else worth keeping: raw medians beside the normalised
    #: ones, host probes, sample counts, check outcomes.
    record: "dict[str, object]" = field(default_factory=dict)


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def percentile_report(samples_s: "list[float]") -> "dict[str, float | int]":
    """p50 and p99 in ms, p99 only when at least ten samples lie beyond
    it (so at least 1000 samples)."""
    ordered = sorted(samples_s)
    report: "dict[str, float | int]" = {
        "samples": len(ordered),
        "p50_ms": median(ordered) * 1000.0,
    }
    if len(ordered) >= 1000:
        report["p99_ms"] = statistics.quantiles(ordered, n=100)[98] * 1000.0
    return report


def import_seconds(src: Path, modules: "tuple[str, ...]") -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and exits."""
    env = dict(os.environ, PYTHONPATH=str(src))
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - began


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux
