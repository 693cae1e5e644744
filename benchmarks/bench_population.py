"""Bench: population-tensor engine vs per-user loop, to BENCH_population.json.

Not a paper artefact — this guards the scaling layer: the population
engine of :mod:`repro.core.popsim` must beat the per-user ``run_fast``
loop in users/sec on the BENCH_sweep config (about 4x since ``run_fast``
decides per batch, 12.7x before), and a 100k-user synthetic store must
stream through it memory-mapped in bounded memory (peak RSS is recorded
per stage). The per-user engine at
the 5k/100k scales is measured on a user sample and extrapolated — the
whole point is that running it in full is too slow.

Run standalone (writes ``BENCH_population.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_population.py
    PYTHONPATH=src python benchmarks/bench_population.py --sizes 5000 --sample 500

or via pytest (a scaled-down smoke pass)::

    PYTHONPATH=src python -m pytest benchmarks/bench_population.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.account import CostModel
from repro.core.fastsim import ENGINE_VERSION, FastPolicyKind, run_fast
from repro.core.popsim import (
    DEFAULT_BLOCK_USERS,
    prepare_population,
    run_population,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import build_experiment_population
from repro.experiments.runner import run_sweep
from repro.workload import store as store_module
from repro.workload.store import PopulationStore

PHIS = (0.75, 0.5, 0.25)

#: Period of the synthetic large-scale populations (a 2-period horizon
#: keeps the 100k demand matrix at ~150 MB on disk).
SYNTHETIC_PERIOD = 96


def _peak_rss_mb() -> float:
    """Process high-water resident set size, in MB (Linux: ru_maxrss KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _policy_runs_per_user() -> int:
    """Policies evaluated per user: Keep + 3 online + 3 all-selling."""
    return 1 + 2 * len(PHIS)


def synthesize_store(
    root: Path, n_users: int, horizon: int, seed: int, block_users: int = 8192
) -> Path:
    """Write a synthetic population store block-by-block (bounded memory:
    the dense demand matrix goes straight into an on-disk ``.npy``)."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    demands = np.lib.format.open_memmap(
        root / store_module._DEMANDS_FILE,
        mode="w+",
        dtype=np.int64,
        shape=(n_users, horizon),
    )
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    hour_parts, count_parts = [], []
    nnz = 0
    for start in range(0, n_users, block_users):
        stop = min(start + block_users, n_users)
        demands[start:stop] = rng.integers(0, 6, size=(stop - start, horizon))
        sparse = np.where(
            rng.random((stop - start, horizon)) < 0.05,
            rng.integers(1, 4, size=(stop - start, horizon)),
            0,
        )
        rows, cols = np.nonzero(sparse)
        per_row = np.bincount(rows, minlength=stop - start)
        indptr[start + 1 : stop + 1] = nnz + np.cumsum(per_row)
        nnz += rows.size
        hour_parts.append(cols.astype(np.int64))
        count_parts.append(sparse[rows, cols].astype(np.int64))
    demands.flush()
    del demands
    np.save(root / store_module._RES_INDPTR_FILE, indptr)
    np.save(root / store_module._RES_HOURS_FILE, np.concatenate(hour_parts))
    np.save(root / store_module._RES_COUNTS_FILE, np.concatenate(count_parts))
    meta = {
        "format": store_module.STORE_FORMAT,
        "n_users": n_users,
        "horizon": horizon,
        "user_ids": None,
        "groups": None,
        "cvs": None,
        "imitators": None,
    }
    with (root / store_module._META_FILE).open("w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return root


def _run_all_policies_fast(demands_row, reservations_row, model) -> None:
    run_fast(demands_row, reservations_row, model, kind=FastPolicyKind.KEEP_RESERVED)
    for phi in PHIS:
        run_fast(demands_row, reservations_row, model, phi=phi)
    for phi in PHIS:
        run_fast(
            demands_row, reservations_row, model, phi=phi,
            kind=FastPolicyKind.ALL_SELLING,
        )


def _run_all_policies_population(demands, reservations, model) -> None:
    prepared = prepare_population(demands, reservations, model.period)
    run_population(
        demands, reservations, model, kind=FastPolicyKind.KEEP_RESERVED,
        precomputed=prepared,
    )
    for phi in PHIS:
        run_population(demands, reservations, model, phi=phi, precomputed=prepared)
    for phi in PHIS:
        run_population(
            demands, reservations, model, phi=phi,
            kind=FastPolicyKind.ALL_SELLING, precomputed=prepared,
        )


def measure_store_population(store: PopulationStore, model: CostModel) -> dict:
    """Stream every user-block of a (possibly mmapped) store through the
    population engine, full policy set."""
    began = time.perf_counter()
    for start, stop in store.iter_blocks(DEFAULT_BLOCK_USERS):
        _run_all_policies_population(
            store.demands_block(start, stop),
            store.reservations_block(start, stop),
            model,
        )
    seconds = time.perf_counter() - began
    return {
        "engine": "population",
        "users": store.n_users,
        "seconds": round(seconds, 4),
        "users_per_second": round(store.n_users / seconds, 2) if seconds else None,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def measure_store_per_user(
    store: PopulationStore, model: CostModel, sample: int
) -> dict:
    """Per-user loop over a user sample of the store (extrapolated)."""
    sample = min(sample, store.n_users)
    demands = store.demands_block(0, sample)
    reservations = store.reservations_block(0, sample)
    began = time.perf_counter()
    for user in range(sample):
        _run_all_policies_fast(demands[user], reservations[user], model)
    seconds = time.perf_counter() - began
    record = {
        "engine": "per-user",
        "users": store.n_users,
        "sample_users": sample,
        "seconds": round(seconds, 4),
        "users_per_second": round(sample / seconds, 2) if seconds else None,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    if sample < store.n_users:
        record["note"] = (
            f"measured on the first {sample} of {store.n_users} users and "
            "extrapolated; a full per-user pass at this scale is the cost "
            "this engine exists to avoid"
        )
    return record


def measure_sweep_engines(config: ExperimentConfig) -> dict:
    """Both run_sweep engines on the BENCH_sweep config (full policy set
    incl. All-Selling, serial, no cache): the users/sec gap between them."""
    population = build_experiment_population(config)
    record: dict = {"users": len(population)}
    for engine in ("user", "population"):
        sweep = run_sweep(config, users=population, engine=engine)
        simulate = sweep.timing.stage_seconds["simulate"]
        record[engine] = {
            "simulate_seconds": round(simulate, 4),
            "users_per_second": (
                round(len(population) / simulate, 2) if simulate else None
            ),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
        }
    user_rate = record["user"]["users_per_second"] or 0.0
    population_rate = record["population"]["users_per_second"] or 0.0
    if user_rate:
        record["speedup"] = round(population_rate / user_rate, 2)
    return record


def run_bench(
    sizes: "tuple[int, ...]" = (5_000, 100_000),
    sample: int = 1_000,
    store_root: "Path | None" = None,
    sweep_config: "ExperimentConfig | None" = None,
) -> dict:
    """Measure both engines at the sweep scale and at synthetic scales."""
    config = sweep_config if sweep_config is not None else ExperimentConfig.default()
    sweep_record = measure_sweep_engines(config)

    synthetic_config = ExperimentConfig(
        users_per_group=1, period_hours=SYNTHETIC_PERIOD, seed=7, label="synthetic"
    )
    model = synthetic_config.cost_model()
    horizon = synthetic_config.horizon
    scale_runs = []
    with tempfile.TemporaryDirectory(
        dir=str(store_root) if store_root is not None else None
    ) as scratch:
        for n_users in sizes:
            root = synthesize_store(
                Path(scratch) / f"pop-{n_users}", n_users, horizon, seed=n_users
            )
            store = PopulationStore.load(root, mmap=True)
            scale_runs.append(
                {
                    "users": n_users,
                    "horizon": horizon,
                    "mmap": True,
                    "population": measure_store_population(store, model),
                    "per_user": measure_store_per_user(store, model, sample),
                }
            )

    notes = [
        "peak_rss_mb is the process-lifetime high-water mark "
        "(resource.getrusage), so later stages can only report values >= "
        "earlier ones; the 100k-user run staying near the earlier marks is "
        "the bounded-memory evidence — the store streams through "
        f"{DEFAULT_BLOCK_USERS}-user blocks of a memory-mapped matrix "
        "instead of materialising the whole population tensor.",
        "per-user rates at the synthetic scales are sample-extrapolated "
        "(see each run's note); the sweep-config rates are measured in full.",
    ]

    return {
        "benchmark": "population_engine",
        "version": __version__,
        "engine_version": ENGINE_VERSION,
        "created_unix": round(time.time(), 3),
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "label": config.label,
            "total_users": config.total_users,
            "period_hours": config.period_hours,
            "horizon_hours": config.horizon,
            "policies_per_user": _policy_runs_per_user(),
        },
        "sweep_config_comparison": sweep_record,
        "scale_runs": scale_runs,
        "notes": notes,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[5_000, 100_000], metavar="N"
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=1_000,
        metavar="N",
        help="per-user engine sample size at the synthetic scales",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_population.json"), metavar="FILE"
    )
    args = parser.parse_args(argv)
    record = run_bench(sizes=tuple(args.sizes), sample=args.sample)
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    comparison = record["sweep_config_comparison"]
    print(
        f"  sweep config ({comparison['users']} users): "
        f"per-user {comparison['user']['users_per_second']} u/s, "
        f"population {comparison['population']['users_per_second']} u/s "
        f"({comparison.get('speedup', '?')}x)"
    )
    for run in record["scale_runs"]:
        print(
            f"  {run['users']} users: population "
            f"{run['population']['users_per_second']} u/s, per-user "
            f"{run['per_user']['users_per_second']} u/s (sampled), "
            f"peak RSS {run['population']['peak_rss_mb']} MB"
        )
    return 0


# ---------------------------------------------------------------------------
# pytest smoke pass (scaled down: correctness of the record, not the numbers)
# ---------------------------------------------------------------------------


def test_bench_record_shape(tmp_path):
    tiny = ExperimentConfig(users_per_group=2, period_hours=96, seed=3, label="bench")
    record = run_bench(
        sizes=(64,), sample=16, store_root=tmp_path, sweep_config=tiny
    )
    assert record["benchmark"] == "population_engine"
    assert record["engine_version"] == ENGINE_VERSION
    comparison = record["sweep_config_comparison"]
    assert comparison["users"] == tiny.total_users
    assert comparison["population"]["users_per_second"] > 0
    (run,) = record["scale_runs"]
    assert run["users"] == 64
    assert run["per_user"]["sample_users"] == 16
    assert "extrapolated" in run["per_user"]["note"]
    assert run["population"]["peak_rss_mb"] > 0


def test_synthetic_store_round_trips(tmp_path):
    root = synthesize_store(tmp_path / "s", n_users=10, horizon=24, seed=1)
    store = PopulationStore.load(root)
    assert (store.n_users, store.horizon) == (10, 24)
    dense = store.reservations_block(0, 10)
    assert np.array_equal(store.reserved_totals(), dense.sum(axis=1))


if __name__ == "__main__":
    raise SystemExit(main())
