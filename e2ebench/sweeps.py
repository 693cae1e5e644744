"""The two sweep workloads: ``sweep-paper`` and ``sweep-opt``.

Both drive ``repro.experiments.runner.run_sweep`` (and, for
``sweep-paper``, ``SweepResult.to_csv``) in this process with
``workers=1``. Every timed sweep is bracketed by the host probe of
:mod:`hostref` and reported normalised; the raw medians go to the run
record beside them.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable

import hostref
from common import (
    SETUP_REPEATS,
    Checks,
    RunResult,
    import_seconds,
    median,
    peak_rss_mb,
)
from tracing import Tracer, patched

import repro.core.fastsim as fastsim
import repro.core.offline as offline
import repro.experiments.population as population
import repro.experiments.runner as runner
import repro.purchasing.base as purchasing_base
from repro.core.clearing import ClearingModel
from repro.core.policies import POLICY_OPT
from repro.experiments.config import ExperimentConfig
from repro.parallel.cache import ResultCache

#: Modules a fresh interpreter imports during each set-up repeat.
SWEEP_MODULES = ("repro.experiments.runner", "repro.core.clearing")

#: Timed iterations run even when ``--seconds`` is already spent.
MIN_ITERATIONS = 3

#: sweep-opt's extra policies: the ``liquidity`` experiment's shape.
OPT_POLICIES = (
    "randomized:seed=7,spots=0.25|0.5|0.75",
    "cancellation:phi=0.75,penalty=0.25",
)
OPT_CLEARING = ("normal", 7)

#: Iteration ``i`` of a run with seed ``s`` builds its population from
#: config seed ``s * SEED_STRIDE + i``. A sweep's cost depends on the
#: users drawn (150-user populations of ten seeds differed by up to
#: 1.2x, the same seeds slowest in two sets of runs; 15-user ones by up
#: to 1.7x), so each iteration draws fresh users and a run's figure
#: averages many populations.
SEED_STRIDE = 100_000

#: The warm-up iterations of set-up sweep this fixed population, so
#: set-up time does not depend on the users a seed drew.
WARM_UP_SEED = ExperimentConfig.default().seed

#: ``--size small`` shrinks every input for the benchmark's own tests.
_SMALL = {"users_per_group": 2, "period_hours": 64}


def paper_config(seed: int, size: str) -> ExperimentConfig:
    config = ExperimentConfig.default(seed=seed)
    return config.scaled(**_SMALL) if size == "small" else config


def opt_config(seed: int, size: str) -> ExperimentConfig:
    config = ExperimentConfig.default(seed=seed).scaled(
        users_per_group=5, policies=OPT_POLICIES
    )
    return config.scaled(**_SMALL) if size == "small" else config


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

#: Span name -> the per-layer metric stem its self time reports under.
_SPAN_METRICS = {
    "workload.build_population": "workload.build_population",
    "purchasing.imitate": "purchasing.imitate",
    "core.fastsim.run_fast": "core.fastsim.run_fast",
    "core.popsim.run_population": "core.popsim.run_population",
    "core.offline.search": "core.offline.search",
    "core.simulator.run_policy": "core.simulator.run_policy",
    "parallel.cache.get": "parallel.cache.get",
    "parallel.cache.put": "parallel.cache.put",
    "experiments.runner.to_csv": "experiments.runner.to_csv",
    "experiments.runner.run_sweep": "experiments.runner.self",
}


def _targets(tracer: Tracer) -> list:
    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(name, fn)

    popsim = span("core.popsim.run_population")
    return [
        (population, "build_population", span("workload.build_population")),
        (population, "imitate", span("purchasing.imitate")),
        (
            purchasing_base.ActiveReservationTracker,
            "advance_to",
            lambda fn: tracer.counting("purchasing.advance_to", fn),
        ),
        # The runner holds its own reference; OPT's start schedules
        # import run_fast from the module at call time.
        (runner, "run_fast", span("core.fastsim.run_fast")),
        (fastsim, "run_fast", span("core.fastsim.run_fast")),
        (runner, "prepare_population", popsim),
        (runner, "run_population", popsim),
        (runner, "run_population_randomized", popsim),
        (runner, "run_offline_optimal", span("core.offline.opt")),
        (offline, "offline_optimal_schedule", span("core.offline.search")),
        (offline, "run_policy", span("core.simulator.run_policy")),
        (ResultCache, "get", span("parallel.cache.get")),
        (ResultCache, "put", span("parallel.cache.put")),
        (runner.SweepResult, "to_csv", span("experiments.runner.to_csv")),
        (runner, "run_sweep", span("experiments.runner.run_sweep")),
    ]


def _layer_metrics(tracer: Tracer, wall_s: float) -> "dict[str, float]":
    """One iteration's per-layer numbers, from the spans it left."""
    summary = tracer.summary()

    def entry(name: str) -> "dict[str, float]":
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {
        f"{stem}_s": entry(name)["self_s"] for name, stem in _SPAN_METRICS.items()
    }
    metrics["purchasing.imitate_calls"] = entry("purchasing.imitate")["calls"]
    metrics["purchasing.advance_to_calls"] = tracer.counts["purchasing.advance_to"]
    metrics["core.fastsim.run_fast_calls"] = entry("core.fastsim.run_fast")["calls"]
    metrics["core.popsim.run_population_calls"] = entry(
        "core.popsim.run_population"
    )["calls"]
    metrics["core.offline.opt_calls"] = entry("core.offline.opt")["calls"]
    metrics["parallel.cache.get_calls"] = entry("parallel.cache.get")["calls"]
    metrics["parallel.cache.put_calls"] = entry("parallel.cache.put")["calls"]
    attributed = sum(entry(name)["self_s"] for name in _SPAN_METRICS)
    metrics["sweep.unattributed_s"] = wall_s - attributed
    return metrics


# ----------------------------------------------------------------------
# The measurement loop
# ----------------------------------------------------------------------


class _Phases:
    """Timed phases sampled by a :class:`hostref.HostSpeed`, each followed
    by a full host probe (the first is preceded by one)."""

    def __init__(self, host: hostref.HostSpeed) -> None:
        self.host = host
        self.refs_ms = [host.probe()]
        self.steal_before = hostref.steal_s()
        self.raw_s: "dict[str, list[float]]" = {}
        self.norm_s: "dict[str, list[float]]" = {}
        #: Wall time including the sampler's slices (what spans see).
        self.elapsed_s = 0.0

    def run(self, name: str, body: Callable[[], object]) -> object:
        began = time.perf_counter()
        value = body()
        ended = time.perf_counter()
        self.elapsed_s += ended - began
        self.refs_ms.append(self.host.probe())
        raw, normalised = self.host.timed(began, ended, median(self.refs_ms[-2:]))
        self.raw_s.setdefault(name, []).append(raw)
        self.norm_s.setdefault(name, []).append(normalised)
        return value

    def record(self) -> "dict[str, object]":
        return {
            "host_ref_ms": {
                "median": median(self.refs_ms),
                "min": min(self.refs_ms),
                "max": max(self.refs_ms),
                "probes": len(self.refs_ms),
                "nominal": hostref.REF_NOMINAL_MS,
                "steal_s": hostref.steal_s() - self.steal_before,
            },
            "raw_median_s": {k: median(v) for k, v in self.raw_s.items()},
            "normalised_median_s": {k: median(v) for k, v in self.norm_s.items()},
            "raw_s": self.raw_s,
            "normalised_s": self.norm_s,
            "iterations": len(next(iter(self.raw_s.values()), [])),
        }


def _measure(
    seconds: float,
    iteration: Callable[[_Phases, Checks], None],
    tracer: "Tracer | None",
    checks: Checks,
) -> "tuple[_Phases, list[dict[str, float]]]":
    """Run ``iteration`` until ``seconds`` are spent (at least
    :data:`MIN_ITERATIONS` times); with a tracer, the layers are patched
    for the whole phase and reduced to numbers after every iteration."""
    layers: "list[dict[str, float]]" = []
    deadline = time.perf_counter() + seconds
    targets = _targets(tracer) if tracer is not None else []
    with hostref.HostSpeed() as host, patched(targets):
        phases = _Phases(host)
        done = 0
        while done < MIN_ITERATIONS or time.perf_counter() < deadline:
            before = phases.elapsed_s
            iteration(phases, checks)
            done += 1
            if tracer is not None:
                layers.append(_layer_metrics(tracer, phases.elapsed_s - before))
                tracer.reset()
    return phases, layers


def _setup_seconds(warm_up: Callable[[], None], src: Path) -> "tuple[list[float], list[float]]":
    """:data:`SETUP_REPEATS` set-ups, each a fresh interpreter's imports
    plus one discarded warm-up iteration; returns raw and normalised
    seconds."""
    raw: "list[float]" = []
    normalised: "list[float]" = []
    with hostref.HostSpeed() as host:
        refs_ms = [host.probe()]
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            import_seconds(src, SWEEP_MODULES)
            warm_up()
            ended = time.perf_counter()
            refs_ms.append(host.probe())
            wall, scaled = host.timed(began, ended, median(refs_ms[-2:]))
            raw.append(wall)
            normalised.append(scaled)
    return raw, normalised


def _per_layer(layers: "list[dict[str, float]]", phases: _Phases) -> "dict[str, float]":
    names = layers[0].keys()
    result = {name: median([layer[name] for layer in layers]) for name in names}
    result["host_ref_ms"] = median(phases.refs_ms)
    return result


# ----------------------------------------------------------------------
# sweep-paper
# ----------------------------------------------------------------------


def _hit_ratio(result: "runner.SweepResult") -> float:
    timing = result.timing
    lookups = timing.cache_hits + timing.cache_misses
    return timing.cache_hits / lookups if lookups else 0.0


def run_paper(
    seed: int, seconds: float, trace: bool, size: str, work_root: Path, src: Path
) -> RunResult:
    checks = Checks()
    first: "list[runner.UserOutcome]" = []
    users_done: "list[int]" = []
    warm_ratios: "list[float]" = []

    def pair(
        config: ExperimentConfig, work: Path, phases: "_Phases | None" = None
    ) -> "tuple[runner.SweepResult, runner.SweepResult]":
        """The cold sweep into ``work``'s cache and the warm rerun from it."""

        def sweep(csv_name: str) -> "runner.SweepResult":
            result = runner.run_sweep(
                config, workers=1, cache=str(work / "cache"), engine="user"
            )
            result.to_csv(work / csv_name)
            return result

        if phases is None:
            return sweep("cold.csv"), sweep("warm.csv")
        cold = phases.run("cold", lambda: sweep("cold.csv"))
        return cold, phases.run("warm", lambda: sweep("warm.csv"))

    def warm_up() -> None:
        with tempfile.TemporaryDirectory(dir=work_root) as directory:
            pair(paper_config(WARM_UP_SEED, size), Path(directory))

    def iteration(phases: _Phases, checks: Checks) -> None:
        config = paper_config(seed * SEED_STRIDE + len(users_done), size)
        with tempfile.TemporaryDirectory(dir=work_root) as directory:
            work = Path(directory)
            cold, warm = pair(config, work, phases)
            same_csv = (work / "cold.csv").read_bytes() == (work / "warm.csv").read_bytes()
        users_done.append(config.total_users)
        checks.check(
            cold.outcomes == warm.outcomes and same_csv,
            "warm rerun differs from the cold sweep",
        )
        checks.check(_hit_ratio(cold) == 0.0, "cold sweep hit the cache")
        checks.check(_hit_ratio(warm) == 1.0, "warm rerun missed the cache")
        warm_ratios.append(_hit_ratio(warm))
        if not first:
            first.extend(cold.outcomes)

    setup_raw, setup = _setup_seconds(warm_up, src)
    tracer = Tracer() if trace else None
    phases, layers = _measure(seconds, iteration, tracer, checks)

    # Outside the timed phase: the first population again, through both
    # engines, must give the first iteration's outcomes bit for bit.
    config = paper_config(seed * SEED_STRIDE, size)
    cohort = population.build_experiment_population(config)
    by_user = runner.run_sweep(config, users=cohort, workers=1, engine="user")
    by_block = runner.run_sweep(config, users=cohort, workers=1, engine="population")
    checks.check(
        by_user.outcomes == first, "rerun differs from the first iteration"
    )
    checks.check(
        by_block.outcomes == by_user.outcomes,
        "engine='user' and engine='population' disagree",
    )

    def rates(samples: "dict[str, list[float]]") -> "dict[str, float]":
        """Users per second: of the cold sweep, of the warm rerun, and of
        the whole iteration (both sweeps and both CSVs)."""
        cold, warm = samples["cold"], samples["warm"]
        return {
            "users_per_s": median([u / s for u, s in zip(users_done, cold)]),
            "warm_users_per_s": median([u / s for u, s in zip(users_done, warm)]),
            "items_per_s": median(
                [u / (c + w) for u, c, w in zip(users_done, cold, warm)]
            ),
        }

    normalised = rates(phases.norm_s)
    end_to_end = {
        "setup_s": median(setup),
        "items_per_s": normalised["items_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    record = phases.record()
    record.update(
        end_to_end=end_to_end,
        users_per_s=normalised,
        raw_users_per_s=rates(phases.raw_s),
        setup_raw_s=setup_raw,
        setup_normalised_s=setup,
        users=sum(users_done),
        failures=checks.failures,
    )
    metrics = end_to_end
    if trace:
        metrics = _per_layer(layers, phases)
        metrics["parallel.cache.hit_ratio"] = median(warm_ratios)
    return RunResult(metrics, checks.attempted, checks.failed, record)


# ----------------------------------------------------------------------
# sweep-opt
# ----------------------------------------------------------------------


def run_opt(
    seed: int, seconds: float, trace: bool, size: str, work_root: Path, src: Path
) -> RunResult:
    regime, clearing_seed = OPT_CLEARING
    clearing = ClearingModel.for_regime(regime, seed=clearing_seed)
    checks = Checks()
    first: "list[runner.UserOutcome]" = []
    users_done: "list[int]" = []
    reserved_done: "list[int]" = []

    def sweep(config: ExperimentConfig) -> "runner.SweepResult":
        return runner.run_sweep(
            config,
            workers=1,
            include_opt=True,
            include_all_selling=False,
            engine="population",
            clearing=clearing,
        )

    def iteration(phases: _Phases, checks: Checks) -> None:
        # OPT's cost grows with the reserved instances it schedules, so
        # the run's items are instances, whose rate the population
        # barely moves.
        config = opt_config(seed * SEED_STRIDE + len(users_done), size)
        result = phases.run("sweep", lambda: sweep(config))
        users_done.append(config.total_users)
        reserved_done.append(sum(o.instances_reserved for o in result.outcomes))
        for outcome in result.outcomes:
            opt = outcome.costs[POLICY_OPT]
            worse = [
                name
                for name, cost in outcome.costs.items()
                if opt > cost + 1e-9 * max(1.0, abs(cost))
            ]
            checks.check(
                not worse, f"OPT above {worse} for user {outcome.user_id}"
            )
        if not first:
            first.extend(result.outcomes)

    warm_up_config = opt_config(WARM_UP_SEED, size)
    setup_raw, setup = _setup_seconds(lambda: sweep(warm_up_config), src)
    tracer = Tracer() if trace else None
    phases, layers = _measure(seconds, iteration, tracer, checks)
    checks.check(
        sweep(opt_config(seed * SEED_STRIDE, size)).outcomes == first,
        "sweep is not deterministic",
    )

    users = sum(users_done)
    reserved = sum(reserved_done)
    end_to_end = {
        "setup_s": median(setup),
        "items_per_s": reserved / sum(phases.norm_s["sweep"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = phases.record()
    record.update(
        end_to_end=end_to_end,
        raw_items_per_s=reserved / sum(phases.raw_s["sweep"]),
        users_per_s=users / sum(phases.norm_s["sweep"]),
        raw_users_per_s=users / sum(phases.raw_s["sweep"]),
        reserved=reserved_done,
        setup_raw_s=setup_raw,
        setup_normalised_s=setup,
        users=users,
        failures=checks.failures,
    )
    metrics = end_to_end
    if trace:
        metrics = _per_layer(layers, phases)
        metrics["parallel.cache.hit_ratio"] = 0.0
    return RunResult(metrics, checks.attempted, checks.failed, record)
