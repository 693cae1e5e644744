"""The ``serve-cluster`` workload.

``start_cluster(N=2, transport="binary", wal_fsync="always")`` behind a
``RouterServer`` on loopback, driven by one closed-loop client on one
keep-alive ``TCP_NODELAY`` connection. Each step POSTs a 250-event
``/v1/events`` batch, then GETs ``/v1/decisions?instance=`` for one
instance of that batch; every 50th step also GETs ``/v1/costs``.
Timings are host-normalised like the sweeps' (see :mod:`hostref`), but
the speed slices run in the client thread *between* steps, never inside
a timed request, one on each CPU since the cluster's processes spread
over all of them; each timing is rescaled by the slices within half a
second of it, raised to :data:`HOST_EXPONENT`. Raw figures go to the run
record.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import hostref
from common import (
    Checks,
    RunResult,
    import_seconds,
    median,
    peak_rss_mb,
    percentile_report,
)
from tracing import Tracer, patched

import repro.serve.transport as transport
from repro.core.account import CostModel
from repro.pricing.catalog import paper_experiment_plan
from repro.serve.shard import (
    RouterRequestHandler,
    RouterServer,
    ShardRouter,
    start_cluster,
)
from repro.serve.server import AdvisoryApp
from repro.serve.state import FleetState

SERVE_MODULES = ("repro.serve.shard",)
SHARDS = 2
PERIOD_HOURS = 64
BATCH_EVENTS = 250
COSTS_EVERY = 50
#: Uncounted steps per set-up: channel dialling, seq resync, warm caches.
WARMUP_STEPS = 8
#: Independent set-ups per run; ``setup_s`` is their median. A serve
#: set-up is short (about 0.5 s) and spreads widely with process start-up
#: (22% over ten runs with 3), so it takes more than the sweeps' 3.
SETUP_REPEATS = 7
#: Measured steps run even when ``--seconds`` is already spent.
MIN_STEPS = 1000
#: A host-speed slice runs between steps this often; each timing is
#: normalised by the slices within SPEED_WINDOW_S of it.
SAMPLE_EVERY_STEPS = 5
SPEED_WINDOW_S = 0.5
#: The serve path slows more steeply than the slices: over 30 runs in
#: three host states, log raw events/s, ingest p50 and read p50 against
#: log slice time had slopes -1.6, 1.5 and 1.4 (|correlation| >= 0.96),
#: so serve timings divide by the host factor to this power.
HOST_EXPONENT = 1.5
#: Distinct hours of input; the batches cycle through them.
INPUT_HOURS = 128

_SIZES = {"full": 1000, "small": 500}


def _model() -> CostModel:
    return CostModel(
        plan=paper_experiment_plan().with_period(PERIOD_HOURS), selling_discount=0.8
    )


class _Batches:
    """Seeded event batches: batch ``b`` covers hour ``b // per_hour`` of
    one slice of the fleet; each instance has its own busy probability."""

    def __init__(self, seed: int, fleet: int) -> None:
        rng = np.random.default_rng(seed)
        ids = [f"i-{k:05d}" for k in range(fleet)]
        busy = rng.random((INPUT_HOURS, fleet)) < rng.uniform(0.15, 0.95, fleet)
        per_hour = fleet // BATCH_EVENTS
        self.events: "list[tuple[list[str], list[bool]]]" = []
        self.encoded: "list[bytes]" = []
        self.probes: "list[str]" = []
        for hour in range(INPUT_HOURS):
            for part in range(per_hour):
                cols = range(part * BATCH_EVENTS, (part + 1) * BATCH_EVENTS)
                names = [ids[k] for k in cols]
                flags = [bool(busy[hour, k]) for k in cols]
                self.events.append((names, flags))
                self.encoded.append(
                    json.dumps(
                        [{"instance": n, "busy": f} for n, f in zip(names, flags)]
                    ).encode("utf-8")
                )
                self.probes.append(names[int(rng.integers(BATCH_EVENTS))])

    def body(self, step: int) -> bytes:
        events = self.encoded[step % len(self.encoded)]
        return b'{"seq": %d, "events": %s}' % (step + 1, events)

    def probe(self, step: int) -> str:
        return self.probes[step % len(self.probes)]

    def replay_costs(self, model: CostModel, steps: int) -> object:
        """The ``/v1/costs`` ``phis`` body of an in-process replay of the
        first ``steps`` batches."""
        fleet = FleetState(model)
        for step in range(steps):
            fleet.apply_events(*self.events[step % len(self.events)])
        return AdvisoryApp(fleet).costs()["phis"]


class _Cluster:
    """One booted cluster, its HTTP front and one client connection."""

    def __init__(self, model: CostModel, directory: Path) -> None:
        self.router = start_cluster(
            model, SHARDS, directory, transport="binary", wal_fsync="always"
        )
        self.server: "RouterServer | None" = None
        self.thread: "threading.Thread | None" = None
        self.connection: "http.client.HTTPConnection | None" = None
        try:
            self.server = RouterServer(("127.0.0.1", 0), self.router)
            thread = threading.Thread(target=self.server.serve_forever, daemon=True)
            thread.start()
            self.thread = thread  # only a running loop can be shut down
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.server.server_address[1], timeout=60
            )
            self.connection.connect()
            self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.close()
            raise

    def request(self, method: str, path: str, body: "bytes | None" = None) -> "tuple[int, bytes]":
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.server is not None:
            if self.thread is not None:
                self.server.shutdown()
                self.thread.join(timeout=10)
            self.server.server_close()
        self.router.close()


def _metric_sums(exposition: str) -> "dict[str, float]":
    """Sample values summed over label sets, by series name."""
    sums: "dict[str, float]" = {}
    for line in exposition.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        if name.endswith("_bucket"):
            continue
        sums[name] = sums.get(name, 0.0) + float(value)
    return sums


def _serve_targets(tracer: Tracer) -> list:
    def span(name: str):
        return lambda fn: tracer.wrap(name, fn)

    def sized(fn):
        def encode_request(request_id: int, op: str, body: dict) -> bytes:
            frame = fn(request_id, op, body)
            if op == "ingest":
                tracer.add("frame_bytes", len(frame))
                tracer.add("frame_events", len(body.get("events", ())))
            return frame

        return encode_request

    return [
        (RouterRequestHandler, "do_POST", span("serve.server.http")),
        (RouterRequestHandler, "do_GET", span("serve.server.http")),
        (ShardRouter, "ingest_with_status", span("serve.shard.ingest")),
        (ShardRouter, "decisions", span("serve.shard.decisions")),
        (ShardRouter, "costs", span("serve.shard.costs")),
        (transport.WorkerChannel, "call", span("serve.transport.call")),
        (transport, "encode_request", sized),
    ]


def _layer_metrics(
    tracer: Tracer,
    before: "dict[str, float]",
    after: "dict[str, float]",
    latencies: "list[float]",
) -> "dict[str, float]":
    own = tracer.self_times()
    by_id = {span.span_id: span for span in tracer.spans}

    def mean(values: "list[float]") -> float:
        return sum(values) / len(values) if values else 0.0

    def self_ms(name: str) -> float:
        return 1000.0 * mean([own[s.span_id] for s in tracer.spans if s.name == name])

    def calls_under(parent: str) -> "list[float]":
        return [
            s.duration
            for s in tracer.spans
            if s.name == "serve.transport.call"
            and s.parent is not None
            and by_id[s.parent].name == parent
        ]

    def delta(series: str) -> float:
        return after.get(series, 0.0) - before.get(series, 0.0)

    def per_call_ms(histogram: str) -> float:
        count = delta(histogram + "_count")
        return 1000.0 * delta(histogram + "_sum") / count if count else 0.0

    apply_ms = per_call_ms("repro_serve_ingest_seconds")
    append_ms = per_call_ms("repro_serve_wal_append_seconds")
    ingest_call_ms = 1000.0 * mean(calls_under("serve.shard.ingest"))
    handler_total = sum(s.duration for s in tracer.spans if s.name == "serve.server.http")
    return {
        "serve.server.http_self_ms": self_ms("serve.server.http"),
        "serve.shard.ingest_self_ms": self_ms("serve.shard.ingest"),
        "serve.shard.decisions_self_ms": self_ms("serve.shard.decisions"),
        "serve.shard.costs_ms": self_ms("serve.shard.costs"),
        "serve.transport.call_ms": ingest_call_ms,
        "serve.transport.read_call_ms": 1000.0 * mean(calls_under("serve.shard.decisions")),
        "serve.transport.wait_ms": ingest_call_ms - apply_ms - append_ms,
        "serve.transport.bytes_per_event": (
            tracer.counts["frame_bytes"] / tracer.counts["frame_events"]
            if tracer.counts["frame_events"]
            else 0.0
        ),
        "serve.state.ingest_ms": apply_ms,
        "serve.wal.append_ms": append_ms,
        "serve.wal.appends": delta("repro_serve_wal_appends_total"),
        "serve.wal.compactions": delta("repro_serve_wal_compactions_total"),
        "serve.shard.retries": delta("repro_router_shard_retries_total"),
        "serve.shard.failures": delta("repro_router_shard_failures_total"),
        "serve.unattributed_ms": 1000.0 * (sum(latencies) - handler_total) / len(latencies),
    }


class _LocalSpeed:
    """Host speed around a moment: the mean of the slices taken within
    :data:`SPEED_WINDOW_S` of it (all slices when none are that close)."""

    def __init__(self, host: hostref.HostSpeed) -> None:
        self.times = [began for began, _ in host.samples]
        self.sums = list(itertools.accumulate((d for _, d in host.samples), initial=0.0))
        self.overall = self.sums[-1] / len(self.times)

    def host_ms(self, moment: float) -> float:
        lo = bisect.bisect_left(self.times, moment - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, moment + SPEED_WINDOW_S)
        mean = (self.sums[hi] - self.sums[lo]) / (hi - lo) if hi > lo else self.overall
        return mean * hostref.SLICES_PER_PROBE * 1000.0

    def normalise(self, timings: "list[tuple[float, float]]") -> "list[float]":
        return [
            hostref.normalise(d, self.host_ms(began), HOST_EXPONENT)
            for began, d in timings
        ]


def run_serve(
    seed: int, seconds: float, trace: bool, size: str, work_root: Path, src: Path
) -> RunResult:
    model = _model()
    batches = _Batches(seed, _SIZES[size])
    checks = Checks()

    def timed(timings: list, cluster: _Cluster, method: str, path: str, body: "bytes | None" = None) -> "tuple[int, bytes]":
        began = time.perf_counter()
        status, raw = cluster.request(method, path, body)
        timings.append((began, time.perf_counter() - began))
        return status, raw

    def step(cluster: _Cluster, index: int, ingest: list, reads: list) -> None:
        status, _ = timed(ingest, cluster, "POST", "/v1/events", batches.body(index))
        checks.check(status == 200, f"ingest answered {status}")
        probe = batches.probe(index)
        status, raw = timed(reads, cluster, "GET", "/v1/decisions?instance=" + probe)
        rows = json.loads(raw).get("instances", []) if status == 200 else []
        checks.check(
            len(rows) == 1 and rows[0].get("instance") == probe,
            f"decisions read answered {status}",
        )
        if index % COSTS_EVERY == COSTS_EVERY - 1:
            status, _ = cluster.request("GET", "/v1/costs")
            checks.check(status == 200, f"costs read answered {status}")

    directory = tempfile.TemporaryDirectory(dir=work_root)
    cluster: "_Cluster | None" = None
    setup_raw: "list[float]" = []
    setup: "list[float]" = []
    try:
        # Independent set-ups; the last one's cluster is the one measured.
        with hostref.HostSpeed() as sampler:
            refs_ms = [sampler.probe()]
            for rep in range(SETUP_REPEATS):
                if cluster is not None:
                    cluster.close()
                    cluster = None
                began = time.perf_counter()
                import_seconds(src, SERVE_MODULES)
                cluster = _Cluster(model, Path(directory.name) / f"cluster-{rep}")
                for index in range(WARMUP_STEPS):
                    step(cluster, index, [], [])
                ended = time.perf_counter()
                refs_ms.append(sampler.probe())
                wall, scaled = sampler.timed(
                    began, ended, median(refs_ms[-2:]), HOST_EXPONENT
                )
                setup_raw.append(wall)
                setup.append(scaled)

        tracer = Tracer() if trace else None
        metrics_before = (
            _metric_sums(cluster.request("GET", "/metrics")[1].decode()) if trace else {}
        )
        host = hostref.HostSpeed()
        ref_before = host.probe()
        steal_before = hostref.steal_s()
        ingest: "list[tuple[float, float]]" = []
        reads: "list[tuple[float, float]]" = []
        steps: "list[tuple[float, float]]" = []
        index = WARMUP_STEPS
        with patched(_serve_targets(tracer) if tracer is not None else []):
            deadline = time.perf_counter() + seconds
            # At least MIN_STEPS, so each p99 has ten samples beyond it.
            while index - WARMUP_STEPS < MIN_STEPS or time.perf_counter() < deadline:
                if index % SAMPLE_EVERY_STEPS == 0:
                    # Between steps, outside every timing; the cluster's
                    # processes use both CPUs, so both are sampled.
                    host.sample_each_cpu()
                if tracer is not None:
                    tracer.step = index
                began = time.perf_counter()
                step(cluster, index, ingest, reads)
                steps.append((began, time.perf_counter() - began))
                index += 1
            if tracer is not None:
                tracer.step = None
        steal = hostref.steal_s() - steal_before
        ref_after = host.probe()
        metrics_after = (
            _metric_sums(cluster.request("GET", "/metrics")[1].decode()) if trace else {}
        )
        status, raw = cluster.request("GET", "/v1/costs")
        served = json.loads(raw).get("phis") if status == 200 else None
    finally:
        if cluster is not None:
            cluster.close()
        directory.cleanup()

    checks.check(
        served == batches.replay_costs(model, index),
        "final /v1/costs differs from an in-process FleetState replay",
    )
    speed = _LocalSpeed(host)
    events = len(steps) * BATCH_EVENTS
    ingest_report = percentile_report(speed.normalise(ingest))
    read_report = percentile_report(speed.normalise(reads))
    end_to_end = {
        "setup_s": median(setup),
        "items_per_s": events / sum(speed.normalise(steps)),
        "peak_rss_mb": peak_rss_mb(),
    }
    record: "dict[str, object]" = {
        "end_to_end": end_to_end,
        "normalised": {"ingest": ingest_report, "read": read_report},
        "raw": {
            "events_per_s": events / sum(d for _, d in steps),
            "ingest": percentile_report([d for _, d in ingest]),
            "read": percentile_report([d for _, d in reads]),
            "setup_s": setup_raw,
        },
        "host_ref_ms": {
            "before": ref_before,
            "after": ref_after,
            "in_run_mean": speed.overall * hostref.SLICES_PER_PROBE * 1000.0,
            "slices": len(speed.times),
            "nominal": hostref.REF_NOMINAL_MS,
            "steal_s": steal,
        },
        "steps": len(steps),
        "setup_normalised_s": setup,
        "failures": checks.failures,
    }
    metrics = end_to_end
    if tracer is not None:
        latencies = [d for _, d in ingest + reads]
        metrics = _layer_metrics(tracer, metrics_before, metrics_after, latencies)
        metrics["host_ref_ms"] = median([ref_before, ref_after])
        record["spans"] = len(tracer.spans)
    return RunResult(metrics, checks.attempted, checks.failed, record)
