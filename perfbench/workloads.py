"""The three workloads: one paper sweep, warm and cold service traffic.

Each workload function takes ``(seed, seconds, trace, out)`` and returns
``(metrics, tally)``; ``out`` receives the context lines (raw times,
calibrations, sample counts) printed before the result.
With ``trace`` false it measures the end-to-end metrics; with ``trace``
true it measures untraced and then traced, and returns the per-layer
metrics of the traced part.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import inputs
from answers import AnswerChecker
from calib import Bracket, SegmentedTimer, calibrate, percentile
from topology import ServiceTopology

#: Everything a run writes (sockets, caches, logs, traces) lives here;
#: ``run.py`` removes it when the run ends.
WORK_ROOT = os.path.join(inputs.ROOT, ".bench_build", "perfbench", f"run-{os.getpid()}")
SETUP_SAMPLES = {"paper_sweep": 5, "service_hot": 3, "service_cold": 3}
MIN_LATENCY_SAMPLES = 100  # a p90 then has at least 10 samples beyond it
# Windows are short because the host's speed changes within a second and
# each window is rescaled by the calibrations at its two ends.  Cold
# requests take up to ~1 s, so cold windows are longer, which keeps the
# drain at the end of a window a small share of it.
WINDOW_S = {"service_hot": 0.5, "service_cold": 1.0}
# A shard keeps a handle (state and report) for every request it served,
# so its memory grows with the requests served; reading the fleet's peak
# RSS after a fixed number of requests keeps a faster fleet from reading as
# a heavier one.
RSS_AFTER_REQUESTS = {"service_hot": 500, "service_cold": 100}
COLD_BLOCK = 8
HOP_ENTRIES = 6
HOP_ROUNDS = 5


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers (it exits non-zero)."""


class Tally:
    """Requests attempted and failed (an error, or an answer that is wrong)."""

    def __init__(self, checker: AnswerChecker, out: Callable[[str], None]) -> None:
        self.checker = checker
        self.out = out
        self.attempted = self.failed = 0

    def record(self, request, report, error: Optional[str] = None) -> bool:
        self.attempted += 1
        if error is None:
            error = self.checker.problem(request, report)
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                self.out(f"failure: {error}")
        return error is None

    @property
    def success_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_workdir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


def require_kernel(role: str, kernel: Optional[str], out) -> None:
    """Fail the run when the built kernel is not the active substrate."""
    out(f"solver kernel ({role}): {kernel}")
    if kernel != "c":
        raise BenchmarkError(
            f"{role} runs the {kernel!r} solver, not the built C kernel; a "
            "silent pure-Python fallback would read as a 5x regression"
        )


def cache_hit_share(reports) -> float:
    hits = sum(int(r.schedule.get("cache_hits", 0)) for r in reports)
    misses = sum(int(r.schedule.get("cache_misses", 0)) for r in reports)
    return hits / (hits + misses) if hits + misses else 0.0


def probe_setup(workload: str, out) -> float:
    """Spawn the set-up probe; seconds from spawn to its ``ready`` line."""
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, os.path.join(inputs.HERE, "inputs.py"), workload],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=inputs.ROOT,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    if result.returncode != 0 or "ready" not in result.stdout:
        raise BenchmarkError(f"set-up probe failed: {result.stderr[-2000:]}")
    require_kernel("setup probe", result.stdout.split("kernel=")[-1].strip(), out)
    return elapsed


def latency_metrics(latencies_s: List[float], out) -> Dict[str, float]:
    if len(latencies_s) < MIN_LATENCY_SAMPLES:
        raise BenchmarkError(
            f"only {len(latencies_s)} latency samples; need {MIN_LATENCY_SAMPLES}"
        )
    p50, _ = percentile(latencies_s, 0.5)
    p90, beyond = percentile(latencies_s, 0.9)
    out(f"latency: n={len(latencies_s)} p50={p50 * 1e3:.3f} ms "
        f"p90={p90 * 1e3:.3f} ms ({beyond} samples beyond p90; reference seconds)")
    return {"latency_p50_ms": p50 * 1e3, "latency_p90_ms": p90 * 1e3}


def circuits_build_ms(workload: str) -> float:
    samples = []
    for _ in range(3):
        started = time.monotonic()
        inputs.build(workload)
        samples.append((time.monotonic() - started) * 1e3)
    return median(samples)


# -- paper_sweep ----------------------------------------------------------------------


def _sweep_pass(requests, tally: Tally, tracer=None):
    """One timed suite pass on a fresh session (serial backend, no cache).

    This is the body of ``Session.run_suite`` (submit, drain
    ``as_completed``, read ``reports``), spelled out so each request's
    completion is seen.  The serial backend runs nothing while the stream
    is suspended, so the timer calibrates after every output record with
    no work in flight.  Returns the timer, the per-request latencies in
    reference seconds, the reports and the number of outputs.
    """
    from repro.api import Session

    if tracer is not None:
        tracer.mark()
    session = Session()
    # Traced, the calibrations are spans of their own, so that the
    # ``as_completed`` span they interrupt does not count them as its time.
    timer = SegmentedTimer(
        calibrate if tracer is None else tracer.traced(calibrate, "bench.calibrate")
    )
    session.submit(requests)
    finished: Dict[str, float] = {}
    for record in session.as_completed():
        finished[record.circuit] = timer.pause()
    reports = session.reports()
    timer.pause()
    if tracer is not None:
        tracer.mark()
    latencies = [finished[r.name] for r in requests]
    outputs = 0
    for request, report in zip(requests, reports):
        if tally.record(request, report):
            outputs += len(report.outputs)
    return timer, latencies, reports, outputs


def paper_sweep(seed: int, seconds: float, trace: bool, out):
    from repro.sat.solver import active_kernel_name

    require_kernel("load generator", active_kernel_name(), out)
    metrics: Dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = _setup_samples("paper_sweep", out)
    requests = inputs.suite_requests()
    tally = Tally(AnswerChecker(inputs.load_answers()), out)
    rng = random.Random(seed)

    def passes(budget_s: float, minimum: int, tracer=None):
        walls, rates, latencies, reports = [], [], [], []
        calibration_s = 0.0
        deadline = time.monotonic() + budget_s
        order = requests
        while (
            time.monotonic() < deadline
            or len(walls) < minimum
            or (not trace and len(latencies) < MIN_LATENCY_SAMPLES)
        ):
            # Odd passes replay the previous order reversed (antithetic
            # pairs): a request's latency depends on its place in the pass,
            # and the pairs cancel most of that between seeds.
            if len(walls) % 2:
                order = order[::-1]
            else:
                order = rng.sample(requests, len(requests))
            timer, lat, reps, outputs = _sweep_pass(order, tally, tracer)
            out(f"pass {len(walls)}: {outputs} outputs, {timer.scaled:.4f} s reference "
                f"({timer.raw:.4f} s raw; {len(lat)} requests; "
                f"{timer.calibration_s:.4f} s in calibrations)")
            walls.append(timer.scaled)
            calibration_s += timer.calibration_s
            rates.append(outputs / timer.scaled)
            latencies.extend(lat)
            if tracer is not None:
                reports.extend(reps)
        return walls, rates, latencies, reports, calibration_s

    _sweep_pass(rng.sample(requests, len(requests)), Tally(tally.checker, out))  # warm-up
    if not trace:
        walls, rates, latencies, _, _ = passes(seconds, 3)
        metrics["outputs_per_s"] = median(rates)
        metrics.update(latency_metrics(latencies, out))
    else:
        from tracer import Tracer, layer_metrics, window_deltas

        untraced, _, _, _, _ = passes(seconds / 3.0, 2)
        tracer = Tracer().install()
        try:
            walls, _, _, reports, calibration_s = passes(seconds * 2.0 / 3.0, 3, tracer)
        finally:
            tracer.uninstall()
        delta = window_deltas(tracer.marks)
        metrics.update(layer_metrics(delta, len(walls)))
        metrics.update(_no_service_metrics())
        metrics["scheduler.cache_hit_share"] = cache_hit_share(reports)
        metrics["circuits.build_ms"] = circuits_build_ms("paper_sweep")
        # The calibrations at the pauses run inside the marks but are not
        # the program's time.
        metrics["trace.coverage_share"] = delta["covered"] / (delta["wall"] - calibration_s)
        metrics["trace.overhead_share"] = median(walls) / median(untraced) - 1.0
        out(f"traced passes: {len(walls)}; untraced passes: {len(untraced)}")
    metrics["success_share"] = tally.success_share
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    return metrics, tally


def _no_service_metrics() -> Dict[str, float]:
    """The sweep never touches the service tier or the live fair queue."""
    return {
        "scheduler.queue_wait_p50_ms": 0.0,
        "scheduler.queue_wait_p90_ms": 0.0,
        "service.router_hop_ms": 0.0,
        "service.daemon_hop_ms": 0.0,
    }


def _setup_samples(workload: str, out, keep: Optional[list] = None) -> float:
    """Median set-up time in reference seconds over several fresh starts.

    For the service workloads each sample also spawns the shards and the
    router and waits for the first pong; the last fleet is handed back in
    ``keep`` instead of being stopped.
    """
    samples = []
    count = SETUP_SAMPLES[workload]
    for index in range(count):
        bracket = Bracket()
        raw = probe_setup(workload, out)
        topology = None
        if keep is not None:
            topology = ServiceTopology(fresh_workdir(workload))
            raw += topology.start()
        bracket.close()
        samples.append(bracket.scale(raw))
        out(f"setup {index}: {samples[-1]:.4f} s reference ({raw:.4f} s raw, "
            f"calibration {bracket.before:.5f}/{bracket.after:.5f} s)")
        if topology is not None:
            if index == count - 1:
                keep.append(topology)
            else:
                topology.stop()
    return median(samples)


# -- service workloads --------------------------------------------------------------


class Traffic:
    """Closed-loop traffic from two client connections to one address."""

    def __init__(self, address: str, tally: Tally, next_request, tracer=None) -> None:
        from repro.service.client import ServiceClient

        self.clients = [ServiceClient(address, timeout=30.0) for _ in range(2)]
        self.tally = tally
        self.next_request = next_request
        self.tracer = tracer
        self.exhausted = False
        # (submit, report) of every request sent, for trace coverage.
        self.in_flight: List[Tuple[float, float]] = []

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def window(self, seconds: float):
        """Run both clients for ``seconds``, then drain; no traffic after."""
        from repro.errors import ReproError

        bracket = Bracket()
        results: List[Tuple[float, float, object, object, Optional[str]]] = []
        started = time.monotonic()
        stop_at = started + seconds

        def client_loop(index: int) -> None:
            client = self.clients[index]
            sent = 0
            while time.monotonic() < stop_at:
                request = self.next_request(index)
                if request is None:
                    self.exhausted = True
                    return
                if self.tracer is not None:
                    self.tracer.request_id = (index, sent)
                sent += 1
                began = time.monotonic()
                try:
                    report, error = client.run(request), None
                except ReproError as exc:
                    report, error = None, f"{type(exc).__name__}: {exc}"
                results.append((began, time.monotonic(), request, report, error))

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started
        bracket.close()
        latencies, reports, outputs = [], [], 0
        for began, ended, request, report, error in results:
            self.in_flight.append((began, ended))
            if self.tally.record(request, report, error):
                latencies.append(bracket.scale(ended - began))
                reports.append(report)
                outputs += len(report.outputs)
        return bracket, wall, latencies, reports, outputs


def _request_source(workload: str, seed: int, inputs_: dict):
    """``next_request(client)``: the seeded traffic mix of a workload."""
    if workload == "service_hot":
        pool = inputs_["requests"]
        rngs = [random.Random(f"{seed}/{client}") for client in range(2)]
        return lambda client: rngs[client].choice(pool)
    # Stratified order: every run of five requests holds one circuit of
    # each family, so each window sends the same mix.  The seed shuffles the
    # family order of every run and each family's circuits within blocks
    # of eight, so runs of any seed send nearly the same circuits.
    rng = random.Random(seed)
    families: Dict[str, list] = {}
    for family, request in inputs_["cold"]:
        families.setdefault(family, []).append(request)
    for members in families.values():
        for start in range(0, len(members), COLD_BLOCK):
            block = members[start:start + COLD_BLOCK]
            rng.shuffle(block)
            members[start:start + COLD_BLOCK] = block
    order = []
    for position in range(min(len(m) for m in families.values())):
        names = sorted(families)
        rng.shuffle(names)
        order.extend(families[name][position] for name in names)
    order.reverse()
    lock = threading.Lock()

    def next_cold(client: int):
        with lock:
            return order.pop() if order else None

    return next_cold


def _warm(topology: ServiceTopology, workload: str, inputs_: dict) -> None:
    """Touch the warm pool once (hot) or just the executors (cold)."""
    from repro.service.client import ServiceClient

    pool = inputs_["requests"]
    with ServiceClient(topology.address, timeout=30.0) as client:
        for request in pool if workload == "service_hot" else pool[:2]:
            client.run(request)


def _windows(traffic: Traffic, seconds: float, window_s: float, out,
             topology: ServiceTopology, tracer=None, rss_after: Optional[int] = None):
    """Request windows until ``seconds`` have passed and p90 has its samples.

    With a ``tracer``, every window is bracketed by marks in all processes.
    With ``rss_after``, the fleet's peak RSS is read once that many requests
    have completed (or at the end, if the run completes fewer).
    """
    walls, outputs_done, latencies, reports = [], [], [], []
    fleet_rss = None
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(latencies) < MIN_LATENCY_SAMPLES:
        if traffic.exhausted:
            break
        if tracer is not None:
            topology.mark()
            tracer.mark()
        bracket, raw, lat, reps, outputs = traffic.window(window_s)
        if tracer is not None:
            topology.mark()
            tracer.mark()
        wall = bracket.scale(raw)
        out(f"window {len(walls)}: {len(lat)} requests, {outputs} outputs, "
            f"{wall:.4f} s reference ({raw:.4f} s raw, calibration "
            f"{bracket.before:.5f}/{bracket.after:.5f} s)")
        walls.append(wall)
        outputs_done.append(outputs)
        latencies.extend(lat)
        if tracer is not None:
            reports.extend(reps)
        if rss_after is not None and fleet_rss is None and len(latencies) >= rss_after:
            fleet_rss = topology.peak_rss_mb()
            out(f"fleet peak RSS after {len(latencies)} requests: {fleet_rss:.1f} MB")
    if traffic.exhausted:
        out("the cold catalog ran out; the run measured fewer windows")
    if rss_after is not None and fleet_rss is None:
        fleet_rss = topology.peak_rss_mb()
        out(f"fleet peak RSS after only {len(latencies)} requests: {fleet_rss:.1f} MB")
    return walls, outputs_done, latencies, reports, fleet_rss


def service(workload: str, seed: int, seconds: float, trace: bool, out):
    from repro.sat.solver import active_kernel_name

    require_kernel("load generator", active_kernel_name(), out)
    metrics: Dict[str, float] = {}
    kept: List[ServiceTopology] = []
    topologies: List[ServiceTopology] = []
    try:
        if trace:
            topology = ServiceTopology(fresh_workdir(workload))
            topology.start()
        else:
            metrics["setup_s"] = _setup_samples(workload, out, keep=kept)
            topology = kept[0]
        topologies.append(topology)
        for role, kernel in topology.kernels().items():
            require_kernel(role, kernel, out)
        inputs_ = inputs.build(workload)
        tally = Tally(AnswerChecker(inputs.load_answers()), out)
        _warm(topology, workload, inputs_)
        traffic = Traffic(topology.address, tally, _request_source(workload, seed, inputs_))
        try:
            budget = seconds / 3.0 if trace else seconds
            walls, outputs_done, latencies, reports, fleet_rss = _windows(
                traffic, budget, WINDOW_S[workload], out, topology,
                rss_after=RSS_AFTER_REQUESTS[workload],
            )
        finally:
            traffic.close()
        if not trace:
            metrics["outputs_per_s"] = sum(outputs_done) / sum(walls)
            metrics.update(latency_metrics(latencies, out))
            metrics["peak_rss_mb"] = own_peak_rss_mb() + fleet_rss
        else:
            untraced_per_request = sum(walls) / max(1, len(latencies))
            topology.stop()
            topology = ServiceTopology(fresh_workdir(workload), trace=True)
            topologies.append(topology)
            metrics.update(
                _traced_service(workload, seed, seconds, topology, tally, out,
                                untraced_per_request)
            )
        metrics["success_share"] = tally.success_share
    finally:
        for topology in topologies:
            topology.stop()
    return metrics, tally


def _traced_service(workload, seed, seconds, topology, tally, out, untraced_per_request):
    from repro.obs.registry import quantile_from_counts
    from tracer import Tracer, covered_share, layer_metrics, window_deltas

    tracer = Tracer().install()
    try:
        topology.start()
        inputs_ = inputs.build(workload)
        _warm(topology, workload, inputs_)
        before = [_queue_wait_counts(s.client_address) for s in topology.shards]
        traffic = Traffic(
            topology.address, tally, _request_source(workload, seed + 1, inputs_), tracer
        )
        try:
            walls, _, latencies, reports, _ = _windows(
                traffic, seconds * 2.0 / 3.0, WINDOW_S[workload], out, topology, tracer
            )
        finally:
            traffic.close()
        after = [_queue_wait_counts(s.client_address) for s in topology.shards]
        hops = _hops(topology, inputs_["requests"], seed, out)
    finally:
        tracer.uninstall()
        topology.stop()
    traces = topology.traces()
    merged = window_deltas(tracer.marks, *(trace["marks"] for trace in traces.values()))
    count = len(latencies)
    metrics = layer_metrics(merged, count)
    # Fair-queue waits inside the windows: both shards' histogram buckets,
    # differenced between the stats frames taken before and after them.
    bounds = before[0][0]
    counts = [
        sum(end[i] - start[i] for (_, start), (_, end) in zip(before, after))
        for i in range(len(before[0][1]))
    ]
    waits = sum(counts)
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        metrics[f"scheduler.queue_wait_{label}_ms"] = (
            quantile_from_counts(bounds, counts, q) * 1e3 if waits else 0.0
        )
    out(f"fair-queue waits observed: n={waits}")
    metrics["scheduler.cache_hit_share"] = cache_hit_share(reports)
    metrics.update(hops)
    metrics["circuits.build_ms"] = circuits_build_ms(workload)
    # Coverage: of the time some request was in flight, the share during
    # which a layer span was open in any process (client, router, shards).
    spans = list(tracer.outer)
    for trace in traces.values():
        spans.extend(tuple(span) for span in trace["outer"])
    metrics["trace.coverage_share"] = covered_share(spans, traffic.in_flight)
    traced_per_request = sum(walls) / max(1, count)
    metrics["trace.overhead_share"] = traced_per_request / untraced_per_request - 1.0
    shard_cpu = window_deltas(*(traces[s.role]["marks"] for s in topology.shards))["cpu"]
    out(f"traced requests: {count}; shard CPU inside the windows {shard_cpu:.3f} s")
    return metrics


def _queue_wait_counts(address: str):
    """Bucket bounds and counts of a shard's fair-queue wait histogram."""
    from repro.service.client import ServiceClient

    with ServiceClient(address, timeout=30.0) as client:
        stats = client.stats()
    entry = stats["obs"]["histograms"]["repro_fair_queue_wait_seconds"]
    series = entry["series"].get("", {})
    counts = series.get("counts") or [0] * (len(entry["buckets"]) + 1)
    return entry["buckets"], counts


def _hops(topology: ServiceTopology, pool, seed: int, out) -> Dict[str, float]:
    """Per-hop cost of the same warm requests: router, shard, in-process.

    ``router_hop`` = median latency via the router minus directly to a
    shard; ``daemon_hop`` = directly to a shard minus an in-process
    ``Session.run`` against a warm cache of its own.
    """
    from repro.api import CachePolicy, Session
    from repro.service.client import ServiceClient

    chosen = random.Random(seed).sample(pool, HOP_ENTRIES)
    cache_dir = os.path.join(topology.workdir, "inproc")
    local = [r.with_(cache=CachePolicy(directory=cache_dir)) for r in chosen]
    session = Session()
    paths = {
        "router": ServiceClient(topology.address, timeout=30.0),
        "shard": ServiceClient(topology.shards[0].client_address, timeout=30.0),
    }
    samples: Dict[str, List[List[float]]] = {
        name: [[] for _ in chosen] for name in ("router", "shard", "local")
    }
    try:
        bracket = Bracket()
        for round_index in range(HOP_ROUNDS + 1):
            for index, request in enumerate(chosen):
                for name in ("router", "shard", "local"):
                    began = time.monotonic()
                    if name == "local":
                        session.run(local[index])
                    else:
                        paths[name].run(request)
                    if round_index:  # round 0 warms every path
                        samples[name][index].append(time.monotonic() - began)
        bracket.close()
    finally:
        for client in paths.values():
            client.close()
        session.close()
    med = {k: [median(v) for v in rows] for k, rows in samples.items()}
    router_hop = median([r - s for r, s in zip(med["router"], med["shard"])])
    daemon_hop = median([s - l for s, l in zip(med["shard"], med["local"])])
    out(f"hops: {HOP_ENTRIES} requests x {HOP_ROUNDS} rounds per path")
    return {
        "service.router_hop_ms": bracket.scale(router_hop) * 1e3,
        "service.daemon_hop_ms": bracket.scale(daemon_hop) * 1e3,
    }


WORKLOADS = {
    "paper_sweep": paper_sweep,
    "service_hot": lambda *a: service("service_hot", *a),
    "service_cold": lambda *a: service("service_cold", *a),
}
