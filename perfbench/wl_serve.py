"""``serve_closed``: two closed-loop clients against ``python -m repro serve``.

The daemon runs in its own process with the CLI's defaults on port 0.  Two
client threads each send their next request when the previous reply has
arrived.  Every request carries explicit pairs on one of the six paper
designs; the distinct requests repeat, so the daemon's design cache is warm
and its PE cache hits.  This is the only workload that measures the HTTP,
micro-batcher and wire layers.
"""

from __future__ import annotations

import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import checks
import common
import inputs
from tracer import Tracer, layer_metrics

#: Daemon starts timed before and again after the timed phase.
SETUPS_EACH_SIDE = 4
CLIENTS = 2
#: The timed phase is cut into this many equal windows by reply time;
#: ``links_per_s`` is the median over the windows, so one noisy spell of the
#: machine moves one window, not the run's figure.
WINDOWS = 5
#: ``repro serve``'s default ``--threshold``.
CLI_THRESHOLD = 0.5
START_TIMEOUT_S = 120.0


class Daemon:
    """One daemon process; counts the requests it answered."""

    def __init__(self, argv):
        common.CACHE_ROOT.mkdir(parents=True, exist_ok=True)
        self._stderr = open(common.CACHE_ROOT / "daemon.log", "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=common.ROOT, env=common.program_env(),
                                     stdout=subprocess.PIPE, stderr=self._stderr,
                                     text=True)
        self.answered = 0
        self._lock = threading.Lock()
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on http://"):
                raise common.BenchError(f"daemon did not start: {line!r} (see "
                                        f"{common.CACHE_ROOT / 'daemon.log'})")
            self.host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
            self.port = int(port)
            while True:
                try:
                    if self.request("GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - started > START_TIMEOUT_S:
                    raise common.BenchError("daemon never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def request(self, method: str, path: str, body: bytes | None = None):
        """One HTTP exchange (the daemon closes every connection)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"} if body else {})
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        with self._lock:
            self.answered += 1
        return response.status, raw

    def metrics(self) -> dict:
        status, raw = self.request("GET", "/metrics")
        if status != 200:
            raise common.BenchError(f"/metrics answered {status}")
        return json.loads(raw)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _closed_loop(daemon: Daemon, bodies: list[bytes], *, deadline=None,
                 per_client=None) -> list[tuple]:
    """Run the clients; returns ``(request, status, raw, latency, end)`` rows."""
    rows: list[tuple] = []

    def client(offset: int) -> None:
        sent = 0
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if per_client is not None and sent >= per_client:
                return
            index = (offset + sent) % len(bodies)
            started = time.perf_counter()
            try:
                status, raw = daemon.request("POST", "/annotate", bodies[index])
            except (OSError, http.client.HTTPException) as exc:
                status, raw = None, repr(exc).encode()
            ended = time.perf_counter()
            rows.append((index, status, raw, ended - started, ended))
            sent += 1

    threads = [threading.Thread(target=client, args=(c * len(bodies) // CLIENTS,))
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return rows


class Phase(NamedTuple):
    """One daemon's timed phase: client rows, window and /metrics snapshots."""

    warmup: list
    rows: list
    started: float
    ended: float
    before: dict
    after: dict
    answered: int
    peak_rss_mb: float


def _setups(argv, count: int) -> list[float]:
    """Set-up times of ``count`` daemons started and stopped in turn."""
    times = []
    for _ in range(count):
        daemon = Daemon(argv)
        times.append(daemon.setup_s)
        daemon.stop()
    return times


def _phase(argv, bodies, seconds: float) -> Phase:
    """Start a daemon, warm it up, run the timed loop, stop it.

    Warm-up: every client sends every distinct request once.
    """
    daemon = Daemon(argv)
    try:
        warmup = _closed_loop(daemon, bodies, per_client=len(bodies))
        before = daemon.metrics()
        started = time.perf_counter()
        rows = _closed_loop(daemon, bodies, deadline=started + seconds)
        ended = max(row[4] for row in rows)
        after = daemon.metrics()
        return Phase(warmup, rows, started, ended, before, after, daemon.answered,
                     common.process_peak_rss_mb(daemon.proc.pid))
    finally:
        daemon.stop()


def _local_reference(ckpt, requests) -> list[list[dict]]:
    """Each distinct request annotated by a local engine (same text/pairs/seed)."""
    from repro.api import load
    from repro.core.serve import AnnotationEngine
    from repro.netlist import parse_spice

    engine = AnnotationEngine(load(ckpt))
    reference = []
    for request in requests:
        circuit = parse_spice(request["spice"], name=request["name"])
        report, = engine.annotate_many([circuit], pairs=[request["pairs"]],
                                       seed=request["seed"], max_workers=0)
        reference.append(report.records)
    return reference


def _check(rows, requests, reference, nets) -> tuple[int, list[str]]:
    """Failed-request count and problems of every successful request."""
    failed, problems = 0, []
    for index, status, raw, _, _ in rows:
        if status != 200:
            failed += 1
            common.log(f"request {index} failed: status {status}: {raw[:200]!r}")
            continue
        payload = json.loads(raw)
        request = requests[index]
        found = checks.check_response(payload, request,
                                      nets=nets[request["name"]],
                                      threshold=CLI_THRESHOLD,
                                      cap_min=inputs.CAP_MIN, cap_max=inputs.CAP_MAX)
        found += checks.compare_records(payload.get("records", []), reference[index])
        problems += [f"request {index}: {p}" for p in found]
    return failed, problems


def run(seed: int, seconds: float, trace: bool):
    artifacts = common.artifact_dir()
    ckpt = str(artifacts / "ckpt")
    designs = inputs.serve_designs()
    nets = {name: frozenset(inputs.signal_nets(c.flatten()))
            for name, c in designs.items()}
    requests = inputs.serve_requests(seed, designs)
    bodies = [json.dumps(request).encode() for request in requests]
    cli = [sys.executable, "-m", "repro", "serve", ckpt, "--port", "0"]

    if not trace:
        setups = _setups(cli, SETUPS_EACH_SIDE)
        phases = [_phase(cli, bodies, seconds)]
        setups += _setups(cli, SETUPS_EACH_SIDE)
    else:
        # Untraced daemon first, then the traced launcher, half the time each.
        spans_path = common.CACHE_ROOT / f"serve_spans_{seed}.json"
        launcher = [sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
                    ckpt, str(spans_path)]
        phases = [_phase(cli, bodies, seconds / 2),
                  _phase(launcher, bodies, seconds / 2)]
        tracer = Tracer.load(spans_path)
        spans_path.unlink()
        tracer.write_chrome_trace(common.trace_path("serve_closed", seed))

    reference = _local_reference(ckpt, requests)
    failed, problems, attempted = 0, [], 0
    for phase in phases:
        rows = phase.warmup + phase.rows
        phase_failed, phase_problems = _check(rows, requests, reference, nets)
        failed += phase_failed
        problems += phase_problems
        attempted += len(rows)
        if phase.after["requests_total"] != phase.answered:
            problems.append(f"/metrics requests_total {phase.after['requests_total']} "
                            f"!= {phase.answered} requests sent")
    correct = not problems
    for problem in problems[:20]:
        common.log(f"check failed: {problem}")

    if trace:
        return correct, attempted, failed, _traced_metrics(tracer, *phases)
    phase = phases[0]
    timed = [row for row in phase.rows if row[1] == 200]
    width = (phase.ended - phase.started) / WINDOWS
    windows = [[] for _ in range(WINDOWS)]
    for row in timed:
        windows[min(int((row[4] - phase.started) / width), WINDOWS - 1)].append(row)
    return correct, attempted, failed, common.end_to_end(
        setup_s=statistics.median(setups),
        latency_p50_ms=statistics.median(row[3] for row in timed) * 1e3,
        links_per_s=statistics.median(
            sum(len(requests[row[0]]["pairs"]) for row in window) / width
            for window in windows),
        peak_rss_mb=phase.peak_rss_mb)


def _traced_metrics(tracer: Tracer, plain: Phase, traced: Phase) -> dict:
    """Per-request layer figures of the traced daemon's timed phase.

    The launcher's span times and the clients' window share one clock:
    ``time.perf_counter`` reads the system-wide monotonic clock on Linux.
    """
    rows, started, ended = traced.rows, traced.started, traced.ended
    requests = len(rows)
    seconds = tracer.layer_seconds(started, ended)
    counts = tracer.counts(started, ended)
    compute = [span for span in tracer.spans
               if span.name == "server.compute" and span.end is not None
               and started <= span.start < ended]
    compute_s = sum(span.end - span.start for span in compute)
    compute_ids = {id(span) for span in compute}
    children_s = sum(span.end - span.start for span in tracer.spans
                     if span.parent is not None and id(span.parent) in compute_ids)
    overhead = (statistics.median([row[3] for row in rows])
                / statistics.median([row[3] for row in plain.rows]) - 1.0)
    batches = counts.get("server.batches", 0)
    extra = {
        "server.compute_busy_ratio": compute_s / (ended - started),
        "server.batch_links_mean": counts.get("server.batch_links", 0) / batches if batches else 0.0,
        "server.design_cache_hits": (traced.after["design_cache_hits_total"]
                                     - traced.before["design_cache_hits_total"]) / requests,
        "trace.overhead_ratio": overhead,
        "trace.span_coverage": children_s / compute_s if compute_s else 0.0,
    }
    return layer_metrics(seconds, counts, extra, operations=requests)
