"""live_uncached and live_cached: closed loops of GET /verify.

The system under test runs outside the load generator: one process for the
manager (`slv serve manager`), one for the three loopback agents and the
target listener. The load generator is this process, with 2 client
threads; each waits for its reply before sending again and holds at most
one connection. Everything binds loopback, except the target listener,
which must accept on all of 127.0.0.0/8.
"""

from __future__ import annotations

import glob
import http.client
import itertools
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import slv.pinning
from slv.geo import Location, point_in_circle
from slv.manager import CacheEntry, VerificationCache
from slv.pinning import Outcome
from slv.verify import VerificationResult, circle_of_pair, utc_now

import layers
from spans import Tracer, load_dump
from stats import Timings, at_reference_speed, host_scale, reference_loop_s

# The acceptance suite's loopback layout, around the asserted point (0, 0).
VERIFIER_LOCS = (Location(10.0, 0.0), Location(-10.0, 10.0), Location(-10.0, -10.0))
CLIENTS = 2
PROBES = 3
MEASUREMENT_TIMEOUT_S = 2.0
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
# Preloaded cache entries: verified long ago, expiring long after any run.
WHEN_VERI = datetime(2026, 1, 1, tzinfo=timezone.utc)
EXPIRES = datetime(2100, 1, 1, tzinfo=timezone.utc)
PROCS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "procs.py")
WIRE_REQUESTS_PER_VERIFICATION = 9
PROBE_CONNECTS_PER_VERIFICATION = WIRE_REQUESTS_PER_VERIFICATION * PROBES
# Workloads whose timings are CPU-bound and so reported at the reference
# host speed (see stats.REFERENCE_S). live_uncached waits on probe spacing
# and handshakes, not on the CPU, and is reported as measured.
HOST_SCALED = {"live_cached"}


@dataclass(frozen=True)
class Sizes:
    table_rows: int = 10_000
    working_set: int = 4096
    warmup_s: float = 1.0
    launches: int = 5


FULL = Sizes()
SMOKE = Sizes(table_rows=200, working_set=64, warmup_s=0.3, launches=2)


class _Inputs:
    """What the benchmark hands the program: a locator table, for
    live_cached a warm sqlite cache, and the order of queried addresses."""

    def __init__(self, run_dir: str, kind: str, seed: int, sizes: Sizes) -> None:
        self.kind = kind
        self.table = os.path.join(run_dir, "table.csv")
        self.expected: dict[str, dict] = {}
        self._lock = threading.Lock()
        if kind == "live_uncached":
            with open(self.table, "w", encoding="utf-8") as fh:
                fh.write("127.0.0.0/8,0.0,0.0\n")
            order = list(range(1, 65535))
            random.Random(seed).shuffle(order)
            self._ips = (f"127.0.{i >> 8}.{i & 255}" for i in order)
            self.cache = None
        else:
            self.cache = os.path.join(run_dir, "warm.sqlite")
            self._write_cached(seed, sizes)
            working_set = sorted(self.expected)
            pick = random.Random(f"{seed}/requests")
            self._ips = (pick.choice(working_set) for _ in itertools.count())

    def _write_cached(self, seed: int, sizes: Sizes) -> None:
        rng = random.Random(seed)
        rows = []
        for net in rng.sample(range(65536), sizes.table_rows):
            w = [rng.uniform(0.1, 1.0) for _ in VERIFIER_LOCS]
            lat = sum(wi * v.lat for wi, v in zip(w, VERIFIER_LOCS)) / sum(w)
            lon = sum(wi * v.lon for wi, v in zip(w, VERIFIER_LOCS)) / sum(w)
            rows.append((f"127.{net >> 8}.{net & 255}", Location(lat, lon)))
        with open(self.table, "w", encoding="utf-8") as fh:
            fh.writelines(f"{prefix}.0/24,{loc.lat!r},{loc.lon!r}\n" for prefix, loc in rows)
        cache = VerificationCache(self.cache)
        try:
            for prefix, loc in rng.sample(rows, sizes.working_set):
                ip = f"{prefix}.{rng.randint(1, 254)}"
                entry = CacheEntry(
                    ip=ip, asserted_loc=loc,
                    when_veri=WHEN_VERI + timedelta(seconds=rng.randrange(86400)),
                    veri_passed=True, region=_pair_region(loc), expires_at=EXPIRES,
                )
                cache.put(entry)
                self.expected[ip] = json.loads(json.dumps(entry.to_result().to_dict()))
        finally:
            cache.close()

    def next_ip(self) -> str:
        with self._lock:
            return next(self._ips)


def _pair_region(loc: Location):
    """The first verifier-pair circle holding loc, as a verification of a
    truthful assertion inside the triangle would return."""
    a, b, c = VERIFIER_LOCS
    for v1, v2 in ((a, b), (a, c), (b, c)):
        region = circle_of_pair(v1, v2)
        if point_in_circle(loc, region):
            return region
    raise ValueError(f"{loc} lies in no verifier-pair circle")


def _http_get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class _Processes:
    """Child processes of one phase; all are stopped on exit, on failure too."""

    def __init__(self, run_dir: str, traced: bool) -> None:
        self.run_dir = run_dir
        self.traced = traced
        self._procs: list[subprocess.Popen] = []
        self._logs = itertools.count()

    def __enter__(self) -> "_Processes":
        return self

    def __exit__(self, *exc) -> None:
        while self._procs:
            self.stop(self._procs[-1])

    def start(self, role: str, *args: str) -> subprocess.Popen:
        log_path = os.path.join(self.run_dir, f"{role}-{next(self._logs)}.log")
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, PROCS, role, "--run-dir", self.run_dir,
                 "--trace", str(int(self.traced)), *args],
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL, text=True,
            )
        self._procs.append(proc)
        return proc

    def first_line(self, proc: subprocess.Popen) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.1)
            if ready:
                line = proc.stdout.readline()
                if line:
                    return line
            if proc.poll() is not None:
                break
        raise RuntimeError(f"{proc.args[2]} process did not start; see {self.run_dir}")

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self._procs.remove(proc)

    def launch_manager(self, config: str) -> tuple[subprocess.Popen, int, float]:
        """Start the manager; returns it, its port and the seconds from
        launch until /health answers."""
        start = time.perf_counter()
        proc = self.start("manager", "--config", config)
        match = re.search(r"http://[^:]+:(\d+)", self.first_line(proc))
        if match is None:
            raise RuntimeError("manager did not report its port")
        port = int(match.group(1))
        while True:
            try:
                status, _ = _http_get(port, "/health")
                if status == 200:
                    return proc, port, time.perf_counter() - start
            except OSError:
                pass
            if time.perf_counter() - start > START_TIMEOUT_S:
                raise RuntimeError("manager /health did not answer")
            time.sleep(0.005)


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class _Client:
    """Checks one reply the way `slv verify` would use it."""

    def __init__(self, inputs: _Inputs) -> None:
        self.inputs = inputs
        self.pins: dict = {}
        self._pin_lock = threading.Lock()

    def check(self, ip: str, status: int, body: bytes) -> None:
        if status != 200:
            raise ValueError(f"{ip}: HTTP {status}")
        data = json.loads(body)
        result = VerificationResult.from_dict(data)
        if self.inputs.kind == "live_uncached":
            if not result.veri_passed or result.region is None or result.ip.value != ip:
                raise ValueError(f"{ip}: unexpected verdict {data}")
            return
        if data != self.inputs.expected[ip]:
            raise ValueError(f"{ip}: reply differs from its preloaded entry")
        with self._pin_lock:
            outcome = slv.pinning.evaluate_pin(self.pins, ip, result, now=utc_now())
        if outcome is not Outcome.UNSUSPICIOUS:
            raise ValueError(f"{ip}: pin outcome {outcome.value}")


def _closed_loop(port: int, client: _Client, warmup_s: float, seconds: float):
    """Run CLIENTS closed-loop threads; returns samples (start, end, ok,
    ip), errors, the measured window and reference-loop times."""
    samples: list[tuple[float, float, bool, str]] = []
    errors: list[str] = []
    begin = time.perf_counter()
    window = (begin + warmup_s, begin + warmup_s + seconds)

    def loop() -> None:
        while time.perf_counter() < window[1]:
            ip = client.inputs.next_ip()
            start = time.perf_counter()
            try:
                status, body = _http_get(port, f"/verify?ip={ip}")
                end = time.perf_counter()
                client.check(ip, status, body)
                ok = True
            except Exception as exc:  # every failure is a failed operation
                end = time.perf_counter()
                ok = False
                errors.append(f"{type(exc).__name__}: {exc}")
            samples.append((start, end, ok, ip))

    threads = [threading.Thread(target=loop, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    # Host speed, sampled on this thread's CPU clock while the clients run.
    loops = []
    while time.perf_counter() < window[1]:
        loops.append(reference_loop_s())
        time.sleep(0.25)
    for thread in threads:
        thread.join(timeout=warmup_s + seconds + REQUEST_TIMEOUT_S + 10)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return samples, errors, window, loops


def _phase(kind: str, run_dir: str, inputs: _Inputs, sizes: Sizes,
           seconds: float, traced: bool) -> dict:
    """Launch, load and stop the system once."""
    os.makedirs(run_dir, exist_ok=True)
    client = _Client(inputs)
    tracer = Tracer("client")
    with _Processes(run_dir, traced) as procs:
        agents = procs.start("agents")
        ports = json.loads(procs.first_line(agents))
        registry = os.path.join(run_dir, "verifiers.csv")
        with open(registry, "w", encoding="utf-8") as fh:
            fh.writelines(
                f"127.0.0.1:{port},{loc.lat},{loc.lon}\n"
                for port, loc in zip(ports["agents"], VERIFIER_LOCS)
            )
        config = os.path.join(run_dir, "manager.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({
                "registry": registry,
                "locator": {"provider": "static_table", "path": inputs.table},
                "listen_host": "127.0.0.1",
                "listen_port": 0,
                "target_port": ports["target"],
                "probes_per_measurement": PROBES,
                "measurement_timeout": MEASUREMENT_TIMEOUT_S,
                "cache_path": inputs.cache or os.path.join(run_dir, "cache.sqlite"),
            }, fh)

        startup = []
        for launch in range(sizes.launches):
            manager, port, elapsed = procs.launch_manager(config)
            startup.append(elapsed)
            if launch < sizes.launches - 1:
                procs.stop(manager)

        if traced:
            layers.install_client(tracer)
        try:
            samples, errors, window, loops = _closed_loop(
                port, client, sizes.warmup_s, seconds)
            if kind == "live_cached":
                slv.pinning.persist_store(client.pins, os.path.join(run_dir, "pins.json"))
        finally:
            tracer.uninstall()
        peak_rss_mb = _vm_hwm_mb(manager.pid)
        procs.stop(manager)
        procs.stop(agents)

    counts: dict[str, int] = {}
    spans = tracer.records()
    for path in sorted(glob.glob(os.path.join(run_dir, "dump-*.jsonl"))):
        proc_counts, proc_spans = load_dump(path)
        for name, n in proc_counts.items():
            counts[name] = counts.get(name, 0) + n
        spans.extend(proc_spans)
    layers.link_wire_spans(spans)
    measurement_failures = 0
    for path in glob.glob(os.path.join(run_dir, "manager-*.log")):
        with open(path, encoding="utf-8") as fh:
            measurement_failures += sum("measurement via" in line for line in fh)
    return {
        "samples": samples, "errors": errors, "window": window, "startup": startup,
        "host_scale": host_scale(loops),
        "peak_rss_mb": peak_rss_mb, "counts": counts, "spans": spans,
        "measurement_failures": measurement_failures, "pins": len(client.pins),
    }


def _end_to_end(kind: str, phase: dict, seconds: float, timings) -> tuple[dict, dict]:
    """Reported and unscaled end-to-end metrics of one phase."""
    lo, hi = phase["window"]
    measured = [(s, e) for s, e, ok, _ in phase["samples"] if ok and lo <= s < hi]
    completed = sum(1 for _, e, ok, _ in phase["samples"] if ok and lo <= e <= hi)
    latencies = [(e - s) * 1000.0 for s, e in measured]
    replies = len(phase["samples"])
    timings.samples["throughput_per_s"] = completed
    raw = {
        "setup_s": timings.record("setup_s", phase["startup"]),
        "throughput_per_s": completed / seconds,
        "latency_p50_ms": timings.record("latency_p50_ms", latencies),
        # live_uncached makes ~100 requests a run, enough for a p90. live_cached
        # makes ~2700, enough for a p99, but its p99 spread 0.24-0.27
        # (interquartile range over median) across runs on a shared 2-CPU
        # host, against 0.14 for p90; so both report p90.
        "latency_p90_ms": timings.record("latency_p90_ms", latencies, 90),
    }
    scale = phase["host_scale"] if kind in HOST_SCALED else 1.0
    metrics = at_reference_speed(raw, scale)
    metrics["peak_rss_mb"] = phase["peak_rss_mb"]
    metrics["verdict_accuracy"] = (
        sum(ok for _, _, ok, _ in phase["samples"]) / replies if replies else 0.0)
    return metrics, raw


def _checks(kind: str, phase: dict) -> dict:
    """Count sanity that holds with tracing on or off."""
    verified = sum(ok for _, _, ok, _ in phase["samples"])
    counts = phase["counts"]
    checks = {"manager_measurement_failures": phase["measurement_failures"] == 0}
    if kind == "live_uncached":
        # Every query names a fresh address, so every reply is one verification.
        checks["wire_requests_per_verification_is_9"] = (
            counts.get("agent.handle", 0) == WIRE_REQUESTS_PER_VERIFICATION * verified)
        checks["probe_connects_per_verification_is_27"] = (
            counts.get("agent.connect", 0) == PROBE_CONNECTS_PER_VERIFICATION * verified)
    else:
        checks["agents_saw_no_wire_requests"] = counts.get("agent.handle", 0) == 0
    return checks


def run(kind: str, run_dir: str, seed: int, seconds: float, traced: bool, smoke: bool,
        timings) -> dict:
    sizes = SMOKE if smoke else FULL
    inputs = _Inputs(run_dir, kind, seed, sizes)
    phase = _phase(kind, os.path.join(run_dir, "plain"), inputs, sizes,
                   seconds / 2 if traced else seconds, traced=False)
    metrics, raw = _end_to_end(kind, phase, seconds / 2 if traced else seconds, timings)
    checks = _checks(kind, phase)
    phases = [phase]
    result = {"metrics": metrics, "spans": [], "counts": {}}
    if traced:
        traced_phase = _phase(kind, os.path.join(run_dir, "traced"), inputs, sizes,
                              seconds / 2, traced=True)
        phases.append(traced_phase)
        traced_metrics, _ = _end_to_end(kind, traced_phase, seconds / 2, Timings())
        checks.update({f"traced_{k}": v for k, v in _checks(kind, traced_phase).items()})
        lo, hi = traced_phase["window"]
        result.update(
            spans=traced_phase["spans"], counts=traced_phase["counts"],
            client_samples=[s for s in traced_phase["samples"] if s[2] and lo <= s[0] < hi],
            layer_extra={"trace.overhead_share": 1.0 - traced_metrics["throughput_per_s"]
                         / metrics["throughput_per_s"] if metrics["throughput_per_s"] else 0.0},
        )
    samples = [s for p in phases for s in p["samples"]]
    result.update(
        attempted=len(samples),
        failed=sum(not ok for _, _, ok, _ in samples),
        errors=[e for p in phases for e in p["errors"]][:5],
        checks=checks,
        info={"host_scale": phase["host_scale"], "scaled": kind in HOST_SCALED, "unscaled": raw,
              "pinned_domains": phases[-1]["pins"],
              "startup_launches_s": [round(s, 4) for p in phases for s in p["startup"]]},
    )
    return result

