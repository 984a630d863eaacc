"""Tracing wrappers around the public functions of each slv layer, and the
per-layer metrics computed from the spans they record.

Span names are `<layer>.<what>`; the layer is the slv module whose code
runs inside the span.
"""

from __future__ import annotations

import itertools

import slv.agent
import slv.cli
import slv.geo
import slv.manager
import slv.pinning
import slv.simulator
import slv.verify
from slv.manager import (
    AgentConnection,
    LiveDelayProvider,
    ManagerService,
    StaticTableLocator,
    VerificationCache,
)
from slv.simulator import SimDelayProvider

from spans import ContextThreadPool, Tracer, self_times
from stats import Timings

MODULES = (slv.geo, slv.verify, slv.simulator, slv.agent, slv.manager, slv.pinning, slv.cli)

def _wrap(tracer: Tracer, function, name: str, how=None, **kwargs) -> None:
    """Rebind a module-level function to its span (or counter, with
    how=tracer.counting) in every slv module that imported it."""
    wrapper = (how or tracer.spanning)(name, function, **kwargs)
    tracer.patch_function(MODULES, function, wrapper)


def _install_engine(tracer: Tracer) -> None:
    """Geometry and verification engine, shared by simulation and manager."""
    _wrap(tracer, slv.geo.great_circle_distance, "geo.distance", tracer.counting)
    _wrap(tracer, slv.verify.verify_location, "verify.verify_location")
    _wrap(tracer, slv.verify.enumerate_triangles, "verify.enumerate_triangles",
          note=lambda args, result: {"found": len(result)})
    _wrap(tracer, slv.verify._measure_triangle, "verify.measure_triangle")


def install_sim(tracer: Tracer) -> None:
    """Wrappers for an in-process `slv simulate` run."""
    _install_engine(tracer)
    calls = itertools.count(1)
    _wrap(tracer, slv.cli.cmd_simulate, "cli.cmd_simulate",
          trace_of=lambda args: f"simulate#{next(calls)}")
    _wrap(tracer, slv.simulator.run_experiment, "simulator.run_experiment")
    tracer.patch(SimDelayProvider, "measure", tracer.spanning(
        "simulator.measure", SimDelayProvider.measure))


def install_manager(tracer: Tracer) -> None:
    """Wrappers for the manager process. Requests are traced by the queried
    IP plus a per-process sequence number."""
    _install_engine(tracer)
    tracer.patch(slv.verify, "ThreadPoolExecutor", ContextThreadPool)
    requests = itertools.count(1)
    tracer.patch(ManagerService, "handle_verify_request", tracer.spanning(
        "manager.handle", ManagerService.handle_verify_request,
        trace_of=lambda args: f"{args[1]}#{next(requests)}",
        note=lambda args, result: {"ip": args[1]}))
    tracer.patch(ManagerService, "from_config", tracer.spanning(
        "manager.startup", ManagerService.from_config, trace_of=lambda args: "startup"))
    tracer.patch(ManagerService, "_single_flight", tracer.spanning(
        "manager.single_flight", ManagerService._single_flight))
    tracer.patch(ManagerService, "_run_verification", tracer.spanning(
        "manager.verify", ManagerService._run_verification))
    tracer.patch(StaticTableLocator, "locate", tracer.spanning(
        "manager.locate", StaticTableLocator.locate))
    tracer.patch(VerificationCache, "get", tracer.spanning(
        "manager.cache_get", VerificationCache.get,
        note=lambda args, result: {"hit": result is not None}))
    tracer.patch(VerificationCache, "put", tracer.spanning(
        "manager.cache_put", VerificationCache.put))
    tracer.patch(LiveDelayProvider, "measure", tracer.spanning(
        "manager.measure", LiveDelayProvider.measure,
        note=lambda args, result: {"failed": result is None}))
    tracer.patch(AgentConnection, "request", tracer.spanning(
        "agent.request", AgentConnection.request,
        note=lambda args, result: {"wire": args[1].request_id}))


def install_agents(tracer: Tracer, traced: bool) -> None:
    """Wire requests and probe connects are always counted (an integer
    increment beside a TCP handshake); spans only when traced."""
    original = slv.agent.handle_measure_request
    handle = tracer.counting("agent.handle", original)
    if traced:
        handle = tracer.spanning(
            "agent.handle", handle,
            trace_of=lambda args: f"wire:{args[0].request_id}",
            note=lambda args, result: {"wire": args[0].request_id})
    tracer.patch_function(MODULES, original, handle)
    _wrap(tracer, slv.agent._tcp_connect_ms, "agent.connect", tracer.counting)


def install_client(tracer: Tracer) -> None:
    """Client-side pinning in the load generator."""
    pins = itertools.count(1)
    _wrap(tracer, slv.pinning.evaluate_pin, "pinning.evaluate",
          trace_of=lambda args: f"pin#{next(pins)}")
    _wrap(tracer, slv.pinning.persist_store, "pinning.persist", trace_of=lambda args: "persist")


def link_wire_spans(spans: list[dict]) -> None:
    """Attach each agent-side span to the manager-side request that caused
    it, through the wire request id both sides recorded."""
    requests = {
        s["attrs"]["wire"]: s for s in spans
        if s["name"] == "agent.request" and "wire" in s["attrs"]
    }
    for span in spans:
        if span["name"] == "agent.handle":
            cause = requests.get(span["attrs"].get("wire"))
            if cause is not None:
                span["parent"] = cause["id"]
                span["trace"] = cause["trace"]


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict],
    counts: dict[str, int],
    timings: Timings,
    client_samples=(),
    extra: dict | None = None,
) -> dict[str, float]:
    """Every per-layer metric from one traced phase.

    client_samples are (start, end, ok, ip) of the load generator's
    requests; extra carries metrics measured outside spans. A metric of a
    layer that the workload does not reach reads 0, with 0 samples.
    """
    by: dict[str, list[dict]] = {}
    for span in spans:
        by.setdefault(span["name"], []).append(span)

    def get(name: str) -> list[dict]:
        return by.get(name, [])

    own = self_times(spans)
    verifications = get("verify.verify_location")
    n_ver = len(verifications)
    enum = get("verify.enumerate_triangles")
    found = sum(s["attrs"].get("found", 0) for s in enum)
    used = len(get("verify.measure_triangle"))
    measures = get("simulator.measure") + get("manager.measure")
    handles = get("manager.handle")
    servers = len(handles) or n_ver

    handle_by_wire = {s["attrs"]["wire"]: s for s in get("agent.handle") if "wire" in s["attrs"]}
    waits = [
        _ms(s) - _ms(handle_by_wire[s["attrs"]["wire"]])
        for s in get("agent.request")
        if s["attrs"].get("wire") in handle_by_wire
    ]

    handles_by_ip: dict[str, list[dict]] = {}
    for s in handles:
        handles_by_ip.setdefault(s["attrs"].get("ip"), []).append(s)
    http = []
    for start, end, ok, ip in client_samples:
        for s in handles_by_ip.get(ip, ()):
            if start <= s["start"] and s["end"] <= end:
                http.append((end - start) * 1000.0 - _ms(s))
                break

    cli_overhead = []
    for s in get("cli.cmd_simulate"):
        inner = sum(_ms(c) for c in get("simulator.run_experiment") if c["parent"] == s["id"])
        cli_overhead.append(_ms(s) - inner)

    rec = timings.record
    metrics = {
        "geo.distance_calls_per_server": _ratio(counts.get("geo.distance", 0), servers),
        "verify.enumerate_ms_p50": rec("verify.enumerate_ms_p50", [_ms(s) for s in enum]),
        "verify.enumerate_share": _ratio(
            sum(_ms(s) for s in enum), sum(_ms(s) for s in verifications)),
        "verify.triangles_found_per_point": _ratio(found, len(enum)),
        "verify.triangles_used_per_point": _ratio(used, n_ver),
        "verify.triangle_use_ratio": _ratio(used, found),
        "verify.measure_calls_per_verification": _ratio(len(measures), n_ver),
        "verify.self_ms_p50": rec(
            "verify.self_ms_p50", [own[s["id"]] * 1000.0 for s in verifications]),
        "simulator.measure_us_p50": 1000.0 * rec(
            "simulator.measure_us_p50", [_ms(s) for s in get("simulator.measure")]),
        "agent.wire_requests_per_verification": _ratio(counts.get("agent.handle", 0), n_ver),
        "agent.probe_connects_per_verification": _ratio(counts.get("agent.connect", 0), n_ver),
        "agent.request_ms_p50": rec("agent.request_ms_p50", [_ms(s) for s in get("agent.request")]),
        "agent.request_ms_p90": rec(
            "agent.request_ms_p90", [_ms(s) for s in get("agent.request")], 90),
        "agent.handle_ms_p50": rec("agent.handle_ms_p50", [_ms(s) for s in get("agent.handle")]),
        "agent.wait_ms_p50": rec("agent.wait_ms_p50", waits),
        "agent.failures": sum(
            1 for s in get("manager.measure")
            if s["attrs"].get("failed") or "error" in s["attrs"]),
        "manager.locate_ms_p50": rec(
            "manager.locate_ms_p50", [_ms(s) for s in get("manager.locate")]),
        "manager.cache_get_us_p50": 1000.0 * rec(
            "manager.cache_get_us_p50", [_ms(s) for s in get("manager.cache_get")]),
        "manager.http_ms_p50": rec("manager.http_ms_p50", http),
        "manager.handle_ms_p50": rec("manager.handle_ms_p50", [_ms(s) for s in handles]),
        "manager.cache_hit_ratio": _ratio(
            len(handles) - len(get("manager.single_flight")), len(handles)),
        "manager.cache_put_ms_p50": rec(
            "manager.cache_put_ms_p50", [_ms(s) for s in get("manager.cache_put")]),
        "manager.verify_ms_p50": rec(
            "manager.verify_ms_p50", [_ms(s) for s in get("manager.verify")]),
        "manager.single_flight_joins": len(get("manager.single_flight")) - len(get("manager.verify")),
        "manager.startup_s": rec(
            "manager.startup_s", [_ms(s) / 1000.0 for s in get("manager.startup")]),
        "pinning.evaluate_us_p50": 1000.0 * rec(
            "pinning.evaluate_us_p50", [_ms(s) for s in get("pinning.evaluate")]),
        "pinning.persist_ms": rec("pinning.persist_ms", [_ms(s) for s in get("pinning.persist")]),
        "cli.overhead_ms": rec("cli.overhead_ms", cli_overhead),
        "simulator.generate_s": 0.0,
        "trace.overhead_share": 0.0,
    }
    metrics.update(extra or {})
    return metrics


def self_ms_by_layer(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer in ms: the part of each span's interval
    that none of its child spans covers, summed by span-name prefix."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]] * 1000.0
    return {layer: round(ms, 3) for layer, ms in sorted(totals.items())}
