import json
import socket
import threading
import time

import pytest

from conftest import TcpListener, free_port
from slv.agent import (
    FAILED,
    AgentConnection,
    AgentServer,
    MeasureRequest,
    MeasureResponse,
    PeerSpec,
    ProtocolError,
    _measure_target,
    handle_measure_request,
    measure_rtt,
)
from slv.verify import TARGET

def dead_endpoint() -> tuple[str, int]:
    """A loopback port with no listener: connections are refused.

    Reserved documentation ranges are no use here because this sandbox
    intercepts all outbound TCP and completes the handshake itself.
    """
    return ("127.0.0.1", free_port())


class TestMeasureRtt:
    def test_loopback_is_fast(self, tcp_listener):
        ms = measure_rtt(tcp_listener.address, probes=5, timeout=2.0, spacing_s=0.0)
        assert ms is not None
        assert 0 < ms < 5.0

    def test_listenerless_endpoint_fails(self):
        start = time.monotonic()
        assert measure_rtt(dead_endpoint(), probes=3, timeout=1.0) is None
        assert time.monotonic() - start < 5.0

    def test_single_probe_is_the_sample(self):
        assert measure_rtt(("127.0.0.1", 1), probes=1, probe_fn=lambda: 7.3) == 7.3

    def test_minimum_over_successful_probes(self):
        samples = iter([5.2, ConnectionRefusedError(), 3.1, 9.9])

        def probe():
            value = next(samples)
            if isinstance(value, Exception):
                raise value
            return value

        ms = measure_rtt(("127.0.0.1", 1), probes=4, probe_fn=probe, spacing_s=0.0)
        assert ms == 3.1

    def test_all_probes_failing_gives_none(self):
        def probe():
            raise TimeoutError("no answer")

        assert measure_rtt(("127.0.0.1", 1), probes=3, probe_fn=probe, spacing_s=0.0) is None

    def test_rejects_zero_probes(self):
        with pytest.raises(ValueError):
            measure_rtt(("127.0.0.1", 1), probes=0)

    def test_monotonic_timing_never_negative(self, tcp_listener):
        for _ in range(20):
            ms = measure_rtt(tcp_listener.address, probes=1, timeout=2.0)
            assert ms is not None and ms >= 0


class TestTargetFallback:
    def test_refused_port_80_falls_back_to_443(self):
        listener = socketserver_on_443()
        if listener is None:
            pytest.skip("cannot bind port 443 in this environment")
        with listener:
            # nothing listens on port 80, so probes are refused and the
            # measurement retries against 443
            ms = _measure_target(("127.0.0.1", 80), probes=2, timeout=1.0)
            assert ms is not None

    def test_no_fallback_for_other_ports(self):
        assert _measure_target(("127.0.0.1", free_port()), probes=1, timeout=0.5) is None


def socketserver_on_443():
    try:
        return TcpListener(port=443)
    except OSError:
        return None


class TestMeasureRequestValidation:
    def good(self, **overrides):
        data = dict(
            request_id="r1",
            target=("127.0.0.1", 80),
            peers=(PeerSpec("v2", "127.0.0.1", 7708),),
            probes=3,
            timeout=1.0,
        )
        data.update(overrides)
        return data

    def test_accepts_valid(self):
        MeasureRequest(**self.good())

    def test_duplicate_peer_ids(self):
        peers = (PeerSpec("v2", "127.0.0.1", 1), PeerSpec("v2", "127.0.0.1", 2))
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(peers=peers))

    def test_peer_may_not_claim_target_id(self):
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(peers=(PeerSpec(TARGET, "127.0.0.1", 1),)))

    def test_needs_some_endpoint(self):
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(target=None, peers=()))

    def test_bad_addresses(self):
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(target=("example.com", 80)))
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(target=("127.0.0.1", 70000)))

    def test_bad_counts(self):
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(probes=0))
        with pytest.raises(ProtocolError):
            MeasureRequest(**self.good(timeout=0))

    def test_wire_round_trip(self):
        req = MeasureRequest(**self.good())
        assert MeasureRequest.from_wire(req.to_wire()) == req

    def test_response_wire_failed_marker(self):
        resp = MeasureResponse(request_id="r1", rtts={"target": 3.25, "v2": None})
        wire = resp.to_wire()
        assert wire["rtts"]["v2"] == FAILED
        assert MeasureResponse.from_wire(wire).rtts == {"target": 3.25, "v2": None}

    def test_response_rejects_negative(self):
        with pytest.raises(ProtocolError):
            MeasureResponse.from_wire({"request_id": "r", "rtts": {"target": -1.0}})


class TestHandleMeasureRequest:
    def test_one_target_two_peers_three_entries(self):
        req = MeasureRequest(
            request_id="r1",
            target=("127.0.0.1", 80),
            peers=(PeerSpec("v2", "127.0.0.1", 1001), PeerSpec("v3", "127.0.0.1", 1002)),
            probes=2,
            timeout=0.5,
        )
        resp = handle_measure_request(req, measure=lambda a, p, t: 4.2)
        assert resp.request_id == "r1"
        assert resp.rtts == {TARGET: 4.2, "v2": 4.2, "v3": 4.2}

    def test_partial_failure(self):
        def measure(address, probes, timeout):
            return None if address[1] == 1002 else 4.2

        req = MeasureRequest(
            request_id="r2",
            target=("127.0.0.1", 80),
            peers=(PeerSpec("v2", "127.0.0.1", 1001), PeerSpec("v3", "127.0.0.1", 1002)),
        )
        resp = handle_measure_request(req, measure=measure)
        assert resp.rtts == {TARGET: 4.2, "v2": 4.2, "v3": None}

    def test_values_are_reported_raw(self):
        # no correction of any kind happens on the agent side
        req = MeasureRequest(request_id="r3", target=("127.0.0.1", 80))
        resp = handle_measure_request(req, measure=lambda a, p, t: 3.0)
        assert resp.rtts[TARGET] == 3.0

    def test_single_endpoint_is_measured_on_the_calling_thread(self):
        threads = []

        def measure(address, probes, timeout):
            threads.append(threading.current_thread())
            return 2.5

        req = MeasureRequest(
            request_id="r4", target=None, peers=(PeerSpec("v2", "127.0.0.1", 1001),)
        )
        resp = handle_measure_request(req, measure=measure)
        assert resp.rtts == {"v2": 2.5}
        assert threads == [threading.current_thread()]


@pytest.fixture
def agent():
    server = AgentServer("127.0.0.1", 0, default_probes=2, default_timeout=1.0)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


class TestAgentServer:
    def test_end_to_end_measurement(self, agent, tcp_listener):
        conn = AgentConnection(*agent.bound_address)
        req = MeasureRequest(
            request_id="smoke-1",
            target=tcp_listener.address,
            probes=2,
            timeout=1.0,
        )
        resp = conn.request(req)
        assert resp.request_id == "smoke-1"
        assert resp.rtts[TARGET] is not None and resp.rtts[TARGET] > 0
        assert resp.verifier_clock
        conn.close()

    def test_persistent_connection_serves_many_requests(self, agent, tcp_listener):
        conn = AgentConnection(*agent.bound_address)
        for i in range(3):
            req = MeasureRequest(
                request_id=f"r{i}", target=tcp_listener.address, probes=1, timeout=1.0
            )
            assert conn.request(req).request_id == f"r{i}"
        conn.close()

    def test_unreachable_peer_marked_failed(self, agent, tcp_listener):
        conn = AgentConnection(*agent.bound_address)
        req = MeasureRequest(
            request_id="r-peers",
            target=tcp_listener.address,
            peers=(PeerSpec("v9", *dead_endpoint()),),
            probes=1,
            timeout=0.5,
        )
        resp = conn.request(req)
        assert resp.rtts[TARGET] is not None
        assert resp.rtts["v9"] is None
        conn.close()

    def test_malformed_line_gets_error_reply(self, agent):
        with socket.create_connection(agent.bound_address, timeout=5) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert "error" in reply

    def test_duplicate_endpoint_ids_get_error_reply(self, agent):
        bad = {
            "request_id": "dup",
            "target": {"host": "127.0.0.1", "port": 80},
            "peers": [
                {"verifier_id": "x", "host": "127.0.0.1", "port": 1},
                {"verifier_id": "x", "host": "127.0.0.1", "port": 2},
            ],
            "probes": 1,
            "timeout": 0.5,
        }
        with socket.create_connection(agent.bound_address, timeout=5) as sock:
            sock.sendall(json.dumps(bad).encode() + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert "error" in reply
        assert reply["request_id"] == "dup"

    def test_agent_error_reply_raises_protocol_error(self, agent):
        conn = AgentConnection(*agent.bound_address)
        good = MeasureRequest(request_id="x", target=("127.0.0.1", 80), probes=1, timeout=0.2)
        # bypass client-side validation to exercise the server's reply path
        object.__setattr__(good, "probes", 0)
        with pytest.raises(ProtocolError):
            conn.request(good)
        conn.close()

    def test_connection_refused_when_agent_down(self):
        conn = AgentConnection("127.0.0.1", free_port())
        with pytest.raises(OSError):
            conn.request(
                MeasureRequest(request_id="x", target=("127.0.0.1", 80), probes=1, timeout=0.2)
            )
