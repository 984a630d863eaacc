import json
import math
import socket
import threading
import time

import pytest

import slv.agent
from conftest import free_port
from slv.agent import (
    FAILED,
    MAX_LINE_BYTES,
    MAX_PEERS,
    AgentConnection,
    AgentServer,
    MeasureRequest,
    MeasureResponse,
    PeerSpec,
    ProtocolError,
    handle_measure_request,
    measure_rtt,
)
from slv.verify import MAX_PROBES, MAX_TIMEOUT_S, TARGET, VerifyConfig

def dead_endpoint() -> tuple[str, int]:
    """A loopback port with no listener: connections are refused.

    Reserved documentation ranges are no use here because this sandbox
    intercepts all outbound TCP and completes the handshake itself.
    """
    return ("127.0.0.1", free_port())


def fake_probes(monkeypatch, connect) -> list[tuple[str, int]]:
    """Route every probe through connect(address, timeout) instead of the
    network, with no spacing between probes; returns the probed addresses
    in call order."""
    probed = []

    def probe(address, timeout):
        probed.append(address)
        return connect(address, timeout)

    monkeypatch.setattr(slv.agent, "_tcp_connect_ms", probe)
    monkeypatch.setattr(slv.agent, "PROBE_SPACING_S", 0.0)
    return probed


def refuse(*ports):
    """A fake connect that refuses the given ports and takes 6 ms elsewhere."""

    def connect(address, timeout):
        if address[1] in ports:
            raise ConnectionRefusedError(address)
        return 6.0

    return connect


class TestMeasureRtt:
    def test_loopback_is_fast(self, tcp_listener, monkeypatch):
        monkeypatch.setattr(slv.agent, "PROBE_SPACING_S", 0.0)
        ms = measure_rtt(tcp_listener.address, probes=5, timeout=2.0)
        assert ms is not None
        assert 0 < ms < 5.0

    def test_listenerless_endpoint_fails(self):
        start = time.monotonic()
        assert measure_rtt(dead_endpoint(), probes=3, timeout=1.0) is None
        assert time.monotonic() - start < 5.0

    def test_single_probe_is_the_sample(self, monkeypatch):
        timeouts = []

        def connect(address, timeout):
            timeouts.append(timeout)
            return 7.3

        probed = fake_probes(monkeypatch, connect)
        assert measure_rtt(("127.0.0.1", 1), probes=1, timeout=0.75) == 7.3
        assert probed == [("127.0.0.1", 1)]
        assert timeouts == [0.75]

    def test_minimum_over_successful_probes(self, monkeypatch):
        samples = iter([5.2, ConnectionRefusedError(), 3.1, 9.9])

        def connect(address, timeout):
            value = next(samples)
            if isinstance(value, Exception):
                raise value
            return value

        probed = fake_probes(monkeypatch, connect)
        assert measure_rtt(("127.0.0.1", 1), probes=4) == 3.1
        assert len(probed) == 4

    def test_all_probes_failing_gives_none(self, monkeypatch):
        def connect(address, timeout):
            raise TimeoutError("no answer")

        probed = fake_probes(monkeypatch, connect)
        assert measure_rtt(("127.0.0.1", 1), probes=3) is None
        assert len(probed) == 3

    def test_probes_are_spaced(self, monkeypatch):
        starts = []

        def connect(address, timeout):
            starts.append(time.monotonic())
            return 1.0

        fake_probes(monkeypatch, connect)
        monkeypatch.setattr(slv.agent, "PROBE_SPACING_S", 0.02)
        assert measure_rtt(("127.0.0.1", 1), probes=3) == 1.0
        # with no spacing the three probes would start microseconds apart
        assert all(b - a >= 0.015 for a, b in zip(starts, starts[1:]))

    def test_rejects_zero_probes(self):
        with pytest.raises(ValueError):
            measure_rtt(("127.0.0.1", 1), probes=0)

    def test_monotonic_timing_never_negative(self, tcp_listener):
        for _ in range(20):
            ms = measure_rtt(tcp_listener.address, probes=1, timeout=2.0)
            assert ms is not None and ms >= 0


class TestTargetFallback:
    def test_refused_port_80_falls_back_to_443(self, monkeypatch):
        probed = fake_probes(monkeypatch, refuse(80))
        assert measure_rtt(("127.0.0.1", 80), probes=2, timeout=1.0, https_fallback=True) == 6.0
        assert [port for _, port in probed] == [80, 80, 443, 443]

    def test_refused_loopback_connect_falls_back(self, monkeypatch, tcp_listener):
        # Real connects: port 80 goes to a port with no listener, which
        # refuses, and 443 to a listener.
        connect, dead = slv.agent._tcp_connect_ms, dead_endpoint()

        def redirect(address, timeout):
            return connect(dead if address[1] == 80 else tcp_listener.address, timeout)

        probed = fake_probes(monkeypatch, redirect)
        assert measure_rtt(("127.0.0.1", 80), probes=2, timeout=1.0,
                           https_fallback=True) is not None
        assert [port for _, port in probed] == [80, 80, 443, 443]

    def test_timeouts_on_port_80_do_not_fall_back(self, monkeypatch):
        def connect(address, timeout):
            raise TimeoutError(address)

        probed = fake_probes(monkeypatch, connect)
        assert measure_rtt(("127.0.0.1", 80), probes=2, timeout=1.0, https_fallback=True) is None
        assert [port for _, port in probed] == [80, 80]

    def test_no_fallback_for_other_ports(self):
        address = ("127.0.0.1", free_port())
        assert measure_rtt(address, probes=1, timeout=0.5, https_fallback=True) is None

    def test_request_target_falls_back_but_peers_do_not(self, monkeypatch):
        probed = fake_probes(monkeypatch, refuse(80))
        req = MeasureRequest(
            request_id="r-fallback",
            target=("127.0.0.1", 80),
            peers=(PeerSpec("v2", "127.0.0.2", 80),),
            probes=1,
        )
        assert handle_measure_request(req).rtts == {TARGET: 6.0, "v2": None}
        assert sorted(probed) == [("127.0.0.1", 80), ("127.0.0.1", 443), ("127.0.0.2", 80)]


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

    def test_non_finite_timeout(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ProtocolError):
                MeasureRequest(**self.good(timeout=bad))
            with pytest.raises(ProtocolError):
                MeasureRequest.from_wire({**MeasureRequest(**self.good()).to_wire(), "timeout": bad})
        with pytest.raises(ProtocolError):
            MeasureRequest.from_wire({**MeasureRequest(**self.good()).to_wire(), "probes": math.inf})

    def test_boolean_probes_are_refused(self):
        with pytest.raises(ProtocolError, match="probes must be an integer"):
            MeasureRequest(**self.good(probes=True))

    @pytest.mark.parametrize("path, value, named", [
        (("probes",), 2.9, "probes"),
        (("probes",), True, "probes"),
        (("probes",), "3", "probes"),
        (("timeout",), "5", "timeout"),
        (("timeout",), False, "timeout"),
        (("target", "port"), "80", "target port"),
        (("target", "port"), 80.9, "target port"),
        (("target", "port"), True, "target port"),
        (("peers", 0, "port"), "7708", "peer v2 port"),
        (("peers", 0, "port"), 7708.5, "peer v2 port"),
    ])
    def test_wire_values_are_read_as_written(self, path, value, named):
        wire = MeasureRequest(**self.good()).to_wire()
        target = wire
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ProtocolError, match=f"{named} must be") as err:
            MeasureRequest.from_wire(wire)
        assert f"got {value!r}" in str(err.value)

    @pytest.mark.parametrize("path, value, named", [
        (("request_id",), 5, "request_id"),
        (("target", "host"), 2130706433, "target host"),
        (("peers", 0, "verifier_id"), 3, "peer verifier_id"),
        (("peers", 0, "host"), 2130706433, "peer v2 host"),
    ])
    def test_wire_text_fields_must_be_strings(self, path, value, named):
        # str() would read 5 as "5"; ip_address reads 2130706433 as 127.0.0.1
        wire = MeasureRequest(**self.good()).to_wire()
        target = wire
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ProtocolError, match=f"{named} must be a string, got {value!r}"):
            MeasureRequest.from_wire(wire)

    @pytest.mark.parametrize("overrides, named", [
        (dict(request_id=7), "request_id"),
        (dict(target=(2130706433, 80)), "target host"),
        (dict(peers=(PeerSpec(3, "127.0.0.1", 7708),)), "peer verifier_id"),
        (dict(request_id=7, peers=(PeerSpec(3, "127.0.0.1", 7708),)), "request_id"),
        (dict(peers=(PeerSpec("v2", 2130706433, 7708),)), "peer v2 host"),
    ])
    def test_constructor_text_fields_must_be_strings(self, overrides, named):
        with pytest.raises(ProtocolError, match=f"{named} must be a string"):
            MeasureRequest(**self.good(**overrides))

    def test_wire_round_trip(self):
        req = MeasureRequest(**self.good())
        assert MeasureRequest.from_wire(req.to_wire()) == req

    @staticmethod
    def peers(count: int) -> tuple[PeerSpec, ...]:
        return tuple(PeerSpec(f"v{i}", "127.0.0.1", 1000 + i) for i in range(count))

    def test_caps(self):
        MeasureRequest(**self.good(probes=MAX_PROBES, timeout=MAX_TIMEOUT_S,
                                   peers=self.peers(MAX_PEERS)))
        for bad in (dict(probes=MAX_PROBES + 1), dict(timeout=MAX_TIMEOUT_S + 0.5),
                    dict(peers=self.peers(MAX_PEERS + 1))):
            with pytest.raises(ProtocolError):
                MeasureRequest(**self.good(**bad))
            wire = {**MeasureRequest(**self.good()).to_wire(), **bad}
            if "peers" in bad:
                wire["peers"] = [{"verifier_id": p.verifier_id, "host": p.host, "port": p.port}
                                 for p in bad["peers"]]
            with pytest.raises(ProtocolError):
                MeasureRequest.from_wire(wire)
        with pytest.raises(ProtocolError):
            MeasureRequest.from_wire({**MeasureRequest(**self.good()).to_wire(), "peers": 5})

    def test_caps_admit_every_config_a_manager_can_load(self):
        # VerifyConfig refuses what the agent refuses, so a manager never
        # builds a request its agents reject; the defaults fit both.
        cfg = VerifyConfig(probes_per_measurement=MAX_PROBES, measurement_timeout=MAX_TIMEOUT_S)
        MeasureRequest(**self.good(probes=cfg.probes_per_measurement,
                                   timeout=cfg.measurement_timeout))
        MeasureRequest(**self.good(probes=VerifyConfig().probes_per_measurement,
                                   timeout=VerifyConfig().measurement_timeout))
        with pytest.raises(ValueError):
            VerifyConfig(probes_per_measurement=MAX_PROBES + 1)
        with pytest.raises(ValueError):
            VerifyConfig(measurement_timeout=MAX_TIMEOUT_S + 0.5)

    def test_agent_defaults_are_capped(self):
        for bad in (dict(default_probes=MAX_PROBES + 1), dict(default_timeout=MAX_TIMEOUT_S + 1),
                    dict(default_probes=0)):
            with pytest.raises(ProtocolError):
                AgentServer("127.0.0.1", 0, **bad)

    def test_response_wire_failed_marker(self):
        resp = MeasureResponse(request_id="r1", rtts={"target": 3.25, "v2": None})
        wire = resp.to_wire()
        assert wire["rtts"]["v2"] == FAILED
        assert MeasureResponse.from_wire(wire).rtts == {"target": 3.25, "v2": None}

    @pytest.mark.parametrize("field, value", [("request_id", 5), ("verifier_clock", 12)])
    def test_response_text_fields_must_be_strings(self, field, value):
        wire = {**MeasureResponse(request_id="r", rtts={TARGET: 1.0}).to_wire(), field: value}
        with pytest.raises(ProtocolError, match=f"{field} must be a string, got {value!r}"):
            MeasureResponse.from_wire(wire)
        with pytest.raises(ProtocolError, match=f"{field} must be a string"):
            MeasureResponse(**{"request_id": "r", "rtts": {}, field: value})

    def test_response_rejects_negative(self):
        with pytest.raises(ProtocolError):
            MeasureResponse.from_wire({"request_id": "r", "rtts": {"target": -1.0}})

    @pytest.mark.parametrize("reply", [
        5,
        [],
        {"request_id": "r"},
        {"request_id": "r", "rtts": [1.0, 2.0]},
        {"request_id": "r", "rtts": {"target": "fast"}},
        {"request_id": "r", "rtts": {"target": None}},
        {"request_id": "r", "rtts": {"target": math.nan}},
        {"request_id": "r", "rtts": {"target": math.inf}},
        {"request_id": "r", "rtts": {"target": True}},
    ])
    def test_response_rejects_malformed(self, reply):
        with pytest.raises(ProtocolError):
            MeasureResponse.from_wire(reply)


class TestHandleMeasureRequest:
    def test_one_target_two_peers_three_entries(self, monkeypatch):
        probed = fake_probes(monkeypatch, lambda address, timeout: 4.2)
        req = MeasureRequest(
            request_id="r1",
            target=("127.0.0.1", 80),
            peers=(PeerSpec("v2", "127.0.0.1", 1001), PeerSpec("v3", "127.0.0.1", 1002)),
            probes=2,
            timeout=0.5,
        )
        resp = handle_measure_request(req)
        assert resp.request_id == "r1"
        assert resp.rtts == {TARGET: 4.2, "v2": 4.2, "v3": 4.2}
        assert sorted(port for _, port in probed) == [80, 80, 1001, 1001, 1002, 1002]

    def test_partial_failure(self, monkeypatch):
        fake_probes(monkeypatch, refuse(1002))
        req = MeasureRequest(
            request_id="r2",
            target=("127.0.0.1", 80),
            peers=(PeerSpec("v2", "127.0.0.1", 1001), PeerSpec("v3", "127.0.0.1", 1002)),
        )
        resp = handle_measure_request(req)
        assert resp.rtts == {TARGET: 6.0, "v2": 6.0, "v3": None}

    def test_values_are_reported_raw(self, monkeypatch):
        # no correction of any kind happens on the agent side
        fake_probes(monkeypatch, lambda address, timeout: 3.0)
        req = MeasureRequest(request_id="r3", target=("127.0.0.1", 80))
        resp = handle_measure_request(req)
        assert resp.rtts[TARGET] == 3.0

    def test_single_endpoint_is_measured_on_the_calling_thread(self, monkeypatch):
        threads = []

        def connect(address, timeout):
            threads.append(threading.current_thread())
            return 2.5

        fake_probes(monkeypatch, connect)
        req = MeasureRequest(
            request_id="r4", target=None, peers=(PeerSpec("v2", "127.0.0.1", 1001),), probes=1
        )
        resp = handle_measure_request(req)
        assert resp.rtts == {"v2": 2.5}
        assert threads == [threading.current_thread()]


    def test_every_endpoint_is_measured_at_once(self, monkeypatch):
        # Each probe waits until a target and MAX_PEERS peers are all being
        # probed, which one round of concurrent connects reaches and a
        # smaller pool never does.
        barrier = threading.Barrier(MAX_PEERS + 1, timeout=5)

        def connect(address, timeout):
            barrier.wait()
            return 1.5

        fake_probes(monkeypatch, connect)
        peers = tuple(PeerSpec(f"v{i}", "127.0.0.1", 1000 + i) for i in range(MAX_PEERS))
        req = MeasureRequest(request_id="r5", target=("127.0.0.1", 80), peers=peers, probes=1)
        resp = handle_measure_request(req)
        assert resp.rtts == {TARGET: 1.5, **{peer.verifier_id: 1.5 for peer in peers}}


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

    def test_non_finite_numbers_get_error_reply_and_keep_the_connection(
        self, agent, tcp_listener
    ):
        good = MeasureRequest(request_id="ok", target=tcp_listener.address, probes=1, timeout=1.0)
        with socket.create_connection(agent.bound_address, timeout=5) as sock:
            reader = sock.makefile("rb")
            # json writes these as the NaN and Infinity literals it also reads
            for field, value in (("timeout", math.nan), ("timeout", math.inf), ("probes", math.inf)):
                wire = json.dumps({**good.to_wire(), "request_id": "bad", field: value})
                sock.sendall(wire.encode() + b"\n")
                reply = json.loads(reader.readline())
                assert reply["request_id"] == "bad" and "error" in reply
            sock.sendall(json.dumps(good.to_wire()).encode() + b"\n")
            assert json.loads(reader.readline())["request_id"] == "ok"

    def test_requests_over_the_caps_get_error_reply_and_keep_the_connection(
        self, agent, tcp_listener
    ):
        good = MeasureRequest(request_id="ok", target=tcp_listener.address, probes=1, timeout=1.0)
        many = [{"verifier_id": f"v{i}", "host": "127.0.0.1", "port": 1000 + i}
                for i in range(MAX_PEERS + 1)]
        with socket.create_connection(agent.bound_address, timeout=5) as sock:
            reader = sock.makefile("rb")
            for field, value in (("probes", MAX_PROBES + 1), ("timeout", MAX_TIMEOUT_S + 1.0),
                                 ("peers", many)):
                wire = json.dumps({**good.to_wire(), "request_id": "big", field: value})
                sock.sendall(wire.encode() + b"\n")
                reply = json.loads(reader.readline())
                assert reply["request_id"] == "big" and "error" in reply
            sock.sendall(json.dumps(good.to_wire()).encode() + b"\n")
            assert json.loads(reader.readline())["request_id"] == "ok"

    def test_non_string_text_fields_get_error_reply_and_keep_the_connection(
        self, agent, tcp_listener
    ):
        good = MeasureRequest(request_id="ok", target=tcp_listener.address, probes=1,
                              timeout=1.0, peers=(PeerSpec("v2", *tcp_listener.address),))
        with socket.create_connection(agent.bound_address, timeout=5) as sock:
            reader = sock.makefile("rb")
            wire = good.to_wire()
            for bad in ({**wire, "request_id": 5},
                        {**wire, "peers": [{**wire["peers"][0], "verifier_id": 3}]}):
                sock.sendall(json.dumps(bad).encode() + b"\n")
                reply = json.loads(reader.readline())
                assert "must be a string" in reply["error"]
            sock.sendall(json.dumps(wire).encode() + b"\n")
            assert json.loads(reader.readline())["request_id"] == "ok"

    def test_overlong_request_line_gets_error_reply_and_a_close(self, agent, tcp_listener):
        good = MeasureRequest(request_id="ok", target=tcp_listener.address, probes=1, timeout=1.0)
        wire = json.dumps(good.to_wire()).encode()
        at_limit = wire + b" " * (MAX_LINE_BYTES - len(wire) - 1) + b"\n"
        with socket.create_connection(agent.bound_address, timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(at_limit)
            assert json.loads(reader.readline())["request_id"] == "ok"
            # no newline in sight: the agent stops reading at the limit
            sock.sendall(b"x" * (4 * MAX_LINE_BYTES))
            reply = json.loads(reader.readline())
            assert reply == {"error": f"request line over {MAX_LINE_BYTES} bytes",
                             "request_id": None}
            assert reader.readline() == b""
        conn = AgentConnection(*agent.bound_address)
        assert conn.request(good).request_id == "ok"
        conn.close()

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
