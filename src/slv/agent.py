"""Verifier agent: measures application-layer RTTs on request.

The agent times TCP connection establishment (a handshake proxy that
needs no raw sockets and no payload) to targets and to peer verifiers,
and reports the per-endpoint minimum back to the manager. The wire
protocol is one JSON object per line over a persistent TCP connection.
"""

from __future__ import annotations

import errno
import ipaddress
import json
import logging
import math
import os
import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from .geo import _checked_number
from .verify import (
    DEFAULT_PROBES,
    DEFAULT_TIMEOUT,
    MAX_PROBES,
    MAX_TIMEOUT_S,
    TARGET,
    _checked_text,
    format_timestamp,
    utc_now,
)

log = logging.getLogger(__name__)

DEFAULT_AGENT_PORT = 7707

# Wire marker for an endpoint that could not be measured.
FAILED = "FAILED"

# Pause between sequential probes so we do not queue behind ourselves.
PROBE_SPACING_S = 0.05

# Seconds AgentConnection waits to establish its connection to an agent.
CONNECT_TIMEOUT_S = 5.0

# Seconds a reply may take beyond the agent's worst case of one endpoint's
# probes all running to their full timeouts (see reply_deadline).
REPLY_HEADROOM_S = 5.0

# Socket timeout in seconds of a read or write made once its reply deadline
# has passed: enough to take a reply that has already arrived.
_LATE_READ_S = 0.001

# Longest request line in bytes an agent reads, newline included; a
# request naming MAX_PEERS peers takes under 2 KiB. A longer line gets an
# error reply and a close.
MAX_LINE_BYTES = 64 * 1024

# Seconds a daemon reads out what a client still sends after an error reply
# that ends the connection, and the size of each read.
_LINGER_S = 1.0
_RECV_SIZE = 16384

# Most peers one request may name. Together with MAX_PROBES and
# MAX_TIMEOUT_S this bounds the connections and the time one request can
# make an agent spend, so an agent cannot be used as a scanning relay.
MAX_PEERS = 16


class ProtocolError(ValueError):
    """A request or response does not follow the wire protocol."""


def _checked(check, name: str, value, *limits, **kind) -> None:
    """check(name, value, *limits, **kind), such as _checked_number or
    _checked_text, raising ProtocolError for its ValueError."""
    try:
        check(name, value, *limits, **kind)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _check_limits(probes: int, timeout: float) -> None:
    """Raise ProtocolError unless an agent accepts probes and timeout: the
    limits that VerifyConfig keeps to."""
    _checked(_checked_number, "probes", probes, 1, MAX_PROBES, integer=True)
    _checked(_checked_number, "timeout", timeout, 0, MAX_TIMEOUT_S, above=True)


def _check_address(host: str, port: int, what: str) -> None:
    _checked(_checked_text, f"{what} host", host)
    try:
        ipaddress.ip_address(host)
    except ValueError as exc:
        raise ProtocolError(f"{what} host is not a valid IP address: {host!r}") from exc
    _checked(_checked_number, f"{what} port", port, 1, 65535, integer=True)


@dataclass(frozen=True)
class PeerSpec:
    """A peer verifier to measure, addressed by its agent listener."""

    verifier_id: str
    host: str
    port: int = DEFAULT_AGENT_PORT


@dataclass(frozen=True)
class MeasureRequest:
    """One measurement order from the manager.

    Measures the target (when given) and every peer. Endpoint ids in the
    response are TARGET for the target and the verifier id for each peer,
    so ids must be unique and no peer may claim the reserved TARGET id.
    A request names at most MAX_PEERS peers, at most MAX_PROBES probes and
    a timeout of at most MAX_TIMEOUT_S seconds.
    """

    request_id: str
    target: Optional[tuple[str, int]]
    peers: tuple[PeerSpec, ...] = ()
    probes: int = DEFAULT_PROBES
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", tuple(self.peers))
        _checked(_checked_text, "request_id", self.request_id)
        if not self.request_id:
            raise ProtocolError("request_id must be non-empty")
        if self.target is None and not self.peers:
            raise ProtocolError("request must name a target or at least one peer")
        if len(self.peers) > MAX_PEERS:
            raise ProtocolError(f"request names more than {MAX_PEERS} peers")
        if self.target is not None:
            _check_address(self.target[0], self.target[1], "target")
        for peer in self.peers:
            _checked(_checked_text, "peer verifier_id", peer.verifier_id)
            if not peer.verifier_id:
                raise ProtocolError("peer verifier_id must be non-empty")
            _check_address(peer.host, peer.port, f"peer {peer.verifier_id}")
        ids = [TARGET] + [p.verifier_id for p in self.peers]
        if len(set(ids)) != len(ids):
            raise ProtocolError("duplicate endpoint ids in request")
        _check_limits(self.probes, self.timeout)

    def to_wire(self) -> dict:
        return {
            "request_id": self.request_id,
            "target": (
                {"host": self.target[0], "port": self.target[1]} if self.target else None
            ),
            "peers": [
                {"verifier_id": p.verifier_id, "host": p.host, "port": p.port}
                for p in self.peers
            ],
            "probes": self.probes,
            "timeout": self.timeout,
        }

    @classmethod
    def from_wire(
        cls,
        data: dict,
        default_probes: int = DEFAULT_PROBES,
        default_timeout: float = DEFAULT_TIMEOUT,
    ) -> "MeasureRequest":
        if not isinstance(data, dict):
            raise ProtocolError("request must be a JSON object")
        try:
            if len(data.get("peers") or ()) > MAX_PEERS:
                raise ProtocolError(f"request names more than {MAX_PEERS} peers")
            target = data.get("target")
            peers = tuple(
                PeerSpec(
                    verifier_id=p["verifier_id"],
                    host=p["host"],
                    port=p.get("port", DEFAULT_AGENT_PORT),
                )
                for p in data.get("peers", [])
            )
            return cls(
                request_id=data.get("request_id", ""),
                target=(target["host"], target.get("port", 80)) if target else None,
                peers=peers,
                probes=data.get("probes", default_probes),
                timeout=data.get("timeout", default_timeout),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed request: {exc}") from exc


@dataclass(frozen=True)
class MeasureResponse:
    """Per-endpoint minimum RTTs; None marks a failed endpoint."""

    request_id: str
    rtts: dict[str, Optional[float]]
    verifier_clock: str = field(default_factory=lambda: format_timestamp(utc_now()))

    def __post_init__(self) -> None:
        _checked(_checked_text, "request_id", self.request_id)
        _checked(_checked_text, "verifier_clock", self.verifier_clock)

    def to_wire(self) -> dict:
        return {
            "request_id": self.request_id,
            "rtts": {eid: (FAILED if ms is None else ms) for eid, ms in self.rtts.items()},
            "verifier_clock": self.verifier_clock,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "MeasureResponse":
        if not isinstance(data, dict) or not isinstance(data.get("rtts"), dict):
            raise ProtocolError("response must be a JSON object with an rtts map")
        rtts: dict[str, Optional[float]] = {}
        for eid, value in data["rtts"].items():
            if value == FAILED:
                rtts[eid] = None
            else:
                _checked(_checked_number, f"RTT for {eid}", value, 0, math.inf)
                rtts[eid] = float(value)
        return cls(
            request_id=data.get("request_id", ""),
            rtts=rtts,
            verifier_clock=data.get("verifier_clock", ""),
        )


def _close_after_error(conn: socket.socket) -> None:
    """Half-close, then read out what the client still sends (for at most
    _LINGER_S), so that unread input does not turn the close into a reset
    that destroys the error reply before the client reads it."""
    try:
        conn.shutdown(socket.SHUT_WR)
        conn.settimeout(_LINGER_S)
        deadline = time.monotonic() + _LINGER_S
        while time.monotonic() < deadline and conn.recv(_RECV_SIZE):
            pass
    except OSError:
        pass


def _tcp_connect_ms(address: tuple[str, int], timeout: float) -> float:
    """Time one TCP connection establishment with the monotonic clock.

    Every probe looks this module global up when it runs, which makes it
    the one seam through which tests and tracers replace the network."""
    start = time.perf_counter()
    sock = socket.create_connection(address, timeout=timeout)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    sock.close()
    return max(elapsed_ms, 0.0)


def measure_rtt(
    address: tuple[str, int],
    probes: int = DEFAULT_PROBES,
    timeout: float = DEFAULT_TIMEOUT,
    *,
    https_fallback: bool = False,
) -> Optional[float]:
    """Minimum TCP connect time to `address` in milliseconds.

    Opens `probes` sequential connections, PROBE_SPACING_S apart, times
    each from initiation to completion with a monotonic clock, and closes
    without sending any payload. Individual refusals and timeouts are
    tolerated; the result is None only when no probe succeeds. With
    https_fallback, port 80 refusing every probe (plain HTTP disabled but
    the host up) sends the probes to port 443 instead.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    best: Optional[float] = None
    refused = False
    for attempt in range(probes):
        if attempt:
            time.sleep(PROBE_SPACING_S)
        try:
            ms = _tcp_connect_ms(address, timeout)
        except ConnectionRefusedError:
            refused = True
            continue
        except OSError:
            continue
        if best is None or ms < best:
            best = ms
    if best is None and refused and https_fallback and address[1] == 80:
        return measure_rtt((address[0], 443), probes, timeout)
    return best


def handle_measure_request(req: MeasureRequest) -> MeasureResponse:
    """Measure the target and every peer of one request.

    The target goes through the port 80 to 443 fallback, peers do not.
    Several endpoints are all measured at once, one thread each (at most
    MAX_PEERS + 1), a single one inline; probes within one endpoint stay
    sequential, so a request takes one endpoint's probe round. The response
    has one entry per requested endpoint, preserving the request id. No
    correction of any kind is applied here; the agent reports raw minima.
    """
    jobs = [(TARGET, req.target, True)] if req.target is not None else []
    jobs += [(p.verifier_id, (p.host, p.port), False) for p in req.peers]

    def run(job) -> Optional[float]:
        _, address, fallback = job
        return measure_rtt(address, req.probes, req.timeout, https_fallback=fallback)

    if len(jobs) == 1:
        values = [run(jobs[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            values = list(pool.map(run, jobs))
    rtts = {endpoint_id: value for (endpoint_id, _, _), value in zip(jobs, values)}
    return MeasureResponse(request_id=req.request_id, rtts=rtts)


class _AgentHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while line := self.rfile.readline(MAX_LINE_BYTES):
            if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                self._send({"error": f"request line over {MAX_LINE_BYTES} bytes",
                            "request_id": None})
                _close_after_error(self.connection)
                return
            line = line.strip()
            if not line:
                continue
            request_id = None
            try:
                data = json.loads(line)
                if isinstance(data, dict):
                    request_id = data.get("request_id")
                req = MeasureRequest.from_wire(
                    data, self.server.default_probes, self.server.default_timeout
                )
            except ValueError as exc:  # bad JSON or bad UTF-8, or a ProtocolError
                log.debug("rejecting request from %s: %s", self.client_address, exc)
                self._send({"error": str(exc), "request_id": request_id})
                continue
            response = handle_measure_request(req)
            self._send(response.to_wire())

    def _send(self, payload: dict) -> None:
        self.wfile.write(json.dumps(payload).encode() + b"\n")
        self.wfile.flush()


class _Daemon:
    """What the agent and manager servers add to their socketserver base:
    an IPv6 socket for an IPv6 host, an address that can be bound again at
    once, a listen backlog that takes a burst of connects, and serving
    from a thread."""

    allow_reuse_address = True
    # socketserver's backlog of 5 drops the SYNs of a burst, and a dropped
    # SYN is sent again about 1 s later: a probe would read it as RTT
    request_queue_size = socket.SOMAXCONN

    def __init__(self, server_address: tuple[str, int], handler) -> None:
        if ":" in server_address[0]:
            self.address_family = socket.AF_INET6
        super().__init__(server_address, handler)

    @property
    def bound_address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class AgentServer(_Daemon, socketserver.ThreadingTCPServer):
    """Measurement daemon serving newline-delimited JSON requests.

    Each manager connection is served by its own thread and may carry any
    number of requests; requests on one connection are handled in order.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = "0.0.0.0",
        port: int = DEFAULT_AGENT_PORT,
        default_probes: int = DEFAULT_PROBES,
        default_timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        _check_limits(default_probes, default_timeout)
        super().__init__((host, port), _AgentHandler)
        self.default_probes = default_probes
        self.default_timeout = default_timeout


class AgentConnection:
    """Manager-side end of the wire protocol.

    Keeps one persistent connection to an agent. One request is in flight
    per connection; concurrent requests to one agent need several
    connections (see manager.AgentPool), which the agent serves each on
    its own thread. request() sends and waits in one call; open(), send()
    and receive() are its parts, so that one thread can open several
    connections, and then have a request in flight on each, at once.
    Each request is one attempt: a connection that fails while it carries
    one is closed, and nothing is sent again on it. idle sees a connection
    that the agent closed or reset while it sat idle, so AgentPool drops
    it before it hands it out; one lost unseen (a crashed host, a
    middlebox that forgot it) fails its request by a reset or the end of
    the stream, and LiveDelayProvider.measure_edges asks that edge again
    on a new connection. A connection has one user at a time (the pool
    hands it out that way), so it takes no lock.
    """

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._sock: Optional[socket.socket] = None
        self._reader = None
        # Monotonic time by which the handshake open() began, and then the
        # reply to what send() wrote, must be done; None while idle or closed.
        self._due: Optional[float] = None

    @property
    def idle(self) -> bool:
        """Whether the connection is open, its handshake done, no reply
        outstanding and the agent has neither closed nor reset it: the
        state in which AgentPool keeps it and hands it out. Looks at the
        socket without waiting."""
        if self._sock is None or self._due is not None:
            return False
        try:
            self._sock.setblocking(False)
            # An agent sends nothing unasked, so any byte here, or the end
            # of the stream, or an error, means the connection is done.
            self._sock.recv(1, socket.MSG_PEEK)
        except OSError as exc:
            return isinstance(exc, BlockingIOError)
        return False

    def close(self) -> None:
        sock, self._sock, self._reader, self._due = self._sock, None, None, None
        if sock is not None:
            sock.close()

    def request(self, req: MeasureRequest) -> MeasureResponse:
        """Send one request and wait for its response, by its reply_deadline.

        Raises OSError on connection trouble and ProtocolError on replies
        that do not follow the protocol (including agent-side error
        replies).
        """
        deadline = reply_deadline(req.probes, req.timeout)
        self.send(req, deadline)
        return self.receive(req, deadline)

    def open(self) -> None:
        """Begin opening a connection when none is open, without waiting
        for the handshake; send() waits for it, until CONNECT_TIMEOUT_S
        from now. A caller that opens several connections before it sends
        on any waits about one handshake for all of them. The host is an
        IP literal, so nothing is resolved. Raises OSError when the
        handshake fails at once."""
        if self._sock is not None:
            return
        family = socket.AF_INET6 if ":" in self._address[0] else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex(self._address)
        if err not in (0, errno.EINPROGRESS):
            sock.close()
            raise OSError(err, os.strerror(err))
        self._sock, self._reader = sock, sock.makefile("rb")
        self._due = time.monotonic() + CONNECT_TIMEOUT_S

    def send(self, req: MeasureRequest, deadline: float) -> None:
        """First part of request(): write req, opening the connection first
        when none is open. The write waits for a pending handshake until
        the deadline, or CONNECT_TIMEOUT_S from the open when that comes
        first. The caller then reads the reply with receive(req, deadline);
        until it has, the connection is the caller's alone (AgentPool.take
        hands out connections that way). Closes the connection and raises
        OSError when the handshake or the write fails."""
        self.open()
        connecting = self._due is not None
        due = min(deadline, self._due) if connecting else deadline
        try:
            self._sock.settimeout(max(due - time.monotonic(), _LATE_READ_S))
            self._sock.sendall(json.dumps(req.to_wire()).encode() + b"\n")
        except OSError as exc:
            self.close()
            # One request line fits the send buffer, so only a handshake
            # that is not done makes the write time out.
            if connecting and isinstance(exc, TimeoutError):
                raise TimeoutError("timed out connecting to the agent") from exc
            raise
        self._due = deadline

    def receive(self, req: MeasureRequest, deadline: float) -> MeasureResponse:
        """Second part of request(): read the reply to req, which send()
        wrote, by the monotonic time deadline. Raises as request() does,
        and closes the connection on OSError; only a reply that follows
        the protocol ends the request, so that the connection is idle
        again."""
        try:
            # A reply already here is read even after the deadline, so one
            # slow agent does not fail the replies read after its own.
            self._sock.settimeout(max(deadline - time.monotonic(), _LATE_READ_S))
            line = self._reader.readline()
            if not line:
                raise ConnectionError("agent closed the connection")
        except OSError:
            self.close()
            raise
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"agent reply is not JSON: {exc}") from exc
        if isinstance(data, dict) and "error" in data:
            raise ProtocolError(f"agent rejected request: {data['error']}")
        response = MeasureResponse.from_wire(data)
        if response.request_id != req.request_id:
            raise ProtocolError(
                f"response id {response.request_id!r} does not match request {req.request_id!r}"
            )
        self._due = None
        return response


def reply_deadline(probes: int, timeout: float) -> float:
    """Monotonic time by which the reply to a request of probes and timeout,
    sent now, is due. The agent measures every endpoint at once, so worst
    case one endpoint's probes all run to their full timeouts; the reply
    gets REPLY_HEADROOM_S beyond that."""
    return time.monotonic() + probes * (timeout + PROBE_SPACING_S) + REPLY_HEADROOM_S


def new_request_id() -> str:
    return os.urandom(16).hex()
