"""Shared test helpers: synthetic delay providers and loopback servers."""

from __future__ import annotations

import socket
import socketserver
import threading

import pytest

from slv.geo import Location, great_circle_distance, min_rtt_for_distance
from slv.verify import TARGET, DelayProvider


class IdealProvider(DelayProvider):
    """Noise-free delays: exactly the physical minimum for the true
    geodesic distance, plus a fixed inflation on target edges."""

    def __init__(self, verifier_locs: dict[str, Location], true_loc: Location,
                 target_inflation_ms: float = 0.0):
        self.verifier_locs = dict(verifier_locs)
        self.true_loc = true_loc
        self.target_inflation_ms = target_inflation_ms
        self.calls = 0

    def measure(self, verifier_id, endpoint_id, probes, timeout):
        self.calls += 1
        origin = self.verifier_locs[verifier_id]
        if endpoint_id == TARGET:
            return min_rtt_for_distance(
                great_circle_distance(origin, self.true_loc)
            ) + self.target_inflation_ms
        return min_rtt_for_distance(
            great_circle_distance(origin, self.verifier_locs[endpoint_id])
        )


class _AcceptAndClose(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.close()


class TcpListener:
    """Plain TCP listener that completes handshakes and closes.

    Stands in for a webserver target. Handshake timing happens in the
    kernel, so connect RTTs on loopback are near zero regardless of what
    user space does after accept.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.server = socketserver.ThreadingTCPServer((host, port), _AcceptAndClose)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    def __enter__(self) -> "TcpListener":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def binds_ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.fixture
def tcp_listener():
    with TcpListener() as listener:
        yield listener
