"""Child processes of the live workloads: the manager and the agents.

    python3 bench/procs.py manager --run-dir DIR --config FILE --trace 0|1
    python3 bench/procs.py agents  --run-dir DIR --trace 0|1

`manager` runs `slv serve manager` through slv.cli.main. `agents` runs three
loopback verifier agents plus the measurement target, a listener that
completes handshakes on every 127.0.0.0/8 address, and prints their ports
as one JSON line. Both stop on SIGINT, write their counters and spans to
DIR, and exit on their own when the benchmark that started them dies.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import slv.agent  # noqa: E402
import slv.cli  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

AGENTS = 3


def _exit_with_parent() -> None:
    """Leave at once when the parent is gone, so a killed benchmark leaves
    no server behind."""
    parent = os.getppid()
    while True:
        time.sleep(0.5)
        if os.getppid() != parent:
            os._exit(3)


class _Target:
    """Accept-and-close listener. It binds the wildcard address because a
    socket bound to 127.0.0.1 does not accept connections addressed to
    other 127.0.0.0/8 addresses; non-loopback peers are closed like any
    other."""

    def __init__(self) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("0.0.0.0", 0))
        self._sock.listen(256)
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


def run_agents(args, tracer: Tracer) -> int:
    layers.install_agents(tracer, bool(args.trace))
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    # Probe count and timeout come with every request from the manager.
    servers = [slv.agent.AgentServer("127.0.0.1", 0) for _ in range(AGENTS)]
    target = _Target()
    try:
        for server in servers:
            server.serve_in_background()
        print(json.dumps({
            "agents": [server.bound_address[1] for server in servers],
            "target": target.port,
        }), flush=True)
        while not stop.wait(0.5):
            pass
    finally:
        # shutdown() waits out a poll interval; stop the agents side by side.
        stoppers = [threading.Thread(target=server.shutdown) for server in servers]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join(timeout=5)
        for server in servers:
            server.server_close()
        target.close()
    return 0


def run_manager(args, tracer: Tracer) -> int:
    if args.trace:
        layers.install_manager(tracer)
    try:
        return slv.cli.main(["serve", "manager", "--config", args.config])
    except KeyboardInterrupt:  # a stop that arrives before serve_forever
        return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("manager", "agents"))
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config")
    args = parser.parse_args()
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    tracer = Tracer(f"{args.role}-{os.getpid()}")
    code = (run_agents if args.role == "agents" else run_manager)(args, tracer)
    tracer.dump(os.path.join(args.run_dir, f"dump-{tracer.process}.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
