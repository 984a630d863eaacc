"""Command-line front end: query the manager, manage location pins, run
the daemons and run simulations."""

from __future__ import annotations

import argparse
import functools
import ipaddress
import json
import logging
import os
import socket
import sys
from urllib.parse import quote

from .agent import DEFAULT_AGENT_PORT, AgentServer
from .manager import DEFAULT_API_PORT, ManagerConfig, ManagerHTTPServer, ManagerService
from .pinning import (
    DEFAULT_RMAX,
    CorruptStoreError,
    Outcome,
    evaluate_pin,
    load_store,
    persist_store,
)
from .simulator import ScenarioError, SimScenario, run_experiment
from .verify import VerificationResult, utc_now

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SUSPICIOUS = 2
EXIT_CRITICAL = 3

_OUTCOME_EXIT = {
    Outcome.UNSUSPICIOUS: EXIT_OK,
    Outcome.SUSPICIOUS: EXIT_SUSPICIOUS,
    Outcome.CRITICAL: EXIT_CRITICAL,
}

MANAGER_URL_ENV = "SLV_MANAGER_URL"
DEFAULT_MANAGER_URL = f"http://127.0.0.1:{DEFAULT_API_PORT}"
DEFAULT_PIN_STORE = os.path.join("~", ".slv", "pins.json")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _resolve(host: str) -> str:
    """Literal IPs pass through; hostnames resolve locally, so whatever a
    (possibly poisoned) resolver answers is exactly what gets verified."""
    try:
        ipaddress.ip_address(host)
        return host
    except ValueError:
        pass
    infos = socket.getaddrinfo(host, None, proto=socket.IPPROTO_TCP)
    return infos[0][4][0]


def _http_get_json(url: str, timeout: float = 60.0) -> tuple[int, dict]:
    # loaded on first use: only slv verify needs the HTTP client
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            body = {"error": str(exc)}
        return exc.code, body


def _result_table(result: VerificationResult, outcome: Outcome | None) -> str:
    rows = [
        ("ip", result.ip.value),
        ("asserted", f"{result.ip.loc.lat:.4f}, {result.ip.loc.lon:.4f}"),
        ("verified", "yes" if result.veri_passed else "no"),
    ]
    if result.region is not None:
        centre = result.region.centre
        rows.append(
            ("region", f"centre {centre.lat:.4f}, {centre.lon:.4f}  radius {result.region.radius:.1f} km")
        )
    else:
        rows.append(("region", "-"))
    rows.append(("verified at", result.to_dict()["when_veri"]))
    rows.append(("reason", result.reason.value if result.reason else "-"))
    if outcome is not None:
        rows.append(("outcome", outcome.value))
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def cmd_verify(args: argparse.Namespace) -> int:
    host = args.host.strip().lower()
    try:
        ip = _resolve(host)
    except (OSError, UnicodeError) as exc:  # UnicodeError: IDNA cannot encode host
        return _fail(f"cannot resolve {host!r}: {exc}")

    manager_url = args.manager_url
    if manager_url is None:
        manager_url = os.environ.get(MANAGER_URL_ENV, DEFAULT_MANAGER_URL)
    url = f"{manager_url.rstrip('/')}/verify?ip={quote(ip)}"
    try:
        status, body = _http_get_json(url)
    except (OSError, ValueError) as exc:  # URLError is an OSError
        return _fail(f"manager unreachable at {manager_url}: {exc}")
    if status != 200:
        error = body.get("error", body) if isinstance(body, dict) else body
        return _fail(f"manager returned {status}: {error}")
    try:
        result = VerificationResult.from_dict(body)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"manager returned an unusable result: {exc}")

    store_path = os.path.expanduser(args.pin_store)
    try:
        store = load_store(store_path)
    except CorruptStoreError as exc:
        return _fail(str(exc))
    outcome = evaluate_pin(store, host, result, now=utc_now(), rmax=args.rmax)
    if outcome is Outcome.UNSUSPICIOUS:
        try:
            persist_store(store, store_path)
        except OSError as exc:
            return _fail(f"cannot write pin store {store_path}: {exc}")

    if args.json:
        payload = result.to_dict()
        payload["outcome"] = outcome.value
        print(json.dumps(payload, indent=2))
    else:
        print(_result_table(result, outcome))
    return _OUTCOME_EXIT[outcome]


def cmd_pin(args: argparse.Namespace) -> int:
    store_path = os.path.expanduser(args.pin_store)
    try:
        store = load_store(store_path)
    except CorruptStoreError as exc:
        return _fail(str(exc))

    if args.pin_command == "list":
        if args.json:
            print(json.dumps([store[name].to_dict() for name in sorted(store)], indent=2))
        else:
            for name in sorted(store):
                entry = store[name]
                print(f"{name}  ips={len(entry.ips)}  regions={len(entry.ver_regs)}/{entry.rmax}")
        return EXIT_OK

    domain = args.domain.lower()
    entry = store.get(domain)
    if entry is None:
        return _fail(f"no pin for {domain!r}")
    if args.pin_command == "show":
        print(json.dumps(entry.to_dict(), indent=2))
        return EXIT_OK
    if args.pin_command == "clear":
        del store[domain]
    else:  # set-rmax
        if args.n < 1:
            return _fail("rmax must be >= 1")
        if args.n < len(entry.ver_regs):
            return _fail(
                f"{domain} already has {len(entry.ver_regs)} pinned regions; "
                f"clear the pin before lowering rmax below that"
            )
        entry.rmax = args.n
    try:
        persist_store(store, store_path)
    except OSError as exc:
        return _fail(f"cannot write pin store {store_path}: {exc}")
    print(f"cleared {domain}" if args.pin_command == "clear" else f"{domain} rmax={args.n}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = SimScenario.load(args.scenario)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load scenario {args.scenario}: {exc}")
    if args.seed is not None:
        from dataclasses import replace

        scenario.model = replace(scenario.model, seed=args.seed)
    try:
        report = run_experiment(scenario)
    except ScenarioError as exc:
        return _fail(str(exc))
    print(report.text_table())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report.to_dict(), indent=2) + "\n")
        except OSError as exc:
            return _fail(f"cannot write report {args.out}: {exc}")
        print(f"report written to {args.out}")
    return EXIT_OK


def _serve_until_interrupted(server, banner: str, close=lambda: None) -> int:
    """Print banner % the server's address as host:port, or [host]:port
    for an IPv6 host, serve until interrupted, then close the listening
    socket and call close()."""
    host, port = server.bound_address
    print(banner % (f"[{host}]:{port}" if ":" in host else f"{host}:{port}"), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        close()
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    if args.role == "verifier":
        try:
            server = AgentServer(args.host, args.port)
        except OSError as exc:
            return _fail(f"cannot bind {args.host}:{args.port}: {exc}")
        return _serve_until_interrupted(server, "verifier agent listening on %s")

    service = None
    try:
        cfg = ManagerConfig.from_file(args.config)
        service = ManagerService.from_config(cfg)
        server = ManagerHTTPServer(service, cfg.listen_host, cfg.listen_port)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        if service is not None:
            service.close()
        return _fail(f"cannot start manager: {exc}")
    return _serve_until_interrupted(
        server, f"manager listening on http://%s ({service.registry_size} verifiers)",
        service.close)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `slv` argument parser, built once per process: parse_args keeps
    no state between calls, and no default depends on the environment
    (verify reads SLV_MANAGER_URL when it runs)."""
    parser = argparse.ArgumentParser(
        prog="slv",
        description="Verify webserver locations via delay measurements and pin the verified regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a host against the manager and the local pins")
    verify.add_argument("host", help="hostname or literal IP address")
    verify.add_argument(
        "--manager-url",
        default=None,
        help=f"manager base URL (default: env {MANAGER_URL_ENV}, else {DEFAULT_MANAGER_URL})",
    )
    verify.add_argument("--pin-store", default=DEFAULT_PIN_STORE, help="pin store path")
    verify.add_argument(
        "--rmax", type=int, default=DEFAULT_RMAX,
        help="region budget used when this host is pinned for the first time",
    )
    verify.add_argument("--json", action="store_true", help="machine-readable output")

    pin = sub.add_parser("pin", help="inspect and edit the local pin store")
    pin.add_argument("--pin-store", default=DEFAULT_PIN_STORE, help="pin store path")
    pin.add_argument("--json", action="store_true", help="machine-readable output")
    pin_sub = pin.add_subparsers(dest="pin_command", required=True)
    pin_sub.add_parser("list", help="list pinned domains")
    for name, help_text in (
        ("show", "print one pin entry"),
        ("clear", "remove one pin entry"),
    ):
        p = pin_sub.add_parser(name, help=help_text)
        p.add_argument("domain")
    set_rmax = pin_sub.add_parser("set-rmax", help="change a domain's region budget")
    set_rmax.add_argument("domain")
    set_rmax.add_argument("n", type=int)

    simulate = sub.add_parser("simulate", help="run a false-accept/false-reject experiment")
    simulate.add_argument("--scenario", required=True, help="scenario JSON file")
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.add_argument("--out", default=None, help="write the JSON report here")

    serve = sub.add_parser("serve", help="run a daemon")
    serve_sub = serve.add_subparsers(dest="role", required=True)
    serve_manager = serve_sub.add_parser("manager", help="run the verification manager")
    serve_manager.add_argument("--config", required=True, help="manager JSON config file")
    serve_verifier = serve_sub.add_parser("verifier", help="run a verifier agent")
    serve_verifier.add_argument("--host", default="0.0.0.0")
    serve_verifier.add_argument("--port", type=int, default=DEFAULT_AGENT_PORT)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "pin": cmd_pin,
        "simulate": cmd_simulate,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
