import copy
import errno
import http.client
import ipaddress
import json
import math
import os
import pickle
import random
import re
import selectors
import socket
import socketserver
import sqlite3
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import slv.agent
import slv.manager
import slv.verify
from conftest import IdealProvider, binds_ipv6_loopback, free_port
from slv.agent import AgentConnection, AgentServer, MeasureRequest, ProtocolError
from slv.geo import Circle, Location, destination_point
from slv.manager import (
    AgentPool,
    CacheEntry,
    HttpLocator,
    InsufficientVerifiersError,
    InvalidAddressError,
    LiveDelayProvider,
    LocatorConfig,
    ManagerConfig,
    ManagerHTTPServer,
    ManagerService,
    ParseError,
    ProviderUnavailableError,
    StaticTableLocator,
    UnknownAddressError,
    VerificationCache,
    VerifierRecord,
    VerifierRegistry,
    load_verifier_registry,
)
from slv.verify import (
    TARGET,
    IPInfo,
    Reason,
    VerificationResult,
    VerifierLayout,
    VerifyConfig,
    enumerate_triangles,
    utc_now,
    verify_location,
)

NOW = datetime(2026, 8, 9, 12, 0, 0, tzinfo=timezone.utc)

# a triangle of verifiers around the origin, as in the engine tests
REGISTRY_ROWS = [
    ("10.1.0.1", 10.0, 0.0),
    ("10.1.0.2", -10.0, 10.0),
    ("10.1.0.3", -10.0, -10.0),
]

INSIDE = Location(0, 0)


def write_registry(tmp_path, rows=REGISTRY_ROWS, name="verifiers.csv"):
    path = tmp_path / name
    path.write_text("".join(f"{ip},{lat},{lon}\n" for ip, lat, lon in rows))
    return path


class TestLoadVerifierRegistry:
    def test_loads_rows_and_assigns_ids(self, tmp_path):
        rows = [(f"10.2.0.{i}", (i % 60) - 30, (i * 7) % 120 - 60) for i in range(1, 21)]
        registry = load_verifier_registry(write_registry(tmp_path, rows))
        assert len(registry) == 20
        assert [r.verifier_id for r in registry.entries] == [f"v{i}" for i in range(1, 21)]
        assert registry.by_id("v3").host == "10.2.0.3"

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "verifiers.csv"
        path.write_text("10.0.0.1,1,1\n\n10.0.0.2,2,2\n\n10.0.0.3,3,3\n")
        assert len(load_verifier_registry(path)) == 3

    def test_skips_comment_lines(self, tmp_path):
        path = tmp_path / "verifiers.csv"
        path.write_text("# agents\n10.0.0.1,1,1\n  # 10.0.0.9,9,9\n10.0.0.2,2,2\n10.0.0.3,3,3\n")
        registry = load_verifier_registry(path)
        assert [r.host for r in registry.entries] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        assert [r.verifier_id for r in registry.entries] == ["v1", "v2", "v3"]

    def test_out_of_range_latitude(self, tmp_path):
        path = write_registry(tmp_path, [("1.2.3.4", 91.0, 0.0)] + REGISTRY_ROWS)
        with pytest.raises(ParseError) as err:
            load_verifier_registry(path)
        assert err.value.line_no == 1

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "verifiers.csv"
        path.write_text("10.0.0.1,1,1\n10.0.0.2,oops\n10.0.0.3,3,3\n")
        with pytest.raises(ParseError) as err:
            load_verifier_registry(path)
        assert err.value.line_no == 2

    def test_too_few_rows(self, tmp_path):
        with pytest.raises(InsufficientVerifiersError):
            load_verifier_registry(write_registry(tmp_path, REGISTRY_ROWS[:2]))

    def test_optional_agent_port(self, tmp_path):
        path = tmp_path / "verifiers.csv"
        path.write_text("127.0.0.1:7711,1,1\n127.0.0.1:7712,2,2\n127.0.0.1,3,3\n")
        registry = load_verifier_registry(path, default_port=7707)
        assert registry.by_id("v1").port == 7711
        assert registry.by_id("v3").port == 7707

    @pytest.mark.parametrize("address", ["127.0.0.1:99999", "127.0.0.1:0", "[::1]:65536"])
    def test_out_of_range_agent_port_names_line(self, tmp_path, address):
        path = tmp_path / "verifiers.csv"
        path.write_text(f"127.0.0.1:65535,1,1\n{address},2,2\n127.0.0.1:1,3,3\n")
        with pytest.raises(ParseError, match="port out of range") as err:
            load_verifier_registry(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("address", [
        "[::1]9000", "[::1", "[10.0.0.1]:80", "10.0.0.1:8_0", "10.0.0.1:+80", "10.0.0.1:\u0668\u0660",
    ])
    def test_malformed_agent_address_names_line(self, tmp_path, address):
        path = tmp_path / "verifiers.csv"
        path.write_text(f"127.0.0.1:7711,1,1\n{address},2,2\n127.0.0.1,3,3\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_verifier_registry(path)
        assert err.value.line_no == 2

    def test_bracketed_ipv6_takes_its_port_or_the_default(self, tmp_path):
        path = tmp_path / "verifiers.csv"
        path.write_text("[::1],1,1\n[::1]:9000,2,2\n127.0.0.1,3,3\n")
        registry = load_verifier_registry(path, default_port=7707)
        assert [(r.host, r.port) for r in registry.entries[:2]] == [("::1", 7707), ("::1", 9000)]


class TestStaticTableLocator:
    def table(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "# provider table\n"
            "10.0.0.0/8,45.42,-75.69\n"
            "10.1.0.0/16,48.14,11.58\n"
            "2001:db8::/32,50.0,8.0\n"
        )
        return StaticTableLocator.from_file(path)

    def test_prefix_match(self, tmp_path):
        assert self.table(tmp_path).locate("10.2.3.4") == Location(45.42, -75.69)

    def test_longest_prefix_wins(self, tmp_path):
        assert self.table(tmp_path).locate("10.1.2.3") == Location(48.14, 11.58)

    def test_unknown_address(self, tmp_path):
        with pytest.raises(UnknownAddressError):
            self.table(tmp_path).locate("192.168.1.1")

    def test_ipv6(self, tmp_path):
        assert self.table(tmp_path).locate("2001:db8::7") == Location(50.0, 8.0)
        with pytest.raises(UnknownAddressError):
            self.table(tmp_path).locate("2001:db9::7")

    def test_invalid_ip_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self.table(tmp_path).locate("not-an-ip")

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("10.0.0.0/8,45.42\n")
        with pytest.raises(ParseError):
            StaticTableLocator.from_file(path)

    def test_host_bits_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("10.0.0.0/8,45.42,-75.69\n10.0.0.1/8,48.14,11.58\n")
        with pytest.raises(ParseError, match="has host bits set") as info:
            StaticTableLocator.from_file(path)
        assert info.value.line_no == 2
        assert str(info.value).startswith(f"{path}:2: ")

    def test_first_duplicate_wins(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("10.0.0.0/8,45.42,-75.69\n10.0.0.0/8,48.14,11.58\n")
        assert StaticTableLocator.from_file(path).locate("10.2.3.4") == Location(45.42, -75.69)
        rows = [(ipaddress.ip_network("::/0"), Location(1, 1)),
                (ipaddress.ip_network("::/0"), Location(2, 2))]
        assert StaticTableLocator(rows).locate("2001:db8::1") == Location(1, 1)

    def test_address_families_never_cross_match(self, tmp_path):
        table = self.table(tmp_path)
        with pytest.raises(UnknownAddressError, match="no assertion available for ::ffff:10.0.0.1"):
            table.locate("::ffff:10.0.0.1")
        v4_default = StaticTableLocator([(ipaddress.ip_network("0.0.0.0/0"), Location(1, 1))])
        with pytest.raises(UnknownAddressError):
            v4_default.locate("::ffff:10.0.0.1")
        v6_default = StaticTableLocator([(ipaddress.ip_network("::/0"), Location(2, 2))])
        with pytest.raises(UnknownAddressError):
            v6_default.locate("10.0.0.1")
        assert v6_default.locate("::ffff:10.0.0.1") == Location(2, 2)


def oracle(rows, ip):
    """Longest-prefix match by scanning every row: the reference for the index."""
    address = ipaddress.ip_address(ip)
    best = None
    for network, loc in rows:
        if address.version != network.version or address not in network:
            continue
        if best is None or network.prefixlen > best[0]:
            best = (network.prefixlen, loc)
    if best is None:
        raise UnknownAddressError(f"no assertion available for {ip}")
    return best[1]


# Networks are drawn around these addresses, so prefixes nest and overlap.
V4_ANCHORS = ["0.0.0.0", "10.0.0.0", "10.0.0.1", "10.1.2.3", "10.255.255.255",
              "192.168.1.0", "255.255.255.255"]
V6_ANCHORS = ["::", "::ffff:10.0.0.0", "::ffff:10.0.0.1", "2001:db8::", "2001:db8::1",
              "2001:db8:ffff::", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"]


def random_table(rng, n):
    """n rows of mixed families; every row has its own location, so the
    winning row, not only its coordinates, must match."""
    rows = []
    for i in range(n):
        if rows and rng.random() < 0.15:
            network = rng.choice(rows)[0]
        else:
            cls, anchors, bits = rng.choice((
                (ipaddress.IPv4Network, V4_ANCHORS, 32),
                (ipaddress.IPv6Network, V6_ANCHORS, 128),
            ))
            base = int(ipaddress.ip_address(rng.choice(anchors)))
            if rng.random() < 0.5:
                base ^= rng.getrandbits(rng.randint(1, bits))
            prefixlen = rng.choice((0, 8, bits - 8, bits - 1, bits, rng.randint(0, bits)))
            network = cls((base, prefixlen), strict=False)
        rows.append((network, Location(i / 100, -i / 100)))
    return rows


def probe_addresses(rng, rows):
    """Anchors, each network's boundaries, their neighbours just outside, an
    address inside, random addresses, and the IPv4-mapped form of every
    IPv4 address among them."""
    addresses = [ipaddress.ip_address(a) for a in V4_ANCHORS + V6_ANCHORS]
    addresses += [ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(4)]
    addresses += [ipaddress.IPv6Address(rng.getrandbits(128)) for _ in range(4)]
    for network, _ in rows:
        first, last = int(network.network_address), int(network.broadcast_address)
        for value in (first, last, first - 1, last + 1, rng.randint(first, last)):
            if 0 <= value < 2 ** network.max_prefixlen:
                addresses.append(type(network.network_address)(value))
    mapped = [f"::ffff:{a}" for a in addresses if a.version == 4]
    return [str(a) for a in addresses] + mapped


def test_locator_matches_oracle_on_random_tables():
    checked = hits = 0
    for seed in range(80):
        rng = random.Random(seed)
        rows = random_table(rng, (0, 1, 2, 5, 20, 60)[seed % 6])
        locator = StaticTableLocator(rows)
        for ip in probe_addresses(rng, rows):
            try:
                expected = oracle(rows, ip)
            except UnknownAddressError:
                with pytest.raises(UnknownAddressError):
                    locator.locate(ip)
            else:
                assert locator.locate(ip) == expected, (seed, ip)
                hits += 1
            checked += 1
    assert hits > checked // 4 and checked - hits > checked // 10


def cidr_text(rng, network):
    """network in one of the forms ip_network reads as it: canonical, the
    prefix length with a leading zero, an IPv4 netmask or hostmask, a bare
    IPv4 /32 address, an exploded upper-case IPv6 or an IPv4-mapped IPv6
    with a dotted quad."""
    address, length = network.network_address, network.prefixlen
    forms = [str(network), f"{address}/0{length}"]
    if network.version == 4:
        if 0 < length < 32:  # 0.0.0.0 and 255.255.255.255 read as netmasks
            forms += [f"{address}/{network.netmask}", f"{address}/{network.hostmask}"]
        if length == 32:
            forms.append(str(address))
    else:
        forms.append(network.exploded.upper())
        if int(address) >> 32 == 0xFFFF:
            forms.append(f"::ffff:{ipaddress.IPv4Address(int(address) & 0xFFFFFFFF)}/{length}")
    return rng.choice(forms)


def test_file_loader_answers_as_the_row_index_and_the_oracle(tmp_path):
    checked = hits = 0
    for seed in range(40):
        rng = random.Random(seed)
        rows = random_table(rng, (1, 2, 5, 20, 60)[seed % 5])
        texts = [cidr_text(rng, network) for network, _ in rows]
        assert [ipaddress.ip_network(text) for text in texts] == [n for n, _ in rows]
        path = tmp_path / f"table-{seed}.csv"
        path.write_text("".join(
            f"{text},{loc.lat!r},{loc.lon!r}\n" for text, (_, loc) in zip(texts, rows)))
        sources = (StaticTableLocator.from_file(path).locate, StaticTableLocator(rows).locate,
                   lambda ip: oracle(rows, ip))
        for ip in probe_addresses(rng, rows):
            answers = []
            for locate in sources:
                try:
                    answers.append(locate(ip))
                except UnknownAddressError:
                    answers.append(None)
            assert answers[0] == answers[1] == answers[2], (seed, ip)
            checked += 1
            hits += answers[0] is not None
    assert hits > checked // 4 and checked - hits > checked // 10


def test_table_rows_are_packed(tmp_path):
    # 20k distinct /24s: one table, so its sort is the whole load's peak
    rng, n = random.Random(29), 20_000
    path = tmp_path / "table.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for net in rng.sample(range(2 ** 24), n):
            fh.write(f"{ipaddress.IPv4Address(net << 8)}/24,"
                     f"{rng.uniform(-90, 90)!r},{rng.uniform(-180, 180)!r}\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        locator = StaticTableLocator.from_file(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (retained - before) / n <= 48 and (peak - before) / n <= 160
    first = path.read_text(encoding="utf-8").partition("\n")[0].split(",")
    assert locator.locate(first[0].removesuffix("0/24") + "9") == Location(
        float(first[1]), float(first[2]))


class _GeoHandler(BaseHTTPRequestHandler):
    body: bytes = b'{"lat": 45.42, "lon": -75.69}'
    status: int = 200

    def do_GET(self):
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


def run_geo_service(body: bytes = _GeoHandler.body, status: int = 200):
    handler = type("Handler", (_GeoHandler,), {"body": body, "status": status})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


class TestHttpLocator:
    def test_happy_path(self):
        server = run_geo_service()
        try:
            host, port = server.server_address[:2]
            locator = HttpLocator(f"http://{host}:{port}/geo/{{ip}}")
            assert locator.locate("1.2.3.4") == Location(45.42, -75.69)
        finally:
            server.shutdown()
            server.server_close()

    def test_404_is_unknown_address(self):
        server = run_geo_service(body=b'{"error": "nope"}', status=404)
        try:
            host, port = server.server_address[:2]
            locator = HttpLocator(f"http://{host}:{port}/geo/{{ip}}")
            with pytest.raises(UnknownAddressError):
                locator.locate("1.2.3.4")
        finally:
            server.shutdown()
            server.server_close()

    def test_unreachable_provider(self):
        locator = HttpLocator(f"http://127.0.0.1:{free_port()}/geo/{{ip}}", timeout=0.5)
        with pytest.raises(ProviderUnavailableError):
            locator.locate("1.2.3.4")

    def test_unusable_body(self):
        server = run_geo_service(body=b'{"latitude": 1}')
        try:
            host, port = server.server_address[:2]
            locator = HttpLocator(f"http://{host}:{port}/geo/{{ip}}")
            with pytest.raises(ProviderUnavailableError):
                locator.locate("1.2.3.4")
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("body, key", [
        (b'{"lat": true, "lon": 10}', "lat"),
        (b'{"lat": 1, "lon": "10"}', "lon"),
        (b'{"lat": null, "lon": 10}', "lat"),
    ])
    def test_coordinates_must_be_numbers(self, body, key):
        server = run_geo_service(body=body)
        try:
            host, port = server.server_address[:2]
            locator = HttpLocator(f"http://{host}:{port}/geo/{{ip}}")
            with pytest.raises(ProviderUnavailableError, match=f"{key} must be a finite number"):
                locator.locate("1.2.3.4")
        finally:
            server.shutdown()
            server.server_close()

    def test_template_must_mention_ip(self):
        with pytest.raises(ValueError):
            HttpLocator("http://example.net/geo")

    @pytest.mark.parametrize("template", [
        "http://example.net/geo/{ip}?key={key}",
        "http://example.net/geo/{}/{ip}",
        "http://example.net/geo/{ip!r}",
        "http://example.net/geo/{ip[0]}",
    ], ids=["named", "positional", "conversion", "index"])
    def test_template_with_another_placeholder_is_refused(self, template):
        with pytest.raises(ValueError, match=re.escape(repr(template))):
            HttpLocator(template)

    @pytest.mark.parametrize("template", [
        "http://example.net/geo/{ip}}",
        "http://example.net/geo/{ip",
        "http://example.net/{/geo/{ip}",
    ], ids=["stray_close", "unclosed", "stray_open"])
    def test_template_with_an_unbalanced_brace_is_refused(self, template):
        with pytest.raises(ValueError, match=re.escape(repr(template))):
            HttpLocator(template)

    @pytest.mark.parametrize("template", [
        "geo.example/{ip}",
        "ftp://geo.example/{ip}",
        "file:///tmp/{ip}",
    ], ids=["no_scheme", "ftp", "file"])
    def test_template_that_is_not_an_http_url_is_refused(self, template):
        with pytest.raises(ValueError, match=re.escape(repr(template))):
            HttpLocator(template)

    @pytest.mark.parametrize("template", [
        "HTTP://example.net/geo/{ip}",
        "Https://example.net/geo/{ip}",
    ])
    def test_scheme_is_matched_in_any_case(self, template):
        HttpLocator(template)

    def test_escaped_braces_are_not_placeholders(self):
        HttpLocator("http://example.net/geo/{ip}?q={{x}}")

    def test_body_that_is_not_utf8_is_provider_failure(self):
        server = run_geo_service(body=b'\xff{"lat": 1, "lon": 2}')
        try:
            host, port = server.server_address[:2]
            locator = HttpLocator(f"http://{host}:{port}/geo/{{ip}}")
            with pytest.raises(ProviderUnavailableError):
                locator.locate("1.2.3.4")
        finally:
            server.shutdown()
            server.server_close()


def entry(ip: str, expires: datetime, loc: Location = INSIDE) -> CacheEntry:
    return CacheEntry(
        ip=ip, asserted_loc=loc, when_veri=NOW, veri_passed=True,
        region=Circle(loc if loc != INSIDE else Location(0, 1), 500.0),
        expires_at=expires, reason=None,
    )


class TestVerificationCache:
    def test_get_put_and_expiry(self):
        cache = VerificationCache()
        cache.put(entry("1.1.1.1", NOW + timedelta(hours=1)))
        assert cache.get("1.1.1.1", NOW) is not None
        assert cache.get("1.1.1.1", NOW + timedelta(hours=2)) is None
        assert cache.get("2.2.2.2", NOW) is None

    def test_evict_expired_counts(self):
        cache = VerificationCache()
        assert cache.evict_expired(NOW) == 0
        cache.put(entry("1.1.1.1", NOW - timedelta(seconds=1)))
        cache.put(entry("2.2.2.2", NOW - timedelta(hours=1)))
        cache.put(entry("3.3.3.3", NOW + timedelta(hours=1)))
        assert cache.evict_expired(NOW) == 2
        assert len(cache) == 1
        assert cache.evict_expired(NOW) == 0

    def test_survives_restart(self, tmp_path):
        # a reopen drops rows expired by the wall clock, so these expire after it
        path = tmp_path / "cache.sqlite"
        later = utc_now() + timedelta(hours=1)
        first = VerificationCache(path)
        first.put(entry("1.1.1.1", later))
        negative = CacheEntry(
            ip="2.2.2.2", asserted_loc=INSIDE, when_veri=NOW, veri_passed=False,
            region=None, expires_at=later,
            reason=Reason.ALL_TRIANGLES_REJECTED,
        )
        first.put(negative)
        first.close()

        second = VerificationCache(path)
        warm = second.get("1.1.1.1", NOW)
        assert warm is not None and warm.veri_passed is True
        restored = second.get("2.2.2.2", NOW)
        assert restored == negative
        assert restored.to_result().reason is Reason.ALL_TRIANGLES_REJECTED
        second.close()

    def test_get_does_not_wait_for_a_put_commit(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        later = utc_now() + timedelta(hours=1)
        cache = VerificationCache(path)
        cache.put(entry("1.1.1.1", later))
        committing, release = threading.Event(), threading.Event()

        class BlockingCommit:
            """The sqlite connection, with a commit that waits for release."""

            def __init__(self, db):
                self._db = db

            def __getattr__(self, name):
                return getattr(self._db, name)

            def commit(self):
                committing.set()
                release.wait(10)
                self._db.commit()

        cache._db = BlockingCommit(cache._db)
        writer = threading.Thread(target=cache.put, args=(entry("2.2.2.2", later),))
        writer.start()
        try:
            assert committing.wait(5)
            seen = []
            reader = threading.Thread(target=lambda: seen.extend(
                [cache.get("1.1.1.1", NOW), cache.get("2.2.2.2", NOW), len(cache)]))
            reader.start()
            reader.join(5)
            assert not reader.is_alive()
            assert seen[0] is not None and seen[1] is not None and seen[2] == 2
            assert writer.is_alive()  # put returns only after its commit
        finally:
            release.set()
            writer.join(5)
        assert not writer.is_alive()
        cache.close()
        reopened = VerificationCache(path)
        assert reopened.get("2.2.2.2", NOW) is not None
        reopened.close()

    def test_expired_rows_are_dropped_on_reopen(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        now = utc_now()
        cache = VerificationCache(path)
        for i in range(3):
            cache.put(entry(f"1.1.1.{i}", now - timedelta(minutes=i + 1)))
        cache.put(entry("2.2.2.2", now + timedelta(hours=1)))
        cache.close()

        reopened = VerificationCache(path)
        assert len(reopened) == 1
        assert reopened.get("2.2.2.2", now) is not None
        reopened.close()
        with sqlite3.connect(path) as db:
            assert db.execute("SELECT ip FROM verifications").fetchall() == [("2.2.2.2",)]

    def test_sqlite_page_cache_is_small(self, tmp_path):
        # reads are served from the map; sqlite's default cache is 2 MiB
        cache = VerificationCache(tmp_path / "cache.sqlite")
        try:
            (pages,) = cache._db.execute("PRAGMA cache_size").fetchone()
            (page_size,) = cache._db.execute("PRAGMA page_size").fetchone()
        finally:
            cache.close()
        assert 0 < pages * page_size <= 256 * 1024

    @pytest.mark.parametrize("key, value, named", [
        ("veri_passed", "false", "veri_passed"),
        ("veri_passed", 1, "veri_passed"),
        ("asserted_loc", {"lat": True, "lon": 1.0}, "lat"),
        ("asserted_loc", {"lat": 0.0, "lon": "1"}, "lon"),
        ("region", {"centre": {"lat": 0.0, "lon": 1.0}, "radius": True}, "radius"),
    ])
    def test_rows_are_read_as_written_or_refused_at_start(
            self, tmp_path, monkeypatch, key, value, named):
        path = tmp_path / "cache.sqlite"
        cache = VerificationCache(path)
        cache.put(entry("1.1.1.1", utc_now() + timedelta(hours=1)))
        cache.close()
        with sqlite3.connect(path) as db:
            (blob,) = db.execute("SELECT data FROM verifications").fetchone()
            db.execute("UPDATE verifications SET data = ?",
                       (json.dumps({**json.loads(blob), key: value}),))
        db.close()
        opened, connect = [], sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect",
                            lambda *args, **kw: opened.append(connect(*args, **kw)) or opened[-1])
        with pytest.raises(ValueError, match=f"{named} must be"):
            VerificationCache(path)
        (refused,) = opened
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            refused.execute("SELECT 1")

    @pytest.mark.parametrize("ip", [5, 16843009, None])
    def test_non_string_ip_rows_are_refused_at_start(self, tmp_path, ip):
        # ip_address(16843009) is 1.1.1.1: the row must not load as an address
        path = tmp_path / "cache.sqlite"
        cache = VerificationCache(path)
        cache.put(entry("1.1.1.1", utc_now() + timedelta(hours=1)))
        cache.close()
        with sqlite3.connect(path) as db:
            (blob,) = db.execute("SELECT data FROM verifications").fetchone()
            db.execute("UPDATE verifications SET data = ?",
                       (json.dumps({**json.loads(blob), "ip": ip}),))
        db.close()
        with pytest.raises(ValueError, match=f"ip must be a string, got {ip!r}"):
            VerificationCache(path)


class CountingFactory:
    """Provider factory whose created providers share one call counter."""

    def __init__(self, verifier_locs, true_locs):
        self.verifier_locs = verifier_locs
        self.true_locs = true_locs
        self.calls = 0
        self.verifications = 0

    def __call__(self, target_ip: str):
        self.verifications += 1
        factory = self

        class Provider(IdealProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                factory.calls += 1
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        return Provider(self.verifier_locs, self.true_locs[target_ip],
                        target_inflation_ms=5.0)


class FixedLocator:
    def __init__(self, table: dict[str, Location]):
        self.table = dict(table)

    def locate(self, ip: str) -> Location:
        if ip not in self.table:
            raise UnknownAddressError(ip)
        return self.table[ip]


def make_service(tmp_path, locator=None, factory=None, **cfg_overrides):
    registry = load_verifier_registry(write_registry(tmp_path))
    locator = locator or FixedLocator({"9.9.9.9": INSIDE})
    verifier_locs = {r.verifier_id: r.loc for r in registry.entries}
    factory = factory or CountingFactory(verifier_locs, {"9.9.9.9": INSIDE})
    defaults = dict(
        registry_path=str(tmp_path / "verifiers.csv"),
        cache_ttl=4 * 3600.0,
        verify=VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0),
    )
    defaults.update(cfg_overrides)
    cfg = ManagerConfig(**defaults)
    return ManagerService(registry, locator, factory, cfg), factory


class TestManagerService:
    def test_cache_hit_issues_no_measurements(self, tmp_path):
        service, factory = make_service(tmp_path)
        first = service.handle_verify_request("9.9.9.9", now=NOW)
        assert first.veri_passed is True
        calls_after_first = factory.calls
        assert calls_after_first > 0

        second = service.handle_verify_request("9.9.9.9", now=NOW + timedelta(hours=1))
        assert factory.calls == calls_after_first
        assert second == first  # including the original when_veri

    def test_assertion_drift_forces_reverification(self, tmp_path):
        moved = destination_point(INSIDE, 90.0, 500.0)
        locator = FixedLocator({"9.9.9.9": INSIDE})
        service, factory = make_service(tmp_path, locator=locator)
        service.handle_verify_request("9.9.9.9", now=NOW)
        calls = factory.calls

        locator.table["9.9.9.9"] = moved  # provider now asserts 500 km away
        factory.true_locs["9.9.9.9"] = moved
        result = service.handle_verify_request("9.9.9.9", now=NOW + timedelta(minutes=1))
        assert factory.calls > calls
        assert result.ip.loc == moved

    def test_small_assertion_jitter_keeps_cache_hit(self, tmp_path):
        locator = FixedLocator({"9.9.9.9": INSIDE})
        service, factory = make_service(tmp_path, locator=locator)
        service.handle_verify_request("9.9.9.9", now=NOW)
        calls = factory.calls

        locator.table["9.9.9.9"] = destination_point(INSIDE, 0.0, 0.5)
        service.handle_verify_request("9.9.9.9", now=NOW + timedelta(minutes=1))
        assert factory.calls == calls

    def test_ttl_expiry_forces_reverification(self, tmp_path):
        service, factory = make_service(tmp_path, cache_ttl=3600.0)
        service.handle_verify_request("9.9.9.9", now=NOW)
        calls = factory.calls
        service.handle_verify_request("9.9.9.9", now=NOW + timedelta(hours=2))
        assert factory.calls > calls

    def test_negative_results_are_cached_too(self, tmp_path):
        far = destination_point(INSIDE, 90.0, 3000.0)
        locator = FixedLocator({"9.9.9.9": INSIDE})
        factory = None
        registry = load_verifier_registry(write_registry(tmp_path))
        verifier_locs = {r.verifier_id: r.loc for r in registry.entries}
        factory = CountingFactory(verifier_locs, {"9.9.9.9": far})
        service = ManagerService(
            registry, locator, factory,
            ManagerConfig(registry_path="x", verify=VerifyConfig(probes_per_measurement=1)),
        )
        first = service.handle_verify_request("9.9.9.9", now=NOW)
        assert first.veri_passed is False
        assert first.reason is Reason.ALL_TRIANGLES_REJECTED
        calls = factory.calls
        second = service.handle_verify_request("9.9.9.9", now=NOW + timedelta(minutes=5))
        assert factory.calls == calls
        assert second == first

    def test_cache_hits_return_one_result_without_a_new_parse(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.sqlite")
        now = utc_now()  # a reopened cache drops rows expired by the wall clock
        service, _ = make_service(tmp_path, cache_path=path)
        first = service.handle_verify_request("9.9.9.9", now=now)
        parses = []
        parse = ipaddress.ip_address

        def counting(address):
            parses.append(address)
            return parse(address)

        monkeypatch.setattr(ipaddress, "ip_address", counting)
        # the entry holds the verification's own result
        assert service.handle_verify_request("9.9.9.9", now=now) is first
        assert service.handle_verify_request("9.9.9.9", now=now) is first
        assert parses == ["9.9.9.9"] * 2  # each request's own address check
        service.close()

        # a loaded entry builds its result on the first hit only
        reopened, factory = make_service(tmp_path, cache_path=path)
        parses.clear()
        hit = reopened.handle_verify_request("9.9.9.9", now=now)
        assert hit == first and factory.calls == 0
        assert reopened.handle_verify_request("9.9.9.9", now=now) is hit
        assert parses == ["9.9.9.9"] * 3
        reopened.close()

    def test_every_verification_searches_one_layout_of_the_registry(self, tmp_path, monkeypatch):
        registry = load_verifier_registry(write_registry(tmp_path))
        locs = {r.verifier_id: r.loc for r in registry.entries}
        near = destination_point(INSIDE, 30.0, 100.0)
        factory = CountingFactory(locs, {"9.9.9.9": INSIDE, "8.8.8.8": near})
        service = ManagerService(
            registry, FixedLocator({"9.9.9.9": INSIDE, "8.8.8.8": near}), factory,
            ManagerConfig(registry_path="x", verify=VerifyConfig(probes_per_measurement=1)),
        )
        seen = []
        search = slv.verify.enumerate_triangles

        def recording(verifiers, asserted, limit=None):
            seen.append(verifiers)
            return search(verifiers, asserted, limit)

        monkeypatch.setattr(slv.verify, "enumerate_triangles", recording)
        for ip in ("9.9.9.9", "8.8.8.8"):
            assert service.handle_verify_request(ip, now=NOW).veri_passed is True
        assert len(seen) == 2 and seen[0] is seen[1]
        assert list(seen[0]._loc_of.items()) == sorted(registry.verifier_inputs())

    def test_deterministic_for_fixed_inputs(self, tmp_path):
        service_a, _ = make_service(tmp_path)
        service_b, _ = make_service(tmp_path)
        assert service_a.handle_verify_request("9.9.9.9", now=NOW) == (
            service_b.handle_verify_request("9.9.9.9", now=NOW)
        )

    def test_concurrent_requests_share_one_verification(self, tmp_path):
        registry = load_verifier_registry(write_registry(tmp_path))
        verifier_locs = {r.verifier_id: r.loc for r in registry.entries}
        factory = CountingFactory(verifier_locs, {"9.9.9.9": INSIDE})
        original_call = CountingFactory.__call__

        def slow_factory(self, target_ip):
            provider = original_call(self, target_ip)
            inner = provider.measure

            def slow_measure(*args):
                time.sleep(0.01)
                return inner(*args)

            provider.measure = slow_measure
            return provider

        factory.__class__ = type("SlowFactory", (CountingFactory,), {"__call__": slow_factory})
        service = ManagerService(
            registry, FixedLocator({"9.9.9.9": INSIDE}), factory,
            ManagerConfig(registry_path="x", verify=VerifyConfig(probes_per_measurement=1)),
        )

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(service.handle_verify_request("9.9.9.9", now=NOW))
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert factory.verifications == 1
        assert len(results) == 8
        assert all(r == results[0] for r in results)

    def test_spellings_of_one_address_share_one_verification(self, tmp_path):
        registry = load_verifier_registry(write_registry(tmp_path))
        factory = CountingFactory({r.verifier_id: r.loc for r in registry.entries},
                                  {"2001:db8::1": INSIDE})
        locator = StaticTableLocator([(ipaddress.ip_network("2001:db8::/32"), INSIDE)])
        service = ManagerService(registry, locator, factory, ManagerConfig(
            registry_path="x", verify=VerifyConfig(probes_per_measurement=1)))
        spellings = ("2001:db8::1", "2001:DB8::1", "2001:db8:0::1", "2001:0db8:0000::0001")
        results = [service.handle_verify_request(ip, now=NOW) for ip in spellings]
        assert factory.verifications == 1
        assert len(service._cache) == 1
        assert [r.ip.value for r in results] == ["2001:db8::1"] * 4

    def test_lookup_errors_are_not_negative_verifications(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(UnknownAddressError):
            service.handle_verify_request("8.8.8.8", now=NOW)
        with pytest.raises(ValueError):
            service.handle_verify_request("not-an-ip", now=NOW)

    def test_evict_expired(self, tmp_path):
        # the service writes its result through to the sqlite file, and
        # eviction from that file sticks across a reopen
        path = tmp_path / "cache.sqlite"
        now = utc_now()  # a reopen drops rows expired by the wall clock
        service, _ = make_service(tmp_path, cache_ttl=60.0, cache_path=str(path))
        service.handle_verify_request("9.9.9.9", now=now)
        cache = VerificationCache(path)
        assert cache.evict_expired(now + timedelta(minutes=5)) == 1
        assert cache.evict_expired(now + timedelta(minutes=5)) == 0
        cache.close()
        reopened = VerificationCache(path)
        assert len(reopened) == 0
        reopened.close()

    def test_uncovered_address_is_decided_by_the_hull_built_at_start(self, tmp_path, monkeypatch):
        built, tested = [], []
        hull, containment = slv.verify._hull, slv.verify.spherical_containment

        def counting_hull(units):
            built.append(len(units))
            return hull(units)

        def counting_containment(*args):
            tested.append(args)
            return containment(*args)

        monkeypatch.setattr(slv.verify, "_hull", counting_hull)
        monkeypatch.setattr(slv.verify, "spherical_containment", counting_containment)
        registry = load_verifier_registry(write_registry(tmp_path))
        outside = Location(50.0, 50.0)  # far beyond the registry's triangle
        factory = CountingFactory({r.verifier_id: r.loc for r in registry.entries},
                                  {"7.7.7.7": outside})
        service = ManagerService(registry, FixedLocator({"7.7.7.7": outside}), factory,
                                 ManagerConfig(registry_path="x"))
        assert built == [3]
        result = service.handle_verify_request("7.7.7.7", now=NOW)
        assert result.reason is Reason.NO_COVERAGE and not result.veri_passed
        assert factory.calls == 0 and tested == []
        assert built == [3]

    def test_requires_three_verifiers(self, tmp_path):
        registry = load_verifier_registry(write_registry(tmp_path))
        registry.entries = registry.entries[:2]
        with pytest.raises(InsufficientVerifiersError):
            ManagerService(registry, FixedLocator({}), lambda ip: None,
                           ManagerConfig(registry_path="x"))


@pytest.fixture
def api(tmp_path):
    locator = FixedLocator({
        "9.9.9.9": INSIDE,
        "7.7.7.7": destination_point(INSIDE, 45.0, 120.0),
    })
    registry = load_verifier_registry(write_registry(tmp_path))
    verifier_locs = {r.verifier_id: r.loc for r in registry.entries}
    factory = CountingFactory(verifier_locs, {
        "9.9.9.9": INSIDE,
        # true location thousands of km from the asserted one: must fail
        "7.7.7.7": destination_point(INSIDE, 90.0, 4000.0),
    })
    cfg = ManagerConfig(registry_path="x", verify=VerifyConfig(probes_per_measurement=1))
    service = ManagerService(registry, locator, factory, cfg)
    server = ManagerHTTPServer(service, "127.0.0.1", 0)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


def api_get(server, path):
    host, port = server.bound_address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHttpApi:
    def test_health(self, api):
        status, body = api_get(api, "/health")
        assert status == 200
        assert body == {"status": "ok", "verifiers": 3}

    def test_verify_positive_schema(self, api):
        status, body = api_get(api, "/verify?ip=9.9.9.9")
        assert status == 200
        assert body["veri_passed"] is True
        assert body["ip"]["value"] == "9.9.9.9"
        assert set(body["ip"]["loc"]) == {"lat", "lon"}
        assert set(body["region"]) == {"centre", "radius"}
        assert body["reason"] is None
        assert body["when_veri"].endswith("Z")

    def test_failed_verification_is_still_http_200(self, api):
        status, body = api_get(api, "/verify?ip=7.7.7.7")
        assert status == 200
        assert body["veri_passed"] is False
        assert body["region"] is None
        assert body["reason"] == "AllTrianglesRejected"

    def test_cached_reply_bytes_equal_the_verified_ones(self, api):
        host, port = api.bound_address

        def body(path):
            with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
                return resp.read()

        for ip in ("9.9.9.9", "7.7.7.7"):
            verified = body(f"/verify?ip={ip}")
            assert body(f"/verify?ip={ip}") == verified
            assert body(f"/verify?ip={ip}") == verified

    def test_missing_parameter(self, api):
        status, body = api_get(api, "/verify")
        assert status == 400 and "error" in body

    def test_invalid_ip(self, api):
        status, body = api_get(api, "/verify?ip=bogus")
        assert status == 400 and "error" in body

    def test_unknown_address_is_404(self, api):
        status, body = api_get(api, "/verify?ip=6.6.6.6")
        assert status == 404 and "error" in body

    def test_unknown_path(self, api):
        status, body = api_get(api, "/nope")
        assert status == 404


class TestHttpErrorMapping:
    """Only the address check answers 400; any other failure is a logged 500."""

    class RaisingService:
        registry_size = 3

        def __init__(self, exc):
            self.exc = exc

        def handle_verify_request(self, ip):
            raise self.exc

    @pytest.fixture
    def serve(self):
        servers = []

        def start(service):
            server = ManagerHTTPServer(service, "127.0.0.1", 0)
            server.serve_in_background()
            servers.append(server)
            return server

        yield start
        for server in servers:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("exc", [
        ValueError("math domain error"),
        InsufficientVerifiersError("2 verifiers registered"),
        RuntimeError("boom"),
    ])
    def test_other_failures_are_logged_500(self, serve, caplog, exc):
        server = serve(self.RaisingService(exc))
        with caplog.at_level("ERROR", logger="slv.manager"):
            status, body = api_get(server, "/verify?ip=9.9.9.9")
        assert status == 500
        assert "invalid ip address" not in body["error"]
        assert str(exc) in body["error"]
        assert any(r.exc_info and r.exc_info[1] is exc for r in caplog.records)

    def test_address_error_is_400(self, serve):
        server = serve(self.RaisingService(InvalidAddressError("invalid ip address: 'x'")))
        assert api_get(server, "/verify?ip=x") == (400, {"error": "invalid ip address: 'x'"})

    def test_service_raises_address_error_for_bad_address(self, tmp_path):
        registry = load_verifier_registry(write_registry(tmp_path))
        service = ManagerService(registry, FixedLocator({}), lambda ip: None,
                                 ManagerConfig(registry_path="x"))
        for bad in ("bogus", "1.2.3", "10.0.0.0/8", ""):
            with pytest.raises(InvalidAddressError):
                service.handle_verify_request(bad)


class _StubAgentHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            self.wfile.write(self.server.reply(json.loads(line)) + b"\n")


def every_endpoint(value):
    """A reply to the request that gives `value` as the RTT of each of its
    endpoints."""

    def reply(req):
        ids = [p["verifier_id"] for p in req["peers"]]
        if req["target"]:
            ids.append("target")
        return json.dumps({"request_id": req["request_id"], "rtts": dict.fromkeys(ids, value)}).encode()

    return reply


# Replies that do not follow the wire protocol, each built from the
# request it answers.
MALFORMED_REPLIES = {
    "not_json": lambda req: b"this is not json",
    "non_numeric_rtts": every_endpoint("fast"),
    "bare_number": lambda req: b"5",
    "rtts_list": lambda req: json.dumps({"request_id": req["request_id"], "rtts": [1.0]}).encode(),
    "nan_rtt": every_endpoint(math.nan),
}


class TestMalformedAgentReplies:
    @pytest.mark.parametrize("kind", sorted(MALFORMED_REPLIES))
    def test_is_a_measurement_failure(self, tmp_path, kind):
        stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubAgentHandler)
        stub.daemon_threads = True
        stub.reply = MALFORMED_REPLIES[kind]
        threading.Thread(target=stub.serve_forever, daemon=True).start()
        port = stub.server_address[1]
        rows = [(f"127.0.0.1:{port}", lat, lon) for _, lat, lon in REGISTRY_ROWS]
        registry = load_verifier_registry(write_registry(tmp_path, rows))
        pool = AgentPool()
        service = ManagerService(
            registry, FixedLocator({"9.9.9.9": INSIDE}),
            lambda ip: LiveDelayProvider(registry, ip, 80, pool),
            ManagerConfig(registry_path="x", verify=VerifyConfig(probes_per_measurement=1)),
        )
        server = ManagerHTTPServer(service, "127.0.0.1", 0)
        server.serve_in_background()
        try:
            status, body = api_get(server, "/verify?ip=9.9.9.9")
        finally:
            server.shutdown()
            server.server_close()
            pool.close()
            stub.shutdown()
            stub.server_close()
        assert status == 200
        assert body["veri_passed"] is False
        assert body["reason"] == "MeasurementFailure"


class TestProviderUnavailableSurfacing(object):
    def test_http_502(self, tmp_path):
        class DownLocator:
            def locate(self, ip):
                raise ProviderUnavailableError("provider down")

        registry = load_verifier_registry(write_registry(tmp_path))
        service = ManagerService(
            registry, DownLocator(), lambda ip: None,
            ManagerConfig(registry_path="x"),
        )
        server = ManagerHTTPServer(service, "127.0.0.1", 0)
        server.serve_in_background()
        try:
            status, body = api_get(server, "/verify?ip=9.9.9.9")
            assert status == 502 and "error" in body
        finally:
            server.shutdown()
            server.server_close()

    def test_http_502_for_a_provider_body_that_is_not_utf8(self, tmp_path):
        geo = run_geo_service(body=b'\xff{"lat": 1, "lon": 2}')
        host, port = geo.server_address[:2]
        registry = load_verifier_registry(write_registry(tmp_path))
        service = ManagerService(
            registry, HttpLocator(f"http://{host}:{port}/geo/{{ip}}"), lambda ip: None,
            ManagerConfig(registry_path="x"),
        )
        server = ManagerHTTPServer(service, "127.0.0.1", 0)
        server.serve_in_background()
        try:
            status, body = api_get(server, "/verify?ip=9.9.9.9")
            assert status == 502 and "assertion provider failed" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            geo.shutdown()
            geo.server_close()


class StubService:
    """Answers every address at once, except those in `blocked`, which wait
    for `release`; records the thread that served each call."""

    registry_size = 3

    def __init__(self, blocked=()):
        self.blocked = set(blocked)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.threads = []

    def handle_verify_request(self, ip):
        self.threads.append(threading.current_thread())
        if ip in self.blocked:
            self.entered.set()
            assert self.release.wait(10)
        return VerificationResult(ip=IPInfo(ip, INSIDE), veri_passed=True,
                                  region=Circle(INSIDE, 100.0), when_veri=NOW)


@pytest.fixture
def front():
    """Start a ManagerHTTPServer over a service; all are closed after the test."""
    servers = []

    def start(service):
        server = ManagerHTTPServer(service, "127.0.0.1", 0)
        server.serve_in_background()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def exchange(server, data: bytes) -> list[tuple[int, dict, dict]]:
    """Send data on a new connection, read until the server closes it, and
    split what came back into (status, headers, JSON body) per response."""
    with socket.create_connection(server.bound_address, timeout=10) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):  # times out unless the server closes
            received += chunk
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        responses.append((int(lines[0].split()[1]), headers, json.loads(rest[:length])))
        received = rest[length:]
    return responses


class TestHttpFrontEnd:
    @pytest.mark.parametrize("request_bytes", [
        b"GET /verify?ip=9.9.9.9 HTTP/1.0\r\n\r\n",
        b"GET /verify?ip=9.9.9.9 HTTP/1.1\r\nHost: x\r\n\r\n",
        b"GET /verify?ip=9.9.9.9 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n",
    ])
    def test_each_answer_closes_its_connection(self, front, request_bytes):
        server = front(StubService())
        [(status, headers, body)] = exchange(server, request_bytes)
        assert status == 200 and body["ip"]["value"] == "9.9.9.9"
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert headers["Server"] and headers["Date"]

    @pytest.mark.parametrize("request_bytes, status", [
        (b"NONSENSE\r\n\r\n", 400),
        (b"GET /health HTTP/2.0\r\n\r\n", 400),
        (b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 9000 + b"\r\n\r\n", 431),
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 9000, 431),
        (b"GET /verify?ip=9.9.9.9 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 400),
        (b"GET /verify?ip=9.9.9.9 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 400),
        (b"GET /health HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    ])
    def test_protocol_errors_are_json_then_close(self, front, request_bytes, status):
        service = StubService()
        server = front(service)
        [(got, headers, body)] = exchange(server, request_bytes)
        assert got == status and set(body) == {"error"}
        assert headers["Connection"] == "close"
        assert service.threads == []

    def test_post_is_405_with_allow_get(self, front):
        service = StubService()
        server = front(service)
        [(status, headers, body)] = exchange(
            server, b"POST /verify?ip=9.9.9.9 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
        assert status == 405 and set(body) == {"error"}
        assert headers["Allow"] == "GET" and headers["Connection"] == "close"
        assert service.threads == []

    @pytest.mark.parametrize("trickle", [False, True])
    def test_silent_or_slow_client_is_dropped_and_its_thread_reused(self, front, monkeypatch, trickle):
        monkeypatch.setattr(slv.manager, "IDLE_TIMEOUT_S", 0.3)
        service = StubService()
        server = front(service)
        assert api_get(server, "/verify?ip=9.9.9.9")[0] == 200
        # the reply is sent before its handler goes back to idle; until it
        # has, the next connection would start a second handler
        deadline = time.monotonic() + 5
        while len(server._idle) != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        with socket.create_connection(server.bound_address, timeout=10) as sock:
            sock.settimeout(0.1)
            if trickle:
                sock.sendall(b"GET /health HTTP/1.1\r\n")
            start = time.monotonic()
            received = None
            while received is None and time.monotonic() - start < 5:
                try:
                    received = sock.recv(1)
                except socket.timeout:
                    if trickle:  # a head that never ends, one byte per 0.1 s
                        sock.sendall(b"a")
                except ConnectionError:  # a byte sent after the server closed
                    received = b""
            assert received == b""  # closed by the server, not by a timeout
            assert time.monotonic() - start < 5
        # the handler closes the connection before it goes back to idle
        deadline = time.monotonic() + 5
        while len(server._idle) != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert api_get(server, "/verify?ip=8.8.8.8")[0] == 200
        assert service.threads[1] is service.threads[0]

    def test_cache_hit_is_not_delayed_by_a_blocked_verification(self, front):
        service = StubService(blocked={"8.8.8.8"})
        server = front(service)
        slow = []
        waiter = threading.Thread(target=lambda: slow.append(api_get(server, "/verify?ip=8.8.8.8")))
        waiter.start()
        try:
            assert service.entered.wait(10)
            assert api_get(server, "/verify?ip=9.9.9.9")[0] == 200
            assert not slow
        finally:
            service.release.set()
            waiter.join(10)
        assert slow[0][0] == 200

    def test_sequential_requests_reuse_handler_threads(self, front):
        service = StubService()
        server = front(service)
        for _ in range(50):
            assert api_get(server, "/verify?ip=9.9.9.9")[0] == 200
        assert len(service.threads) == 50
        assert len(set(service.threads)) <= 2

    def test_idle_threads_above_the_cap_exit(self, front, monkeypatch):
        monkeypatch.setattr(slv.manager, "MAX_IDLE_HANDLERS", 1)
        service = StubService(blocked={"8.8.8.8"})
        server = front(service)
        clients = [threading.Thread(target=api_get, args=(server, "/verify?ip=8.8.8.8"))
                   for _ in range(3)]
        for client in clients:
            client.start()
        deadline = time.monotonic() + 10
        while len(service.threads) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        service.release.set()
        for client in clients:
            client.join(10)
        handlers = set(service.threads)
        assert len(handlers) == 3
        while sum(t.is_alive() for t in handlers) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(t.is_alive() for t in handlers) == 1

    def test_server_close_ends_the_idle_handler_threads(self, front):
        service = StubService()
        server = front(service)
        for _ in range(3):
            api_get(server, "/verify?ip=9.9.9.9")
        server.shutdown()
        server.server_close()
        for thread in set(service.threads):
            thread.join(5)
            assert not thread.is_alive()

    def test_shutdown_and_close_right_after_start_raise_nothing(self, monkeypatch):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        for _ in range(5):
            server = ManagerHTTPServer(StubService(), "127.0.0.1", 0)
            thread = server.serve_in_background()
            server.shutdown()
            server.server_close()
            thread.join(5)
            assert not thread.is_alive()
        assert errors == []


def connects_late(address, count=32, within=0.5) -> int:
    """Begin count connects to address at once and return how many have
    not completed within `within` seconds. Closes every socket it opened."""
    socks = [socket.socket() for _ in range(count)]
    try:
        with selectors.DefaultSelector() as selector:
            deadline = time.monotonic() + within
            for sock in socks:
                sock.setblocking(False)
                assert sock.connect_ex(address) in (0, errno.EINPROGRESS)
                selector.register(sock, selectors.EVENT_WRITE)
            while selector.get_map() and (left := deadline - time.monotonic()) > 0:
                for key, _ in selector.select(left):
                    selector.unregister(key.fileobj)
                    assert key.fileobj.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0
            return len(selector.get_map())
    finally:
        for sock in socks:
            sock.close()


@pytest.mark.parametrize("kind", ["agent", "manager"])
def test_a_burst_of_connects_is_taken_without_a_resent_syn(kind):
    # a listen backlog of 5 drops the SYNs of such a burst, and the client
    # sends each again about 1 s later
    if kind == "agent":
        server = AgentServer("127.0.0.1", 0)
    else:
        server = ManagerHTTPServer(StubService(), "127.0.0.1", 0)
    server.serve_in_background()
    try:
        assert connects_late(server.bound_address) == 0
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("record", [
    INSIDE,
    Circle(INSIDE, 100.0),
    IPInfo("1.2.3.4", INSIDE),
    VerificationResult(IPInfo("1.2.3.4", INSIDE), True, Circle(INSIDE, 100.0), NOW),
], ids=lambda record: type(record).__name__)
def test_records_held_per_row_and_entry_are_slotted(record):
    assert not hasattr(record, "__dict__")
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_daemon_modules_load_no_http_client_tls_libcrypto_email_or_uuid():
    # _hashlib maps OpenSSL's libcrypto
    code = (
        "import sys, slv, slv.cli, slv.manager, slv.agent\n"
        "print([m for m in ('urllib.request', 'http.client', 'ssl', 'uuid', '_hashlib', 'hashlib',\n"
        "                   'email.utils') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(slv.manager.__file__))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_http_date_is_the_imf_fixdate_of_email_utils():
    import email.utils

    # the epoch, a leap day, the first second past 32-bit time_t, and year 9999
    rng = random.Random(30)
    seconds = [0, 951782400, 2**31, 253402300799] + [rng.randrange(253402300800) for _ in range(500)]
    for second in seconds:
        assert slv.manager._http_date(second) == email.utils.formatdate(second, usegmt=True).encode()


class TestManagerConfig:
    def test_from_file(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        config_path = tmp_path / "manager.json"
        config_path.write_text(json.dumps({
            "registry": str(write_registry(tmp_path)),
            "cache_ttl": 600,
            "lambda_ms": 4.5,
            "probes_per_measurement": 2,
            "max_triangles": 3,
            "measurement_timeout": 2.0,
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_host": "127.0.0.1",
            "listen_port": 0,
            "target_port": 8080,
        }))
        cfg = ManagerConfig.from_file(config_path)
        assert cfg.cache_ttl == 600
        assert cfg.verify == VerifyConfig(
            lambda_ms=4.5, probes_per_measurement=2, max_triangles=3, measurement_timeout=2.0
        )
        assert cfg.target_port == 8080
        locator = cfg.locator.build()
        assert locator.locate("10.1.2.3") == Location(45.0, -75.0)

    @pytest.mark.parametrize("key", ["lambda_ms", "measurement_timeout", "cache_ttl"])
    def test_rejects_non_finite_numbers(self, tmp_path, key):
        config_path = tmp_path / "manager.json"
        # json writes NaN as the bare literal it also accepts on reading
        config_path.write_text(json.dumps({"registry": "x", key: math.nan}))
        with pytest.raises(ValueError):
            ManagerConfig.from_file(config_path)

    @pytest.mark.parametrize("key", ["max_triangles", "probes_per_measurement"])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_rejects_non_integer_counts(self, tmp_path, key, bad):
        config_path = tmp_path / "manager.json"
        config_path.write_text(json.dumps({"registry": "x", key: bad}))
        with pytest.raises(ValueError):
            ManagerConfig.from_file(config_path)

    @pytest.mark.parametrize("data, key, value", [
        ({"measurement_timeout": "5"}, "measurement_timeout", "'5'"),
        ({"lambda_ms": "5"}, "lambda_ms", "'5'"),
        ({"cache_ttl": "60"}, "cache_ttl", "'60'"),
        ({"locator": {"timeout": "5"}}, "locator timeout", "'5'"),
        ({"lambda_ms": True}, "lambda_ms", "True"),
        ({"cache_ttl": True}, "cache_ttl", "True"),
        ({"measurement_timeout": True}, "measurement_timeout", "True"),
        ({"locator": {"timeout": True}}, "locator timeout", "True"),
    ], ids=["timeout_string", "lambda_string", "ttl_string", "locator_timeout_string",
            "lambda_bool", "ttl_bool", "timeout_bool", "locator_timeout_bool"])
    def test_wrongly_typed_number_is_refused_naming_key_and_value(self, tmp_path, data, key, value):
        config_path = tmp_path / "manager.json"
        config_path.write_text(json.dumps({"registry": "x", **data}))
        with pytest.raises(ValueError) as err:
            ManagerConfig.from_file(config_path)
        message = str(err.value)
        assert str(config_path) in message
        assert f"{key} must be a finite number" in message and f"got {value}" in message

    def test_rejects_non_positive_ttl(self):
        with pytest.raises(ValueError):
            ManagerConfig(registry_path="x", cache_ttl=0)

    @pytest.mark.parametrize("text", [
        '["registry", "r"]',
        '{"registry": "r", "locator": null}',
        '{"registry": "r", "locator": "t.csv"}',
        '{"registry": "r", "listen_port": null}',
        '{"registry": "r", "measurement_timeout": "5"}',
        '{"registry": "r", "locator": {"timeout": "5"}}',
        '{"registry": "r", "cache_ttl": "600"}',
        '{"registry": 5}',
        '{"registry": "r", "listen_host": 5}',
        '{"registry": "r", "cache_path": 5}',
        '{"locator": {}}',
        '{"registry": "r",',
    ])
    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path, text):
        config_path = tmp_path / "manager.json"
        config_path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(config_path))):
            ManagerConfig.from_file(config_path)

    @pytest.mark.parametrize("key, port", [
        ("agent_port", 0), ("agent_port", 65536), ("target_port", 0), ("target_port", -80),
        ("target_port", 99999), ("listen_port", -1), ("listen_port", 65536),
        ("agent_port", 7707.0), ("target_port", True), ("listen_port", "7700"),
    ])
    def test_rejects_ports_out_of_range(self, tmp_path, key, port):
        with pytest.raises(ValueError, match=key):
            ManagerConfig(registry_path="x", **{key: port})
        config_path = tmp_path / "manager.json"
        config_path.write_text(json.dumps({"registry": "x", key: port}))
        with pytest.raises(ValueError, match=re.escape(str(config_path))):
            ManagerConfig.from_file(config_path)

    def test_port_range_ends_are_accepted(self):
        cfg = ManagerConfig(registry_path="x", agent_port=1, target_port=65535, listen_port=0)
        assert (cfg.agent_port, cfg.target_port, cfg.listen_port) == (1, 65535, 0)
        assert ManagerConfig(registry_path="x", agent_port=65535, listen_port=65535)

    @pytest.mark.parametrize("data, key", [
        ({"probes": 3}, "probes"),
        ({"probes_per_measurement": 3, "max_triangle": 2}, "max_triangle"),
        ({"listen-port": 80}, "listen-port"),
        ({"verify": {"lambda_ms": 4}}, "verify"),
        ({"locator": {"provider": "static_table", "pth": "t.csv"}}, "pth"),
        ({"locator": {"timeout_s": 2}}, "timeout_s"),
    ])
    def test_unknown_key_is_refused_naming_file_and_key(self, tmp_path, data, key):
        # a misspelled key used to keep its default silently: "probes": 3 ran with 5
        config_path = tmp_path / "manager.json"
        config_path.write_text(json.dumps({"registry": "r", **data}))
        with pytest.raises(ValueError) as err:
            ManagerConfig.from_file(config_path)
        assert str(config_path) in str(err.value) and f"unknown key {key!r}" in str(err.value)

    def test_every_documented_key_loads(self, tmp_path):
        # the README's example, every other key and the http locator's keys
        config_path = tmp_path / "manager.json"
        config_path.write_text(json.dumps({
            "registry": "verifiers.csv", "cache_ttl": 14400, "lambda_ms": 5.0,
            "probes_per_measurement": 5, "max_triangles": 4, "measurement_timeout": 10.0,
            "locator": {"provider": "http_service", "path": None,
                        "url_template": "https://geo.example/{ip}", "timeout": 2.0},
            "agent_port": 7707, "listen_host": "127.0.0.1", "listen_port": 7700,
            "target_port": 80, "cache_path": "cache.sqlite",
        }))
        cfg = ManagerConfig.from_file(config_path)
        assert (cfg.agent_port, cfg.cache_path, cfg.locator.timeout) == (7707, "cache.sqlite", 2.0)

    def test_keys_left_out_keep_the_defaults(self, tmp_path):
        config_path = tmp_path / "manager.json"
        config_path.write_text('{"registry": "r"}')
        assert ManagerConfig.from_file(config_path) == ManagerConfig(registry_path="r")
        config_path.write_text('{"registry": "r", "locator": {"path": "t.csv"}}')
        assert ManagerConfig.from_file(config_path) == ManagerConfig(
            registry_path="r", locator=LocatorConfig(path="t.csv")
        )

    def test_live_provider_takes_its_port_and_pool(self, tmp_path):
        registry = load_verifier_registry(write_registry(tmp_path))
        with pytest.raises(TypeError):
            LiveDelayProvider(registry, "10.0.0.1")
        with pytest.raises(TypeError):
            LiveDelayProvider(registry, "10.0.0.1", 80)

    def test_locator_config_validation(self):
        with pytest.raises(ValueError):
            LocatorConfig(provider="static_table", path=None).build()
        with pytest.raises(ValueError):
            LocatorConfig(provider="carrier-pigeon").build()


class CountingAgent(AgentServer):
    """Loopback agent that counts the connections it accepts and closes,
    and can drop them all as a crashed agent process would."""

    def __init__(self, port: int = 0) -> None:
        super().__init__("127.0.0.1", port, default_probes=1, default_timeout=1.0)
        self.accepted = 0
        self.closed = 0
        self._open: list = []
        self._count_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._count_lock:
            self.accepted += 1
            self._open.append(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._count_lock:
            self.closed += 1
        super().shutdown_request(request)

    def wait_closed(self, n: int, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while self.closed < n and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.closed >= n

    def reset(self) -> None:
        """Reset every connection accepted so far (an RST, not a FIN) and
        keep serving, as an agent behind a middlebox that forgot them."""
        with self._count_lock:
            for sock in self._open:
                sock.shutdown(socket.SHUT_RD)  # wakes the handler, sends nothing
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
            self._open.clear()

    def kill(self) -> None:
        self.shutdown()
        self.server_close()
        with self._count_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()


class _WireCountingHandler(slv.agent._AgentHandler):
    def _send(self, payload: dict) -> None:
        with self.server._count_lock:
            self.server.wire.extend(payload.get("rtts", ()))
        super()._send(payload)


class WireCountingAgent(CountingAgent):
    """CountingAgent that also records the endpoint of every wire request
    it answers, before the reply goes out."""

    def __init__(self) -> None:
        super().__init__()
        self.RequestHandlerClass = _WireCountingHandler
        self.wire: list[str] = []


class _DroppingHandler(slv.agent._AgentHandler):
    def handle(self) -> None:
        while line := self.rfile.readline():
            with self.server._count_lock:
                drop = self.server.drops > 0
                self.server.drops -= drop
            if drop:
                if self.server.by_reset:
                    self.connection.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                    self.connection.close()
                return
            request = MeasureRequest.from_wire(json.loads(line))
            self._send(slv.agent.handle_measure_request(request).to_wire())


class DroppingAgent(CountingAgent):
    """CountingAgent that reads each of the next `drops` requests and ends
    its connection without an answer: by a FIN, or by an RST alone when
    by_reset is set, as a host that lost the connection answers a packet
    on it (it crashed and came back, or a middlebox forgot the
    connection)."""

    def __init__(self, by_reset: bool = False) -> None:
        super().__init__()
        self.RequestHandlerClass = _DroppingHandler
        self.drops = 0
        self.by_reset = by_reset


@pytest.fixture
def counting_agent():
    server = CountingAgent()
    server.serve_in_background()
    yield server
    server.kill()


def agent_record(server) -> VerifierRecord:
    host, port = server.bound_address
    return VerifierRecord("v1", host, port, Location(0, 0))


def pooled_provider(server, pool, target) -> LiveDelayProvider:
    """A provider that measures target through the one agent server, as
    verifier v1, over connections of pool."""
    return LiveDelayProvider(VerifierRegistry([agent_record(server)]), *target, pool)


def answer_in_pairs(monkeypatch) -> None:
    """Make in-process agents answer only while two requests are handled
    at the same time, which one connection (served in order) cannot do."""
    both_in_flight = threading.Barrier(2, timeout=10.0)
    original = slv.agent.handle_measure_request

    def handle(req):
        both_in_flight.wait()
        return original(req)

    monkeypatch.setattr(slv.agent, "handle_measure_request", handle)


class TestAgentPool:
    EDGE = ("v1", TARGET)

    def test_sequential_requests_reuse_one_connection(self, counting_agent, tcp_listener):
        pool = AgentPool()
        provider = pooled_provider(counting_agent, pool, tcp_listener.address)
        for _ in range(4):
            assert provider.measure(*self.EDGE, 1, 1.0) is not None
        assert counting_agent.accepted == 1
        pool.close()

    def test_overlapping_requests_use_two_connections(
        self, counting_agent, tcp_listener, monkeypatch
    ):
        answer_in_pairs(monkeypatch)
        pool = AgentPool()
        provider = pooled_provider(counting_agent, pool, tcp_listener.address)
        for _ in range(2):
            measured = provider.measure_edges([self.EDGE] * 2, 1, 1.0)
            assert None not in measured
            # the second pair finds both connections idle and opens none
            assert counting_agent.accepted == 2
        pool.close()

    def test_stale_idle_connection_is_replaced_after_agent_restart(
        self, counting_agent, tcp_listener
    ):
        pool = AgentPool()
        provider = pooled_provider(counting_agent, pool, tcp_listener.address)
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        port = counting_agent.bound_address[1]
        counting_agent.kill()

        restarted = CountingAgent(port)
        restarted.serve_in_background()
        try:
            assert provider.measure(*self.EDGE, 1, 1.0) is not None
            assert restarted.accepted == 1
        finally:
            pool.close()
            restarted.kill()

    def test_idle_connection_reset_by_the_agent_is_replaced(self, counting_agent, tcp_listener):
        pool = AgentPool()
        provider = pooled_provider(counting_agent, pool, tcp_listener.address)
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        counting_agent.reset()
        time.sleep(0.05)  # let the RST arrive, so that take() drops the connection
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        assert counting_agent.accepted == 2
        pool.close()

    @pytest.fixture(params=[False, True], ids=["fin", "rst"])
    def dropping_agent(self, request):
        agent = DroppingAgent(by_reset=request.param)
        agent.serve_in_background()
        yield agent
        agent.kill()

    def test_request_lost_on_a_new_connection_fails_its_edge_and_is_not_sent_again(
        self, dropping_agent, tcp_listener, caplog
    ):
        pool = AgentPool()
        provider = pooled_provider(dropping_agent, pool, tcp_listener.address)
        dropping_agent.drops = 1
        with caplog.at_level("WARNING", logger="slv.manager"):
            assert provider.measure(*self.EDGE, 1, 1.0) is None
        assert caplog.text.count("measurement via v1 for target failed") == 1
        assert idle_connections(pool) == {}
        # the connection was opened for the request, so it is not opened again
        assert dropping_agent.accepted == 1
        pool.close()

    def test_request_lost_on_a_pooled_connection_is_sent_once_more_on_a_new_one(
        self, dropping_agent, tcp_listener, caplog
    ):
        pool = AgentPool()
        provider = pooled_provider(dropping_agent, pool, tcp_listener.address)
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        # the agent ends the connection only once it has read the request,
        # so take() finds the pooled connection idle and hands it out
        dropping_agent.drops = 1
        with caplog.at_level("WARNING", logger="slv.manager"):
            assert provider.measure(*self.EDGE, 1, 1.0) is not None
        assert "measurement via" not in caplog.text
        assert dropping_agent.accepted == 2
        assert idle_connections(pool) == {"v1": 1}
        pool.close()

    def test_request_lost_on_a_pooled_and_then_a_new_connection_fails_its_edge(
        self, dropping_agent, tcp_listener, caplog
    ):
        pool = AgentPool()
        provider = pooled_provider(dropping_agent, pool, tcp_listener.address)
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        dropping_agent.drops = 2
        with caplog.at_level("WARNING", logger="slv.manager"):
            assert provider.measure(*self.EDGE, 1, 1.0) is None
        assert caplog.text.count("measurement via v1 for target failed") == 1
        assert idle_connections(pool) == {}
        # one new connection for the lost request, and no further one
        assert dropping_agent.accepted == 2
        pool.close()

    def test_failed_request_does_not_return_its_connection(
        self, counting_agent, tcp_listener, monkeypatch, caplog
    ):
        pool = AgentPool()
        provider = pooled_provider(counting_agent, pool, tcp_listener.address)
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        assert counting_agent.accepted == 1

        # send probes 0 past client-side validation, so that the agent
        # replies with an error
        to_wire = MeasureRequest.to_wire
        monkeypatch.setattr(MeasureRequest, "to_wire", lambda req: {**to_wire(req), "probes": 0})
        with caplog.at_level("WARNING", logger="slv.manager"):
            assert provider.measure(*self.EDGE, 1, 1.0) is None
        assert "measurement via v1 for target failed: agent rejected request" in caplog.text
        assert counting_agent.wait_closed(1)
        assert idle_connections(pool) == {}

        monkeypatch.undo()
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        assert counting_agent.accepted == 2
        pool.close()

    def test_close_closes_every_idle_connection(
        self, counting_agent, tcp_listener, monkeypatch
    ):
        answer_in_pairs(monkeypatch)
        pool = AgentPool()
        provider = pooled_provider(counting_agent, pool, tcp_listener.address)
        assert None not in provider.measure_edges([self.EDGE] * 2, 1, 1.0)
        assert counting_agent.accepted == 2
        assert counting_agent.closed == 0

        pool.close()
        assert counting_agent.wait_closed(2)
        monkeypatch.undo()
        assert provider.measure(*self.EDGE, 1, 1.0) is not None
        assert counting_agent.accepted == 3
        pool.close()


def live_registry(tmp_path, ports):
    """The triangle of REGISTRY_ROWS, with its agents on loopback ports."""
    rows = [(f"127.0.0.1:{port}", lat, lon) for port, (_, lat, lon) in zip(ports, REGISTRY_ROWS)]
    return load_verifier_registry(write_registry(tmp_path, rows))


def verify_live(registry, pool, target, cfg):
    provider = LiveDelayProvider(registry, target[0], target[1], pool)
    layout = VerifierLayout(registry.verifier_inputs())
    return verify_location(IPInfo("127.0.0.1", INSIDE), layout, provider, cfg, NOW)


def idle_connections(pool) -> dict:
    return {vid: len(conns) for vid, conns in pool._idle.items() if conns}


def on_handshake(monkeypatch, record) -> None:
    """Call record(conn) whenever an AgentConnection is about to begin a
    handshake: when open() finds no connection open. An exception that
    record raises comes out of open() in its place."""
    open_ = AgentConnection.open

    def opening(conn):
        if conn._sock is None:
            record(conn)
        open_(conn)

    monkeypatch.setattr(AgentConnection, "open", opening)


@pytest.fixture
def three_agents():
    agents = [CountingAgent() for _ in range(3)]
    for agent in agents:
        agent.serve_in_background()
    yield agents
    for agent in agents:
        agent.kill()


class _HungAgentHandler(socketserver.StreamRequestHandler):
    """Reads a request and never answers it; counts the requests, and the
    connections that the manager then closes."""

    def handle(self):
        if self.rfile.readline():
            with self.server.lock:
                self.server.requests += 1
            self.rfile.readline()  # returns at EOF: the manager closed
            with self.server.lock:
                self.server.closed += 1


class TestLiveFanOut:
    # A last-mile correction far above any loopback probe, so that a probe
    # slowed past 5 ms by a busy host cannot reject the triangle: these
    # tests are about the wire, not the verdict.
    CFG = VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0, lambda_ms=100.0)

    def test_nine_requests_in_flight_together_from_the_verifying_thread(
        self, three_agents, tcp_listener, tmp_path, monkeypatch
    ):
        registry = live_registry(tmp_path, [a.bound_address[1] for a in three_agents])
        pool = AgentPool()
        # the first verification leaves one idle connection per edge
        assert verify_live(registry, pool, tcp_listener.address, self.CFG).veri_passed is True
        assert idle_connections(pool) == {"v1": 3, "v2": 3, "v3": 3}

        wire = []
        handle = slv.agent.handle_measure_request
        monkeypatch.setattr(slv.agent, "handle_measure_request",
                            lambda req: wire.append(req) or handle(req))
        # each request makes one probe connect, and the barrier opens only
        # if all 9 requests are being handled at once
        in_flight = threading.Barrier(9, timeout=5.0)
        connect = slv.agent._tcp_connect_ms

        def together(address, timeout):
            in_flight.wait()
            return connect(address, timeout)

        monkeypatch.setattr(slv.agent, "_tcp_connect_ms", together)
        verifying = threading.current_thread()
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            if threading.current_thread() is verifying:
                started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        try:
            result = verify_live(registry, pool, tcp_listener.address, self.CFG)
        finally:
            monkeypatch.undo()
            pool.close()
        assert result.veri_passed is True
        assert len(wire) == 9
        assert started == []
        # a peer probe's connect completes before the probed agent's loop
        # counts it, so wait for the count to settle
        deadline = time.monotonic() + 5.0
        while sum(a.accepted for a in three_agents) < 9 + 2 * 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(a.accepted for a in three_agents) == 9 + 2 * 6  # pool, then peer probes

    def test_hung_agent_costs_one_reply_deadline(
        self, three_agents, tcp_listener, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(slv.agent, "REPLY_HEADROOM_S", 0.5)
        budget = 1 * (0.5 + slv.agent.PROBE_SPACING_S) + 0.5
        hung = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _HungAgentHandler)
        hung.daemon_threads = True
        hung.lock, hung.requests, hung.closed = threading.Lock(), 0, 0
        threading.Thread(target=hung.serve_forever, daemon=True).start()
        ports = [hung.server_address[1]] + [a.bound_address[1] for a in three_agents[1:]]
        registry = live_registry(tmp_path, ports)
        pool = AgentPool()
        cfg = VerifyConfig(probes_per_measurement=1, measurement_timeout=0.5)
        try:
            began = time.monotonic()
            result = verify_live(registry, pool, tcp_listener.address, cfg)
            elapsed = time.monotonic() - began
            deadline = time.monotonic() + 5.0
            while hung.closed < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert result.reason is Reason.MEASUREMENT_FAILURE
            # one deadline for the triangle; one per edge of v1 would be 3
            assert budget <= elapsed < 2 * budget
            assert (hung.requests, hung.closed) == (3, 3)
            assert idle_connections(pool) == {"v2": 3, "v3": 3}
        finally:
            pool.close()
            hung.shutdown()
            hung.server_close()


    def test_cold_pool_begins_every_handshake_before_it_waits_for_one(
        self, three_agents, tcp_listener, tmp_path, monkeypatch
    ):
        registry = live_registry(tmp_path, [a.bound_address[1] for a in three_agents])
        pool = AgentPool()
        steps = []
        on_handshake(monkeypatch, lambda conn: steps.append("connect"))
        send = AgentConnection.send
        monkeypatch.setattr(AgentConnection, "send", lambda conn, req, deadline: (
            steps.append("write") or send(conn, req, deadline)))
        try:
            assert verify_live(registry, pool, tcp_listener.address, self.CFG).veri_passed is True
        finally:
            pool.close()
        # so a cold triangle waits about one handshake, not one per edge
        assert steps == ["connect"] * 9 + ["write"] * 9

    def test_agent_whose_connect_fails_is_tried_once_per_triangle(
        self, three_agents, tcp_listener, tmp_path, monkeypatch, caplog
    ):
        registry = live_registry(tmp_path, [a.bound_address[1] for a in three_agents])
        dead = registry.by_id("v2")
        attempts = []

        def refusing(conn):
            attempts.append(conn._address)
            if conn._address == (dead.host, dead.port):
                raise ConnectionRefusedError("refused")

        on_handshake(monkeypatch, refusing)
        wire = []
        handle = slv.agent.handle_measure_request
        monkeypatch.setattr(slv.agent, "handle_measure_request",
                            lambda req: wire.append(req) or handle(req))
        pool = AgentPool()
        try:
            with caplog.at_level("WARNING", logger="slv.manager"):
                result = verify_live(registry, pool, tcp_listener.address, self.CFG)
            idle = idle_connections(pool)
        finally:
            pool.close()
        assert result.reason is Reason.MEASUREMENT_FAILURE
        assert attempts.count((dead.host, dead.port)) == 1
        # v2's first connection fails to open, so no request goes out
        assert wire == []
        assert idle == {}
        assert caplog.text.count("measurement via") == 1
        assert "measurement via v2 for target failed: refused" in caplog.text

    def test_silent_agent_costs_one_connect_timeout(
        self, three_agents, tcp_listener, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setattr(slv.agent, "CONNECT_TIMEOUT_S", 0.3)
        # A listener whose backlog is full drops further SYNs unanswered,
        # as a host behind a dropping firewall does.
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(0)
        filler = socket.create_connection(silent.getsockname())
        ports = [three_agents[0].bound_address[1], silent.getsockname()[1],
                 three_agents[2].bound_address[1]]
        registry = live_registry(tmp_path, ports)
        pool = AgentPool()
        # v1's probes of v2 then time out well before v2's connections do
        cfg = VerifyConfig(probes_per_measurement=1, measurement_timeout=0.1)
        try:
            began = time.monotonic()
            with caplog.at_level("WARNING", logger="slv.manager"):
                result = verify_live(registry, pool, tcp_listener.address, cfg)
            elapsed = time.monotonic() - began
            assert result.reason is Reason.MEASUREMENT_FAILURE
            assert ("measurement via v2 for target failed: "
                    "timed out connecting to the agent") in caplog.text
            # the send on v2's first connection waits out the timeout once,
            # and the triangle's sending stops there
            assert 0.3 <= elapsed < 0.6
            # v1's requests went out before v2's first and were answered
            assert idle_connections(pool) == {"v1": 3}
        finally:
            pool.close()
            filler.close()
            silent.close()

    def test_failed_send_keeps_the_other_agents_idle_connections(
        self, three_agents, tcp_listener, tmp_path, monkeypatch
    ):
        registry = live_registry(tmp_path, [a.bound_address[1] for a in three_agents])
        v3 = registry.by_id("v3")
        pool = AgentPool()
        provider = LiveDelayProvider(registry, *tcp_listener.address, pool)
        edges = [(v, e) for v in ("v1", "v2", "v3")
                 for e in (TARGET,) + tuple(w for w in ("v1", "v2", "v3") if w != v)]
        opened = []
        on_handshake(monkeypatch, lambda conn: opened.append(conn._address))
        try:
            assert None not in provider.measure_edges(edges, 1, 1.0)
            assert idle_connections(pool) == {"v1": 3, "v2": 3, "v3": 3}
            three_agents[1].kill()
            # The first triangle's take() finds v2's pooled connections
            # closed by the agent and drops them, and every triangle then
            # opens new ones. v2's port refuses, so v2's first request
            # cannot be sent, and v3's after it are not sent: v3's
            # connections stay warm all the same.
            for _ in range(3):
                del opened[:]
                assert provider.measure_edges(edges, 1, 1.0)[3:6] == [None] * 3
                assert idle_connections(pool) == {"v1": 3, "v3": 3}
                assert (v3.host, v3.port) not in opened
        finally:
            pool.close()

    def test_a_verification_sends_each_distinct_edge_it_walks_once(
        self, tcp_listener, tmp_path, monkeypatch
    ):
        agents = [WireCountingAgent() for _ in range(4)]
        for agent in agents:
            agent.serve_in_background()
        locs = [(10.0, 0.0), (-10.0, 10.0), (-10.0, -10.0), (25.0, 0.0)]
        rows = [(f"127.0.0.1:{a.bound_address[1]}", lat, lon) for a, (lat, lon) in zip(agents, locs)]
        registry = load_verifier_registry(write_registry(tmp_path, rows))
        cfg = VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0, lambda_ms=5.0)
        triangles = enumerate_triangles(
            VerifierLayout(registry.verifier_inputs()), INSIDE, cfg.max_triangles)
        assert len(triangles) >= 2
        walked = {(v, e) for ids in triangles for v in ids for e in (TARGET, *ids) if e != v}
        # every target connect reads 50 ms over its loopback time, so each
        # triangle rejects and the verification walks all it finds
        connect = slv.agent._tcp_connect_ms

        def inflated(address, timeout):
            ms = connect(address, timeout)
            return ms + 50.0 if tuple(address) == tcp_listener.address else ms

        monkeypatch.setattr(slv.agent, "_tcp_connect_ms", inflated)
        pool = AgentPool()
        try:
            result = verify_live(registry, pool, tcp_listener.address, cfg)
        finally:
            pool.close()
            for agent in agents:
                agent.kill()
        assert result.reason is Reason.ALL_TRIANGLES_REJECTED
        sent = [(f"v{i}", e) for i, agent in enumerate(agents, 1) for e in agent.wire]
        # one wire request per distinct edge, not 9 per triangle
        assert sorted(sent) == sorted(walked)
        assert len(sent) < 9 * len(triangles)


def test_service_close_closes_pooled_agent_connections(counting_agent, tcp_listener, tmp_path):
    port = counting_agent.bound_address[1]
    rows = [(f"127.0.0.1:{port}", lat, lon) for _, lat, lon in REGISTRY_ROWS]
    table = tmp_path / "table.csv"
    table.write_text("127.0.0.0/8,0.0,0.0\n")
    config = tmp_path / "manager.json"
    config.write_text(json.dumps({
        "registry": str(write_registry(tmp_path, rows)),
        "locator": {"provider": "static_table", "path": str(table)},
        "target_port": tcp_listener.address[1],
        "probes_per_measurement": 1,
        "measurement_timeout": 1.0,
    }))
    service = ManagerService.from_config(ManagerConfig.from_file(config))
    service.handle_verify_request("127.0.0.1")
    # the agent also counts the probe connects aimed at it as peer
    assert counting_agent.accepted - counting_agent.closed >= 1
    service.close()
    assert counting_agent.wait_closed(counting_agent.accepted)


@pytest.mark.skipif(not binds_ipv6_loopback(), reason="this host cannot bind ::1")
def test_verification_through_ipv6_agents_and_front_end(tcp_listener, tmp_path):
    agents = []
    pool = AgentPool()
    server = None
    try:
        for _ in range(3):
            agents.append(AgentServer("::1", 0, default_probes=1, default_timeout=1.0))
            agents[-1].serve_in_background()
        rows = [(f"[::1]:{agent.bound_address[1]}", lat, lon)
                for agent, (_, lat, lon) in zip(agents, REGISTRY_ROWS)]
        registry = load_verifier_registry(write_registry(tmp_path, rows))
        assert {record.host for record in registry.entries} == {"::1"}
        service = ManagerService(
            registry, FixedLocator({"127.0.0.1": INSIDE}),
            lambda ip: LiveDelayProvider(registry, ip, tcp_listener.address[1], pool),
            ManagerConfig(registry_path="x", verify=TestLiveFanOut.CFG), pool=pool,
        )
        server = ManagerHTTPServer(service, "::1", 0)
        server.serve_in_background()
        url = f"http://[::1]:{server.bound_address[1]}/verify?ip=127.0.0.1"
        with urllib.request.urlopen(url, timeout=10) as resp:
            body = json.loads(resp.read())
        assert body["veri_passed"] is True
        assert idle_connections(pool) == {"v1": 3, "v2": 3, "v3": 3}
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        pool.close()
        for agent in agents:
            agent.shutdown()
            agent.server_close()
