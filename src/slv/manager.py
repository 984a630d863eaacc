"""Verification manager: assertion lookup, result cache, measurement
orchestration and the HTTP query API.

The manager resolves an IP address to its asserted location, answers from
its TTL cache when the assertion has not moved, and otherwise drives the
verification engine against live verifier agents.
"""

from __future__ import annotations

import ipaddress
import json
import logging
import queue
import re
import socket
import socketserver
import sqlite3
import string
import threading
import time
from array import array
from bisect import bisect_left
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta
from http import HTTPStatus
from typing import Iterable, Iterator, Optional, Protocol, Sequence
from urllib.parse import parse_qs, urlsplit

from .agent import (
    DEFAULT_AGENT_PORT,
    AgentConnection,
    MeasureRequest,
    PeerSpec,
    ProtocolError,
    _RECV_SIZE,
    _close_after_error,
    _Daemon,
    new_request_id,
    reply_deadline,
)
from .geo import Circle, Location, _checked_number, great_circle_distance
from .verify import (
    TARGET,
    DelayProvider,
    IPInfo,
    Reason,
    VerificationResult,
    VerifierLayout,
    VerifyConfig,
    _checked_bool,
    _checked_keys,
    _checked_text,
    format_timestamp,
    parse_timestamp,
    utc_now,
    verify_location,
)

log = logging.getLogger(__name__)

DEFAULT_API_PORT = 7700

# A cached assertion within this distance of the fresh one counts as
# unchanged; exact float equality would be brittle against provider jitter.
CACHE_LOC_TOLERANCE_KM = 1.0

# sqlite page cache of a VerificationCache file, in pages.
_SQLITE_CACHE_PAGES = 16

# HTTP front end. A request head (request line plus headers) over
# HEAD_LIMIT bytes is refused; a client that has not sent its whole head
# IDLE_TIMEOUT_S after connecting is dropped; at most MAX_IDLE_HANDLERS
# handler threads wait for a connection.
HEAD_LIMIT = 8192
IDLE_TIMEOUT_S = 5.0
MAX_IDLE_HANDLERS = 16
_SERVER = b"slv-manager/0.1"
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_VERSIONS = (b"HTTP/1.0", b"HTTP/1.1")
_PHRASES = {s: HTTPStatus(s).phrase.encode() for s in (200, 400, 404, 405, 431, 500, 502)}
_DAYS = b"Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = b"Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


class ParseError(ValueError):
    """A registry or lookup-table row cannot be parsed."""

    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class InsufficientVerifiersError(ValueError):
    """Fewer than 3 verifiers are available."""


class InvalidAddressError(ValueError):
    """A string is not an IPv4 or IPv6 address."""


class UnknownAddressError(LookupError):
    """No location assertion is available for an address."""


class ProviderUnavailableError(RuntimeError):
    """The assertion provider could not be reached."""


@dataclass(frozen=True)
class VerifierRecord:
    """One registry row: agent endpoint plus verifier position."""

    verifier_id: str
    host: str
    port: int
    loc: Location


@dataclass
class VerifierRegistry:
    entries: list[VerifierRecord]

    def __len__(self) -> int:
        return len(self.entries)

    def by_id(self, verifier_id: str) -> VerifierRecord:
        for record in self.entries:
            if record.verifier_id == verifier_id:
                return record
        raise KeyError(verifier_id)

    def verifier_inputs(self) -> list[tuple[str, Location]]:
        return [(record.verifier_id, record.loc) for record in self.entries]


def _split_hostport(text: str, default_port: int) -> tuple[str, int]:
    """Parse `ip`, `ip:port`, `[v6]` or `[v6]:port`; a bare IPv6 keeps its
    colons. Raises ValueError on a `[` without `]`, on brackets around a
    host with no colon, on anything after `]` but `:port`, and on a port
    that is not ASCII digits."""
    text = text.strip()
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or ":" not in host or rest[:1] not in ("", ":"):
            raise ValueError(f"expected [v6] or [v6]:port, got {text!r}")
        if not rest:
            return host, default_port
        port_text = rest[1:]
    elif text.count(":") == 1:
        host, _, port_text = text.partition(":")
    else:
        return text, default_port
    if not (port_text.isascii() and port_text.isdigit()):
        raise ValueError(f"port must be ASCII digits, got {port_text!r}")
    return host, int(port_text)


def _located_rows(path) -> Iterator[tuple[int, str, Location]]:
    """(line number, first field, location) of each `key,lat,lon` row of a
    text file, the first field unparsed; blank lines and lines starting
    with # are skipped.

    Raises:
        ParseError: on a row without 3 fields or with a bad location,
            naming the line number.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 3:
                raise ParseError(path, line_no, f"expected 3 fields, got {len(parts)}")
            try:
                loc = Location(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            yield line_no, parts[0], loc


def load_verifier_registry(path, default_port: int = DEFAULT_AGENT_PORT) -> VerifierRegistry:
    """Load verifiers from a CSV file with one `address,lat,lon` row each.

    Blank lines and #-comments are skipped and ids are assigned v1, v2,
    ... in row order. The address is an IP, optionally with an agent port
    (`ip:port`, 1-65535); rows without a port use `default_port`.

    Raises:
        ParseError: on a malformed row, naming the line number.
        InsufficientVerifiersError: with fewer than 3 rows.
    """
    entries: list[VerifierRecord] = []
    for line_no, address, loc in _located_rows(path):
        try:
            host, port = _split_hostport(address, default_port)
            if not 1 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")
            ipaddress.ip_address(host)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        entries.append(
            VerifierRecord(verifier_id=f"v{len(entries) + 1}", host=host, port=port, loc=loc)
        )
    if len(entries) < 3:
        raise InsufficientVerifiersError(
            f"registry {path} has {len(entries)} verifiers, need at least 3"
        )
    return VerifierRegistry(entries)


class Locator(Protocol):
    """Source of (unverified) location assertions for IP addresses."""

    def locate(self, ip: str) -> Location: ...


class StaticTableLocator:
    """CIDR-to-coordinates table answering by longest prefix match.

    The rows are packed once into one table per (IP version, prefix
    length): the networks' leading prefix-length bits, sorted, in an
    `array('Q')` (a list for IPv6 prefixes over /64, whose keys need more
    than 64 bits), and each row's latitude and longitude in an
    `array('d')`, about 25 bytes per row. A lookup bisects the tables of
    the address's own version, longest prefix first, so it costs at most
    one O(log n) search per distinct prefix length present, and builds
    the row's `Location`. Address families never cross-match: an
    IPv4-mapped IPv6 address does not match IPv4 rows. Of duplicate
    CIDRs the first row wins.
    """

    def __init__(self, rows: list[tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, Location]]):
        self._probes = _packed_tables(
            (*_network_key(network), loc.lat, loc.lon) for network, loc in rows)

    @classmethod
    def from_file(cls, path) -> "StaticTableLocator":
        """Load `cidr,lat,lon` rows; blank lines and #-comments are skipped.
        Rows are packed as they are read, with no per-row object kept."""

        def keyed_rows():
            for line_no, cidr, loc in _located_rows(path):
                try:
                    key = _network_key(ipaddress.ip_network(cidr))
                except ValueError as exc:
                    raise ParseError(path, line_no, str(exc)) from exc
                yield (*key, loc.lat, loc.lon)

        locator = cls.__new__(cls)
        locator._probes = _packed_tables(keyed_rows())
        return locator

    def locate(self, ip: str) -> Location:
        address = ipaddress.ip_address(ip)
        value = int(address)
        for shift, keys, coords in self._probes[address.version]:
            key = value >> shift
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                return Location(coords[2 * i], coords[2 * i + 1])
        raise UnknownAddressError(f"no assertion available for {ip}")


def _network_key(network: ipaddress.IPv4Network | ipaddress.IPv6Network) -> tuple[int, int, int]:
    """(version, host-bit count, prefix) of a network. Its address is
    masked, so shifting out the host bits leaves exactly the prefix."""
    shift = network.max_prefixlen - network.prefixlen
    return network.version, shift, int(network.network_address) >> shift


_Table = tuple[int, array | list[int], array]  # (shift, sorted keys, lat/lon pairs)


def _packed_tables(keyed: Iterable[tuple[int, int, int, float, float]]) -> dict[int, list[_Table]]:
    """Per IP version, the table of each host-bit count, by ascending shift:
    longest prefix first. keyed yields (version, shift, key, lat, lon)
    rows; a stable sort keeps the first of equal keys."""
    tables: dict[tuple[int, int], tuple[array | list[int], array]] = {}
    for version, shift, key, lat, lon in keyed:
        table = tables.get((version, shift))
        if table is None:
            table = tables[version, shift] = (_key_store(version, shift), array("d"))
        table[0].append(key)
        table[1].append(lat)
        table[1].append(lon)
    probes: dict[int, list[_Table]] = {4: [], 6: []}
    for (version, shift), (keys, coords) in sorted(tables.items()):
        packed_keys, packed_coords = _key_store(version, shift), array("d")
        last = None
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            if keys[i] != last:
                last = keys[i]
                packed_keys.append(last)
                packed_coords.append(coords[2 * i])
                packed_coords.append(coords[2 * i + 1])
        probes[version].append((shift, packed_keys, packed_coords))
    return probes


def _key_store(version: int, shift: int) -> array | list[int]:
    """An array('Q') for keys of at most 64 bits, else a list."""
    return array("Q") if version == 4 or shift >= 64 else []


class HttpLocator:
    """Fetches assertions from a JSON geolocation endpoint.

    The URL template must be an http or https URL that contains `{ip}`
    and no other placeholder; the response body must be UTF-8 JSON, an
    object with numeric `lat` and `lon` fields. An HTTP 404 means the
    address is unknown; any other failure means the provider is
    unavailable, never a silent fallback.
    """

    def __init__(self, url_template: str, timeout: float = 5.0) -> None:
        try:
            names = {f[1:] for f in string.Formatter().parse(url_template) if f[1] is not None}
            scheme = urlsplit(url_template).scheme
        except ValueError as exc:  # an unbalanced brace or bracket
            raise ValueError(f"url_template {url_template!r}: {exc}") from None
        if names != {("ip", "", None)}:
            raise ValueError(
                f"url_template {url_template!r} must contain {{ip}} and no other placeholder")
        if scheme not in ("http", "https"):  # urlsplit lowers the scheme
            raise ValueError(f"url_template {url_template!r} must be an http or https URL")
        self._url_template = url_template
        self._timeout = timeout

    def locate(self, ip: str) -> Location:
        ipaddress.ip_address(ip)
        url = self._url_template.format(ip=ip)
        # loaded on first use: only this locator needs the HTTP client
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(url, timeout=self._timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise UnknownAddressError(f"no assertion available for {ip}") from exc
            raise ProviderUnavailableError(f"assertion provider failed: {exc}") from exc
        except (OSError, ValueError) as exc:  # URLError; bad JSON or bad UTF-8
            raise ProviderUnavailableError(f"assertion provider failed: {exc}") from exc
        try:
            return Location(body["lat"], body["lon"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailableError(
                f"assertion provider returned an unusable body for {ip}: {exc}"
            ) from exc


@dataclass(slots=True)
class CacheEntry:
    """Cached verification for one IP address.

    Usable until expires_at and only while the fresh assertion stays
    within CACHE_LOC_TOLERANCE_KM of asserted_loc. The reason is kept so a
    cache hit reproduces the original result exactly. That result is kept
    once built, so later hits return it without parsing the address
    again: an entry made by of() keeps the verification's own result, and
    one loaded from disk builds it on its first hit. Entries are not
    changed once made.
    """

    ip: str
    asserted_loc: Location
    when_veri: datetime
    veri_passed: bool
    region: Optional[Circle]
    expires_at: datetime
    reason: Optional[Reason] = None
    _result: Optional[VerificationResult] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def of(cls, result: VerificationResult, expires_at: datetime) -> "CacheEntry":
        """The entry for a fresh verification result, holding that result."""
        entry = cls(
            ip=result.ip.value,
            asserted_loc=result.ip.loc,
            when_veri=result.when_veri,
            veri_passed=result.veri_passed,
            region=result.region,
            expires_at=expires_at,
            reason=result.reason,
        )
        entry._result = result
        return entry

    def to_result(self) -> VerificationResult:
        if self._result is None:
            self._result = VerificationResult(
                ip=IPInfo(value=self.ip, loc=self.asserted_loc),
                veri_passed=self.veri_passed,
                region=self.region,
                when_veri=self.when_veri,
                reason=self.reason,
            )
        return self._result

    def to_dict(self) -> dict:
        return {
            "ip": self.ip,
            "asserted_loc": self.asserted_loc.to_dict(),
            "when_veri": format_timestamp(self.when_veri),
            "veri_passed": self.veri_passed,
            "region": self.region.to_dict() if self.region else None,
            "expires_at": format_timestamp(self.expires_at),
            "reason": self.reason.value if self.reason else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheEntry":
        return cls(
            ip=_checked_text("ip", data["ip"]),
            asserted_loc=Location.from_dict(data["asserted_loc"]),
            when_veri=parse_timestamp(data["when_veri"]),
            veri_passed=_checked_bool("veri_passed", data["veri_passed"]),
            region=Circle.from_dict(data["region"]) if data.get("region") else None,
            expires_at=parse_timestamp(data["expires_at"]),
            reason=Reason(data["reason"]) if data.get("reason") else None,
        )


class VerificationCache:
    """TTL cache of verification results keyed by IP address.

    An in-memory map serves reads; when a path is given every write also
    lands in a sqlite file, so a restarted manager starts warm. Rows that
    have expired by then are not loaded but deleted from the file. `_lock`
    guards the map and is held only briefly. Writes are serialized by
    `_write_lock`, held through the sqlite commit, so the map and the file
    see puts in the same order, and a read never waits on the disk. A row
    that cannot be read closes the file and stops the start. As every read
    is served from the map, sqlite keeps a page cache of only
    `_SQLITE_CACHE_PAGES` pages, not its default 2 MiB, which would hold
    the start-up scan's pages for the life of the process.
    """

    def __init__(self, path=None) -> None:
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        self._db: Optional[sqlite3.Connection] = None
        if path is not None:
            self._db = sqlite3.connect(str(path), check_same_thread=False)
            try:
                self._db.execute(f"PRAGMA cache_size = {_SQLITE_CACHE_PAGES}")
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS verifications (ip TEXT PRIMARY KEY, data TEXT NOT NULL)"
                )
                now = utc_now()
                expired = []
                for (blob,) in self._db.execute("SELECT data FROM verifications"):
                    entry = CacheEntry.from_dict(json.loads(blob))
                    if entry.expires_at <= now:
                        expired.append((entry.ip,))
                    else:
                        self._entries[entry.ip] = entry
                self._db.executemany("DELETE FROM verifications WHERE ip = ?", expired)
                self._db.commit()
            except BaseException:  # a refused row: close the file before raising
                self._db.close()
                raise

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, ip: str, now: datetime) -> Optional[CacheEntry]:
        """The entry for ip, or None when absent or expired."""
        with self._lock:
            entry = self._entries.get(ip)
            if entry is None or entry.expires_at <= now:
                return None
            return entry

    def put(self, entry: CacheEntry) -> None:
        """Store entry; returns once it is committed to sqlite, if any."""
        with self._write_lock:
            with self._lock:
                self._entries[entry.ip] = entry
            if self._db is not None:
                self._db.execute(
                    "INSERT OR REPLACE INTO verifications (ip, data) VALUES (?, ?)",
                    (entry.ip, json.dumps(entry.to_dict())),
                )
                self._db.commit()

    def evict_expired(self, now: datetime) -> int:
        """Drop every entry with expires_at <= now; returns how many went."""
        with self._write_lock:
            with self._lock:
                stale = [ip for ip, entry in self._entries.items() if entry.expires_at <= now]
                for ip in stale:
                    del self._entries[ip]
            if self._db is not None and stale:
                self._db.executemany(
                    "DELETE FROM verifications WHERE ip = ?", [(ip,) for ip in stale]
                )
                self._db.commit()
            return len(stale)

    def close(self) -> None:
        with self._write_lock:
            if self._db is not None:
                self._db.close()
                self._db = None


@dataclass(frozen=True)
class LocatorConfig:
    """Assertion provider selection: a CIDR table file or an HTTP service."""

    provider: str = "static_table"
    path: Optional[str] = None
    url_template: Optional[str] = None
    timeout: float = 5.0

    def __post_init__(self) -> None:
        _checked_number("locator timeout", self.timeout, 0, above=True)

    def build(self) -> Locator:
        if self.provider == "static_table":
            if not self.path:
                raise ValueError("static_table locator needs a path")
            return StaticTableLocator.from_file(self.path)
        if self.provider == "http_service":
            if not self.url_template:
                raise ValueError("http_service locator needs a url_template")
            return HttpLocator(self.url_template, timeout=self.timeout)
        raise ValueError(f"unknown locator provider: {self.provider!r}")


@dataclass
class ManagerConfig:
    """Manager settings; see ManagerConfig.from_file for the JSON keys."""

    registry_path: str = "verifiers.csv"
    cache_ttl: float = 4 * 3600.0
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    locator: LocatorConfig = field(default_factory=LocatorConfig)
    agent_port: int = DEFAULT_AGENT_PORT
    target_port: int = 80
    listen_host: str = "127.0.0.1"
    listen_port: int = DEFAULT_API_PORT
    cache_path: Optional[str] = None

    def __post_init__(self) -> None:
        _checked_number("cache_ttl", self.cache_ttl, 0, above=True)
        # open() takes an integer as a file descriptor, so paths must be strings
        if not all(isinstance(v, str) for v in (self.registry_path, self.listen_host)) or not (
            self.cache_path is None or isinstance(self.cache_path, str)
        ):
            raise ValueError("registry, listen_host and cache_path must be strings")
        # listen_port 0 asks the system for a free port
        for name, low in (("agent_port", 1), ("target_port", 1), ("listen_port", 0)):
            _checked_number(name, getattr(self, name), low, 65535, integer=True)

    @classmethod
    def from_file(cls, path) -> "ManagerConfig":
        """Load a JSON config; a key left out keeps its default.

        Top-level keys (all optional except registry): registry, cache_ttl
        (seconds), lambda_ms, probes_per_measurement, max_triangles,
        measurement_timeout (seconds), locator {provider, path,
        url_template, timeout}, agent_port, target_port, listen_host,
        listen_port, cache_path.

        Raises:
            ValueError: naming the file, when it is not such a JSON object,
                holds an invalid value or a key not listed above (naming
                the key).
        """
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            locator = data.get("locator", {}) if isinstance(data, dict) else None
            if not isinstance(locator, dict):
                raise TypeError("expected a JSON object, with an object as its locator")
            _checked_keys("the config", data, {
                "registry", "locator", *_PLAIN_KEYS, *(f.name for f in fields(VerifyConfig)),
            })
            _checked_keys("locator", locator, {f.name for f in fields(LocatorConfig)})
            return cls(
                registry_path=data["registry"],
                verify=VerifyConfig.from_dict(data),
                locator=LocatorConfig(**{
                    f.name: locator[f.name] for f in fields(LocatorConfig) if f.name in locator
                }),
                **{key: data[key] for key in _PLAIN_KEYS if key in data},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc


# The top-level keys of a manager config file that set the ManagerConfig
# field of the same name; the others are registry, locator and the keys of
# VerifyConfig.
_PLAIN_KEYS = tuple(
    f.name for f in fields(ManagerConfig) if f.name not in ("registry_path", "verify", "locator")
)


class AgentPool:
    """Persistent agent connections, shared across verifications.

    A connection carries one request at a time, so an agent gets several:
    take() hands out an idle connection of an agent or opens a new one, and
    give_back() returns it, whatever became of its request. The connections
    per agent are therefore bounded by the peak number of requests in
    flight to it. A pooled connection that its agent closed or reset while
    it sat idle is caught in take(), before any request is written on it.
    One that the agent lost unseen fails the request it carries, which
    LiveDelayProvider.measure_edges then sends once more on a new one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[str, list[AgentConnection]] = {}
        self._closed = False

    def take(self, record: VerifierRecord) -> AgentConnection:
        """A connection to the record's agent for the caller alone: an idle
        one, or a new one that connects on its first open or send. Closes
        the pooled connections that are no longer idle on the way, as the
        agent has closed or reset them."""
        while True:
            with self._lock:
                idle = self._idle.get(record.verifier_id)
                conn = idle.pop() if idle else None
            if conn is None:
                return AgentConnection(record.host, record.port)
            if conn.idle:
                return conn
            conn.close()

    def give_back(self, record: VerifierRecord, conn: AgentConnection) -> None:
        """Keep conn for the next take() when it is idle (open, handshake
        done, no reply outstanding, not closed by the agent) and the pool
        is open; close it otherwise. The pool alone keeps or closes a
        connection: here, and in take() for one the agent closed while it
        was pooled."""
        if conn.idle:
            with self._lock:
                if not self._closed:
                    self._idle.setdefault(record.verifier_id, []).append(conn)
                    return
        conn.close()

    def close(self) -> None:
        """Close every idle connection; one in use is closed when it is
        given back."""
        with self._lock:
            self._closed = True
            for idle in self._idle.values():
                for conn in idle:
                    conn.close()
            self._idle.clear()


class LiveDelayProvider(DelayProvider):
    """DelayProvider that instructs verifier agents over the wire.

    One instance per verification target. Each edge is one wire request:
    peer endpoints are measured against the peer agent's own listener (a
    guaranteed listener), targets against the configured target port.
    Failures surface as None, as the engine expects.
    """

    def __init__(
        self, registry: VerifierRegistry, target_host: str, target_port: int, pool: AgentPool
    ) -> None:
        self._registry = registry
        self._target = (target_host, target_port)
        self._pool = pool

    def measure(
        self, verifier_id: str, endpoint_id: str, probes: int, timeout: float
    ) -> Optional[float]:
        return self.measure_edges([(verifier_id, endpoint_id)], probes, timeout)[0]

    def measure_edges(
        self, edges: Sequence[tuple[str, str]], probes: int, timeout: float
    ) -> list[Optional[float]]:
        """Every edge at once, from the calling thread: one request per edge
        on a pooled connection of its own. The engine passes only the edges
        of a triangle that its verification has not measured yet, so a
        verification sends one request per distinct edge it walks. The
        connections not yet open all begin their handshakes first; then
        every request is sent before any reply is read, and the replies
        are read in order by one deadline, that of a single request. A
        failed edge is None. A request that cannot be sent ends the
        sending: the edges after it are None too, as the engine gives up a
        triangle with any failed edge (and asks for an unsent edge again
        when a later triangle needs it). Every connection goes back to the
        pool, which keeps the idle ones, so a failed send costs no other
        edge's warm connection.

        A pooled connection passed take()'s check, yet its agent may have
        lost it unseen: a host that crashed or rebooted, a middlebox that
        dropped its state and resets the next packet. The request written
        on it then fails by a reset or the end of the stream before any
        reply, and its edge is asked once more, on a new connection, by
        the same deadline. Any other failure is final."""
        requests = []
        for verifier_id, endpoint_id in edges:
            if endpoint_id == TARGET:
                target, peers = self._target, ()
            else:
                peer = self._registry.by_id(endpoint_id)
                target, peers = None, (PeerSpec(endpoint_id, peer.host, peer.port),)
            requests.append((self._registry.by_id(verifier_id), MeasureRequest(
                request_id=new_request_id(), target=target, peers=peers,
                probes=probes, timeout=timeout,
            )))
        deadline = reply_deadline(probes, timeout)
        conns = [self._pool.take(r) for r, _ in requests]
        measured: list[Optional[float]] = [None] * len(edges)
        try:
            todo = range(len(edges))
            while todo:
                pooled = {i for i in todo if conns[i].idle}  # none in a second round
                sent, again = 0, []
                try:
                    for i in todo:
                        conns[i].open()
                    for n, i in enumerate(todo):
                        conns[i].send(requests[i][1], deadline)
                        sent = n + 1
                except OSError as exc:  # i is the edge that failed, in either loop
                    log.warning("measurement via %s for %s failed: %s", *edges[i], exc)
                for i in todo[:sent]:
                    try:
                        measured[i] = conns[i].receive(requests[i][1], deadline).rtts.get(edges[i][1])
                    except (OSError, ProtocolError) as exc:
                        if i in pooled and isinstance(exc, ConnectionError):
                            again.append(i)  # receive() closed it; open() opens a new one
                        else:
                            log.warning("measurement via %s for %s failed: %s", *edges[i], exc)
                todo = again
            return measured
        finally:
            for (record, _), conn in zip(requests, conns):
                self._pool.give_back(record, conn)


class ManagerService:
    """Assertion lookup, caching and verification behind one entry point.

    Results (positive and negative alike) are cached per IP for the
    configured TTL and reused while the fresh assertion matches the cached
    one. Concurrent requests for the same uncached IP share a single
    verification run. `pool` is the agent pool its providers share, if
    any; close() closes it together with the cache. Every verification
    searches one VerifierLayout of the registry, built here.
    """

    def __init__(
        self,
        registry: VerifierRegistry,
        locator: Locator,
        provider_factory,
        cfg: Optional[ManagerConfig] = None,
        pool: Optional[AgentPool] = None,
    ) -> None:
        if len(registry) < 3:
            raise InsufficientVerifiersError(
                f"{len(registry)} verifiers registered, need at least 3"
            )
        self._registry = registry
        self._layout = VerifierLayout(registry.verifier_inputs())
        self._locator = locator
        self._provider_factory = provider_factory
        self._cfg = cfg or ManagerConfig()
        self._cache = VerificationCache(self._cfg.cache_path)
        self._pool = pool
        self._flight_lock = threading.Lock()
        self._inflight: dict[str, Future] = {}

    @classmethod
    def from_config(cls, cfg: ManagerConfig) -> "ManagerService":
        registry = load_verifier_registry(cfg.registry_path, default_port=cfg.agent_port)
        pool = AgentPool()

        def provider_factory(target_ip: str) -> LiveDelayProvider:
            return LiveDelayProvider(registry, target_ip, cfg.target_port, pool)

        return cls(registry, cfg.locator.build(), provider_factory, cfg, pool=pool)

    @property
    def registry_size(self) -> int:
        return len(self._registry)

    def close(self) -> None:
        """Close the agent connection pool, if any, and the cache."""
        if self._pool is not None:
            self._pool.close()
        self._cache.close()

    def handle_verify_request(self, ip: str, now: Optional[datetime] = None) -> VerificationResult:
        """Verification result for one IP address, from cache when possible.

        A cached result is returned only while unexpired and while the
        freshly asserted location is within CACHE_LOC_TOLERANCE_KM of the
        cached assertion; otherwise a verification runs and its result
        (positive or negative) replaces the cache entry.

        The address is taken in its canonical form (`2001:DB8:0::1` is
        `2001:db8::1`): the locator, the cache, single-flight and the result
        all see that spelling.

        Raises InvalidAddressError for a syntactically invalid address,
        and lets UnknownAddressError / ProviderUnavailableError from the
        locator through: failing to obtain an assertion is an error, not a
        negative verification.
        """
        try:
            ip = str(ipaddress.ip_address(ip))
        except ValueError as exc:
            raise InvalidAddressError(f"invalid ip address: {ip!r}") from exc
        now = now or utc_now()
        asserted = self._locator.locate(ip)
        cached = self._cache.get(ip, now)
        if cached is not None and (
            great_circle_distance(cached.asserted_loc, asserted) <= CACHE_LOC_TOLERANCE_KM
        ):
            return cached.to_result()
        return self._single_flight(ip, asserted, now)

    def _single_flight(self, ip: str, asserted: Location, now: datetime) -> VerificationResult:
        with self._flight_lock:
            future = self._inflight.get(ip)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[ip] = future
        if not leader:
            return future.result()
        try:
            result = self._run_verification(ip, asserted, now)
            future.set_result(result)
            return result
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._flight_lock:
                self._inflight.pop(ip, None)

    def _run_verification(self, ip: str, asserted: Location, now: datetime) -> VerificationResult:
        provider = self._provider_factory(ip)
        result = verify_location(
            IPInfo(value=ip, loc=asserted),
            self._layout,
            provider,
            self._cfg.verify,
            now,
        )
        self._cache.put(CacheEntry.of(result, now + timedelta(seconds=self._cfg.cache_ttl)))
        return result


def _http_date(second: int) -> bytes:
    """The IMF-fixdate of a Unix time, as in an HTTP Date header: English
    day and month names whatever the locale, and no email package."""
    t = time.gmtime(second)
    return b"%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec)


class _HttpError(Exception):
    """A request the front end answers with an error and then a close."""

    def __init__(self, status: int, message: str, headers: bytes = b"") -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


def _read_head(conn: socket.socket) -> Optional[bytes]:
    """The request head on conn, without its blank line; None when the
    client closes first or has not sent a whole head IDLE_TIMEOUT_S after
    the accept. Raises _HttpError (431) for a head over HEAD_LIMIT bytes.
    """
    buf = b""
    deadline = time.monotonic() + IDLE_TIMEOUT_S
    while True:
        chunk = conn.recv(_RECV_SIZE)
        if not chunk:
            return None
        buf += chunk
        end = _HEAD_END.search(buf)
        if end is not None and end.end() <= HEAD_LIMIT:
            return buf[:end.start()]
        if len(buf) >= HEAD_LIMIT:
            raise _HttpError(431, f"request head over {HEAD_LIMIT} bytes")
        if time.monotonic() > deadline:
            return None


def _parse_head(head: bytes) -> str:
    """The request target. Only a GET without a body passes; anything else
    raises _HttpError."""
    lines = head.split(b"\n")
    parts = lines[0].rstrip(b"\r").split(b" ")
    if len(parts) != 3 or not parts[0] or not parts[1] or parts[2] not in _VERSIONS:
        raise _HttpError(400, "bad request line")
    method, target, _ = parts
    has_body = False
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise _HttpError(400, "bad header line")
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            if not value.isdigit():
                raise _HttpError(400, "bad Content-Length")
            has_body = has_body or int(value) > 0
        elif name == b"transfer-encoding":
            has_body = True
    if method != b"GET":
        raise _HttpError(405, f"method {method.decode('latin-1')} not allowed", b"Allow: GET\r\n")
    if has_body:
        raise _HttpError(400, "request body not accepted")
    return target.decode("latin-1")


class ManagerHTTPServer(_Daemon, socketserver.TCPServer):
    """HTTP front end: GET /verify?ip=<addr> and GET /health.

    The socketserver accept loop hands each connection to an idle handler
    thread, and a new thread starts only when none is idle; a thread that
    finds MAX_IDLE_HANDLERS others idle exits instead of waiting.
    Concurrent connections are not capped, so a cache hit never waits
    behind another connection's verification. A handler reads the request
    head in one pass, answers with one sendall and closes the connection.
    """

    def __init__(self, service: ManagerService, host: str = "127.0.0.1", port: int = DEFAULT_API_PORT):
        self.service = service
        # set before binding: a failed bind calls server_close
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []
        self._closed = False
        self._date = (0, b"")
        # process_request hands connections to _handler threads, so no
        # RequestHandlerClass is used
        super().__init__((host, port), None)

    def process_request(self, request: socket.socket, client_address) -> None:
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is not None:
            inbox.put(request)
        else:
            threading.Thread(target=self._handler, args=(request,), daemon=True).start()

    def server_close(self) -> None:
        """Close the listening socket and end the handler threads: idle
        ones at once, busy ones when their connection ends."""
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)

    def _handler(self, conn: Optional[socket.socket]) -> None:
        """Serve connections until told to stop or no longer needed."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while conn is not None:
            self._serve(conn)
            with self._lock:
                if self._closed or len(self._idle) >= MAX_IDLE_HANDLERS:
                    return
                self._idle.append(inbox)
            conn = inbox.get()

    def _serve(self, conn: socket.socket) -> None:
        """Answer the one request on conn, then close it."""
        try:
            conn.settimeout(IDLE_TIMEOUT_S)
            head = _read_head(conn)
            if head is None:
                return
            status, payload = self._route(_parse_head(head))
            conn.sendall(self._response(status, payload))
            if log.isEnabledFor(logging.DEBUG):
                log.debug("%s %r %d", conn.getpeername()[0], head.split(b"\r\n", 1)[0], status)
        except _HttpError as exc:
            try:
                conn.sendall(self._response(exc.status, {"error": exc.message}, exc.headers))
            except OSError:
                return
            _close_after_error(conn)
        except OSError:  # timed out or reset
            pass
        except Exception:
            log.exception("HTTP connection failed")
        finally:
            self.shutdown_request(conn)

    def _route(self, target: str) -> tuple[int, dict]:
        parts = urlsplit(target)
        if parts.path == "/health":
            return 200, {"status": "ok", "verifiers": self.service.registry_size}
        if parts.path != "/verify":
            return 404, {"error": "not found"}
        values = parse_qs(parts.query).get("ip", [])
        if len(values) != 1 or not values[0]:
            return 400, {"error": "missing ip parameter"}
        try:
            result = self.service.handle_verify_request(values[0])
        except InvalidAddressError as exc:
            return 400, {"error": str(exc)}
        except UnknownAddressError as exc:
            return 404, {"error": str(exc)}
        except ProviderUnavailableError as exc:
            return 502, {"error": str(exc)}
        except Exception as exc:
            log.exception("verification failed")
            return 500, {"error": f"internal error: {exc}"}
        return 200, result.to_dict()

    def _response(self, status: int, payload: dict, headers: bytes = b"") -> bytes:
        body = json.dumps(payload).encode() + b"\n"
        second = int(time.time())
        date = self._date
        if date[0] != second:
            date = self._date = (second, _http_date(second))
        return b"HTTP/1.1 %d %s\r\nDate: %s\r\nServer: %s\r\n" \
            b"Content-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n%s\r\n%s" % (
                status, _PHRASES[status], date[1], _SERVER, len(body), headers, body)
