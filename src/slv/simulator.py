"""Synthetic-network harness for false-accept / false-reject experiments.

Builds delay providers from geography plus an adversary model and feeds
them through the real verification engine, so acceptance behaviour can be
studied deterministically at desk scale.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import Optional

# hashlib's own BLAKE2b class (hashlib builds blake2b only from _blake2),
# without hashlib loading OpenSSL's libcrypto through _hashlib.
from _blake2 import blake2b

from .geo import (
    Location,
    _checked_number,
    destination_point,
    great_circle_distance,
    min_rtt_for_distance,
)
from .verify import (
    TARGET,
    DelayProvider,
    IPInfo,
    Reason,
    VerifierInput,
    VerifierLayout,
    VerifyConfig,
    _checked_keys,
    _checked_text,
    verify_location,
)

ADVERSARY_NONE = "none"
ADVERSARY_FALSE_ASSERTION = "false_assertion"
ADVERSARY_RELAY = "relay"

_ADVERSARY_KINDS = (ADVERSARY_NONE, ADVERSARY_FALSE_ASSERTION, ADVERSARY_RELAY)

# Fixed instant used for simulated verifications; reports carry no times,
# so any constant keeps runs bit-for-bit reproducible.
_SIM_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)


class ScenarioError(ValueError):
    """A scenario cannot be generated or evaluated as specified."""


@dataclass(frozen=True)
class Adversary:
    """What the server under test is doing.

    `none` asserts its true location; `false_assertion` asserts a location
    far from where it really is; `relay` forwards traffic to the true
    server and adds `extra_ms` to every verifier-to-target RTT.
    """

    kind: str = ADVERSARY_NONE
    extra_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind: {self.kind!r}")
        _checked_number("extra_ms", self.extra_ms, 0)
        if self.kind != ADVERSARY_RELAY and self.extra_ms != 0.0:
            raise ValueError("extra_ms applies to relay adversaries only")

    def to_dict(self) -> dict:
        data: dict = {"type": self.kind}
        if self.kind == ADVERSARY_RELAY:
            data["extra_ms"] = self.extra_ms
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Adversary":
        return cls(kind=data["type"], extra_ms=data.get("extra_ms", 0.0))


@dataclass(frozen=True)
class DelayModel:
    """How simulated RTTs derive from geography.

    circuitousness stretches the geodesic lower bound (routes are never
    straight), lastmile_ms inflates verifier-to-target paths, and jitter
    adds uniform noise in [0, jitter_ms). Simulated RTTs therefore never
    fall below the physical lower bound for the true distance. The three
    must be finite numbers and are kept as floats; seed must be an
    integer, and an integral float such as 3.0 is kept as 3.
    """

    circuitousness: float = 1.5
    lastmile_ms: float = 5.0
    jitter_ms: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("circuitousness", 1), ("lastmile_ms", 0), ("jitter_ms", 0)):
            _checked_number(name, getattr(self, name), low)
            object.__setattr__(self, name, float(getattr(self, name)))
        if isinstance(self.seed, float) and self.seed.is_integer():
            object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "DelayModel":
        """The model of the keys present; a key left out keeps its default."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass(frozen=True)
class SimServer:
    """One server under test: where it really is versus where it claims to be."""

    true_loc: Location
    asserted_loc: Location
    adversary: Adversary = Adversary()

    def __post_init__(self) -> None:
        if self.adversary.kind == ADVERSARY_NONE and self.true_loc != self.asserted_loc:
            raise ValueError("an honest server must assert its true location")

    def to_dict(self) -> dict:
        return {
            "true_loc": self.true_loc.to_dict(),
            "asserted_loc": self.asserted_loc.to_dict(),
            "adversary": self.adversary.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimServer":
        return cls(
            true_loc=Location.from_dict(data["true_loc"]),
            asserted_loc=Location.from_dict(data["asserted_loc"]),
            adversary=Adversary.from_dict(data.get("adversary", {"type": ADVERSARY_NONE})),
        )


def _verifier_from_dict(data: dict) -> VerifierInput:
    """The (id, location) of one verifier row that SimScenario.to_dict wrote."""
    return _checked_text("verifier id", data["id"]), Location.from_dict(data)


@dataclass
class SimScenario:
    """A verifier deployment plus a population of servers to verify."""

    verifiers: list[VerifierInput]
    servers: list[SimServer]
    model: DelayModel = field(default_factory=DelayModel)
    cfg: VerifyConfig = field(default_factory=VerifyConfig)

    def to_dict(self) -> dict:
        return {
            "verifiers": [
                {"id": vid, "lat": loc.lat, "lon": loc.lon} for vid, loc in self.verifiers
            ],
            "servers": [s.to_dict() for s in self.servers],
            "model": self.model.to_dict(),
            "cfg": self.cfg.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimScenario":
        """The scenario that to_dict wrote; raises ScenarioError for data
        of any other shape, with invalid values, or with a key to_dict does
        not write at the top level or in model or cfg (naming the key)."""
        try:
            model, cfg = data.get("model", {}), data.get("cfg", {})
            _checked_keys("the scenario", data, {f.name for f in fields(cls)})
            _checked_keys("model", model, {f.name for f in fields(DelayModel)})
            _checked_keys("cfg", cfg, {f.name for f in fields(VerifyConfig)})
            return cls(
                verifiers=[_verifier_from_dict(v) for v in data["verifiers"]],
                servers=[SimServer.from_dict(s) for s in data["servers"]],
                model=DelayModel.from_dict(model),
                cfg=VerifyConfig.from_dict(cfg),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "SimScenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def simulated_rtt(
    a: Location,
    b: Location,
    model: DelayModel,
    fraction: float,
    is_target_edge: bool,
) -> float:
    """One synthetic RTT measurement in milliseconds between two points.

    The geodesic lower bound stretched by route circuitousness, plus
    last-mile inflation on verifier-to-target edges, plus `jitter_ms`
    times `fraction`, a jitter draw in [0, 1). A function of its
    arguments alone.
    """
    rtt = min_rtt_for_distance(great_circle_distance(a, b)) * model.circuitousness
    if is_target_edge:
        rtt += model.lastmile_ms
    return rtt + model.jitter_ms * fraction


def _jitter_fraction(key: str, probes: int) -> float:
    """The least of `probes` uniform draws in [0, 1) for one edge.

    Draw k is the top 53 bits of the 8-byte BLAKE2b digest of `key`
    salted with k (16 bytes, little-endian), scaled by 2**-53: the
    resolution of random.random(), with no generator to seed. Draw 0's
    all-zero salt is BLAKE2b's default, so it is the plain digest of the
    key. Digests of one length order as the integers they spell, so the
    least digest gives the least draw.
    """
    data = key.encode()
    digest = blake2b(data, digest_size=8).digest()
    for k in range(1, probes):
        salted = blake2b(data, digest_size=8, salt=k.to_bytes(16, "little"))
        digest = min(digest, salted.digest())
    return (int.from_bytes(digest, "big") >> 11) * 2.0**-53


class SimDelayProvider(DelayProvider):
    """DelayProvider backed by scenario geography instead of sockets.

    Target RTTs reflect the server's true location (not the asserted one),
    which is exactly what live measurements would see. An edge measured
    with `probes` probes reads the least of `probes` jitter draws, as a
    live agent returns the least of its connects. The draws of a directed
    edge are keyed by (model seed, stream key, verifier, endpoint, probe
    number): a given edge measures the same regardless of call order or
    concurrency, and distinct streams, directions and probes never share
    noise. The provider keeps no state: a measurement is a function of
    (seed, stream, verifier, endpoint, probes) alone, and the engine asks
    for each edge of a verification once.
    """

    def __init__(
        self,
        verifier_locs: dict[str, Location],
        true_loc: Location,
        model: DelayModel,
        stream: str = "0",
        extra_target_ms: float = 0.0,
    ) -> None:
        self._verifiers = dict(verifier_locs)
        self._true_loc = true_loc
        self._model = model
        self._key = f"{model.seed}/{stream}"
        self._extra_target_ms = extra_target_ms

    def measure(
        self, verifier_id: str, endpoint_id: str, probes: int, timeout: float
    ) -> Optional[float]:
        is_target = endpoint_id == TARGET
        dest = self._true_loc if is_target else self._verifiers[endpoint_id]
        fraction = _jitter_fraction(f"{self._key}/{verifier_id}/{endpoint_id}", probes)
        rtt = simulated_rtt(self._verifiers[verifier_id], dest, self._model, fraction, is_target)
        return rtt + self._extra_target_ms if is_target else rtt


@dataclass
class ExperimentReport:
    """Tallies of one experiment run.

    fr_rate is the fraction of honest servers rejected, fa_rate the
    fraction of adversarial servers accepted; each is None when its
    denominator is zero.
    """

    total_true: int
    accepted_true: int
    total_false: int
    accepted_false: int
    fr_rate: Optional[float]
    fa_rate: Optional[float]
    servers: list[dict]

    def to_dict(self) -> dict:
        """The tallies by field name; servers is the report's own list."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def text_table(self) -> str:
        """Aligned per-server outcomes followed by the summary counts."""
        lines = [f"{'idx':>4}  {'adversary':<16} {'accepted':<9} reason"]
        for row in self.servers:
            lines.append(
                f"{row['index']:>4}  {row['adversary']:<16} "
                f"{'yes' if row['accepted'] else 'no':<9} {row['reason'] or '-'}"
            )
        fr = "n/a" if self.fr_rate is None else f"{self.fr_rate:.2%}"
        fa = "n/a" if self.fa_rate is None else f"{self.fa_rate:.2%}"
        lines.append(
            f"true: {self.accepted_true}/{self.total_true} accepted (FR {fr})  |  "
            f"false: {self.accepted_false}/{self.total_false} accepted (FA {fa})"
        )
        return "\n".join(lines)


def _index_ip(index: int) -> str:
    return f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"


def run_experiment(scenario: SimScenario) -> ExperimentReport:
    """Verify every server in the scenario and tally rejects and accepts.

    Honest servers count toward the false-reject rate, adversarial ones
    toward the false-accept rate. An honest server whose location is
    covered by no verifier triangle is a deployment hole, not a false
    reject, and raises ScenarioError.
    """
    if len(scenario.verifiers) < 3:
        raise ScenarioError("a scenario needs at least 3 verifiers")
    if not scenario.servers:
        raise ScenarioError("a scenario needs at least one server")

    verifier_locs = dict(scenario.verifiers)
    layout = VerifierLayout(scenario.verifiers)
    totals = {True: 0, False: 0}
    accepted = {True: 0, False: 0}
    rows: list[dict] = []
    for index, server in enumerate(scenario.servers):
        honest = server.adversary.kind == ADVERSARY_NONE
        provider = SimDelayProvider(
            verifier_locs,
            server.true_loc,
            scenario.model,
            stream=str(index),
            extra_target_ms=server.adversary.extra_ms,
        )
        result = verify_location(
            IPInfo(value=_index_ip(index), loc=server.asserted_loc),
            layout,
            provider,
            scenario.cfg,
            now=_SIM_EPOCH,
        )
        if honest and result.reason is Reason.NO_COVERAGE:
            raise ScenarioError(
                f"honest server {index} at {server.asserted_loc} is outside all verifier triangles"
            )
        totals[honest] += 1
        accepted[honest] += result.veri_passed
        rows.append(
            {
                "index": index,
                "adversary": server.adversary.kind,
                "accepted": result.veri_passed,
                "reason": result.reason.value if result.reason else None,
            }
        )

    fr = (totals[True] - accepted[True]) / totals[True] if totals[True] else None
    fa = accepted[False] / totals[False] if totals[False] else None
    return ExperimentReport(
        total_true=totals[True],
        accepted_true=accepted[True],
        total_false=totals[False],
        accepted_false=accepted[False],
        fr_rate=fr,
        fa_rate=fa,
        servers=rows,
    )


@dataclass(frozen=True)
class RegionBounds:
    """Axis-aligned lat/lon box that verifiers and servers are drawn from."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self) -> None:
        if not -90 <= self.lat_min < self.lat_max <= 90:
            raise ValueError("latitude bounds must satisfy -90 <= min < max <= 90")
        if not -180 <= self.lon_min < self.lon_max <= 180:
            raise ValueError("longitude bounds must satisfy -180 <= min < max <= 180")


def _random_location(rng: random.Random, bounds: RegionBounds) -> Location:
    return Location(
        rng.uniform(bounds.lat_min, bounds.lat_max),
        rng.uniform(bounds.lon_min, bounds.lon_max),
    )


def _covered_location(rng: random.Random, bounds: RegionBounds, layout: VerifierLayout) -> Location:
    for _ in range(1000):
        candidate = _random_location(rng, bounds)
        if layout.covers(candidate):
            return candidate
    raise ScenarioError("could not place a server inside any verifier triangle")


def generate_scenario(
    num_verifiers: int,
    num_honest: int,
    num_false_assertion: int,
    num_relay: int = 0,
    *,
    bounds: RegionBounds,
    relay_extra_ms: float = 30.0,
    displacement_km: tuple[float, float] = (3000.0, 6000.0),
    model: DelayModel = DelayModel(),
    cfg: VerifyConfig = VerifyConfig(),
    seed: int = 0,
) -> SimScenario:
    """Random scenario with uniform placement inside `bounds`, reproducible
    per seed.

    Server locations are redrawn until they fall inside at least one
    verifier triangle, so honest servers are always in coverage and
    adversarial assertions actually reach the delay test. Adversarial true
    locations sit a uniform displacement_km away from the asserted point
    in a random direction.
    """
    if num_verifiers < 3:
        raise ScenarioError("at least 3 verifiers are required")
    if min(num_honest, num_false_assertion, num_relay) < 0:
        raise ScenarioError("server counts must be >= 0")
    lo, hi = displacement_km
    if not 0 < lo <= hi:
        raise ScenarioError("displacement_km must be a (min, max) pair with 0 < min <= max")

    rng = random.Random(seed)
    verifiers = [(f"v{i + 1}", _random_location(rng, bounds)) for i in range(num_verifiers)]
    layout = VerifierLayout(verifiers)

    servers: list[SimServer] = []
    for _ in range(num_honest):
        loc = _covered_location(rng, bounds, layout)
        servers.append(SimServer(true_loc=loc, asserted_loc=loc))
    adversaries = [Adversary(ADVERSARY_FALSE_ASSERTION)] * num_false_assertion
    adversaries += [Adversary(ADVERSARY_RELAY, extra_ms=relay_extra_ms)] * num_relay
    for adversary in adversaries:
        asserted = _covered_location(rng, bounds, layout)
        true_loc = destination_point(asserted, rng.uniform(0.0, 360.0), rng.uniform(lo, hi))
        servers.append(SimServer(true_loc=true_loc, asserted_loc=asserted, adversary=adversary))

    return SimScenario(
        verifiers=verifiers,
        servers=servers,
        model=replace(model, seed=seed),
        cfg=cfg,
    )
