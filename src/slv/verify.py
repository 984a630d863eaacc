"""Delay-based location verification engine.

Decides whether measured round-trip times are consistent with a server
being where its IP address is asserted to be. The engine is pure: all
measurement I/O goes through a DelayProvider supplied by the caller, so
the same loop runs against live verifier agents and against simulated
networks.
"""

from __future__ import annotations

import ipaddress
import math
from bisect import insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Optional, Protocol, Sequence

from .geo import (
    EARTH_RADIUS_KM,
    _cross,
    _dot,
    _unit,
    Circle,
    Location,
    Triangle,
    geodesic_midpoint,
    great_circle_distance,
    point_in_circle,
    spherical_containment,
)

# Endpoint id of the asserted webserver in measured RTTs and measure calls.
# The other endpoint ids are verifier ids.
TARGET = "target"


def utc_now() -> datetime:
    """Current UTC time truncated to whole seconds."""
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    """RFC 3339 UTC timestamp with seconds precision, e.g. 2016-08-08T12:00:00Z."""
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_timestamp(text: str) -> datetime:
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


class Reason(Enum):
    """Why a verification came back negative."""

    NO_COVERAGE = "NoCoverage"
    ALL_TRIANGLES_REJECTED = "AllTrianglesRejected"
    MEASUREMENT_FAILURE = "MeasurementFailure"


@dataclass(frozen=True)
class IPInfo:
    """An IP address together with its asserted location."""

    value: str
    loc: Location

    def __post_init__(self) -> None:
        try:
            ipaddress.ip_address(self.value)
        except ValueError as exc:
            raise ValueError(f"not a valid IP address: {self.value!r}") from exc

    def to_dict(self) -> dict:
        return {"value": self.value, "loc": self.loc.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "IPInfo":
        return cls(value=str(data["value"]), loc=Location.from_dict(data["loc"]))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one verification.

    A positive result always carries the granularity circle the server was
    verified to lie in; a negative result never carries one.
    """

    ip: IPInfo
    veri_passed: bool
    region: Optional[Circle]
    when_veri: datetime
    reason: Optional[Reason] = None

    def __post_init__(self) -> None:
        if self.veri_passed and self.region is None:
            raise ValueError("a positive result requires a region")
        if not self.veri_passed and self.region is not None:
            raise ValueError("a negative result must not carry a region")

    def to_dict(self) -> dict:
        return {
            "ip": self.ip.to_dict(),
            "veri_passed": self.veri_passed,
            "region": self.region.to_dict() if self.region else None,
            "when_veri": format_timestamp(self.when_veri),
            "reason": self.reason.value if self.reason else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationResult":
        region = data.get("region")
        reason = data.get("reason")
        return cls(
            ip=IPInfo.from_dict(data["ip"]),
            veri_passed=bool(data["veri_passed"]),
            region=Circle.from_dict(region) if region else None,
            when_veri=parse_timestamp(data["when_veri"]),
            reason=Reason(reason) if reason else None,
        )


@dataclass(frozen=True)
class VerifyConfig:
    """Tunables of the verification procedure.

    lambda_ms is the last-mile correction subtracted from each
    verifier-to-target RTT before testing; measurement_timeout is in
    seconds and applies per endpoint measurement.
    """

    lambda_ms: float = 5.0
    probes_per_measurement: int = 5
    max_triangles: int = 4
    measurement_timeout: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_ms) and self.lambda_ms >= 0):
            raise ValueError("lambda_ms must be a finite number >= 0")
        for name in ("probes_per_measurement", "max_triangles"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if not (math.isfinite(self.measurement_timeout) and self.measurement_timeout > 0):
            raise ValueError("measurement_timeout must be a finite number > 0")

    def to_dict(self) -> dict:
        return {
            "lambda_ms": self.lambda_ms,
            "probes_per_measurement": self.probes_per_measurement,
            "max_triangles": self.max_triangles,
            "measurement_timeout": self.measurement_timeout,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyConfig":
        known = {f: data[f] for f in (
            "lambda_ms", "probes_per_measurement", "max_triangles", "measurement_timeout",
        ) if f in data}
        return cls(**known)


class DelayProvider(Protocol):
    """Source of raw (uncorrected) RTT measurements.

    The engine clamps each returned RTT at zero and applies the last-mile
    correction to target RTTs; a provider does neither. Implementations
    may set `supports_concurrent_measure = True` to let the engine take
    all 9 measurements of a triangle (3 verifiers times the target and 2
    peers) at once; they must then tolerate 9 concurrent calls.
    """

    def measure(
        self, verifier_id: str, endpoint_id: str, probes: int, timeout: float
    ) -> Optional[float]:
        """Minimum RTT in ms from a verifier to an endpoint, or None on failure."""
        ...


def apply_lastmile_correction(rtt_ms: float, lambda_ms: float) -> float:
    """Subtract the last-mile correction from an RTT, clamping at zero.

    Applies to verifier-to-target RTTs only; RTTs between verifiers are
    used raw.
    """
    if rtt_ms < 0:
        raise ValueError("rtt_ms must be >= 0")
    if lambda_ms < 0:
        raise ValueError("lambda_ms must be >= 0")
    return max(rtt_ms - lambda_ms, 0.0)


def thales_accept(d1: float, d2: float, d12: float, d21: float) -> bool:
    """Right-angle delay test for one verifier pair.

    True iff d1^2 + d2^2 <= ((d12 + d21) / 2)^2. With delays proportional
    to distances this holds exactly when the target sits inside the circle
    whose diameter joins the two verifiers (Thales' theorem); the boundary
    is accepted. d1 and d2 must already be last-mile corrected.
    """
    half_pair = (d12 + d21) / 2.0
    return d1 * d1 + d2 * d2 <= half_pair * half_pair


def circle_of_pair(v1: Location, v2: Location) -> Circle:
    """Disc whose diameter spans two verifier positions.

    Raises:
        ValueError: when the positions coincide.
        AntipodalPointsError: when they are (nearly) antipodal.
    """
    if v1 == v2:
        raise ValueError("verifier pair must be two distinct locations")
    return Circle(
        centre=geodesic_midpoint(v1, v2),
        radius=great_circle_distance(v1, v2) / 2.0,
    )


VerifierInput = tuple[str, Location]


def _validated(verifiers: Sequence[VerifierInput]) -> tuple[VerifierInput, ...]:
    if len(verifiers) < 3:
        raise ValueError("need at least 3 verifiers")
    ids = [vid for vid, _ in verifiers]
    if len(set(ids)) != len(ids):
        raise ValueError("verifier ids must be unique")
    return tuple(sorted(verifiers, key=lambda v: v[0]))


# Why the search may stop early. The sign test accepts p only when
# p = norm(alpha*a + beta*b + gamma*c) with alpha, beta, gamma >= 0 (see
# geo.spherical_containment). So p lies on the minor arc from a to
# q = norm(beta*b + gamma*c), and q lies on the minor arc bc. The triangle
# inequality gives
#     2*d(a, q) <= d(a, b) + d(b, q) + d(a, c) + d(c, q) = P,
# the perimeter, and d(a, p) <= d(a, q); likewise for b and c. Every
# vertex of a triangle containing p thus lies within P/2 of p, on the
# sphere as in the plane, whatever the lengths of the sides. Verifiers are
# visited nearest first, and every triple among the visited ones has been
# tested, so a triangle not yet seen has a vertex at least as far as the
# next verifier: once twice that distance exceeds the k-th best perimeter,
# no unseen triangle can enter the top k.
#
# Why a side may be dropped. With q as above, d(a, q) = d(a, p) + d(p, q)
# and d(b, q) + d(q, c) = d(b, c), so
#     d(a, p) + d(b, p) <= d(a, p) + d(p, q) + d(q, b)
#                        = d(a, q) + d(q, b)
#                       <= d(a, c) + d(c, q) + d(q, b) = d(a, c) + d(c, b),
# and the perimeter of every triangle with side (a, b) that contains p is
# at least d(a, b) + d(a, p) + d(b, p), the side's bound. A triangle's
# perimeter is at least the bound of each of its three sides, so once the
# k-th best perimeter is below a side's bound, no triangle through that
# side can enter the top k; the k-th best only shrinks, so the side can be
# dropped for good.
#
# The slack covers rounding and the sign test's tolerance. Both bounds
# take every distance, to p as between verifiers, as atan2(|u x v|, u.v)
# of unit vectors, while perimeters are summed from haversine distances;
# both are accurate to well under a metre, near-antipodal pairs included.
# The edge tolerance lets a point lie outside a triangle by a distance of
# order EARTH_RADIUS_KM * _EDGE_EPS over the sines of its shortest side and
# sharpest angle, which weakens either inequality by at most twice that
# distance. 1 km covers all of it unless that product is below ~1e-8
# (sides or angles of centimetres), and costs a few extra triples on
# near-ties only.
_STOP_SLACK_KM = 1.0


def _arc_km(u, cross, v) -> float:
    """Great-circle distance in km between unit vectors u and v, given
    cross = u x v (or v x u)."""
    return EARTH_RADIUS_KM * math.atan2(math.sqrt(_dot(cross, cross)), _dot(u, v))


def enumerate_triangles(
    verifiers: Sequence[VerifierInput], asserted: Location, limit: Optional[int] = None
) -> list[Triangle]:
    """The smallest verifier triangles containing the asserted location.

    Returns the first `limit` (all when None) 3-combinations whose
    spherical triangle contains `asserted` (boundary inclusive), ordered
    by ascending perimeter with ties broken by the lexicographic
    verifier-id triple: exactly the head of the full, sorted list.
    Combinations whose vertices lie on one great circle bound no area and
    are skipped. An empty list means the point is in no triangle (no
    coverage).

    Verifiers are visited in ascending great-circle distance from
    `asserted`, each one closing the triples it forms with those visited
    before it, and the k best are kept. Two bounds cut the work once the
    top k is full, each against the k-th best perimeter plus a small
    slack: the search stops when twice the next verifier's distance
    exceeds it (every vertex of a containing triangle lies within half
    its perimeter of the point), and a verifier pair (a, b) is dropped,
    or never formed, when d(a, b) + d(a, p) + d(b, p) exceeds it (every
    containing triangle with side (a, b) is at least that long). Both
    bounds are tested before containment. Cross products are computed
    only for the pairs visited, perimeters only for containing triples
    that pass both bounds, and Triangle objects only for the result.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    ordered = _validated(verifiers)
    locs = [loc for _, loc in ordered]
    units = [_unit(loc) for loc in locs]
    up = _unit(asserted)
    reach = [_arc_km(u, _cross(u, up), up) for u in units]

    # Every triple is tested as (i, j, k) with i < j < k in id order, and
    # every pair's cross product as (i, j), i < j, so each float the test
    # sees is computed exactly as a scan of all triples would compute it.
    n = len(locs)
    dists: dict[int, float] = {}

    def dist(i: int, j: int) -> float:
        d = dists.get(i * n + j)
        if d is None:
            d = dists[i * n + j] = great_circle_distance(locs[i], locs[j])
        return d

    best: list[tuple[float, int, int, int]] = []
    # The k-th best perimeter plus slack once the top k is full, and its
    # value when the pairs were last filtered against it.
    cutoff = pruned_at = math.inf
    visited: list[int] = []
    # (a, b, position of a, position of b, cross(a, b), its side of p,
    # side bound), a < b
    pairs: list[tuple[int, int, int, int, tuple[float, float, float], float, float]] = []
    for m in sorted(range(n), key=reach.__getitem__):
        reach_m = reach[m]
        if 2.0 * reach_m > cutoff:
            break
        um = units[m]
        # Cross products of m with each visited verifier, by visit position.
        row = [_cross(units[x], um) if x < m else _cross(um, units[x]) for x in visited]
        row_side = [_dot(cross, up) for cross in row]
        row_bound = [
            _arc_km(units[x], cross, um) + reach[x] + reach_m for x, cross in zip(visited, row)
        ]
        for a, b, pa, pb, ab, side_ab, _ in pairs:
            if row_bound[pa] > cutoff or row_bound[pb] > cutoff:
                continue
            if m > b:  # (a, b, m)
                i, j, k = a, b, m
                ij, uk = ab, um
                pij, pjk, pik = side_ab, row_side[pb], row_side[pa]
            elif m > a:  # (a, m, b)
                i, j, k = a, m, b
                ij, uk = row[pa], units[b]
                pij, pjk, pik = row_side[pa], row_side[pb], side_ab
            else:  # (m, a, b)
                i, j, k = m, a, b
                ij, uk = row[pa], units[b]
                pij, pjk, pik = row_side[pa], side_ab, row_side[pb]
            if not spherical_containment(
                ij[0] * uk[0] + ij[1] * uk[1] + ij[2] * uk[2], pij, pjk, pik
            ):
                continue
            key = (dist(i, j) + dist(j, k) + dist(i, k), i, j, k)
            if len(best) == limit:
                if key >= best[-1]:
                    continue
                best.pop()
            insort(best, key)
            if len(best) == limit:
                cutoff = best[-1][0] + _STOP_SLACK_KM
        if cutoff < pruned_at:
            pairs = [pair for pair in pairs if pair[-1] <= cutoff]
            pruned_at = cutoff
        t = len(visited)
        pairs.extend(
            (x, m, s, t, row[s], row_side[s], bound) if x < m
            else (m, x, t, s, row[s], row_side[s], bound)
            for s, (x, bound) in enumerate(zip(visited, row_bound))
            if bound <= cutoff
        )
        visited.append(m)

    return [
        Triangle(
            vertices=(locs[i], locs[j], locs[k]),
            verifier_ids=(ordered[i][0], ordered[j][0], ordered[k][0]),
        )
        for _, i, j, k in best
    ]


def any_triangle_contains(verifiers: Sequence[VerifierInput], point: Location) -> bool:
    """Whether at least one verifier triangle contains the point.

    Same containment rule as enumerate_triangles, scanning the triples in
    lexicographic order and stopping at the first hit, which is much
    cheaper when only coverage matters.
    """
    ordered = _validated(verifiers)
    units = [_unit(loc) for _, loc in ordered]
    up = _unit(point)
    n = len(units)
    crosses = [[_cross(units[i], units[j]) if j > i else None for j in range(n)] for i in range(n)]
    sides = [[_dot(c, up) if c is not None else 0.0 for c in row] for row in crosses]
    for i in range(n):
        cross_i, side_i = crosses[i], sides[i]
        for j in range(i + 1, n):
            ij, s_ij, side_j = cross_i[j], side_i[j], sides[j]
            for k in range(j + 1, n):
                uk = units[k]
                if spherical_containment(
                    ij[0] * uk[0] + ij[1] * uk[1] + ij[2] * uk[2],
                    s_ij, side_j[k], side_i[k],
                ):
                    return True
    return False


def _measure_triangle(
    triangle: Triangle, delays: DelayProvider, cfg: VerifyConfig
) -> Optional[dict[tuple[str, str], float]]:
    """The 9 RTTs of one triangle in ms, keyed by (verifier id, endpoint
    id) where the endpoint is another verifier or TARGET; None when any
    measurement fails. Each RTT is clamped at zero, and target RTTs are
    then last-mile corrected.

    A concurrent provider gets all 9 measurements at once, so a live
    triangle costs one probe round of wall time rather than three."""
    ids = triangle.verifier_ids
    edges = [(v, e) for v in ids for e in (TARGET,) + tuple(w for w in ids if w != v)]
    probes, timeout = cfg.probes_per_measurement, cfg.measurement_timeout
    if getattr(delays, "supports_concurrent_measure", False):
        with ThreadPoolExecutor(max_workers=len(edges)) as pool:
            futures = [pool.submit(delays.measure, v, e, probes, timeout) for v, e in edges]
        measured = [future.result() for future in futures]
    else:
        measured = [delays.measure(v, e, probes, timeout) for v, e in edges]

    rtts = {}
    for edge, ms in zip(edges, measured):
        if ms is None:
            return None
        ms = max(ms, 0.0)
        rtts[edge] = apply_lastmile_correction(ms, cfg.lambda_ms) if edge[1] == TARGET else ms
    return rtts


def verify_location(
    asserted_ip: IPInfo,
    verifiers: Sequence[VerifierInput],
    delays: DelayProvider,
    cfg: VerifyConfig,
    now: datetime,
) -> VerificationResult:
    """Run the verification loop for one asserted location.

    Walks the cfg.max_triangles smallest triangles containing the
    asserted location, in enumerate_triangles order. Their search stops
    once no farther verifier can form a smaller one, so it does not test
    all C(n, 3) verifier triples. For each fully measured triangle the three
    verifier pairs are tested in id order; the first pair that passes the
    delay test and whose pair circle geodesically contains the asserted
    location yields a positive result with that circle as the region.

    A triangle with any failed measurement is skipped but still counts
    against cfg.max_triangles. Negative results carry a reason:
    NO_COVERAGE when no triangle contains the assertion,
    MEASUREMENT_FAILURE when no attempted triangle could be fully
    measured, ALL_TRIANGLES_REJECTED otherwise.
    """
    triangles = enumerate_triangles(verifiers, asserted_ip.loc, cfg.max_triangles)
    if not triangles:
        return VerificationResult(
            ip=asserted_ip, veri_passed=False, region=None,
            when_veri=now, reason=Reason.NO_COVERAGE,
        )

    any_complete = False
    for triangle in triangles:
        rtts = _measure_triangle(triangle, delays, cfg)
        if rtts is None:
            continue
        any_complete = True
        ids = triangle.verifier_ids
        locs = dict(zip(ids, triangle.vertices))
        for a, b in ((ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])):
            if not thales_accept(rtts[a, TARGET], rtts[b, TARGET], rtts[a, b], rtts[b, a]):
                continue
            region = circle_of_pair(locs[a], locs[b])
            if point_in_circle(asserted_ip.loc, region):
                return VerificationResult(
                    ip=asserted_ip, veri_passed=True, region=region, when_veri=now,
                )

    reason = Reason.ALL_TRIANGLES_REJECTED if any_complete else Reason.MEASUREMENT_FAILURE
    return VerificationResult(
        ip=asserted_ip, veri_passed=False, region=None, when_veri=now, reason=reason,
    )
