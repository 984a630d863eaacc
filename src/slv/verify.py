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
# Not used here; bench/layers.py patches slv.verify.ThreadPoolExecutor by
# name, so the name stays importable.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from typing import Optional, Sequence

from .geo import (
    EARTH_RADIUS_KM,
    _EDGE_EPS,
    _Triple,
    _checked_number,
    _cross,
    _dot,
    _normalized,
    _triple_contains,
    _triple_products,
    _unit,
    Circle,
    Location,
    geodesic_midpoint,
    great_circle_distance,
    point_in_circle,
    spherical_containment,
)

# Endpoint id of the asserted webserver in measured RTTs and measure calls.
# The other endpoint ids are verifier ids.
TARGET = "target"

# Largest probe count and per-measurement timeout in seconds that a
# verifier agent accepts in one request. VerifyConfig keeps to the same
# limits, so a manager never sends a request its agents refuse.
MAX_PROBES = 16
MAX_TIMEOUT_S = 30.0

# Probe count and per-measurement timeout in seconds of a VerifyConfig that
# sets none, and of an agent request that names none.
DEFAULT_PROBES = 5
DEFAULT_TIMEOUT = 10.0


def _checked_bool(name: str, value) -> bool:
    """value, which must be a bool; raises ValueError naming name and value
    for anything else, such as the JSON string "false"."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _checked_text(name: str, value) -> str:
    """value, which must be a str; raises ValueError naming name and value
    for anything else, such as the JSON number 7."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _checked_keys(name: str, data, known) -> None:
    """Raises ValueError naming the first key of the JSON object `data`
    (called `name` in the message) that is not in `known`, so a
    misspelled key is refused instead of silently keeping its default."""
    if isinstance(data, dict):
        for key in data:
            if key not in known:
                raise ValueError(
                    f"unknown key {key!r} in {name}; known keys: {', '.join(sorted(known))}"
                )


def utc_now() -> datetime:
    """Current UTC time truncated to whole seconds."""
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    """RFC 3339 UTC timestamp with seconds precision, e.g. 2016-08-08T12:00:00Z."""
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_timestamp(text: str) -> datetime:
    """The UTC time of an RFC 3339 timestamp; ValueError for anything else,
    a JSON number included."""
    dt = datetime.fromisoformat(_checked_text("timestamp", text).replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


class Reason(Enum):
    """Why a verification came back negative."""

    NO_COVERAGE = "NoCoverage"
    ALL_TRIANGLES_REJECTED = "AllTrianglesRejected"
    MEASUREMENT_FAILURE = "MeasurementFailure"


@dataclass(frozen=True, slots=True)
class IPInfo:
    """An IP address together with its asserted location."""

    value: str
    loc: Location

    def __post_init__(self) -> None:
        _checked_text("ip value", self.value)
        try:
            ipaddress.ip_address(self.value)
        except ValueError as exc:
            raise ValueError(f"not a valid IP address: {self.value!r}") from exc

    def to_dict(self) -> dict:
        return {"value": self.value, "loc": self.loc.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "IPInfo":
        return cls(value=data["value"], loc=Location.from_dict(data["loc"]))


@dataclass(frozen=True, slots=True)
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
        ip = IPInfo.from_dict(data["ip"])  # first, so that a JSON list is a TypeError
        region = data.get("region")
        reason = data.get("reason")
        return cls(
            ip=ip,
            veri_passed=_checked_bool("veri_passed", data["veri_passed"]),
            region=Circle.from_dict(region) if region else None,
            when_veri=parse_timestamp(data["when_veri"]),
            reason=Reason(reason) if reason else None,
        )


@dataclass(frozen=True)
class VerifyConfig:
    """Tunables of the verification procedure.

    lambda_ms is the last-mile correction subtracted from each
    verifier-to-target RTT before testing; measurement_timeout is in
    seconds and applies per endpoint measurement. probes_per_measurement
    and measurement_timeout are capped at MAX_PROBES and MAX_TIMEOUT_S,
    the most an agent accepts.
    """

    lambda_ms: float = 5.0
    probes_per_measurement: int = DEFAULT_PROBES
    max_triangles: int = 4
    measurement_timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        _checked_number("lambda_ms", self.lambda_ms, 0)
        _checked_number("probes_per_measurement", self.probes_per_measurement, 1, MAX_PROBES,
                        integer=True)
        _checked_number("max_triangles", self.max_triangles, 1, integer=True)
        _checked_number("measurement_timeout", self.measurement_timeout, 0, MAX_TIMEOUT_S,
                        above=True)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyConfig":
        """The config of the keys present; a key left out keeps its default."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


class DelayProvider:
    """Source of raw (uncorrected) RTT measurements.

    The engine clamps each returned RTT at zero and applies the last-mile
    correction to target RTTs; a provider does neither. A verification
    measures each directed edge it needs once: the engine remembers every
    edge measured successfully, and per triangle calls measure_edges once
    with those of its 9 edges (3 verifiers times the target and 2 peers)
    that it has not measured yet, or not at all when it knows all 9. A
    provider implements measure; one that can take many edges at once
    also overrides measure_edges.
    """

    def measure(
        self, verifier_id: str, endpoint_id: str, probes: int, timeout: float
    ) -> Optional[float]:
        """Minimum RTT in ms from a verifier to an endpoint, or None on failure."""
        raise NotImplementedError

    def measure_edges(
        self, edges: Sequence[tuple[str, str]], probes: int, timeout: float
    ) -> list[Optional[float]]:
        """measure() of every (verifier id, endpoint id) edge, in order: by
        default one call after another on the calling thread."""
        return [self.measure(v, e, probes, timeout) for v, e in edges]


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
# take a distance to p as atan2(|u x p|, u.p) of unit vectors, accurate
# to well under a metre. A side bound takes d(a, b) as acos(u_a.u_b),
# the dot clamped to [-1, 1]: a rounding e ~1e-16 of the dot moves acos
# by about e / sin(d(a, b)), and by at most sqrt(2e) ~2e-8 radians
# (~0.2 m) for sides within metres of 0 or of a half-turn, where a dot
# rounded past 1 or -1 is clamped to a side of 0 or pi. Perimeters are
# summed from haversine distances, accurate to well under a metre too.
# The edge tolerance lets a point lie outside a triangle by a distance of
# order EARTH_RADIUS_KM * _EDGE_EPS over the sines of its shortest side and
# sharpest angle, which weakens either inequality by at most twice that
# distance. 1 km covers all of it unless that product is below ~1e-8
# (sides or angles of centimetres), and costs a few extra triples on
# near-ties only. Visiting in descending cosine u.p rather than ascending
# distance swaps only verifiers whose distances differ by less than the
# cosine's rounding, at most ~1e-8 radians (0.1 km) when both lie within
# metres of p and far less otherwise, which the slack covers too.
_STOP_SLACK_KM = 1.0

# Why a triple is tested only when the directions of its vertices seen
# from p leave no gap wider than a half-turn. Write each unit vector as
#     u = cos(r)*p + sin(r)*(cos(t)*e1 + sin(t)*e2),
# r its distance from p in radians, t its azimuth about p and
# (e1, e2) = _tangent_basis(p), so e1 x e2 = p. Then
#     (a x b).p = sin(r_a)*sin(r_b)*sin(t_b - t_a).
# Let the sign test accept p in (a, b, c) with det >= _MIN_DET (det <=
# -_MIN_DET is the same for (a, c, b)). The exact (a x b).p, (b x c).p and
# (c x a).p are then each >= -e, e = _EDGE_EPS + r with r ~1e-16 the
# rounding of a triple product. If sin(r) >= _NEAR_SIN for all three
# vertices, each turn t_b - t_a, t_c - t_b, t_a - t_c, taken in
# [-k, 2*pi - k), lies in [-k, pi + k] with k = asin(e / _NEAR_SIN**2)
# ~1e-8. The turns sum to a multiple of 2*pi, so to 0 or 2*pi:
# - At 0 each turn lies in [-k, 2k], so each of the three products is at
#   most 2k in size. With A = (b x c).p, B = (c x a).p, C = (a x b).p the
#   identity det*p = A*a + B*b + C*c (see the comment above _HULL_MARGIN)
#   gives |det| <= |A| + |B| + |C| <= 6k < _MIN_DET - r: impossible.
# - At 2*pi at most one turn is negative. The gaps between the three
#   azimuths in circular order are then the three turns, or that turn's
#   size and its sum with each of the others: none exceeds pi + k.
# The azimuths of such vertices are computed to ~1e-14 radians, the
# rounding of the unit vectors included, so a triple whose computed gaps
# leave one wider than pi + _AZIMUTH_SLACK fails the sign test and need
# not be tested. A verifier with sin(r) < _NEAR_SIN, within ~64 km of p or
# of its antipode, has no usable azimuth and is tested in every triple.
# The search measures turns phi in [0, 2*pi) from the azimuth of the
# verifier m it visits. For phi_s <= phi_t the gaps of (m, s, t) in
# circular order are phi_s, phi_t - phi_s and 2*pi - phi_t, so none
# exceeds pi + _AZIMUTH_SLACK iff phi_s <= pi + _AZIMUTH_SLACK (s may come
# first), phi_t >= pi - _AZIMUTH_SLACK (t may come last) and
# phi_t - phi_s <= pi + _AZIMUTH_SLACK. Ordering s and t by (phi, visit
# position) takes each pair once, bit-equal turns included.
_NEAR_SIN = 0.01
_AZIMUTH_SLACK = 1e-7


def enumerate_triangles(
    layout: VerifierLayout, asserted: Location, limit: Optional[int] = None
) -> list[tuple[str, str, str]]:
    """The smallest verifier triangles containing the asserted location,
    as verifier-id triples, each in id order.

    Returns the first `limit` (all when None) 3-combinations whose
    spherical triangle contains `asserted` (boundary inclusive), ordered
    by ascending perimeter with ties broken by the lexicographic
    verifier-id triple: exactly the head of the full, sorted list.
    Combinations that bound no area (|det| < geo._MIN_DET) are skipped.
    An empty list means the point is in no triangle (no coverage).
    `layout` is the deployment's VerifierLayout, shared by every point
    searched against it.

    A point beyond a hull edge of the layout by more than _HULL_MARGIN
    gets [] at once, without testing a triple; that is exact, see the
    comment above _HULL_MARGIN.

    Verifiers are visited in ascending great-circle distance from
    `asserted`, ordered by one dot product each, and each one closes the
    triples it forms with those visited before it; the k best are kept.
    Two bounds cut the work once the top k is full, each against the k-th
    best perimeter plus a small slack: the search stops when twice the
    next verifier's distance exceeds it (every vertex of a containing
    triangle lies within half its perimeter of the point), and a triple
    is skipped when one of its sides (a, b) has d(a, b) + d(a, p) +
    d(b, p) above it (every containing triangle with side (a, b) is at
    least that long). Each new pair's side bound is taken from its dot
    product, once per visit.

    Each visited verifier gets its azimuth about the point, and a triple
    is tested only when its three azimuths leave no gap wider than a
    half-turn, which every triple passing the containment test does (see
    the comment above _NEAR_SIN). The visited verifiers whose pair with
    the new one meets the side bound are split by their turn from its
    azimuth into those that may come first (at most a half-turn) and
    those that may come last (at least a half-turn), slack included, and
    only the pairs of one of each that close such a triple are tested;
    nothing is sorted per visit. So a point near the hull edge, which
    lies only in long triangles, no longer tests every triple of the many
    verifiers it visits, and a point just outside the hull tests none. A
    verifier within ~64 km of the point or of its antipode has no usable
    azimuth and is tested in every triple. Distances to the point and azimuths are
    computed only for the verifiers visited. A pair's cross product and
    haversine length are computed together, once per layout, when a
    triple about to be tested first reads them from the layout's memo.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    up = px, py, pz = _unit(asserted)
    if layout._beyond_hull(up):
        return []
    units = layout._units
    n = len(units)
    crosses, pair = layout._crosses, layout._pair
    cosines = [u[0] * px + u[1] * py + u[2] * pz for u in units]
    (e1x, e1y, e1z), (e2x, e2y, e2z) = _tangent_basis(up)
    # as locals, for the loops below
    acos, atan2, sqrt, pi, tau = math.acos, math.atan2, math.sqrt, math.pi, math.tau
    radius = EARTH_RADIUS_KM
    # the widest gap between two vertices' turns, and the least turn of
    # the last of three
    widest = math.pi + _AZIMUTH_SLACK
    least_last = math.pi - _AZIMUTH_SLACK

    # Every triple is tested as (i, j, k) with i < j < k in id order, and
    # every pair's cross product as (i, j), i < j, so each float the test
    # sees is computed exactly as a scan of all triples would compute it.
    best: list[tuple[float, int, int, int]] = []
    cutoff = math.inf  # the k-th best perimeter plus slack once the top k is full
    visited: list[int] = []
    seen: list[tuple[float, float, float]] = []  # unit vectors, by visit position
    reach: list[float] = []  # distance to the point, by visit position
    azimuth: list[Optional[float]] = []  # about the point, None when near
    near: list[int] = []  # visit positions of the near verifiers
    # rows[t][s], s < t: the side bound of the verifiers at visit
    # positions s and t
    rows: list[list[float]] = []
    for m in sorted(range(n), key=cosines.__getitem__, reverse=True):
        um = ux, uy, uz = units[m]
        # d(m, p) in km as atan2(|um x up|, um.up), with sin_r = |um x up|
        # kept for the near test
        cx, cy, cz = uy * pz - uz * py, uz * px - ux * pz, ux * py - uy * px
        sin_r = sqrt(cx * cx + cy * cy + cz * cz)
        reach_m = radius * atan2(sin_r, cosines[m])
        if 2.0 * reach_m > cutoff:
            break
        azimuth_m = atan2(
            ux * e2x + uy * e2y + uz * e2z, ux * e1x + uy * e1y + uz * e1z
        ) if sin_r >= _NEAR_SIN else None
        # The side bound of m with each visited verifier, by visit
        # position: the side's length from its cosine c, clamped to
        # [-1, 1] (see the comment above _STOP_SLACK_KM), plus both
        # distances to the point.
        row = [
            radius * (acos(c) if -1.0 <= (c := vx * ux + vy * uy + vz * uz) <= 1.0
                      else 0.0 if c > 0.0 else pi) + reach_x + reach_m
            for (vx, vy, vz), reach_x in zip(seen, reach)
        ]
        # The visited pairs (s, t), s < t, whose triple with m may contain
        # p: both live, their side with m within the bound, and leaving
        # no gap over a half-turn. With phi the turn from m's azimuth,
        # that is phi_s <= pi + slack (s may come first), phi_t >=
        # pi - slack (t may come last), (phi_s, s) < (phi_t, t) so that
        # each pair is taken once, and phi_t <= phi_s + pi + slack; a near
        # verifier pairs with every live one, and a near m with all pairs.
        if azimuth_m is None:
            live = [s for s, side in enumerate(row) if side <= cutoff]
            pairs = [(s, t) for i, t in enumerate(live) for s in live[:i]]
        else:
            first, last = [], []
            for s, side in enumerate(row):
                if side <= cutoff and (azimuth_s := azimuth[s]) is not None:
                    phi = (azimuth_s - azimuth_m) % tau
                    if phi <= widest:
                        first.append((phi, s))
                    if phi >= least_last:
                        last.append((phi, s))
            pairs = [
                (s, t) if s < t else (t, s)
                for phi_s, s in first for phi_t, t in last
                if phi_s < phi_t <= phi_s + widest or phi_s == phi_t and s < t
            ]
            for s in near:
                if row[s] <= cutoff:
                    for t, side in enumerate(row):
                        if side <= cutoff and (t > s or (t < s and azimuth[t] is not None)):
                            pairs.append((s, t) if s < t else (t, s))
        for s, t in pairs:
            # m's side bound with s and with t, then the pair's own, on
            # the k-th best perimeter as it stands
            if row[s] > cutoff or row[t] > cutoff or rows[t][s] > cutoff:
                continue
            a, b = visited[s], visited[t]
            if a > b:
                a, b = b, a
            i, j, k = (a, b, m) if m > b else (a, m, b) if m > a else (m, a, b)
            (ij, l_ij), (jk, l_jk), (ik, l_ik) = (
                crosses.get(i * n + j) or pair(i, j),
                crosses.get(j * n + k) or pair(j, k),
                crosses.get(i * n + k) or pair(i, k),
            )
            uk = units[k]
            if not spherical_containment(
                ij[0] * uk[0] + ij[1] * uk[1] + ij[2] * uk[2],
                ij[0] * px + ij[1] * py + ij[2] * pz,
                jk[0] * px + jk[1] * py + jk[2] * pz,
                ik[0] * px + ik[1] * py + ik[2] * pz,
            ):
                continue
            key = (l_ij + l_jk + l_ik, i, j, k)
            if len(best) == limit:
                if key >= best[-1]:
                    continue
                best.pop()
            insort(best, key)
            if len(best) == limit:
                cutoff = best[-1][0] + _STOP_SLACK_KM
        if azimuth_m is None:
            near.append(len(visited))
        visited.append(m)
        seen.append(um)
        reach.append(reach_m)
        azimuth.append(azimuth_m)
        rows.append(row)

    ids = layout._ids
    return [(ids[i], ids[j], ids[k]) for _, i, j, k in best]


# Coverage: is a point in some verifier triangle? The sign test accepts p
# in triangle (a, b, c) iff p = alpha*a + beta*b + gamma*c with alpha,
# beta, gamma >= 0 (up to its tolerance), i.e. iff p is in the cone of the
# three unit vectors. By Caratheodory's theorem for cones, a point in the
# cone of all verifiers is in the cone of 3 linearly independent ones, so
# the union of all verifier triangles is the verifiers' spherical convex
# hull. When the verifiers lie in the open hemisphere centred on their
# normalized centroid, the gnomonic projection about it maps great circles
# to straight lines, so the hull is the planar convex hull of the
# projected points, its edges minor arcs between hull verifiers, and the
# fan triangles (h0, hi, hi+1) of the hull vertices tile it.
#
# VerifierLayout.covers answers as a test of every triple would, on every
# input:
# - True only after a triple passes spherical_containment computed with
#   exactly the floats of enumerate_triangles: the unit vectors of _unit,
#   the triple as (i, j, k) in id order and cross(u_i, u_j) with i < j.
#   The search then finds a containing triple too.
# - False only when p lies outside some hull edge, with inward unit normal
#   n and n.u >= -_EDGE_EPS checked for every verifier u at build time, by
#   more than _HULL_MARGIN (n.p < -_HULL_MARGIN). Proof that no triple
#   passes: let the test accept p in (a, b, c) with computed det
#   D' >= _MIN_DET (the case D' <= -_MIN_DET is the same with all signs
#   flipped). The exact coefficients A = (b x c).p, B = (c x a).p,
#   C = (a x b).p are then >= -_EDGE_EPS - r, with r ~1e-16 the rounding
#   of a triple product of unit vectors, and the identity
#   D p = A a + B b + C c (exact for any vectors, D the exact det) dotted
#   with n gives
#       D (n.p) = A (n.a) + B (n.b) + C (n.c).
#   A term with a negative coefficient is at least -(_EDGE_EPS + r), as
#   n.u <= 1; one with a non-negative coefficient is at least about
#   -_EDGE_EPS, as the coefficient is at most |b x c| <= 1 and
#   n.u >= -_EDGE_EPS. So D (n.p) > -4 _EDGE_EPS, while
#   n.p < -_HULL_MARGIN + r; hence D < 4 _EDGE_EPS / (_HULL_MARGIN - r),
#   and D' < _MIN_DET = 8 _EDGE_EPS / _HULL_MARGIN with a factor of 2 to
#   spare, against the assumption. The test's tolerance applies to the
#   unnormalized products, so it is not a distance: a sliver with D' just
#   above _EDGE_EPS would accept points along its near great circle up to
#   about its own length beyond its vertices, far outside the hull. The
#   rule's degeneracy bound _MIN_DET refuses every such sliver, so the
#   hull edge alone decides False.
# The same False lets enumerate_triangles return [] for p before it tests
# a triple: no triple passes, so the full sorted list is empty too.
# Everything else falls back to enumerate_triangles(layout, p, 1): points
# within _HULL_MARGIN outside the hull, a fan triple that is degenerate or
# fails the test, and layouts with no checked hull (outside the centroid's
# open hemisphere, fewer than 3 hull vertices). That is exact too: the
# search returns the head of the sorted list of every containing triple,
# each tested with the floats above, so it is empty iff no triple passes.
_HULL_MARGIN = 1e-4  # about 640 m on the earth's surface


def _triple(units, i: int, j: int, k: int) -> _Triple:
    """The products of a triple in id order i < j < k, as the search
    computes them."""
    i, j, k = sorted((i, j, k))
    return _triple_products(units[i], units[j], units[k])


_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _tangent_basis(u) -> tuple[tuple, tuple]:
    """Orthonormal e1, e2 perpendicular to unit u, with e1 x e2 = u."""
    ax, ay, az = abs(u[0]), abs(u[1]), abs(u[2])
    # the first axis along which u is shortest
    axis = 0 if ax <= ay and ax <= az else 1 if ay <= az else 2
    e1 = _normalized(_cross(u, _AXES[axis]))
    return e1, _cross(u, e1)


def _hull(units) -> Optional[list[int]]:
    """Indices of the hull verifiers, counterclockwise seen from outside
    the sphere, by a monotone chain over the gnomonic projection about the
    normalized centroid; None when some verifier is not in the centroid's
    open hemisphere or fewer than 3 hull vertices remain. Collinear
    boundary verifiers are left out."""
    centre = _normalized(tuple(sum(u[i] for u in units) for i in range(3)))
    if centre is None:
        return None
    cx, cy, cz = centre
    (e1x, e1y, e1z), (e2x, e2y, e2z) = _tangent_basis(centre)
    # _dot(u, centre), _dot(u, e1) and _dot(u, e2), inlined: the same
    # products summed in the same order, without a call per verifier.
    points = []
    for index, (x, y, z) in enumerate(units):
        m = x * cx + y * cy + z * cz
        if m <= 0.0:
            return None
        points.append(((x * e1x + y * e1y + z * e1z) / m, (x * e2x + y * e2y + z * e2z) / m, index))
    points.sort()

    def chain(ordered) -> list:
        out: list = []
        for q in ordered:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (q[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (q[0] - out[-2][0])
            ) <= 0.0:
                out.pop()
            out.append(q)
        return out[:-1]

    hull = chain(points) + chain(reversed(points))
    return [q[2] for q in hull] if len(hull) >= 3 else None


def _hull_edges(units) -> tuple[list[tuple[float, float, float]], list[tuple[tuple, _Triple]]]:
    """The inward unit normals of the checked hull's edges, and per fan
    triangle (boundary ray to its next fan vertex, fan triple); two empty
    lists when the hull is not checked."""
    hull = _hull(units)
    if hull is None:
        return [], []
    normals = []
    for h, nxt in zip(hull, hull[1:] + hull[:1]):
        normal = _normalized(_cross(units[h], units[nxt]))
        if normal is None:
            return [], []
        # _dot(normal, u) for every verifier u, inlined: the same products
        # summed in the same order, without a call per verifier.
        nx, ny, nz = normal
        for x, y, z in units:
            if nx * x + ny * y + nz * z < -_EDGE_EPS:
                return [], []
        normals.append(normal)
    h0 = hull[0]
    return normals, [
        (_cross(units[h0], units[hull[f + 2]]), _triple(units, h0, hull[f + 1], hull[f + 2]))
        for f in range(len(hull) - 2)
    ]


class VerifierLayout:
    """One verifier deployment, indexed once and shared by every point
    searched or tested against it.

    Built whole: the constructor validates the verifiers (at least 3,
    unique ids), maps each id to its location (verify_location reads a
    found triangle's vertices there), takes their unit vectors and builds
    the hull that covers() and the triangle search decide on; nothing
    else is built later. It fills one memo entry per verifier pair (so at
    most n(n - 1)/2) that a triple tested by the search reads, and no
    other: the pair's cross product for the containment test and its
    haversine length for perimeters. Every such value is the float a
    fresh search computes.
    Threads may share a layout: each memo entry is written whole, and two
    threads that fill the same entry store the same value.

    covers(point) agrees with a test of every triple under the
    containment rule of enumerate_triangles on every input, and costs O(h)
    for h hull verifiers instead of up to C(n, 3) tests. See the comment
    above _HULL_MARGIN for why the hull decides exactly, and when it falls
    back to the search with limit 1.
    """

    def __init__(self, verifiers: Sequence[VerifierInput]) -> None:
        # Location by verifier id, in id order: the order of every index.
        self._loc_of = dict(_validated(verifiers))
        self._ids = list(self._loc_of)
        self._locs = list(self._loc_of.values())
        self._units = [_unit(loc) for loc in self._locs]
        # (cross(u_i, u_j), haversine length in km) of pair i < j, keyed
        # by i * n + j.
        self._crosses: dict[int, tuple[tuple[float, float, float], float]] = {}
        # Inward unit normals of the hull edges and (boundary ray to the
        # next fan vertex, fan triple) per fan triangle, both empty when
        # the hull is not checked.
        self._normals, self._fan = _hull_edges(self._units)

    def _pair(self, i: int, j: int) -> tuple[tuple[float, float, float], float]:
        """Fills and returns the memo entry of verifier pair i < j."""
        entry = self._crosses[i * len(self._units) + j] = (
            _cross(self._units[i], self._units[j]),
            great_circle_distance(self._locs[i], self._locs[j]),
        )
        return entry

    def _beyond_hull(self, up) -> bool:
        """Whether unit vector up lies beyond a hull edge by more than
        _HULL_MARGIN, so that no verifier triangle contains it."""
        return any(_dot(normal, up) < -_HULL_MARGIN for normal in self._normals)

    def covers(self, point: Location) -> bool:
        """Whether at least one verifier triangle contains the point
        (boundary inclusive; triples that bound no area contain nothing).
        False at once for a point beyond a hull edge by more than
        _HULL_MARGIN, True when its fan triangle contains it, and the
        search's answer otherwise."""
        up = _unit(point)
        if self._beyond_hull(up):
            return False
        fan = self._fan
        if fan:
            f = 0
            while f < len(fan) - 1 and _dot(fan[f][0], up) >= 0.0:
                f += 1
            if _triple_contains(fan[f][1], up):
                return True
        return bool(enumerate_triangles(self, point, 1))


def _measure_triangle(
    ids: tuple[str, str, str],
    delays: DelayProvider,
    cfg: VerifyConfig,
    known: dict[tuple[str, str], float],
) -> Optional[dict[tuple[str, str], float]]:
    """Measure the triangle of verifier ids `ids` into `known` and return
    it, or None when one of the triangle's edges failed.

    `known` holds the RTTs in ms that this verification has measured so
    far, keyed by (verifier id, endpoint id) where the endpoint is another
    verifier or TARGET. Only the triangle's edges not in it go to the
    provider, in one measure_edges call (none when all 9 are known),
    verifier by verifier, each to the target and then to its peers in id
    order, so a live provider can put them all in flight at once and a
    triangle costs at most one probe round of wall time. Each RTT measured
    is clamped at zero, target RTTs are then last-mile corrected, and the
    value is stored in `known`. A failed edge is not stored, so the next
    triangle that needs it asks again."""
    a, b, c = ids
    edges = [(a, TARGET), (a, b), (a, c), (b, TARGET), (b, a), (b, c), (c, TARGET), (c, a), (c, b)]
    new = [edge for edge in edges if edge not in known]
    measured = delays.measure_edges(
        new, cfg.probes_per_measurement, cfg.measurement_timeout) if new else []
    for edge, ms in zip(new, measured):
        if ms is not None:
            ms = max(ms, 0.0)
            known[edge] = apply_lastmile_correction(ms, cfg.lambda_ms) if edge[1] == TARGET else ms
    return None if None in measured else known


def verify_location(
    asserted_ip: IPInfo,
    layout: VerifierLayout,
    delays: DelayProvider,
    cfg: VerifyConfig,
    now: datetime,
) -> VerificationResult:
    """Run the verification loop for one asserted location.

    Walks the cfg.max_triangles smallest triangles containing the
    asserted location, in enumerate_triangles order, on the deployment's
    `layout`, shared by every point verified against it. The search stops
    once no farther verifier can form a smaller one, so it does not test
    all C(n, 3) verifier triples, and a point that the layout's hull rules
    out tests none. For each fully measured triangle the three
    verifier pairs are tested in id order; the first pair that passes the
    delay test and whose pair circle geodesically contains the asserted
    location yields a positive result with that circle as the region.

    Each directed edge is measured once per verification: a triangle
    asks the provider only for edges no earlier triangle of this call
    measured, and a failed edge is asked again by the next triangle that
    needs it. Nothing is remembered across calls. A triangle with any
    failed measurement is skipped but still counts against
    cfg.max_triangles. Negative results carry a reason:
    NO_COVERAGE when no triangle contains the assertion,
    MEASUREMENT_FAILURE when no attempted triangle could be fully
    measured, ALL_TRIANGLES_REJECTED otherwise.
    """
    triangles = enumerate_triangles(layout, asserted_ip.loc, cfg.max_triangles)
    if not triangles:
        return VerificationResult(
            ip=asserted_ip, veri_passed=False, region=None,
            when_veri=now, reason=Reason.NO_COVERAGE,
        )

    loc_of = layout._loc_of
    known: dict[tuple[str, str], float] = {}
    any_complete = False
    for ids in triangles:
        rtts = _measure_triangle(ids, delays, cfg, known)
        if rtts is None:
            continue
        any_complete = True
        for a, b in ((ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])):
            if not thales_accept(rtts[a, TARGET], rtts[b, TARGET], rtts[a, b], rtts[b, a]):
                continue
            region = circle_of_pair(loc_of[a], loc_of[b])
            if point_in_circle(asserted_ip.loc, region):
                return VerificationResult(
                    ip=asserted_ip, veri_passed=True, region=region, when_veri=now,
                )

    reason = Reason.ALL_TRIANGLES_REJECTED if any_complete else Reason.MEASUREMENT_FAILURE
    return VerificationResult(
        ip=asserted_ip, veri_passed=False, region=None, when_veri=now, reason=reason,
    )
