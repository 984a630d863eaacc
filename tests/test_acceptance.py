"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance and prints one PASS/FAIL
line; run with `pytest tests/test_acceptance.py -s` to see them.
"""

import json
import math
import random
import time
import urllib.request
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone

import pytest

from conftest import IdealProvider, TcpListener
from slv.agent import AgentServer
from slv.geo import (
    Circle,
    Location,
    Triangle,
    destination_point,
    geodesic_midpoint,
    great_circle_distance,
    min_rtt_for_distance,
    point_in_circle,
    point_in_spherical_triangle,
)
from slv.manager import ManagerConfig, ManagerHTTPServer, ManagerService
from slv.pinning import Outcome, evaluate_pin
from slv.simulator import (
    DelayModel,
    RegionBounds,
    generate_scenario,
    run_experiment,
)
from slv.verify import (
    IPInfo,
    Reason,
    VerificationResult,
    VerifyConfig,
    thales_accept,
)

NOW = datetime(2026, 8, 9, 12, 0, 0, tzinfo=timezone.utc)

SEEDS = (1, 2, 3, 4, 5)

# roughly 4000 km wide and 3000 km tall at these latitudes
BOUNDS = RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0)

CALIBRATED = DelayModel(circuitousness=1.5, lastmile_ms=5.0, jitter_ms=2.0, seed=0)
NOISELESS = DelayModel(circuitousness=1.5, lastmile_ms=5.0, jitter_ms=0.0, seed=0)

SIM_CFG = VerifyConfig(
    lambda_ms=5.0, probes_per_measurement=1, max_triangles=4, measurement_timeout=1.0
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE [FAIL] {label}", flush=True)
        raise
    print(f"ACCEPTANCE [PASS] {label}", flush=True)


def test_criterion_1_thales_oracle_equivalence():
    with criterion("1 delay test matches planar circle membership on 10^5 instances"):
        rng = random.Random(2026)
        start = time.monotonic()
        checked = 0
        for _ in range(100_000):
            v1 = (rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            v2 = (rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            x = (rng.uniform(-500.0, 1500.0), rng.uniform(-500.0, 1500.0))
            scale = rng.uniform(0.01, 10.0)
            d1 = scale * math.dist(v1, x)
            d2 = scale * math.dist(v2, x)
            dpair = scale * math.dist(v1, v2)
            lhs = d1 * d1 + d2 * d2
            rhs = dpair * dpair
            if abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0):
                continue  # within boundary tolerance, either answer is valid
            mid = ((v1[0] + v2[0]) / 2.0, (v1[1] + v2[1]) / 2.0)
            inside = math.dist(x, mid) <= math.dist(v1, v2) / 2.0
            assert thales_accept(d1, d2, dpair, dpair) == inside
            checked += 1
        elapsed = time.monotonic() - start
        assert checked > 95_000
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


def test_criterion_2_false_accept_rate_is_zero():
    with criterion("2 false assertions 3000+ km out: FA = 0 on 5 seeds"):
        start = time.monotonic()
        for seed in SEEDS:
            scenario = generate_scenario(
                20, 0, 100,
                bounds=BOUNDS,
                displacement_km=(3000.0, 6000.0),
                model=CALIBRATED,
                cfg=SIM_CFG,
                seed=seed,
            )
            report = run_experiment(scenario)
            assert report.total_false == 100
            assert report.accepted_false == 0
            assert report.fa_rate == 0.0, f"seed {seed}: fa={report.fa_rate}"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"


def test_criterion_3_false_reject_rate():
    with criterion("3 honest servers: FR <= 5% noisy, FR = 0 noise-free"):
        for seed in SEEDS:
            noisy = run_experiment(
                generate_scenario(
                    20, 100, 0, bounds=BOUNDS, model=CALIBRATED, cfg=SIM_CFG, seed=seed
                )
            )
            assert noisy.total_true == 100
            assert noisy.fr_rate <= 0.05, f"seed {seed}: fr={noisy.fr_rate}"

            exact = run_experiment(
                generate_scenario(
                    20, 100, 0, bounds=BOUNDS, model=NOISELESS, cfg=SIM_CFG, seed=seed
                )
            )
            assert exact.fr_rate == 0.0, f"seed {seed}: noise-free fr={exact.fr_rate}"


def test_criterion_4_relay_adversaries_rejected():
    with criterion("4 relay adversaries 3000 km out: FA = 0 for 10/30/100 ms overhead"):
        for extra_ms in (10.0, 30.0, 100.0):
            scenario = generate_scenario(
                20, 0, 0, 50,
                relay_extra_ms=extra_ms,
                bounds=BOUNDS,
                displacement_km=(3000.0, 6000.0),
                model=CALIBRATED,
                cfg=SIM_CFG,
                seed=11,
            )
            report = run_experiment(scenario)
            assert report.total_false == 50
            assert report.fa_rate == 0.0, f"extra_ms={extra_ms}: fa={report.fa_rate}"


def _passed(loc: Location, ip: str, radius: float = 300.0, when=NOW) -> VerificationResult:
    return VerificationResult(
        ip=IPInfo(value=ip, loc=loc), veri_passed=True,
        region=Circle(loc, radius), when_veri=when,
    )


def _failed(loc: Location, ip: str) -> VerificationResult:
    return VerificationResult(
        ip=IPInfo(value=ip, loc=loc), veri_passed=False, region=None,
        when_veri=NOW, reason=Reason.ALL_TRIANGLES_REJECTED,
    )


def test_criterion_5_outcome_matrix_and_region_budget():
    with criterion("5 all six pinning branches plus the region budget invariant"):
        ottawa = Location(45.42, -75.69)
        munich = Location(48.14, 11.58)
        tokyo = Location(35.68, 139.69)

        # pinned + failed verification
        store = {}
        assert evaluate_pin(store, "a.example", _passed(ottawa, "1.1.1.1"), NOW) is Outcome.UNSUSPICIOUS
        assert evaluate_pin(store, "a.example", _failed(ottawa, "1.1.1.1"), NOW) is Outcome.CRITICAL

        # pinned + verified inside a pinned region
        nearby = destination_point(ottawa, 90.0, 50.0)
        assert evaluate_pin(store, "a.example", _passed(nearby, "2.2.2.2"), NOW) is Outcome.UNSUSPICIOUS
        assert len(store["a.example"].ver_regs) == 1
        assert len(store["a.example"].ips) == 2

        # pinned + verified outside all regions, budget available
        assert evaluate_pin(store, "a.example", _passed(munich, "3.3.3.3"), NOW) is Outcome.UNSUSPICIOUS
        assert len(store["a.example"].ver_regs) == 2

        # pinned + verified outside all regions, budget exhausted: Critical
        # despite the successful verification
        store["a.example"].rmax = 2
        assert evaluate_pin(store, "a.example", _passed(tokyo, "4.4.4.4"), NOW) is Outcome.CRITICAL
        assert len(store["a.example"].ver_regs) == 2

        # unpinned + verified
        assert evaluate_pin(store, "b.example", _passed(ottawa, "5.5.5.5"), NOW) is Outcome.UNSUSPICIOUS
        assert "b.example" in store

        # unpinned + unverified
        assert evaluate_pin(store, "c.example", _failed(ottawa, "6.6.6.6"), NOW) is Outcome.SUSPICIOUS
        assert "c.example" not in store

        # region budget invariant under 10^4 random results
        rng = random.Random(77)
        store = {}
        domains = [f"d{i}.example" for i in range(8)]
        for step in range(10_000):
            loc = Location(rng.uniform(-60, 60), rng.uniform(-179, 179))
            ip = f"{rng.randint(1, 250)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 250)}"
            if rng.random() < 0.7:
                result = _passed(loc, ip, radius=rng.uniform(10, 2500))
            else:
                result = _failed(loc, ip)
            evaluate_pin(store, rng.choice(domains), result, NOW, rmax=rng.randint(1, 4))
            if step % 100 == 0:
                for entry in store.values():
                    assert len(entry.ver_regs) <= entry.rmax
        for entry in store.values():
            assert len(entry.ver_regs) <= entry.rmax


class _CountingFactory:
    def __init__(self, verifier_locs, true_locs):
        self.verifier_locs = verifier_locs
        self.true_locs = dict(true_locs)
        self.calls = 0

    def __call__(self, ip):
        outer = self

        class Provider(IdealProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                outer.calls += 1
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        return Provider(self.verifier_locs, self.true_locs[ip], target_inflation_ms=5.0)


def test_criterion_6_cache_behaviour(tmp_path):
    with criterion("6 cache: zero measurements on hit, refresh on drift and expiry"):
        from slv.manager import load_verifier_registry

        registry_path = tmp_path / "verifiers.csv"
        registry_path.write_text("10.1.0.1,10,0\n10.1.0.2,-10,10\n10.1.0.3,-10,-10\n")
        registry = load_verifier_registry(registry_path)
        verifier_locs = {r.verifier_id: r.loc for r in registry.entries}
        origin = Location(0, 0)

        class Table:
            def __init__(self):
                self.loc = origin

            def locate(self, ip):
                return self.loc

        locator = Table()
        factory = _CountingFactory(verifier_locs, {"9.9.9.9": origin})
        service = ManagerService(
            registry, locator, factory,
            ManagerConfig(
                registry_path="x", cache_ttl=3600.0,
                verify=VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0),
            ),
        )

        first = service.handle_verify_request("9.9.9.9", now=NOW)
        assert first.veri_passed is True
        baseline = factory.calls
        assert baseline > 0

        # cache hit: not a single measurement issued
        again = service.handle_verify_request("9.9.9.9", now=NOW + timedelta(minutes=30))
        assert factory.calls == baseline
        assert again == first

        # the assertion moves by more than 1 km: cache bypassed
        locator.loc = destination_point(origin, 45.0, 2.0)
        factory.true_locs["9.9.9.9"] = locator.loc
        service.handle_verify_request("9.9.9.9", now=NOW + timedelta(minutes=31))
        after_drift = factory.calls
        assert after_drift > baseline

        # TTL expiry: cache bypassed again
        service.handle_verify_request("9.9.9.9", now=NOW + timedelta(hours=3))
        assert factory.calls > after_drift


def test_criterion_7_live_loopback_loop(tmp_path):
    with criterion("7 three live agents + manager answer GET /verify within 10 s"):
        agents = [AgentServer("127.0.0.1", 0, default_probes=2, default_timeout=2.0)
                  for _ in range(3)]
        for agent in agents:
            agent.serve_in_background()
        target = TcpListener()
        target.__enter__()
        try:
            ports = [agent.bound_address[1] for agent in agents]
            registry_path = tmp_path / "verifiers.csv"
            registry_path.write_text(
                f"127.0.0.1:{ports[0]},10,0\n"
                f"127.0.0.1:{ports[1]},-10,10\n"
                f"127.0.0.1:{ports[2]},-10,-10\n"
            )
            table_path = tmp_path / "table.csv"
            table_path.write_text("127.0.0.0/8,0.0,0.0\n")
            config_path = tmp_path / "manager.json"
            config_path.write_text(json.dumps({
                "registry": str(registry_path),
                "locator": {"provider": "static_table", "path": str(table_path)},
                "listen_host": "127.0.0.1",
                "listen_port": 0,
                "target_port": target.address[1],
                "probes_per_measurement": 2,
                "measurement_timeout": 2.0,
            }))
            cfg = ManagerConfig.from_file(config_path)
            service = ManagerService.from_config(cfg)
            api = ManagerHTTPServer(service, cfg.listen_host, cfg.listen_port)
            api.serve_in_background()
            try:
                host, port = api.bound_address
                start = time.monotonic()
                with urllib.request.urlopen(
                    f"http://{host}:{port}/verify?ip=127.0.0.1", timeout=10
                ) as response:
                    elapsed = time.monotonic() - start
                    body = json.loads(response.read())
                assert elapsed < 10.0

                # schema-valid: parses back into a result object
                result = VerificationResult.from_dict(body)
                assert body["ip"]["value"] == "127.0.0.1"
                assert isinstance(body["veri_passed"], bool)
                # loopback handshakes finish in the kernel, so measured
                # target RTTs sit far below the last-mile correction and
                # the truthful assertion must verify
                assert result.veri_passed is True
                assert result.region is not None

                with urllib.request.urlopen(
                    f"http://{host}:{port}/health", timeout=10
                ) as response:
                    health = json.loads(response.read())
                assert health["verifiers"] == 3
            finally:
                api.shutdown()
                api.server_close()
                service.close()
        finally:
            target.__exit__(None, None, None)
            for agent in agents:
                agent.shutdown()
                agent.server_close()


def test_criterion_8_geodesy_suite():
    with criterion("8 geodesy examples at stated tolerances plus triangle inequality"):
        # distances
        assert great_circle_distance(Location(0, 0), Location(0, 0)) == 0.0
        assert great_circle_distance(Location(0, 0), Location(0, 90)) == pytest.approx(
            10007.54, abs=0.01
        )
        assert great_circle_distance(Location(90, 0), Location(-90, 0)) == pytest.approx(
            20015.09, abs=0.01
        )

        # midpoints
        assert geodesic_midpoint(Location(0, 0), Location(0, 90)) == Location(0, 45)
        assert geodesic_midpoint(Location(10, 20), Location(10, 20)) == Location(10, 20)
        mid = geodesic_midpoint(Location(45, 0), Location(-45, 0))
        assert abs(mid.lat) < 1e-9 and abs(mid.lon) < 1e-9

        # circle containment
        assert point_in_circle(Location(0, 1), Circle(Location(0, 0), 500.0))
        centre_circle = Circle(Location(3, 4), 10.0)
        assert point_in_circle(centre_circle.centre, centre_circle)
        assert not point_in_circle(Location(0, 10), Circle(Location(0, 0), 500.0))

        # triangle containment
        tri = Triangle(
            (Location(10, 0), Location(-10, 10), Location(-10, -10)), ("a", "b", "c")
        )
        assert point_in_spherical_triangle(Location(-2.98, 0), tri)  # near the centroid
        assert not point_in_spherical_triangle(Location(2.98, 180), tri)
        assert point_in_spherical_triangle(Location(10, 0), tri)  # vertex on boundary

        # physical RTT floor
        assert min_rtt_for_distance(0) == 0.0
        assert min_rtt_for_distance(1000) == pytest.approx(10.007, abs=0.001)
        assert min_rtt_for_distance(100) == pytest.approx(1.0007, abs=0.0005)

        # triangle inequality on 10^4 random triples
        rng = random.Random(88)
        for _ in range(10_000):
            a = Location(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = Location(rng.uniform(-90, 90), rng.uniform(-180, 180))
            c = Location(rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert great_circle_distance(a, c) <= (
                great_circle_distance(a, b) + great_circle_distance(b, c) + 1e-6
            )
