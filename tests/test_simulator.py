import hashlib
import json
import math
import random
import re
import statistics
from collections import Counter
from dataclasses import fields

import pytest

from slv.geo import Location, destination_point, great_circle_distance, min_rtt_for_distance
from slv.simulator import (
    ADVERSARY_FALSE_ASSERTION,
    ADVERSARY_RELAY,
    Adversary,
    DelayModel,
    ExperimentReport,
    RegionBounds,
    ScenarioError,
    SimDelayProvider,
    SimScenario,
    SimServer,
    _jitter_fraction,
    generate_scenario,
    run_experiment,
    simulated_rtt,
)
from slv.verify import TARGET, VerifyConfig

# roughly 3000 km tall and 4000 km wide at these latitudes
BOUNDS = RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0)

CALIBRATED = DelayModel(circuitousness=1.5, lastmile_ms=5.0, jitter_ms=2.0, seed=0)
NOISELESS = DelayModel(circuitousness=1.0, lastmile_ms=5.0, jitter_ms=0.0, seed=0)

# sha256 of the run_experiment rows of TestRunExperiment's golden scenarios,
# recorded when each edge's jitter came to be drawn from a keyed BLAKE2b
# hash instead of a freshly seeded random.Random.
GOLDEN_VERDICT_DIGEST = "680307a857181d55334fc061b951855d26b838b46a8174aee4ee3c1e001ffaa7"

# draw 0 of the edge key "0/7/v1/target"
PINNED_DRAW = 0.5261982005545089

# sha256 of the generate_scenario output of TestGenerateScenario's golden
# configurations, recorded before server placement moved from a scan of
# all verifier triples to the hull test.
GOLDEN_SCENARIO_DIGEST = "ddfa55cb50b32c997f5e0520eee5a8021268be6291144fac514820775fa154ed"


def quick_cfg(**overrides) -> VerifyConfig:
    defaults = dict(lambda_ms=5.0, probes_per_measurement=1, max_triangles=4,
                    measurement_timeout=1.0)
    defaults.update(overrides)
    return VerifyConfig(**defaults)


# the draws a jitter fraction is given in the tests: the least and the
# greatest possible, and one between
FRACTIONS = (0.0, 0.5, math.nextafter(1.0, 0.0))


def spec_draw(key: str, k: int) -> float:
    """Draw k of an edge key as the README defines it, written out apart
    from slv."""
    salt = k.to_bytes(16, "little")
    digest = hashlib.blake2b(key.encode(), digest_size=8, salt=salt).digest()
    return (int.from_bytes(digest, "big") >> 11) / 2.0**53


class TestSimulatedRtt:
    def test_zero_distance_no_noise(self):
        model = DelayModel(circuitousness=1.0, lastmile_ms=5.0, jitter_ms=0.0, seed=1)
        for fraction in FRACTIONS:
            assert simulated_rtt(Location(1, 1), Location(1, 1), model, fraction, False) == 0.0

    def test_target_edge_with_circuitousness_and_lastmile(self):
        model = DelayModel(circuitousness=1.5, lastmile_ms=5.0, jitter_ms=0.0, seed=1)
        a = Location(0, 0)
        b = destination_point(a, 90, 1000.0)
        for fraction in FRACTIONS:
            assert simulated_rtt(a, b, model, fraction, True) == pytest.approx(20.01, abs=0.01)

    def test_jitter_is_the_fraction_of_jitter_ms(self):
        model = DelayModel(seed=42)
        a, b = Location(10, 10), Location(20, 30)
        base = simulated_rtt(a, b, model, 0.0, True)
        for fraction in FRACTIONS:
            rtt = simulated_rtt(a, b, model, fraction, True)
            assert rtt == simulated_rtt(a, b, model, fraction, True)
            assert rtt == base + model.jitter_ms * fraction
            assert base <= rtt <= base + model.jitter_ms

    def test_never_below_physical_bound(self):
        rng = random.Random(51)
        for index in range(2000):
            a = Location(rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = Location(rng.uniform(-80, 80), rng.uniform(-179, 179))
            model = DelayModel(
                circuitousness=rng.uniform(1.0, 3.0),
                lastmile_ms=rng.uniform(0, 10),
                jitter_ms=rng.uniform(0, 5),
                seed=rng.randint(0, 10_000),
            )
            is_target = rng.random() < 0.5
            rtt = simulated_rtt(a, b, model, FRACTIONS[index % 3], is_target)
            assert rtt >= min_rtt_for_distance(great_circle_distance(a, b))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DelayModel(circuitousness=0.9)
        with pytest.raises(ValueError):
            DelayModel(jitter_ms=-1)

    def test_model_keys_left_out_keep_the_defaults(self):
        assert DelayModel.from_dict({}) == DelayModel()
        model = DelayModel.from_dict({"jitter_ms": 8, "seed": 3.0})
        assert model == DelayModel(jitter_ms=8.0, seed=3)
        assert type(model.jitter_ms) is float and type(model.seed) is int
        assert DelayModel.from_dict(CALIBRATED.to_dict()) == CALIBRATED


THREE_VERIFIERS = {"v1": Location(40, -100), "v2": Location(45, -90), "v3": Location(35, -95)}
EDGES = [(v, e) for v in THREE_VERIFIERS for e in (TARGET, *THREE_VERIFIERS) if e != v]


class TestSimDelayProvider:
    def test_edge_measurements_are_stable_and_order_free(self):
        verifiers = {"v1": Location(40, -100), "v2": Location(45, -90), "v3": Location(35, -95)}
        provider = SimDelayProvider(verifiers, Location(41, -96), CALIBRATED, stream="7")
        forward = [provider.measure("v1", TARGET, 1, 1), provider.measure("v1", "v2", 1, 1)]
        backward = [provider.measure("v1", "v2", 1, 1), provider.measure("v1", TARGET, 1, 1)]
        assert forward == list(reversed(backward))

    def test_streams_differ(self):
        verifiers = {"v1": Location(40, -100), "v2": Location(45, -90)}
        a = SimDelayProvider(verifiers, Location(41, -96), CALIBRATED, stream="1")
        b = SimDelayProvider(verifiers, Location(41, -96), CALIBRATED, stream="2")
        assert a.measure("v1", TARGET, 1, 1) != b.measure("v1", TARGET, 1, 1)

    def test_relay_overhead_hits_target_edges_only(self):
        verifiers = {"v1": Location(40, -100), "v2": Location(45, -90)}
        plain = SimDelayProvider(verifiers, Location(41, -96), CALIBRATED, stream="1")
        relay = SimDelayProvider(verifiers, Location(41, -96), CALIBRATED, stream="1",
                                 extra_target_ms=30.0)
        assert relay.measure("v1", TARGET, 1, 1) == plain.measure("v1", TARGET, 1, 1) + 30.0
        assert relay.measure("v1", "v2", 1, 1) == plain.measure("v1", "v2", 1, 1)

    @staticmethod
    def provider(stream="7", model=CALIBRATED) -> SimDelayProvider:
        return SimDelayProvider(THREE_VERIFIERS, Location(41, -96), model, stream=stream)

    @pytest.mark.parametrize("probes", [1, 3])
    def test_values_are_those_of_fresh_providers_in_any_order(self, monkeypatch, probes):
        # the provider keeps no state: one provider reads, in any call
        # order, what a fresh provider per call reads, and hashes each
        # (edge, probe) once per call (the engine asks for an edge once
        # per verification)
        expected = {(v, e): self.provider().measure(v, e, probes, 1) for v, e in EDGES}
        keys = []

        def counting(data, **kwargs):
            keys.append((data, kwargs.get("salt", bytes(16))))
            return hashlib.blake2b(data, **kwargs)

        monkeypatch.setattr("slv.simulator.blake2b", counting)
        provider = self.provider()
        for order in (EDGES, list(reversed(EDGES)), EDGES):
            assert {(v, e): provider.measure(v, e, probes, 1) for v, e in order} == expected
        assert len(keys) == 3 * len(set(keys)) == 3 * len(EDGES) * probes

    def test_a_pinned_key_gives_a_pinned_draw(self):
        # a change to the key, the hash, the bits taken or the scaling
        # changes every simulated verdict; it must show here first
        assert spec_draw("0/7/v1/target", 0) == PINNED_DRAW
        jitter = CALIBRATED.jitter_ms * PINNED_DRAW
        floor = simulated_rtt(THREE_VERIFIERS["v1"], Location(41, -96), CALIBRATED, 0.0, True)
        assert self.provider().measure("v1", TARGET, 1, 1) == floor + jitter

    def test_draws_are_uniform_on_the_unit_interval(self):
        # a target at a verifier's own location under a model whose RTT is
        # the jitter alone reads the draw itself
        model = DelayModel(circuitousness=1.0, lastmile_ms=0.0, jitter_ms=1.0)
        v1 = {"v1": THREE_VERIFIERS["v1"]}
        draws = [
            SimDelayProvider(v1, v1["v1"], model, stream=str(s)).measure("v1", TARGET, 1, 1)
            for s in range(20_000)
        ]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert abs(statistics.fmean(draws) - 0.5) < 0.01
        deciles = Counter(int(d * 10) for d in draws)
        assert sorted(deciles) == list(range(10))
        assert all(1800 <= count <= 2200 for count in deciles.values())

    def test_draws_differ_across_streams_directions_and_probes(self):
        draws = {spec_draw(f"0/{stream}/{v}/{e}", k)
                 for stream in ("1", "2") for v, e in EDGES for k in range(3)}
        assert len(draws) == 2 * len(EDGES) * 3
        a, b = self.provider(stream="1"), self.provider(stream="2")
        assert a.measure("v1", TARGET, 1, 1) != b.measure("v1", TARGET, 1, 1)
        assert a.measure("v1", "v2", 1, 1) != a.measure("v2", "v1", 1, 1)

    def test_an_edge_reads_the_least_of_its_probes_draws(self):
        model = DelayModel(jitter_ms=8.0, seed=3)
        provider = self.provider(model=model)
        single = self.provider(model=model)
        lowered = 0
        for v, e in EDGES:
            dest = Location(41, -96) if e == TARGET else THREE_VERIFIERS[e]
            floor = simulated_rtt(THREE_VERIFIERS[v], dest, model, 0.0, e == TARGET)
            least = min(spec_draw(f"3/7/{v}/{e}", k) for k in range(5))
            rtt = provider.measure(v, e, 5, 1)
            assert rtt == floor + model.jitter_ms * least
            assert rtt <= single.measure(v, e, 1, 1)
            lowered += rtt < single.measure(v, e, 1, 1)
            # one provider keeps the value of each probe count apart
            assert provider.measure(v, e, 1, 1) == single.measure(v, e, 1, 1)
            assert provider.measure(v, e, 5, 1) == rtt
        assert lowered > 0

    @pytest.mark.parametrize("probes", [1, 3])
    def test_each_edge_reads_simulated_rtt_of_its_draw(self, probes):
        # one delay formula: every directed edge is simulated_rtt with its
        # edge's jitter draw, plus the relay's overhead on target edges
        scenario = generate_scenario(12, 1, 1, 1, bounds=BOUNDS, model=CALIBRATED, seed=5)
        assert [server.adversary.extra_ms for server in scenario.servers] == [0.0, 0.0, 30.0]
        locs = dict(scenario.verifiers)
        model = scenario.model
        for index, server in enumerate(scenario.servers):
            extra = server.adversary.extra_ms
            provider = SimDelayProvider(locs, server.true_loc, model, stream=str(index),
                                        extra_target_ms=extra)
            for v in locs:
                for e in [w for w in locs if w != v] + [TARGET]:
                    is_target = e == TARGET
                    fraction = _jitter_fraction(f"{model.seed}/{index}/{v}/{e}", probes)
                    dest = server.true_loc if is_target else locs[e]
                    expected = simulated_rtt(locs[v], dest, model, fraction, is_target)
                    if is_target:
                        expected += extra
                    assert provider.measure(v, e, probes, 1).hex() == expected.hex(), (v, e)


class TestScenarioTypes:
    def test_honest_server_must_assert_truthfully(self):
        with pytest.raises(ValueError):
            SimServer(true_loc=Location(0, 0), asserted_loc=Location(1, 1))

    def test_adversary_validation(self):
        with pytest.raises(ValueError):
            Adversary("nonsense")
        with pytest.raises(ValueError):
            Adversary(ADVERSARY_FALSE_ASSERTION, extra_ms=3)
        Adversary(ADVERSARY_RELAY, extra_ms=3)

    @pytest.mark.parametrize("kind", [7, None, True])
    def test_adversary_type_is_read_as_written(self, tmp_path, kind):
        with pytest.raises(ValueError, match=f"unknown adversary kind: {kind!r}"):
            Adversary.from_dict({"type": kind})
        data = generate_scenario(5, 1, 1, 1, bounds=BOUNDS, cfg=quick_cfg(), seed=3).to_dict()
        data["servers"][1]["adversary"]["type"] = kind
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="unknown adversary kind"):
            SimScenario.load(path)

    @pytest.mark.parametrize("section, key, value, shown", [
        ("model", "jitter_ms", math.nan, "nan"),
        ("model", "circuitousness", math.inf, "inf"),
        ("model", "lastmile_ms", -math.inf, "-inf"),
        ("model", "seed", 1.5, "1.5"),
        ("model", "seed", True, "True"),
        ("model", "jitter_ms", True, "True"),
        ("model", "jitter_ms", "2", "'2'"),
        ("cfg", "lambda_ms", math.nan, "nan"),
        ("cfg", "measurement_timeout", "5", "'5'"),
        ("relay", "extra_ms", math.nan, "nan"),
    ])
    def test_bad_numbers_are_scenario_errors_naming_key_and_value(
        self, tmp_path, section, key, value, shown
    ):
        data = generate_scenario(5, 1, 1, 1, bounds=BOUNDS, cfg=quick_cfg(), seed=3).to_dict()
        target = data["servers"][2]["adversary"] if section == "relay" else data[section]
        target[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))  # NaN and Infinity as Python's JSON writes them
        with pytest.raises(ScenarioError, match=re.escape(f"{key} must be")) as err:
            SimScenario.load(path)
        assert f"got {shown}" in str(err.value)

    @pytest.mark.parametrize("path, value, message", [
        (("verifiers", 0, "lat"), True, "lat must be a finite number"),
        (("verifiers", 1, "lon"), "10", "lon must be a finite number"),
        (("verifiers", 2, "id"), 7, "verifier id must be a string"),
        (("servers", 0, "asserted_loc", "lat"), "45", "lat must be a finite number"),
        (("servers", 1, "true_loc", "lon"), False, "lon must be a finite number"),
    ])
    def test_coordinates_and_ids_are_read_as_written(self, tmp_path, path, value, message):
        data = generate_scenario(5, 1, 1, 1, bounds=BOUNDS, cfg=quick_cfg(), seed=3).to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=re.escape(message)) as err:
            SimScenario.load(scenario_path)
        assert f"got {value!r}" in str(err.value)

    @pytest.mark.parametrize("section, key", [
        (None, "verifier"), (None, "model_"), ("model", "jiter_ms"), ("model", "Seed"),
        ("cfg", "max_triangle"), ("cfg", "probes"),
    ])
    def test_unknown_keys_are_scenario_errors_naming_the_key(self, tmp_path, section, key):
        # a misspelled key used to keep its default silently
        data = generate_scenario(5, 1, 1, 1, bounds=BOUNDS, cfg=quick_cfg(), seed=3).to_dict()
        (data if section is None else data[section])[key] = 8
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=re.escape(f"unknown key {key!r}")):
            SimScenario.load(path)

    def test_integral_float_seed_is_kept_as_an_integer(self):
        assert DelayModel.from_dict({"seed": 7.0}).seed == 7
        assert type(DelayModel(seed=7.0).seed) is int

    def test_model_dict_is_its_fields_in_order_and_round_trips(self):
        model = DelayModel(circuitousness=1.25, lastmile_ms=3.0, jitter_ms=0.5, seed=9)
        assert list(model.to_dict()) == [f.name for f in fields(DelayModel)]
        assert DelayModel.from_dict(model.to_dict()) == model

    def test_report_dict_is_its_fields_in_order(self):
        scenario = generate_scenario(5, 1, 1, 1, bounds=BOUNDS, cfg=quick_cfg(), seed=3)
        report = run_experiment(scenario)
        data = report.to_dict()
        assert list(data) == [f.name for f in fields(ExperimentReport)]
        assert data["servers"] is report.servers  # not copied row by row

    def test_scenario_json_round_trip(self, tmp_path):
        scenario = generate_scenario(
            5, 2, 2, 1, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=3
        )
        path = tmp_path / "scenario.json"
        scenario.save(path)
        assert SimScenario.load(path) == scenario


class TestGenerateScenario:
    def test_deterministic_per_seed(self):
        kwargs = dict(bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg())
        assert generate_scenario(6, 3, 3, seed=11, **kwargs) == generate_scenario(
            6, 3, 3, seed=11, **kwargs
        )
        assert generate_scenario(6, 3, 3, seed=11, **kwargs) != generate_scenario(
            6, 3, 3, seed=12, **kwargs
        )

    def test_rejects_too_few_verifiers(self):
        with pytest.raises(ScenarioError):
            generate_scenario(2, 1, 0, bounds=BOUNDS)

    def test_zero_servers_fail_downstream(self):
        scenario = generate_scenario(5, 0, 0, bounds=BOUNDS, seed=1)
        with pytest.raises(ScenarioError):
            run_experiment(scenario)

    def test_displacement_respected(self):
        scenario = generate_scenario(
            8, 0, 10, bounds=BOUNDS, displacement_km=(3000.0, 6000.0), seed=5
        )
        for server in scenario.servers:
            d = great_circle_distance(server.true_loc, server.asserted_loc)
            assert 3000.0 <= d <= 6000.0 + 1e-6

    def test_scenarios_match_golden_digest(self):
        # generate_scenario output must not drift per seed, byte for byte:
        # server placement draws until a point is covered, so a coverage
        # test that answers differently on one draw shifts every later
        # draw. The first two are shaped like the sim_sweep benchmark's
        # layouts; the others cover 3 verifiers, a polar cap, the equator
        # and a layout spanning more than a hemisphere.
        cases = (
            (40, 3, 2, 1, BOUNDS, 23),
            (40, 3, 2, 1, BOUNDS, 701),
            (12, 10, 5, 5, BOUNDS, 4),
            (3, 4, 2, 0, BOUNDS, 5),
            (16, 6, 3, 0, RegionBounds(62.0, 89.0, -180.0, 180.0), 6),
            (16, 6, 3, 0, RegionBounds(-10.0, 10.0, -40.0, 40.0), 7),
            (10, 6, 3, 0, RegionBounds(-60.0, 60.0, -180.0, 180.0), 8),
        )
        blobs = [
            json.dumps(
                generate_scenario(
                    verifiers, honest, false_assertion, relay,
                    bounds=bounds, model=CALIBRATED, cfg=quick_cfg(), seed=seed,
                ).to_dict(),
                sort_keys=True,
            )
            for verifiers, honest, false_assertion, relay, bounds, seed in cases
        ]
        digest = hashlib.sha256("\n".join(blobs).encode()).hexdigest()
        assert digest == GOLDEN_SCENARIO_DIGEST


class TestRunExperiment:
    def test_honest_population_mostly_accepted(self):
        scenario = generate_scenario(
            20, 50, 0, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=101
        )
        report = run_experiment(scenario)
        assert report.total_true == 50
        assert report.fa_rate is None
        assert report.fr_rate <= 0.05

    def test_noise_free_honest_population_fully_accepted(self):
        scenario = generate_scenario(
            20, 50, 0, bounds=BOUNDS, model=NOISELESS, cfg=quick_cfg(), seed=7
        )
        report = run_experiment(scenario)
        assert report.fr_rate == 0.0

    def test_false_assertions_all_rejected(self):
        scenario = generate_scenario(
            20, 0, 50, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=13
        )
        report = run_experiment(scenario)
        assert report.total_false == 50
        assert report.fr_rate is None
        assert report.fa_rate == 0.0

    def test_relay_adversaries_all_rejected(self):
        scenario = generate_scenario(
            20, 0, 0, 10, relay_extra_ms=30.0,
            bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=17,
        )
        report = run_experiment(scenario)
        assert report.fa_rate == 0.0

    def test_report_arithmetic(self):
        scenario = generate_scenario(
            12, 20, 20, 5, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=19
        )
        report = run_experiment(scenario)
        assert report.total_true == 20
        assert report.total_false == 25
        assert report.fr_rate == (report.total_true - report.accepted_true) / report.total_true
        assert report.fa_rate == report.accepted_false / report.total_false
        assert len(report.servers) == 45
        accepted = sum(1 for row in report.servers if row["accepted"])
        assert accepted == report.accepted_true + report.accepted_false

    def test_coverage_hole_raises_instead_of_counting_fr(self):
        verifiers = [("v1", Location(10, 0)), ("v2", Location(-10, 10)), ("v3", Location(-10, -10))]
        uncovered = Location(50, 50)
        scenario = SimScenario(
            verifiers=verifiers,
            servers=[SimServer(true_loc=uncovered, asserted_loc=uncovered)],
            model=NOISELESS,
            cfg=quick_cfg(),
        )
        with pytest.raises(ScenarioError):
            run_experiment(scenario)

    def test_uncovered_adversarial_assertion_is_just_a_reject(self):
        verifiers = [("v1", Location(10, 0)), ("v2", Location(-10, 10)), ("v3", Location(-10, -10))]
        scenario = SimScenario(
            verifiers=verifiers,
            servers=[
                SimServer(
                    true_loc=Location(50, 50),
                    asserted_loc=Location(55, 55),
                    adversary=Adversary(ADVERSARY_FALSE_ASSERTION),
                )
            ],
            model=NOISELESS,
            cfg=quick_cfg(),
        )
        report = run_experiment(scenario)
        assert report.fa_rate == 0.0
        assert report.servers[0]["reason"] == "NoCoverage"

    def test_too_few_verifiers_rejected(self):
        scenario = SimScenario(
            verifiers=[("v1", Location(0, 0)), ("v2", Location(1, 1))],
            servers=[SimServer(true_loc=Location(0, 0), asserted_loc=Location(0, 0))],
        )
        with pytest.raises(ScenarioError):
            run_experiment(scenario)

    def test_deterministic_report(self):
        scenario = generate_scenario(
            10, 10, 10, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=23
        )
        assert run_experiment(scenario) == run_experiment(scenario)

    def test_verdicts_match_golden_digest(self):
        # Verdicts over fixed scenarios must not drift, bit for bit: any
        # change to the engine, the geometry or the simulator that moves
        # one verdict or reason changes this digest. Small displacements
        # and a thin relay overhead, with heavy jitter, put many servers
        # near the acceptance boundary, where drift shows first.
        rows = []
        for num_verifiers, seed in ((40, 1), (40, 2), (12, 3), (12, 4)):
            scenario = generate_scenario(
                num_verifiers, 12, 6, 6, bounds=BOUNDS, relay_extra_ms=4.0,
                displacement_km=(50.0, 800.0), model=DelayModel(jitter_ms=8.0),
                cfg=quick_cfg(), seed=seed,
            )
            rows.append(run_experiment(scenario).servers)
        outcomes = Counter((r["adversary"], r["accepted"]) for servers in rows for r in servers)
        # every kind is present and sees both verdicts
        assert {kind for kind, _ in outcomes} == {"none", ADVERSARY_FALSE_ASSERTION, ADVERSARY_RELAY}
        assert len(outcomes) == 6
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_VERDICT_DIGEST

    def test_text_table_shape(self):
        scenario = generate_scenario(
            10, 3, 2, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=29
        )
        table = run_experiment(scenario).text_table()
        lines = table.splitlines()
        assert len(lines) == 1 + 5 + 1  # header, rows, summary
        assert "FR" in lines[-1] and "FA" in lines[-1]


class TestRelayDominance:
    def test_relay_never_more_permissive_than_false_assertion(self):
        # a relay adds delay on top of the very same noise stream, so at
        # equal geometry it can only lose pairs that the plain false
        # assertion already lost
        base = generate_scenario(
            15, 0, 20, bounds=BOUNDS, model=CALIBRATED, cfg=quick_cfg(), seed=31
        )
        relayed = SimScenario(
            verifiers=base.verifiers,
            servers=[
                SimServer(
                    true_loc=s.true_loc,
                    asserted_loc=s.asserted_loc,
                    adversary=Adversary(ADVERSARY_RELAY, extra_ms=25.0),
                )
                for s in base.servers
            ],
            model=base.model,
            cfg=base.cfg,
        )
        fa_plain = run_experiment(base).fa_rate
        fa_relay = run_experiment(relayed).fa_rate
        assert fa_relay <= fa_plain
