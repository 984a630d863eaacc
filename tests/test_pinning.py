import copy
import io
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from slv.geo import Circle, Location, destination_point
from slv.pinning import (
    DEFAULT_RMAX,
    CorruptStoreError,
    Outcome,
    PinEntry,
    containment_check,
    evaluate_pin,
    load_store,
    persist_store,
)
from slv.verify import IPInfo, Reason, VerificationResult

NOW = datetime(2026, 8, 9, 12, 0, 0, tzinfo=timezone.utc)

OTTAWA = Location(45.42, -75.69)
MUNICH = Location(48.14, 11.58)


def passed_result(loc=OTTAWA, ip="1.2.3.4", radius=300.0, when=NOW) -> VerificationResult:
    return VerificationResult(
        ip=IPInfo(value=ip, loc=loc),
        veri_passed=True,
        region=Circle(centre=loc, radius=radius),
        when_veri=when,
    )


def failed_result(loc=OTTAWA, ip="1.2.3.4") -> VerificationResult:
    return VerificationResult(
        ip=IPInfo(value=ip, loc=loc),
        veri_passed=False,
        region=None,
        when_veri=NOW,
        reason=Reason.ALL_TRIANGLES_REJECTED,
    )


class TestContainmentCheck:
    def test_first_match_wins(self):
        regs = [Circle(OTTAWA, 500), Circle(OTTAWA, 5000)]
        assert containment_check(OTTAWA, regs) == 0

    def test_list_order_not_size_decides(self):
        regs = [Circle(OTTAWA, 5000), Circle(OTTAWA, 500)]
        assert containment_check(OTTAWA, regs) == 0

    def test_absent_when_outside_all(self):
        assert containment_check(MUNICH, [Circle(OTTAWA, 500)]) is None
        assert containment_check(MUNICH, []) is None


class TestPinEntry:
    def test_rejects_uppercase_or_empty_name(self):
        with pytest.raises(ValueError):
            PinEntry(name="Example.COM")
        with pytest.raises(ValueError):
            PinEntry(name="")

    @pytest.mark.parametrize("name", [7, None, 1.5])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match=f"name must be a string, got {name!r}"):
            PinEntry(name=name)
        with pytest.raises(ValueError, match=f"name must be a string, got {name!r}"):
            PinEntry.from_dict({"name": name})

    def test_rejects_region_overflow(self):
        with pytest.raises(ValueError):
            PinEntry(name="example.com", rmax=1,
                     ver_regs=[Circle(OTTAWA, 1), Circle(MUNICH, 1)])

    def test_rejects_duplicate_ips(self):
        ip = IPInfo(value="1.2.3.4", loc=OTTAWA)
        with pytest.raises(ValueError):
            PinEntry(name="example.com", ips=[ip, ip])

    def test_dict_round_trip(self):
        entry = PinEntry(
            name="example.com",
            ips=[IPInfo(value="1.2.3.4", loc=OTTAWA)],
            ver_regs=[Circle(OTTAWA, 300)],
            rmax=2,
            when_veri=NOW,
            when_pin=NOW,
        )
        assert PinEntry.from_dict(entry.to_dict()) == entry


class TestEvaluatePinBranches:
    def test_unpinned_verified_creates_pin(self):
        store = {}
        outcome = evaluate_pin(store, "Example.COM", passed_result(), NOW)
        assert outcome is Outcome.UNSUSPICIOUS
        entry = store["example.com"]
        assert [ip.value for ip in entry.ips] == ["1.2.3.4"]
        assert entry.ver_regs == [passed_result().region]
        assert entry.rmax == DEFAULT_RMAX
        assert entry.when_pin == NOW
        assert entry.when_veri == NOW

    def test_unpinned_unverified_is_suspicious(self):
        store = {}
        outcome = evaluate_pin(store, "example.com", failed_result(), NOW)
        assert outcome is Outcome.SUSPICIOUS
        assert store == {}

    def test_pinned_unverified_is_critical(self):
        store = {}
        evaluate_pin(store, "example.com", passed_result(), NOW)
        snapshot = copy.deepcopy(store)
        outcome = evaluate_pin(store, "example.com", failed_result(), NOW)
        assert outcome is Outcome.CRITICAL
        assert store == snapshot

    def test_pinned_verified_inside_region_updates_entry(self):
        store = {}
        evaluate_pin(store, "example.com", passed_result(), NOW)
        later = NOW + timedelta(hours=1)
        nearby = destination_point(OTTAWA, 90, 50)  # inside the 300 km region
        result = passed_result(loc=nearby, ip="5.6.7.8", when=later)
        outcome = evaluate_pin(store, "example.com", result, later)
        assert outcome is Outcome.UNSUSPICIOUS
        entry = store["example.com"]
        assert [ip.value for ip in entry.ips] == ["1.2.3.4", "5.6.7.8"]
        assert len(entry.ver_regs) == 1  # no new region
        assert entry.when_veri == later

    def test_known_ip_gets_location_refreshed_in_place(self):
        store = {}
        evaluate_pin(store, "example.com", passed_result(), NOW)
        nearby = destination_point(OTTAWA, 0, 10)
        evaluate_pin(store, "example.com", passed_result(loc=nearby, ip="1.2.3.4"), NOW)
        entry = store["example.com"]
        assert len(entry.ips) == 1
        assert entry.ips[0].loc == nearby

    def test_pinned_verified_outside_with_budget_appends_region(self):
        store = {}
        evaluate_pin(store, "example.com", passed_result(), NOW)
        result = passed_result(loc=MUNICH, ip="9.9.9.9")
        outcome = evaluate_pin(store, "example.com", result, NOW)
        assert outcome is Outcome.UNSUSPICIOUS
        entry = store["example.com"]
        assert len(entry.ver_regs) == 2
        assert entry.ver_regs[1] == result.region
        # only the region list changes on this branch
        assert [ip.value for ip in entry.ips] == ["1.2.3.4"]

    def test_pinned_verified_outside_with_exhausted_budget_is_critical(self):
        store = {}
        evaluate_pin(store, "example.com", passed_result(), NOW, rmax=1)
        snapshot = copy.deepcopy(store)
        outcome = evaluate_pin(store, "example.com", passed_result(loc=MUNICH), NOW)
        assert outcome is Outcome.CRITICAL
        assert store == snapshot

    def test_policy_hook_sees_the_outcome(self):
        seen = []
        store = {}
        evaluate_pin(
            store, "example.com", passed_result(), NOW,
            policy_hook=lambda d, o, r: seen.append((d, o, r.veri_passed)),
        )
        assert seen == [("example.com", Outcome.UNSUSPICIOUS, True)]


class TestEvaluatePinProperties:
    def random_result(self, rng: random.Random) -> VerificationResult:
        loc = Location(rng.uniform(-60, 60), rng.uniform(-179, 179))
        ip = f"{rng.randint(1, 250)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 250)}"
        if rng.random() < 0.75:
            return passed_result(loc=loc, ip=ip, radius=rng.uniform(10, 2000))
        return failed_result(loc=loc, ip=ip)

    def test_region_budget_never_exceeded(self):
        rng = random.Random(31)
        domains = [f"d{i}.example" for i in range(5)]
        store = {}
        for _ in range(2000):
            domain = rng.choice(domains)
            rmax = rng.randint(1, 4)
            outcome = evaluate_pin(store, domain, self.random_result(rng), NOW, rmax=rmax)
            for entry in store.values():
                assert len(entry.ver_regs) <= entry.rmax
            if outcome is Outcome.CRITICAL:
                assert domain in store  # critical only ever fires on a pinned domain

    def test_ip_count_is_unbounded(self):
        store = {}
        for i in range(50):
            evaluate_pin(store, "example.com", passed_result(ip=f"10.0.0.{i + 1}"), NOW)
        assert len(store["example.com"].ips) == 50

    def test_replay_is_idempotent(self):
        store = {}
        result = passed_result()
        assert evaluate_pin(store, "example.com", result, NOW) is Outcome.UNSUSPICIOUS
        snapshot = copy.deepcopy(store)
        assert evaluate_pin(store, "example.com", result, NOW) is Outcome.UNSUSPICIOUS
        assert store == snapshot

    def test_no_mutation_on_suspicious_or_critical(self):
        rng = random.Random(37)
        store = {}
        for _ in range(500):
            evaluate_pin(store, f"d{rng.randint(0, 3)}.example",
                         self.random_result(rng), NOW, rmax=2)
        snapshot = copy.deepcopy(store)
        for domain in list(store) + ["unpinned.example"]:
            outcome = evaluate_pin(store, domain, failed_result(), NOW)
            assert outcome in (Outcome.CRITICAL, Outcome.SUSPICIOUS)
            assert store == snapshot


class TestStorePersistence:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "pins.json"
        persist_store({}, path)
        assert load_store(path) == {}

    def test_two_domain_round_trip(self, tmp_path):
        path = tmp_path / "pins.json"
        store = {}
        evaluate_pin(store, "a.example", passed_result(), NOW)
        evaluate_pin(store, "b.example", passed_result(loc=MUNICH, ip="9.9.9.9"), NOW)
        persist_store(store, path)
        assert load_store(path) == store

    def test_file_bytes_match_json_dump(self, tmp_path):
        # the store is written in one piece; the bytes are json.dump's
        path = tmp_path / "pins.json"
        store = {}
        evaluate_pin(store, "b.example", passed_result(loc=MUNICH, ip="9.9.9.9"), NOW)
        evaluate_pin(store, "a.example", passed_result(), NOW)
        persist_store(store, path)
        expected = io.StringIO()
        json.dump([store[name].to_dict() for name in sorted(store)], expected, indent=2)
        expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_missing_file_is_empty_store(self, tmp_path):
        assert load_store(tmp_path / "nope.json") == {}

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "pins.json"
        store = {}
        evaluate_pin(store, "a.example", passed_result(), NOW)
        persist_store(store, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CorruptStoreError):
            load_store(path)
        # the broken file is left as is for inspection
        assert path.exists()

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "pins.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(CorruptStoreError):
            load_store(path)

    @pytest.mark.parametrize("name", [7, None])
    def test_non_string_name_is_a_corrupt_store(self, tmp_path, name):
        path = tmp_path / "pins.json"
        store = {}
        evaluate_pin(store, "a.example", passed_result(), NOW)
        persist_store(store, path)
        entries = json.loads(path.read_text())
        entries[0]["name"] = name
        path.write_text(json.dumps(entries))
        with pytest.raises(CorruptStoreError, match="name must be a string"):
            load_store(path)

    def test_numeric_timestamp_is_a_corrupt_store(self, tmp_path):
        path = tmp_path / "pins.json"
        store = {}
        evaluate_pin(store, "a.example", passed_result(), NOW)
        persist_store(store, path)
        entries = json.loads(path.read_text())
        entries[0]["when_veri"] = 7
        path.write_text(json.dumps(entries))
        with pytest.raises(CorruptStoreError, match="timestamp must be a string, got 7"):
            load_store(path)

    @pytest.mark.parametrize("rmax", [2.9, True, "3", 0, None])
    def test_rmax_is_read_as_written(self, tmp_path, rmax):
        path = tmp_path / "pins.json"
        store = {}
        evaluate_pin(store, "a.example", passed_result(), NOW)
        persist_store(store, path)
        entries = json.loads(path.read_text())
        entries[0]["rmax"] = rmax
        path.write_text(json.dumps(entries))
        with pytest.raises(CorruptStoreError, match="rmax must be an integer >= 1"):
            load_store(path)
