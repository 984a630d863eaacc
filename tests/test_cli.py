import io
import json
import math
import socket
import sqlite3
import subprocess
import sys
import urllib.request
from contextlib import closing
from datetime import datetime, timedelta, timezone

import pytest

from conftest import IdealProvider, binds_ipv6_loopback, free_port
from slv import cli
from slv.agent import AgentServer
from slv.geo import Circle, Location, destination_point
from slv.manager import (
    CacheEntry,
    ManagerConfig,
    ManagerHTTPServer,
    ManagerService,
    UnknownAddressError,
    load_verifier_registry,
)
from slv.pinning import Outcome, PinEntry, load_store, persist_store
from slv.simulator import DelayModel, RegionBounds, generate_scenario, run_experiment
from slv.verify import IPInfo, Reason, VerificationResult, VerifyConfig

NOW = datetime(2026, 8, 9, 12, 0, 0, tzinfo=timezone.utc)
INSIDE = Location(0, 0)
BOUNDS = RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0)


class FixedLocator:
    def __init__(self, table):
        self.table = table

    def locate(self, ip):
        if ip not in self.table:
            raise UnknownAddressError(ip)
        return self.table[ip]


@pytest.fixture
def manager(tmp_path):
    """Loopback manager whose locator knows two addresses: 9.9.9.9 verifies
    positively, 7.7.7.7 negatively (its true location is 4000 km away)."""
    registry_path = tmp_path / "verifiers.csv"
    registry_path.write_text("10.1.0.1,10,0\n10.1.0.2,-10,10\n10.1.0.3,-10,-10\n")
    registry = load_verifier_registry(registry_path)
    verifier_locs = {r.verifier_id: r.loc for r in registry.entries}
    true_locs = {"9.9.9.9": INSIDE, "7.7.7.7": destination_point(INSIDE, 90.0, 4000.0)}

    def factory(ip):
        return IdealProvider(verifier_locs, true_locs[ip], target_inflation_ms=5.0)

    locator = FixedLocator({"9.9.9.9": INSIDE, "7.7.7.7": INSIDE})
    service = ManagerService(
        registry, locator, factory,
        ManagerConfig(registry_path="x", verify=VerifyConfig(probes_per_measurement=1)),
    )
    server = ManagerHTTPServer(service, "127.0.0.1", 0)
    server.serve_in_background()
    host, port = server.bound_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def run_cli(*argv) -> int:
    return cli.main(list(argv))


class TestCmdVerify:
    def test_positive_unpinned_creates_pin_and_exits_zero(self, manager, tmp_path, capsys):
        store_path = tmp_path / "pins.json"
        code = run_cli(
            "verify", "9.9.9.9", "--manager-url", manager, "--pin-store", str(store_path)
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "Unsuspicious" in out
        store = load_store(store_path)
        assert "9.9.9.9" in store
        assert len(store["9.9.9.9"].ver_regs) == 1

    def test_json_output(self, manager, tmp_path, capsys):
        code = run_cli(
            "verify", "9.9.9.9", "--manager-url", manager,
            "--pin-store", str(tmp_path / "pins.json"), "--json",
        )
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["veri_passed"] is True
        assert payload["outcome"] == "Unsuspicious"

    def test_unpinned_negative_is_suspicious(self, manager, tmp_path, capsys):
        store_path = tmp_path / "pins.json"
        code = run_cli(
            "verify", "7.7.7.7", "--manager-url", manager, "--pin-store", str(store_path)
        )
        assert code == cli.EXIT_SUSPICIOUS
        assert "Suspicious" in capsys.readouterr().out
        assert load_store(store_path) == {}

    def test_pinned_negative_is_critical(self, manager, tmp_path, capsys):
        store_path = tmp_path / "pins.json"
        pinned = {
            "7.7.7.7": PinEntry(
                name="7.7.7.7",
                ips=[IPInfo(value="7.7.7.7", loc=INSIDE)],
                ver_regs=[Circle(INSIDE, 400.0)],
                rmax=3,
                when_veri=NOW,
                when_pin=NOW,
            )
        }
        persist_store(pinned, store_path)
        code = run_cli(
            "verify", "7.7.7.7", "--manager-url", manager, "--pin-store", str(store_path)
        )
        assert code == cli.EXIT_CRITICAL
        assert "Critical" in capsys.readouterr().out

    def test_rmax_flag_applies_at_creation(self, manager, tmp_path):
        store_path = tmp_path / "pins.json"
        run_cli(
            "verify", "9.9.9.9", "--manager-url", manager,
            "--pin-store", str(store_path), "--rmax", "5",
        )
        assert load_store(store_path)["9.9.9.9"].rmax == 5

    def test_manager_down_exits_one_without_touching_pins(self, tmp_path, capsys):
        store_path = tmp_path / "pins.json"
        code = run_cli(
            "verify", "9.9.9.9",
            "--manager-url", f"http://127.0.0.1:{free_port()}",
            "--pin-store", str(store_path),
        )
        assert code == cli.EXIT_ERROR
        assert "error" in capsys.readouterr().err
        assert not store_path.exists()

    def test_manager_404_exits_one(self, manager, tmp_path, capsys):
        code = run_cli(
            "verify", "6.6.6.6", "--manager-url", manager,
            "--pin-store", str(tmp_path / "pins.json"),
        )
        assert code == cli.EXIT_ERROR
        assert "404" in capsys.readouterr().err

    def test_string_veri_passed_is_an_unusable_result(self, tmp_path, capsys, monkeypatch):
        # bool("false") is True: read loosely, this reply would be pinned
        body = {
            "ip": IPInfo(value="9.9.9.9", loc=INSIDE).to_dict(), "veri_passed": "false",
            "region": Circle(INSIDE, 100.0).to_dict(), "when_veri": "2026-08-09T12:00:00Z",
            "reason": None,
        }
        monkeypatch.setattr(cli, "_http_get_json", lambda url: (200, body))
        store_path = tmp_path / "pins.json"
        code = run_cli(
            "verify", "9.9.9.9", "--manager-url", "http://127.0.0.1:1",
            "--pin-store", str(store_path),
        )
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "manager returned an unusable result" in err and "veri_passed" in err
        assert not store_path.exists()

    @pytest.mark.parametrize("value", [5, 16843009])
    def test_non_string_ip_is_an_unusable_result(self, tmp_path, capsys, monkeypatch, value):
        # str(5) is "5", and ip_address(16843009) is 1.1.1.1
        body = {
            "ip": {"value": value, "loc": INSIDE.to_dict()}, "veri_passed": True,
            "region": Circle(INSIDE, 100.0).to_dict(), "when_veri": "2026-08-09T12:00:00Z",
            "reason": None,
        }
        monkeypatch.setattr(cli, "_http_get_json", lambda url: (200, body))
        store_path = tmp_path / "pins.json"
        code = run_cli(
            "verify", "9.9.9.9", "--manager-url", "http://127.0.0.1:1",
            "--pin-store", str(store_path),
        )
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "manager returned an unusable result" in err and "ip value must be" in err
        assert not store_path.exists()

    @pytest.mark.parametrize("change", [{"when_veri": 7}, {"ip": "1.2.3.4"}, None],
                             ids=["numeric_when_veri", "string_ip", "json_list"])
    def test_malformed_reply_is_an_unusable_result(self, tmp_path, capsys, monkeypatch, change):
        body = {
            "ip": IPInfo(value="9.9.9.9", loc=INSIDE).to_dict(), "veri_passed": True,
            "region": Circle(INSIDE, 100.0).to_dict(), "when_veri": "2026-08-09T12:00:00Z",
            "reason": None,
        }
        body = [body] if change is None else {**body, **change}
        monkeypatch.setattr(cli, "_http_get_json", lambda url: (200, body))
        store_path = tmp_path / "pins.json"
        code = run_cli(
            "verify", "9.9.9.9", "--manager-url", "http://127.0.0.1:1",
            "--pin-store", str(store_path),
        )
        assert code == cli.EXIT_ERROR
        assert "manager returned an unusable result" in capsys.readouterr().err
        assert not store_path.exists()

    def test_error_status_with_a_json_list_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_http_get_json", lambda url: (502, [1, 2]))
        code = run_cli(
            "verify", "9.9.9.9", "--manager-url", "http://127.0.0.1:1",
            "--pin-store", str(tmp_path / "pins.json"),
        )
        assert code == cli.EXIT_ERROR
        assert capsys.readouterr().err == "error: manager returned 502: [1, 2]\n"

    # the last two fail IDNA encoding (an empty label, a 64-character one)
    # before any lookup
    @pytest.mark.parametrize("host", ["host.invalid.", "a..b", "a" * 64 + ".example"])
    def test_unresolvable_host(self, tmp_path, capsys, host):
        code = run_cli(
            "verify", host,
            "--manager-url", "http://127.0.0.1:1",
            "--pin-store", str(tmp_path / "pins.json"),
        )
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot resolve {host!r}: ")
        assert "Traceback" not in err

    def test_exit_codes_cover_all_outcomes(self):
        assert cli._OUTCOME_EXIT[Outcome.UNSUSPICIOUS] == 0
        assert cli._OUTCOME_EXIT[Outcome.SUSPICIOUS] == 2
        assert cli._OUTCOME_EXIT[Outcome.CRITICAL] == 3

    def test_env_var_overrides_manager_url(self, manager, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.MANAGER_URL_ENV, manager)
        code = run_cli("verify", "9.9.9.9", "--pin-store", str(tmp_path / "pins.json"))
        assert code == cli.EXIT_OK

    def test_parser_is_built_once_and_reads_the_env_var_per_call(
        self, manager, tmp_path, monkeypatch, capsys
    ):
        assert cli.build_parser() is cli.build_parser()
        store = str(tmp_path / "pins.json")
        down = f"http://127.0.0.1:{free_port()}"
        monkeypatch.setenv(cli.MANAGER_URL_ENV, down)
        assert run_cli("verify", "9.9.9.9", "--pin-store", store) == cli.EXIT_ERROR
        assert f"manager unreachable at {down}" in capsys.readouterr().err
        monkeypatch.setenv(cli.MANAGER_URL_ENV, manager)
        assert run_cli("verify", "9.9.9.9", "--pin-store", store) == cli.EXIT_OK
        assert "Unsuspicious" in capsys.readouterr().out
        monkeypatch.setenv(cli.MANAGER_URL_ENV, down)
        assert run_cli(
            "verify", "9.9.9.9", "--pin-store", store, "--manager-url", manager, "--json"
        ) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["outcome"] == "Unsuspicious"
        # no option of the call before leaks into this one
        assert run_cli("verify", "9.9.9.9", "--pin-store", store) == cli.EXIT_ERROR
        assert f"manager unreachable at {down}" in capsys.readouterr().err

    def test_unwritable_store_fails_cleanly(self, manager, tmp_path, capsys):
        # the store's parent path is a regular file, so the new pin of an
        # unsuspicious result cannot be written
        (tmp_path / "file").write_text("")
        store = tmp_path / "file" / "pins.json"
        code = run_cli("verify", "9.9.9.9", "--manager-url", manager, "--pin-store", str(store))
        assert code == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot write pin store {store}: ")

    def test_parse_args_keeps_no_state_between_calls(self):
        parser = cli.build_parser()
        first = parser.parse_args([
            "verify", "h1", "--manager-url", "http://a", "--pin-store", "p", "--rmax", "9",
            "--json",
        ])
        assert (first.manager_url, first.pin_store, first.rmax, first.json) == (
            "http://a", "p", 9, True)
        second = parser.parse_args(["verify", "h2"])
        assert (second.host, second.manager_url, second.pin_store, second.rmax, second.json) == (
            "h2", None, cli.DEFAULT_PIN_STORE, cli.DEFAULT_RMAX, False)
        simulate = parser.parse_args(["simulate", "--scenario", "s.json"])
        assert not hasattr(simulate, "manager_url") and not hasattr(simulate, "host")
        assert (simulate.seed, simulate.out) == (None, None)


@pytest.fixture
def populated_store(tmp_path):
    path = tmp_path / "pins.json"
    store = {
        "a.example": PinEntry(
            name="a.example",
            ips=[IPInfo(value="1.2.3.4", loc=INSIDE)],
            ver_regs=[Circle(INSIDE, 300.0)],
            rmax=3,
            when_veri=NOW,
            when_pin=NOW,
        ),
        "b.example": PinEntry(
            name="b.example",
            ips=[IPInfo(value="5.6.7.8", loc=Location(48, 11))],
            ver_regs=[Circle(Location(48, 11), 200.0), Circle(Location(50, 9), 150.0)],
            rmax=2,
            when_veri=NOW,
            when_pin=NOW,
        ),
    }
    persist_store(store, path)
    return path


class TestCmdPin:
    def test_list(self, populated_store, capsys):
        assert run_cli("pin", "--pin-store", str(populated_store), "list") == 0
        out = capsys.readouterr().out
        assert "a.example" in out and "regions=2/2" in out

    def test_list_json(self, populated_store, capsys):
        assert run_cli("pin", "--pin-store", str(populated_store), "--json", "list") == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == ["a.example", "b.example"]

    def test_show(self, populated_store, capsys):
        assert run_cli("pin", "--pin-store", str(populated_store), "show", "A.EXAMPLE") == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["name"] == "a.example"
        assert entry["rmax"] == 3

    def test_show_missing(self, populated_store, capsys):
        assert run_cli("pin", "--pin-store", str(populated_store), "show", "zzz") == 1

    def test_clear(self, populated_store):
        assert run_cli("pin", "--pin-store", str(populated_store), "clear", "a.example") == 0
        assert "a.example" not in load_store(populated_store)

    def test_set_rmax(self, populated_store):
        assert run_cli("pin", "--pin-store", str(populated_store), "set-rmax", "a.example", "7") == 0
        assert load_store(populated_store)["a.example"].rmax == 7

    def test_set_rmax_below_current_regions_rejected(self, populated_store, capsys):
        assert run_cli("pin", "--pin-store", str(populated_store), "set-rmax", "b.example", "1") == 1
        assert load_store(populated_store)["b.example"].rmax == 2

    def test_corrupt_store_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "pins.json"
        path.write_text("[{broken")
        assert run_cli("pin", "--pin-store", str(path), "list") == 1

    def test_unreadable_store_fails_cleanly(self, tmp_path, capsys):
        # a directory is no store: an error line, not an IsADirectoryError
        assert run_cli("pin", "--pin-store", str(tmp_path), "list") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read pin store {tmp_path}: ")

    @pytest.mark.parametrize("command", [("clear", "a.example"), ("set-rmax", "a.example", "7")])
    def test_unwritable_store_fails_cleanly(self, populated_store, monkeypatch, capsys, command):
        def full(store, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "persist_store", full)
        assert run_cli("pin", "--pin-store", str(populated_store), *command) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write pin store {populated_store}: "
            "[Errno 28] No space left on device\n")
        assert load_store(populated_store)["a.example"].rmax == 3


class TestCmdSimulate:
    def test_runs_scenario_and_writes_report(self, tmp_path, capsys):
        scenario = generate_scenario(
            10, 5, 5,
            bounds=BOUNDS,
            model=DelayModel(jitter_ms=1.0),
            cfg=VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0),
            seed=3,
        )
        scenario_path = tmp_path / "scenario.json"
        scenario.save(scenario_path)
        report_path = tmp_path / "report.json"
        code = run_cli(
            "simulate", "--scenario", str(scenario_path), "--out", str(report_path)
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FR" in out and "FA" in out
        report = json.loads(report_path.read_text())
        assert report["total_true"] == 5
        assert report["total_false"] == 5

    def test_report_and_scenario_bytes_match_json_dump(self, tmp_path, capsys):
        # both files are written in one piece; the bytes are json.dump's
        scenario = generate_scenario(
            10, 3, 2, 1, bounds=BOUNDS,
            cfg=VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0), seed=5,
        )
        scenario_path = tmp_path / "scenario.json"
        scenario.save(scenario_path)
        report_path = tmp_path / "report.json"
        assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(report_path)) == 0
        for path, data in (
            (scenario_path, scenario.to_dict()),
            (report_path, run_experiment(scenario).to_dict()),
        ):
            expected = io.StringIO()
            json.dump(data, expected, indent=2)
            expected.write("\n")
            assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_seed_override_changes_noise(self, tmp_path, capsys):
        scenario = generate_scenario(
            10, 5, 0, bounds=BOUNDS, model=DelayModel(jitter_ms=2.0),
            cfg=VerifyConfig(probes_per_measurement=1), seed=3,
        )
        path = tmp_path / "scenario.json"
        scenario.save(path)
        assert run_cli("simulate", "--scenario", str(path), "--seed", "99") == 0

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert run_cli("simulate", "--scenario", str(tmp_path / "nope.json")) == 1

    def test_report_into_a_missing_directory_exits_one_with_a_message(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        generate_scenario(
            6, 2, 1, bounds=BOUNDS, cfg=VerifyConfig(probes_per_measurement=1), seed=4
        ).save(scenario_path)
        out = tmp_path / "missing" / "report.json"
        assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report {out}: ")
        assert "No such file or directory" in err and "Traceback" not in err
        assert not out.parent.exists()

    def test_invalid_scenario_rejected(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        scenario = generate_scenario(
            4, 1, 0, bounds=BOUNDS, cfg=VerifyConfig(probes_per_measurement=1), seed=1
        )
        data = scenario.to_dict()
        data["verifiers"] = data["verifiers"][:2]
        path.write_text(json.dumps(data))
        assert run_cli("simulate", "--scenario", str(path)) == 1

    @pytest.mark.parametrize("shape", [
        [1, 2],
        {"verifiers": None, "servers": []},
        {"verifiers": [], "servers": [{"true_loc": 5}]},
        {"verifiers": [{"id": "v1", "lat": 1.0, "lon": 2.0}], "servers": [], "model": 5},
        {"servers": []},
    ])
    def test_malformed_scenario_gets_a_clean_error(self, tmp_path, capsys, shape):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(shape))
        assert run_cli("simulate", "--scenario", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load scenario {path}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, shown", [
        ("jitter_ms", math.nan, "nan"), ("circuitousness", math.inf, "inf"), ("seed", 1.5, "1.5"),
    ])
    def test_bad_model_number_exits_one_naming_key_and_value(
        self, tmp_path, capsys, key, value, shown
    ):
        # at jitter NaN every honest server was rejected, at circuitousness
        # Infinity every adversary accepted, and seed 1.5 ran as seed 1
        data = generate_scenario(6, 3, 3, bounds=BOUNDS, seed=2).to_dict()
        data["model"][key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert run_cli("simulate", "--scenario", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load scenario {path}")
        assert f"{key} must be" in err and f"got {shown}" in err
        assert "Traceback" not in err


class TestCmdServe:
    def test_manager_with_too_few_verifiers_exits_one(self, tmp_path, capsys):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("10.0.0.1,1,1\n10.0.0.2,2,2\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        config = tmp_path / "manager.json"
        config.write_text(json.dumps({
            "registry": str(registry),
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_port": 0,
        }))
        assert run_cli("serve", "manager", "--config", str(config)) == 1
        assert "error" in capsys.readouterr().err

    def test_interrupted_verifier_exits_zero_and_closes_its_socket(self, monkeypatch, capsys):
        servers = []
        serve = AgentServer.serve_forever

        def interrupted(self, poll_interval=0.5):
            servers.append(self)
            self._BaseServer__shutdown_request = True  # one pass of the real loop
            serve(self, poll_interval)
            raise KeyboardInterrupt

        monkeypatch.setattr(AgentServer, "serve_forever", interrupted)
        assert run_cli("serve", "verifier", "--host", "127.0.0.1", "--port", "0") == 0
        assert "verifier agent listening on 127.0.0.1:" in capsys.readouterr().out
        assert servers[0].socket.fileno() == -1

    @pytest.mark.skipif(not binds_ipv6_loopback(), reason="this host cannot bind ::1")
    def test_ipv6_banners_bracket_the_host(self, tmp_path, monkeypatch, capsys, serve_nothing):
        serve = AgentServer.serve_forever

        def interrupted(self, poll_interval=0.5):
            self._BaseServer__shutdown_request = True  # one pass of the real loop
            serve(self, poll_interval)
            raise KeyboardInterrupt

        monkeypatch.setattr(AgentServer, "serve_forever", interrupted)
        assert run_cli("serve", "verifier", "--host", "::1", "--port", "0") == 0
        assert "verifier agent listening on [::1]:" in capsys.readouterr().out

        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        config = tmp_path / "manager.json"
        config.write_text(json.dumps({
            "registry": str(registry),
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_host": "::1",
            "listen_port": 0,
        }))
        assert run_cli("serve", "manager", "--config", str(config)) == 0
        assert "manager listening on http://[::1]:" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        assert run_cli("serve", "manager", "--config", str(tmp_path / "nope.json")) == 1

    @pytest.fixture
    def serve_nothing(self, monkeypatch):
        """A manager that starts after all returns at once instead of
        serving, so a start-up that should fail cannot hang the test."""
        serve = ManagerHTTPServer.serve_forever

        def shut_down_first(self, poll_interval=0.5):
            self._BaseServer__shutdown_request = True  # what shutdown() sets
            serve(self, poll_interval)

        monkeypatch.setattr(ManagerHTTPServer, "serve_forever", shut_down_first)

    @pytest.mark.parametrize("change", [
        "not an object", {"locator": None}, {"locator": "t.csv"}, {"listen_port": None},
        {"measurement_timeout": "5"}, {"target_port": 0}, {"registry_row": "127.0.0.1:99999"},
    ], ids=["not_an_object", "locator_null", "locator_string", "listen_port_null",
            "timeout_string", "target_port_0", "registry_port_99999"])
    def test_malformed_manager_config_exits_one_without_a_traceback(
        self, tmp_path, capsys, serve_nothing, change
    ):
        registry = tmp_path / "verifiers.csv"
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        data = {
            "registry": str(registry),
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_port": 0,
        }
        first = "127.0.0.1:7707"
        if change == "not an object":
            data = [data]
        elif "registry_row" in change:
            first = change["registry_row"]
        else:
            data.update(change)
        registry.write_text(f"{first},1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        config = tmp_path / "manager.json"
        config.write_text(json.dumps(data))
        assert run_cli("serve", "manager", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start manager: ")
        assert "Traceback" not in err
        named = f"{registry}:1:" if "registry_row" in change else str(config)
        assert named in err

    @pytest.mark.parametrize("change, key, shown", [
        ({"measurement_timeout": "5"}, "measurement_timeout", "'5'"),
        ({"lambda_ms": "5"}, "lambda_ms", "'5'"),
        ({"cache_ttl": "60"}, "cache_ttl", "'60'"),
        ({"locator_timeout": "5"}, "locator timeout", "'5'"),
        ({"lambda_ms": True}, "lambda_ms", "True"),
        ({"cache_ttl": True}, "cache_ttl", "True"),
    ], ids=["timeout_string", "lambda_string", "ttl_string", "locator_timeout_string",
            "lambda_bool", "ttl_bool"])
    def test_wrongly_typed_number_exits_one_naming_key_and_value(
        self, tmp_path, capsys, serve_nothing, change, key, shown
    ):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        data = {
            "registry": str(registry),
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_port": 0,
        }
        if "locator_timeout" in change:
            data["locator"]["timeout"] = change["locator_timeout"]
        else:
            data.update(change)
        config = tmp_path / "manager.json"
        config.write_text(json.dumps(data))
        assert run_cli("serve", "manager", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start manager: ")
        assert f"{key} must be a finite number" in err and f"got {shown}" in err
        assert "Traceback" not in err

    def test_url_template_with_another_placeholder_exits_one(
        self, tmp_path, capsys, serve_nothing
    ):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        template = "http://127.0.0.1:9/geo/{ip}?key={key}"
        config = tmp_path / "manager.json"
        config.write_text(json.dumps({
            "registry": str(registry),
            "locator": {"provider": "http_service", "url_template": template},
            "listen_port": 0,
        }))
        assert run_cli("serve", "manager", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start manager: ")
        assert repr(template) in err and "Traceback" not in err

    def test_url_template_that_is_not_http_exits_one(self, tmp_path, capsys, serve_nothing):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        template = "file:///tmp/{ip}"
        config = tmp_path / "manager.json"
        config.write_text(json.dumps({
            "registry": str(registry),
            "locator": {"provider": "http_service", "url_template": template},
            "listen_port": 0,
        }))
        assert run_cli("serve", "manager", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start manager: ")
        assert repr(template) in err and "http or https" in err and "Traceback" not in err

    def test_manager_on_a_busy_port_exits_one_without_a_traceback(
        self, tmp_path, capsys, serve_nothing
    ):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        with socket.create_server(("127.0.0.1", 0)) as busy:
            config = tmp_path / "manager.json"
            config.write_text(json.dumps({
                "registry": str(registry),
                "locator": {"provider": "static_table", "path": str(table)},
                "listen_port": busy.getsockname()[1],
            }))
            assert run_cli("serve", "manager", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start manager: ")
        assert "Traceback" not in err and "_lock" not in err

    def test_manager_on_a_busy_port_closes_its_service(
        self, tmp_path, capsys, serve_nothing, monkeypatch
    ):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        closed = []
        close = ManagerService.close
        monkeypatch.setattr(ManagerService, "close",
                            lambda service: closed.append(service) or close(service))
        with socket.create_server(("127.0.0.1", 0)) as busy:
            config = tmp_path / "manager.json"
            config.write_text(json.dumps({
                "registry": str(registry),
                "locator": {"provider": "static_table", "path": str(table)},
                "listen_port": busy.getsockname()[1],
                "cache_path": str(tmp_path / "cache.sqlite"),
            }))
            assert cli.main(["serve", "manager", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot start manager: ")
        assert len(closed) == 1

    def test_unreadable_cache_row_exits_one_without_a_traceback(
        self, tmp_path, capsys, serve_nothing
    ):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("127.0.0.1,1,1\n127.0.0.1,2,2\n127.0.0.1,3,3\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,45.0,-75.0\n")
        cache_path = tmp_path / "cache.sqlite"
        result = VerificationResult(IPInfo("10.0.0.1", INSIDE), False, None, NOW, Reason.NO_COVERAGE)
        row = {**CacheEntry.of(result, NOW + timedelta(days=3650)).to_dict(), "when_veri": 5}
        with closing(sqlite3.connect(cache_path)) as db, db:
            db.execute("CREATE TABLE verifications (ip TEXT PRIMARY KEY, data TEXT NOT NULL)")
            db.execute("INSERT INTO verifications VALUES (?, ?)", ("10.0.0.1", json.dumps(row)))
        config = tmp_path / "manager.json"
        config.write_text(json.dumps({
            "registry": str(registry),
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_port": 0,
            "cache_path": str(cache_path),
        }))
        assert run_cli("serve", "manager", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start manager: ")
        assert "timestamp must be a string, got 5" in err and "Traceback" not in err

    def test_verifier_daemon_subprocess(self):
        port = free_port()
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "slv.cli", "serve", "verifier",
             "--host", "127.0.0.1", "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening" in line
            from slv.agent import AgentConnection, MeasureRequest

            with TcpTarget() as target:
                conn = AgentConnection("127.0.0.1", port)
                resp = conn.request(
                    MeasureRequest(request_id="sub", target=target.address,
                                   probes=1, timeout=1.0)
                )
                assert resp.rtts["target"] is not None
                conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_manager_daemon_subprocess(self, tmp_path):
        registry = tmp_path / "verifiers.csv"
        registry.write_text("10.1.0.1,10,0\n10.1.0.2,-10,10\n10.1.0.3,-10,-10\n")
        table = tmp_path / "table.csv"
        table.write_text("10.0.0.0/8,0.0,0.0\n")
        port = free_port()
        config = tmp_path / "manager.json"
        config.write_text(json.dumps({
            "registry": str(registry),
            "locator": {"provider": "static_table", "path": str(table)},
            "listen_host": "127.0.0.1",
            "listen_port": port,
        }))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "slv.cli", "serve", "manager",
             "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening" in line
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as resp:
                body = json.loads(resp.read())
            assert resp.status == 200
            assert body["verifiers"] == 3
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


class TcpTarget:
    def __init__(self):
        from conftest import TcpListener

        self.listener = TcpListener()

    @property
    def address(self):
        return self.listener.address

    def __enter__(self):
        self.listener.__enter__()
        return self

    def __exit__(self, *exc):
        self.listener.__exit__(*exc)
