"""sim_sweep: `slv simulate` on scenarios that generate_scenario writes
during set-up.

Every scenario has 40 verifiers over the acceptance suite's North-America
box and servers 3 honest : 2 false-assertion (3000-6000 km) : 1 relay
(30 ms), under the calibrated delay model with one probe. No socket is
opened; the cost is the triangle search of the verification engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass

import slv.cli
import slv.simulator
from slv.simulator import ADVERSARY_NONE, DelayModel, RegionBounds
from slv.verify import VerifyConfig

import layers
from spans import Tracer
from stats import at_reference_speed, host_scale, reference_loop_s

BOUNDS = RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0)
CALIBRATED = DelayModel(circuitousness=1.5, lastmile_ms=5.0, jitter_ms=2.0, seed=0)
SIM_CFG = VerifyConfig(
    lambda_ms=5.0, probes_per_measurement=1, max_triangles=4, measurement_timeout=1.0
)
FR_BOUND = 0.05


@dataclass(frozen=True)
class Sizes:
    verifiers: int = 40
    # Many small verifier layouts per run rather than a few large ones: the
    # cost of placing a server and of verifying it depends mostly on its
    # layout (how much of the box the verifier triangles cover), so no
    # single layout may decide a seed's set-up time or throughput.
    layouts: int = 32
    honest: int = 3
    false_assertion: int = 2
    relay: int = 1
    setups: int = 3


FULL = Sizes()
SMOKE = Sizes(verifiers=12, layouts=2, setups=2)


def _setup(run_dir: str, seed: int, draw: int, sizes: Sizes) -> tuple[list[str], float, float]:
    """Write one scenario file per layout of draw number `draw` of the
    seed, over the files of any earlier draw; returns the paths, the time
    spent in generate_scenario alone, and the whole set-up time at
    reference speed (the reference loops timed between layouts are not
    part of it)."""
    paths = []
    generate_s = setup_s = 0.0
    loops = []
    for k in range(sizes.layouts):
        loops.append(reference_loop_s())
        start = time.perf_counter()
        scenario = slv.simulator.generate_scenario(
            sizes.verifiers, sizes.honest, sizes.false_assertion, sizes.relay,
            bounds=BOUNDS, relay_extra_ms=30.0, displacement_km=(3000.0, 6000.0),
            model=CALIBRATED, cfg=SIM_CFG, seed=seed * 1000 + draw * sizes.layouts + k,
        )
        generate_s += time.perf_counter() - start
        path = os.path.join(run_dir, f"scenario-{k}.json")
        scenario.save(path)
        paths.append(path)
        setup_s += time.perf_counter() - start
    scale = host_scale(loops)
    return paths, generate_s, setup_s * scale


def _simulate(scenario: str, out: str) -> float:
    """Run `slv simulate` once; returns its wall time in seconds."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = slv.cli.main(["simulate", "--scenario", scenario, "--out", out])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"slv simulate exited {code} on {scenario}")
    return elapsed


class _Sweep:
    """Round-robin `slv simulate` calls over the scenario set, with the
    verdict checks applied to every report."""

    def __init__(self, run_dir: str, paths: list[str]) -> None:
        self.paths = paths
        self.outs = [os.path.join(run_dir, f"report-{k}.json") for k in range(len(paths))]
        self.rows: list[list[dict] | None] = [None] * len(paths)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, k: int) -> float | None:
        """One checked call of scenario k; its time, or None if it failed."""
        try:
            elapsed = _simulate(self.paths[k], self.outs[k])
            with open(self.outs[k], encoding="utf-8") as fh:
                rows = json.load(fh)["servers"]
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            self.errors.append(str(exc))
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += len(rows)
        if self.rows[k] is None:
            self.rows[k] = rows
        # Verdicts are a function of the seed: a repeat must agree row for row.
        drift = sum(a != b for a, b in zip(rows, self.rows[k])) + abs(len(rows) - len(self.rows[k]))
        false_accepts = sum(r["accepted"] for r in rows if r["adversary"] != ADVERSARY_NONE)
        if drift or false_accepts:
            self.errors.append(f"scenario {k}: {drift} changed verdicts, {false_accepts} false accepts")
            self.failed += max(drift, false_accepts)
        return elapsed

    def sweep(self, seconds: float) -> tuple[list[list[float]], float]:
        """Call scenarios in turn for `seconds`, then finish the round so
        every scenario has the same number of timed calls. Returns the call
        times per scenario and the host scale measured between calls."""
        times: list[list[float]] = [[] for _ in self.paths]
        loops = []
        deadline = time.perf_counter() + seconds
        while True:
            for k in range(len(self.paths)):
                loops.append(reference_loop_s())
                elapsed = self.call(k)
                if elapsed is not None:
                    times[k].append(elapsed)
            if time.perf_counter() >= deadline:
                return times, host_scale(loops)

    def throughput(self, times: list[list[float]]) -> float:
        """Servers per second over the whole scenario set, each scenario
        timed by the median of its calls."""
        servers = sum(len(rows or ()) for rows in self.rows)
        return servers / sum(statistics.median(t) for t in times if t) if any(times) else 0.0

    def quality(self) -> dict:
        honest = [r for rows in self.rows for r in rows or () if r["adversary"] == ADVERSARY_NONE]
        adversarial = [r for rows in self.rows for r in rows or () if r["adversary"] != ADVERSARY_NONE]
        fr = sum(not r["accepted"] for r in honest) / len(honest) if honest else 0.0
        fa = sum(r["accepted"] for r in adversarial) / len(adversarial) if adversarial else 0.0
        digest = hashlib.sha256(json.dumps(self.rows, sort_keys=True).encode()).hexdigest()
        return {"fr_rate": fr, "fa_rate": fa, "verdict_digest": digest,
                "honest": len(honest), "adversarial": len(adversarial)}


def run(run_dir: str, seed: int, seconds: float, traced: bool, smoke: bool, timings) -> dict:
    """Set up, sweep and check; returns the metrics and check results."""
    sizes = SMOKE if smoke else FULL
    setup_s = []
    generate_s = []
    # Each set-up draws its own layouts from the seed, so that the median
    # is taken over several draws and not only over repeats of one: how
    # long a set-up takes depends on its layouts far more than on the host.
    # The sweep runs on the scenarios of the last draw.
    for draw in range(sizes.setups):
        paths, gen, setup = _setup(run_dir, seed, draw, sizes)
        setup_s.append(setup)
        generate_s.append(gen)

    sweep = _Sweep(run_dir, paths)
    sweep.call(0)  # warm-up: first imports and the geometry cache; not timed
    times, scale = sweep.sweep(seconds / 2 if traced else seconds)
    throughput = sweep.throughput(times)
    calls_ms = [t * 1000.0 for per_scenario in times for t in per_scenario]
    timings.samples["throughput_per_s"] = len(calls_ms)
    raw = {
        "throughput_per_s": throughput,
        "latency_p50_ms": timings.record("latency_p50_ms", calls_ms),
        # a run makes ~240 calls, enough for a p90
        "latency_p90_ms": timings.record("latency_p90_ms", calls_ms, 90),
    }
    # Set-up is scaled by the reference loops timed during set-up, not by
    # those of the sweep, which may run at another host speed.
    metrics = {"setup_s": timings.record("setup_s", setup_s), **at_reference_speed(raw, scale)}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"spans": [], "counts": {}}
    if traced:
        tracer = Tracer("sim")
        layers.install_sim(tracer)
        try:
            traced_times, traced_scale = sweep.sweep(seconds / 2)
        finally:
            tracer.uninstall()
        traced_throughput = sweep.throughput(traced_times) / traced_scale
        result.update(
            spans=tracer.records(),
            counts=dict(tracer.counts),
            layer_extra={
                "simulator.generate_s": timings.record("simulator.generate_s", generate_s),
                "trace.overhead_share": (1.0 - traced_throughput / metrics["throughput_per_s"]
                                         if metrics["throughput_per_s"] else 0.0),
            },
        )

    quality = sweep.quality()
    if quality["fr_rate"] > FR_BOUND:
        # Beyond the acceptance bound every false reject is a failed verdict.
        sweep.errors.append(f"fr_rate {quality['fr_rate']:.4f} > {FR_BOUND}")
        sweep.failed += round(quality["fr_rate"] * quality["honest"])
    verdicts = quality["honest"] + quality["adversarial"]
    wrong = quality["fr_rate"] * quality["honest"] + quality["fa_rate"] * quality["adversarial"]
    metrics["verdict_accuracy"] = 1.0 - wrong / verdicts if verdicts else 0.0
    result.update(
        metrics=metrics, attempted=sweep.attempted, failed=sweep.failed, errors=sweep.errors[:5],
        checks={"fa_rate_is_zero": quality["fa_rate"] == 0.0,
                "fr_rate_within_bound": quality["fr_rate"] <= FR_BOUND},
        info={**quality, "host_scale": scale, "unscaled": raw},
    )
    return result
