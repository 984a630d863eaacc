"""slv benchmark: entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload on the slv sources of this checkout (`src/`), checks
its outputs and prints, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the run is split into an
untraced half and a traced half, and the metrics are the per-layer ones.
The line before it carries provenance, sample counts and check results.
Run files go to bench/runs/<workload>-s<seed>-t<trace>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _import_program() -> bool:
    """Put this checkout's slv first on the path; False when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "slv", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import slv

    return os.path.abspath(slv.__file__).startswith(SRC + os.sep)


def _count_sanity(workload: str, m: dict) -> dict:
    """Each workload drives the code it claims to (traced runs only)."""
    checks = {}
    if workload in ("sim_sweep", "live_uncached"):
        checks["triangles_used_per_point_le_4"] = 0 < m["verify.triangles_used_per_point"] <= 4
    if workload == "live_uncached":
        checks["traced_wire_requests_is_9"] = m["agent.wire_requests_per_verification"] == 9
        checks["traced_probe_connects_is_27"] = m["agent.probe_connects_per_verification"] == 27
        checks["cache_hit_ratio_is_0"] = m["manager.cache_hit_ratio"] == 0.0
        checks["agent_failures_is_0"] = m["agent.failures"] == 0
    if workload == "live_cached":
        checks["cache_hit_ratio_is_1"] = m["manager.cache_hit_ratio"] == 1.0
    return checks


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and the metrics, with their units.
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    # Turn a termination request into SystemExit, so child processes are
    # stopped by the same clean-up paths as on a normal exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not _import_program():
        print(f"error: no slv sources under {SRC}", file=sys.stderr)
        return 2

    import layers
    import live
    import sim_sweep
    from stats import Timings

    traced = bool(args.trace)
    run_dir = os.path.join(BENCH, "runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    timings = Timings()
    if args.workload == "sim_sweep":
        out = sim_sweep.run(run_dir, args.seed, args.seconds, traced, args.smoke, timings)
    else:
        out = live.run(args.workload, run_dir, args.seed, args.seconds, traced, args.smoke, timings)

    checks = out["checks"]
    if traced:
        layer_timings = Timings()
        values = layers.layer_metrics(out["spans"], out["counts"], layer_timings,
                                      out.get("client_samples", ()), out.get("layer_extra"))
        checks.update(_count_sanity(args.workload, values))
        table = spec["per_layer"]
        samples, flags = layer_timings.samples, layer_timings.flags
        with open(os.path.join(run_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in out["spans"])
    else:
        values = out["metrics"]
        table = spec["end_to_end"]
        samples, flags = timings.samples, timings.flags

    if out["attempted"] == 0:  # nothing ran: report it as one failed operation
        out["attempted"], out["failed"] = 1, 1
    correct = out["failed"] == 0 and all(checks.values())
    summary = {
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "tracing": "on" if traced else "off",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "network": "loopback only",
        },
        "end_to_end": out["metrics"],
        "samples": samples,
        "flags": flags,
        "checks": checks,
        "info": out.get("info", {}),
        "errors": out["errors"],
    }
    if traced:
        summary["self_ms_by_layer"] = layers.self_ms_by_layer(out["spans"])
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**summary, "result": result}, fh, indent=2)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
