"""Wrong verdicts of the sim_sweep benchmark's scenarios, seed by seed.

Usage: python tools/verdict_seeds.py --seeds A-B

For each seed from A to B it builds the scenarios that `bench/sim_sweep.py`
sweeps for that seed: the layouts of its last set-up draw, generated with
seeds `seed * 1000 + (setups - 1) * layouts + k`, with that file's BOUNDS,
CALIBRATED, SIM_CFG and FULL sizes, which are imported, not copied. It
runs `run_experiment` on each and prints one row per wrong verdict (an
honest server rejected, FR, or an adversary accepted, FA): seed, layout,
server, kind, displacement between true and asserted location, the
radius of the returned region and whether the true location lies in it.
Then it prints the totals, with the mean number of edges a verification
asks of its delay provider, for accepted and for rejected servers apart.
The verdicts are a function of the code and the seeds alone, so runs of
two commits compare line for line.

The slv package is imported from the src directory next to this script,
and sim_sweep from the bench directory next to it. Standard library only.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

import slv.simulator  # noqa: E402
from slv.geo import great_circle_distance  # noqa: E402
from slv.simulator import ADVERSARY_NONE, SimDelayProvider  # noqa: E402
from sim_sweep import BOUNDS, CALIBRATED, FULL, SIM_CFG  # noqa: E402


def _seed_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def layouts(seed: int):
    """The scenarios sim_sweep sweeps for `seed`, in its order."""
    first = seed * 1000 + (FULL.setups - 1) * FULL.layouts
    for k in range(FULL.layouts):
        yield k, slv.simulator.generate_scenario(
            FULL.verifiers, FULL.honest, FULL.false_assertion, FULL.relay,
            bounds=BOUNDS, relay_extra_ms=30.0, displacement_km=(3000.0, 6000.0),
            model=CALIBRATED, cfg=SIM_CFG, seed=first + k,
        )


def verdicts(scenario):
    """run_experiment's rows, each with the VerificationResult it came
    from and the number of edges that verification asked of its provider,
    taken by wrapping slv.simulator.verify_location and
    SimDelayProvider.measure_edges for the call."""
    verify = slv.simulator.verify_location
    measure_edges = SimDelayProvider.measure_edges
    results, asked = [], []

    def recording(*args, **kwargs):
        asked.append(0)
        results.append(verify(*args, **kwargs))
        return results[-1]

    def counting(self, edges, *args, **kwargs):
        asked[-1] += len(edges)
        return measure_edges(self, edges, *args, **kwargs)

    slv.simulator.verify_location = recording
    SimDelayProvider.measure_edges = counting
    try:
        rows = slv.simulator.run_experiment(scenario).servers
    finally:
        slv.simulator.verify_location = verify
        SimDelayProvider.measure_edges = measure_edges
    return zip(rows, results, asked)


def _per(total: int, count: int) -> str:
    return f"{total / count:.2f}" if count else "-"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, required=True, metavar="A-B")
    args = parser.parse_args(argv)

    print("| seed | layout | server | kind | displacement km | region km | true in region |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    servers = {"FR": 0, "FA": 0}
    wrong = {"FR": 0, "FA": 0}
    wrong_seeds = set()
    verified = {True: 0, False: 0}
    edges = {True: 0, False: 0}
    for seed in args.seeds:
        for k, scenario in layouts(seed):
            for (row, result, asked), server in zip(verdicts(scenario), scenario.servers):
                verified[row["accepted"]] += 1
                edges[row["accepted"]] += asked
                kind = "FR" if row["adversary"] == ADVERSARY_NONE else "FA"
                servers[kind] += 1
                if row["accepted"] == (kind == "FR"):
                    continue
                wrong[kind] += 1
                wrong_seeds.add(seed)
                displacement = great_circle_distance(server.true_loc, server.asserted_loc)
                region = result.region
                radius = inside = "-"
                if region is not None:
                    radius = f"{region.radius:,.1f}"
                    inside = great_circle_distance(region.centre, server.true_loc) <= region.radius
                print(f"| {seed} | {k} | {row['index']} | {kind} {row['adversary']} "
                      f"| {displacement:,.1f} | {radius} | {inside} |", flush=True)
    print()
    print(f"seeds {args.seeds.start}-{args.seeds.stop - 1}: {len(wrong_seeds)} of "
          f"{len(args.seeds)} with a wrong verdict; FR {wrong['FR']} of {servers['FR']:,} "
          f"honest, FA {wrong['FA']} of {servers['FA']:,} adversarial; provider edges per "
          f"verification {_per(edges[True], verified[True])} accepted, "
          f"{_per(edges[False], verified[False])} rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
