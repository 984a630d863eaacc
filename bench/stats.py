"""Percentiles, sample-count bookkeeping and host-speed scaling for the
benchmark's timings."""

from __future__ import annotations

import math
import statistics
import time

# A tail percentile is trusted only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100): a value that was
    actually observed, never an interpolation. 0.0 for no values."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - math.ceil(q / 100.0 * n) if n else 0


class Timings:
    """Sample counts of every reported timing, plus flags for tail
    percentiles that too few samples support."""

    def __init__(self) -> None:
        self.samples: dict[str, int] = {}
        self.flags: list[str] = []

    def record(self, metric: str, values, q: float = 50.0) -> float:
        """The q-th percentile of values, noting the sample count."""
        n = len(values)
        self.samples[metric] = n
        if q > 50.0 and n and samples_beyond(n, q) < MIN_TAIL_SAMPLES:
            self.flags.append(
                f"{metric}: {samples_beyond(n, q)} of {n} samples beyond p{q:g}, "
                f"want >= {MIN_TAIL_SAMPLES}"
            )
        return percentile(values, q)


# CPU speed on a shared host drifts between regimes that last seconds to
# minutes, by up to ~1.6x, on the wall and CPU clocks alike. CPU-bound
# timings are therefore reported at a reference speed: a fixed loop is
# timed on its thread's CPU clock, interleaved with the workload, and each
# timing is multiplied by REFERENCE_S / (median loop time). The loop uses
# no slv code and allocates no containers, so it never runs the garbage
# collector and a change to the program cannot move it.
REFERENCE_S = 0.007


def reference_loop_s() -> float:
    """CPU seconds of the fixed reference loop on the calling thread."""
    start = time.thread_time()
    acc = 0.0
    for i in range(20_000):
        acc += math.sin(i * 0.001) * math.cos(i * 0.002)
    return time.thread_time() - start


def host_scale(loop_times) -> float:
    """Factor that turns wall times measured alongside these reference
    loops into reference-speed times."""
    return REFERENCE_S / statistics.median(loop_times) if loop_times else 1.0


def at_reference_speed(raw: dict, scale: float) -> dict:
    """Timings multiplied by a host scale; rates (`*_per_s`) divided by it."""
    return {name: value / scale if name.endswith("_per_s") else value * scale
            for name, value in raw.items()}
