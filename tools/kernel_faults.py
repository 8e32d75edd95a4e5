"""Print the minor page faults, the time and the traced memory of one ``simulate_all`` call.

Run it from anywhere:

    python3 tools/kernel_faults.py

For each of four configs (the defaults, ``lambda_sr`` 3, the dense corner
and a corner whose one-trial block is larger than ELEMENT_BUDGET) it makes
three warm-up calls with ``workers=1``, then 20 timed calls, and prints the
minor faults per call (``ru_minflt`` of this process) and the median ms per
call; then one untimed call under ``tracemalloc``, and its peak. A kernel
whose heap stays resident between blocks reads a few faults per call; one
that hands its heap back after each block re-faults hundreds to thousands.
A kernel that holds a trial's relay x primary pairs at once reads several
MB of peak at the over-budget corner, where streaming them reads about 1 MB.
Every call takes a fresh seed and draws all its blocks (``simulate_all``
keeps nothing between calls), so the tool measures the kernel.
The script imports ehrelay from the ``src`` directory next to it and exits
0; where ``resource`` is missing it prints no faults.
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ehrelay.config import SystemConfig, apply_overrides, validate  # noqa: E402
from ehrelay.simulate import simulate_all  # noqa: E402

try:
    import resource
except ImportError:   # not on Windows
    resource = None

# (name, config overrides, trials per call)
CONFIGS = (
    ("baseline", {}, 200),
    ("lambda_sr=3", {"lambda_sr": 3.0}, 200),
    ("sim_dense", {"alpha": 3.0, "r_max": 400.0, "p_st_dbm": 5.0}, 16),
    ("over_budget", {"alpha": 3.0, "r_max": 1000.0, "lambda_sr": 5.0,
                     "trunc_epsilon": 1e12}, 2),
)
WARMUP, CALLS = 3, 20


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def measure(cfg, trials: int):
    """(minor faults per call, median ms per call) over CALLS calls."""
    for seed in range(WARMUP):
        simulate_all(cfg, trials, seed, workers=1)
    times = []
    before = minor_faults()
    for seed in range(WARMUP, WARMUP + CALLS):
        start = time.perf_counter()
        simulate_all(cfg, trials, seed, workers=1)
        times.append(time.perf_counter() - start)
    return (minor_faults() - before) / CALLS, statistics.median(times) * 1e3


def traced_peak_mb(cfg, trials: int) -> float:
    """Peak traced memory of one call, MB."""
    tracemalloc.start()
    try:
        simulate_all(cfg, trials, WARMUP + CALLS, workers=1)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> int:
    for name, overrides, trials in CONFIGS:
        cfg = validate(apply_overrides(SystemConfig(), overrides))
        faults, ms = measure(cfg, trials)
        shown = f"{faults:8.1f}" if resource else "     n/a"
        print(f"{name:12s} trials {trials:4d}  minor faults/call {shown}  "
              f"median {ms:7.2f} ms/call  peak traced {traced_peak_mb(cfg, trials):7.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
