"""Print the µs per trial of the simulation kernel's two stages and the rest.

Run it from anywhere:

    python3 tools/stage_split.py

It wraps ``simulate._draw`` and ``simulate._decide`` in timers and runs
``simulate_all(cfg, trials, seed, workers=1)`` on two configs: the defaults
at 30,000 trials and the dense corner (alpha 3, ``r_max`` 400, ``p_st_dbm``
5), where every block holds one trial, at 3,000. Each takes the best of
ROUNDS calls, each with its own seed, after one warm-up call. It prints
the µs per trial spent in ``_draw``, in ``_decide`` and in the rest of the
call (block setup, random streams, joining a chunk's blocks, counting).

Then the fixed cost of a one-trial block: the median time of
``_draw(cfg, gen, 1)`` over FIXED_CALLS streams, on a config with almost no
points (``lambda_p`` 1e-6, ``lambda_sr`` 0.01), where a block pays only for
its calls and small arrays. The script imports ehrelay from the ``src``
directory next to it and exits 0.
"""

from __future__ import annotations

import importlib
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ehrelay.config import SystemConfig, apply_overrides, validate  # noqa: E402
from ehrelay.geometry import RngStream  # noqa: E402

# The module, not the ``simulate`` function the package exports under its name.
simulate = importlib.import_module("ehrelay.simulate")

# (name, config overrides, trials per call)
CONFIGS = (
    ("baseline", {}, 30_000),
    ("sim_dense", {"alpha": 3.0, "r_max": 400.0, "p_st_dbm": 5.0}, 3_000),
)
ROUNDS = 3
EMPTY = {"lambda_p": 1e-6, "lambda_sr": 0.01}
FIXED_CALLS = 2_000


def _timed(name, fn, spent):
    """``fn`` that adds the seconds of each call to ``spent[name]``."""
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper


def split(cfg, trials: int, seed: int) -> dict:
    """Seconds in ``_draw``, ``_decide`` and the whole of one call."""
    spent = {"draw": 0.0, "decide": 0.0}
    real_draw, real_decide = simulate._draw, simulate._decide
    simulate._draw = _timed("draw", real_draw, spent)
    simulate._decide = _timed("decide", real_decide, spent)
    try:
        start = time.perf_counter()
        simulate.simulate_all(cfg, trials, seed, workers=1)
        spent["total"] = time.perf_counter() - start
    finally:
        simulate._draw, simulate._decide = real_draw, real_decide
    return spent


def fixed_cost_us() -> float:
    """Median µs of one one-trial ``_draw`` on a config with almost no points."""
    cfg = validate(apply_overrides(SystemConfig(), EMPTY))
    times = []
    for stream in range(FIXED_CALLS):
        gen = RngStream(1, stream).generator()
        start = time.perf_counter()
        simulate._draw(cfg, gen, 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def main() -> int:
    for name, overrides, trials in CONFIGS:
        cfg = validate(apply_overrides(SystemConfig(), overrides))
        simulate.simulate_all(cfg, min(trials, 100), 0, workers=1)   # warm-up
        best = min((split(cfg, trials, seed) for seed in range(1, ROUNDS + 1)),
                   key=lambda spent: spent["total"])
        draw, decide, total = (best[k] * 1e6 / trials for k in ("draw", "decide", "total"))
        print(f"{name:10s} trials {trials:6d}  {total:8.2f} us/trial: draw {draw:8.2f}  "
              f"decide {decide:6.2f}  rest {total - draw - decide:6.2f}")
    print(f"one-trial block fixed cost (median _draw, {FIXED_CALLS} calls, "
          f"almost no points): {fixed_cost_us():6.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
