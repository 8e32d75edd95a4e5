"""Print the median ms per call of each analytic factor and of ``analyze``.

Run it from anywhere:

    python3 tools/analytic_split.py

It runs over the ``analyze`` grid of the benchmark: ``configs/baseline.cfg``
with alpha in {3.5, 4, 5}, ``lambda_p`` in geomspace(3e-3, 3e-2, 3) and
``p_st_dbm`` in {0, 5, 10}, less any config ``validate`` rejects (none: all
27 run). The first call of the process, ``analyze`` bstd on the first config,
is timed apart: it builds every node table and ring rule it reads. Then
``p_h_kanter``, ``chi_common``, ``chi_integral``, ``alpha4_selfcheck`` and
``analyze`` per scheme each run once per config, in turn, for ROUNDS passes
over the grid, so a stretch of load on the machine falls on every factor
alike. The tool prints each one's median and 90th percentile ms per call,
with the number of calls and of calls that raised ``QuadratureFailure``
(timed like the rest). Last it prints the ring-rule cache's counts
(``analytics._ring_geometry.cache_info()``): every config shares one disc
geometry, so each ring rule is built once per node count (the misses) and
read from the cache after that (the hits).
The harvest probability, the two chi integrals and the self-check are what
``analyze`` spends its time on; bcc and bsir run no chi. The script imports
ehrelay from the ``src`` directory next to it and exits 0.
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ehrelay import analytics  # noqa: E402
from ehrelay.config import ConfigError, apply_overrides, load_config, validate  # noqa: E402

ALPHAS = (3.5, 4.0, 5.0)
LAMBDAS = tuple(float(v) for v in np.geomspace(3e-3, 3e-2, 3))
POWERS = (0.0, 5.0, 10.0)
ROUNDS = 20

FACTORS = (
    ("p_h_kanter", analytics.p_h_kanter),
    ("chi_common", analytics.chi_common),
    ("chi_integral", analytics.chi_integral),
    ("alpha4_selfcheck", analytics.alpha4_selfcheck),
    ("analyze bcc", lambda cfg: analytics.analyze(cfg, "bcc")),
    ("analyze bsir", lambda cfg: analytics.analyze(cfg, "bsir")),
    ("analyze bstd", lambda cfg: analytics.analyze(cfg, "bstd")),
)


def grid():
    """The validated configs of the grid, and how many validate rejected."""
    base = load_config(str(ROOT / "configs" / "baseline.cfg"))
    configs, rejected = [], 0
    for alpha in ALPHAS:
        for lam in LAMBDAS:
            for pst in POWERS:
                try:
                    configs.append(validate(apply_overrides(
                        base, {"alpha": alpha, "lambda_p": lam, "p_st_dbm": pst})))
                except ConfigError:
                    rejected += 1
    return configs, rejected


def timed(fn, cfg):
    """(seconds, whether the call raised QuadratureFailure)."""
    start = time.perf_counter()
    try:
        fn(cfg)
    except analytics.QuadratureFailure:
        return time.perf_counter() - start, True
    return time.perf_counter() - start, False


def main() -> int:
    configs, rejected = grid()
    print(f"grid: {len(configs)} configs ({rejected} rejected by validate), "
          f"{ROUNDS} rounds per factor")
    seconds, failed = timed(FACTORS[-1][1], configs[0])
    print(f"cold first call (analyze bstd): {seconds * 1e3:8.3f} ms"
          + (" (QuadratureFailure)" if failed else ""))
    times = {name: [] for name, _ in FACTORS}
    failures = dict.fromkeys(times, 0)
    for _ in range(ROUNDS):
        for cfg in configs:
            for name, fn in FACTORS:
                seconds, failed = timed(fn, cfg)
                times[name].append(seconds * 1e3)
                failures[name] += failed
    for name, samples in times.items():
        p90 = statistics.quantiles(samples, n=10)[-1]
        print(f"{name:17s} median {statistics.median(samples):8.3f} ms  p90 {p90:8.3f} ms  "
              f"calls {len(samples):4d}  failed {failures[name]:4d}")
    info = analytics._ring_geometry.cache_info()
    print(f"ring rules: built {info.misses}, read from the cache {info.hits}, "
          f"held {info.currsize} of {info.maxsize}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
