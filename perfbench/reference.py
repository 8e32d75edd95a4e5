"""Record the reference success counts that the simulation checks compare to.

Usage, from the repository root (takes a few minutes on 2 cores):

    python3 perfbench/reference.py

Runs simulate() for every scheme on each simulation workload's config with a
seed that no workload draws (workload seeds are below 2**31) and writes
perfbench/reference.json. The benchmark accepts a run's simulated rate when
it lies within workloads.Z_BAND standard errors of this reference, so a
change of stream layout passes while a change of the statistics does not.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, ROOT, _import_package

REFERENCE_SEED = 2 ** 40 + 1
TRIALS = {"sim_baseline": 100_000, "sim_dense": 8_000}


def main():
    _import_package()
    import numpy
    import workloads
    out = {"_about": {"seed": REFERENCE_SEED, "workers": 2,
                      "numpy": numpy.__version__,
                      "note": "recorded by perfbench/reference.py"}}
    for name, trials in TRIALS.items():
        w = workloads.make(name)
        w.setup(ROOT)
        schemes = {}
        for scheme in workloads.SCHEMES:
            res = workloads.simulate_mod.simulate(w.cfg, scheme, trials,
                                                  REFERENCE_SEED, workers=2)
            schemes[scheme] = {"trials": trials,
                               "successes": res.flag_counts["success"],
                               "p_hat": res.estimate.p_hat}
            print(name, scheme, schemes[scheme], file=sys.stderr)
        out[name] = {"schemes": schemes}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
