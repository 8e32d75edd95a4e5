"""Print SHA-256 digests of what ehrelay computes, to show a change is byte-identical.

Run it on two checkouts and compare the lines:

    python3 tools/identity_digest.py

The first digest covers 1,920 ``analyze`` calls through ``cli.main`` (the
stdout, stderr and exit code of each): alpha {2.5, 3, 3.5, 4, 5} x lambda_p
{1e-4, 3e-3, 1e-2, 3e-2} x p_st_dbm {-5, 0, 5, 10} x d_sd {0.5, 1, 2, 3} x
the direct link off and on x {bcc, bsir, bstd}, with --trunc_epsilon 1e12
so that every point validates. The second covers the arrays of
``outcomes(cfg, 600, 5)`` at four configs (the defaults, the dense corner,
static primary positions, the direct link) and fixed-seed draws of
``shot_noise_batch`` and ``clearance_batch``. The third covers the arrays of
``outcomes(cfg, trials, 5)`` at two configs whose one-trial block is larger
than ELEMENT_BUDGET, so the kernel streams its relay x primary pairs in
several groups. The fourth covers the stdout, stderr and exit code of
``cli.main`` on CLI_ARGVS: ``simulate``, ``sweep`` over linear and log grids
(``random_baseline`` among the schemes, one and two workers), ``compare``
with and without a grid and with two workers, a two-worker ``sweep`` that
fails at its second point (exit 3 after that point's ``bcc`` row, as bstd's
tail rule gives up), and three usage errors. The fifth covers
``p_h_gil_pelaez`` at the 80 distinct (alpha, lambda_p, p_st_dbm) points of
the first grid, with trunc_epsilon 1e12: the repr of each value, or the
context of its ``QuadratureFailure``. The sixth covers ``alpha4_selfcheck``
at the 64 alpha-4 points of the first grid, lambda_p x p_st_dbm x d_sd
with trunc_epsilon 1e12, the same way: every closed-form and quadrature
value it compares, not only those that print a warning. The seventh covers
``analyze`` in-process at every point of the first grid, the same way: the
repr of each scheme's ``AnalyticBreakdown``, so that a factor's last bit
shows, where the first line sees 9 digits. The script imports
ehrelay from the ``src`` directory next to it and exits 0. Run it with
``-W error::RuntimeWarning`` to have a quadrature that turns inf or nan on
these grids fail it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ehrelay.analytics import (QuadratureFailure, alpha4_selfcheck,  # noqa: E402
                               analyze, p_h_gil_pelaez)
from ehrelay.cli import main  # noqa: E402
from ehrelay.config import (SystemConfig, apply_overrides, parse_value,  # noqa: E402
                            validate)
from ehrelay.geometry import RngStream, clearance_batch, shot_noise_batch  # noqa: E402
from ehrelay.simulate import Outcomes, outcomes  # noqa: E402

GRID = {
    "alpha": ("2.5", "3", "3.5", "4", "5"),
    "lambda_p": ("1e-4", "3e-3", "1e-2", "3e-2"),
    "p_st_dbm": ("-5", "0", "5", "10"),
    "d_sd": ("0.5", "1", "2", "3"),
    "direct_link": ("false", "true"),
}
SCHEMES = ("bcc", "bsir", "bstd")

OUTCOME_CONFIGS = {
    "baseline": {},
    "sim_dense": {"alpha": 3.0, "r_max": 400.0, "p_st_dbm": 5.0},
    "static": {"slot_position_model": "static"},
    "direct_link": {"direct_link": True},
}
# (config overrides, trials) of the one-trial blocks over the budget.
OVER_BUDGET_CONFIGS = {
    "r_max=400 lambda_sr=20": ({"alpha": 3.0, "r_max": 400.0, "lambda_sr": 20.0}, 3),
    "r_max=1000 static": ({"alpha": 3.0, "r_max": 1000.0, "lambda_sr": 5.0,
                           "trunc_epsilon": 1e12, "slot_position_model": "static"}, 2),
}
_SWEEP = ["sweep", "--param", "p_st_dbm", "--from", "-5", "--to", "10", "--steps", "4",
          "--schemes", "bcc,bsir,bstd,random_baseline", "--trials", "300", "--seed", "3"]
CLI_ARGVS = (
    ["simulate", "--scheme", "bsir", "--trials", "300", "--seed", "7"],
    _SWEEP + ["--workers", "1"],
    _SWEEP + ["--workers", "2"],
    ["sweep", "--param", "lambda_p", "--from", "1e-3", "--to", "1e-2", "--steps", "3",
     "--spacing", "log", "--schemes", "bcc", "--trials", "200"],
    ["compare", "--scheme", "bcc", "--trials", "300", "--seed", "7"],
    ["compare", "--scheme", "bstd", "--param", "p_st_dbm", "--values=-2,0,2",
     "--trials", "300", "--seed", "9"],
    ["compare", "--scheme", "bstd", "--param", "p_st_dbm", "--values=-2,0,2",
     "--trials", "600", "--seed", "9", "--workers", "2"],
    ["sweep", "--param", "alpha", "--values=2.05,2.02", "--schemes",
     "bcc,bstd,random_baseline", "--lambda_p", "1e-6", "--trunc_epsilon", "1e300",
     "--trials", "5000", "--workers", "2"],
    ["sweep", "--param", "alpha", "--values", "4,2", "--schemes", "bcc", "--trials", "10"],
    ["sweep", "--param", "p_st_dbm", "--values=0", "--schemes", "bcc,bcc", "--trials", "10"],
    ["compare", "--param", "p_st_dbm", "--values=a", "--scheme", "bcc", "--trials", "10"],
)
# (density, r_max, alpha) of the shot-noise draws; (density, r_gz, r_max) of
# the clearance draws; 2,000 samples each.
SHOT_NOISE = ((0.01, 50.0, 4.0), (0.03, 20.0, 3.0), (1e-4, 50.0, 2.5))
CLEARANCE = ((0.01, 1.0, 50.0), (0.3, 2.0, 10.0), (1e-4, 1.0, 50.0))


def _update(digest, *parts) -> None:
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        digest.update(len(data).to_bytes(8, "little") + data)


def _update_array(digest, array) -> None:
    array = np.ascontiguousarray(array)
    _update(digest, array.dtype.str, array.shape, array.tobytes())


def _update_cli(digest, argv) -> int:
    """Run ``main(argv)`` and feed the argv, stdout, stderr and exit code in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    _update(digest, " ".join(argv), out.getvalue(), err.getvalue(), code)
    return code


def analyze_digest():
    digest = hashlib.sha256()
    exits = {}
    for values in itertools.product(*GRID.values()):
        for scheme in SCHEMES:
            argv = ["analyze", "--scheme", scheme, "--trunc_epsilon", "1e12"]
            for name, value in zip(GRID, values):
                argv += [f"--{name}", value]
            code = _update_cli(digest, argv)
            exits[code] = exits.get(code, 0) + 1
    return digest.hexdigest(), exits


def _update_outcomes(digest, name, overrides, trials) -> None:
    result = outcomes(validate(apply_overrides(SystemConfig(), overrides)), trials, 5)
    _update(digest, name)
    for f in dataclasses.fields(Outcomes):
        _update_array(digest, getattr(result, f.name))


def draws_digest() -> str:
    digest = hashlib.sha256()
    for name, overrides in OUTCOME_CONFIGS.items():
        _update_outcomes(digest, name, overrides, 600)
    for i, args in enumerate(SHOT_NOISE):
        _update_array(digest, shot_noise_batch(*args, 2000, RngStream(7, i)))
    for i, args in enumerate(CLEARANCE):
        _update_array(digest, clearance_batch(*args, 2000, RngStream(8, i)))
    return digest.hexdigest()


def over_budget_digest() -> str:
    digest = hashlib.sha256()
    for name, (overrides, trials) in OVER_BUDGET_CONFIGS.items():
        _update_outcomes(digest, name, overrides, trials)
    return digest.hexdigest()


def cli_digest() -> str:
    digest = hashlib.sha256()
    for argv in CLI_ARGVS:
        _update_cli(digest, argv)
    return digest.hexdigest()


def _grid_digest(names, fixed, compute):
    """Digest of the repr of ``compute(cfg)``, or the context of its
    ``QuadratureFailure``, at every point of GRID over ``names`` with the
    ``fixed`` values; returns it and the count of each kind of result."""
    digest = hashlib.sha256()
    results = {}
    for values in itertools.product(*(GRID[name] for name in names)):
        overrides = {name: parse_value(name, value) for name, value in zip(names, values)}
        cfg = validate(apply_overrides(SystemConfig(), {**overrides, **fixed}))
        try:
            result, kind = repr(compute(cfg)), "values"
        except QuadratureFailure as exc:
            result = kind = exc.context
        _update(digest, *values, result)
        results[kind] = results.get(kind, 0) + 1
    return digest.hexdigest(), results


def oracles_digest():
    return _grid_digest(("alpha", "lambda_p", "p_st_dbm"), {"trunc_epsilon": 1e12},
                        p_h_gil_pelaez)


def selfcheck_digest():
    return _grid_digest(("lambda_p", "p_st_dbm", "d_sd"),
                        {"alpha": 4.0, "trunc_epsilon": 1e12}, alpha4_selfcheck)


def breakdown_digest():
    return _grid_digest(tuple(GRID), {"trunc_epsilon": 1e12},
                        lambda cfg: [analyze(cfg, scheme) for scheme in SCHEMES])


def main_digest() -> int:
    analyze_sha, exits = analyze_digest()
    counts = ", ".join(f"exit {code}: {n}" for code, n in sorted(exits.items()))
    print(f"analyze {analyze_sha} ({sum(exits.values())} calls; {counts})")
    print(f"draws   {draws_digest()}")
    print(f"budget  {over_budget_digest()}")
    print(f"cli     {cli_digest()}")
    for name, run in (("oracles", oracles_digest), ("selfcheck", selfcheck_digest),
                      ("breakdown", breakdown_digest)):
        sha, results = run()
        counts = ", ".join(f"{kind}: {n}" for kind, n in sorted(results.items()))
        print(f"{name:<7} {sha} ({sum(results.values())} points; {counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
