"""Command-line front end: simulate | analyze | sweep | compare.

All output is CSV with a header row, 9-significant-digit floats, '.' decimal
separator and '\n' line endings, so reruns with the same inputs are
byte-identical. dB/dBm values are accepted on the command line; the CSV
carries the linear values alongside the dB originals. Exit codes: 0 success,
2 configuration or usage error, 3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys

import numpy as np

from .analytics import (BREAKDOWN_FIELDS, QuadratureFailure, UnsupportedScheme,
                        alpha4_selfcheck, analyze, require_analytic)
from .config import (LINEAR_FIELDS, NUMERIC_FIELDS, RAW_FIELDS, ConfigError,
                     SystemConfig, apply_overrides, load_config, validate)
from .simulate import (FLAG_NAMES, SCHEMES, _draw_key, _simulate_all, require_drawable,
                       simulate)

_SIM_FLAG_COLUMNS = tuple(n for n in FLAG_NAMES if n != "success")
# The first eight columns of every sweep and compare row.
_GRID_COLUMNS = ["param", "value", "scheme", "trials", "seed", "sim_p_succ",
                "ci_low", "ci_high"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _output(args):
    """The --out file opened for writing, or stdout if it is absent or '-'.
    Commands open it after their usage checks and before they compute, so a
    path that cannot be written is a usage error at once."""
    if args.out in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError([f"cannot write --out {args.out}: {exc.strerror or exc}"])


def _write_csv(fh, header, rows) -> None:
    """Write the header, then each row as it comes. An error while rows are
    made leaves the rows before it."""
    for cells in itertools.chain([header], rows):
        fh.write(",".join(map(_fmt, cells)) + "\n")


def _int_at_least(floor: int):
    """argparse type of an integer of at least ``floor``: 1 for --trials,
    --workers and --steps, 0 for --seed."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    return parse


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file; defaults used if omitted")
    for name in RAW_FIELDS:
        parser.add_argument(f"--{name}", default=None, metavar="VALUE")


def _load_config(args) -> SystemConfig:
    """The --config file (or the defaults) with the --field overrides on top."""
    return load_config(args.config, {name: getattr(args, name) for name in RAW_FIELDS
                                     if getattr(args, name) is not None})


def _grid_points(args, base: SystemConfig):
    """(value, validated config) of every grid point, [] without a grid; all
    pass validate and ``require_drawable`` up front, and the first bad one aborts."""
    missing = [flag for flag, given in (("--from", args.grid_from), ("--to", args.grid_to),
                                        ("--steps", args.steps)) if given is None]
    if args.values is not None and len(missing) < 3:
        raise ConfigError(["give --values or --from/--to/--steps, not both"])
    if 0 < len(missing) < 3:
        raise ConfigError([f"a --from/--to/--steps range misses {', '.join(missing)}"])
    if args.spacing is not None and missing:
        raise ConfigError(["--spacing applies to a --from/--to/--steps range"])
    if args.values is not None:
        values = []
        for text in args.values.split(","):
            if text.strip():
                try:
                    values.append(float(text))
                except ValueError:
                    raise ConfigError([f"--values: {text.strip()!r} is not a number"])
        if not values:
            raise ConfigError(["--values names no number"])
    elif missing:
        if args.param is not None:
            raise ConfigError([f"--param {args.param} needs --values or --from/--to/--steps"])
        return []
    elif not np.isfinite(args.grid_to - args.grid_from):   # also inf or nan at an end
        raise ConfigError([f"a --from/--to/--steps range needs finite ends and span, got "
                           f"--from {_fmt(args.grid_from)} --to {_fmt(args.grid_to)}"])
    elif args.spacing == "log":
        if args.grid_from <= 0 or args.grid_to <= 0:
            raise ConfigError(["log spacing needs positive endpoints"])
        values = np.geomspace(args.grid_from, args.grid_to, args.steps)
    else:
        values = np.linspace(args.grid_from, args.grid_to, args.steps)
    param = args.param
    if param is None:
        raise ConfigError(["a grid needs --param naming the swept config field"])
    if param not in NUMERIC_FIELDS:
        raise ConfigError([f"cannot sweep {param!r}; numeric fields: {NUMERIC_FIELDS}"])
    points = []
    for value in values:
        try:
            points.append((value, require_drawable(validate(apply_overrides(
                base, {param: value})))))
        except ConfigError as exc:
            raise ConfigError(
                [f"grid point {param}={_fmt(value)} invalid: {d}"
                 for d in exc.diagnostics])
    return points


def _grid_rows(args, points, schemes, analytic, tail):
    """The rows of sweep and compare: per grid point and scheme, the cells of
    ``_GRID_COLUMNS`` followed by ``tail(analytic(cfg, scheme), estimate)``.
    A point whose value is None (compare without a grid) leaves param and
    value blank. Consecutive points that share the fields the draw stage
    reads make one simulation pass (the grid runner of ``simulate``).

    A pass's analytic values are computed while the workers simulate, point
    by point and scheme by scheme up to the first that raises. That
    exception is held, and raised after the rows before it, as a serial loop
    would. An exception from the simulation comes first, and the pass it
    ends writes no row."""
    for _, group in itertools.groupby(points, key=lambda point: _draw_key(point[1])):
        group = list(group)
        cells, failure = [], []

        def analyze_group():
            try:
                for _, cfg in group:
                    for scheme in schemes:
                        cells.append(analytic(cfg, scheme))
            except Exception as exc:
                failure.append(exc)

        results = _simulate_all([cfg for _, cfg in group], args.trials, args.seed,
                                args.workers, analyze_group)
        rows = ((value, scheme, point[scheme].estimate)
                for (value, _), point in zip(group, results) for scheme in schemes)
        for (value, scheme, est), ana in zip(rows, cells):
            yield ([None if value is None else args.param, value, scheme, args.trials,
                    args.seed, est.p_hat, est.ci_low, est.ci_high] + tail(ana, est))
        if failure:
            raise failure[0]


def _breakdown_cells(breakdown):
    return [getattr(breakdown, name) for name in BREAKDOWN_FIELDS]


def _emit_selfcheck_warnings(cfg) -> None:
    for name, closed, quad_val, rel in alpha4_selfcheck(cfg):
        if rel > 1e-8:
            print(f"warning: closed-form/quadrature mismatch for {name}: "
                  f"{closed:.12g} vs {quad_val:.12g} (rel {rel:.3g})",
                  file=sys.stderr)


def cmd_simulate(args) -> int:
    cfg = require_drawable(validate(_load_config(args)))
    config_fields = RAW_FIELDS + LINEAR_FIELDS
    with _output(args) as fh:
        result = simulate(cfg, args.scheme, args.trials, args.seed, workers=args.workers)
        est = result.estimate
        _write_csv(fh, ["scheme", *config_fields, "trials", "seed", "success_rate",
                        "ci_low", "ci_high"] + [f"freq_{name}" for name in _SIM_FLAG_COLUMNS],
                   [[result.scheme] + [getattr(cfg, name) for name in config_fields]
                    + [result.trials, result.seed, est.p_hat, est.ci_low, est.ci_high]
                    + [result.flag_frequencies[name] for name in _SIM_FLAG_COLUMNS]])
    return 0


def cmd_analyze(args) -> int:
    cfg = validate(_load_config(args))
    require_analytic(args.scheme, cfg)
    with _output(args) as fh:
        breakdown = analyze(cfg, args.scheme)
        _emit_selfcheck_warnings(cfg)
        _write_csv(fh, ["scheme"] + list(BREAKDOWN_FIELDS),
                   [[breakdown.scheme] + _breakdown_cells(breakdown)])
    return 0


def cmd_sweep(args) -> int:
    base = _load_config(args)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ConfigError(["--schemes names no scheme"])
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ConfigError([f"unknown scheme {scheme!r}"])
        if scheme in schemes[:i]:
            raise ConfigError([f"--schemes names {scheme!r} twice"])
    points = _grid_points(args, base)
    if not points:
        raise ConfigError(["sweep needs --values or --from/--to/--steps"])

    def analytic(cfg, scheme):
        try:
            require_analytic(scheme, cfg)
        except UnsupportedScheme:   # a cell that analyze refuses stays empty
            return None
        return analyze(cfg, scheme).p_succ

    with _output(args) as fh:
        _write_csv(fh, _GRID_COLUMNS + ["ana_p_succ"],
                   _grid_rows(args, points, schemes, analytic, lambda ana, est: [ana]))
    return 0


def cmd_compare(args) -> int:
    base = _load_config(args)
    require_analytic(args.scheme)
    points = _grid_points(args, base) or [(None, require_drawable(validate(base)))]
    require_analytic(args.scheme, points[0][1])  # a grid moves numeric fields only
    inside = 0

    def tail(breakdown, est):
        nonlocal inside
        in_ci = est.ci_low <= breakdown.p_succ <= est.ci_high
        inside += int(in_ci)
        return _breakdown_cells(breakdown) + [est.p_hat - breakdown.p_succ, in_ci]

    with _output(args) as fh:
        _write_csv(fh, _GRID_COLUMNS + list(BREAKDOWN_FIELDS) + ["gap", "gap_in_ci"],
                   _grid_rows(args, points, [args.scheme], analyze, tail))
    print(f"compare: analytic value inside 95% Wilson interval at "
          f"{inside}/{len(points)} points", file=sys.stderr)
    return 0


@functools.cache   # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Simulate and analyze relay-assisted transmission of an "
                    "energy-harvesting secondary network under a Poisson "
                    "field of primary users.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, schemes=True):
        _add_config_arguments(p)
        if schemes:
            p.add_argument("--scheme", required=True, choices=SCHEMES)
        p.add_argument("--trials", type=_int_at_least(1), default=30000)
        p.add_argument("--seed", type=_int_at_least(0), default=1)
        p.add_argument("--workers", type=_int_at_least(1), default=1,
                       help="parallel workers (default 1); any value reproduces "
                            "--workers 1 output exactly")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="output CSV path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo run, one CSV row")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="analytic breakdown, one CSV row")
    _add_config_arguments(p_ana)
    p_ana.add_argument("--scheme", required=True, choices=SCHEMES)
    p_ana.add_argument("--out", metavar="FILE", default=None)
    p_ana.set_defaults(func=cmd_analyze)

    def grid_options(p):
        p.add_argument("--param", required=False, default=None,
                       help="config field to sweep")
        p.add_argument("--values", default=None,
                       help="explicit comma-separated grid; use --values=-5,0 "
                            "for values starting with a dash")
        p.add_argument("--from", dest="grid_from", type=float, default=None)
        p.add_argument("--to", dest="grid_to", type=float, default=None)
        p.add_argument("--steps", type=_int_at_least(1), default=None)
        p.add_argument("--spacing", choices=("linear", "log"), default=None)

    p_sweep = sub.add_parser("sweep", help="grid x schemes, simulated and analytic")
    common(p_sweep, schemes=False)
    p_sweep.add_argument("--schemes", required=True,
                         help="comma-separated scheme list")
    grid_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="simulation vs analytics with signed gaps")
    common(p_cmp)
    grid_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return 2
    except QuadratureFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
