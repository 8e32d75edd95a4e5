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
import math
import sys

import numpy as np

from .analytics import (BREAKDOWN_FIELDS, QuadratureFailure,
                        UnsupportedScheme, alpha4_selfcheck, analyze)
from .config import (LINEAR_FIELDS, NUMERIC_FIELDS, RAW_FIELDS, ConfigError,
                     SystemConfig, apply_overrides, load_config, parse_value,
                     validate)
from .simulate import FLAG_NAMES, SCHEMES, simulate, simulate_all

_SIM_FLAG_COLUMNS = tuple(n for n in FLAG_NAMES if n != "success")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _write_row(fh, cells) -> None:
    fh.write(",".join(_fmt(c) for c in cells) + "\n")


def _at_least_one(text: str) -> int:
    """argparse type of --trials and --workers: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file; defaults used if omitted")
    for name in RAW_FIELDS:
        parser.add_argument(f"--{name}", default=None, metavar="VALUE")


def _load_config(args) -> SystemConfig:
    """The config file (or the defaults) with command-line overrides applied.

    Override values are parsed like config-file values; the result still
    needs ``validate``.
    """
    cfg = SystemConfig()
    if args.config is not None:
        try:
            cfg = load_config(args.config)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {args.config!r}: {exc}"])
    overrides = {name: parse_value(name, getattr(args, name)) for name in RAW_FIELDS
                 if getattr(args, name) is not None}
    return apply_overrides(cfg, overrides)


def _config_cells(cfg: SystemConfig):
    return [getattr(cfg, name) for name in RAW_FIELDS + LINEAR_FIELDS]


@contextlib.contextmanager
def _output(args):
    """The CSV destination: the --out file, or stdout if it is absent or '-'."""
    if args.out in (None, "-"):
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _grid_values(args):
    if args.values:
        values = []
        for text in args.values.split(","):
            if text.strip() == "":
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ConfigError([f"--values: {text.strip()!r} is not a number"])
        return values
    if args.grid_from is None or args.grid_to is None or args.steps is None:
        return None
    if args.steps < 1:
        raise ConfigError(["sweep needs at least one grid point"])
    if args.spacing == "log":
        if args.grid_from <= 0 or args.grid_to <= 0:
            raise ConfigError(["log spacing needs positive endpoints"])
        return list(np.geomspace(args.grid_from, args.grid_to, args.steps))
    return list(np.linspace(args.grid_from, args.grid_to, args.steps))


def _grid_configs(base: SystemConfig, param, values):
    """Validate every grid point up front; abort naming the first bad one."""
    if param is None:
        raise ConfigError(["a grid needs --param naming the swept config field"])
    if param not in NUMERIC_FIELDS:
        raise ConfigError([f"cannot sweep {param!r}; numeric fields: {NUMERIC_FIELDS}"])
    configs = []
    for value in values:
        try:
            configs.append(validate(apply_overrides(base, {param: value})))
        except ConfigError as exc:
            raise ConfigError(
                [f"grid point {param}={_fmt(value)} invalid: {d}"
                 for d in exc.diagnostics])
    return configs


def _breakdown_cells(breakdown):
    return [getattr(breakdown, name) for name in BREAKDOWN_FIELDS]


def _emit_selfcheck_warnings(cfg) -> None:
    for name, closed, quad_val, rel in alpha4_selfcheck(cfg):
        if rel > 1e-8:
            print(f"warning: closed-form/quadrature mismatch for {name}: "
                  f"{closed:.12g} vs {quad_val:.12g} (rel {rel:.3g})",
                  file=sys.stderr)


def cmd_simulate(args) -> int:
    cfg = validate(_load_config(args))
    result = simulate(cfg, args.scheme, args.trials, args.seed, workers=args.workers)
    with _output(args) as fh:
        header = (["scheme"] + list(RAW_FIELDS + LINEAR_FIELDS)
                  + ["trials", "seed", "success_rate", "ci_low", "ci_high"]
                  + [f"freq_{name}" for name in _SIM_FLAG_COLUMNS])
        _write_row(fh, header)
        est = result.estimate
        row = ([result.scheme] + _config_cells(cfg)
               + [result.trials, result.seed, est.p_hat, est.ci_low, est.ci_high]
               + [result.flag_frequencies[name] for name in _SIM_FLAG_COLUMNS])
        _write_row(fh, row)
    return 0


def cmd_analyze(args) -> int:
    cfg = validate(_load_config(args))
    breakdown = analyze(cfg, args.scheme)
    _emit_selfcheck_warnings(cfg)
    with _output(args) as fh:
        _write_row(fh, ["scheme"] + list(BREAKDOWN_FIELDS))
        _write_row(fh, [breakdown.scheme] + _breakdown_cells(breakdown))
    return 0


def cmd_sweep(args) -> int:
    base = _load_config(args)

    values = _grid_values(args)
    if not values:
        raise ConfigError(["sweep needs --values or --from/--to/--steps"])
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ConfigError(["--schemes names no scheme"])
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ConfigError([f"unknown scheme {scheme!r}"])
        if scheme in schemes[:i]:
            raise ConfigError([f"--schemes names {scheme!r} twice"])
    configs = _grid_configs(base, args.param, values)

    with _output(args) as fh:
        _write_row(fh, ["param", "value", "scheme", "trials", "seed",
                        "sim_p_succ", "ci_low", "ci_high", "ana_p_succ"])
        for value, cfg in zip(values, configs):
            results = simulate_all(cfg, args.trials, args.seed, workers=args.workers)
            for scheme in schemes:
                result = results[scheme]
                if scheme == "random_baseline":
                    ana = None
                else:
                    ana = analyze(cfg, scheme).p_succ
                est = result.estimate
                _write_row(fh, [args.param, value, scheme, args.trials,
                                args.seed, est.p_hat, est.ci_low, est.ci_high,
                                ana])
    return 0


def cmd_compare(args) -> int:
    base = _load_config(args)

    values = _grid_values(args)
    if values:
        configs = _grid_configs(base, args.param, values)
        points = list(zip(values, configs))
        param = args.param
    else:
        points = [(None, validate(base))]
        param = ""

    inside = 0
    with _output(args) as fh:
        _write_row(fh, ["param", "value", "scheme", "trials", "seed", "sim_p_succ",
                        "ci_low", "ci_high"] + list(BREAKDOWN_FIELDS)
                   + ["gap", "gap_in_ci"])
        for value, cfg in points:
            result = simulate(cfg, args.scheme, args.trials, args.seed,
                              workers=args.workers)
            breakdown = analyze(cfg, args.scheme)
            est = result.estimate
            gap = est.p_hat - breakdown.p_succ
            in_ci = est.ci_low <= breakdown.p_succ <= est.ci_high
            inside += int(in_ci)
            _write_row(fh, [param, value, args.scheme, args.trials, args.seed,
                            est.p_hat, est.ci_low, est.ci_high]
                       + _breakdown_cells(breakdown) + [gap, in_ci])
    print(f"compare: analytic value inside 95% Wilson interval at "
          f"{inside}/{len(points)} points", file=sys.stderr)
    return 0


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
        p.add_argument("--trials", type=_at_least_one, default=30000)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workers", type=_at_least_one, default=None,
                       help="parallel workers (default: EHRELAY_WORKERS or 1); "
                            "any value reproduces --workers 1 output exactly")
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
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--spacing", choices=("linear", "log"), default="linear")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return 2
    except UnsupportedScheme as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
