"""System configuration, unit conversions, and validation.

All internal computation runs in linear units (mW, meters, dimensionless
ratios); dB and dBm appear only at the configuration and reporting boundary.
A config is usable by the other modules only after ``validate`` has set its
linear-unit fields; each field's kind (bool, choice string, number or
optional number) is read from its declaration.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised when a configuration violates one or more invariants.

    ``diagnostics`` holds one human-readable message per violation.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def dbm_to_linear(x_dbm: float) -> float:
    """Convert a power in dBm to mW."""
    if not math.isfinite(x_dbm):
        raise ValueError(f"non-finite dBm value: {x_dbm!r}")
    return 10.0 ** (x_dbm / 10.0)


def db_to_linear(x_db: float) -> float:
    """Convert a ratio in dB to a dimensionless linear ratio."""
    if not math.isfinite(x_db):
        raise ValueError(f"non-finite dB value: {x_db!r}")
    return 10.0 ** (x_db / 10.0)


SLOT_POSITION_MODELS = ("independent", "static")
# Threshold on the normalized harvested sum K above which the transmitter has
# enough energy: "energy" balances harvested against required transmit energy;
# "energy-over-a" additionally divides by the harvesting time fraction.
HARVEST_THRESHOLD_MODES = ("energy", "energy-over-a")


@dataclass(frozen=True)
class SystemConfig:
    """All physical and protocol parameters of one network scenario.

    Raw fields use the units stated in their names. A ``None`` default marks
    an optional number, a ``str`` default a choice among ``choices``. The
    trailing ``*_mw`` / ``*_lin`` fields are not constructor arguments: only
    ``validate`` sets them, on the copy it returns, so any ``replace`` copy
    starts out unvalidated.
    """

    lambda_p: float = 0.01        # density of PTs and PRs, nodes per m^2
    lambda_sr: float = 1.0        # density of relays inside the disc, per m^2
    p_t_dbm: float = 25.0         # primary transmit power
    p_st_dbm: float = -2.0        # secondary transmit-power threshold
    eta: float = 0.8              # harvesting efficiency, in (0, 1]
    a: float = 0.5                # harvesting slot time fraction, in (0, 1)
    t_block: float = 1e-3         # block duration, seconds
    alpha: float = 4.0            # path-loss exponent, > 2
    r_disc: float = 1.0           # relay-disc radius around the transmitter, m
    r_gz: float = 1.0             # guard-zone radius around each PR, m
    gamma_th_db: float = -10.0    # SIR decode threshold
    d_sd: float = 2.0             # transmitter-to-destination separation, m
    r_max: float = 50.0           # truncation radius for the primary fields, m
    p_min_dbm: float | None = None   # optional lower feasibility bound on p_st
    p_max_dbm: float | None = None   # optional upper feasibility bound on p_st
    direct_link: bool = False     # whether the direct ST-SD link exists
    slot_position_model: str = field(
        default="independent", metadata={"choices": SLOT_POSITION_MODELS})
    harvest_threshold_mode: str = field(
        default="energy", metadata={"choices": HARVEST_THRESHOLD_MODES})
    direct_literal_events: bool = False  # restrict the direct branch to the exact decomposed event set
    trunc_epsilon: float = 0.1    # allowed mean tail interference, fraction of p_st
    # Linear-unit values of p_t_dbm, p_st_dbm and gamma_th_db, set by validate().
    p_t_mw: float | None = field(default=None, init=False)
    p_st_mw: float | None = field(default=None, init=False)
    gamma_th_lin: float | None = field(default=None, init=False)

    @property
    def validated(self) -> bool:
        return self.p_t_mw is not None


# Raw (user-settable) fields in declaration order, and the linear fields
# validate() sets, in the order of the CSV columns.
_RAW = {f.name: f for f in dataclasses.fields(SystemConfig) if f.init}
RAW_FIELDS = tuple(_RAW)
LINEAR_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig) if not f.init)
# Raw fields that take a number (the sweepable ones).
NUMERIC_FIELDS = tuple(n for n, f in _RAW.items()
                       if not isinstance(f.default, (bool, str)))


def _kind_problem(f: dataclasses.Field, value):
    """The diagnostic for a raw field value of the wrong kind, else None.

    Numbers are finite reals (NumPy floats included, bools not).
    """
    if isinstance(f.default, bool):
        if not isinstance(value, bool):
            return f"{f.name} must be a boolean, got {value!r}"
    elif isinstance(f.default, str):
        if value not in f.metadata["choices"]:
            return f"{f.name} must be one of {f.metadata['choices']}, got {value!r}"
    elif not ((f.default is None and value is None)
              or (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))):
        return f"{f.name} must be a finite number, got {value!r}"
    return None


def truncation_tail_mean(cfg: SystemConfig) -> float:
    """Mean interference (mW) arriving from beyond the truncation radius.

    2*pi*lambda_p*P_t*r_max^(2-alpha)/(alpha-2) for a receiver near the
    origin; finite only for alpha > 2.
    """
    p_t_mw = dbm_to_linear(cfg.p_t_dbm)
    return (2.0 * math.pi * cfg.lambda_p * p_t_mw
            * cfg.r_max ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0))


def validate(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant and return a copy with the linear fields set.

    Every raw field is first checked against its kind; the range rules run
    once all kinds hold. Raises ``ConfigError`` carrying one diagnostic per
    violated invariant. Validating an already-validated config returns an
    identical value.
    """
    problems = [p for p in (_kind_problem(f, getattr(cfg, name))
                            for name, f in _RAW.items()) if p]
    if problems:
        raise ConfigError(problems)

    if not cfg.alpha > 2.0:
        problems.append(f"alpha must exceed 2, got {cfg.alpha}")
    if not 0.0 < cfg.a < 1.0:
        problems.append(f"a in open interval (0,1), got {cfg.a}")
    if not 0.0 < cfg.eta <= 1.0:
        problems.append(f"eta in half-open interval (0,1], got {cfg.eta}")
    for name in ("lambda_p", "lambda_sr", "r_gz"):
        if getattr(cfg, name) < 0.0:
            problems.append(f"{name} must be >= 0, got {getattr(cfg, name)}")
    for name in ("r_disc", "d_sd", "t_block", "trunc_epsilon"):
        if not getattr(cfg, name) > 0.0:
            problems.append(f"{name} must be > 0, got {getattr(cfg, name)}")

    min_r_max = 2.0 * max(cfg.r_disc, cfg.d_sd)
    if cfg.r_max < min_r_max:
        problems.append(
            f"r_max must be >= 2*max(r_disc, d_sd) = {min_r_max}, got {cfg.r_max}")

    if cfg.p_min_dbm is not None and cfg.p_st_dbm < cfg.p_min_dbm:
        problems.append(
            f"p_st_dbm {cfg.p_st_dbm} below feasibility bound p_min_dbm {cfg.p_min_dbm}")
    if cfg.p_max_dbm is not None and cfg.p_st_dbm > cfg.p_max_dbm:
        problems.append(
            f"p_st_dbm {cfg.p_st_dbm} above feasibility bound p_max_dbm {cfg.p_max_dbm}")

    if cfg.alpha > 2.0:
        p_st_mw = dbm_to_linear(cfg.p_st_dbm)
        tail = truncation_tail_mean(cfg)
        if tail > cfg.trunc_epsilon * p_st_mw:
            problems.append(
                f"truncation tail {tail:.3g} mW exceeds trunc_epsilon*p_st "
                f"= {cfg.trunc_epsilon * p_st_mw:.3g} mW; increase r_max or trunc_epsilon")

    if problems:
        raise ConfigError(problems)

    linear = dataclasses.replace(cfg)  # init=False fields start as None
    object.__setattr__(linear, "p_t_mw", dbm_to_linear(cfg.p_t_dbm))
    object.__setattr__(linear, "p_st_mw", dbm_to_linear(cfg.p_st_dbm))
    object.__setattr__(linear, "gamma_th_lin", db_to_linear(cfg.gamma_th_db))
    return linear


def harvest_threshold(cfg: SystemConfig) -> float:
    """Threshold on the normalized harvested sum K for a scheduled transmission.

    Default mode balances harvested energy against the required transmit
    energy, giving (1-a)/2 * p_st / (eta * p_t); the alternative mode divides
    by the harvesting fraction a on top of that.
    """
    sigma = ((1.0 - cfg.a) / 2.0) * cfg.p_st_mw / (cfg.eta * cfg.p_t_mw)
    if cfg.harvest_threshold_mode == "energy-over-a":
        sigma /= cfg.a
    return sigma


def parse_value(name: str, text: str):
    """The typed value of raw field ``name`` written as ``text``."""
    text, default = text.strip(), _RAW[name].default
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError([f"{name} must be a boolean, got {text!r}"])
    if isinstance(default, str):
        return text
    if default is None and text.lower() in ("none", ""):
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError([f"{name} must be numeric, got {text!r}"]) from None


def parse_config_text(text: str) -> SystemConfig:
    """Parse a flat ``key = value`` config (one pair per line, # comments)."""
    overrides = {}
    problems = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw_line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in RAW_FIELDS:
            problems.append(f"line {lineno}: unknown config key {key!r}")
            continue
        overrides[key] = parse_value(key, value)
    if problems:
        raise ConfigError(problems)
    return SystemConfig(**overrides)


def load_config(path: str) -> SystemConfig:
    """Read a config file; the result still needs ``validate``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: SystemConfig, overrides: dict) -> SystemConfig:
    """Return a copy of ``cfg`` with the given raw fields replaced; like any
    ``replace`` copy, it needs ``validate`` again."""
    unknown = sorted(set(overrides) - set(RAW_FIELDS))
    if unknown:
        raise ConfigError([f"unknown config field {name!r}" for name in unknown])
    return dataclasses.replace(cfg, **overrides)
