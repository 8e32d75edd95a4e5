"""System configuration, unit conversions, and validation.

All internal computation runs in linear units (mW, meters, dimensionless
ratios); dB and dBm appear only at the configuration and reporting boundary.
A config is usable by the other modules only after ``validate`` has attached
the pre-computed linear fields.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


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

    Raw fields use the units stated in their names; the trailing ``*_mw`` /
    ``*_lin`` fields are derived by ``validate`` and are ``None`` until then.
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
    slot_position_model: str = "independent"
    harvest_threshold_mode: str = "energy"
    direct_literal_events: bool = False  # restrict the direct branch to the exact decomposed event set
    trunc_epsilon: float = 0.1    # allowed mean tail interference, fraction of p_st
    # Derived linear-unit fields, populated by validate().
    p_t_mw: float | None = None
    p_st_mw: float | None = None
    gamma_th_lin: float | None = None

    @property
    def validated(self) -> bool:
        return self.p_t_mw is not None


# Raw (user-settable) fields in declaration order; derived fields excluded.
RAW_FIELDS = tuple(
    f.name for f in dataclasses.fields(SystemConfig)
    if f.name not in ("p_t_mw", "p_st_mw", "gamma_th_lin")
)

_BOOL_FIELDS = ("direct_link", "direct_literal_events")
_STR_FIELDS = ("slot_position_model", "harvest_threshold_mode")
_OPTIONAL_FIELDS = ("p_min_dbm", "p_max_dbm")
# Raw fields that take a number (the sweepable ones).
NUMERIC_FIELDS = tuple(n for n in RAW_FIELDS if n not in _BOOL_FIELDS + _STR_FIELDS)


def truncation_tail_mean(cfg: SystemConfig) -> float:
    """Mean interference (mW) arriving from beyond the truncation radius.

    2*pi*lambda_p*P_t*r_max^(2-alpha)/(alpha-2) for a receiver near the
    origin; finite only for alpha > 2.
    """
    p_t_mw = dbm_to_linear(cfg.p_t_dbm)
    return (2.0 * math.pi * cfg.lambda_p * p_t_mw
            * cfg.r_max ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0))


def validate(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant and return a config with linear fields attached.

    Raises ``ConfigError`` carrying one diagnostic per violated invariant.
    Validating an already-validated config returns an identical value.
    """
    problems = []

    def _finite(name, value):
        if value is None or not math.isfinite(value):
            problems.append(f"{name} must be finite, got {value!r}")
            return False
        return True

    for name in ("lambda_p", "lambda_sr", "p_t_dbm", "p_st_dbm", "eta", "a",
                 "t_block", "alpha", "r_disc", "r_gz", "gamma_th_db", "d_sd",
                 "r_max", "trunc_epsilon"):
        _finite(name, getattr(cfg, name))
    if problems:
        raise ConfigError(problems)

    if not cfg.alpha > 2.0:
        problems.append(f"alpha must exceed 2, got {cfg.alpha}")
    if not 0.0 < cfg.a < 1.0:
        problems.append(f"a in open interval (0,1), got {cfg.a}")
    if not 0.0 < cfg.eta <= 1.0:
        problems.append(f"eta in half-open interval (0,1], got {cfg.eta}")
    if cfg.lambda_p < 0.0:
        problems.append(f"lambda_p must be >= 0, got {cfg.lambda_p}")
    if cfg.lambda_sr < 0.0:
        problems.append(f"lambda_sr must be >= 0, got {cfg.lambda_sr}")
    if not cfg.r_disc > 0.0:
        problems.append(f"r_disc must be > 0, got {cfg.r_disc}")
    if not cfg.d_sd > 0.0:
        problems.append(f"d_sd must be > 0, got {cfg.d_sd}")
    if cfg.r_gz < 0.0:
        problems.append(f"r_gz must be >= 0, got {cfg.r_gz}")
    if not cfg.t_block > 0.0:
        problems.append(f"t_block must be > 0, got {cfg.t_block}")
    if not cfg.trunc_epsilon > 0.0:
        problems.append(f"trunc_epsilon must be > 0, got {cfg.trunc_epsilon}")

    min_r_max = 2.0 * max(cfg.r_disc, cfg.d_sd)
    if cfg.r_max < min_r_max:
        problems.append(
            f"r_max must be >= 2*max(r_disc, d_sd) = {min_r_max}, got {cfg.r_max}")

    if cfg.slot_position_model not in SLOT_POSITION_MODELS:
        problems.append(
            f"slot_position_model must be one of {SLOT_POSITION_MODELS}, "
            f"got {cfg.slot_position_model!r}")
    if cfg.harvest_threshold_mode not in HARVEST_THRESHOLD_MODES:
        problems.append(
            f"harvest_threshold_mode must be one of {HARVEST_THRESHOLD_MODES}, "
            f"got {cfg.harvest_threshold_mode!r}")

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

    return dataclasses.replace(
        cfg,
        p_t_mw=dbm_to_linear(cfg.p_t_dbm),
        p_st_mw=dbm_to_linear(cfg.p_st_dbm),
        gamma_th_lin=db_to_linear(cfg.gamma_th_db),
    )


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
    text = text.strip()
    if name in _BOOL_FIELDS:
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError([f"{name} must be a boolean, got {text!r}"])
    if name in _STR_FIELDS:
        return text
    if name in _OPTIONAL_FIELDS and text.lower() in ("none", ""):
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError([f"{name} must be numeric, got {text!r}"]) from None


def parse_config_text(text: str, base: SystemConfig | None = None) -> SystemConfig:
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
    return dataclasses.replace(base or SystemConfig(), **overrides)


def load_config(path: str, base: SystemConfig | None = None) -> SystemConfig:
    """Read a config file; the result still needs ``validate``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def apply_overrides(cfg: SystemConfig, overrides: dict) -> SystemConfig:
    """Return a copy of ``cfg`` with the given raw fields replaced."""
    unknown = sorted(set(overrides) - set(RAW_FIELDS))
    if unknown:
        raise ConfigError([f"unknown config field {name!r}" for name in unknown])
    return dataclasses.replace(cfg, **overrides)
