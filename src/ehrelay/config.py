"""System configuration, unit conversions, and validation.

All internal computation runs in linear units (mW, meters, dimensionless
ratios); dB and dBm appear only at the configuration and reporting boundary.
A config is usable by the other modules only after ``validate`` has set its
linear-unit fields; each field's kind (bool, choice string or number) is
read from its declaration.
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


def db_to_linear(x_db: float) -> float:
    """Convert a ratio in dB to a linear ratio, or a power in dBm to mW."""
    if not math.isfinite(x_db):
        raise ValueError(f"non-finite dB value: {x_db!r}")
    return 10.0 ** (x_db / 10.0)


SLOT_POSITION_MODELS = ("independent", "static")


@dataclass(frozen=True)
class SystemConfig:
    """All physical and protocol parameters of one network scenario.

    Raw fields use the units stated in their names; a ``str`` default marks
    a choice among ``choices``. No field holds the block duration T: a block
    harvests eta * p_t * T * K and spends (1-a)/2 * p_st * T, so T cancels
    from the one threshold on K (``harvest_threshold``). With ``direct_link``
    a trial succeeds when the direct or the relayed branch decodes
    (selection combining). The trailing ``*_mw`` / ``*_lin`` fields are not
    constructor arguments: only ``validate`` sets them, on the copy it
    returns, so any ``replace`` copy starts out unvalidated.
    """

    lambda_p: float = 0.01        # density of PTs and PRs, nodes per m^2
    lambda_sr: float = 1.0        # density of relays inside the disc, per m^2
    p_t_dbm: float = 25.0         # primary transmit power
    p_st_dbm: float = -2.0        # secondary transmit-power threshold
    eta: float = 0.8              # harvesting efficiency, in (0, 1]
    a: float = 0.5                # harvesting slot time fraction, in (0, 1)
    alpha: float = 4.0            # path-loss exponent, > 2
    r_disc: float = 1.0           # relay-disc radius around the transmitter, m
    r_gz: float = 1.0             # guard-zone radius around each PR, m
    gamma_th_db: float = -10.0    # SIR decode threshold
    d_sd: float = 2.0             # transmitter-to-destination separation, m
    r_max: float = 50.0           # truncation radius for the primary fields, m
    direct_link: bool = False     # whether the direct ST-SD link exists
    slot_position_model: str = field(
        default="independent", metadata={"choices": SLOT_POSITION_MODELS})
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
    elif not (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value)):
        return f"{f.name} must be a finite number, got {value!r}"
    return None


def validate(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant and return a copy with the linear fields set.

    Every raw field is first checked against its kind. Once all kinds hold,
    each dB field is converted once, and it must have a finite, nonzero
    linear value; then the range rules run. Raises ``ConfigError`` carrying
    one diagnostic per violated invariant. Validating an already-validated
    config returns an identical value.
    """
    problems = [p for p in (_kind_problem(f, getattr(cfg, name))
                            for name, f in _RAW.items()) if p]
    if problems:
        raise ConfigError(problems)

    linear = {}
    for name, source in zip(LINEAR_FIELDS, ("p_t_dbm", "p_st_dbm", "gamma_th_db")):
        try:
            linear[name] = db_to_linear(getattr(cfg, source))
        except OverflowError:
            linear[name] = math.inf
        if not 0.0 < linear[name] < math.inf:
            problems.append(f"{source} must have a finite, nonzero linear value, "
                            f"got {getattr(cfg, source)}")
    if not cfg.alpha > 2.0:
        problems.append(f"alpha must exceed 2, got {cfg.alpha}")
    if not 0.0 < cfg.a < 1.0:
        problems.append(f"a in open interval (0,1), got {cfg.a}")
    if not 0.0 < cfg.eta <= 1.0:
        problems.append(f"eta in half-open interval (0,1], got {cfg.eta}")
    for name in ("lambda_p", "lambda_sr", "r_gz"):
        if getattr(cfg, name) < 0.0:
            problems.append(f"{name} must be >= 0, got {getattr(cfg, name)}")
    for name in ("r_disc", "d_sd"):
        if not getattr(cfg, name) > 0.0:
            problems.append(f"{name} must be > 0, got {getattr(cfg, name)}")

    min_r_max = 2.0 * max(cfg.r_disc, cfg.d_sd)
    if cfg.r_max < min_r_max:
        problems.append(
            f"r_max must be >= 2*max(r_disc, d_sd) = {min_r_max}, got {cfg.r_max}")

    if problems:
        raise ConfigError(problems)

    out = dataclasses.replace(cfg)  # init=False fields start as None
    for name, value in linear.items():
        object.__setattr__(out, name, value)
    return out


def harvest_threshold(cfg: SystemConfig) -> float:
    """Threshold on the normalized harvested sum K for a scheduled transmission.

    A block harvests eta * p_t * T * K and its transmission slot spends
    (1-a)/2 * p_st * T, so the transmitter has enough energy when
    K >= (1-a)/2 * p_st / (eta * p_t).
    """
    return ((1.0 - cfg.a) / 2.0) * cfg.p_st_mw / (cfg.eta * cfg.p_t_mw)


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
    try:
        return float(text)
    except ValueError:
        raise ConfigError([f"{name} must be numeric, got {text!r}"]) from None


def parse_config_text(text: str, overrides: dict | None = None) -> SystemConfig:
    """Parse a flat ``key = value`` config (one pair per line, # comments),
    with ``overrides``, {field: value text} as on the command line, on top.

    Raises ``ConfigError`` with every bad line's and override's diagnostic,
    labelled ``line N:`` or by the override's flag (``--r_gz:``).
    """
    settings = []   # (label, key or None if the line has no '=', value text)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            key, eq, value = line.partition("=")
            settings.append((f"line {lineno}", key.strip() if eq else None,
                             value if eq else raw_line))
    settings += [(f"--{key}", key, value) for key, value in (overrides or {}).items()]
    values, problems = {}, []
    for label, key, value in settings:
        if key is None:
            problems.append(f"{label}: expected 'key = value', got {value!r}")
        elif key not in RAW_FIELDS:
            problems.append(f"{label}: unknown config key {key!r}")
        else:
            try:
                values[key] = parse_value(key, value)
            except ConfigError as exc:
                problems += [f"{label}: {d}" for d in exc.diagnostics]
    if problems:
        raise ConfigError(problems)
    return SystemConfig(**values)


def load_config(path: str | None = None, overrides: dict | None = None) -> SystemConfig:
    """``parse_config_text`` of the file at ``path`` (no file: the defaults)
    and ``overrides``; the result still needs ``validate``."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from None
    return parse_config_text(text, overrides)


def apply_overrides(cfg: SystemConfig, overrides: dict) -> SystemConfig:
    """Return a copy of ``cfg`` with the given raw fields replaced; like any
    ``replace`` copy, it needs ``validate`` again."""
    unknown = sorted(set(overrides) - set(RAW_FIELDS))
    if unknown:
        raise ConfigError([f"unknown config field {name!r}" for name in unknown])
    return dataclasses.replace(cfg, **overrides)
