"""Unit conversions, validation diagnostics, and config-file parsing."""

import dataclasses
import math

import pytest

from ehrelay.config import (ConfigError, SystemConfig, apply_overrides,
                            db_to_linear, dbm_to_linear, harvest_threshold,
                            load_config, parse_config_text, validate)


def test_dbm_to_linear_definition():
    assert dbm_to_linear(0.0) == 1.0
    assert dbm_to_linear(25.0) == pytest.approx(316.2278, abs=1e-4)
    assert dbm_to_linear(-2.0) == pytest.approx(0.6310, abs=1e-4)


def test_db_to_linear_definition():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        dbm_to_linear(bad)
    with pytest.raises(ValueError):
        db_to_linear(bad)


def test_baseline_validates():
    cfg = validate(SystemConfig())
    assert cfg.validated
    assert cfg.p_t_mw == pytest.approx(316.2278, abs=1e-4)
    assert cfg.p_st_mw == pytest.approx(0.6310, abs=1e-4)
    assert cfg.gamma_th_lin == pytest.approx(0.1, rel=1e-12)


def test_validate_idempotent():
    once = validate(SystemConfig())
    twice = validate(once)
    assert once == twice


def test_alpha_two_rejected():
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(alpha=2.0))
    assert any("alpha must exceed 2" in d for d in err.value.diagnostics)


def test_degenerate_slot_rejected():
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(a=0.0))
    assert any("a in open interval (0,1)" in d for d in err.value.diagnostics)


def test_multiple_diagnostics_reported():
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(alpha=2.0, a=1.5, eta=0.0))
    joined = " ".join(err.value.diagnostics)
    assert "alpha" in joined and "a in open interval" in joined and "eta" in joined


def test_truncation_tail_bound_enforced():
    # Tightening the allowed tail fraction makes the baseline r_max too small.
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(trunc_epsilon=1e-6))
    assert any("truncation tail" in d for d in err.value.diagnostics)
    validate(SystemConfig(trunc_epsilon=1e-6, r_max=5000.0))


def test_r_max_floor():
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(r_max=3.0))
    assert any("r_max" in d for d in err.value.diagnostics)


def test_power_feasibility_bounds():
    validate(SystemConfig(p_min_dbm=-5.0, p_max_dbm=10.0))
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(p_min_dbm=0.0))
    assert any("p_min_dbm" in d for d in err.value.diagnostics)
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(p_max_dbm=-5.0))
    assert any("p_max_dbm" in d for d in err.value.diagnostics)


def test_harvest_threshold_modes():
    cfg = validate(SystemConfig())
    sigma = harvest_threshold(cfg)
    expected = 0.5 * cfg.p_st_mw / (2 * 0.8 * cfg.p_t_mw) * 2  # (1-a)/2 with a=0.5
    assert sigma == pytest.approx((1 - cfg.a) / 2 * cfg.p_st_mw / (cfg.eta * cfg.p_t_mw),
                                  rel=1e-12)
    alt = validate(dataclasses.replace(cfg, harvest_threshold_mode="energy-over-a"))
    assert harvest_threshold(alt) == pytest.approx(sigma / cfg.a, rel=1e-12)


def test_parse_config_text():
    cfg = parse_config_text(
        """
        # comment line
        lambda_p = 0.02   # inline comment
        p_t_dbm = 15
        direct_link = true
        slot_position_model = static
        """)
    assert cfg.lambda_p == 0.02
    assert cfg.p_t_dbm == 15.0
    assert cfg.direct_link is True
    assert cfg.slot_position_model == "static"


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("mystery = 3\n")
    assert any("mystery" in d for d in err.value.diagnostics)


def test_load_baseline_file(baseline_path, baseline):
    cfg = validate(load_config(baseline_path))
    assert cfg == baseline


def test_apply_overrides_rejects_unknown():
    with pytest.raises(ConfigError):
        apply_overrides(SystemConfig(), {"p_t_mw": 5.0})
