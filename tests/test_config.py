"""Unit conversions, validation diagnostics, and config-file parsing."""

import dataclasses
import math

import numpy as np
import pytest

from ehrelay.analytics import analyze
from ehrelay.config import (ConfigError, SystemConfig, apply_overrides,
                            db_to_linear, dbm_to_linear, harvest_threshold,
                            load_config, parse_config_text, parse_value,
                            validate)
from ehrelay.simulate import simulate_all


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


def test_linear_fields_are_set_by_validate_only():
    with pytest.raises(TypeError):
        SystemConfig(p_t_mw=1.0)
    raw = SystemConfig()
    assert not raw.validated
    assert (raw.p_t_mw, raw.p_st_mw, raw.gamma_th_lin) == (None, None, None)


@pytest.mark.parametrize("copy", [
    lambda cfg: apply_overrides(cfg, {"p_st_dbm": 10.0}),
    lambda cfg: dataclasses.replace(cfg, p_st_dbm=10.0),
], ids=["apply_overrides", "replace"])
def test_copies_of_a_validated_config_need_validating_again(copy, baseline):
    stale = copy(baseline)
    assert not stale.validated
    assert stale.p_st_mw is None
    with pytest.raises(ValueError, match="validate"):
        simulate_all(stale, 10, seed=1)
    with pytest.raises(ValueError, match="validate"):
        analyze(stale, "bcc")
    fresh = validate(stale)
    assert fresh.p_st_mw == pytest.approx(10.0, rel=1e-12)
    assert fresh.p_t_mw == baseline.p_t_mw
    assert fresh.gamma_th_lin == baseline.gamma_th_lin
    # The 10 dBm value, not the -2 dBm baseline's 0.19602.
    assert analyze(fresh, "bcc").p_succ == pytest.approx(0.2062706186, rel=1e-9)


def test_replace_of_any_field_clears_validation(baseline):
    assert not dataclasses.replace(baseline, alpha=1.5).validated


def test_numpy_grid_values_validate():
    grid = np.linspace(-5.0, 5.0, 3)
    cfg = validate(SystemConfig(p_st_dbm=grid[1], p_min_dbm=grid[0],
                                alpha=np.float64(3.0), r_max=400.0))
    assert cfg.p_st_mw == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name,check", [
    ("lambda_p", lambda: validate(SystemConfig(lambda_p=-1e-3))),
    ("lambda_sr", lambda: validate(SystemConfig(lambda_sr=-1.0))),
    ("r_disc", lambda: validate(SystemConfig(r_disc=0.0))),
    ("d_sd", lambda: validate(SystemConfig(d_sd=0.0))),
    ("r_gz", lambda: validate(SystemConfig(r_gz=-0.5))),
    ("t_block", lambda: validate(SystemConfig(t_block=0.0))),
    ("trunc_epsilon", lambda: validate(SystemConfig(trunc_epsilon=0.0))),
    ("slot_position_model", lambda: validate(SystemConfig(slot_position_model="moving"))),
    ("harvest_threshold_mode",
     lambda: validate(SystemConfig(harvest_threshold_mode="power"))),
    ("eta", lambda: validate(SystemConfig(eta=math.inf))),
    ("gamma_th_db", lambda: validate(SystemConfig(gamma_th_db=-math.inf))),
    ("p_min_dbm", lambda: validate(SystemConfig(p_min_dbm=math.nan))),
    ("p_max_dbm", lambda: validate(SystemConfig(p_max_dbm="5"))),
    ("alpha", lambda: validate(SystemConfig(alpha="3"))),
    ("alpha", lambda: validate(SystemConfig(alpha=True))),
    ("lambda_p", lambda: validate(SystemConfig(lambda_p=None))),
    ("direct_link", lambda: validate(SystemConfig(direct_link="false"))),
    ("direct_link", lambda: validate(SystemConfig(direct_link=0))),
    ("direct_literal_events",
     lambda: validate(SystemConfig(direct_literal_events=None))),
    ("slot_position_model", lambda: validate(SystemConfig(slot_position_model=None))),
    ("direct_link", lambda: parse_value("direct_link", "maybe")),
    ("alpha", lambda: parse_value("alpha", "four")),
    ("alpha", lambda: parse_value("alpha", "none")),
    ("alpha", lambda: parse_config_text("alpha 3\n")),
], ids=["lambda_p<0", "lambda_sr<0", "r_disc=0", "d_sd=0", "r_gz<0", "t_block=0",
        "trunc_epsilon=0", "slot_model", "harvest_mode", "eta=inf",
        "gamma_th_db=-inf", "p_min_dbm=nan", "p_max_dbm_str", "alpha_str",
        "alpha_bool", "lambda_p_none", "direct_link_str", "direct_link_int",
        "direct_literal_events_none", "slot_model_none", "parse_bool",
        "parse_number", "parse_none_not_optional", "line_without_equals"])
def test_every_diagnostic_names_its_field(name, check):
    # A value of the wrong kind is a ConfigError, never a TypeError or a pass.
    with pytest.raises(ConfigError) as err:
        check()
    assert any(name in d for d in err.value.diagnostics)


def test_parse_value_kinds():
    assert parse_value("p_min_dbm", " None ") is None
    assert parse_value("p_max_dbm", "") is None
    assert parse_value("direct_link", "Off") is False
    assert parse_value("harvest_threshold_mode", " energy-over-a ") == "energy-over-a"
    assert parse_value("alpha", "3.5") == 3.5
