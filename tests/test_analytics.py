"""Closed forms, quadrature cross-checks, inversion, and compositions.

Expected values are computed inline from independent formulas (stable-law
tails, Gamma identities, brute-force grids), never from the code paths under
test.
"""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrelay import analytics as an
from ehrelay.analytics import (AnalyticBreakdown,
                               UnsupportedScheme, alpha4_selfcheck, analyze,
                               QuadratureFailure, chi_bstd, chi_common,
                               chi_integral, delta_decode,
                               gamma_pair, guard_zone_prob, omega1,
                               p_h_gil_pelaez, p_h_levy_erf, p_nonempty,
                               psi31_bound, psi4_far_field, xi_bstd)
from ehrelay.config import ConfigError, SystemConfig, harvest_threshold, validate
from ehrelay.geometry import RngStream, shot_noise_batch


def cfg_with(**kw):
    return validate(SystemConfig(**kw))


def laplace_K(s, cfg):
    """E[exp(-s*K)] of the normalized harvested sum K, from ``levy_scale``."""
    return math.exp(-an.levy_scale(cfg) * s ** (2 / cfg.alpha))


# ---------------------------------------------------------------------------
# Poisson-field constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [2.2, 2.5, 3.0, 3.5, 5.0])
def test_standard_pathloss_integral_matches_closed_form(alpha):
    # The decode kernels' quadrature constant, also for alpha near 2, where
    # node doubling on the semi-infinite map used to stall.
    from ehrelay.analytics import _standard_pathloss_integral
    _standard_pathloss_integral.cache_clear()
    t0 = time.perf_counter()
    value = _standard_pathloss_integral(alpha)
    assert time.perf_counter() - t0 < 1.0
    assert value == pytest.approx(gamma_pair(alpha) / 2.0, rel=1e-10)


def test_gamma_pair_alpha4_constant():
    assert gamma_pair(4.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
    # Reflection identity against the direct Gamma product.
    for alpha in (2.5, 3.0, 4.0, 6.0):
        direct = math.gamma(1 + 2 / alpha) * math.gamma(1 - 2 / alpha)
        assert gamma_pair(alpha) == pytest.approx(direct, rel=1e-12)


@pytest.fixture
def fresh_rings():
    """An empty ring-rule cache on entry and exit, so that a rule built while a
    test patches ``_leggauss`` neither hides behind a cached one nor stays."""
    an._ring_geometry.cache_clear()
    yield
    an._ring_geometry.cache_clear()


def test_settle_stops_at_a_non_finite_level(monkeypatch, fresh_rings):
    # A NaN level is final: doubling it would build rules up to 16,384 nodes
    # (a 2 GB companion matrix) before giving up.
    built = []
    real = an._leggauss
    monkeypatch.setattr(an, "_leggauss", lambda n: built.append(n) or real(n))
    with pytest.raises(QuadratureFailure) as info:
        an.integrate_doubling(lambda x: np.full_like(x, np.nan), 0.0, 1.0, "nan")
    assert info.value.context == "nan"
    assert built and max(built) <= 128


def test_settle_raises_at_an_infinite_finer_level():
    # inf - 1 is within any relative tolerance of inf; it is no settled value.
    with pytest.raises(QuadratureFailure) as info:
        an._settle(lambda n: 1.0 if n == 16 else math.inf, 16, 2, "inf")
    assert info.value.context == "inf"


# ---------------------------------------------------------------------------
# Harvested-sum transform and inversion
# ---------------------------------------------------------------------------

def test_laplace_K_trivial():
    cfg = cfg_with()
    assert laplace_K(0.0, cfg) == 1.0
    assert laplace_K(5.0, cfg_with(lambda_p=0.0)) == 1.0


def test_laplace_K_baseline_gamma_simplification():
    cfg = cfg_with()
    expected = math.exp(-cfg.lambda_p * (math.pi ** 2 / 2.0)
                        * (math.sqrt(0.25) + math.sqrt(0.5)))
    assert laplace_K(1.0, cfg) == pytest.approx(expected, rel=1e-12)


def test_laplace_K_matches_simulated_harvest_sum():
    # Cross-module oracle: empirical mean of exp(-s*K) over sampled fields.
    cfg = cfg_with(r_max=150.0)
    n = 20_000
    s1 = shot_noise_batch(cfg.lambda_p, cfg.r_max, cfg.alpha, n, RngStream(60, 0))
    s2 = shot_noise_batch(cfg.lambda_p, cfg.r_max, cfg.alpha, n, RngStream(60, 1))
    k = cfg.a * s1 + (1 - cfg.a) / 2.0 * s2
    for s in (0.5, 1.0):
        vals = np.exp(-s * k)
        sigma = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - laplace_K(s, cfg)) <= 3.0 * sigma


def test_p_h_trivial_limits():
    # At the default alpha of 4 the erf form answers too.
    for p_h in (p_h_gil_pelaez, an.p_h_kanter, p_h_levy_erf):
        assert p_h(cfg_with(lambda_p=0.0)) == 0.0
        # Vanishing power threshold: any positive harvest suffices.
        tiny = cfg_with(p_st_dbm=-25.0, r_max=200.0)
        assert p_h(tiny) == pytest.approx(1.0, abs=1e-9)


def test_p_h_gil_pelaez_matches_stable_law_tail():
    for lam in (1e-3, 1e-2, 1e-1):
        cfg = cfg_with(lambda_p=lam)
        assert p_h_gil_pelaez(cfg) == pytest.approx(p_h_levy_erf(cfg), abs=1e-9)


def test_p_h_inversion_grid_against_stable_law():
    # 10-point (lambda_p, p_st) grid, absolute agreement within 1e-6.
    for lam in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        for p_st in (-5.0, 3.0):
            cfg = cfg_with(lambda_p=lam, p_st_dbm=p_st, r_max=150.0)
            assert abs(p_h_gil_pelaez(cfg) - p_h_levy_erf(cfg)) <= 1e-6


def test_p_h_monotone_in_p_st_and_lambda_p():
    vals_p = [p_h_gil_pelaez(cfg_with(p_st_dbm=p)) for p in (-10, -5, 0, 5, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(vals_p, vals_p[1:]))
    vals_l = [p_h_gil_pelaez(cfg_with(lambda_p=l))
              for l in (1e-3, 3e-3, 1e-2, 3e-2)]
    assert all(b >= a - 1e-12 for a, b in zip(vals_l, vals_l[1:]))


@pytest.mark.parametrize("lambda_p", [1e-14, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("p_st_dbm", [-10.0, 15.0])
def test_p_h_kanter_matches_levy_erf_far_in_the_tail(lambda_p, p_st_dbm):
    # Relative agreement down to p_h ~ 2e-13 (lambda_p = 1e-14, 15 dBm).
    cfg = cfg_with(lambda_p=lambda_p, p_st_dbm=p_st_dbm)
    assert an.p_h_kanter(cfg) == pytest.approx(p_h_levy_erf(cfg), rel=1e-9)


@pytest.fixture
def node_counts(monkeypatch, fresh_rings):
    """Gauss-Legendre node counts that analytics builds while the test runs."""
    counts = []
    leggauss = an._leggauss
    monkeypatch.setattr(an, "_leggauss", lambda n: counts.append(n) or leggauss(n))
    return counts


def test_p_h_kanter_settles_close_to_alpha_2(node_counts):
    # At alpha = 2.001 the integrand falls as psi^(-2001) past the split; the
    # u-range must stop where it is negligible or 1024 nodes do not settle.
    # p_st is raised by 10 log10(1/a) dB, which puts the threshold 1/a = 20
    # times above that of the unraised p_st.
    values = [an.p_h_kanter(cfg_with(alpha=2.001, lambda_p=1e-8, a=0.05,
                                     p_st_dbm=p + 10.0 * math.log10(1.0 / 0.05)))
              for p in (2.5, 10.0, 15.0)]
    assert max(node_counts) <= 1024
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[0] >= values[1] >= values[2]


# An exact sampler of the standard positive-stable law of index beta, as an
# oracle for the quadratures near alpha = 2 that Gil-Pelaez cannot reach and
# the alpha = 4 erf form does not cover: S = (A(phi)/E)^(1/k), k = beta/(1-beta),
# phi ~ U(0, pi), E ~ Exp(1), with Zolotarev's function A in Kanter's form
# (Kanter 1975; Chambers, Mallows & Stuck 1976). The seed was fixed before
# any comparison was run.
SAMPLER_SEED = 2026
SAMPLER_DRAWS = 400_000


def _log_kanter_a(phi, beta):
    """log A(phi) = k log sin(beta phi) + log sin((1-beta) phi) - log sin(phi)/(1-beta)."""
    k = beta / (1.0 - beta)
    return (k * np.log(np.sin(beta * phi)) + np.log(np.sin((1.0 - beta) * phi))
            - np.log(np.sin(phi)) / (1.0 - beta))


def _stable_log_samples(beta):
    """SAMPLER_DRAWS samples of log S, S standard positive stable of index beta."""
    rng = np.random.default_rng(SAMPLER_SEED)
    phi = rng.uniform(0.0, math.pi, SAMPLER_DRAWS)
    log_e = np.log(rng.standard_exponential(SAMPLER_DRAWS))
    return (_log_kanter_a(phi, beta) - log_e) * ((1.0 - beta) / beta)


def _z_scores(sampled, exact):
    exact = np.asarray(exact)
    return (sampled - exact) / np.sqrt(exact * (1.0 - exact) / SAMPLER_DRAWS)


@pytest.mark.parametrize("alpha,lambda_p,p_st_dbm", [
    (2.02, 1e-5, 5.0), (2.05, 1e-5, 5.0), (2.1, 1e-5, -2.0), (2.1, 1e-4, 5.0),
    (2.2, 1e-5, -2.0), (2.2, 1e-4, 5.0)])
def test_p_h_kanter_matches_plane_field_sampler(alpha, lambda_p, p_st_dbm):
    # K = C^(1/beta) * S over the whole plane, C = lambda_p*pi*Gamma(1+beta)
    # *Gamma(1-beta)*(a^beta + ((1-a)/2)^beta), so P(K >= sigma) is the
    # sampled share of log S above log sigma - log(C)/beta.
    cfg = cfg_with(alpha=alpha, lambda_p=lambda_p, p_st_dbm=p_st_dbm)
    beta = 2.0 / alpha
    c = (lambda_p * math.pi * math.gamma(1.0 + beta) * math.gamma(1.0 - beta)
         * (cfg.a ** beta + ((1.0 - cfg.a) / 2.0) ** beta))
    log_x = math.log(harvest_threshold(cfg)) - math.log(c) / beta
    p_h = an.p_h_kanter(cfg)
    assert 0.008 < p_h < 0.87
    sampled = np.mean(_stable_log_samples(beta) > log_x)
    assert abs(_z_scores(sampled, p_h)) <= 5.0


# Per alpha, x values at which P(S > x) runs from about 0.99 to 0.001.
TAIL_RULE_POINTS = {
    2.2: (0.64, 0.71, 0.89, 1.85, 12.9, 141.0),
    2.1: (0.774, 0.814, 0.916, 1.39, 6.2, 57.0),
    2.05: (0.865, 0.887, 0.942, 1.18, 3.5, 26.0),
    2.02: (0.935, 0.945, 0.968, 1.067, 1.97, 10.6),
}


@pytest.mark.parametrize("alpha", sorted(TAIL_RULE_POINTS))
def test_stable_tail_rule_matches_plane_field_sampler(alpha):
    # One rule over the whole x range, read at every level chi_common takes
    # (a quarter of its 48..768 ring nodes), as chi_common reads it.
    beta = 2.0 / alpha
    k = beta / (1.0 - beta)
    log_x = np.log(TAIL_RULE_POINTS[alpha])
    tail = an._stable_tail_rule(-k * log_x[-1], -k * log_x[0], beta)
    sampled = np.mean(_stable_log_samples(beta)[:, None] > log_x, axis=0)
    for n in (12, 24, 48, 96, 192):
        exact = tail(-k * log_x, n)
        assert exact[0] > 0.98 and exact[-1] < 0.002
        assert np.all(np.abs(_z_scores(sampled, exact)) <= 5.0), n


def _pollard_tail(x, beta):
    """P(S > x) of the standard positive-stable S of index beta < 1 from its
    convergent series (Pollard 1946; Feller vol. II, XVII.6):
    (1/pi) sum_{n>=1} (-1)^(n+1) Gamma(n*beta)/n! * sin(n*pi*beta) * x^(-n*beta).
    The sum stops on a term's size without its sine, which vanishes at some n
    (n = 3 for beta = 2/3), where a stop on the signed term would quit early."""
    total = 0.0
    for n in range(1, 1000):
        size = math.exp(math.lgamma(n * beta) - math.lgamma(n + 1.0) - n * beta * math.log(x))
        total += (-1) ** (n + 1) * size * math.sin(n * math.pi * beta)
        if size <= 1e-18 * abs(total):
            return total / math.pi
    raise AssertionError(f"series at x={x}, beta={beta} did not converge")


@pytest.mark.parametrize("x", [1.5, 3.0, 10.0, 1000.0])
@pytest.mark.parametrize("alpha", [3.0, 2.5, 2.1, 2.02])
def test_stable_tail_rule_matches_pollard_series(alpha, x):
    # From x = 1.5 up each term is at most about x^(-n*beta)/n, so the series
    # is an oracle to full precision, also as alpha nears 2.
    beta = 2.0 / alpha
    log_t = -beta / (1.0 - beta) * math.log(x)
    tail = an._stable_tail_rule(log_t, log_t, beta)
    assert tail(log_t, 256) == pytest.approx(_pollard_tail(x, beta), rel=1e-12)


# Valid configs on which the oscillatory inversion stalls; analyze reads the
# harvest probability from Kanter's phi-integral instead.
DEEP_TAIL_CONFIGS = [
    {"lambda_p": 1e-4},
    {"lambda_p": 3e-4, "p_st_dbm": 10.0},
    {"alpha": 3.0, "r_max": 400.0},
    {"alpha": 3.5, "r_max": 100.0},
    {"alpha": 2.2, "r_max": 5000.0},
    {"alpha": 2.5, "r_max": 5000.0},
    {"lambda_p": 1e-8},
]


@pytest.mark.parametrize("overrides", DEEP_TAIL_CONFIGS,
                         ids=lambda o: ",".join(f"{k}={v:g}" for k, v in o.items()))
def test_analyze_total_where_inversion_stalls(overrides, node_counts):
    cfg = cfg_with(**overrides)
    p_h = an.p_h_kanter(cfg)
    assert 0 < max(node_counts) <= 1024
    if cfg.alpha == 4.0:
        assert p_h == pytest.approx(p_h_levy_erf(cfg), rel=1e-9)
    for scheme in ("bcc", "bsir"):
        analyze(cfg, scheme)  # warm the per-alpha caches
        t0 = time.perf_counter()
        b = analyze(cfg, scheme)
        assert time.perf_counter() - t0 < 0.05
        assert b.p_h == p_h
        for name in an.BREAKDOWN_FIELDS:
            value = getattr(b, name)
            assert value is None or 0.0 <= value <= 1.0, name


def test_p_h_kanter_inside_monte_carlo_band():
    # alpha = 3.5, where the inversion stalls; harvested sum sampled directly
    # as in criterion 1, 3-sigma Wilson band.
    cfg = cfg_with(alpha=3.5, lambda_p=3e-3, p_st_dbm=5.0)
    with pytest.raises(QuadratureFailure):
        p_h_gil_pelaez(cfg)
    from ehrelay.simulate import wilson_interval
    trials = 30_000
    s1 = shot_noise_batch(cfg.lambda_p, cfg.r_max, cfg.alpha, trials, RngStream(1101, 0))
    s2 = shot_noise_batch(cfg.lambda_p, cfg.r_max, cfg.alpha, trials, RngStream(1101, 1))
    k = cfg.a * s1 + (1.0 - cfg.a) / 2.0 * s2
    hits = int(np.count_nonzero(k >= harvest_threshold(cfg)))
    lo, hi = wilson_interval(hits, trials, z=3.0)
    assert lo <= an.p_h_kanter(cfg) <= hi


def test_gil_pelaez_overflowing_phase_rate_is_a_panel_failure():
    # Valid, with a phase rate past the float range at the first panel edge;
    # analyze reads Kanter and returns.
    cfg = cfg_with(lambda_p=1e-200, p_st_dbm=-2000.0, alpha=8.0)
    with pytest.raises(QuadratureFailure) as info:
        p_h_gil_pelaez(cfg)
    assert info.value.context == "gil-pelaez panels"
    assert 0.0 <= analyze(cfg, "bcc").p_succ <= 1.0


def test_gil_pelaez_non_finite_level_raises(monkeypatch, fresh_rings):
    # A NaN integral is no harvest probability; clamped, it read 0.
    real = an._leggauss
    monkeypatch.setattr(an, "_leggauss", lambda n: (real(n)[0], np.full(n, np.nan)))
    with pytest.raises(QuadratureFailure) as info:
        p_h_gil_pelaez(cfg_with())
    assert info.value.context == "gil-pelaez inversion"


def test_gil_pelaez_groups_sum_as_the_ungrouped_level(monkeypatch):
    # 8,556 panels: under one group of the default size, which keeps the bits
    # of the ungrouped sum, and nine groups of 1,000.
    cfg = cfg_with(lambda_p=1e-3)
    one_group = p_h_gil_pelaez(cfg)
    monkeypatch.setattr(an, "_GIL_PELAEZ_GROUP", 1 << 30)
    whole = p_h_gil_pelaez(cfg)
    assert one_group == whole
    rows = []
    real = an._gl_panels
    monkeypatch.setattr(an, "_gl_panels",
                        lambda f, lo, hi, n: rows.append(len(lo)) or real(f, lo, hi, n))
    monkeypatch.setattr(an, "_GIL_PELAEZ_GROUP", 1000)
    assert p_h_gil_pelaez(cfg) == pytest.approx(whole, rel=1e-12)
    assert max(rows) == 1000 and sum(rows) == 2 * 8556


def test_gil_pelaez_memory_stays_near_one_group():
    # 191k panels, 64 nodes at the finest level: 254 MB traced when every
    # panel's nodes were built at once; now a few arrays of one group.
    cfg = cfg_with(alpha=5.0, lambda_p=3e-3, p_st_dbm=5.0)
    group_bytes = an._GIL_PELAEZ_GROUP * 64 * 8
    tracemalloc.start()
    try:
        p_h_gil_pelaez(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * group_bytes


def test_p_h_kanter_agrees_with_gil_pelaez_where_it_converges():
    # The analyze_grid configs at alpha 4 and 5.
    checked = 0
    for alpha in (4.0, 5.0):
        for lam in np.geomspace(3e-3, 3e-2, 3):
            for p_st in (0.0, 5.0, 10.0):
                cfg = cfg_with(alpha=alpha, lambda_p=float(lam), p_st_dbm=p_st)
                try:
                    oracle = p_h_gil_pelaez(cfg)
                except QuadratureFailure:
                    continue
                assert an.p_h_kanter(cfg) == pytest.approx(oracle, rel=1e-9)
                checked += 1
    assert checked >= 9


def _p_h_at(alpha, lambda_p, p_st_dbm, a, eta):
    return an.p_h_kanter(cfg_with(alpha=alpha, lambda_p=lambda_p, p_st_dbm=p_st_dbm,
                                  a=a, eta=eta))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=st.floats(2.2, 8.0),
       log_lambda=st.floats(-8.0, -1.0),
       p_st=st.floats(-10.0, 15.0),
       d_p_st=st.floats(0.0, 5.0),
       log_ratio=st.floats(0.0, 2.0),
       a=st.floats(0.01, 0.99),
       eta=st.floats(0.05, 1.0))
def test_p_h_kanter_properties(alpha, log_lambda, p_st, d_p_st, log_ratio, a, eta):
    lam = 10.0 ** log_lambda
    p_h = _p_h_at(alpha, lam, p_st, a, eta)
    assert math.isfinite(p_h) and 0.0 <= p_h <= 1.0
    louder = _p_h_at(alpha, lam, min(p_st + d_p_st, 15.0), a, eta)
    assert louder <= p_h + 1e-12
    denser = _p_h_at(alpha, min(lam * 10.0 ** log_ratio, 0.1), p_st, a, eta)
    assert denser >= p_h - 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=st.floats(2.2, 12.0),
       log_lambda=st.floats(-12.0, 1.0),
       p_st=st.floats(-10.0, 15.0),
       gamma=st.floats(-20.0, 20.0),
       d_gamma=st.floats(0.0, 10.0),
       lambda_sr=st.floats(0.0, 5.0),
       d_lambda_sr=st.floats(0.0, 3.0),
       r_disc=st.floats(0.01, 31.6),
       d_sd=st.floats(0.1, 10.0),
       r_gz=st.floats(0.0, 3.0),
       scheme=st.sampled_from(["bcc", "bsir"]),
       direct=st.booleans())
def test_bcc_bsir_breakdown_properties(alpha, log_lambda, p_st, gamma, d_gamma,
                                       lambda_sr, d_lambda_sr, r_disc, d_sd, r_gz,
                                       scheme, direct):
    base = dict(alpha=alpha, lambda_p=10.0 ** log_lambda, p_st_dbm=p_st,
                gamma_th_db=gamma, lambda_sr=lambda_sr, r_disc=r_disc, d_sd=d_sd,
                r_gz=r_gz, direct_link=direct, r_max=2.0 * max(r_disc, d_sd))

    def breakdown(**changes):
        b = analyze(cfg_with(**{**base, **changes}), scheme)
        for name in an.BREAKDOWN_FIELDS:
            value = getattr(b, name)
            assert value is None or 0.0 <= value <= 1.0, name
        return b

    b = breakdown()
    harder = breakdown(gamma_th_db=gamma + d_gamma)
    if not direct:
        # With the direct link, the paper's decomposition weighs a relay
        # failure by one guard factor and a relay success by two, so p_succ
        # can rise with the threshold when guard zones are large.
        assert harder.p_succ <= b.p_succ + 1e-12
    assert breakdown(lambda_sr=lambda_sr + d_lambda_sr).p_nonempty >= b.p_nonempty


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=st.floats(2.2, 12.0),
       log_lambda=st.floats(-12.0, 1.0),
       p_st=st.floats(-10.0, 15.0),
       gamma=st.floats(-20.0, 20.0),
       d_gamma=st.floats(0.0, 10.0),
       lambda_sr=st.floats(0.0, 5.0),
       r_disc=st.floats(0.01, 31.6),
       d_sd=st.floats(0.1, 10.0),
       r_gz=st.floats(0.0, 3.0),
       direct=st.booleans())
def test_bstd_breakdown_properties(alpha, log_lambda, p_st, gamma, d_gamma, lambda_sr,
                                   r_disc, d_sd, r_gz, direct):
    # The bstd twin of the property above: analyze returns (a QuadratureFailure
    # fails the test) with every field in range.
    base = dict(alpha=alpha, lambda_p=10.0 ** log_lambda, p_st_dbm=p_st,
                gamma_th_db=gamma, lambda_sr=lambda_sr, r_disc=r_disc, d_sd=d_sd,
                r_gz=r_gz, direct_link=direct, r_max=2.0 * max(r_disc, d_sd))

    def breakdown(**changes):
        b = analyze(cfg_with(**{**base, **changes}), "bstd")
        _assert_probabilities(b)
        return b

    b = breakdown()
    harder = breakdown(gamma_th_db=gamma + d_gamma)
    if not direct:
        # chi settles to REL_TOL relative, so p_succ may rise by that much.
        assert harder.p_succ <= b.p_succ + an.REL_TOL


def _assert_probabilities(b):
    """Every field of a breakdown in [0, 1]; lambda_eff, a density, >= 0."""
    for name in an.BREAKDOWN_FIELDS:
        value = getattr(b, name)
        upper = math.inf if name == "lambda_eff" else 1.0
        assert value is None or 0.0 <= value <= upper, name


def _sampled_configs():
    """424 configs (seed 7) over the sampled space, all of which validate accepts.

    One draw per field in this order: alpha U(2.3, 6), lambda_p 10^U(-6, -1),
    p_st_dbm U(-10, 15), d_sd U(0.3, 5), r_gz U(0, 2), gamma_th_db U(-15, 5),
    lambda_sr U(0.1, 20), r_max from (50, 100, 400, 2000), and the direct link
    with chance 0.3.
    """
    rng = np.random.default_rng(7)
    configs = []
    for _ in range(424):
        draw = dict(alpha=rng.uniform(2.3, 6.0), lambda_p=10.0 ** rng.uniform(-6.0, -1.0),
                    p_st_dbm=rng.uniform(-10.0, 15.0), d_sd=rng.uniform(0.3, 5.0),
                    r_gz=rng.uniform(0.0, 2.0), gamma_th_db=rng.uniform(-15.0, 5.0),
                    lambda_sr=rng.uniform(0.1, 20.0),
                    r_max=float(rng.choice([50.0, 100.0, 400.0, 2000.0])))
        draw["direct_link"] = bool(rng.uniform() < 0.3)
        configs.append(cfg_with(**draw))
    return configs


def test_bstd_total_on_sampled_configs():
    # bstd analyze returns on every sampled config: the destination inside,
    # at the edge of and outside the relay disc, and primaries from dense to
    # sparse, where the interference that matters lies deep in the
    # positive-stable tail.
    configs = _sampled_configs()
    assert len(configs) == 424
    for cfg in configs:
        _assert_probabilities(analyze(cfg, "bstd"))


# ---------------------------------------------------------------------------
# Guard zones and relay-presence factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call,error,match", [
    (lambda: gamma_pair(2.0), ValueError, "alpha must exceed 2"),
    (lambda: p_h_levy_erf(cfg_with(alpha=5.0)), ValueError, "alpha = 4"),
    (lambda: guard_zone_prob(-1e-3, 1.0), ValueError, "must be >= 0"),
    (lambda: guard_zone_prob(1e-3, -1.0), ValueError, "must be >= 0"),
    (lambda: an.require_analytic("nope"), UnsupportedScheme, "unknown scheme 'nope'"),
    (lambda: analyze(cfg_with(), "random_baseline"), UnsupportedScheme,
     "random_baseline is a simulation-only reference"),
    (lambda: analyze(cfg_with(slot_position_model="static"), "bcc"), UnsupportedScheme,
     "slot_position_model static has no analytic expression"),
], ids=["gamma_pair", "p_h_levy_erf", "guard_zone_prob-density",
        "guard_zone_prob-radius", "require_analytic", "analyze-random_baseline",
        "analyze-static"])
def test_analytics_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_guard_zone_prob_values():
    assert guard_zone_prob(0.5, 0.0) == 1.0
    assert guard_zone_prob(1.0 / math.pi, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert guard_zone_prob(0.1, 1.0) == pytest.approx(0.730403, abs=1e-6)


def test_p_nonempty():
    cfg = cfg_with(lambda_sr=1.0, r_disc=1.0)
    assert p_nonempty(cfg) == pytest.approx(1.0 - math.exp(-math.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# Scheme factors: limits and dual paths
# ---------------------------------------------------------------------------

def test_psi31_limits():
    assert psi31_bound(cfg_with(lambda_sr=0.0)) == 1.0
    near_zero_th = cfg_with(gamma_th_db=-300.0)
    assert psi31_bound(near_zero_th) == pytest.approx(math.exp(-math.pi), rel=1e-7)
    assert analyze(cfg_with(lambda_sr=0.0), "bcc").psi3 == 0.0
    assert analyze(near_zero_th, "bcc").psi3 == pytest.approx(1.0 - math.exp(-math.pi),
                                                              rel=1e-6)


def test_omega1_limits():
    assert omega1(cfg_with(lambda_sr=0.0)) == 1.0
    # Overwhelming interference: every relay fails, so the all-fail
    # probability approaches one.
    crowded = cfg_with(lambda_p=1e3, r_max=12000.0)
    assert omega1(crowded) >= 0.999


def test_psi4_values():
    assert psi4_far_field(cfg_with(lambda_p=0.0)) == 1.0
    assert psi4_far_field(cfg_with(gamma_th_db=-300.0)) == pytest.approx(1.0, abs=1e-9)
    cfg = cfg_with()
    expected = math.exp(-(math.pi ** 2 / 2.0) * 0.01
                        * math.sqrt(0.1 * cfg.p_t_mw * 16.0 / cfg.p_st_mw))
    assert psi4_far_field(cfg) == pytest.approx(expected, rel=1e-12)


def test_psi4_matches_monte_carlo():
    # Simulated far-field link: unit-mean exponential gain at distance d_sd
    # against sampled shot-noise interference, 3e4 trials, Wilson 3 sigma.
    cfg = cfg_with(r_max=150.0)
    n = 30_000
    gen = RngStream(61, 0).generator()
    interference = cfg.p_t_mw * shot_noise_batch(cfg.lambda_p, cfg.r_max,
                                                 cfg.alpha, n, gen)
    gains = gen.standard_exponential(n)
    signal = cfg.p_st_mw * gains * cfg.d_sd ** -cfg.alpha
    hits = int(np.count_nonzero(signal >= cfg.gamma_th_lin * interference))
    from ehrelay.simulate import wilson_interval
    lo, hi = wilson_interval(hits, n, z=3.0)
    assert lo <= psi4_far_field(cfg) <= hi


def test_delta_limits():
    ideal = cfg_with(gamma_th_db=-300.0, r_gz=0.0)
    assert delta_decode(ideal) == pytest.approx(1.0, abs=1e-9)
    crowded = cfg_with(lambda_p=1e3, r_max=12000.0)
    assert delta_decode(crowded) < 1e-6


DUAL_PATH_CONFIGS = [
    {},
    {"lambda_p": 3e-3},
    {"p_st_dbm": 5.0},
    {"gamma_th_db": -5.0},
    {"lambda_sr": 2.0, "d_sd": 1.5},
]


def assert_closed_matches_quadrature(cfg):
    for fn in (psi31_bound, omega1, delta_decode, psi4_far_field):
        assert fn(cfg, method="quad") == pytest.approx(
            fn(cfg, method="closed"), rel=1e-8), fn.__name__
    xc = float(xi_bstd(0.4, 2.0, cfg, method="closed"))
    xq = float(xi_bstd(0.4, 2.0, cfg, method="quad"))
    assert xq == pytest.approx(xc, rel=1e-8)


def test_dual_path_identities_alpha4():
    for overrides in DUAL_PATH_CONFIGS:
        assert_closed_matches_quadrature(cfg_with(**overrides))


# r_max per alpha, as elsewhere in this file; the decode factors do not
# depend on it.
AWAY_FROM_ALPHA4 = {2.5: 5000.0, 3.0: 400.0, 3.5: 100.0, 5.0: 50.0, 6.0: 50.0}


@pytest.mark.parametrize("alpha", sorted(AWAY_FROM_ALPHA4))
def test_closed_forms_match_quadrature_at_every_alpha(alpha):
    # The decode kernel is exp(-q*d^2) at every alpha, so the disc integrals
    # keep their closed forms away from alpha = 4; quadrature is the oracle.
    for overrides in DUAL_PATH_CONFIGS:
        assert_closed_matches_quadrature(cfg_with(
            alpha=alpha, r_max=AWAY_FROM_ALPHA4[alpha], **overrides))


@pytest.mark.parametrize("method", ["auto", "exact", ""])
def test_decode_factors_reject_unknown_method(baseline, method):
    for fn in (psi31_bound, omega1, delta_decode, psi4_far_field):
        with pytest.raises(ValueError):
            fn(baseline, method=method)
    with pytest.raises(ValueError):
        xi_bstd(0.4, 2.0, baseline, method=method)


@pytest.mark.parametrize("alpha,r_max", [(3.0, 400.0), (5.0, 50.0)])
@pytest.mark.parametrize("direct_link", [False, True])
def test_analyze_runs_no_quadrature_for_decode_factors(monkeypatch, alpha, r_max,
                                                        direct_link):
    def stalled(*args, **kw):
        raise AssertionError("analyze reached a decode-factor quadrature")

    monkeypatch.setattr(an, "integrate_doubling", stalled)
    monkeypatch.setattr(an, "_standard_pathloss_integral", stalled)
    cfg = cfg_with(alpha=alpha, r_max=r_max, direct_link=direct_link)
    for scheme in ("bcc", "bsir", "bstd"):
        assert 0.0 <= analyze(cfg, scheme).p_succ <= 1.0


def test_alpha4_selfcheck_reports_small_differences(baseline):
    checks = alpha4_selfcheck(baseline)
    assert {name for name, *_ in checks} == {"psi31", "omega1", "delta", "psi4", "xi"}
    assert all(rel <= 1e-8 for *_, rel in checks)


@pytest.mark.parametrize("overrides", DUAL_PATH_CONFIGS + [{"lambda_p": 0.0}],
                         ids=lambda o: ",".join(f"{k}={v:g}" for k, v in o.items()) or "baseline")
def test_alpha4_selfcheck_values_are_the_factors(overrides):
    # The self-check takes each method's decode rate once; every value it
    # compares keeps the bits of the factor it stands for.
    cfg = cfg_with(**overrides)
    checks = {name: (closed, quad) for name, closed, quad, _ in alpha4_selfcheck(cfg)}
    for i, method in enumerate(("closed", "quad")):
        assert checks["psi31"][i] == psi31_bound(cfg, method)
        assert checks["omega1"][i] == omega1(cfg, method)
        assert checks["delta"][i] == delta_decode(cfg, method)
        assert checks["psi4"][i] == psi4_far_field(cfg, method)
        assert checks["xi"][i] == float(xi_bstd(cfg.r_disc / 2.0, 1.0, cfg, method))


def test_chi_limits():
    assert chi_bstd(cfg_with(lambda_sr=0.0)) == 1.0
    far = cfg_with(d_sd=40.0, r_max=160.0)
    assert chi_bstd(far) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("overrides", [{}, {"alpha": 3.0, "r_max": 400.0}],
                         ids=["alpha4", "alpha3"])
@pytest.mark.parametrize("direct_link", [False, True])
def test_analyze_bstd_evaluates_delta_once(monkeypatch, overrides, direct_link):
    cfg = cfg_with(direct_link=direct_link, **overrides)
    chi_indep = chi_bstd(cfg)
    calls = []
    real = an.delta_decode
    monkeypatch.setattr(an, "delta_decode",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    b = analyze(cfg, "bstd")
    assert len(calls) == 1
    assert b.chi_indep == chi_indep


def test_chi_against_brute_force_grid(baseline):
    # Independent oracle: midpoint rule in r, uniform (periodic) grid in theta,
    # 1000 x 1000 cells; the destination outside the disc and inside it.
    for cfg in (baseline, cfg_with(d_sd=0.5)):
        n = 1000
        r = (np.arange(n) + 0.5) * cfg.r_disc / n
        th = np.arange(n) * 2.0 * math.pi / n
        q = (math.pi ** 2 / 2.0) * cfg.lambda_p * math.sqrt(
            cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw)
        f_sq = (r[:, None] ** 2 + cfg.d_sd ** 2
                - 2.0 * r[:, None] * cfg.d_sd * np.cos(th[None, :]))
        integrand = np.exp(-q * f_sq) * r[:, None]
        brute = integrand.sum() * (cfg.r_disc / n) * (2.0 * math.pi / n)
        assert chi_integral(cfg) == pytest.approx(brute, abs=2e-7)
        delta = delta_decode(cfg)
        chi_oracle = math.exp(-cfg.lambda_sr * delta * brute)
        assert chi_bstd(cfg) == pytest.approx(chi_oracle, abs=1e-6)


@pytest.mark.parametrize("alpha,r_max", [(3.0, 400.0), (4.0, 50.0), (5.0, 50.0)])
@pytest.mark.parametrize("d_sd", [0.5, 1.0, 2.0], ids=["inside", "edge", "outside"])
def test_destination_rings_cover_the_disc(alpha, r_max, d_sd):
    # At u = 0 the ring weights integrate the hop-one kernel over the whole
    # disc, pi*R^2 times its closed-form disc mean, at every level past the
    # first that chi_common runs.
    cfg = cfg_with(alpha=alpha, r_max=r_max, d_sd=d_sd)
    exact = math.pi * cfg.r_disc ** 2 * an._disc_mean_kernel(cfg, "closed")
    q = an._decode_rate(cfg)
    for n in (96, 192, 384):
        rho, weights = an._destination_rings(cfg, n, q)
        assert np.all(rho > 0.0) and np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(exact, rel=1e-10)


def _ring_bits(cfg, n, q):
    """The bytes of the radii and weights that chi_integral (q = 0: twice the
    cached arcs) or chi_common (``_destination_rings`` at q) reads."""
    if q == 0.0:
        rings = an._ring_geometry(cfg.d_sd, cfg.r_disc, n)
        return rings.rho.tobytes(), (2.0 * rings.arcs).tobytes()
    return tuple(a.tobytes() for a in an._destination_rings(cfg, n, q))


@pytest.mark.parametrize("d_sd", [0.5, 1.0, 2.0], ids=["inside", "edge", "outside"])
def test_destination_rings_same_bits_from_a_cold_or_warm_cache(d_sd, fresh_rings):
    # Every level either chi integral reads, at u = 0 (chi_integral's arcs)
    # and at the decode rate (chi_common's weights), built from an empty
    # cache, read back from it, and built again after another geometry.
    cfg = cfg_with(d_sd=d_sd)
    q = an._decode_rate(cfg)
    for n in (32, 48, 64, 96, 128, 192, 256, 384):
        for rate in (0.0, q):
            an._ring_geometry.cache_clear()
            cold = _ring_bits(cfg, n, rate)
            assert _ring_bits(cfg, n, rate) == cold
            an._ring_geometry.cache_clear()
            _ring_bits(cfg_with(d_sd=1.5), n, q)
            assert _ring_bits(cfg, n, rate) == cold


@pytest.mark.parametrize("d_sd", [0.5, 1.0, 2.0], ids=["inside", "edge", "outside"])
def test_chi_same_bits_from_a_cold_or_warm_cache(d_sd, fresh_rings):
    cfg = cfg_with(d_sd=d_sd, lambda_p=3e-3, p_st_dbm=5.0)
    cold = (chi_common(cfg), chi_bstd(cfg))
    an._ring_geometry.cache_clear()
    for other in (0.25, 0.75, 1.0, 1.5, 3.0):
        chi_common(cfg_with(d_sd=other))
        chi_bstd(cfg_with(d_sd=other))
    # Rebuilt after five other geometries, then read from the cache.
    assert (chi_common(cfg), chi_bstd(cfg)) == cold
    assert (chi_common(cfg), chi_bstd(cfg)) == cold


def test_ring_cache_is_read_only_and_returns_fresh_weights(fresh_rings):
    cfg = cfg_with(d_sd=0.5)
    q = an._decode_rate(cfg)
    rho, weights = an._destination_rings(cfg, 96, q)
    rings = an._ring_geometry(cfg.d_sd, cfg.r_disc, 96)
    for array in (rings.rho, rings.arcs, rings.w, rings.r_sq, rho):
        with pytest.raises(ValueError):
            array[0] = 1.0
    kept = weights.copy()
    weights[:] = 0.0
    assert _ring_bits(cfg, 96, q) == (rho.tobytes(), kept.tobytes())
    arcs = 2.0 * rings.arcs
    arcs[:] = 0.0
    assert np.all(2.0 * an._ring_geometry(cfg.d_sd, cfg.r_disc, 96).arcs > 0.0)


def test_ring_cache_stays_bounded_over_a_d_sd_sweep(fresh_rings):
    # chi_bstd (through chi_integral) and chi_common each cache two levels
    # per d_sd, so this sweep builds 4 * 12 geometries, three times the bound.
    for d_sd in np.linspace(0.3, 3.0, 12):
        chi_bstd(cfg_with(d_sd=float(d_sd)))
        chi_common(cfg_with(d_sd=float(d_sd)))
    info = an._ring_geometry.cache_info()
    assert info.maxsize == an._RING_CACHE_SIZE == 16
    assert info.currsize <= 16 and info.misses >= 3 * 16


def test_threads_share_the_ring_cache_safely(fresh_rings):
    # Four threads run chi_common and chi_bstd over six geometries in turn,
    # 24 ring rules against a bound of 16, so entries are built, read and
    # evicted under each other. Every value keeps the bits of a serial call.
    configs = [cfg_with(d_sd=d, lambda_p=3e-3) for d in (0.4, 0.8, 1.0, 1.3, 2.0, 2.6)]
    expected = [(chi_common(cfg), chi_bstd(cfg)) for cfg in configs]
    results, errors = [], []

    def run(offset):
        try:
            for k in range(2 * len(configs)):
                i = (k + offset) % len(configs)
                results.append((i, (chi_common(configs[i]), chi_bstd(configs[i]))))
        except Exception as exc:   # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1, 3, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 4 * 2 * len(configs)
    assert all(values == expected[i] for i, values in results)


def test_kanter_cdf_matches_levy_law():
    # At beta = 1/2 the standard positive-stable law (Laplace transform
    # exp(-sqrt(s))) is Levy with upper tail erf(1/(2*sqrt(x))); k = 1, so
    # log x^(-k) = -log x. One rule covers x from 0.05 into the deep tail.
    x = np.geomspace(0.05, 1e12, 60)
    tail = an._stable_tail_rule(-math.log(x[-1]), -math.log(x[0]), 0.5)
    exact = np.array([math.erf(0.5 / math.sqrt(v)) for v in x])
    for n in (64, 128):
        assert tail(-np.log(x), n) == pytest.approx(exact, rel=1e-9)
    # chi_common bounds the lower tail of the law by A's value at phi = 0+.
    # Away from both ends, where pi - phi or sin(phi) rounds, Kanter's formula
    # in phi itself agrees with the reflected one.
    phi = np.linspace(1e-6, math.pi - 1e-3, 2001)
    inner = (phi > 0.1) & (phi < math.pi - 0.1)
    for beta in (0.2, 0.4, 0.5, 2.0 / 3.0, 0.9):
        log_a = an._log_kanter_a_reflected(beta)(math.pi - phi)
        assert np.all(np.diff(log_a) > 0.0)
        k = beta / (1.0 - beta)
        assert an._kanter_a_min(beta) == (1.0 - beta) * beta ** k
        assert math.exp(log_a[0]) == pytest.approx((1.0 - beta) * beta ** k, rel=1e-6)
        assert log_a[inner] == pytest.approx(_log_kanter_a(phi[inner], beta), rel=1e-12,
                                             abs=1e-12)


@pytest.mark.parametrize("beta", [0.2, 0.5, 2.0 / 3.0, 0.9])
def test_tail_rule_joint_levels_keep_each_levels_bits(beta):
    # p_h_kanter reads its first two levels from one pass of the rule; each
    # value must be the one its node count gives alone. A rule over one point
    # (one piece when x^(-k) * A(0+) >= 1, else two) and a rule over a range
    # (several log-psi panels), read inside and at the ends of its range.
    for log_t in (-40.0, -6.0, -1.0, 0.5, 3.0, 15.0):
        tail = an._stable_tail_rule(log_t, log_t, beta)
        assert tail(log_t, 32, 64) == (tail(log_t, 32), tail(log_t, 64))
    tail = an._stable_tail_rule(-30.0, 10.0, beta)
    for log_t in (-30.0, -12.5, 0.0, 10.0):
        assert tail(log_t, 32, 64) == (tail(log_t, 32), tail(log_t, 64))
        assert tail(log_t, 64, 128, 256) == (tail(log_t, 64), tail(log_t, 128),
                                             tail(log_t, 256))


def _saturation_values():
    """Tail-rule values as test_tail_rule_joint_levels_keep_each_levels_bits
    builds them, at four betas, then p_h_kanter and chi_common at a few configs."""
    values = []
    for beta in (0.2, 0.5, 2.0 / 3.0, 0.9):
        for log_t in (-40.0, -6.0, -1.0, 0.5, 3.0, 15.0):
            values.append(an._stable_tail_rule(log_t, log_t, beta)(log_t, 32, 64))
        tail = an._stable_tail_rule(-30.0, 10.0, beta)
        values += [v.tolist() for v in tail(np.array([-30.0, -12.5, 0.0, 10.0]), 64, 128)]
    configs = [cfg_with(), cfg_with(alpha=3.0, r_max=400.0), cfg_with(alpha=5.0),
               cfg_with(d_sd=0.5, lambda_p=3e-3, p_st_dbm=5.0), cfg_with(lambda_p=1e-8)]
    return values + [(an.p_h_kanter(cfg), chi_common(cfg)) for cfg in configs]


def test_tail_saturation_moves_no_bit(monkeypatch):
    # The tail rule clips log(x^(-k) * A) at _TAIL_SATURATION instead of
    # _TAIL_LOG_CUT: bit-identical only where expm1(-e^c) is exactly -1 for
    # every c between them, as it is in IEEE double past c ~ 3.62. A platform
    # whose expm1 does not round there to -1 fails this test.
    c = np.linspace(an._TAIL_SATURATION, an._TAIL_LOG_CUT, 200_001)
    assert np.all(np.expm1(-np.exp(c)) == -1.0)
    saturated = _saturation_values()
    monkeypatch.setattr(an, "_TAIL_SATURATION", an._TAIL_LOG_CUT)
    assert _saturation_values() == saturated


@pytest.mark.parametrize("overrides", [{}, {"lambda_p": 3e-3, "p_st_dbm": 5.0},
                                       {"d_sd": 0.5},
                                       {"d_sd": 0.5, "lambda_p": 3e-3, "p_st_dbm": 5.0},
                                       {"lambda_p": 3e-5, "p_st_dbm": 10.0},
                                       {"lambda_p": 1e-6},
                                       {"lambda_p": 1e-5, "d_sd": 0.5}])
def test_chi_common_against_levy_oracle(overrides):
    # Independent oracle at alpha = 4: the destination interference is Levy
    # with scale c = C^2/2 (C the coefficient of sqrt(s) in its Laplace
    # exponent), density sqrt(c/(2 pi)) x^(-3/2) exp(-c/(2x)) and upper tail
    # erf(sqrt(c/(2x))). Uniform grid in log x, the probability beyond it from
    # the erf tail, midpoint grid over the relay disc. With the destination inside the disc
    # (d_sd = 0.5) the oracle is 2.6e-6 from chi_common at 120 x 120 cells,
    # 2.4e-7 at 400 x 400 and 5.9e-8 at 800 x 800. Sparse primaries put the
    # interference that matters deep in the Levy tail, up to log(x/c) ~ 30;
    # they take 300 x 300 cells and a log-x step of 0.02 up to 45.
    cfg = cfg_with(**overrides)
    n, step, end = (300, 0.02, 45.0) if cfg.lambda_p < 1e-4 else (120, 0.05, 30.0)
    q = (math.pi ** 2 / 2.0) * cfg.lambda_p * math.sqrt(
        cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw)
    c_levy = (math.pi * cfg.lambda_p * (math.pi / 2.0) * math.sqrt(cfg.p_t_mw)) ** 2 / 2.0
    r = ((np.arange(n) + 0.5) * cfg.r_disc / n)[:, None]
    th = ((np.arange(n) + 0.5) * 2.0 * math.pi / n)[None, :]
    f4 = ((r ** 2 + cfg.d_sd ** 2 - 2.0 * r * cfg.d_sd * np.cos(th)) ** 2).ravel()
    cell = np.broadcast_to(np.exp(-q * r ** 2) * r * (cfg.r_disc / n) * (2.0 * math.pi / n),
                           (n, n)).ravel()
    x = c_levy * np.exp(np.arange(-6.0, end, step))
    log_density = np.sqrt(c_levy / (2.0 * math.pi * x)) * np.exp(-c_levy / (2.0 * x))
    g = np.array([cell @ np.exp(-cfg.gamma_th_lin * xi / cfg.p_st_mw * f4) for xi in x])
    h = -np.expm1(-cfg.lambda_sr * g)
    beyond = math.erf(math.sqrt(c_levy / (2.0 * x[-1] * math.exp(0.5 * step))))
    success = step * np.sum(log_density * h) + beyond * h[-1]
    oracle = 1.0 - math.exp(-math.pi * cfg.lambda_p * cfg.r_gz ** 2) * success
    assert chi_common(cfg) == pytest.approx(oracle, abs=1e-4)


# The relays' seed of the chi_common Monte Carlo, fixed before any comparison
# was run.
RELAY_SEED = 2027


# Draws of the chi_common Monte Carlo whose relays are summed a chunk of draws
# at a time; at alpha 9 and r_disc 10, about 314 relays a draw. Both fixed
# before any comparison was run.
WIDE_DISC_DRAWS, WIDE_DISC_CHUNK = 40_000, 4_000


@pytest.mark.parametrize("overrides, draws, chunk", [
    ({"alpha": 3.0, "r_max": 400.0}, SAMPLER_DRAWS, SAMPLER_DRAWS),
    ({"alpha": 5.0}, SAMPLER_DRAWS, SAMPLER_DRAWS),
    ({"d_sd": 1.0}, SAMPLER_DRAWS, SAMPLER_DRAWS),
    # Settles at 768 nodes, one doubling past the ladder's former end.
    ({"alpha": 9.0, "r_disc": 10.0}, WIDE_DISC_DRAWS, WIDE_DISC_CHUNK),
], ids=["alpha3", "alpha5", "d_sd1", "alpha9-r_disc10"])
def test_chi_common_matches_monte_carlo(overrides, draws, chunk):
    # Away from alpha 4, where the Levy oracle does not reach, and with the
    # destination on the disc's edge (d_sd = r_disc) or inside a wide disc.
    # Per draw, the destination interference I = (c * p_t^beta)^(1/beta) * S
    # from the plane field sampler, c = lambda_p*pi*Gamma(1+beta)*Gamma(1-beta),
    # and a Poisson field of relays in the disc; all fail with chance
    # prod_j (1 - exp(-q r_j^2) * exp(-u f_j^alpha)), u = gamma * I / p_st,
    # r_j and f_j the relay's distances to the transmitter and destination.
    # The transmitter's guard event multiplies the relay branch. Each chunk
    # of draws takes its counts, then radii, then angles; one chunk of every
    # draw is the order of a single pass.
    cfg = cfg_with(**overrides)
    beta = 2.0 / cfg.alpha
    field = cfg.lambda_p * math.pi * math.gamma(1.0 + beta) * math.gamma(1.0 - beta)
    u = (cfg.gamma_th_lin / cfg.p_st_mw * cfg.p_t_mw * field ** (1.0 / beta)
         * np.exp(_stable_log_samples(beta)[:draws]))
    q = field * (cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw) ** beta
    rng = np.random.default_rng(RELAY_SEED)
    all_fail = np.empty(draws)
    for lo in range(0, draws, chunk):
        size = min(chunk, draws - lo)
        counts = rng.poisson(cfg.lambda_sr * math.pi * cfg.r_disc ** 2, size)
        owner = np.repeat(np.arange(size), counts)
        r_sq = cfg.r_disc ** 2 * rng.uniform(size=owner.size)
        f_sq = (r_sq + cfg.d_sd ** 2 - 2.0 * np.sqrt(r_sq) * cfg.d_sd
                * np.cos(rng.uniform(0.0, 2.0 * math.pi, owner.size)))
        log_fail = np.log1p(-np.exp(-q * r_sq - u[lo:lo + size][owner]
                                    * f_sq ** (cfg.alpha / 2.0)))
        all_fail[lo:lo + size] = np.exp(np.bincount(owner, weights=log_fail, minlength=size))
    guard = math.exp(-math.pi * cfg.lambda_p * cfg.r_gz ** 2)
    sampled = 1.0 - guard * (1.0 - all_fail.mean())
    error = guard * all_fail.std(ddof=1) / math.sqrt(draws)
    assert abs(sampled - chi_common(cfg)) <= 5.0 * error


def test_chi_common_not_below_independence_form():
    # One interference value shared by all decoding relays makes their
    # failures positively correlated, and the transmitter guard is one event
    # per block; both raise the all-fail chance above the paper's form.
    configs = [cfg_with(), cfg_with(alpha=3.0, r_max=400.0), cfg_with(alpha=5.0),
               cfg_with(lambda_sr=2.0, d_sd=1.5), cfg_with(p_st_dbm=5.0),
               cfg_with(gamma_th_db=-5.0, lambda_p=3e-2),
               cfg_with(alpha=3.0, r_max=400.0, lambda_p=3e-3, d_sd=3.0),
               cfg_with(alpha=5.0, lambda_sr=0.5, p_st_dbm=8.0)]
    for cfg in configs:
        assert chi_common(cfg) >= chi_bstd(cfg)


def test_chi_common_limits():
    assert chi_common(cfg_with(lambda_sr=0.0)) == 1.0
    for overrides in ({}, {"lambda_sr": 2.0, "r_gz": 3.0}, {"alpha": 3.0, "r_max": 400.0}):
        cfg = cfg_with(gamma_th_db=-300.0, **overrides)
        g = guard_zone_prob(cfg.lambda_p, cfg.r_gz)
        expected = 1.0 - g * -math.expm1(-cfg.lambda_sr * math.pi * cfg.r_disc ** 2)
        assert chi_common(cfg) == pytest.approx(expected, rel=1e-9)
    assert chi_common(cfg_with(d_sd=40.0, r_max=160.0)) == pytest.approx(1.0, abs=1e-6)


def test_chi_common_stall_raises(monkeypatch):
    # A destination at the disc edge needs more levels than one doubling (it
    # settles after three).
    monkeypatch.setattr(an, "_CHI_MAX_DOUBLINGS", 1)
    with pytest.raises(QuadratureFailure) as info:
        chi_common(cfg_with(d_sd=1.0))
    assert info.value.context == "chi common interference"


def test_chi_common_near_alpha_2_raises_within_budget():
    # As alpha nears 2 the tail rule's span k*(y_hi - y_a), k = beta/(1-beta),
    # grows without bound; a level past the budget raises at once instead of
    # allocating it. alpha 2.05 still returns.
    near = dict(lambda_p=1e-6, r_max=50.0)
    assert 0.0 <= chi_common(cfg_with(alpha=2.05, **near)) <= 1.0
    with pytest.raises(QuadratureFailure) as info:
        chi_common(cfg_with(alpha=2.001, **near))
    assert info.value.context == "positive-stable tail rule"


# ---------------------------------------------------------------------------
# Composed success probabilities
# ---------------------------------------------------------------------------

def test_p_succ_zero_without_relays():
    empty = cfg_with(lambda_sr=0.0)
    assert analyze(empty, "bcc").p_succ == 0.0
    assert analyze(empty, "bsir").p_succ == 0.0
    assert analyze(empty, "bstd").p_succ == 0.0


@pytest.mark.parametrize("direct", [False, True])
def test_bstd_without_primaries(direct):
    # lambda_p = 0: no interference, so every relay decodes and chi is the
    # empty-disc chance; nothing is harvested, so p_succ is 0.
    cfg = cfg_with(lambda_p=0.0, direct_link=direct)
    assert chi_common(cfg) == pytest.approx(math.exp(-math.pi), rel=1e-12)  # 0.0432139183
    b = analyze(cfg, "bstd")
    assert b.p_succ == 0.0
    for field in dataclasses.fields(AnalyticBreakdown)[1:]:
        value = getattr(b, field.name)
        assert value is None or 0.0 <= value <= 1.0, (field.name, value)


def test_p_succ_vanishes_with_huge_guard_zone():
    walled = cfg_with(r_gz=30.0, r_max=100.0)
    assert analyze(walled, "bcc").p_succ < 1e-9
    assert analyze(walled, "bstd").p_succ < 1e-9


def test_p_succ_bcc_composition(baseline):
    b = analyze(baseline, "bcc")
    product = b.p_h * b.psi3 * b.psi4 * b.guard_st * b.guard_sr
    assert b.p_succ == pytest.approx(product, rel=1e-12)
    assert b.psi3 == pytest.approx(1.0 - b.psi31, rel=1e-12)


def test_p_succ_bsir_gamma_to_zero_limit():
    cfg = cfg_with(gamma_th_db=-300.0)
    b = analyze(cfg, "bsir")
    expected = b.p_h * b.p_nonempty * b.guard_st * b.guard_sr
    assert b.p_succ == pytest.approx(expected, rel=1e-6)


def test_p_succ_bstd_composition(baseline):
    b = analyze(baseline, "bstd")
    assert b.p_succ == pytest.approx(b.p_h * (1.0 - b.chi) * b.guard_sr, rel=1e-12)
    assert b.lambda_eff == pytest.approx(b.delta * baseline.lambda_sr, rel=1e-12)


def test_p_succ_bstd_ideal_limit():
    cfg = cfg_with(gamma_th_db=-300.0, r_gz=0.0)
    b = analyze(cfg, "bstd")
    assert b.p_succ == pytest.approx(b.p_h * p_nonempty(cfg), rel=1e-4)


def test_direct_only_link_when_no_relays():
    cfg = cfg_with(lambda_sr=0.0, direct_link=True)
    for scheme in ("bcc", "bsir", "bstd"):
        b = analyze(cfg, scheme)
        expected = b.p_h * psi4_far_field(cfg) * b.guard_st
        assert b.p_succ == pytest.approx(expected, rel=1e-9)


def test_direct_gamma_to_zero_decode_terms_unity():
    cfg = cfg_with(gamma_th_db=-300.0, direct_link=True)
    g = guard_zone_prob(cfg.lambda_p, cfg.r_gz)
    p0 = 1.0 - p_nonempty(cfg)
    for scheme in ("bcc", "bsir"):
        b = analyze(cfg, scheme)
        expected = b.p_h * ((1.0 - p0) * g * g + p0 * g)
        assert b.p_succ == pytest.approx(expected, rel=1e-5)
    b = analyze(cfg, "bstd")
    assert b.p_dsucc_dir == pytest.approx(g, rel=1e-4)


def test_breakdown_probability_fields_in_unit_interval():
    configs = [cfg_with(), cfg_with(direct_link=True), cfg_with(lambda_sr=2.0),
               cfg_with(lambda_p=5e-2, direct_link=True), cfg_with(r_gz=0.0)]
    for cfg in configs:
        for scheme in ("bcc", "bsir", "bstd"):
            b = analyze(cfg, scheme)
            for field in dataclasses.fields(AnalyticBreakdown):
                if field.name in ("scheme", "lambda_eff"):
                    continue
                value = getattr(b, field.name)
                if value is not None:
                    assert -1e-12 <= value <= 1.0 + 1e-12, (scheme, field.name, value)
            assert b.p_succ <= b.p_h + 1e-12
            bound = b.p_nonempty + (1.0 if cfg.direct_link else 0.0)
            assert b.p_succ <= bound + 1e-12


def test_analyze_rejects_random_baseline(baseline):
    # Every refusal of analyze is a usage error, as the CLI reports it.
    assert issubclass(UnsupportedScheme, ConfigError)
    with pytest.raises(UnsupportedScheme):
        analyze(baseline, "random_baseline")


def test_conditional_hop_one_chance_capped_at_one():
    # A nearly empty disc: hop one, 1 - all_fail, and p_nonempty, -expm1 of
    # the same exponent, round apart, and their ratio read 1 + 2.5e-13.
    cfg = cfg_with(alpha=8.0, lambda_p=1e-9, lambda_sr=0.1, r_disc=0.02,
                   gamma_th_db=-30.0, p_t_dbm=0.0, direct_link=True)
    bcc, bsir = analyze(cfg, "bcc"), analyze(cfg, "bsir")
    assert bcc.p11 == bsir.p22 == 1.0
    assert bcc.p12 == bsir.p32 == 0.0
    _assert_probabilities(bcc)
    _assert_probabilities(bsir)


@pytest.mark.parametrize("scheme", ["bcc", "bsir", "bstd"])
def test_analyze_refuses_static_slot_positions(baseline, scheme):
    # One static field fills the battery and jams both hops; no factor here
    # models that, so analyze refuses instead of returning the independent value.
    static = validate(dataclasses.replace(baseline, slot_position_model="static"))
    with pytest.raises(ConfigError, match="slot_position_model static"):
        analyze(static, scheme)


# The contexts with which analyze may give up (see its docstring).
ANALYZE_FAILURE_CONTEXTS = {"kanter harvest probability", "chi common interference",
                            "positive-stable tail rule", "chi double integral"}


def _box_configs(seed, draws=100):
    """The configs that validate accepts among ``draws`` draws over its whole box.

    One draw per field in this order: alpha 2 + 10^U(-3, 1) (seed 5) or
    U(2.2, 12) (other seeds), lambda_p 10^U(-12, 1), lambda_sr 10^U(-3, 2),
    p_st_dbm U(-60, 60), p_t_dbm U(-30, 60), gamma_th_db U(-40, 30), r_disc
    and d_sd 10^U(-2, 1.5), r_gz 0 with chance 0.2 (a uniform draw) else
    10^U(-3, 1), a U(0.01, 0.99), eta U(0.01, 1), a uniform draw whose value
    is unused, the direct link with chance 0.5, a choice of two whose value
    is unused (the two unused draws keep the later draws where they were),
    and last r_max = 2 * max(r_disc, d_sd) * 10^U(0, 2).
    """
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(draws):
        alpha = 2.0 + 10.0 ** rng.uniform(-3.0, 1.0) if seed == 5 else rng.uniform(2.2, 12.0)
        draw = dict(alpha=alpha, lambda_p=10.0 ** rng.uniform(-12.0, 1.0),
                    lambda_sr=10.0 ** rng.uniform(-3.0, 2.0),
                    p_st_dbm=rng.uniform(-60.0, 60.0), p_t_dbm=rng.uniform(-30.0, 60.0),
                    gamma_th_db=rng.uniform(-40.0, 30.0),
                    r_disc=10.0 ** rng.uniform(-2.0, 1.5), d_sd=10.0 ** rng.uniform(-2.0, 1.5))
        draw["r_gz"] = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-3.0, 1.0)
        draw["a"] = rng.uniform(0.01, 0.99)
        draw["eta"] = rng.uniform(0.01, 1.0)
        rng.uniform()
        draw["direct_link"] = bool(rng.uniform() < 0.5)
        rng.choice(2)
        draw["r_max"] = 2.0 * max(draw["r_disc"], draw["d_sd"]) * 10.0 ** rng.uniform(0.0, 2.0)
        try:
            configs.append(cfg_with(**draw))
        except ConfigError:
            pass
    return configs


@pytest.mark.parametrize("seed", [5, 11])
def test_analyze_total_over_the_validator_box(seed):
    # Far from the baseline, in every corner validate accepts: each call
    # returns every field in range or gives up with a documented context,
    # and none stalls. chi_common settles on every config of both seeds
    # (its ladder reaches 768 nodes), and at seed 11 every call returns;
    # seed 5 reaches the tail rule's failures near alpha 2.
    configs = _box_configs(seed)
    assert len(configs) >= 95
    failed = []
    for cfg in configs:
        for scheme in an.ANALYTIC_SCHEMES:
            t0 = time.perf_counter()
            try:
                _assert_probabilities(analyze(cfg, scheme))
            except QuadratureFailure as exc:
                assert exc.context in ANALYZE_FAILURE_CONTEXTS, exc.context
                failed.append(exc.context)
            assert time.perf_counter() - t0 < 2.0, (scheme, cfg)
    assert "chi common interference" not in failed
    if seed == 11:
        assert failed == []
