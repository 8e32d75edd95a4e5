"""Closed forms, quadrature cross-checks, inversion, and compositions.

Expected values are computed inline from independent formulas (stable-law
tails, Gamma identities, brute-force grids), never from the code paths under
test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrelay import analytics as an
from ehrelay.analytics import (AnalyticBreakdown,
                               UnsupportedScheme, alpha4_selfcheck, analyze,
                               QuadratureFailure, chi_bstd, chi_common,
                               chi_integral, delta_decode,
                               gamma_pair, guard_zone_prob,
                               interference_integral, laplace_K, omega1,
                               p_h_gil_pelaez, p_h_levy_erf, p_nonempty,
                               psi31_bound, psi4_far_field, xi_bstd)
from ehrelay.config import SystemConfig, harvest_threshold, validate
from ehrelay.geometry import RngStream, shot_noise_batch


def cfg_with(**kw):
    return validate(SystemConfig(**kw))


# ---------------------------------------------------------------------------
# Path-loss integral primitive
# ---------------------------------------------------------------------------

def test_interference_integral_values():
    assert interference_integral(0.0, 4.0) == 0.0
    assert interference_integral(1.0, 4.0) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert interference_integral(16.0, 4.0) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("alpha", [2.2, 2.5, 3.0, 3.5, 5.0])
def test_standard_pathloss_integral_matches_closed_form(alpha):
    # The decode kernels' quadrature constant, also for alpha near 2, where
    # node doubling on the semi-infinite map used to stall.
    from ehrelay.analytics import _standard_pathloss_integral
    _standard_pathloss_integral.cache_clear()
    t0 = time.perf_counter()
    value = _standard_pathloss_integral(alpha)
    assert time.perf_counter() - t0 < 1.0
    assert value == pytest.approx(interference_integral(1.0, alpha), rel=1e-10)


def test_interference_integral_scaling_law():
    # f(k*beta) = k^(2/alpha) * f(beta), exact in the closed form.
    for alpha in (2.5, 3.0, 4.0, 5.5):
        for beta in (0.3, 2.0, 40.0):
            for k in (0.25, 3.0, 100.0):
                lhs = interference_integral(k * beta, alpha)
                rhs = k ** (2.0 / alpha) * interference_integral(beta, alpha)
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_interference_integral_monotone_in_beta():
    betas = np.geomspace(1e-3, 1e3, 13)
    vals = [interference_integral(b, 3.7) for b in betas]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))


def test_interference_integral_rejects_divergent_alpha():
    with pytest.raises(ValueError):
        interference_integral(1.0, 2.0)


def test_gamma_pair_alpha4_constant():
    assert gamma_pair(4.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
    # Reflection identity against the direct Gamma product.
    for alpha in (2.5, 3.0, 4.0, 6.0):
        direct = math.gamma(1 + 2 / alpha) * math.gamma(1 - 2 / alpha)
        assert gamma_pair(alpha) == pytest.approx(direct, rel=1e-12)


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
    for p_h in (p_h_gil_pelaez, an.p_h_kanter):
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


def test_p_h_threshold_mode_variant():
    base = p_h_gil_pelaez(cfg_with())
    over_a = p_h_gil_pelaez(cfg_with(harvest_threshold_mode="energy-over-a"))
    assert over_a < base  # higher threshold, lower harvest probability


@pytest.mark.parametrize("lambda_p", [1e-14, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("p_st_dbm", [-10.0, 15.0])
def test_p_h_kanter_matches_levy_erf_far_in_the_tail(lambda_p, p_st_dbm):
    # Relative agreement down to p_h ~ 2e-13 (lambda_p = 1e-14, 15 dBm).
    cfg = cfg_with(lambda_p=lambda_p, p_st_dbm=p_st_dbm)
    assert an.p_h_kanter(cfg) == pytest.approx(p_h_levy_erf(cfg), rel=1e-9)


@pytest.fixture
def node_counts(monkeypatch):
    """Gauss-Legendre node counts that analytics builds while the test runs."""
    counts = []
    leggauss = an._leggauss
    monkeypatch.setattr(an, "_leggauss", lambda n: counts.append(n) or leggauss(n))
    return counts


def test_p_h_kanter_settles_close_to_alpha_2(node_counts):
    # At alpha = 2.001 the integrand falls as psi^(-2001) past the split; the
    # u-range must stop where it is negligible or 1024 nodes do not settle.
    values = [an.p_h_kanter(cfg_with(alpha=2.001, lambda_p=1e-8, p_st_dbm=p, a=0.05,
                                     harvest_threshold_mode="energy-over-a",
                                     trunc_epsilon=1e300))
              for p in (2.5, 10.0, 15.0)]
    assert max(node_counts) <= 1024
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[0] >= values[1] >= values[2]


# Valid configs on which the oscillatory inversion stalls; analyze reads the
# harvest probability from Kanter's phi-integral instead.
DEEP_TAIL_CONFIGS = [
    {"lambda_p": 1e-4},
    {"lambda_p": 3e-4, "p_st_dbm": 10.0},
    {"alpha": 3.0, "r_max": 400.0},
    {"alpha": 3.5, "r_max": 100.0},
    {"alpha": 2.2, "r_max": 5000.0, "trunc_epsilon": 100.0},
    {"alpha": 2.5, "r_max": 5000.0, "trunc_epsilon": 100.0},
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


def _p_h_at(alpha, lambda_p, p_st_dbm, a, eta, mode):
    # The truncation radius does not enter p_h; a loose trunc_epsilon lets
    # validate() accept every drawn alpha and density at r_max = 50.
    return an.p_h_kanter(cfg_with(alpha=alpha, lambda_p=lambda_p, p_st_dbm=p_st_dbm,
                                  a=a, eta=eta, harvest_threshold_mode=mode,
                                  trunc_epsilon=1e12))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=st.floats(2.2, 8.0),
       log_lambda=st.floats(-8.0, -1.0),
       p_st=st.floats(-10.0, 15.0),
       d_p_st=st.floats(0.0, 5.0),
       log_ratio=st.floats(0.0, 2.0),
       a=st.floats(0.01, 0.99),
       eta=st.floats(0.05, 1.0),
       mode=st.sampled_from(["energy", "energy-over-a"]))
def test_p_h_kanter_properties(alpha, log_lambda, p_st, d_p_st, log_ratio, a, eta, mode):
    lam = 10.0 ** log_lambda
    p_h = _p_h_at(alpha, lam, p_st, a, eta, mode)
    assert math.isfinite(p_h) and 0.0 <= p_h <= 1.0
    louder = _p_h_at(alpha, lam, min(p_st + d_p_st, 15.0), a, eta, mode)
    assert louder <= p_h + 1e-12
    denser = _p_h_at(alpha, min(lam * 10.0 ** log_ratio, 0.1), p_st, a, eta, mode)
    assert denser >= p_h - 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=st.floats(2.2, 8.0),
       log_lambda=st.floats(-8.0, -1.0),
       p_st=st.floats(-10.0, 15.0),
       gamma=st.floats(-20.0, 20.0),
       d_gamma=st.floats(0.0, 10.0),
       lambda_sr=st.floats(0.0, 5.0),
       d_lambda_sr=st.floats(0.0, 3.0),
       r_disc=st.floats(0.1, 5.0),
       d_sd=st.floats(0.1, 10.0),
       r_gz=st.floats(0.0, 3.0),
       scheme=st.sampled_from(["bcc", "bsir"]),
       direct=st.booleans())
def test_bcc_bsir_breakdown_properties(alpha, log_lambda, p_st, gamma, d_gamma,
                                       lambda_sr, d_lambda_sr, r_disc, d_sd, r_gz,
                                       scheme, direct):
    base = dict(alpha=alpha, lambda_p=10.0 ** log_lambda, p_st_dbm=p_st,
                gamma_th_db=gamma, lambda_sr=lambda_sr, r_disc=r_disc, d_sd=d_sd,
                r_gz=r_gz, direct_link=direct, r_max=2.0 * max(r_disc, d_sd),
                trunc_epsilon=1e12)

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


# ---------------------------------------------------------------------------
# Guard zones and relay-presence factors
# ---------------------------------------------------------------------------

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
    crowded = cfg_with(lambda_p=1e3, r_max=12000.0, trunc_epsilon=1.0)
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
    crowded = cfg_with(lambda_p=1e3, r_max=12000.0, trunc_epsilon=1.0)
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


# r_max per alpha keeps the truncated primary field valid; the decode factors
# do not depend on it.
AWAY_FROM_ALPHA4 = {2.5: 5000.0, 3.0: 400.0, 3.5: 100.0, 5.0: 50.0, 6.0: 50.0}


@pytest.mark.parametrize("alpha", sorted(AWAY_FROM_ALPHA4))
def test_closed_forms_match_quadrature_at_every_alpha(alpha):
    # The decode kernel is exp(-q*d^2) at every alpha, so the disc integrals
    # keep their closed forms away from alpha = 4; quadrature is the oracle.
    for overrides in DUAL_PATH_CONFIGS:
        assert_closed_matches_quadrature(cfg_with(
            alpha=alpha, r_max=AWAY_FROM_ALPHA4[alpha], trunc_epsilon=1e12, **overrides))


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


def test_chi_limits():
    assert chi_bstd(cfg_with(lambda_sr=0.0)) == 1.0
    far = cfg_with(d_sd=40.0, r_max=160.0)
    assert chi_bstd(far) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("overrides", [{}, {"alpha": 3.0, "r_max": 400.0}],
                         ids=["closed", "quadrature"])
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
    exact = math.pi * cfg.r_disc ** 2 * an._disc_mean_kernel(cfg, "closed", "disc")
    q = an._decode_rate(cfg)
    for n in (96, 192, 384):
        rho, weights = an._destination_rings(cfg, n, q)
        assert np.all(rho > 0.0) and np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(exact, rel=1e-10)


def test_kanter_cdf_matches_levy_law():
    # At beta = 1/2 the standard positive-stable law (Laplace transform
    # exp(-sqrt(s))) is Levy with CDF erfc(1/(2*sqrt(x))).
    x_nodes, w_nodes = np.polynomial.legendre.leggauss(200)
    phi = 0.5 * math.pi * (x_nodes + 1.0)
    a_phi = an.kanter_a(phi, 0.5)
    for x in (0.05, 0.3, 1.0, 4.0, 30.0):
        kanter = float(np.exp(-a_phi / x) @ (0.5 * w_nodes))
        assert kanter == pytest.approx(math.erfc(0.5 / math.sqrt(x)), abs=1e-10)
    # chi_common bounds the lower tail of the law by A's value at phi = 0+.
    for beta in (0.2, 0.4, 0.5, 2.0 / 3.0, 0.9):
        a = an.kanter_a(np.linspace(1e-6, math.pi - 1e-3, 2001), beta)
        assert np.all(np.diff(a) > 0.0)
        k = beta / (1.0 - beta)
        assert a[0] == pytest.approx((1.0 - beta) * beta ** k, rel=1e-6)


@pytest.mark.parametrize("overrides", [{}, {"lambda_p": 3e-3, "p_st_dbm": 5.0},
                                       {"d_sd": 0.5},
                                       {"d_sd": 0.5, "lambda_p": 3e-3, "p_st_dbm": 5.0}])
def test_chi_common_against_levy_oracle(overrides):
    # Independent oracle at alpha = 4: the destination interference is Levy
    # with scale c = C^2/2 (C the coefficient of sqrt(s) in its Laplace
    # exponent), density sqrt(c/(2 pi)) x^(-3/2) exp(-c/(2x)). Uniform grid in
    # log x, midpoint grid of 120 x 120 cells over the relay disc. With the
    # destination inside the disc (d_sd = 0.5) the oracle is 2.6e-6 from
    # chi_common at 120 x 120 cells, 2.4e-7 at 400 x 400 and 5.9e-8 at 800 x 800.
    cfg = cfg_with(**overrides)
    q = (math.pi ** 2 / 2.0) * cfg.lambda_p * math.sqrt(
        cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw)
    c_levy = (math.pi * cfg.lambda_p * (math.pi / 2.0) * math.sqrt(cfg.p_t_mw)) ** 2 / 2.0
    n = 120
    r = ((np.arange(n) + 0.5) * cfg.r_disc / n)[:, None]
    th = ((np.arange(n) + 0.5) * 2.0 * math.pi / n)[None, :]
    f4 = ((r ** 2 + cfg.d_sd ** 2 - 2.0 * r * cfg.d_sd * np.cos(th)) ** 2).ravel()
    cell = np.broadcast_to(np.exp(-q * r ** 2) * r * (cfg.r_disc / n) * (2.0 * math.pi / n),
                           (n, n)).ravel()
    step = 0.05
    x = c_levy * np.exp(np.arange(-6.0, 30.0, step))
    log_density = np.sqrt(c_levy / (2.0 * math.pi * x)) * np.exp(-c_levy / (2.0 * x))
    g = np.array([cell @ np.exp(-cfg.gamma_th_lin * xi / cfg.p_st_mw * f4) for xi in x])
    success = step * np.sum(log_density * -np.expm1(-cfg.lambda_sr * g))
    oracle = 1.0 - math.exp(-math.pi * cfg.lambda_p * cfg.r_gz ** 2) * success
    assert chi_common(cfg) == pytest.approx(oracle, abs=1e-4)


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
    # A destination near the disc edge needs more levels than one doubling.
    monkeypatch.setattr(an, "_CHI_MAX_DOUBLINGS", 1)
    with pytest.raises(QuadratureFailure) as info:
        chi_common(cfg_with(d_sd=1.05))
    assert info.value.context == "chi common interference"


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
    with pytest.raises(UnsupportedScheme):
        analyze(baseline, "random_baseline")

