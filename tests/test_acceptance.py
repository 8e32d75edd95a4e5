"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criterion 4 compares the bstd simulation with the exact common-interference
all-fail chance (analytics.chi_common). The paper's closed form, which treats
the destination interference as independent across decoding relays, is an
upper bound on success about 0.09 above the simulation at the baseline,
beyond the 0.05 tolerance; analyze reports it as chi_indep. The signed gaps
are printed either way.
"""

import dataclasses
import math
import pathlib
import time

import numpy as np

from ehrelay import analytics as an
from ehrelay.cli import main as cli_main
from ehrelay.config import SystemConfig, validate, harvest_threshold
from ehrelay.geometry import (DiscBatch, RngStream, clearance_batch,
                              sample_disc_ppp, shot_noise_batch)
from ehrelay.simulate import (SCHEMES, outcomes, select_relay, simulate,
                              simulate_all, wilson_interval)

BASELINE = validate(SystemConfig())


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def cfg_with(**kw):
    return validate(SystemConfig(**kw))


def test_criterion_1_harvest_probability_triple_agreement():
    """Gil-Pelaez inversion, stable-law erf form, and direct Monte Carlo of the
    harvested sum agree pairwise at every primary density."""
    t0 = time.perf_counter()
    trials = 30_000
    rows = []
    ok = True
    for i, lam in enumerate((1e-3, 1e-2, 1e-1)):
        cfg = cfg_with(lambda_p=lam)
        gp = an.p_h_gil_pelaez(cfg)
        erf_val = an.p_h_levy_erf(cfg)
        s1 = shot_noise_batch(lam, cfg.r_max, cfg.alpha, trials, RngStream(1001, 2 * i))
        s2 = shot_noise_batch(lam, cfg.r_max, cfg.alpha, trials, RngStream(1001, 2 * i + 1))
        k = cfg.a * s1 + (1.0 - cfg.a) / 2.0 * s2
        hits = int(np.count_nonzero(k >= harvest_threshold(cfg)))
        lo, hi = wilson_interval(hits, trials, z=3.0)
        analytic_pair = abs(gp - erf_val) <= 1e-6
        mc_pair = lo <= erf_val <= hi
        ok = ok and analytic_pair and mc_pair
        rows.append(f"lam={lam:g}: gil-pelaez={gp:.7f} erf={erf_val:.7f} "
                    f"mc={hits / trials:.5f} in [{lo:.5f},{hi:.5f}]")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(1, ok, "; ".join(rows) + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_2_dual_path_identities():
    """Every path-loss-4 closed form matches its general quadrature evaluation
    to 1e-8 relative across a 5-point parameter grid."""
    t0 = time.perf_counter()
    grid = [
        cfg_with(),
        cfg_with(lambda_p=3e-3),
        cfg_with(p_st_dbm=5.0),
        cfg_with(gamma_th_db=-5.0),
        cfg_with(lambda_sr=2.0, d_sd=1.5),
    ]
    worst = 0.0
    for cfg in grid:
        pairs = [
            an.psi31_bound(cfg, method="closed") / an.psi31_bound(cfg, method="quad"),
            an.omega1(cfg, method="closed") / an.omega1(cfg, method="quad"),
            an.delta_decode(cfg, method="closed") / an.delta_decode(cfg, method="quad"),
            an.psi4_far_field(cfg, method="closed") / an.psi4_far_field(cfg, method="quad"),
            float(an.xi_bstd(0.4, 2.0, cfg, method="closed"))
            / float(an.xi_bstd(0.4, 2.0, cfg, method="quad")),
        ]
        worst = max(worst, max(abs(r - 1.0) for r in pairs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, ok, f"worst relative difference {worst:.2e} over 5 configs x 5 "
                  f"identities; {elapsed:.1f}s")
    assert ok


def test_criterion_3_stochastic_geometry_calibration():
    """Empirical interference Laplace transform and guard-zone clearance match
    their closed forms within 3 sigma at 1e5 samples."""
    t0 = time.perf_counter()
    n = 100_000
    lam, alpha = BASELINE.lambda_p, BASELINE.alpha
    p_t = BASELINE.p_t_mw
    # r_max = 150 m keeps the truncation bias far below the 3 sigma budget.
    interference = p_t * shot_noise_batch(lam, 150.0, alpha, n, RngStream(1003, 0))
    rows = []
    ok = True
    for s in (0.01, 0.1, 1.0):
        vals = np.exp(-s * interference)
        target = math.exp(-math.pi * lam * an.gamma_pair(alpha)
                          * (s * p_t) ** (2.0 / alpha))
        sigma = vals.std(ddof=1) / math.sqrt(n)
        dev = abs(float(vals.mean()) - target)
        ok = ok and dev <= 3.0 * sigma
        rows.append(f"s={s:g}: |emp-closed|={dev:.2e} (3sig={3 * sigma:.2e})")
    clear = clearance_batch(0.1, 1.0, 10.0, n, RngStream(1003, 1))
    p = math.exp(-math.pi * 0.1 * 1.0)
    dev = abs(float(clear.mean()) - p)
    bound = 3.0 * math.sqrt(p * (1 - p) / n)
    ok = ok and dev <= bound
    rows.append(f"guard clearance |emp-closed|={dev:.2e} (3sig={bound:.2e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, ok, "; ".join(rows) + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_4_end_to_end_agreement():
    """|simulated - analytic| success probability within 0.05 per scheme at the
    baseline. For bstd the analytic value keeps the destination interference
    common to all decoding relays (see module docstring); gaps are reported
    signed."""
    t0 = time.perf_counter()
    trials = 30_000
    gaps = {}
    # One all-scheme pass: simulate() of each scheme would repeat it.
    results = simulate_all(BASELINE, trials, seed=11)
    for scheme in ("bcc", "bsir", "bstd"):
        breakdown = an.analyze(BASELINE, scheme)
        gaps[scheme] = results[scheme].estimate.p_hat - breakdown.p_succ
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"{s}: gap={g:+.4f}" for s, g in gaps.items())
    ok = all(abs(g) <= 0.05 for g in gaps.values()) and elapsed < 300.0
    report(4, ok, detail + f"; tolerance 0.05; {elapsed:.1f}s")
    assert elapsed < 300.0
    assert ok, f"scheme gaps beyond 0.05: {detail}"


def _sweep_estimates(param, values, trials, seed, scheme="bsir", **fixed):
    points = []
    for v in values:
        cfg = cfg_with(**{**fixed, param: v})
        r = simulate(cfg, scheme, trials, seed)
        hw = (r.estimate.ci_high - r.estimate.ci_low) / 2.0
        points.append((float(v), r.estimate.p_hat, hw))
    return points


def _pooled(points, i, j):
    return math.hypot(points[i][2], points[j][2])


def _interior_max_exceeds_endpoints(points):
    ps = [p for _, p, _ in points]
    i = int(np.argmax(ps))
    interior = 0 < i < len(points) - 1
    left = ps[i] - ps[0] >= 2.0 * _pooled(points, i, 0)
    right = ps[i] - ps[-1] >= 2.0 * _pooled(points, i, -1)
    return interior and left and right, i


def test_criterion_5_trend_reproduction():
    """Interior maxima of success probability vs secondary power threshold,
    primary density, and primary power, plus monotone growth in relay density;
    each detected as the grid maximum exceeding both endpoints by twice the
    pooled CI half-width."""
    rows = []

    pst = _sweep_estimates("p_st_dbm", np.linspace(-5, 10, 16), 10_000, 41)
    ok_pst, i = _interior_max_exceeds_endpoints(pst)
    rows.append(f"p_st max at {pst[i][0]:g} dBm (p={pst[i][1]:.3f})")

    lam = _sweep_estimates("lambda_p", np.geomspace(1e-3, 1e-1, 7), 10_000, 42,
                           p_t_dbm=15.0)
    ok_lam, i = _interior_max_exceeds_endpoints(lam)
    near = 10 ** -2.5 <= lam[i][0] <= 10 ** -1.5  # near 1e-2 on the log grid
    ok_lam = ok_lam and near
    rows.append(f"lambda_p max at {lam[i][0]:.2e} (p={lam[i][1]:.3f})")

    pt = _sweep_estimates("p_t_dbm", np.linspace(10, 30, 11), 30_000, 43)
    ok_pt, i = _interior_max_exceeds_endpoints(pt)
    ok_pt = ok_pt and pt[i][0] >= 20.0
    rows.append(f"p_t max at {pt[i][0]:g} dBm (p={pt[i][1]:.3f})")

    lsr = _sweep_estimates("lambda_sr", [0.5, 1.0, 2.0], 30_000, 44)
    increasing = all(a[1] < b[1] for a, b in zip(lsr, lsr[1:]))
    strong = lsr[-1][1] - lsr[0][1] >= 2.0 * _pooled(lsr, 0, -1)
    ok_lsr = increasing and strong
    rows.append(f"lambda_sr trend {' < '.join(f'{p:.3f}' for _, p, _ in lsr)}")

    ok = ok_pst and ok_lam and ok_pt and ok_lsr
    report(5, ok, "; ".join(rows))
    assert ok


def test_criterion_6_direct_link_dominance():
    """With the direct link enabled, success never decreases on paired random
    streams, scheme by scheme."""
    trials = 4000
    on_cfg = validate(dataclasses.replace(BASELINE, direct_link=True))
    rows = []
    ok = True
    off = outcomes(BASELINE, trials, 61)
    on = outcomes(on_cfg, trials, 61)
    for scheme in ("bcc", "bsir", "bstd"):
        diffs = (on.flag(scheme, "success").astype(int)
                 - off.flag(scheme, "success").astype(int))
        dominated = bool(np.all(diffs >= 0))
        mean = diffs.mean()
        sigma = diffs.std(ddof=1) / math.sqrt(trials)
        ok = ok and dominated and mean >= -3.0 * sigma
        rows.append(f"{scheme}: mean gain {mean:+.4f}, per-trial dominance {dominated}")
    report(6, ok, "; ".join(rows))
    assert ok


def _brute_force_select(scheme, relays, relay_itf, sd_itf, cfg):
    n = relays.n
    if n == 0:
        return None
    d1 = [max(math.hypot(*relays.points[j]), 1e-6) for j in range(n)]
    d2 = [max(math.hypot(relays.points[j][0] - cfg.d_sd, relays.points[j][1]), 1e-6)
          for j in range(n)]
    if scheme == "bcc":
        metric = [relays.marks[j, 0] * d1[j] ** -cfg.alpha for j in range(n)]
    elif scheme == "bsir":
        metric = [cfg.p_st_mw * relays.marks[j, 0] * d1[j] ** -cfg.alpha / relay_itf[j]
                  for j in range(n)]
    else:  # bstd
        best, best_metric = None, -1.0
        for j in range(n):
            hop1 = cfg.p_st_mw * relays.marks[j, 0] * d1[j] ** -cfg.alpha / relay_itf[j]
            if hop1 < cfg.gamma_th_lin:
                continue
            hop2 = cfg.p_st_mw * relays.marks[j, 1] * d2[j] ** -cfg.alpha / sd_itf
            if hop2 > best_metric:
                best, best_metric = j, hop2
        return best
    return max(range(n), key=lambda j: (metric[j], -j))


def test_criterion_7_brute_force_scheme_oracle():
    """Selection equals exhaustive search on a thousand sampled realizations;
    the bstd decoding-set mean size matches the thinned-density prediction."""
    cfg = cfg_with(lambda_sr=3.0)
    gen = RngStream(71, 0).generator()
    mismatches = 0
    for _ in range(1000):
        relays = sample_disc_ppp(cfg.lambda_sr, cfg.r_disc, (0.0, 0.0), gen,
                                 slot_count=2)
        relay_itf = cfg.p_t_mw * shot_noise_batch(cfg.lambda_p, cfg.r_max,
                                                  cfg.alpha, max(relays.n, 1), gen)
        relay_itf = relay_itf[:relays.n]
        sd_itf = float(cfg.p_t_mw * shot_noise_batch(cfg.lambda_p, cfg.r_max,
                                                     cfg.alpha, 1, gen)[0])
        gen.random(3)  # the uniforms the per-call selector drew, one per scheme
        block = DiscBatch(np.array([relays.n]), np.zeros(relays.n, dtype=int),
                          relays.points[:, 0], relays.points[:, 1])
        selected, _, _ = select_relay(cfg, block, relays.marks.T, relay_itf,
                                      np.array([sd_itf]), np.zeros(1))
        for scheme in ("bcc", "bsir", "bstd"):
            got = int(selected[SCHEMES.index(scheme), 0])
            want = _brute_force_select(scheme, relays, relay_itf, sd_itf, cfg)
            mismatches += int(got != (-1 if want is None else want))

    trials = 10_000
    out = outcomes(BASELINE, trials, 72)
    sizes = np.where(out.flag("bstd", "st_clear"), out.decode_count, 0).astype(float)
    target = (an.delta_decode(BASELINE) * BASELINE.lambda_sr
              * math.pi * BASELINE.r_disc ** 2)
    sigma = sizes.std(ddof=1) / math.sqrt(trials)
    dev = abs(sizes.mean() - target)
    ok = mismatches == 0 and dev <= 3.0 * sigma
    report(7, ok, f"selection mismatches {mismatches}/3000; decode-set mean "
                  f"{sizes.mean():.3f} vs {target:.3f} (3sig={3 * sigma:.3f})")
    assert ok


def test_criterion_8_determinism(tmp_path, baseline_path):
    """simulate and sweep outputs are byte-identical across reruns and across
    one vs eight workers."""
    def run(cmd):
        assert cli_main(cmd) == 0

    files = {name: tmp_path / f"{name}.csv"
             for name in ("sim_a", "sim_b", "sim_w8", "sw_a", "sw_b", "sw_w8")}
    sim = ["simulate", "--config", baseline_path, "--scheme", "bsir",
           "--trials", "400", "--seed", "7"]
    run(sim + ["--workers", "1", "--out", str(files["sim_a"])])
    run(sim + ["--workers", "1", "--out", str(files["sim_b"])])
    run(sim + ["--workers", "8", "--out", str(files["sim_w8"])])
    sweep = ["sweep", "--config", baseline_path, "--param", "p_st_dbm",
             "--values=-2,0", "--schemes", "bcc,bstd", "--trials", "200",
             "--seed", "5"]
    run(sweep + ["--workers", "1", "--out", str(files["sw_a"])])
    run(sweep + ["--workers", "1", "--out", str(files["sw_b"])])
    run(sweep + ["--workers", "8", "--out", str(files["sw_w8"])])

    sim_bytes = [pathlib.Path(files[k]).read_bytes() for k in ("sim_a", "sim_b", "sim_w8")]
    sw_bytes = [pathlib.Path(files[k]).read_bytes() for k in ("sw_a", "sw_b", "sw_w8")]
    ok = sim_bytes[0] == sim_bytes[1] == sim_bytes[2] \
        and sw_bytes[0] == sw_bytes[1] == sw_bytes[2]
    report(8, ok, "simulate and sweep byte-identical across reruns and workers 1 vs 8")
    assert ok
