"""Realization logic, relay selection, determinism, and statistical oracles.

Per-trial checks read the kernel's outcome arrays (``simulate.outcomes``),
which hold every scheme's events from the same draws.
"""

import argparse
import dataclasses
import importlib
import math
import multiprocessing
import os
import pathlib
import pickle
import platform
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from ehrelay import analytics as an
from ehrelay import cli
from ehrelay.config import RAW_FIELDS, ConfigError, SystemConfig, validate
from ehrelay.geometry import (DiscBatch, RngStream, _path_loss, disc_ppp_batch,
                              segment_starts)
from ehrelay.simulate import (ELEMENT_BUDGET, FLAG_NAMES, SCHEMES, TRIAL_ELEMENT_CAP,
                              _pair_d2, _pair_sums, _received, _safe_ratio,
                              harvested_energy, outcomes, run_realization,
                              select_relay, simulate, simulate_all, trial_elements,
                              trials_per_block, wilson_interval)

from conftest import block_pairs

sim_mod = importlib.import_module("ehrelay.simulate")


def _never(*args, **kwargs):
    raise AssertionError("reached although the call should have stopped")


def cfg_with(**kw):
    return validate(SystemConfig(**kw))


def relay_block(groups):
    """A DiscBatch of relays from per-trial lists of (x, y) positions."""
    counts = np.array([len(g) for g in groups], dtype=np.int64)
    pts = np.array([p for g in groups for p in g], dtype=float).reshape(-1, 2)
    return DiscBatch(counts, np.repeat(np.arange(len(groups)), counts),
                     pts[:, 0], pts[:, 1])


def select(cfg, groups, marks, relay_itf, sd_itf, pick=None):
    """select_relay on per-trial relay lists; marks hold (hop-1, hop-2) gains."""
    relays = relay_block(groups)
    marks = np.asarray(marks, dtype=float).reshape(-1, 2)
    if pick is None:
        pick = np.zeros(len(groups))
    selected, _, _ = select_relay(cfg, relays, (marks[:, 0], marks[:, 1]),
                                  np.asarray(relay_itf, dtype=float),
                                  np.asarray(sd_itf, dtype=float), pick)
    first = np.cumsum(relays.counts) - relays.counts
    # Index within the trial, None when no relay was selected.
    return {scheme: [None if s < 0 else int(s - first[t])
                     for t, s in enumerate(selected[k])]
            for k, scheme in enumerate(SCHEMES)}


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def test_harvested_energy_hand_case():
    cfg = cfg_with(p_t_dbm=0.0, lambda_p=1e-4)  # p_t = 1 mW
    one = 1.0 * _path_loss(np.array([1.0]), cfg.alpha)  # unit gain at 1 m
    k = harvested_energy(cfg, one, one)
    assert k[0] == pytest.approx(0.75, rel=1e-12)
    # K is the energy in units of eta * p_t * T: 6e-4 mJ here, with T = 1 ms.
    t_block = 1e-3
    assert cfg.eta * cfg.p_t_mw * t_block * k[0] == pytest.approx(6e-4, rel=1e-12)
    zero = np.zeros(1)
    assert harvested_energy(cfg, zero, zero)[0] == 0.0
    # The weights a and (1-a)/2 go to the dedicated and the reused slot.
    cfg = cfg_with(a=0.2)
    assert harvested_energy(cfg, 1.0, 0.0) == pytest.approx(0.2, rel=1e-12)
    assert harvested_energy(cfg, 0.0, 1.0) == pytest.approx(0.4, rel=1e-12)


def sir(tx_power, gain, distance, interference, alpha):
    """One link's SIR through the kernel's path loss and safe ratio."""
    signal = tx_power * gain * _path_loss(np.array([distance * distance]), alpha)
    return float(_safe_ratio(signal, np.array([interference]))[0])


def test_sir_cases():
    assert sir(1.0, 0.0, 1.0, 1.0, 4.0) == 0.0
    assert sir(1.0, 1.0, 1.0, 1.0, 4.0) == 1.0
    base = sir(2.0, 0.7, 1.3, 0.9, 4.0)
    assert sir(2.0, 0.7, 2.6, 0.9, 4.0) == pytest.approx(base / 16.0, rel=1e-12)
    assert sir(1.0, 1.0, 1.0, 0.0, 4.0) == math.inf
    assert sir(1.0, 0.0, 1.0, 0.0, 4.0) == 0.0
    assert math.isfinite(sir(1.0, 1.0, 0.0, 1.0, 4.0))  # distance clamp


def test_no_interference_decodes_at_any_threshold():
    # No primaries: every SIR is +inf, so every link decodes at 300 dB.
    cfg = cfg_with(lambda_p=0.0, gamma_th_db=300.0, direct_link=True)
    out = outcomes(cfg, 500, seed=327)
    nonempty = out.relay_count >= 1
    assert nonempty.any() and not nonempty.all()
    assert out.flag("bcc", "direct_decode_ok").all()
    for scheme in SCHEMES:
        assert np.array_equal(out.flag(scheme, "sr_decode_ok"), nonempty), scheme
        assert np.array_equal(out.flag(scheme, "sd_decode_ok"), nonempty), scheme


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(20, 80)
    assert 0.0 <= lo <= 0.25 <= hi <= 1.0
    with pytest.raises(ValueError, match="trials must be >= 1"):
        wilson_interval(0, 0)


def test_estimate_ci_invariant():
    for k, n in ((0, 10), (3, 10), (10, 10), (250, 1000)):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


# ---------------------------------------------------------------------------
# In-place kernel helpers: results against brute force, inputs left intact
# ---------------------------------------------------------------------------

RAGGED_POINTS = [[(0.1, 0.2), (0.5, -0.3)], [], [(1.0, 1.0)], [(0.0, 0.0), (-0.7, 0.4)], []]
RAGGED_OTHER = [[(1.0, 2.0), (3.0, -4.0), (-5.0, 6.0)], [(7.0, 8.0)], [],
                [(-1.0, -1.0), (0.0, 0.0)], [(2.5, 0.5)]]


def snapshot(batch):
    return [a.copy() for a in batch]


def assert_unchanged(arrays, saved):
    for a, b in zip(arrays, saved):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("other_groups", [RAGGED_OTHER, [[]] * 5],
                         ids=["ragged", "empty-other"])
def test_pair_d2_matches_brute_force(other_groups):
    points, other = relay_block(RAGGED_POINTS), relay_block(other_groups)
    saved = snapshot(points), snapshot(other)
    per, first, d2 = _pair_d2(points, other, segment_starts(other.counts))
    expected_per, expected = [], []
    for trial, group in enumerate(RAGGED_POINTS):
        for px, py in group:
            partners = other_groups[trial]
            expected_per.append(len(partners))
            expected += [(px - ox) * (px - ox) + (py - oy) * (py - oy)
                         for ox, oy in partners]
    assert per.tolist() == expected_per
    assert first.tolist() == (np.cumsum(expected_per) - expected_per).tolist()
    assert d2.tolist() == expected   # bit for bit
    assert_unchanged(points, saved[0])
    assert_unchanged(other, saved[1])


def one_trial(gen, size, radius):
    """A DiscBatch of one trial: ``size`` points uniform on a square."""
    x, y = gen.uniform(-radius, radius, (2, size))
    return DiscBatch(np.array([size]), np.zeros(size, dtype=np.intp), x, y)


@pytest.mark.parametrize("budget", [1, 80, ELEMENT_BUDGET])
@pytest.mark.parametrize("sizes", [(5, 37), (5, 0), (0, 37)],
                         ids=["pairs", "empty-other", "no-points"])
def test_pair_sums_stream_one_trial_bit_for_bit(monkeypatch, sizes, budget):
    # One trial takes rows of the outer product in groups of at most
    # ELEMENT_BUDGET pairs: one row per group, two, then all five. Its sums
    # and the draws it takes are those of the gather over every pair.
    gen = np.random.default_rng(336)
    points, other = one_trial(gen, sizes[0], 1.0), one_trial(gen, sizes[1], 50.0)
    saved = snapshot(points), snapshot(other)
    monkeypatch.setattr(sim_mod, "ELEMENT_BUDGET", budget)
    streamed, gathered = np.random.default_rng(337), np.random.default_rng(337)
    sums = _pair_sums(points, other, np.zeros(1, dtype=np.intp), streamed, 3.0)
    per, first, d2 = _pair_d2(points, other, np.zeros(1, dtype=np.intp))
    gains = gathered.standard_exponential(d2.size)
    assert sums.tolist() == _received(per, first, gains, d2, 3.0).tolist()   # bit for bit
    assert streamed.random() == gathered.random()
    gains = gains.reshape(sizes[0], sizes[1])
    brute = [sum(g * max((px - ox) ** 2 + (py - oy) ** 2, 1e-12) ** -1.5
                 for g, ox, oy in zip(row, other.x, other.y))
             for row, px, py in zip(gains, points.x, points.y)]
    assert sums.tolist() == pytest.approx(brute, rel=1e-12)
    assert_unchanged(points, saved[0])
    assert_unchanged(other, saved[1])


@pytest.mark.parametrize("size", [0, 1], ids=["empty-other", "one-other"])
def test_pair_sums_rows_sized_by_the_points(size):
    # Five points against an empty or one-point field: the row groups hold
    # five rows, not ELEMENT_BUDGET of them (1 MiB of counts and starts).
    gen = np.random.default_rng(338)
    points, other = one_trial(gen, 5, 1.0), one_trial(gen, size, 50.0)
    tracemalloc.start()
    try:
        sums = _pair_sums(points, other, np.zeros(1, dtype=np.intp), gen, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums.shape == (5,)
    assert peak < 64 * 1024


def test_received_leaves_inputs_unchanged():
    counts = np.array([2, 0, 3])
    first = segment_starts(counts)
    gains = np.array([0.5, 1.5, 2.0, 0.25, 1.0])
    d2 = np.array([4.0, 0.0, 1.0, 9.0, 0.25])
    saved = gains.copy(), d2.copy(), counts.copy()
    sums = _received(counts, first, gains, d2, 4.0)
    loss = np.maximum(d2, 1e-12) ** -2.0
    assert sums.tolist() == pytest.approx([0.5 / 16.0 + 1.5 * loss[1], 0.0,
                                           2.0 + 0.25 / 81.0 + 16.0], rel=1e-12)
    assert_unchanged((gains, d2, counts), saved)


def test_static_harvest_sums_match_recomputation(baseline):
    # Under the static model one field feeds both harvest sums, through the
    # same distances: each sum must see them as drawn, not as a previous
    # step left them.
    cfg = validate(dataclasses.replace(baseline, slot_position_model="static"))
    n = 60
    out = run_realization(cfg, RngStream(332, 0), n)
    gen = RngStream(332, 0).generator()
    field = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
    dedicated_gains = gen.standard_exponential(field.x.size)
    reused_gains = gen.standard_exponential(field.x.size)
    dist = np.maximum(np.hypot(field.x, field.y), 1e-6)
    dedicated = np.zeros(n)
    reused = np.zeros(n)
    np.add.at(dedicated, field.owner, dedicated_gains * dist ** -cfg.alpha)
    np.add.at(reused, field.owner, reused_gains * dist ** -cfg.alpha)
    assert out.k_value == pytest.approx(harvested_energy(cfg, dedicated, reused),
                                        rel=1e-9)


# ---------------------------------------------------------------------------
# Relay selection vs exhaustive search
# ---------------------------------------------------------------------------

def brute_force_select(scheme, pts, marks, relay_itf, sd_itf, cfg):
    n = len(pts)
    if n == 0:
        return None
    d1 = [max(math.hypot(*pts[j]), 1e-6) for j in range(n)]
    d2 = [max(math.hypot(pts[j][0] - cfg.d_sd, pts[j][1]), 1e-6) for j in range(n)]
    if scheme == "bcc":
        metric = [marks[j][0] * d1[j] ** -cfg.alpha for j in range(n)]
    elif scheme == "bsir":
        metric = [cfg.p_st_mw * marks[j][0] * d1[j] ** -cfg.alpha / relay_itf[j]
                  for j in range(n)]
    elif scheme == "bstd":
        best, best_metric = None, -1.0
        for j in range(n):
            hop1 = cfg.p_st_mw * marks[j][0] * d1[j] ** -cfg.alpha / relay_itf[j]
            if hop1 < cfg.gamma_th_lin:
                continue
            hop2 = cfg.p_st_mw * marks[j][1] * d2[j] ** -cfg.alpha / sd_itf
            if hop2 > best_metric:
                best, best_metric = j, hop2
        return best
    else:
        raise AssertionError(scheme)
    return max(range(n), key=lambda j: (metric[j], -j))


def test_select_relay_matches_brute_force(baseline):
    gen = RngStream(300, 0).generator()
    cases = []
    for _ in range(400):
        n = int(gen.integers(0, 9))
        radii = np.sqrt(gen.random(n))
        angles = 2 * math.pi * gen.random(n)
        pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
        marks = gen.standard_exponential((n, 2))
        relay_itf = gen.standard_exponential(n) * 0.3 + 1e-3
        sd_itf = float(gen.standard_exponential() * 0.3 + 1e-3)
        gen.random(3)  # the uniforms the per-trial selector drew, one per scheme
        cases.append((pts, marks, relay_itf, sd_itf))
    # All 400 instances as one block, empty trials included.
    got = select(baseline, [c[0] for c in cases], np.concatenate([c[1] for c in cases]),
                 np.concatenate([c[2] for c in cases]), [c[3] for c in cases])
    checked = {"bcc": 0, "bsir": 0, "bstd": 0}
    for t, (pts, marks, relay_itf, sd_itf) in enumerate(cases):
        for scheme in ("bcc", "bsir", "bstd"):
            want = brute_force_select(scheme, pts, marks, relay_itf, sd_itf, baseline)
            assert got[scheme][t] == want, (scheme, t, len(pts))
            if want is not None:
                checked[scheme] += 1
    assert min(checked.values()) > 100  # nontrivial coverage


def test_select_relay_single_candidate(baseline):
    got = select(baseline, [[(0.3, 0.1)]], [[50.0, 1.0]], [0.05], [0.05])
    for scheme in SCHEMES:
        assert got[scheme] == [0], scheme


def test_select_relay_tie_breaks_to_lowest_index(baseline):
    # Identical hop-one metrics: the first index of each trial wins, also
    # next to empty and other trials.
    tie = [(0.5, 0.0), (0.0, 0.5)]
    groups = [tie, [], [(0.9, 0.0)] + tie, tie[::-1]]
    marks = np.tile([2.0, 1.0], (7, 1))
    marks[2] = (0.1, 0.1)  # a weaker first relay in trial 2
    sd_far = [1e-3] * 4
    got = select(baseline, groups, marks, np.full(7, 1e-3), sd_far)
    for scheme in ("bcc", "bsir"):
        assert got[scheme] == [0, None, 1, 0], scheme
    # Mirrored positions also tie on the second hop (same distance to d_sd).
    mirrored = [[(0.3, 0.4), (0.3, -0.4)]]
    got = select(baseline, mirrored, [[2.0, 1.0], [2.0, 1.0]], [1e-3, 1e-3], [1e-3])
    assert got["bstd"] == [0]


def test_select_relay_empty(baseline):
    got = select(baseline, [[], [], []], np.empty((0, 2)), np.empty(0),
                 [0.1, 0.1, 0.1], pick=np.array([0.0, 0.5, 0.999]))
    for scheme in SCHEMES:
        assert got[scheme] == [None, None, None], scheme


def test_select_relay_random_baseline_uniform(baseline):
    trio = [(0.3, 0.1), (-0.2, 0.4), (0.1, -0.5)]
    gen = RngStream(4, 0).generator()
    picks = select(baseline, [trio] * 3000, np.ones((9000, 2)), np.ones(9000),
                   np.ones(3000), pick=gen.random(3000))["random_baseline"]
    counts = np.bincount(picks, minlength=3)
    assert np.all(np.abs(counts / 3000 - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / 3000))


# ---------------------------------------------------------------------------
# Realization invariants
# ---------------------------------------------------------------------------

def test_outcome_implications_all_schemes(baseline):
    direct_cfg = validate(dataclasses.replace(baseline, direct_link=True))
    for cfg, trials in ((baseline, 10_000), (direct_cfg, 2500)):
        out = outcomes(cfg, trials, seed=310)
        assert np.all(out.k_value >= 0.0)
        for scheme in SCHEMES:
            f = {name: out.flag(scheme, name) for name in FLAG_NAMES}
            ok = f["success"]
            assert np.all(f["harvest_ok"][ok] & f["st_clear"][ok]), scheme
            if not cfg.direct_link:
                assert np.all((out.relay_count >= 1)[ok] & f["sr_decode_ok"][ok]
                              & f["sr_clear"][ok] & f["sd_decode_ok"][ok]), scheme
            sel = out.selected[SCHEMES.index(scheme)]
            chosen = sel >= 0
            assert np.all(sel[chosen] < out.relay_count[chosen]), scheme
            if scheme == "bstd":
                assert np.array_equal(out.decode_count > 0, f["sr_decode_ok"])


def test_no_relays_no_direct_never_succeeds():
    cfg = cfg_with(lambda_sr=0.0)
    assert not outcomes(cfg, 300, seed=311).flag("bsir", "success").any()


def test_ideal_decode_success_equals_harvest():
    # Threshold and guard zones off, dense relays: success iff enough energy.
    cfg = cfg_with(gamma_th_db=-300.0, r_gz=0.0, lambda_sr=6.0)
    out = outcomes(cfg, 800, seed=312)
    assert np.array_equal(out.flag("bcc", "success"), out.flag("bcc", "harvest_ok"))


def test_realization_determinism(baseline):
    a = outcomes(baseline, 40, seed=313)
    b = outcomes(baseline, 40, seed=313)
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_empty_disc_frequency(baseline):
    counts = outcomes(baseline, 8000, seed=314).relay_count
    p0_hat = np.mean(counts == 0)
    p0 = math.exp(-math.pi * baseline.lambda_sr * baseline.r_disc ** 2)
    assert abs(p0_hat - p0) <= 3 * math.sqrt(p0 * (1 - p0) / len(counts))


def test_flag_frequencies_match_analytics(baseline):
    result = simulate(baseline, "bsir", 30_000, seed=315)
    p_h = an.p_h_gil_pelaez(baseline)
    g = an.guard_zone_prob(baseline.lambda_p, baseline.r_gz)
    n = result.trials
    for name, target in (("harvest_ok", p_h), ("st_clear", g)):
        k = result.flag_counts[name]
        lo, hi = wilson_interval(k, n, z=3.0)
        assert lo <= target <= hi, name


def test_decode_set_thinning_matches_delta(baseline):
    # Mean decoding-set size, gated by the transmitter guard event, matches
    # the thinned-density prediction delta*lambda_sr*pi*R^2.
    out = outcomes(baseline, 30_000, seed=316)
    sizes = np.where(out.flag("bstd", "st_clear"), out.decode_count, 0).astype(float)
    target = an.delta_decode(baseline) * baseline.lambda_sr * math.pi * baseline.r_disc ** 2
    sigma = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs(sizes.mean() - target) <= 3 * sigma


def test_direct_link_bsir_matches_analytics(baseline):
    cfg = validate(dataclasses.replace(baseline, direct_link=True))
    result = simulate(cfg, "bsir", 10_000, seed=319)
    breakdown = an.analyze(cfg, "bsir")
    assert abs(result.estimate.p_hat - breakdown.p_succ) <= 0.05


def test_direct_link_bstd_matches_analytics(baseline):
    cfg = validate(dataclasses.replace(baseline, direct_link=True))
    result = simulate(cfg, "bstd", 10_000, seed=319)
    breakdown = an.analyze(cfg, "bstd")
    assert abs(result.estimate.p_hat - breakdown.p_succ) <= 0.05


def test_bstd_matches_analytics_inside_disc(baseline):
    # The destination inside the relay disc, where chi_common integrates the
    # interference peak at the destination in log-radius rings. The relay
    # branch alone: with the direct link, analyze keeps its independent
    # direct-link combination, whose gap shows at any d_sd.
    cfg = validate(dataclasses.replace(baseline, d_sd=0.5))
    result = simulate(cfg, "bstd", 20_000, seed=332)
    breakdown = an.analyze(cfg, "bstd")
    assert abs(result.estimate.p_hat - breakdown.p_succ) <= 0.02


def test_bstd_branch_matches_common_interference_oracle(baseline):
    """Relay-branch probability vs a semi-analytic oracle that keeps the
    destination interference common to all decoding relays (no independence
    swap): Monte Carlo over the 1/2-stable interference law with
    radius-dependent thinning of the decoders."""
    cfg = baseline
    q = (math.pi ** 2 / 2) * cfg.lambda_p * math.sqrt(
        cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw)
    c_levy = (math.pi * cfg.lambda_p * an.gamma_pair(4.0)
              * math.sqrt(cfg.p_t_mw)) ** 2 / 2.0
    rng = np.random.default_rng(317)
    i_sd = c_levy / rng.standard_normal(200_000) ** 2
    # G(u) = iint exp(-q r^2) exp(-u f^4) r dr dtheta on a log-u grid
    r = (np.arange(300) + 0.5)[:, None] * cfg.r_disc / 300
    th = (np.arange(300) * 2 * math.pi / 300)[None, :]
    f4 = (r ** 2 + cfg.d_sd ** 2 - 2 * r * cfg.d_sd * np.cos(th)) ** 2
    cell = (cfg.r_disc / 300) * (2 * math.pi / 300)
    us = np.geomspace(1e-9, 1e7, 240)
    g_grid = np.array([np.sum(np.exp(-q * r ** 2 - u * f4) * r) * cell for u in us])
    g_of_i = np.interp(np.log(cfg.gamma_th_lin * i_sd / cfg.p_st_mw),
                       np.log(us), g_grid)
    oracle_branch = float(np.mean(-np.expm1(-cfg.lambda_sr * g_of_i)))

    out = outcomes(cfg, 12_000, seed=318)
    branch = np.mean((out.decode_count > 0) & out.flag("bstd", "sd_decode_ok"))
    # Residual difference is the hop-one decode correlation through shared
    # slot-two interferer positions, observed well under 0.01.
    assert abs(branch - oracle_branch) <= 0.02


# ---------------------------------------------------------------------------
# Paired-stream comparisons and aggregation
# ---------------------------------------------------------------------------

def test_direct_link_never_hurts_per_trial(baseline):
    on_cfg = validate(dataclasses.replace(baseline, direct_link=True))
    off = outcomes(baseline, 1500, seed=320)
    on = outcomes(on_cfg, 1500, seed=320)
    for scheme in SCHEMES:
        assert np.all(on.flag(scheme, "success") >= off.flag(scheme, "success")), scheme


def test_direct_literal_events_subset(baseline):
    # The paper's decomposed direct-link event set counts the direct branch
    # only beside a decoding, guard-cleared relay or when no relay decoded,
    # so it is a strict subset of selection combining's successes.
    out = outcomes(validate(dataclasses.replace(baseline, direct_link=True)), 1500, seed=321)
    for scheme in SCHEMES:
        f = {name: out.flag(scheme, name) for name in FLAG_NAMES}
        literal = f["harvest_ok"] & f["st_clear"] & (
            (f["sr_decode_ok"] & f["sr_clear"] & (f["direct_decode_ok"] | f["sd_decode_ok"]))
            | (~f["sr_decode_ok"] & f["direct_decode_ok"]))
        assert np.all(f["success"] >= literal), scheme
        assert np.any(f["success"] > literal), scheme


def test_best_sir_dominates_random_pick(baseline):
    trials = 5000
    out = outcomes(baseline, trials, seed=322)
    p_best = out.flag("bsir", "success").mean()
    p_rand = out.flag("random_baseline", "success").mean()
    sigma = math.sqrt((p_best * (1 - p_best) + p_rand * (1 - p_rand)) / trials)
    assert p_best >= p_rand - 3 * sigma
    # Hop-one decoding itself is dominated realization-by-realization.
    has = out.relay_count >= 1
    hop1 = np.all(out.flag("bsir", "sr_decode_ok")[has]
                  >= out.flag("random_baseline", "sr_decode_ok")[has])
    assert hop1


def test_simulate_deterministic_and_worker_invariant(baseline):
    a = simulate(baseline, "bsir", 400, seed=323, workers=1)
    b = simulate(baseline, "bsir", 400, seed=323, workers=1)
    assert a.flag_counts == b.flag_counts
    c = simulate(baseline, "bsir", 400, seed=323, workers=3)
    assert a.flag_counts == c.flag_counts
    assert a.estimate == c.estimate


def test_workers_default_to_one_whatever_the_environment(baseline, monkeypatch):
    # No environment variable sets the worker count: a call without
    # ``workers`` runs its three blocks in this process.
    monkeypatch.setenv("EHRELAY_WORKERS", "4")
    monkeypatch.setattr(sim_mod, "_pooled_counts", _never)
    trials = 2 * trials_per_block(baseline) + 5
    assert simulate(baseline, "bcc", trials, seed=327) == simulate_all(
        baseline, trials, seed=327, workers=1)["bcc"]


def test_simulate_reads_one_all_scheme_pass(baseline):
    cfg = validate(dataclasses.replace(baseline, direct_link=True))
    every = simulate_all(cfg, 500, seed=328, workers=1)
    out = outcomes(cfg, 500, seed=328)
    for k, scheme in enumerate(SCHEMES):
        # The first call may take its row from the pass of an earlier one;
        # the second runs a pass of its own.
        for one in [simulate(cfg, scheme, 500, seed=328, workers=1) for _ in range(2)]:
            assert one == every[scheme], scheme
            assert one.flag_counts == dict(zip(FLAG_NAMES,
                                               out.flags[k].sum(axis=1).tolist()))
    free = ("harvest_ok", "st_clear", "relay_nonempty", "direct_decode_ok")
    assert len({tuple(every[s].flag_counts[f] for f in free) for s in SCHEMES}) == 1


@pytest.mark.parametrize("model", ["independent", "static"])
def test_every_scheme_bit_identical_across_workers(baseline, model):
    cfg = validate(dataclasses.replace(baseline, slot_position_model=model))
    trials = 5 * trials_per_block(cfg) + 17   # six blocks, the last one partial
    runs = [simulate_all(cfg, trials, seed=329, workers=w) for w in (1, 2, 3)]
    for scheme in SCHEMES:
        assert runs[0][scheme] == runs[1][scheme] == runs[2][scheme], scheme


def test_static_model_shares_one_primary_field(baseline, monkeypatch):
    # The static model draws one primary field for all four slots; the
    # independent model draws two radius-only harvest fields and two slot fields.
    sim = importlib.import_module("ehrelay.simulate")
    for model, fields, radii_only in (("static", 1, 0), ("independent", 2, 2)):
        cfg = validate(dataclasses.replace(baseline, slot_position_model=model))
        calls = []
        real_disc, real_shot = sim.disc_ppp_batch, sim.shot_noise_batch
        monkeypatch.setattr(sim, "disc_ppp_batch", lambda d, r, n, g: (
            calls.append(("disc", r)) or real_disc(d, r, n, g)))
        monkeypatch.setattr(sim, "shot_noise_batch", lambda d, r, a, n, g: (
            calls.append(("shot", r)) or real_shot(d, r, a, n, g)))
        run_realization(cfg, RngStream(330, 0), 5)
        monkeypatch.undo()
        assert calls.count(("disc", cfg.r_max)) == fields, model
        assert calls.count(("shot", cfg.r_max)) == radii_only, model


def test_trials_per_block_depends_on_config_only(baseline):
    block = trials_per_block(baseline)
    assert block >= 1
    for change in ({"p_st_dbm": 3.0}, {"direct_link": True}, {"gamma_th_db": -5.0},
                   {"slot_position_model": "static"}):
        assert trials_per_block(validate(dataclasses.replace(baseline, **change))) == block
    # The trial count does not move block boundaries: a longer run starts
    # with the same trials.
    short = outcomes(baseline, block, seed=331)
    longer = outcomes(baseline, 2 * block + 1, seed=331)
    assert np.array_equal(short.flags, longer.flags[..., :block])


@pytest.mark.parametrize("overrides", [
    {"alpha": 3.0, "r_max": 400.0, "p_st_dbm": 5.0},
    {"lambda_p": 0.1},
])
def test_trials_per_block_within_element_budget(baseline, overrides):
    cfg = validate(dataclasses.replace(baseline, **overrides))
    primaries = cfg.lambda_p * math.pi * cfg.r_max ** 2
    pairs = cfg.lambda_sr * math.pi * cfg.r_disc ** 2 * primaries
    block = trials_per_block(cfg)
    assert block >= 1
    assert block * (4 * primaries + pairs) <= ELEMENT_BUDGET


DENSE = {"alpha": 3.0, "r_max": 400.0, "p_st_dbm": 5.0}


def _record_shares(monkeypatch):
    """A list that collects the share of blocks each ``_count_blocks`` call
    and each worker would read from now on; nothing is drawn, no worker
    starts and every count is zero."""
    shares = []

    def zero(cfgs):
        return np.zeros((len(cfgs), len(SCHEMES), len(FLAG_NAMES)), dtype=np.int64)

    monkeypatch.setattr(sim_mod, "_count_blocks",
                        lambda cfgs, seed, blocks: shares.append(blocks) or zero(cfgs))
    monkeypatch.setattr(sim_mod, "_pooled_counts",
                        lambda cfgs, seed, tasks, step: shares.extend(tasks) or zero(cfgs))
    return shares


@pytest.mark.parametrize("overrides", [{}, DENSE, {"lambda_sr": 20.0}],
                         ids=["baseline", "dense", "lambda_sr20"])
def test_shares_read_the_blocks_of_a_list_plan(baseline, monkeypatch, overrides):
    # Each share reads the (block, trials) pairs of a plan listed one pair a
    # block, split into contiguous shares of ceil(blocks / workers) pairs,
    # the last share the lightest.
    cfg = validate(dataclasses.replace(baseline, **overrides))
    size = trials_per_block(cfg)
    shares = _record_shares(monkeypatch)
    for trials in [*range(1, 401), 999, 1000, 1001, 30_000, 30_001]:
        pairs = [(b, min(size, trials - b * size)) for b in range(-(-trials // size))]
        for workers in (1, 2, 3, 8, 10 ** 6):
            shares.clear()
            simulate_all(cfg, trials, seed=345, workers=workers)
            read = [block_pairs(share) for share in shares]
            per = -(-len(pairs) // workers)
            assert read == [pairs[i:i + per] for i in range(0, len(pairs), per)], (trials,
                                                                                  workers)
            assert [pair for share in read for pair in share] == pairs
            loads = [sum(n for _, n in share) for share in read]
            assert loads[-1] == min(loads)


@pytest.mark.parametrize("workers", [1, 2])
def test_plan_does_not_grow_with_the_trial_count(baseline, monkeypatch, workers):
    # 10^6 dense trials are 10^6 blocks of one trial. Planning them and
    # handing out the shares holds a few small objects: a plan of one
    # (block, trials) pair a block peaked at 96 MB traced and pickled to
    # 4.4 MB a share. Kept at 10^6: at a far larger count, such a plan would
    # exhaust the memory instead of failing this test.
    cfg = validate(dataclasses.replace(baseline, **DENSE))
    assert trials_per_block(cfg) == 1
    shares = _record_shares(monkeypatch)
    simulate_all(cfg, 10, seed=346, workers=workers)   # first-call costs, untraced
    shares.clear()
    tracemalloc.start()
    try:
        simulate_all(cfg, 10 ** 6, seed=346, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert len(shares) == workers
    assert all(len(pickle.dumps(share)) < 256 for share in shares)


@pytest.mark.parametrize("overrides, trials, budget", [
    ({}, 1000, None),
    ({"lambda_sr": 20.0}, 1000, None),
    ({"slot_position_model": "static"}, 1000, None),
    ({"direct_link": True}, 1000, None),
    # One trial per block at any budget below a dense trial's elements, so a
    # smaller budget splits 40 trials into chunks without moving a block.
    (DENSE, 40, 1024),
])
def test_chunks_keep_outcomes_bit_identical(baseline, monkeypatch, overrides,
                                            trials, budget):
    # The decision stage runs once per chunk of blocks; a call's outcomes and
    # counts are those of its blocks decided one at a time.
    cfg = validate(dataclasses.replace(baseline, **overrides))
    if budget is not None:
        monkeypatch.setattr(sim_mod, "ELEMENT_BUDGET", budget)
    decided = []
    real_decide = sim_mod._decide
    monkeypatch.setattr(sim_mod, "_decide",
                        lambda c, draws: decided.append(draws) or real_decide(c, draws))
    out = outcomes(cfg, trials, seed=333)
    blocks = sim_mod._blocks(cfg, trials)
    assert 1 < len(decided) < len(blocks)
    parts = [run_realization(cfg, RngStream(333, b), n) for b, n in block_pairs(blocks)]
    for field in dataclasses.fields(out):
        joined = np.concatenate([getattr(p, field.name) for p in parts], axis=-1)
        assert np.array_equal(getattr(out, field.name), joined), field.name
    counts = sum(p.flags.sum(axis=2) for p in parts)
    results = simulate_all(cfg, trials, seed=333, workers=1)
    for k, scheme in enumerate(SCHEMES):
        assert results[scheme].flag_counts == dict(zip(FLAG_NAMES, counts[k].tolist()))


@pytest.mark.parametrize("overrides", [{}, {"slot_position_model": "static"}, DENSE],
                         ids=["baseline", "static", "dense"])
def test_decide_leaves_the_draws_unchanged(baseline, monkeypatch, overrides):
    # The grid runner decides one chunk for several configs, and a chunk of
    # one block holds that block's arrays as drawn, not a copy: deciding must
    # not write into them.
    cfg = validate(dataclasses.replace(baseline, **overrides))
    monkeypatch.setattr(sim_mod, "ELEMENT_BUDGET", 1024)
    drawn = []
    real_draw = sim_mod._draw
    monkeypatch.setattr(sim_mod, "_draw", lambda *a: drawn.append(real_draw(*a)) or drawn[-1])
    blocks = sim_mod._blocks(cfg, 3 * trials_per_block(cfg))
    for draws in sim_mod._chunks(cfg, 336, blocks):
        if len(drawn) == 1:
            assert draws is drawn[0]
        drawn.clear()
        saved = {f.name: getattr(draws, f.name).copy() for f in dataclasses.fields(draws)}
        for gamma_th_db in (-15.0, -5.0):
            sim_mod._decide(validate(dataclasses.replace(cfg, gamma_th_db=gamma_th_db)), draws)
        for name, array in saved.items():
            assert np.array_equal(getattr(draws, name), array), name


@pytest.mark.parametrize("budget", [1, 20_000])
def test_row_groups_keep_outcomes_bit_identical(baseline, monkeypatch, budget):
    # About 63 relays x 5k slot-two primaries a trial: 5 groups of rows at
    # the default budget, 63 of one row at budget 1 and 16 of four at 20k.
    # A block is one trial at any of them.
    cfg = validate(dataclasses.replace(baseline, alpha=3.0, r_max=400.0, lambda_sr=20.0))
    expected = outcomes(cfg, 3, seed=335)
    monkeypatch.setattr(sim_mod, "ELEMENT_BUDGET", budget)
    assert trials_per_block(cfg) == 1
    out = outcomes(cfg, 3, seed=335)
    for field in dataclasses.fields(out):
        assert np.array_equal(getattr(out, field.name), getattr(expected, field.name))


# One trial: four primary fields of about 314k points each, and 19.7M relay x
# slot-two primary pairs.
HUGE_TRIAL = {"alpha": 3.0, "lambda_p": 0.1, "r_max": 1000.0, "lambda_sr": 20.0}


@pytest.mark.parametrize("overrides, trials", [({}, 20_000), (DENSE, 64), (HUGE_TRIAL, 1)])
def test_kernel_memory_stays_bounded(baseline, overrides, trials):
    # About 1.5 MB at the baseline and the dense corner; a chunk holding the
    # whole baseline call reads 16 MB, and kept gains that view their block's
    # exponential draw 2.9 MB at the baseline and 14 MB at the dense corner.
    # The huge trial reads about 27 MB, its primary fields' own floor, and
    # about 430 MB when it holds all its pairs at once.
    bound = 40e6 if overrides is HUGE_TRIAL else 2.25e6
    cfg = validate(dataclasses.replace(baseline, **overrides))
    simulate_all(cfg, min(trials, 10), seed=334, workers=1)   # first-call imports and caches
    tracemalloc.start()
    try:
        simulate_all(cfg, trials, seed=334, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


# One trial of about 3.1e9 primaries per field and 1e12 elements, which
# validate accepts.
TOO_LARGE = {"lambda_p": 10.0, "r_max": 10000.0, "lambda_sr": 100.0}


def test_trial_too_large_to_draw_is_refused(baseline, monkeypatch):
    cfg = validate(dataclasses.replace(baseline, **TOO_LARGE))
    monkeypatch.setattr(sim_mod, "_draw", _never)
    for run in (lambda: simulate_all(cfg, 1, seed=1, workers=2),
                lambda: outcomes(cfg, 1, seed=1),
                lambda: run_realization(cfg, RngStream(1, 0), 1)):
        start = time.perf_counter()
        with pytest.raises(ConfigError) as err:
            run()
        assert time.perf_counter() - start < 1.0
        assert err.value.diagnostics == [
            "one trial would hold 1e+12 array elements, over the cap of 268435456; "
            "lower lambda_p, r_max or lambda_sr"]
    # The largest trial the tests draw stays at least 10x under the cap.
    huge = validate(dataclasses.replace(baseline, **HUGE_TRIAL))
    assert 10 * trial_elements(huge) <= TRIAL_ELEMENT_CAP


def test_ci_width_shrinks_with_doubled_trials(baseline):
    r1 = simulate(baseline, "bsir", 10_000, seed=324)
    r2 = simulate(baseline, "bsir", 20_000, seed=324)
    w1 = r1.estimate.ci_high - r1.estimate.ci_low
    w2 = r2.estimate.ci_high - r2.estimate.ci_low
    assert 0.6 <= w2 / w1 <= 0.85


def test_single_trial_estimate_is_binary(baseline):
    r = simulate(baseline, "bsir", 1, seed=325)
    assert r.estimate.p_hat in (0.0, 1.0)


def test_static_position_model_runs(baseline):
    cfg = validate(dataclasses.replace(baseline, slot_position_model="static"))
    r = simulate(cfg, "bcc", 600, seed=326)
    assert 0.0 <= r.estimate.p_hat <= 1.0
    again = simulate(cfg, "bcc", 600, seed=326)
    assert r.flag_counts == again.flag_counts


def test_simulate_validates_inputs(baseline):
    with pytest.raises(ValueError):
        simulate(baseline, "nope", 10, seed=1)
    with pytest.raises(ValueError):
        simulate(baseline, "bcc", 0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        outcomes(baseline, 0, seed=1)
    with pytest.raises(ValueError):
        simulate(SystemConfig(), "bcc", 10, seed=1)  # not validated


def test_every_kernel_entry_refuses_an_unvalidated_config(monkeypatch):
    # The derived linear fields are unset until validate(), so a draw would
    # end in a TypeError; each entry checks first and draws nothing.
    monkeypatch.setattr(sim_mod, "_draw", _never)
    for run in (lambda: simulate_all(SystemConfig(), 10, seed=1),
                lambda: outcomes(SystemConfig(), 10, seed=1),
                lambda: run_realization(SystemConfig(), RngStream(1, 0), 5)):
        with pytest.raises(ValueError, match=r"^config must pass validate\(\) before simulation$"):
            run()


def test_readme_field_lists_match_the_draw_fields():
    # README's "Grid runner" lists the fields the draw stage reads, and its
    # "Scheme pairing" the raw fields it does not; each list is the one
    # parenthesis of backticked names in its bullet.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def listed(bullet):
        text = readme.split(f"\n* **{bullet}.**", 1)[1].split("\n* ", 1)[0]
        (names,) = re.findall(r"\(((?:`\w+`,\s*)+`\w+`)[;)]", text)
        return sorted(re.findall(r"`(\w+)`", names))

    draw_fields = sim_mod._DRAW_FIELDS
    assert listed("Grid runner") == sorted(draw_fields)
    assert listed("Scheme pairing") == sorted(set(RAW_FIELDS) - set(draw_fields))


# ---------------------------------------------------------------------------
# Grid runner: one pass draws once for every config that shares its draws
# ---------------------------------------------------------------------------

# One valid value per raw field, each differing from the default in that
# field alone. The four that set the block size keep trials_per_block, so
# that only the values of _DRAW_FIELDS can tell such a config from the baseline.
ALTERNATIVES = {
    "lambda_p": 0.00998, "lambda_sr": 1.005, "p_t_dbm": 27.0, "p_st_dbm": 0.0,
    "eta": 0.6, "a": 0.4, "alpha": 3.8, "r_disc": 1.002, "r_gz": 1.5,
    "gamma_th_db": -6.0, "d_sd": 1.8, "r_max": 49.95, "direct_link": True,
    "slot_position_model": "static",
}


def _count_draws(monkeypatch):
    """A list that collects the trials of every ``_draw`` call from now on."""
    drawn = []
    real_draw = sim_mod._draw
    monkeypatch.setattr(sim_mod, "_draw", lambda *a: drawn.append(a[2]) or real_draw(*a))
    return drawn


def _grid_runs(monkeypatch, cfgs, workers):
    """The results ``cli._grid_rows`` simulates for a grid with one point per
    config in ``cfgs``, over three blocks: one dict per config."""
    runs = []
    real = cli._simulate_all

    def spy(*args):
        runs.extend(real(*args))
        return runs[-len(args[0]):]

    args = argparse.Namespace(param=None, trials=2 * trials_per_block(cfgs[0]) + 5,
                              seed=336, workers=workers)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_simulate_all", spy)
        rows = list(cli._grid_rows(args, [(None, cfg) for cfg in cfgs], SCHEMES,
                                   lambda cfg, scheme: None, lambda ana, est: []))
    assert len(rows) == len(cfgs) * len(SCHEMES)
    return runs


def test_alternatives_cover_every_raw_field():
    assert set(ALTERNATIVES) == set(RAW_FIELDS)


@pytest.mark.parametrize("field", RAW_FIELDS)
def test_runner_shares_draws_only_among_equal_draw_fields(baseline, monkeypatch, field):
    # A grid over the baseline and a config that differs in one field gives
    # each config's own run, at one worker and at two, where the worker
    # runs its share of blocks for both when they make one pass.
    cfg = validate(dataclasses.replace(baseline, **{field: ALTERNATIVES[field]}))
    assert trials_per_block(cfg) == trials_per_block(baseline)
    alone = [_grid_runs(monkeypatch, [c], 1)[0] for c in (baseline, cfg)]
    for workers in (1, 2):
        assert _grid_runs(monkeypatch, [baseline, cfg], workers) == alone, workers


@pytest.mark.parametrize("field", sim_mod._DRAW_FIELDS)
def test_runner_key_without_a_draw_field_fails_the_runner_test(baseline, monkeypatch,
                                                                field):
    # The test above catches a grouping that leaves out any field _draw reads.
    cfg = validate(dataclasses.replace(baseline, **{field: ALTERNATIVES[field]}))
    alone = _grid_runs(monkeypatch, [cfg], 1)[0]
    monkeypatch.setattr(sim_mod, "_DRAW_FIELDS",
                        tuple(f for f in sim_mod._DRAW_FIELDS if f != field))
    assert _grid_runs(monkeypatch, [baseline, cfg], 1)[1] != alone


def test_one_pass_refuses_configs_that_draw_apart(baseline, monkeypatch):
    monkeypatch.setattr(sim_mod, "_draw", _never)
    for field in sim_mod._DRAW_FIELDS:
        cfg = validate(dataclasses.replace(baseline, **{field: ALTERNATIVES[field]}))
        with pytest.raises(ValueError, match="must share"):
            sim_mod._simulate_all([baseline, cfg], 600, seed=336)


def test_runner_draws_each_block_once_for_a_group(baseline, monkeypatch):
    cfgs = [validate(dataclasses.replace(baseline, p_st_dbm=v)) for v in (-4.0, 0.0, 3.0)]
    alone = [simulate_all(cfg, 600, seed=337) for cfg in cfgs]
    drawn = _count_draws(monkeypatch)
    assert sim_mod._simulate_all(cfgs, 600, seed=337) == alone
    assert drawn == [n for _, n in block_pairs(sim_mod._blocks(baseline, 600))]


# ---------------------------------------------------------------------------
# Row handoff: simulate() hands out each other row of its pass once
# ---------------------------------------------------------------------------

def test_four_schemes_of_one_seed_cost_one_pass(baseline, monkeypatch):
    every = simulate_all(baseline, 600, seed=338)
    drawn = _count_draws(monkeypatch)
    rows = [simulate(baseline, scheme, 600, seed=338) for scheme in SCHEMES]
    assert rows == [every[scheme] for scheme in SCHEMES]
    assert drawn == [n for _, n in block_pairs(sim_mod._blocks(baseline, 600))]


def test_second_call_for_a_scheme_draws_again(baseline, monkeypatch):
    simulate(baseline, "bcc", 600, seed=339)
    drawn = _count_draws(monkeypatch)
    first = simulate(baseline, "bsir", 600, seed=339)   # handed out
    assert drawn == []
    again = simulate(baseline, "bsir", 600, seed=339)
    assert again == first and again is not first
    assert sum(drawn) == 600
    # Another trial count, seed or config runs a pass of its own.
    for cfg, trials, seed in ((baseline, 601, 339), (baseline, 600, 340),
                              (validate(dataclasses.replace(baseline, p_st_dbm=0.0)), 600, 339)):
        drawn.clear()
        simulate(cfg, "bcc", trials, seed)
        assert sum(drawn) == trials


def test_no_result_is_returned_twice(baseline):
    calls = [("bcc", 341), ("bsir", 341), ("bsir", 341), ("bcc", 341), ("bstd", 342),
             ("bstd", 341), ("random_baseline", 341), ("bstd", 341), ("bcc", 341)]
    results = [simulate(baseline, scheme, 200, seed) for scheme, seed in calls]
    assert len({id(r) for r in results}) == len(results)
    assert len({id(r.flag_counts) for r in results}) == len(results)
    for (scheme, seed), result in zip(calls, results):
        assert result == simulate_all(baseline, 200, seed)[scheme]


def test_threads_share_the_handoff_safely(baseline):
    # Three threads call every scheme at two seeds and two decision-field
    # configs in turn, so a call finds the rows another thread's pass left,
    # or its own row already taken. Every result is that of its own config,
    # seed and scheme, and none is returned twice.
    other = validate(dataclasses.replace(baseline, p_st_dbm=2.0))
    runs = [(cfg, seed, scheme) for cfg in (baseline, other) for seed in (343, 344)
            for scheme in SCHEMES]
    expected = [simulate_all(cfg, 300, seed)[scheme] for cfg, seed, scheme in runs]
    results, errors = [], []

    def run(offset):
        try:
            for k in range(len(runs)):
                i = (k + offset) % len(runs)
                cfg, seed, scheme = runs[i]
                results.append((i, simulate(cfg, scheme, 300, seed)))
        except Exception as exc:   # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1, 5)]
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
    assert len(results) == 3 * len(runs) and all(r == expected[i] for i, r in results)
    assert len({id(r) for _, r in results}) == len(results)


# ---------------------------------------------------------------------------
# Worker set life cycle. Each test starts at most two worker processes.
# ---------------------------------------------------------------------------

_real_count_blocks = sim_mod._count_blocks


def _exit_in_worker(cfgs, seed, blocks, parent=os.getpid()):
    if os.getpid() != parent:
        os._exit(1)
    return _real_count_blocks(cfgs, seed, blocks)


def _raise_in_worker(cfgs, seed, blocks, parent=os.getpid()):
    if os.getpid() != parent and seed == 332:
        raise ValueError("raised in a worker")
    return _real_count_blocks(cfgs, seed, blocks)


@pytest.fixture
def three_blocks(baseline):
    """A run of three blocks at the baseline and its serial result."""
    trials = 2 * trials_per_block(baseline) + 5
    return trials, simulate_all(baseline, trials, seed=331, workers=1)


def test_pool_reused_across_calls_and_bit_identical(baseline, three_blocks):
    trials, serial = three_blocks
    sim_mod._drop_workers()
    first = simulate_all(baseline, trials, seed=331, workers=2)
    workers = list(sim_mod._workers)
    assert len(workers) == 1
    second = simulate_all(baseline, trials, seed=331, workers=2)
    assert sim_mod._workers == workers
    assert first == serial and second == serial
    assert simulate(baseline, "bsir", trials, seed=331, workers=2) == serial["bsir"]
    assert sim_mod._workers == workers


def test_pool_replaced_for_another_worker_count(baseline, three_blocks):
    trials, serial = three_blocks
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    [small] = sim_mod._workers
    assert simulate_all(baseline, trials, seed=331, workers=3) == serial
    assert len(sim_mod._workers) == 2 and small not in sim_mod._workers
    assert not small[0].is_alive()


def test_pool_never_larger_than_the_task_count(baseline, three_blocks):
    # A huge worker count splits three blocks into three one-block shares:
    # this process runs one and the set gets two processes, never more.
    trials, serial = three_blocks
    assert simulate_all(baseline, trials, seed=331, workers=10 ** 6) == serial
    assert len(sim_mod._workers) == 2


def test_shut_down_pool_is_replaced(baseline, three_blocks):
    trials, serial = three_blocks
    simulate_all(baseline, trials, seed=331, workers=2)
    [dropped] = sim_mod._workers
    sim_mod._drop_workers()
    assert not dropped[0].is_alive()
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    assert len(sim_mod._workers) == 1 and dropped not in sim_mod._workers


def test_idle_broken_pool_is_replaced(baseline, three_blocks):
    trials, serial = three_blocks
    simulate_all(baseline, trials, seed=331, workers=2)
    [killed] = sim_mod._workers
    os.kill(killed[0].pid, signal.SIGKILL)
    killed[0].join(60)
    assert killed[0].exitcode == -signal.SIGKILL
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    assert len(sim_mod._workers) == 1 and killed not in sim_mod._workers


def test_pool_broken_during_a_call_is_dropped(baseline, three_blocks, monkeypatch):
    trials, serial = three_blocks
    sim_mod._drop_workers()   # the next set forks with the patched counter
    monkeypatch.setattr(sim_mod, "_count_blocks", _exit_in_worker)
    with pytest.raises(BrokenProcessPool):
        simulate_all(baseline, trials, seed=331, workers=2)
    assert sim_mod._workers == []
    monkeypatch.undo()
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial


def test_worker_exception_reaches_the_caller(baseline, three_blocks, monkeypatch):
    # Both workers raise; the caller reads both replies, so the set it keeps
    # holds no stale reply for the next call.
    trials, serial = three_blocks
    sim_mod._drop_workers()   # the next set forks with the patched counter
    monkeypatch.setattr(sim_mod, "_count_blocks", _raise_in_worker)
    try:
        with pytest.raises(ValueError, match="raised in a worker") as err:
            simulate_all(baseline, trials, seed=332, workers=3)
        # The cause carries the worker's own traceback.
        assert "_count_blocks" in str(err.value.__cause__)
        workers = list(sim_mod._workers)
        assert len(workers) == 2
        assert simulate_all(baseline, trials, seed=331, workers=3) == serial
        assert sim_mod._workers == workers
    finally:
        sim_mod._drop_workers()   # its workers keep the patched counter


def test_caller_share_exception_drops_the_set(baseline, three_blocks, monkeypatch):
    # The caller's own share raises while the worker's reply is pending: the
    # error comes through unchanged, the set is dropped with the reply
    # unread, and the next pooled call builds a new one.
    trials, serial = three_blocks
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    [old] = sim_mod._workers
    error = ValueError("raised in the caller")

    def raise_in_caller(cfgs, seed, blocks, parent=os.getpid()):
        if os.getpid() == parent:
            raise error
        return _real_count_blocks(cfgs, seed, blocks)

    monkeypatch.setattr(sim_mod, "_count_blocks", raise_in_caller)
    with pytest.raises(ValueError) as info:
        simulate_all(baseline, trials, seed=331, workers=2)
    assert info.value is error and info.value.__cause__ is None
    assert sim_mod._workers == [] and not old[0].is_alive()
    monkeypatch.undo()
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    [new] = sim_mod._workers
    assert new is not old and new[0].is_alive()


def test_pooled_call_starts_no_thread(baseline, three_blocks):
    # The caller fans out and collects from its own thread, also when it
    # builds the set.
    trials, serial = three_blocks
    sim_mod._drop_workers()
    before = threading.active_count()
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    assert simulate_all(baseline, trials, seed=331, workers=2) == serial
    assert threading.active_count() == before


def test_forked_child_runs_its_own_pool(baseline, three_blocks):
    trials, serial = three_blocks
    simulate_all(baseline, trials, seed=331, workers=2)   # the child inherits this set
    assert sim_mod._workers
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        results = simulate_all(baseline, trials, seed=331, workers=2)
        send.send({s: r.flag_counts for s, r in results.items()})

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "forked child did not report within 60 s"
        counts = receive.recv()
        proc.join(60)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join(10)
    assert counts == {s: r.flag_counts for s, r in serial.items()}


def test_threads_share_the_pool_safely(baseline, three_blocks):
    # Two threads alternate worker counts 2 and 3 (pools of one and two
    # processes) on the one process-wide pool; every result stays exact.
    trials, serial = three_blocks
    results, errors = [], []

    def run(counts):
        try:
            for workers in counts:
                results.append(simulate_all(baseline, trials, seed=331, workers=workers))
        except Exception as exc:   # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=((2, 3) * 3,)),
               threading.Thread(target=run, args=((3, 2) * 3,))]
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
    assert len(results) == 12 and all(r == serial for r in results)


# ---------------------------------------------------------------------------
# Heap residency: the pages one block frees serve the next block instead of
# being handed back and faulted in again (a glibc malloc setting).
# ---------------------------------------------------------------------------

needs_glibc = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap top pad is a glibc malloc setting")


def _minor_faults(pid):
    """Minor page faults so far of process ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[7])   # field 10, minflt


@needs_glibc
@pytest.mark.parametrize("name", ["baseline", "sim_dense"])
def test_kernel_heap_stays_resident_between_calls(name):
    # In a fresh interpreter: large frees earlier in this process raise
    # glibc's trim threshold, which would keep the heap resident on its own.
    # tools/kernel_faults.py gives the config, the trial count and the
    # reading: 3 warm-up calls, then minor faults per call over 20.
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from kernel_faults import CONFIGS, measure\n"
              "from ehrelay.config import SystemConfig, apply_overrides, validate\n"
              "[(overrides, trials)] = [c[1:] for c in CONFIGS if c[0] == sys.argv[2]]\n"
              "print(measure(validate(apply_overrides(SystemConfig(), overrides)), trials)[0])\n")
    tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
    run = subprocess.run([sys.executable, "-c", script, str(tools), name],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 40


@needs_glibc
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_heap_stays_resident_between_calls(baseline, method):
    previous = multiprocessing.get_start_method(allow_none=True)
    sim_mod._drop_workers()
    multiprocessing.set_start_method(method, force=True)
    try:
        for seed in range(3):   # warm-up; builds a set of one worker
            simulate_all(baseline, 2000, seed, workers=2)
        [(process, _)] = workers = list(sim_mod._workers)
        before = _minor_faults(process.pid)
        for seed in range(3, 8):
            simulate_all(baseline, 2000, seed, workers=2)
        per_call = (_minor_faults(process.pid) - before) / 5
        assert sim_mod._workers == workers
    finally:
        sim_mod._drop_workers()
        multiprocessing.set_start_method(previous, force=True)
    assert per_call <= 100, per_call
