"""Sampling statistics, interference sums, and guard-zone predicates.

Statistical checks compare seeded empirical frequencies to closed-form
Poisson/exponential moments within 3 sigma; seeds are fixed so the suite is
deterministic.
"""

import math

import numpy as np
import pytest

from ehrelay import geometry as geo
from ehrelay.geometry import (PointField, RngStream, clearance_batch,
                              disc_ppp_batch, interference_sum,
                              is_clear_of_guard_zones, sample_disc_ppp,
                              segment_starts, segment_sums, shot_noise_batch)


def field_interference(field, at, tx_power, alpha):
    """Interference at ``at`` from every point of a field, slot-0 gains."""
    return interference_sum(field.points, field.marks[:, 0], at, tx_power, alpha)


def test_zero_density_is_empty():
    field = sample_disc_ppp(0.0, 1.0, (0.0, 0.0), RngStream(1, 0))
    assert field.n == 0
    assert sample_disc_ppp(0.0, 50.0, (0.0, 0.0), RngStream(1, 1)).n == 0


def test_disc_count_moments():
    # Unit density on the unit disc: counts are Poisson with mean pi.
    gen = RngStream(42, 0).generator()
    draws = 100_000
    counts = np.array([sample_disc_ppp(1.0, 1.0, (0.0, 0.0), gen).n
                       for _ in range(draws)])
    mean = math.pi
    assert abs(counts.mean() - mean) <= 3.0 * math.sqrt(mean / draws)
    p0_hat = np.mean(counts == 0)
    p0 = math.exp(-math.pi)
    assert abs(p0_hat - p0) <= 3.0 * math.sqrt(p0 * (1 - p0) / draws)


def test_plane_count_mean():
    gen = RngStream(43, 0).generator()
    draws = 10_000
    counts = np.array([sample_disc_ppp(0.01, 50.0, (0.0, 0.0), gen).n
                       for _ in range(draws)])
    mean = 0.01 * math.pi * 2500.0
    assert abs(counts.mean() - mean) <= 3.0 * math.sqrt(mean / draws)


def test_points_stay_inside_radius():
    field = sample_disc_ppp(0.05, 20.0, (1.0, -2.0), RngStream(7, 0))
    radii = np.hypot(field.points[:, 0] - 1.0, field.points[:, 1] + 2.0)
    assert np.all(radii <= 20.0)


def test_disc_void_probability_subregion():
    # Void probability of an inner disc matches exp(-density*area).
    gen = RngStream(44, 0).generator()
    draws = 30_000
    hits = 0
    for _ in range(draws):
        field = sample_disc_ppp(1.0, 1.0, (0.0, 0.0), gen)
        radii = np.hypot(field.points[:, 0], field.points[:, 1])
        hits += int(np.all(radii > 0.5))
    p = math.exp(-1.0 * math.pi * 0.25)
    assert abs(hits / draws - p) <= 3.0 * math.sqrt(p * (1 - p) / draws)


def test_mark_moments_unit_exponential():
    field = sample_disc_ppp(50.0, 10.0, (0.0, 0.0), RngStream(45, 0), slot_count=4)
    marks = field.marks.ravel()
    n = marks.size
    assert abs(marks.mean() - 1.0) <= 3.0 / math.sqrt(n)
    assert abs(marks.var() - 1.0) <= 3.0 * math.sqrt(8.0 / n)


def test_sampling_determinism():
    a = sample_disc_ppp(2.0, 3.0, (0.0, 0.0), RngStream(99, 5), slot_count=2)
    b = sample_disc_ppp(2.0, 3.0, (0.0, 0.0), RngStream(99, 5), slot_count=2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.marks, b.marks)


def test_disc_batch_layout_and_counts():
    batch = disc_ppp_batch(1.0, 1.0, 50_000, RngStream(53, 0))
    assert batch.counts.size == 50_000
    assert np.array_equal(batch.owner, np.repeat(np.arange(50_000), batch.counts))
    assert np.all(np.hypot(batch.x, batch.y) <= 1.0)
    mean = math.pi
    assert abs(batch.counts.mean() - mean) <= 3.0 * math.sqrt(mean / 50_000)
    # Uniform on the disc: the share inside radius 1/2 is 1/4.
    inner = np.mean(np.hypot(batch.x, batch.y) <= 0.5)
    assert abs(inner - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / batch.x.size)
    empty = disc_ppp_batch(0.0, 1.0, 3, RngStream(53, 1))
    assert empty.owner.size == 0 and np.array_equal(empty.counts, [0, 0, 0])


def test_disc_batch_is_an_exact_poisson_disc_field():
    # The batch is drawn on the enclosing square and thinned to the disc, so
    # counts must keep Poisson dispersion (a fixed-count or mis-thinned
    # sampler fails), the points must be isotropic, and none may leave the disc.
    samples = 50_000
    batch = disc_ppp_batch(1.0, 1.0, samples, RngStream(54, 0))
    mean = math.pi
    assert abs(batch.counts.mean() - mean) <= 3.0 * math.sqrt(mean / samples)
    # Var of the sample variance of Poisson counts: (mean + 2 mean^2) / samples.
    var_sd = math.sqrt((mean + 2.0 * mean * mean) / samples)
    assert abs(batch.counts.var(ddof=1) - mean) <= 3.0 * var_sd
    points = batch.x.size
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        share = np.mean((sx * batch.x > 0) & (sy * batch.y > 0))
        assert abs(share - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / points)
    for density, radius in ((1.0, 1.0), (0.01, 400.0)):
        wide = disc_ppp_batch(density, radius, 20, RngStream(55, 0))
        assert wide.x.size > 0
        assert np.all(wide.x * wide.x + wide.y * wide.y <= radius * radius)
        assert np.all(np.hypot(wide.x, wide.y) <= radius)
        assert np.all(np.abs(wide.x) <= radius) and np.all(np.abs(wide.y) <= radius)


@pytest.mark.parametrize("counts, expected", [
    ([0, 2, 3], [0.0, 1.5, 14.0]),
    ([2, 0, 3], [1.5, 0.0, 14.0]),
    ([2, 3, 0], [1.5, 14.0, 0.0]),
    ([0, 2, 0, 3, 0], [0.0, 1.5, 0.0, 14.0, 0.0]),
    ([2, 3], [1.5, 14.0]),
], ids=["empty-first", "empty-middle", "empty-last", "empty-around", "none-empty"])
def test_segment_sums_place_empty_segments(counts, expected):
    values = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    counts = np.array(counts)
    for first in (None, segment_starts(counts)):
        sums = segment_sums(values, counts, first)
        assert sums.dtype == np.float64
        assert sums.tolist() == expected


@pytest.mark.parametrize("counts", [[0], [0, 0, 0], []], ids=["one", "three", "none"])
def test_segment_sums_of_no_values(counts):
    # Every segment empty, or no segment at all: zeros, one per segment.
    counts = np.array(counts, dtype=np.int64)
    for values in (np.zeros(0), np.zeros(0, dtype=bool)):
        sums = segment_sums(values, counts)
        assert sums.dtype == np.float64
        assert sums.tolist() == [0.0] * len(counts)


@pytest.mark.parametrize("zeros", [False, True], ids=["no-empty", "some-empty"])
def test_segment_sums_same_bits_on_either_path(zeros):
    # A sum with no empty segment is one reduceat over the starts; with
    # one, the nonempty sums are scattered into zeros. Both read the same
    # starts, so a segment's sum has the same bits on either path. A
    # trailing empty segment sends a call down the scatter path.
    gen = np.random.default_rng(61)
    for _ in range(20):
        counts = gen.poisson(3.0 if zeros else 30.0, 200)
        if not zeros:
            counts = np.maximum(counts, 1)
        assert counts.all() != zeros
        values = gen.standard_exponential(int(counts.sum())) * 10.0 ** gen.uniform(-8, 8)
        sums = segment_sums(values, counts)
        present = counts > 0
        assert np.all(sums[~present] == 0.0)
        scattered = segment_sums(values, np.append(counts, 0))
        assert scattered[-1] == 0.0
        assert sums.tobytes() == scattered[:-1].tobytes()
        assert sums[present].tobytes() == segment_sums(values, counts[present]).tobytes()
        assert sums[present].tobytes() == np.add.reduceat(
            values, segment_starts(counts)[present]).tobytes()
        hits = values > 1.0
        assert segment_sums(hits, counts).tolist() == [
            float(np.count_nonzero(hits[lo:lo + c]))
            for lo, c in zip(segment_starts(counts), counts)]


def test_interference_trivial_cases():
    empty = PointField(points=np.empty((0, 2)), marks=np.empty((0, 1)))
    assert field_interference(empty, (0.0, 0.0), 1.0, 4.0) == 0.0
    single = PointField(points=np.array([[1.0, 0.0]]), marks=np.array([[1.0]]))
    assert field_interference(single, (0.0, 0.0), 1.0, 4.0) == pytest.approx(1.0)


def test_interference_additive_and_deterministic():
    field = sample_disc_ppp(0.05, 30.0, (0.0, 0.0), RngStream(46, 0))
    at = (2.0, 0.0)
    total = field_interference(field, at, 316.0, 4.0)
    again = field_interference(field, at, 316.0, 4.0)
    assert total == again  # fixed summation order, bit-identical
    k = field.n // 2
    left = PointField(field.points[:k], field.marks[:k])
    right = PointField(field.points[k:], field.marks[k:])
    parts = (field_interference(left, at, 316.0, 4.0)
             + field_interference(right, at, 316.0, 4.0))
    assert parts == pytest.approx(total, rel=1e-12)


def test_interference_distance_clamp():
    on_top = PointField(points=np.zeros((1, 2)), marks=np.array([[1.0]]))
    val = field_interference(on_top, (0.0, 0.0), 1.0, 4.0)
    assert math.isfinite(val) and val == pytest.approx(geo.EPS_MIN ** -4.0)


def test_interference_laplace_matches_closed_form():
    # Empirical Laplace transform of shot-noise interference vs the stable-law
    # form exp(-pi*lam*G(1.5)G(0.5)*sqrt(s*P)); truncation bias at r_max=150
    # is far below the 3 sigma budget at this sample size.
    lam, p_t, alpha, s = 0.01, 316.22776601683796, 4.0, 1.0
    n = 20_000
    sums = shot_noise_batch(lam, 150.0, alpha, n, RngStream(47, 0))
    vals = np.exp(-s * p_t * sums)
    target = math.exp(-math.pi * lam * (math.pi / 2.0) * math.sqrt(s * p_t))
    assert abs(vals.mean() - target) <= 3.0 * vals.std(ddof=1) / math.sqrt(n)


def test_aggregate_interference_laplace_small_sample():
    # Same check field by field through interference_sum, at a reduced
    # sample size.
    lam, p_t, s = 0.01, 316.22776601683796, 1.0
    n = 2000
    gen = RngStream(52, 0).generator()
    vals = np.empty(n)
    for i in range(n):
        field = sample_disc_ppp(lam, 150.0, (0.0, 0.0), gen)
        vals[i] = math.exp(-s * field_interference(field, (0.0, 0.0), p_t, 4.0))
    target = math.exp(-math.pi * lam * (math.pi / 2.0) * math.sqrt(s * p_t))
    assert abs(vals.mean() - target) <= 3.0 * vals.std(ddof=1) / math.sqrt(n)


def test_guard_zone_predicate_cases():
    empty = PointField(points=np.empty((0, 2)), marks=np.empty((0, 0)))
    assert is_clear_of_guard_zones((0.0, 0.0), empty, 1.0)
    near = PointField(points=np.array([[0.5, 0.0]]), marks=np.empty((1, 0)))
    assert not is_clear_of_guard_zones((0.0, 0.0), near, 1.0)
    assert is_clear_of_guard_zones((0.0, 0.0), near, 0.4)


@pytest.mark.parametrize("call,match", [
    (lambda: sample_disc_ppp(-1e-3, 1.0, (0.0, 0.0), RngStream(1, 0)), "density must be >= 0"),
    (lambda: sample_disc_ppp(1.0, 0.0, (0.0, 0.0), RngStream(1, 0)), "radius must be > 0"),
    (lambda: is_clear_of_guard_zones(
        (0.0, 0.0), PointField(points=np.empty((0, 2)), marks=np.empty((0, 0))), -1.0),
     "r_gz must be >= 0"),
], ids=["sample_disc_ppp-density", "sample_disc_ppp-radius", "is_clear_of_guard_zones"])
def test_geometry_argument_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_guard_zone_clearance_frequency():
    lam, r_gz = 0.1, 1.0
    draws = 5_000
    gen = RngStream(48, 0).generator()
    clear = 0
    for _ in range(draws):
        pr = sample_disc_ppp(lam, 10.0, (0.0, 0.0), gen, slot_count=0)
        clear += int(is_clear_of_guard_zones((0.0, 0.0), pr, r_gz))
    p = math.exp(-math.pi * lam * r_gz ** 2)
    assert abs(clear / draws - p) <= 3.0 * math.sqrt(p * (1 - p) / draws)


def test_clearance_batch_agrees_with_predicate_stats():
    lam, r_gz = 0.1, 1.0
    n = 30_000
    clear = clearance_batch(lam, r_gz, 10.0, n, RngStream(49, 0))
    p = math.exp(-math.pi * lam * r_gz ** 2)
    assert abs(clear.mean() - p) <= 3.0 * math.sqrt(p * (1 - p) / n)
