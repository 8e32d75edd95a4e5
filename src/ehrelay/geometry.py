"""Poisson point fields, fading marks, interference, and guard-zone predicates.

One ``PointField`` is one sampled realization of a homogeneous PPP inside a
disc, carrying per-point unit-mean exponential power gains (one independent
draw per slot). A ``DiscBatch`` holds many independent realizations drawn
together as flat arrays, which is how the simulator draws its blocks of
trials. ``disc_ppp_batch`` draws each one by thinning: a PPP of the same
density on the enclosing square, keeping the points inside the disc. The
restriction of a PPP to a subregion is a PPP of the same density there, so
this is exact, and it needs no sqrt, cos or sin (``sample_disc_ppp`` keeps
polar sampling). All operations are pure given an ``RngStream``, so parallel
workers owning disjoint stream ids reproduce identical results regardless of
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Distance clamp in path loss: a PPP point a.s. never coincides with a
# receiver, but floating-point underflow near 0 must not produce infinities.
EPS_MIN = 1e-6


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    The same pair yields the same draws no matter in which order or on which
    worker the stream is consumed.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or an already-built numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return rng.generator()


@dataclass
class PointField:
    """One realization of a marked PPP: 2-D points plus per-slot fading gains.

    ``points`` has shape (n, 2) in meters; ``marks`` has shape
    (n, slot_count) with independent unit-mean exponential entries.
    Fields are treated as immutable once sampled.
    """

    points: np.ndarray
    marks: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


def sample_disc_ppp(density: float, radius: float, center, rng,
                    slot_count: int = 1) -> PointField:
    """Sample a homogeneous PPP of the given density on a disc.

    The count is Poisson(density * pi * radius^2); conditioned on the count,
    points are uniform on the disc (polar sampling with radius ~ sqrt(u)).
    """
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    gen = as_generator(rng)
    n = int(gen.poisson(density * math.pi * radius * radius))
    radii = radius * np.sqrt(gen.random(n))
    angles = 2.0 * math.pi * gen.random(n)
    points = np.asarray(center, dtype=float) + np.column_stack(
        (radii * np.cos(angles), radii * np.sin(angles)))
    marks = gen.standard_exponential((n, slot_count))
    return PointField(points=points, marks=marks)


def interference_sum(points: np.ndarray, gains: np.ndarray, at,
                     tx_power: float, alpha: float) -> float:
    """tx_power * sum_i gains_i * max(||X_i - at||, EPS_MIN)^(-alpha).

    Summation order is fixed (point index), so repeated evaluation is
    bit-identical for the same inputs.
    """
    if points.shape[0] == 0:
        return 0.0
    delta = points - np.asarray(at, dtype=float)
    dist = np.maximum(np.hypot(delta[:, 0], delta[:, 1]), EPS_MIN)
    return float(tx_power * np.sum(gains * dist ** (-alpha)))


def is_clear_of_guard_zones(at, pr_field: PointField, r_gz: float) -> bool:
    """True iff every guard-zone center is strictly farther than r_gz from ``at``."""
    if r_gz < 0:
        raise ValueError(f"r_gz must be >= 0, got {r_gz}")
    if pr_field.n == 0:
        return True
    delta = pr_field.points - np.asarray(at, dtype=float)
    return bool(np.min(np.hypot(delta[:, 0], delta[:, 1])) > r_gz)


# ---------------------------------------------------------------------------
# Batched fields. These sample many independent fields at once as flat ragged
# arrays: each sample's points are contiguous and each carries the index of
# its sample, so per-sample sums are segment sums (np.add.reduceat, several
# times faster than a weighted np.bincount). The simulation kernel draws
# its blocks of trials with them; the shot-noise and clearance batches, for
# receivers at the disc center where only point radii matter, also serve the
# calibration tests.
# ---------------------------------------------------------------------------

class DiscBatch(NamedTuple):
    """Independent disc PPP realizations drawn together, grouped by sample."""

    counts: np.ndarray   # points per sample
    owner: np.ndarray    # sample index of each point, ascending
    x: np.ndarray        # point coordinates relative to the disc center, m
    y: np.ndarray


def segment_starts(counts) -> np.ndarray:
    """Index of the first value of each segment whose lengths are ``counts``."""
    return counts.cumsum() - counts


def segment_sums(values, counts, first=None) -> np.ndarray:
    """Sums of the consecutive segments of ``values`` whose lengths are
    ``counts``; ``first`` passes ``segment_starts(counts)`` when the caller
    has it already."""
    sums = np.zeros(len(counts))
    present = counts > 0
    if len(values):
        if first is None:
            first = segment_starts(counts)
        sums[present] = np.add.reduceat(values, first[present])
    return sums


def disc_ppp_batch(density: float, radius: float, n_samples: int,
                   rng) -> DiscBatch:
    """n_samples independent homogeneous PPPs on a disc centered at the origin.

    Each sample is drawn as a PPP of the same density on the enclosing square
    [-radius, radius]^2 (a Poisson(density * 4 * radius^2) count of uniform
    points) and restricted to the disc, keeping the points with
    x^2 + y^2 <= radius^2. A PPP restricted to a subregion is a PPP of the
    same density on it (Haenggi, Stochastic Geometry for Wireless Networks,
    2012, ch. 2), so the kept counts are Poisson(density * pi * radius^2)
    and, given its count, a sample's points are uniform on the disc: the
    draw is exact. It draws 4/pi times as many points as it keeps, and needs
    no sqrt, cos or sin.
    """
    gen = as_generator(rng)
    drawn = gen.poisson(density * 4.0 * radius * radius, n_samples)
    total = int(drawn.sum())
    xy = gen.random(2 * total)
    xy *= 2.0 * radius
    xy -= radius
    x, y = xy[:total], xy[total:]
    r2 = x * x
    r2 += y * y
    keep = (r2 <= radius * radius).nonzero()[0]
    owner = np.arange(n_samples).repeat(drawn)[keep]
    return DiscBatch(np.bincount(owner, minlength=n_samples), owner, x[keep], y[keep])


def shot_noise_batch(density: float, r_max: float, alpha: float,
                     n_samples: int, rng) -> np.ndarray:
    """Per-sample sum of g_i * r_i^(-alpha) over independent disc PPPs.

    Returns an array of length n_samples; multiply by a transmit power to get
    interference, or combine two batches with slot weights to get a harvested
    sum.
    """
    gen = as_generator(rng)
    counts = gen.poisson(density * math.pi * r_max * r_max, n_samples)
    total = int(counts.sum())
    # r^(-alpha) = (r_max^2 u)^(-alpha/2) for r = r_max*sqrt(u), clamped at
    # EPS_MIN; one buffer, worked in place.
    loss = gen.random(total)
    loss *= r_max * r_max
    np.maximum(loss, EPS_MIN * EPS_MIN, out=loss)
    np.power(loss, -0.5 * alpha, out=loss)
    loss *= gen.standard_exponential(total)
    return segment_sums(loss, counts)


def clearance_batch(density: float, r_gz: float, r_max: float,
                    n_samples: int, rng) -> np.ndarray:
    """Per-sample guard-zone clearance of the disc center (boolean array)."""
    gen = as_generator(rng)
    counts = gen.poisson(density * math.pi * r_max * r_max, n_samples)
    total = int(counts.sum())
    radii = r_max * np.sqrt(gen.random(total))
    owner = np.repeat(np.arange(n_samples), counts)
    blocking = np.bincount(owner[radii <= r_gz], minlength=n_samples)
    return blocking == 0
