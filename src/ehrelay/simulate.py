"""Exact Monte Carlo of the three-slot harvest/relay protocol, in blocks of trials.

The kernel draws a block of independent trials at once as flat ragged arrays:
every point carries the index of the trial that owns it (``np.repeat`` of the
per-trial counts), each trial's points are contiguous, and per-trial sums and
maxima are segment reductions (``np.add.reduceat``, ``np.maximum.reduceat``).
One block gives every scheme's flags from the same draws, so the schemes are
paired: their scheme-free flags agree trial by trial, and ``simulate`` of one
scheme reads its row from one all-scheme pass.

Random streams: block b of a run with seed s draws from stream (s, b). The
number of trials per block is set by the config alone
(``trials_per_block``), never by the trial count or the worker count, so
results are bit-identical for any ``workers``. The draw order inside a block
does not depend on the scheme or on the direct-link switches, so runs that
differ only in those see the same networks.

Slot structure per trial: two harvesting contributions (the dedicated slot
plus the opportunistically reused forwarding slot), then the
transmitter-to-relay slot, then the relay-to-destination slot. Primary
transmitter positions are redrawn per slot under the ``independent`` position
model and shared under ``static``; fading is always link-specific. Guard-zone
events for the transmitter and the forwarding relay are evaluated against
the same receiver field, so they are correlated (unlike the analytic product
form; the acceptance tolerance absorbs the gap).
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from multiprocessing import parent_process
from multiprocessing.connection import wait
from multiprocessing.util import Finalize

import numpy as np

from .config import SystemConfig, harvest_threshold
from .geometry import (EPS_MIN, DiscBatch, RngStream, as_generator,
                       disc_ppp_batch, segment_sums, shot_noise_batch)

SCHEMES = ("bcc", "bsir", "bstd", "random_baseline")
# random_baseline is a uniform-pick reference, not part of the analyzed
# selection rules; outputs must keep it clearly flagged by this name.

FLAG_NAMES = ("harvest_ok", "st_clear", "relay_nonempty", "sr_decode_ok",
              "sr_clear", "sd_decode_ok", "direct_decode_ok", "success")

# Expected array elements one block may hold; bounds the kernel's memory.
ELEMENT_BUDGET = 1 << 16
# Allowance per trial for its own arrays (sums, flags, selections).
_PER_TRIAL_ELEMENTS = 32


@dataclass(frozen=True)
class EstimateCI:
    """Bernoulli estimate with a Wilson score interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int


@dataclass
class SimulationResult:
    scheme: str
    trials: int
    seed: int
    estimate: EstimateCI
    flag_counts: dict
    flag_frequencies: dict


@dataclass(frozen=True)
class Outcomes:
    """Per-trial events of a run, every scheme from the same draws.

    ``flags[k, f, t]`` is event FLAG_NAMES[f] of trial t under SCHEMES[k].
    Every array has the trial as its last axis.
    """

    flags: np.ndarray         # bool, (scheme, flag, trial)
    relay_count: np.ndarray   # relays in the disc
    decode_count: np.ndarray  # relays that decoded hop one (selection pool for bstd)
    selected: np.ndarray      # (scheme, trial): forwarding relay's index in its trial, or -1
    k_value: np.ndarray       # normalized harvested sum K

    def flag(self, scheme: str, name: str) -> np.ndarray:
        return self.flags[SCHEMES.index(scheme), FLAG_NAMES.index(name)]


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Score confidence interval for a Bernoulli proportion."""
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def trials_per_block(cfg: SystemConfig) -> int:
    """Trials drawn from one random stream; set by the config alone.

    A trial is expected to hold the points of four primary fields, the relay
    x slot-two primary pairs and a fixed allowance for its own arrays; a block
    takes as many trials as fit ELEMENT_BUDGET, and at least one.
    """
    primaries = cfg.lambda_p * math.pi * cfg.r_max ** 2
    relays = cfg.lambda_sr * math.pi * cfg.r_disc ** 2
    per_trial = _PER_TRIAL_ELEMENTS + 4.0 * primaries + relays * primaries
    return max(1, int(ELEMENT_BUDGET // per_trial))


def harvested_energy(cfg: SystemConfig, dedicated, reused):
    """Harvested energy in units of eta * p_t * t_block: the normalized sum K.

    ``dedicated`` and ``reused`` are the path-loss sums of the dedicated
    harvesting slot and the reused forwarding slot; K weights them by a and
    (1-a)/2.
    """
    return cfg.a * dedicated + (1.0 - cfg.a) / 2.0 * reused


def _path_loss(d2, alpha: float):
    """max(d, EPS_MIN)^(-alpha), from squared distances d2."""
    return np.maximum(d2, EPS_MIN * EPS_MIN) ** (-0.5 * alpha)


def _safe_ratio(signal, interference):
    """Elementwise signal/interference: +inf where only the interference is 0."""
    empty = np.where(signal > 0.0, math.inf, 0.0)
    return np.divide(signal, interference, out=empty, where=interference > 0.0)


def _received(counts, gains, d2, alpha: float) -> np.ndarray:
    """Per-segment sum of gains * path loss; segments as in ``segment_sums``."""
    return segment_sums(gains * _path_loss(d2, alpha), counts)


def _none_within(counts, d2, radius: float) -> np.ndarray:
    """Per segment: no point within ``radius`` (squared distances d2)."""
    return segment_sums(d2 <= radius * radius, counts) == 0


def _first(counts):
    return np.cumsum(counts) - counts


def _pair_d2(points: DiscBatch, other: DiscBatch):
    """Squared distances from every point to every point of ``other`` in its
    trial, grouped by point; returns (pairs per point, squared distances)."""
    per = other.counts[points.owner]
    j = (np.repeat(_first(other.counts)[points.owner] - _first(per), per)
         + np.arange(per.sum()))
    d2 = ((np.repeat(points.x, per) - other.x[j]) ** 2
          + (np.repeat(points.y, per) - other.y[j]) ** 2)
    return per, d2


def _segmented_argmax(owner, first, present, metric) -> np.ndarray:
    """Per trial, the index of its relay with the largest metric, else -1.

    ``owner`` (ascending) gives each relay's trial, ``first`` each trial's
    first relay and ``present`` whether it has any. Ties go to the lowest
    index; a metric of -inf marks an ineligible relay.
    """
    best = np.full(first.size, -np.inf)
    if metric.size:
        best[present] = np.maximum.reduceat(metric, first[present])
    hit = np.flatnonzero((metric == best[owner]) & (metric > -np.inf))
    hit_owner = owner[hit]
    lead = np.ones(hit.size, dtype=bool)
    lead[1:] = hit_owner[1:] != hit_owner[:-1]
    selected = np.full(first.size, -1)
    selected[hit_owner[lead]] = hit[lead]
    return selected


def select_relay(cfg: SystemConfig, relays: DiscBatch, gains, relay_itf,
                 sd_itf, pick):
    """Forwarding relay of every trial in a block, under every scheme.

    ``gains`` holds the hop-one and hop-two fading gain of each relay,
    ``relay_itf`` the slot-two interference at each relay, ``sd_itf`` the
    slot-three interference at the destination per trial, and ``pick`` one
    uniform per trial for random_baseline. Returns (selected, sir_hop1,
    sir_hop2): ``selected[k, t]`` is the block-wide index of trial t's relay
    under SCHEMES[k], -1 when none qualifies. Ties go to the lowest index.
    """
    gain_hop1, gain_hop2 = gains
    owner, counts = relays.owner, relays.counts
    hop1 = gain_hop1 * _path_loss(relays.x ** 2 + relays.y ** 2, cfg.alpha)
    sir_hop1 = _safe_ratio(cfg.p_st_mw * hop1, relay_itf)
    hop2 = gain_hop2 * _path_loss((relays.x - cfg.d_sd) ** 2 + relays.y ** 2, cfg.alpha)
    sir_hop2 = _safe_ratio(cfg.p_st_mw * hop2, sd_itf[owner])
    first = _first(counts)
    present = counts > 0
    uniform = first + np.minimum((pick * counts).astype(np.int64), counts - 1)
    selected = np.stack((
        _segmented_argmax(owner, first, present, hop1),
        _segmented_argmax(owner, first, present, sir_hop1),
        _segmented_argmax(owner, first, present,
                          np.where(sir_hop1 >= cfg.gamma_th_lin, sir_hop2, -np.inf)),
        np.where(present, uniform, -1),
    ))
    return selected, sir_hop1, sir_hop2


def run_realization(cfg: SystemConfig, rng, n: int) -> Outcomes:
    """Simulate n trials from one stream: harvest, guard gating, selection,
    per-hop decoding, for every scheme from the same draws."""
    gen = as_generator(rng)
    alpha, p_t, d_sd = cfg.alpha, cfg.p_t_mw, cfg.d_sd

    # Fixed draw order, shared by every scheme and direct-link setting.
    if cfg.slot_position_model == "static":
        slot2 = slot3 = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
        d2_origin = slot2.x ** 2 + slot2.y ** 2
        dedicated = _received(slot2.counts, gen.standard_exponential(d2_origin.size),
                              d2_origin, alpha)
        reused = _received(slot2.counts, gen.standard_exponential(d2_origin.size),
                           d2_origin, alpha)
    else:
        dedicated = shot_noise_batch(cfg.lambda_p, cfg.r_max, alpha, n, gen)
        reused = shot_noise_batch(cfg.lambda_p, cfg.r_max, alpha, n, gen)
        slot2 = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
        slot3 = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
    receivers = disc_ppp_batch(cfg.lambda_p, cfg.r_disc + cfg.r_gz, n, gen)
    relays = disc_ppp_batch(cfg.lambda_sr, cfg.r_disc, n, gen)
    pairs_per_relay, d2_pairs = _pair_d2(relays, slot2)
    gains = (gen.standard_exponential(relays.x.size),
             gen.standard_exponential(relays.x.size))
    gains_relay_itf = gen.standard_exponential(d2_pairs.size)
    gains_sd_s2 = gen.standard_exponential(slot2.x.size)
    gains_sd_s3 = gen.standard_exponential(slot3.x.size)
    gain_direct = gen.standard_exponential(n)
    pick = gen.random(n)

    k_value = harvested_energy(cfg, dedicated, reused)
    harvest_ok = k_value >= harvest_threshold(cfg)
    st_clear = _none_within(receivers.counts, receivers.x ** 2 + receivers.y ** 2,
                            cfg.r_gz)
    relay_clear = _none_within(*_pair_d2(relays, receivers), cfg.r_gz)

    i_sd_s2 = p_t * _received(slot2.counts, gains_sd_s2,
                              (slot2.x - d_sd) ** 2 + slot2.y ** 2, alpha)
    i_sd_s3 = p_t * _received(slot3.counts, gains_sd_s3,
                              (slot3.x - d_sd) ** 2 + slot3.y ** 2, alpha)
    relay_itf = p_t * _received(pairs_per_relay, gains_relay_itf, d2_pairs, alpha)
    direct_ok = _safe_ratio(cfg.p_st_mw * gain_direct * _path_loss(d_sd * d_sd, alpha),
                            i_sd_s2) >= cfg.gamma_th_lin

    selected, sir_hop1, sir_hop2 = select_relay(cfg, relays, gains, relay_itf,
                                                i_sd_s3, pick)
    hop1_ok = sir_hop1 >= cfg.gamma_th_lin
    decode_count = np.bincount(relays.owner[hop1_ok], minlength=n)
    nonempty = relays.counts >= 1
    # Relay events with a trailing False, which selection index -1 reads.
    hop1_at, hop2_at, clear_at = (np.append(v, False) for v in (
        hop1_ok, sir_hop2 >= cfg.gamma_th_lin, relay_clear))

    flags = np.empty((len(SCHEMES), len(FLAG_NAMES), n), dtype=bool)
    for k, scheme in enumerate(SCHEMES):
        sel = selected[k]
        sr_decode = decode_count > 0 if scheme == "bstd" else hop1_at[sel]
        sr_clear = clear_at[sel]
        sd_decode = hop2_at[sel]
        relay_branch = nonempty & sr_decode & sr_clear & sd_decode
        if not cfg.direct_link:
            reach = relay_branch
        elif cfg.direct_literal_events:
            # Exact decomposed event set: the direct branch only counts
            # alongside a decoding, guard-cleared relay or when no relay
            # decoded at all.
            reach = ((sr_decode & sr_clear & (direct_ok | sd_decode))
                     | (~sr_decode & direct_ok))
        else:
            reach = direct_ok | relay_branch
        flags[k] = (harvest_ok, st_clear, nonempty, sr_decode, sr_clear,
                    sd_decode, direct_ok, harvest_ok & st_clear & reach)

    local = np.where(selected >= 0, selected - _first(relays.counts), -1)
    return Outcomes(flags=flags, relay_count=relays.counts,
                    decode_count=decode_count, selected=local, k_value=k_value)


def _blocks(cfg: SystemConfig, trials: int):
    """(block index, trials in it) covering ``trials`` trials."""
    size = trials_per_block(cfg)
    return [(b, min(size, trials - b * size)) for b in range(-(-trials // size))]


def _count_blocks(cfg: SystemConfig, seed: int, blocks) -> np.ndarray:
    counts = np.zeros((len(SCHEMES), len(FLAG_NAMES)), dtype=np.int64)
    for block, n in blocks:
        counts += run_realization(cfg, RngStream(seed, block), n).flags.sum(axis=2)
    return counts


def outcomes(cfg: SystemConfig, trials: int, seed: int) -> Outcomes:
    """Per-trial events of the same trials ``simulate`` counts."""
    parts = [run_realization(cfg, RngStream(seed, block), n)
             for block, n in _blocks(cfg, trials)]
    return Outcomes(**{f.name: np.concatenate([getattr(p, f.name) for p in parts],
                                              axis=-1)
                       for f in dataclasses.fields(Outcomes)})


# The process-wide worker pool: built by the first call that needs one, reused
# by every later call that needs the same size, replaced when a call needs
# another size. Starting workers once per process rather than once per call
# is what lets short runs, such as the grid points of a sweep, gain from them.
_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_exit: Finalize | None = None
_pool_lock = threading.Lock()   # one pooled call at a time per process


def _drop_pool() -> None:
    """Shut the pool down, if there is one; the next call builds a new one."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        _pool_exit.cancel()
        pool.shutdown(cancel_futures=True)


def _forget_pool() -> None:
    # A forked child inherits the pool object but not its manager thread, so
    # work submitted to it would never run: the child builds its own pool. It
    # also takes a fresh lock, which a parent thread may have held at the fork.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker when the process that owns
    the pool dies without shutting it down, as when killed by a signal;
    workers idle between calls would otherwise wait for work for ever."""
    sentinel = parent_process().sentinel
    threading.Thread(target=lambda: (wait([sentinel]), os._exit(1)),
                     daemon=True).start()


def _pool_of(size: int) -> ProcessPoolExecutor:
    global _pool, _pool_size, _pool_exit
    if _pool is None or _pool_size != size:
        _drop_pool()
        _pool = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
        _pool_size = size
        # Shut down at exit. A multiprocessing child joins its child
        # processes at exit and would wait on idle pool workers forever, so
        # this runs among multiprocessing's exit finalizers: before that join,
        # and before the finalizers (priority 10) that stop the pool's queues.
        _pool_exit = Finalize(None, _drop_pool, exitpriority=20)
    return _pool


def _pooled_counts(cfg: SystemConfig, seed: int, tasks) -> np.ndarray:
    """Sum of ``_count_blocks`` over ``tasks``: the first runs in this
    process, each other one on its own pool process."""
    count = partial(_count_blocks, cfg, seed)
    size = len(tasks) - 1
    with _pool_lock:
        try:
            futures = [_pool_of(size).submit(count, task) for task in tasks[1:]]
        except (BrokenProcessPool, RuntimeError):
            # The pool broke or was shut down while idle. Nothing of this
            # call has run yet, so a fresh pool gives the same counts.
            _drop_pool()
            futures = [_pool_of(size).submit(count, task) for task in tasks[1:]]
        counts = count(tasks[0])
        try:
            return counts + sum(future.result() for future in futures)
        except BrokenProcessPool:
            _drop_pool()
            raise


def default_workers() -> int:
    env = os.environ.get("EHRELAY_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def simulate_all(cfg: SystemConfig, trials: int, seed: int,
                 workers: int | None = None) -> dict:
    """Every scheme's estimate and flag frequencies from one pass.

    Returns {scheme: SimulationResult} over the same realizations. Counting
    is integer-exact per block, and each block owns stream (seed, block), so
    the result is bit-identical for any worker count. With more than one
    worker and block, the blocks are split into one contiguous share per
    worker, at most one per block; this process runs the first share and a
    process pool the others. The pool is built on first use and reused by
    later calls (and every grid point of a sweep); it is replaced when a call
    needs another size, dropped after it breaks or in a forked child, and
    shut down at exit. Results are never cached: every call draws its blocks
    afresh.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not cfg.validated:
        raise ValueError("config must pass validate() before simulation")
    workers = workers if workers is not None else default_workers()
    blocks = _blocks(cfg, trials)

    if workers <= 1 or len(blocks) == 1:
        counts = _count_blocks(cfg, seed, blocks)
    else:
        per_task = -(-len(blocks) // workers)
        tasks = [blocks[i:i + per_task] for i in range(0, len(blocks), per_task)]
        counts = _pooled_counts(cfg, seed, tasks)

    results = {}
    for scheme, row in zip(SCHEMES, counts):
        flag_counts = dict(zip(FLAG_NAMES, (int(c) for c in row)))
        flag_freq = {name: flag_counts[name] / trials for name in FLAG_NAMES}
        lo, hi = wilson_interval(flag_counts["success"], trials)
        estimate = EstimateCI(p_hat=flag_freq["success"], trials=trials,
                              ci_low=lo, ci_high=hi, seed=seed)
        results[scheme] = SimulationResult(
            scheme=scheme, trials=trials, seed=seed, estimate=estimate,
            flag_counts=flag_counts, flag_frequencies=flag_freq)
    return results


def simulate(cfg: SystemConfig, scheme: str, trials: int, seed: int,
             workers: int | None = None) -> SimulationResult:
    """Estimate one scheme's success probability and every intermediate-flag
    frequency; the scheme's row of ``simulate_all``."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return simulate_all(cfg, trials, seed, workers)[scheme]
