"""Exact Monte Carlo of the three-slot harvest/relay protocol, in blocks of trials.

The kernel draws a block of independent trials at once as flat ragged arrays:
every point carries the index of the trial that owns it (``np.repeat`` of the
per-trial counts), each trial's points are contiguous, and per-trial sums and
maxima are segment reductions (``np.add.reduceat``, ``np.maximum.reduceat``).
In two stages: ``_draw`` makes every draw of one block and reduces the primary
fields to per-trial and per-relay sums. A block of several trials gathers its
relay x slot-two primary pairs as one ragged array; a block of one trial
takes them as rows of an outer product, a group of rows of at most
ELEMENT_BUDGET pairs at a time, so a trial over the budget holds its primary
fields but never all its pairs, with the same bits. ``_decide`` runs guard
events, relay selection, decoding and flags once over a chunk, consecutive
blocks whose sums fit ELEMENT_BUDGET; a chunk joins its blocks' arrays
once, and a chunk of one block is that block's arrays as drawn. Its steps
work per trial, relay or segment, so any chunking gives the same bits. One
block gives every scheme's flags from the same draws, so the schemes are
paired: their scheme-free flags agree trial by trial.

Grid runner: configs that share the values of the fields ``_draw`` reads
(``_DRAW_FIELDS``) share every draw, so one pass serves them all: each chunk
is drawn once and decided for every config, in the caller and in each
worker. The CLI groups a grid's consecutive points by those values, so a
grid over any field outside ``_DRAW_FIELDS`` is one pass and a grid over a
draw field one pass per point. A pass keeps one chunk's draws at a time,
at any trial count. ``simulate`` of one scheme keeps the other rows of its
all-scheme pass and hands each of them out once, to a later call with the
same config, trial count and seed. Nothing else outlives a call.

Random streams: block b of a run with seed s draws from stream (s, b). The
number of trials per block is set by the config alone
(``trials_per_block``), never by the trial count or the worker count, so
results are bit-identical for any ``workers``. The draw order inside a block
does not depend on the scheme or on ``direct_link``, so runs that
differ only in those see the same networks.

Workers: a run's plan is a range of block starts and each share a range of
its own, so nothing per block is built or crosses a pipe. A call sends every
share but the last down the duplex pipe of a persistent worker process, then
runs the last share, the lightest as it holds the short block, in the
calling thread, so no helper thread competes with the kernel. Between the
two, a private caller may run a step of its own (the CLI computes a grid
pass's analytic cells there), which the workers' shares hide. A worker ends
at EOF. The first block in each process, caller or worker, sets glibc's top
pad to HEAP_TOP_PAD, never reversed: the heap pages a block frees stay
resident for the next block instead of being trimmed and faulted in again.
Without glibc it is a no-op; it changes no number.

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

import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SystemConfig, harvest_threshold
from .geometry import (EPS_MIN, DiscBatch, RngStream, _path_loss, as_generator,
                       disc_ppp_batch, segment_starts, segment_sums,
                       shot_noise_batch)

SCHEMES = ("bcc", "bsir", "bstd", "random_baseline")
# random_baseline is a uniform-pick reference, not part of the analyzed
# selection rules; outputs must keep it clearly flagged by this name.

FLAG_NAMES = ("harvest_ok", "st_clear", "relay_nonempty", "sr_decode_ok",
              "sr_clear", "sd_decode_ok", "direct_decode_ok", "success")

# Expected array elements one block may hold; bounds the kernel's memory.
ELEMENT_BUDGET = 1 << 16
# Bytes glibc keeps free at the top of the heap (M_TOP_PAD), so that the
# pages one block frees serve the next instead of being trimmed and faulted
# in again; enough for a block far over the budget too.
HEAP_TOP_PAD = 1 << 26
# Allowance per trial, and per relay in ``_decide``, for its own arrays.
_PER_TRIAL_ELEMENTS = 32
# Expected array elements of one trial above which a config is refused
# before anything is drawn; one trial just under it takes about 10 s.
TRIAL_ELEMENT_CAP = ELEMENT_BUDGET << 12


@dataclass(frozen=True)
class EstimateCI:
    """Bernoulli estimate with a Wilson score interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float


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


def trial_elements(cfg: SystemConfig) -> float:
    """Array elements one trial is expected to hold: four primary fields, the
    relay x slot-two primary pairs and a fixed allowance for its own arrays."""
    primaries = cfg.lambda_p * math.pi * cfg.r_max ** 2
    relays = cfg.lambda_sr * math.pi * cfg.r_disc ** 2
    return _PER_TRIAL_ELEMENTS + 4.0 * primaries + relays * primaries


def trials_per_block(cfg: SystemConfig) -> int:
    """Trials drawn from one random stream, set by the config alone: as many
    as fit ELEMENT_BUDGET by ``trial_elements``, and at least one."""
    return max(1, int(ELEMENT_BUDGET // trial_elements(cfg)))


def require_drawable(cfg: SystemConfig) -> SystemConfig:
    """``cfg``; a ``ValueError`` unless validated, a ``ConfigError`` if ``trial_elements``
    exceeds TRIAL_ELEMENT_CAP. Every kernel entry calls it before its first draw."""
    if not cfg.validated:
        raise ValueError("config must pass validate() before simulation")
    elements = trial_elements(cfg)
    if not elements <= TRIAL_ELEMENT_CAP:
        raise ConfigError([f"one trial would hold {elements:.3g} array elements, over the "
                           f"cap of {TRIAL_ELEMENT_CAP}; lower lambda_p, r_max or lambda_sr"])
    return cfg


def harvested_energy(cfg: SystemConfig, dedicated, reused):
    """Harvested energy in units of eta * p_t * T, T the block duration, which
    cancels against the spent (1-a)/2 * p_st * T: the normalized sum K.

    ``dedicated`` and ``reused`` are the path-loss sums of the dedicated
    harvesting slot and the reused forwarding slot; K weights them by a and
    (1-a)/2.
    """
    return cfg.a * dedicated + (1.0 - cfg.a) / 2.0 * reused


def _d2_from(points: DiscBatch, x0: float = 0.0) -> np.ndarray:
    """Squared distances of the points from (x0, 0)."""
    d2 = points.x - x0
    d2 *= d2
    d2 += points.y * points.y
    return d2


def _safe_ratio(signal, interference):
    """Elementwise signal/interference: +inf where only the interference is 0."""
    empty = np.where(signal > 0.0, math.inf, 0.0)
    return np.divide(signal, interference, out=empty, where=interference > 0.0)


def _received(counts, first, gains, d2, alpha: float) -> np.ndarray:
    """Per-segment sum of gains * path loss; segments as in ``segment_sums``."""
    loss = _path_loss(d2, alpha)
    loss *= gains
    return segment_sums(loss, counts, first)


def _none_within(counts, first, d2, radius: float) -> np.ndarray:
    """Per segment: no point within ``radius`` (squared distances d2)."""
    return segment_sums(d2 <= radius * radius, counts, first) == 0


def _pair_d2(points: DiscBatch, other: DiscBatch, other_first):
    """Squared distances from every point to every point of ``other`` in its
    trial, grouped by point; ``other_first`` holds the segment starts of
    ``other``. Returns (pairs per point, their segment starts, squared
    distances)."""
    per = other.counts[points.owner]
    first = segment_starts(per)
    j = np.arange(per.sum())
    j += (other_first[points.owner] - first).repeat(per)
    # (other - point)^2 has the bits of (point - other)^2. Gathering both
    # coordinates first frees the index array early.
    d2 = other.x[j]
    dy = other.y[j]
    del j
    d2 -= points.x.repeat(per)
    d2 *= d2
    dy -= points.y.repeat(per)
    dy *= dy
    d2 += dy
    return per, first, d2


def _pair_sums(points, other, other_first, gen, alpha: float) -> np.ndarray:
    """Per point, the sum over the points of ``other`` in its trial of an
    exponential gain from ``gen`` times the path loss, the gains drawn in
    pair order.

    Several trials gather their ragged pairs at once (``_pair_d2``). One
    trial takes rows of the outer product of ``points`` and ``other``, in
    groups of at most ELEMENT_BUDGET pairs and at most one row per point (at
    least one row), so its pairs are never all held; consecutive exponential
    draws give the values of one draw, and each row stays a segment sum, so
    the bits are those of the gather.
    """
    if points.counts.size > 1:
        per, first, d2 = _pair_d2(points, other, other_first)
        return _received(per, first, gen.standard_exponential(d2.size), d2, alpha)
    size = other.x.size
    rows = max(1, min(points.x.size, ELEMENT_BUDGET // max(size, 1)))
    counts = np.full(rows, size)
    first = segment_starts(counts)
    sums = np.empty(points.x.size)
    for lo in range(0, sums.size, rows):
        d2 = np.subtract.outer(points.x[lo:lo + rows], other.x)
        d2 *= d2
        dy = np.subtract.outer(points.y[lo:lo + rows], other.y)
        dy *= dy
        d2 += dy
        del dy   # freed before the row's gains and path loss are allocated
        k = len(d2)
        sums[lo:lo + k] = _received(counts[:k], first[:k],
                                    gen.standard_exponential(d2.size), d2.ravel(), alpha)
    return sums


def _segmented_argmax(owner, first, present, metrics) -> np.ndarray:
    """Per metric and trial, the index of the trial's relay with the largest
    metric, else -1.

    ``metrics`` has one row per metric and one column per relay; ``owner``
    (ascending) gives each relay's trial, ``first`` each trial's first relay
    and ``present`` whether it has any. Ties go to the lowest index; a metric
    of -inf marks an ineligible relay.
    """
    selected = np.full((len(metrics), first.size), -1)
    relays = metrics.shape[1]
    if relays:
        starts = first[present]
        best = np.full(selected.shape, -np.inf)
        best[:, present] = np.maximum.reduceat(metrics, starts, axis=1)
        hit = (metrics == best[:, owner]) & (metrics > -np.inf)
        lowest = np.minimum.reduceat(np.where(hit, np.arange(relays), relays),
                                     starts, axis=1)
        selected[:, present] = np.where(lowest < relays, lowest, -1)
    return selected


def select_relay(cfg: SystemConfig, relays: DiscBatch, gains, relay_itf,
                 sd_itf, pick, first=None):
    """Forwarding relay of every trial in a block, under every scheme.

    ``gains`` holds the hop-one and hop-two fading gain of each relay,
    ``relay_itf`` the slot-two interference at each relay, ``sd_itf`` the
    slot-three interference at the destination per trial, and ``pick`` one
    uniform per trial for random_baseline. Returns (selected, sir_hop1,
    sir_hop2): ``selected[k, t]`` is the block-wide index of trial t's relay
    under SCHEMES[k], -1 when none qualifies. Ties go to the lowest index.
    ``first`` passes the relays' segment starts when the caller has them.
    """
    gain_hop1, gain_hop2 = gains
    owner, counts = relays.owner, relays.counts
    hop1 = _path_loss(_d2_from(relays), cfg.alpha)
    hop1 *= gain_hop1
    sir_hop1 = _safe_ratio(cfg.p_st_mw * hop1, relay_itf)
    hop2 = _path_loss(_d2_from(relays, cfg.d_sd), cfg.alpha)
    hop2 *= gain_hop2
    sir_hop2 = _safe_ratio(cfg.p_st_mw * hop2, sd_itf[owner])
    if first is None:
        first = segment_starts(counts)
    present = counts > 0
    decoded_hop2 = np.where(sir_hop1 >= cfg.gamma_th_lin, sir_hop2, -np.inf)
    uniform = first + np.minimum((pick * counts).astype(np.int64), counts - 1)
    selected = np.vstack((
        _segmented_argmax(owner, first, present,
                          np.stack((hop1, sir_hop1, decoded_hop2))),
        np.where(present, uniform, -1)))
    return selected, sir_hop1, sir_hop2


@dataclass(frozen=True)
class _Draws:
    """A block's draws as ``_decide`` reads them, each array as drawn; blocks
    join array by array."""

    # Per trial: dedicated and reused harvest sums, destination path-loss
    # sums in slots 2 and 3, direct gain, pick; relays and guard receivers.
    dedicated: np.ndarray
    reused: np.ndarray
    sd_loss_s2: np.ndarray
    sd_loss_s3: np.ndarray
    gain_direct: np.ndarray
    pick: np.ndarray
    relay_counts: np.ndarray
    receiver_counts: np.ndarray
    # Per relay: x, y, slot-two path-loss sum, hop-one and hop-two gain.
    relay_x: np.ndarray
    relay_y: np.ndarray
    relay_loss: np.ndarray
    gain_hop1: np.ndarray
    gain_hop2: np.ndarray
    # Per guard receiver: x, y.
    receiver_x: np.ndarray
    receiver_y: np.ndarray


# The config fields ``_draw`` reads: with the seed and the blocks, they fix
# every draw, so configs that share their values can share one pass.
_DRAW_FIELDS = ("lambda_p", "lambda_sr", "alpha", "r_disc", "r_gz", "d_sd", "r_max",
                "slot_position_model")


def _draw_key(cfg: SystemConfig) -> tuple:
    return tuple(getattr(cfg, name) for name in _DRAW_FIELDS)


def _draw(cfg: SystemConfig, gen, n: int) -> _Draws:
    """Draw n trials from ``gen``, the primary fields reduced to sums of
    gain times path loss; reads only the fields in _DRAW_FIELDS."""
    alpha, d_sd = cfg.alpha, cfg.d_sd

    # Fixed draw order, shared by every scheme and direct-link setting:
    # fields, hop gains, pair gains, destination and direct gains, pick.
    # Consecutive exponential draws give the values of one draw, so how the
    # gains are split among calls and views moves no bit.
    if cfg.slot_position_model == "static":
        slot2 = slot3 = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
        first2 = first3 = segment_starts(slot2.counts)
        d2_origin = _d2_from(slot2)
        dedicated, reused = (_received(slot2.counts, first2, g, d2_origin, alpha)
                             for g in gen.standard_exponential((2, d2_origin.size)))
    else:
        dedicated = shot_noise_batch(cfg.lambda_p, cfg.r_max, alpha, n, gen)
        reused = shot_noise_batch(cfg.lambda_p, cfg.r_max, alpha, n, gen)
        slot2 = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
        slot3 = disc_ppp_batch(cfg.lambda_p, cfg.r_max, n, gen)
        first2, first3 = segment_starts(slot2.counts), segment_starts(slot3.counts)
    receivers = disc_ppp_batch(cfg.lambda_p, cfg.r_disc + cfg.r_gz, n, gen)
    relays = disc_ppp_batch(cfg.lambda_sr, cfg.r_disc, n, gen)
    gain_hop1, gain_hop2 = gen.standard_exponential((2, relays.x.size))
    relay_loss = _pair_sums(relays, slot2, first2, gen, alpha)
    gains_sd_s2, gains_sd_s3, gain_direct = (
        gen.standard_exponential(size) for size in (slot2.x.size, slot3.x.size, n))
    pick = gen.random(n)

    sd_loss_s2 = _received(slot2.counts, first2, gains_sd_s2, _d2_from(slot2, d_sd), alpha)
    sd_loss_s3 = _received(slot3.counts, first3, gains_sd_s3, _d2_from(slot3, d_sd), alpha)
    # Each kept array is its own or, for the hop gains, shares its draw only
    # with the other, so keeping them as drawn holds nothing else alive.
    return _Draws(dedicated, reused, sd_loss_s2, sd_loss_s3, gain_direct, pick,
                  relays.counts, receivers.counts, relays.x, relays.y, relay_loss,
                  gain_hop1, gain_hop2, receivers.x, receivers.y)


def _decide(cfg: SystemConfig, draws: _Draws) -> Outcomes:
    """Guard events, relay selection, decoding and flags, for every scheme.
    It never writes into ``draws``: the grid runner decides one chunk for
    several configs."""
    pick = draws.pick
    k_value = harvested_energy(cfg, draws.dedicated, draws.reused)
    i_sd_s2, i_sd_s3, relay_itf = (cfg.p_t_mw * loss for loss in
                                   (draws.sd_loss_s2, draws.sd_loss_s3, draws.relay_loss))
    owners = np.arange(pick.size)
    relays = DiscBatch(draws.relay_counts, owners.repeat(draws.relay_counts),
                       draws.relay_x, draws.relay_y)
    # Nothing reads the receivers' owners, only their counts and coordinates.
    receivers = DiscBatch(draws.receiver_counts, None, draws.receiver_x, draws.receiver_y)
    harvest_ok = k_value >= harvest_threshold(cfg)
    first_rx = segment_starts(receivers.counts)
    st_clear = _none_within(receivers.counts, first_rx, _d2_from(receivers), cfg.r_gz)
    relay_clear = _none_within(*_pair_d2(relays, receivers, first_rx), cfg.r_gz)

    # A scalar power: numpy's vectorized power can differ from it in the last bit.
    direct_loss = max(cfg.d_sd * cfg.d_sd, EPS_MIN * EPS_MIN) ** (-0.5 * cfg.alpha)
    direct_ok = _safe_ratio(cfg.p_st_mw * draws.gain_direct * direct_loss,
                            i_sd_s2) >= cfg.gamma_th_lin

    first_relay = segment_starts(relays.counts)
    selected, sir_hop1, sir_hop2 = select_relay(cfg, relays,
                                                (draws.gain_hop1, draws.gain_hop2),
                                                relay_itf, i_sd_s3, pick, first_relay)
    hop1_ok = sir_hop1 >= cfg.gamma_th_lin
    decode_count = np.bincount(relays.owner[hop1_ok], minlength=pick.size)
    nonempty = relays.counts >= 1
    # Relay events with a trailing False column, which selection index -1
    # reads; indexed by the selections, each gives a (scheme, trial) array.
    events = np.zeros((3, relays.x.size + 1), dtype=bool)
    events[:, :-1] = (hop1_ok, sir_hop2 >= cfg.gamma_th_lin, relay_clear)
    sr_decode, sd_decode, sr_clear = events[:, selected]
    sr_decode[SCHEMES.index("bstd")] = decode_count > 0
    relay_branch = nonempty & sr_decode & sr_clear & sd_decode
    reach = direct_ok | relay_branch if cfg.direct_link else relay_branch

    flags = np.empty((len(SCHEMES), len(FLAG_NAMES), pick.size), dtype=bool)
    for f, flag in enumerate((harvest_ok, st_clear, nonempty, sr_decode, sr_clear,
                              sd_decode, direct_ok, harvest_ok & st_clear & reach)):
        flags[:, f] = flag

    local = np.where(selected >= 0, selected - first_relay, -1)
    return Outcomes(flags=flags, relay_count=relays.counts,
                    decode_count=decode_count, selected=local, k_value=k_value)


def run_realization(cfg: SystemConfig, rng, n: int) -> Outcomes:
    """Outcomes of n trials from one stream, every scheme from the same draws."""
    return _decide(cfg, _draw(require_drawable(cfg), as_generator(rng), n))


def _concat(parts):
    """The dataclass of ``parts`` with each array joined along its last axis;
    a single part as it is."""
    if len(parts) == 1:
        return parts[0]
    return type(parts[0])(**{f.name: np.concatenate([getattr(p, f.name) for p in parts],
                                                    axis=-1)
                             for f in dataclasses.fields(parts[0])})


def _blocks(cfg: SystemConfig, trials: int) -> range:
    """A run's plan, the first trial of each block. In any plan, the block
    at trial s is block s // step and holds min(step, stop - s) trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return range(0, trials, trials_per_block(cfg))


@functools.cache   # once per process; a forked child inherits the setting
def _pad_heap() -> None:
    """Set glibc's M_TOP_PAD (-2) to HEAP_TOP_PAD; a no-op without ``mallopt``."""
    with contextlib.suppress(AttributeError, OSError, TypeError):   # TypeError: Windows
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-2, HEAP_TOP_PAD)


def _chunks(cfg: SystemConfig, seed: int, blocks):
    """The draws of the plan ``blocks``, joined per chunk: consecutive blocks
    whose draws take at most ELEMENT_BUDGET elements in ``_decide``, or one
    larger block."""
    _pad_heap()
    chunk, elements = [], 0
    for start in blocks:
        n = min(blocks.step, blocks.stop - start)
        draws = _draw(cfg, RngStream(seed, start // blocks.step).generator(), n)
        # An allowance per trial and per relay, and the relay x receiver pairs.
        size = (_PER_TRIAL_ELEMENTS * (n + draws.relay_x.size)
                + int(np.dot(draws.relay_counts, draws.receiver_counts)))
        if chunk and elements + size > ELEMENT_BUDGET:
            yield _concat(chunk)
            chunk, elements = [], 0
        chunk.append(draws)
        elements += size
    yield _concat(chunk)


def _count_blocks(cfgs, seed: int, blocks) -> np.ndarray:
    """(config, scheme, flag) counts of ``blocks``: each chunk is drawn once,
    from ``cfgs[0]``, and decided for every config; they must all share
    their ``_DRAW_FIELDS`` values."""
    return sum(np.array([_decide(cfg, draws).flags.sum(axis=2) for cfg in cfgs])
               for draws in _chunks(cfgs[0], seed, blocks))


def outcomes(cfg: SystemConfig, trials: int, seed: int) -> Outcomes:
    """Per-trial events of the same trials ``simulate`` counts."""
    blocks = _blocks(require_drawable(cfg), trials)
    return _concat([_decide(cfg, draws) for draws in _chunks(cfg, seed, blocks)])


_workers: list = []   # the process-wide worker set: (process, our end of its pipe)
_workers_lock = threading.Lock()   # one pooled call at a time per process


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of what it raised."""


def _serve(conn) -> None:
    """Worker loop: send back the counts of every (cfgs, seed, blocks)
    received, or the exception raised with its formatted traceback; return
    at EOF."""
    with contextlib.suppress(EOFError):   # raised by recv() alone
        while True:
            task = conn.recv()
            try:
                reply = _count_blocks(*task)
            except Exception as exc:
                reply = (exc, traceback.format_exc())
            conn.send(reply)


def _drop_workers() -> None:
    """End the workers, if any; the next call builds a new set."""
    global _workers
    workers, _workers = _workers, []
    for process, conn in workers:
        conn.close()
        if process.pid is not None:   # started
            process.terminate()
            process.join()


def _forget_workers() -> None:
    # A forked child, a new worker too, closes its copies of the parent's pipe
    # ends (a pair is registered before its worker starts), so that those
    # workers see EOF when the parent ends; and takes a fresh lock, which a
    # parent thread may have held at the fork.
    global _workers, _workers_lock
    for _, conn in _workers:
        conn.close()
    _workers, _workers_lock = [], threading.Lock()


os.register_at_fork(after_in_child=_forget_workers)


def _pooled_counts(cfgs, seed: int, tasks, step) -> np.ndarray:
    """Sum of ``_count_blocks`` over ``tasks``: each task but the last is
    sent to its own worker; this process then runs ``step()`` and the last
    task, and reads the replies. ``step`` runs under the worker set's lock,
    so it must not start a pooled call itself."""
    with _workers_lock:
        if (len(_workers) != len(tasks) - 1
                or not all(process.is_alive() for process, _ in _workers)):
            from multiprocessing import Pipe, Process   # imported by pooled runs alone
            _drop_workers()
            for _ in tasks[:-1]:
                conn, child_end = Pipe()
                process = Process(target=_serve, args=(child_end,), daemon=True)
                _workers.append((process, conn))   # before start(): see _forget_workers
                process.start()
                child_end.close()
        try:
            for (_, conn), task in zip(_workers, tasks[:-1]):
                conn.send((cfgs, seed, task))
            step()
            counts = _count_blocks(cfgs, seed, tasks[-1])
            replies = [conn.recv() for _, conn in _workers]
        except (EOFError, OSError) as exc:
            from concurrent.futures.process import BrokenProcessPool
            _drop_workers()
            raise BrokenProcessPool("a simulation worker ended during the call") from exc
        except BaseException:
            _drop_workers()   # replies may be pending; a new set starts clean
            raise
    for reply in replies:
        if isinstance(reply, tuple):
            raise reply[0] from _RemoteTraceback(reply[1])
    return counts + sum(replies)


def simulate_all(cfg: SystemConfig, trials: int, seed: int, workers: int = 1) -> dict:
    """Every scheme's estimate and flag frequencies from one pass.

    Returns {scheme: SimulationResult} over the same realizations. Counting is
    integer-exact per block, and each block owns stream (seed, block), so the
    result is bit-identical for any worker count. The blocks are split into one
    contiguous share per worker, at most one per block, each its own range of
    block starts. With more than one share, the worker set runs every share but
    the last, this process the last one, and it re-raises what a worker raised,
    chained to the worker's traceback. The set is built on first use and reused
    by later calls (and every pass of a sweep); it is replaced when a call
    needs another size or an idle worker died, dropped when one dies during a
    call (``BrokenProcessPool``), rebuilt in a forked child and ended at exit.
    A config that ``require_drawable`` refuses raises its error before any
    draw.
    """
    return _simulate_all([cfg], trials, seed, workers)[0]


def _simulate_all(cfgs, trials: int, seed: int, workers: int = 1,
                  step=lambda: None) -> list:
    """``simulate_all`` of each config in ``cfgs``, all from one pass (the
    grid runner, module docstring), so they must share their
    ``_DRAW_FIELDS`` values. ``step()`` runs in this process before its own
    share of blocks: after the workers' shares are sent when there are two
    or more, first otherwise. An exception ``step`` raises ends the call, so
    a caller that wants the counts first holds its own."""
    for cfg in cfgs:
        require_drawable(cfg)
    if len({_draw_key(cfg) for cfg in cfgs}) != 1:
        raise ValueError(f"the configs of one pass must share {_DRAW_FIELDS}")
    blocks = _blocks(cfgs[0], trials)
    span = -(-len(blocks) // max(workers, 1)) * blocks.step   # trials per share
    # Each share is a plan of its own; a slice of ``blocks`` may stop past ``trials``.
    tasks = [range(lo, min(lo + span, trials), blocks.step) for lo in range(0, trials, span)]
    if len(tasks) == 1:
        step()
        counts = _count_blocks(cfgs, seed, tasks[0])
    else:
        counts = _pooled_counts(cfgs, seed, tasks, step)

    results = [{} for _ in cfgs]
    for result, config_counts in zip(results, counts):
        for scheme, row in zip(SCHEMES, config_counts):
            flag_counts = dict(zip(FLAG_NAMES, (int(c) for c in row)))
            flag_freq = {name: flag_counts[name] / trials for name in FLAG_NAMES}
            lo, hi = wilson_interval(flag_counts["success"], trials)
            estimate = EstimateCI(p_hat=flag_freq["success"], trials=trials,
                                  ci_low=lo, ci_high=hi)
            result[scheme] = SimulationResult(
                scheme=scheme, trials=trials, seed=seed, estimate=estimate,
                flag_counts=flag_counts, flag_frequencies=flag_freq)
    return results


# The rows of the last pass ``simulate`` ran that it has not returned yet,
# as one ((cfg, trials, seed), {scheme: result}) tuple, replaced whole.
_handoff = (None, {})


def simulate(cfg: SystemConfig, scheme: str, trials: int, seed: int,
             workers: int = 1) -> SimulationResult:
    """Estimate one scheme's success probability and every intermediate-flag
    frequency; the scheme's row of ``simulate_all``.

    A call keeps the other rows of its pass, and a later call with an equal
    config, trial count and seed takes its row from them instead of running a
    pass. Each row is handed out at most once, so the four schemes of one
    seed cost one pass, a second call for a scheme runs a pass again, and no
    result is returned twice. A caller that wants several schemes can take
    them from one ``simulate_all`` call."""
    global _handoff
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    key = (cfg, trials, seed)
    held, rows = _handoff
    row = rows.pop(scheme, None) if held == key else None   # pop: one thread gets it
    if row is None:
        rows = simulate_all(cfg, trials, seed, workers)
        row = rows.pop(scheme)
        _handoff = (key, rows)
    return row
