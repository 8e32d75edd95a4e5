"""Analytical success-probability machinery.

Everything here is a pure function of a validated ``SystemConfig``: Laplace
transforms of the harvested sum; one positive-stable tail rule from Kanter's
phi-integral for the harvest probability and, by parts, the bstd all-fail
chance; closed-form decode factors of each selection rule at every path-loss
exponent, each with a quadrature oracle; and ``analyze``, where they compose
into a success probability (only the relay branch depends on the scheme).
The characteristic-function inversion of the harvested sum is a cross-check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .config import ConfigError, SystemConfig, harvest_threshold


class QuadratureFailure(RuntimeError):
    """Quadrature did not reach the requested tolerance.

    ``achieved`` is the last observed relative change.
    """

    def __init__(self, context: str, achieved: float):
        self.context = context
        self.achieved = achieved
        super().__init__(f"{context}: quadrature stalled at relative change {achieved:.3g}")


# Node doubling stops once the relative change is at most REL_TOL. The
# generic integrals start at 128 Gauss-Legendre nodes and double at most 7
# times.
REL_TOL = 1e-9
_START_NODES = 128
_MAX_DOUBLINGS = 7


_Nodes = namedtuple("_Nodes", "x w x1 w_pi")


@lru_cache(maxsize=32)
def _leggauss(n: int) -> _Nodes:
    """n Gauss-Legendre nodes x and weights w, with x1 = x + 1 and w_pi = w / pi,
    which the rules below read, built once per n and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    table = _Nodes(x, w, x + 1.0, w / math.pi)
    for array in table:
        array.flags.writeable = False
    return table


def _gl_panels(f, lo, hi, n: int) -> float:
    """n-node Gauss-Legendre on each panel [lo, hi]: floats, or (panels, 1)
    columns of edges, for which f takes a (panels, n) array of nodes."""
    x, w = _leggauss(n)[:2]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + half * x
    return float(np.sum(half * w * f(nodes)))


def _settle(evaluate, n: int, doublings: int, context: str, floor: float = 1e-300) -> float:
    """evaluate(n), evaluate(2n), ... until two successive values agree.

    Returns the finer value once the change is at most REL_TOL * max(|value|,
    floor); raises ``QuadratureFailure`` after ``doublings`` doublings without
    that, or at once at a level that is not finite, which no finer level mends.
    """
    value = evaluate(n)
    change = math.inf
    for _ in range(doublings):
        if not math.isfinite(value):
            break
        n *= 2
        refined = evaluate(n)
        change = abs(refined - value)
        value = refined
        if math.isfinite(change) and change <= REL_TOL * max(abs(refined), floor):
            return value
    raise QuadratureFailure(context, change / max(abs(value), 1e-300))


def integrate_doubling(f, a: float, b: float, context: str) -> float:
    """Gauss-Legendre on [a, b], doubling nodes until the value settles."""
    return _settle(lambda n: _gl_panels(f, a, b, n), _START_NODES, _MAX_DOUBLINGS, context)


def gamma_pair(alpha: float) -> float:
    """Gamma(1+2/alpha)*Gamma(1-2/alpha) via the reflection identity.

    Equals (2*pi/alpha)/sin(2*pi/alpha); at alpha=4 this is pi/2, which the
    tests use as a self-check constant. Requires alpha > 2.
    """
    if alpha <= 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def _field_scale(cfg: SystemConfig) -> float:
    """lambda_p*pi*Gamma(1+2/alpha)*Gamma(1-2/alpha), the primary field's constant.

    Rayleigh shot noise I from primaries of density lambda_p, each at unit
    power, has E[exp(-s*I)] = exp(-this * s^(2/alpha)); every factor below
    rests on it.
    """
    return cfg.lambda_p * math.pi * gamma_pair(cfg.alpha)


def levy_scale(cfg: SystemConfig) -> float:
    """Coefficient C of the normalized harvested sum K's Laplace transform,
    E[exp(-s*K)] = exp(-C * s^(2/alpha)) for s >= 0:
    C = lambda_p*pi*Gamma(1+2/alpha)*Gamma(1-2/alpha)
        * [a^(2/alpha) + ((1-a)/2)^(2/alpha)],
    the product of the two independent slot contributions.
    """
    weights = cfg.a ** (2.0 / cfg.alpha) + ((1.0 - cfg.a) / 2.0) ** (2.0 / cfg.alpha)
    return _field_scale(cfg) * weights


def p_h_levy_erf(cfg: SystemConfig) -> float:
    """Harvest probability via the alpha=4 stable-law tail: erf(C/(2*sqrt(sigma))).

    At alpha=4 the harvested sum follows a one-sided 1/2-stable law whose
    upper tail beyond sigma is erf(C/(2*sqrt(sigma))).
    """
    if cfg.alpha != 4.0:
        raise ValueError("closed form requires alpha = 4")
    sigma = harvest_threshold(cfg)
    if sigma <= 0.0 or cfg.lambda_p == 0.0:   # sure harvest, or no primaries to harvest
        return 1.0 if sigma <= 0.0 else 0.0
    return math.erf(levy_scale(cfg) / (2.0 * math.sqrt(sigma)))


# Panels per group of the Gil-Pelaez level: 64 nodes each put one group's
# arrays near 8 MB, where all 400k panels at once would take 200 MB each.
_GIL_PELAEZ_GROUP = 1 << 14


def p_h_gil_pelaez(cfg: SystemConfig) -> float:
    """Harvest probability by characteristic-function inversion.

    Pr(K >= sigma) = 1/2 + (1/pi) * int_0^inf Im[e^(-j*w*sigma) Phi_K(w)]/w dw
    with Phi_K(w) = exp(-C*(-j*w)^(2/alpha)). Substituting w = v^(alpha/2)
    removes the integrable singularity at 0 and turns the envelope into a
    plain exponential; panels are sized to at most ~pi of local phase change,
    with 16 nodes each, doubled at most twice until the value settles.

    Cross-check only: ``analyze`` reads ``p_h_kanter``. Deep in the tail
    (sparse primaries, loud secondary, alpha far from 4) the panel loop
    builds up to 400k panels or overflows, and raises ``QuadratureFailure``.
    """
    sigma = harvest_threshold(cfg)
    if sigma <= 0.0 or cfg.lambda_p == 0.0:   # sure harvest, or no primaries to harvest
        return 1.0 if sigma <= 0.0 else 0.0

    alpha = cfg.alpha
    c_scale = levy_scale(cfg)
    cosf = math.cos(math.pi / alpha)
    sinf = math.sin(math.pi / alpha)
    half_alpha = alpha / 2.0

    # In v-space the integrand is
    #   (alpha/2) * exp(-C*cos(pi/alpha)*v) * sin(C*sin(pi/alpha)*v - sigma*v^(alpha/2)) / v
    # The envelope is cut off once it falls below osc_tol.
    osc_tol = 1e-12
    decay = c_scale * cosf
    v_end = math.log(1.0 / osc_tol) / decay

    # Panel boundaries: width ~ pi / (local phase rate), evaluated conservatively
    # at the panel's far edge so no panel spans much more than half a cycle.
    bounds = [0.0]
    v = 0.0
    max_panels = 400_000
    try:
        while v < v_end:
            rate = c_scale * sinf + half_alpha * sigma * max(v, 1e-12) ** (half_alpha - 1.0)
            width = math.pi / rate
            rate = c_scale * sinf + half_alpha * sigma * (v + width) ** (half_alpha - 1.0)
            width = math.pi / rate
            v = min(v + width, v_end)
            bounds.append(v)
            if len(bounds) > max_panels:
                raise QuadratureFailure("gil-pelaez panels", math.inf)
    except OverflowError:   # a phase rate past the float range: no panel fits
        raise QuadratureFailure("gil-pelaez panels", math.inf) from None

    def integrand(nodes):
        phase = c_scale * sinf * nodes - sigma * nodes ** half_alpha
        return half_alpha * np.exp(-decay * nodes) * np.sin(phase) / nodes

    edges = np.array(bounds)[:, None]
    lefts, rights = edges[:-1], edges[1:]

    def evaluate(n: int) -> float:
        # Groups of at most _GIL_PELAEZ_GROUP panels bound the (panels, n)
        # node arrays; a call with one group sums as if ungrouped.
        return sum(_gl_panels(integrand, lefts[g:g + _GIL_PELAEZ_GROUP],
                              rights[g:g + _GIL_PELAEZ_GROUP], n)
                   for g in range(0, len(lefts), _GIL_PELAEZ_GROUP))

    value = _settle(evaluate, 16, 2, "gil-pelaez inversion", floor=1.0)
    return min(1.0, max(0.0, 0.5 + value / math.pi))


def _log_kanter_a_reflected(beta: float, log=np.log, sin=np.sin):
    """psi -> log A(pi - psi), A Zolotarev's function in Kanter's representation;
    on arrays, or on floats given ``math.log`` and ``math.sin``.

    A standard positive-stable S of index beta, E[exp(-s*S)] = exp(-s^beta),
    has P(S > x) = (1/pi) int_0^pi -expm1(-A(phi) x^(-k)) dphi, k = beta/(1-beta),
    A(phi) = sin(beta*phi)^k * sin((1-beta)*phi) / sin(phi)^(1/(1-beta)) rising
    from (1-beta)*beta^k at phi = 0+ to infinity at pi (Kanter 1975, Ann.
    Probab.). Sines taken from psi = pi - phi do not cancel near phi = pi.
    """
    k, rest = beta / (1.0 - beta), 1.0 - beta
    shift = rest * math.pi
    return lambda psi: (k * log(sin(shift + beta * psi)) + log(sin(rest * (math.pi - psi)))
                        - log(sin(psi)) / rest)


def _kanter_a_min(beta: float) -> float:
    """A(0+) = (1-beta)*beta^k, k = beta/(1-beta): the least value of Kanter's
    A (see ``_log_kanter_a_reflected``), on which the tail rule's bisection
    and ``chi_common``'s lower end of Y both rest."""
    return (1.0 - beta) * beta ** (beta / (1.0 - beta))


# The part of [0, phi*] where x^(-k) * A < e^(-40) * psi*/pi adds less than
# e^(-40) * psi*, against a total above psi*/2, so it is left out.
_TAIL_LOG_CUT = 40.0
# expm1(-x) rounds to -1 for every x above about 37.43, so the integrand is 1
# to double precision once log(x^(-k) * A) exceeds log(37.43) ~ 3.62. The rule
# clips that log at 4, which keeps every bit of the integrand and keeps expm1
# off arguments like -e^40, where numpy's AVX-512 expm1 took ~45 ns per value
# against ~1.5 ns at -e^4.
_TAIL_SATURATION = 4.0
# One more log-psi panel per this much range of log x^(-k). A level raises
# QuadratureFailure past _TAIL_BUDGET (x, phi) pairs (34 MB), as alpha nears 2.
_TAIL_PANEL_SPAN = 8.0
_TAIL_BUDGET = 1 << 22


def _stable_tail_rule(log_t_lo: float, log_t_hi: float, beta: float):
    """One phi rule for P(S > x) at every log x^(-k) in [log_t_lo, log_t_hi].

    Returns tail(log_t, n, *more): P(S > x) at each log x^(-k) in log_t on n
    Gauss-Legendre nodes per piece (see ``_log_kanter_a_reflected``), its
    expm1 form exact to full relative precision deep in the tail; given more
    node counts, a tuple of one such value per count, their nodes run through
    log A, exp and expm1 in one pass and each value sums its own contiguous
    slice, so it has the bits of a call with that count alone. The
    integrand is about 1 where A * x^(-k) >= 1, next to phi = pi, and falls as
    a power of psi = pi - phi below that, so [0, psi*] runs in psi, psi* the
    crossing of the least x^(-k) (a coarse bisection), and [psi*, pi] in
    log(psi) on one panel and one more per ``_TAIL_PANEL_SPAN`` of range, up to
    where the integrand of the greatest x^(-k) is below e^(-40) of its total.
    """
    log_a_min = math.log(_kanter_a_min(beta))
    log_pi = math.log(math.pi)
    log_a = _log_kanter_a_reflected(beta)
    log_a_float = _log_kanter_a_reflected(beta, math.log, math.sin)

    def crossing(log_t: float, level: float, lo: float) -> float:
        """log(psi) at which log(x^(-k) * A) falls to level; log(pi) if never."""
        if log_t + log_a_min >= level:
            return log_pi
        hi = log_pi
        for _ in range(16):  # from [log(1e-300), log(pi)] to within 0.011
            mid = 0.5 * (lo + hi)
            if log_t + log_a_float(math.exp(mid)) >= level:
                lo = mid
            else:
                hi = mid
        return lo

    # Row 0 of the node grid is [0, psi*] in psi, the other rows log-psi panels.
    u_star = crossing(log_t_lo, 0.0, math.log(1e-300))
    starts, halves = [0.0], [0.5 * math.pi]
    if u_star < log_pi:
        u_end = crossing(log_t_hi, -_TAIL_LOG_CUT - (log_pi - u_star), u_star)
        panels = 1 + math.ceil((log_t_hi - log_t_lo) / _TAIL_PANEL_SPAN)
        starts += [u_star + j * (u_end - u_star) / panels for j in range(panels)]
        halves = [0.5 * math.exp(u_star)] + [0.5 * (u_end - u_star) / panels] * panels
    starts, halves = np.array(starts)[:, None], np.array(halves)[:, None]

    def tail(log_t, *counts):
        nodes, weights = [], []
        for n in counts:
            rule = _leggauss(n)
            level = starts + halves * rule.x1
            scaled = halves * rule.w_pi
            level[1:] = np.exp(level[1:])
            scaled[1:] *= level[1:]
            nodes.append(level.ravel())
            weights.append(scaled.ravel())
        nodes = np.concatenate(nodes)
        if getattr(log_t, "size", 1) * nodes.size > _TAIL_BUDGET:
            raise QuadratureFailure("positive-stable tail rule", math.inf)
        v = np.add.outer(log_t, log_a(nodes))
        np.minimum(v, _TAIL_SATURATION, out=v)
        terms = np.expm1(np.negative(np.exp(v, out=v), out=v), out=v)
        values, start = [], 0
        for w in weights:
            values.append(-(terms[..., start:start + w.size] @ w))
            start += w.size
        return values[0] if len(counts) == 1 else tuple(values)

    return tail


def p_h_kanter(cfg: SystemConfig) -> float:
    """Harvest probability P(K >= sigma) from Kanter's phi-integral.

    K = C^(1/beta) * S, C = ``levy_scale``, beta = 2/alpha, S standard positive
    stable, so P(K >= sigma) = P(S > sigma / C^(1/beta)) on the
    ``_stable_tail_rule`` of this one x. Nodes double from 32 per piece until
    the value settles to ``REL_TOL`` (at most 1024); the first two levels,
    which every call reads, come from one pass of the rule. A stall raises
    ``QuadratureFailure`` with context "kanter harvest probability".
    """
    sigma = harvest_threshold(cfg)
    if sigma <= 0.0 or cfg.lambda_p == 0.0:   # sure harvest, or no primaries to harvest
        return 1.0 if sigma <= 0.0 else 0.0
    beta = 2.0 / cfg.alpha
    k = beta / (1.0 - beta)
    log_t = -k * (math.log(sigma) - math.log(levy_scale(cfg)) / beta)  # log x^(-k)
    tail = _stable_tail_rule(log_t, log_t, beta)
    first = dict(zip((32, 64), tail(log_t, 32, 64)))
    return min(1.0, _settle(lambda n: float(first[n] if n in first else tail(log_t, n)),
                            32, 5, "kanter harvest probability"))


def guard_zone_prob(lambda_p: float, r_gz: float) -> float:
    """Probability that no guard-zone center falls within r_gz of a transmitter."""
    if lambda_p < 0 or r_gz < 0:
        raise ValueError("lambda_p and r_gz must be >= 0")
    return math.exp(-math.pi * lambda_p * r_gz * r_gz)


def p_nonempty(cfg: SystemConfig) -> float:
    """Probability that the relay disc holds at least one relay."""
    return -math.expm1(-math.pi * cfg.lambda_sr * cfg.r_disc ** 2)


# ---------------------------------------------------------------------------
# Per-scheme decode factors. Each rests on one Rayleigh link's chance to clear
# the SIR threshold in the primary field, exp(-q*d^2) at every alpha
# (``_decode_rate``), so the disc integrals have closed forms, and ``analyze``
# runs those. method="quad" takes the field constant and the disc integrals
# by quadrature instead; it is the oracle the closed forms must match to
# ~1e-8 relative.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _standard_pathloss_integral(alpha: float) -> float:
    """Numeric value of int_0^inf y/(1 + y^alpha) dy, gamma_pair(alpha)/2.

    2*pi*lambda_p times it is the field constant, so the quadrature path of
    ``_decode_rate`` needs it only once per alpha.

    In s = log y the integrand y^2/(1 + y^alpha) decays as exp(2s) for
    s -> -inf and as exp(-(alpha-2)s) for s -> +inf. Mapping each half-line by
    its own decay, t = exp(2s) and t = exp(-(alpha-2)s), turns the halves into
    (1/2) int_0^1 dt/(1 + t^(alpha/2)) and
    1/(alpha-2) int_0^1 dt/(1 + t^(alpha/(alpha-2))), both smooth on [0, 1]
    for every alpha > 2, so node doubling settles at a few hundred nodes even
    as alpha approaches 2.
    """
    context = "standardized path-loss integral"
    below = integrate_doubling(lambda t: 0.5 / (1.0 + t ** (0.5 * alpha)),
                               0.0, 1.0, context)
    above = integrate_doubling(lambda t: 1.0 / (1.0 + t ** (alpha / (alpha - 2.0))),
                               0.0, 1.0, context)
    return below + above / (alpha - 2.0)


def _decode_rate(cfg: SystemConfig, method: str = "closed") -> float:
    """q in exp(-q*d^2), the decode kernel's exponent per squared meter.

    q = c * (gamma*p_t/p_st)^(2/alpha) with c the field constant
    lambda_p*pi*Gamma(1+2/alpha)*Gamma(1-2/alpha): ``_field_scale``
    ("closed"), or 2*pi*lambda_p times the quadrature
    ``_standard_pathloss_integral`` ("quad").
    """
    if method == "closed":
        scale = _field_scale(cfg)
    elif method == "quad":
        scale = 2.0 * math.pi * cfg.lambda_p * _standard_pathloss_integral(cfg.alpha)
    else:
        raise ValueError(f"method must be closed/quad, got {method!r}")
    if scale == 0.0:   # no primaries: no interference, whatever the powers
        return 0.0
    return scale * (cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw) ** (2.0 / cfg.alpha)


def _decode_kernel(q: float, dist_sq):
    """Per-link decode probability at the given squared distances.

    E[exp(-gamma*d^alpha*I/p_st)] = exp(-q*d^2) for the primary interference
    I (Laplace exponent ``_field_scale`` * (p_t*s)^(2/alpha)), q the
    ``_decode_rate``; this is the interference-averaged chance that one
    Rayleigh link at distance d clears the SIR threshold.
    """
    return np.exp(-q * np.asarray(dist_sq, dtype=float))


def _disc_mean_kernel(cfg: SystemConfig, method: str, q: float | None = None) -> float:
    """Decode chance of one relay placed uniformly in the disc.

    int_0^R exp(-q*r^2) * 2r/R^2 dr = (1 - exp(-q*R^2)) / (q*R^2). ``q``
    passes the method's ``_decode_rate(cfg, method)`` when the caller has it.
    psi31, omega1 and delta all rest on this one integral, so its quadrature
    oracle gives up under one context, "disc mean".
    """
    radius = cfg.r_disc
    if q is None:
        q = _decode_rate(cfg, method)
    if method == "quad":
        return integrate_doubling(lambda r: _decode_kernel(q, r * r) * 2.0 * r / radius ** 2,
                                  0.0, radius, "disc mean")
    q_area = q * radius ** 2
    if q_area == 0.0:
        return 1.0
    return -math.expm1(-q_area) / q_area


def _all_fail(cfg: SystemConfig, mean: float) -> float:
    """exp(-lambda_sr*pi*R^2 * mean): no relay of the disc decodes hop one,
    given the disc mean of the decode kernel."""
    return math.exp(-math.pi * cfg.lambda_sr * cfg.r_disc ** 2 * mean)


def _guarded(cfg: SystemConfig, mean: float) -> float:
    """The disc mean of the decode kernel times the guard-zone factor."""
    return mean * guard_zone_prob(cfg.lambda_p, cfg.r_gz)


def psi31_bound(cfg: SystemConfig, method: str = "closed") -> float:
    """Chance the best composite-channel relay fails to decode hop one:
    ``_all_fail`` of the disc mean kernel."""
    return _all_fail(cfg, _disc_mean_kernel(cfg, method))


# omega1, the chance that every relay's first-hop SIR is below threshold: the
# best-SIR and composite-channel rules coincide under one secondary transmit
# power, so it is psi31_bound, its quadrature oracle included.
omega1 = psi31_bound


def psi4_far_field(cfg: SystemConfig, method: str = "closed") -> float:
    """Far-field second-hop decode probability at the destination.

    The forwarding distance is approximated by the transmitter-destination
    separation d_sd, so the same value serves the relayed hop and the direct
    link.
    """
    return float(_decode_kernel(_decode_rate(cfg, method), cfg.d_sd ** 2))


def delta_decode(cfg: SystemConfig, method: str = "closed") -> float:
    """Chance a uniformly placed relay decodes hop one with the transmitter
    outside every guard zone (the guard factor is part of the definition)."""
    return _guarded(cfg, _disc_mean_kernel(cfg, method))


def _destination_sq(r, theta, cfg: SystemConfig):
    """Squared distance from polar (r, theta) around the transmitter to the
    destination at (d_sd, 0)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.maximum(r ** 2 + cfg.d_sd ** 2 - 2.0 * r * cfg.d_sd * np.cos(theta), 0.0)


def xi_bstd(r, theta, cfg: SystemConfig, method: str = "closed"):
    """Interference-averaged decode chance of one decoding relay at polar
    (r, theta) forwarding to the destination over its exact distance."""
    return _decode_kernel(_decode_rate(cfg, method), _destination_sq(r, theta, cfg))


_RING_PANELS = 10  # log-radius panels, each 2 wide, see _destination_rings
# Disc geometries whose ring rules stay cached (see _Rings).
_RING_CACHE_SIZE = 16


class _Rings:
    """The config-free part of ``_destination_rings`` for a destination at
    distance d from the centre of a disc of radius ``radius``, on n nodes:
    radii ``rho``, arc weights ``arcs`` = rho * radial weight * half the arc's
    angle inside the disc, the ring rule's weights ``w`` and, built on first
    use, ``r_sq``, the squared distance from the transmitter to each ring node
    (one row per rho, one column per ``w``). Every array is read-only.

    ``_ring_geometry`` builds one per disc geometry and node count, with the
    maps of its nodes that no other rule reads: the arc piece's s = (x + 1)/2
    and the full circles' exp(2j + x + 1), j = -_RING_PANELS..-1. They read
    no density, power or threshold, so every config of a sweep over anything
    but d_sd and r_disc shares them. At most _RING_CACHE_SIZE = 16 stay
    cached; a settling bstd ``analyze`` uses four, two levels each of
    ``chi_common`` and ``chi_integral``. ``r_sq`` is the large part, and only
    ``chi_common`` reads it: with the destination inside the disc it holds
    (n/2 + 10*n/4) * n/4 floats: 0.9 MB at 384 nodes and 3.5 MB at its last
    level of 768, so at most 57 MB if all 16 entries held that level. It is
    built on first use because ``chi_integral``'s ladder runs to 4,096
    nodes, where it would take 100 MB.
    """

    def __init__(self, d: float, radius: float, n: int):
        lo, hi = abs(d - radius), d + radius
        arc, ring = _leggauss(n // 2), _leggauss(n // 4)
        s = 0.5 * arc.x1
        rho = lo + (hi - lo) * s * s * (3.0 - 2.0 * s)
        step = 3.0 * (hi - lo) * s * (1.0 - s) * arc.w
        if d < radius:
            circles = lo * np.exp(np.add.outer(2.0 * np.arange(-_RING_PANELS, 0), ring.x1))
            rho = np.concatenate([rho, circles.ravel()])
            step = np.concatenate([step, (circles * ring.w).ravel()])
        cos_edge = (d * d + rho * rho - radius * radius) / (2.0 * d * rho)
        np.minimum(cos_edge, 1.0, out=cos_edge)
        half_angle = np.arccos(np.maximum(cos_edge, -1.0, out=cos_edge))
        self._d, self._half_angle, self._s = d, half_angle, 0.5 * ring.x1
        self.rho, self.arcs, self.w = rho, rho * step * half_angle, ring.w
        for array in (rho, half_angle, self.arcs):
            array.flags.writeable = False

    @cached_property
    def r_sq(self):
        d, rho = self._d, self.rho[:, None]
        r_sq = d * d + rho ** 2 - 2.0 * d * rho * np.cos(np.multiply.outer(self._half_angle,
                                                                           self._s))
        r_sq.flags.writeable = False
        return r_sq


_ring_geometry = lru_cache(maxsize=_RING_CACHE_SIZE)(_Rings)


def _destination_rings(cfg: SystemConfig, n: int, q: float):
    """Radial nodes rho around the destination and their weights on the disc.

    sum(weights * h(rho)) approximates intint_disc exp(-q*r^2) * h(f) dA, r and
    f the distances from the transmitter and the destination: a weight is rho
    times its radial weight times exp(-q*r^2) over the arc of radius rho inside
    the disc. The arc piece takes n/2 Gauss-Legendre nodes, mapped by
    rho = a + (b - a)*(3s^2 - 2s^3) to smooth its square-root ends, each arc
    n/4, and full circles (destination inside the disc) n/4 per log-radius
    panel; the disc they leave out holds under e^-40 of the disc. Everything
    but exp(-q*r^2) comes from ``_ring_geometry``; rho is its read-only array,
    the weights a fresh one.
    """
    rings = _ring_geometry(cfg.d_sd, cfg.r_disc, n)
    return rings.rho, rings.arcs * (np.exp(-q * rings.r_sq) @ rings.w)


def chi_integral(cfg: SystemConfig) -> float:
    """intint xi(r, theta)*r dr dtheta over the relay disc: exp(-q*rho^2) at the
    ``_ring_geometry`` radii, weighted by their arcs' whole angles."""
    q = _decode_rate(cfg)

    def evaluate(n: int) -> float:
        rings = _ring_geometry(cfg.d_sd, cfg.r_disc, n)
        return float((2.0 * rings.arcs) @ np.exp(-q * rings.rho * rings.rho))

    return _settle(evaluate, _START_NODES // 4, _MAX_DOUBLINGS, "chi double integral")


def chi_bstd(cfg: SystemConfig, delta: float | None = None) -> float:
    """The paper's independence form of the bstd all-fail chance.

    exp(-lambda_sr * Delta * intint xi r dr dtheta) over the thinned field of
    relays that decoded hop one. It averages the destination interference
    separately for each decoding relay, although one interference value is
    common to all of them, which by Jensen's inequality lowers the all-fail
    chance; and it folds the transmitter guard event, one event per block,
    into the thinning Delta, which lowers it further. So 1 - chi_bstd is an
    upper bound on success. ``chi_common`` gives the exact value; ``analyze``
    reports this one as ``chi_indep``. ``delta`` passes the thinning factor
    ``delta_decode(cfg)`` when the caller has it already.
    """
    if cfg.lambda_sr == 0.0:
        return 1.0
    if delta is None:
        delta = delta_decode(cfg)
    return math.exp(-cfg.lambda_sr * delta * chi_integral(cfg))


# Outer-integral truncation: each neglected piece of the expectation over the
# destination interference weighs at most exp(-_CHI_TAIL_LOG).
_CHI_TAIL_LOG = math.log(1e16)
# The first level, passed to ``_destination_rings``; a y-panel takes a sixth,
# a tail-rule piece a quarter.
_CHI_START_NODES = 48
# So the ladder ends at 768 nodes; large alpha over a wide disc (alpha 9,
# r_disc 10) settles only there.
_CHI_MAX_DOUBLINGS = 4
_CHI_PANEL_WIDTH = 2.0


def chi_common(cfg: SystemConfig) -> float:
    """Chance that no relay in the decoding set reaches the destination.

    chi = 1 - g_st * (1 - E_I[exp(-lambda_sr * G(gamma * I / p_st))]) with
    G(u) = intint_disc kappa(r) * exp(-u * f(r, theta)^alpha) r dr dtheta,
    kappa the hop-one decode kernel and f the relay-destination distance.
    The destination interference I is one value per block, shared by every
    decoding relay, and the transmitter guard event g_st is one event per
    block, so it multiplies the relay branch instead of thinning the relays.

    I is positive stable of index beta = 2/alpha with
    E[exp(-s*I)] = exp(-c * s^beta), c = ``_field_scale`` * p_t^beta,
    so Y = log(I / c^(1/beta)) is the log of a standard positive-stable S.
    With h(y) = 1 - exp(-lambda_sr * G(u_unit * e^y)), the expectation runs
    by parts, E[h(Y)] = h(y_a) + int_{y_a}^{y_hi} h'(y) * P(Y > y) dy, with
    h' = lambda_sr * exp(-lambda_sr * G) * dG/dy; G and dG/dy are sums over
    ``_destination_rings`` and P(Y > y) comes from one ``_stable_tail_rule``
    over every y node. Node counts double until chi settles to ``REL_TOL``;
    a stall raises ``QuadratureFailure`` ("chi common interference").
    """
    if cfg.lambda_sr == 0.0:
        return 1.0
    alpha, radius, lam = cfg.alpha, cfg.r_disc, cfg.lambda_sr
    beta = 2.0 / alpha
    k = beta / (1.0 - beta)
    guard = guard_zone_prob(cfg.lambda_p, cfg.r_gz)
    c_scale = _field_scale(cfg) * cfg.p_t_mw ** beta
    u_unit = cfg.gamma_th_lin * c_scale ** (1.0 / beta) / cfg.p_st_mw  # u = u_unit*e^Y
    mean_relays = lam * math.pi * radius ** 2
    if u_unit == 0.0:
        # Interference cannot matter (no primaries or a zero threshold), so
        # every relay decodes both hops and G = pi*R^2.
        return 1.0 - guard * p_nonempty(cfg)

    # Range of Y. A >= A(0+) bounds P(Y < y_lo). Beyond y_hi the piece left out
    # is at most h(y_hi) * P(Y > y_hi): P(S > x) <= x^-beta/(1 - 1/e), and
    # h <= lam*pi*Gamma(1 + beta)*u^-beta (G over the plane) or, past the
    # nearest relay, h <= lam*pi*R^2*exp(-u*f_min^alpha). Below y_flat h moves
    # by at most lam*(G(0) - G(u)) <= u*lam*pi*R^2*f_max^alpha.
    cut = _CHI_TAIL_LOG
    y_lo = -math.log(cut / _kanter_a_min(beta)) / k
    log_u = math.log(u_unit)
    upper = cut - math.log1p(-math.exp(-1.0))
    y_hi = min(upper / beta, (upper + math.log(lam * math.pi * math.gamma(1.0 + beta))
                              - beta * log_u) / (2.0 * beta))
    f_min = cfg.d_sd - radius
    if f_min > 0.0:
        y_hi = min(y_hi, math.log(cut + math.log(max(mean_relays, 1.0)))
                   - alpha * math.log(f_min) - log_u)
    y_hi = max(y_hi, y_lo)
    y_flat = -cut - math.log(mean_relays) - alpha * math.log(cfg.d_sd + radius) - log_u
    y_a = min(max(y_lo, y_flat), y_hi)

    # Panel edges at y_c - 3, y_c, y_c + 3 (u_unit * e^y_c * f^alpha = 1 turns G
    # over) for f the farthest relay and |d_sd - r_disc|, the nearest or where
    # arcs become circles; panels at most _CHI_PANEL_WIDTH wide between them,
    # doubling in width beyond.
    turns = sorted({min(max(-log_u - alpha * math.log(f) + shift, y_a), y_hi)
                    for f in (cfg.d_sd + radius, abs(f_min)) if f > 0.0
                    for shift in (-3.0, 0.0, 3.0)})
    edges = turns[:1]
    for right in turns[1:]:
        parts = math.ceil((right - edges[-1]) / _CHI_PANEL_WIDTH)
        edges += [edges[-1] + (right - edges[-1]) * j / parts for j in range(1, parts + 1)]
    width = _CHI_PANEL_WIDTH
    while edges[0] > y_a or edges[-1] < y_hi:
        edges = [max(edges[0] - width, y_a)] + edges + [min(edges[-1] + width, y_hi)]
        width *= 2.0
    edges = np.array(sorted(set(edges)))
    lefts, half = edges[:-1, None], 0.5 * (edges[1:] - edges[:-1])[:, None]
    tail = _stable_tail_rule(-k * y_hi, -k * y_a, beta)
    q, u_a = _decode_rate(cfg), math.exp(y_a + log_u)

    def evaluate(n: int) -> float:
        rule = _leggauss(n // 6)
        y = (lefts + half * rule.x1).ravel()
        rho, w = _destination_rings(cfg, n, q)
        rho_a = rho ** alpha
        u = np.exp(y + log_u)
        e = np.exp(np.multiply.outer(-u, rho_a))
        # -h'(y) * P(Y > y) / lam at the y nodes.
        slope = (e @ (w * rho_a)) * u * np.exp(-lam * (e @ w)) * tail(-k * y, n // 4)
        h_a = -math.expm1(-lam * float(w @ np.exp(-u_a * rho_a)))
        return 1.0 - guard * (h_a - lam * float((half * rule.w).ravel() @ slope))

    return _settle(evaluate, _CHI_START_NODES, _CHI_MAX_DOUBLINGS, "chi common interference")


# ---------------------------------------------------------------------------
# Composed success probabilities.
# ---------------------------------------------------------------------------

@dataclass
class AnalyticBreakdown:
    """Every analytic factor of one scheme's success probability.

    Fields that do not participate in the scheme stay ``None``; all populated
    probability fields lie in [0, 1]. ``lambda_eff`` is a density (relays per
    unit area), not a probability.
    """

    scheme: str
    p_h: float | None = None
    guard_st: float | None = None
    guard_sr: float | None = None
    p_nonempty: float | None = None
    psi31: float | None = None
    psi3: float | None = None
    psi4: float | None = None
    omega1: float | None = None
    omega: float | None = None
    phi: float | None = None
    delta: float | None = None
    lambda_eff: float | None = None
    chi: float | None = None
    chi_indep: float | None = None
    p_dsucc_sd: float | None = None
    pr_direct_fail: float | None = None
    p11: float | None = None
    p12: float | None = None
    p22: float | None = None
    p32: float | None = None
    pr_n1_zero: float | None = None
    p_dsucc_dir: float | None = None
    p_succ: float | None = None


class UnsupportedScheme(ConfigError):
    """A usage error: ``analyze`` has no expression for this scheme or config."""


ANALYTIC_SCHEMES = ("bcc", "bsir", "bstd")


def require_analytic(scheme: str, cfg: SystemConfig | None = None) -> None:
    """The one statement of what ``analyze`` answers. Raise UnsupportedScheme
    unless ``scheme`` is one of ``ANALYTIC_SCHEMES`` and ``cfg``, if given,
    draws the primaries afresh per slot: every factor here takes each slot's
    field as independent, but one static field (``slot_position_model``
    static) both fills the battery and jams both hops."""
    if scheme == "random_baseline":
        raise UnsupportedScheme([
            "random_baseline is a simulation-only reference; no analytic expression"])
    if scheme not in ANALYTIC_SCHEMES:
        raise UnsupportedScheme([f"unknown scheme {scheme!r}"])
    if cfg is not None and cfg.slot_position_model == "static":
        raise UnsupportedScheme([
            "slot_position_model static has no analytic expression: analyze takes "
            "each slot's primaries as a fresh field; simulate it, or set "
            "slot_position_model independent"])


BREAKDOWN_FIELDS = tuple(f.name for f in fields(AnalyticBreakdown) if f.name != "scheme")


def analyze(cfg: SystemConfig, scheme: str) -> AnalyticBreakdown:
    """Full analytic breakdown for one scheme under one configuration.

    p_succ = p_h * p_dsucc: the harvest probability ``p_h_kanter`` times the
    chance that the destination decodes. Only the relay branch depends on
    the scheme; guard_st and guard_sr are the same guard-zone factor.

    bcc and bsir share one relay branch: the composite-channel and best-SIR
    rules coincide under a single secondary transmit power. The hop-one
    all-fail chance is ``psi31_bound``, which ``omega1`` names too, and the
    selected relay forwards over the far-field hop ``psi4_far_field``. bcc
    reports them as psi31, psi3 = 1 - psi31 and psi4; bsir as omega1, omega
    and phi. Without the direct link p_dsucc_sd = psi3 * psi4 * guard_st *
    guard_sr; psi3 is already the joint chance that the disc holds a relay
    and one decodes, so there is no empty-disc conditioning to divide out.

    bstd runs the exact all-fail chance ``chi_common``. The transmitter guard
    is one event per block and 1 - chi already carries it, so
    p_dsucc_sd = (1 - chi) * guard_sr. The paper's independence form is kept
    beside it as ``chi_indep``, with its thinning terms ``delta`` and
    ``lambda_eff``.

    The direct link is one last step, selection combining with the far-field
    direct decode chance phi (the same value as psi4):
    - bcc/bsir: a combining term where both the transmitter and the
      forwarding relay are outside guard zones (squared guard factor), a
      relay-failed term and an empty-disc term (one guard factor each).
      p11/p12 (bcc) or p22/p32 (bsir) are the hop-one pass and fail chances
      given a nonempty disc, 0 for a relay density of 0, the pass chance
      capped at 1;
    - bstd: the relay branch less the direct link's failure on decoding sets
      that all fail, plus the direct link alone when the decoding set is
      void (chance pr_n1_zero, which never exceeds chi).

    ``require_analytic`` refuses the random baseline, an unknown scheme and
    a config with static slot positions, with ``UnsupportedScheme``, before
    anything is computed. A quadrature that gives up raises
    ``QuadratureFailure`` with the context "kanter harvest probability", "chi
    common interference", "positive-stable tail rule" or "chi double
    integral".
    """
    if not cfg.validated:
        raise ValueError("config must pass validate() before analysis")
    require_analytic(scheme, cfg)
    guard = guard_zone_prob(cfg.lambda_p, cfg.r_gz)
    b = AnalyticBreakdown(scheme=scheme, p_h=p_h_kanter(cfg), guard_st=guard,
                          guard_sr=guard, p_nonempty=p_nonempty(cfg))
    phi = psi4_far_field(cfg) if scheme != "bstd" or cfg.direct_link else None
    if scheme == "bstd":
        b.delta = delta_decode(cfg)
        b.lambda_eff = b.delta * cfg.lambda_sr
        b.chi = chi_common(cfg)
        b.chi_indep = chi_bstd(cfg, delta=b.delta)
        relayed = 1.0 - b.chi  # success through relays, before guard_sr
    else:
        all_fail = psi31_bound(cfg)
        hop1 = 1.0 - all_fail
        if scheme == "bcc":
            b.psi31, b.psi3, b.psi4 = all_fail, hop1, phi
        else:
            b.omega1, b.omega, b.phi = all_fail, hop1, phi
        relayed = hop1 * phi * guard

    if not cfg.direct_link:
        b.p_dsucc_sd = relayed * guard
        b.p_succ = b.p_h * b.p_dsucc_sd
        return b

    b.phi = phi
    b.pr_direct_fail = 1.0 - phi
    if scheme == "bstd":
        b.pr_n1_zero = math.exp(-math.pi * b.lambda_eff * cfg.r_disc ** 2)
        empty = b.pr_n1_zero
        fail_with_decoders = max(b.chi - empty, 0.0)
        relay_terms = (1.0 - empty - b.pr_direct_fail * fail_with_decoders) * guard
    else:
        empty = 1.0 - b.p_nonempty
        failed = max(1.0 - hop1 - empty, 0.0)
        # hop1 = 1 - all_fail and p_nonempty = -expm1(...) round apart, so a
        # nearly empty disc can put their ratio a few ulps past 1.
        given = ((min(hop1 / b.p_nonempty, 1.0), failed / b.p_nonempty)
                 if b.p_nonempty > 0 else (0.0, 0.0))
        if scheme == "bcc":
            b.p11, b.p12 = given
        else:
            b.p22, b.p32 = given
        combining = 1.0 - b.pr_direct_fail * (1.0 - phi)
        relay_terms = combining * hop1 * guard * guard + phi * failed * guard
    b.p_dsucc_dir = relay_terms + phi * empty * guard
    b.p_succ = b.p_h * b.p_dsucc_dir
    return b


def alpha4_selfcheck(cfg: SystemConfig):
    """Closed-form vs quadrature agreement at alpha = 4.

    Returns (name, closed, quadrature, relative difference) tuples; callers
    surface entries whose difference exceeds their tolerance as warnings.
    Each method's decode rate is taken once and serves its disc mean, on
    which psi31, omega1 and delta rest, psi4 and xi at (r_disc/2, 1), whose
    distance to the destination both methods share.
    """
    if cfg.alpha != 4.0:
        return []
    f_sq = _destination_sq(cfg.r_disc / 2.0, 1.0, cfg)
    columns = []
    for method in ("closed", "quad"):
        q = _decode_rate(cfg, method)
        mean = _disc_mean_kernel(cfg, method, q)
        fail = _all_fail(cfg, mean)
        columns.append((fail, fail, _guarded(cfg, mean), float(_decode_kernel(q, cfg.d_sd ** 2)),
                        float(_decode_kernel(q, f_sq))))
    names = ("psi31", "omega1", "delta", "psi4", "xi")
    return [(name, a, b, abs(a - b) / max(abs(a), abs(b), 1e-300))
            for name, a, b in zip(names, *columns)]
