"""Analytical success-probability machinery.

Everything here is a pure function of a validated ``SystemConfig``: Laplace
transforms of the harvested sum, its upper tail (the harvest probability)
from Kanter's phi-integral, the decode factors of each selection rule in
closed form at every path-loss exponent, with a quadrature evaluation of each
kept as their oracle, and ``analyze``, the one place where they compose into
a success probability. Only the relay branch depends on the scheme; the
harvest probability, guard factors and the direct link combine with it the
same way for every scheme. The characteristic-function inversion of the
harvested sum, with its oscillatory panel loop, is a cross-check only;
``analyze`` does not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .config import SystemConfig, harvest_threshold


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


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gl_integrate(f, a: float, b: float, n: int) -> float:
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * x
    return float(half * np.sum(w * f(nodes)))


def _settle(evaluate, n: int, doublings: int, rel_tol: float, context: str) -> float:
    """evaluate(n), evaluate(2n), ... until two successive values agree.

    Returns the finer value once the relative change is at most rel_tol;
    raises ``QuadratureFailure`` after ``doublings`` doublings without that.
    """
    value = evaluate(n)
    change = math.inf
    for _ in range(doublings):
        n *= 2
        refined = evaluate(n)
        change = abs(refined - value)
        value = refined
        if change <= rel_tol * max(abs(refined), 1e-300):
            return value
    raise QuadratureFailure(context, change / max(abs(value), 1e-300))


def integrate_doubling(f, a: float, b: float, context: str = "integral") -> float:
    """Gauss-Legendre on [a, b], doubling nodes until the value settles."""
    return _settle(lambda n: _gl_integrate(f, a, b, n), _START_NODES,
                   _MAX_DOUBLINGS, REL_TOL, context)


def gamma_pair(alpha: float) -> float:
    """Gamma(1+2/alpha)*Gamma(1-2/alpha) via the reflection identity.

    Equals (2*pi/alpha)/sin(2*pi/alpha); at alpha=4 this is pi/2, which the
    tests use as a self-check constant. Requires alpha > 2.
    """
    if alpha <= 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def interference_integral(beta: float, alpha: float) -> float:
    """Closed form of the path-loss integral int_0^inf x/(1 + x^alpha/beta) dx.

    Evaluates to (pi/alpha) * beta^(2/alpha) / sin(2*pi/alpha); this is the
    primitive behind every decode factor below.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if alpha <= 2:
        raise ValueError(f"alpha must exceed 2 for convergence, got {alpha}")
    if beta == 0.0:
        return 0.0
    return (math.pi / alpha) * beta ** (2.0 / alpha) / math.sin(2.0 * math.pi / alpha)


def laplace_K(s: float, cfg: SystemConfig) -> float:
    """Laplace transform of the normalized harvested sum K at s >= 0.

    exp(-lambda_p*pi*Gamma(1+2/alpha)*Gamma(1-2/alpha)
        * [a^(2/alpha) + ((1-a)/2)^(2/alpha)] * s^(2/alpha)),
    the product of the two independent slot contributions.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0.0 or cfg.lambda_p == 0.0:
        return 1.0
    return math.exp(-levy_scale(cfg) * s ** (2.0 / cfg.alpha))


def levy_scale(cfg: SystemConfig) -> float:
    """Coefficient C in laplace_K(s) = exp(-C * s^(2/alpha))."""
    weights = cfg.a ** (2.0 / cfg.alpha) + ((1.0 - cfg.a) / 2.0) ** (2.0 / cfg.alpha)
    return cfg.lambda_p * math.pi * gamma_pair(cfg.alpha) * weights


def p_h_levy_erf(cfg: SystemConfig) -> float:
    """Harvest probability via the alpha=4 stable-law tail: erf(C/(2*sqrt(sigma))).

    At alpha=4 the harvested sum follows a one-sided 1/2-stable law whose
    upper tail beyond sigma is erf(C/(2*sqrt(sigma))).
    """
    if cfg.alpha != 4.0:
        raise ValueError("closed form requires alpha = 4")
    sigma = harvest_threshold(cfg)
    if sigma <= 0.0:
        return 1.0
    if cfg.lambda_p == 0.0:
        return 0.0
    return math.erf(levy_scale(cfg) / (2.0 * math.sqrt(sigma)))


def p_h_gil_pelaez(cfg: SystemConfig) -> float:
    """Harvest probability by characteristic-function inversion.

    Pr(K >= sigma) = 1/2 + (1/pi) * int_0^inf Im[e^(-j*w*sigma) Phi_K(w)]/w dw
    with Phi_K(w) = exp(-C*(-j*w)^(2/alpha)). Substituting w = v^(alpha/2)
    removes the integrable singularity at 0 and turns the envelope into a
    plain exponential; panels are sized to at most ~pi of local phase change.

    Cross-check only: ``analyze`` reads ``p_h_kanter``. Deep in the tail
    (sparse primaries, loud secondary, alpha far from 4) the panel loop
    builds up to 400k panels and then stalls with ``QuadratureFailure``.
    """
    sigma = harvest_threshold(cfg)
    if sigma <= 0.0:
        return 1.0
    if cfg.lambda_p == 0.0:
        return 0.0

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
    while v < v_end:
        rate = c_scale * sinf + half_alpha * sigma * max(v, 1e-12) ** (half_alpha - 1.0)
        width = math.pi / rate
        rate = c_scale * sinf + half_alpha * sigma * (v + width) ** (half_alpha - 1.0)
        width = math.pi / rate
        v = min(v + width, v_end)
        bounds.append(v)
        if len(bounds) > max_panels:
            raise QuadratureFailure("gil-pelaez panels", float("inf"))
    bounds = np.asarray(bounds)

    def total(n_nodes: int) -> float:
        x, w = _leggauss(n_nodes)
        half = 0.5 * (bounds[1:] - bounds[:-1])
        mid = 0.5 * (bounds[1:] + bounds[:-1])
        nodes = mid[:, None] + half[:, None] * x[None, :]
        phase = c_scale * sinf * nodes - sigma * nodes ** half_alpha
        vals = (half_alpha * np.exp(-decay * nodes) * np.sin(phase) / nodes)
        return float(np.sum(half[:, None] * w[None, :] * vals))

    value = total(16)
    refined = total(32)
    if abs(refined - value) > 1e-9 * max(abs(refined), 1.0):
        finer = total(64)
        if abs(finer - refined) > 1e-9 * max(abs(finer), 1.0):
            raise QuadratureFailure(
                "gil-pelaez inversion", abs(finer - refined) / max(abs(finer), 1e-300))
        refined = finer
    return min(1.0, max(0.0, 0.5 + refined / math.pi))


def kanter_a(phi, beta: float):
    """Zolotarev's function A(phi) of Kanter's positive-stable representation.

    A standard positive-stable S of index beta in (0, 1), with
    E[exp(-s*S)] = exp(-s^beta), satisfies
    P(S <= x) = (1/pi) * int_0^pi exp(-A(phi) * x^(-beta/(1-beta))) dphi,
    where A(phi) = sin(beta*phi)^(beta/(1-beta)) * sin((1-beta)*phi)
    / sin(phi)^(1/(1-beta)) rises from (1-beta)*beta^(beta/(1-beta)) at
    phi = 0+ to infinity at phi = pi (Kanter 1975, Ann. Probab.).
    """
    return np.exp(_log_kanter_a_reflected(math.pi - phi, beta))


def _log_kanter_a_reflected(psi, beta: float):
    """log A(pi - psi) of ``kanter_a``, every sine taken from psi.

    sin(phi) = sin(psi) and sin(beta*phi) = sin((1-beta)*pi + beta*psi), so
    nothing cancels as phi approaches pi, where A grows without bound.
    """
    k = beta / (1.0 - beta)
    return (k * np.log(np.sin((1.0 - beta) * math.pi + beta * psi))
            + np.log(np.sin((1.0 - beta) * (math.pi - psi)))
            - np.log(np.sin(psi)) / (1.0 - beta))


# Gauss-Legendre nodes per piece at the first level of the harvest-probability
# integral; five doublings cap it at 1024.
_P_H_START_NODES = 32
_P_H_MAX_DOUBLINGS = 5
# Bisection for where log(x^(-k) * A) crosses a level, in u = log(pi - phi)
# from log(1e-300) to log(pi): 16 halvings place it within 0.011 in u.
_P_H_LOG_PSI_MIN = math.log(1e-300)
_P_H_BISECTIONS = 16
# The integrand is 1 to double precision once x^(-k) * A exceeds e^40; the
# part of [0, phi*] where x^(-k) * A < e^(-40) * psi*/pi adds less than
# e^(-40) * psi*, against a total above psi*/2, so it is left out.
_P_H_LOG_CUT = 40.0


def p_h_kanter(cfg: SystemConfig) -> float:
    """Harvest probability P(K >= sigma) from Kanter's phi-integral.

    K = C^(1/beta) * S with C = ``levy_scale``, beta = 2/alpha and S standard
    positive stable, so with x = sigma / C^(1/beta) and k = beta/(1-beta)
    (see ``kanter_a``)
        P(K >= sigma) = (1/pi) int_0^pi -expm1(-A(phi) * x^(-k)) dphi,
    a smooth, non-oscillatory integrand whose expm1 form keeps a tiny p_h to
    full relative precision. The integrand is about 1 where
    A(phi) * x^(-k) >= 1, next to phi = pi, and falls as a power of
    psi = pi - phi below that, so the integral splits at the crossing phi*
    (found by a coarse bisection; it need not be exact): [phi*, pi] runs
    directly in psi, [0, phi*] in u = log(psi), where the integrand becomes
    smooth and exponential in u; the u-range stops where the integrand has
    fallen below e^(-40) of the total, which keeps it short as alpha nears 2.
    When A(0+) * x^(-k) >= 1 the integrand is near 1 everywhere and [0, pi]
    runs in psi in one piece. Both pieces use Gauss-Legendre nodes, doubled
    from 32 until the value settles to ``REL_TOL`` (at most 1024); a
    stall raises ``QuadratureFailure`` with context "kanter harvest
    probability".
    """
    sigma = harvest_threshold(cfg)
    if sigma <= 0.0:
        return 1.0
    if cfg.lambda_p == 0.0:
        return 0.0
    beta = 2.0 / cfg.alpha
    k = beta / (1.0 - beta)
    log_t = -k * (math.log(sigma) - math.log(levy_scale(cfg)) / beta)  # log x^(-k)
    log_a_min = math.log((1.0 - beta) * beta ** k)  # log A(0+), A's least value
    log_pi = math.log(math.pi)

    def crossing(level: float, lo: float) -> float:
        """log(psi) at which log(x^(-k) * A) falls to level; log(pi) if never."""
        if log_t + log_a_min >= level:
            return log_pi
        hi = log_pi
        for _ in range(_P_H_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if log_t + _log_kanter_a_reflected(math.exp(mid), beta) >= level:
                lo = mid
            else:
                hi = mid
        return lo

    def piece(lo: float, hi: float, n: int, in_log: bool) -> float:
        x, w = _leggauss(n)
        half = 0.5 * (hi - lo)
        nodes = lo + half * (x + 1.0)
        psi = np.exp(nodes) if in_log else nodes
        exponent = np.minimum(log_t + _log_kanter_a_reflected(psi, beta), _P_H_LOG_CUT)
        vals = -np.expm1(-np.exp(exponent))
        if in_log:
            vals *= psi
        return half * float(w @ vals)

    u_star = crossing(0.0, _P_H_LOG_PSI_MIN)
    if u_star == log_pi:
        def evaluate(n: int) -> float:
            return piece(0.0, math.pi, n, False)
    else:
        u_end = crossing(-_P_H_LOG_CUT - (log_pi - u_star), u_star)

        def evaluate(n: int) -> float:
            return (piece(0.0, math.exp(u_star), n, False)
                    + piece(u_star, u_end, n, True))

    total = _settle(evaluate, _P_H_START_NODES, _P_H_MAX_DOUBLINGS, REL_TOL,
                    "kanter harvest probability")
    return min(1.0, total / math.pi)


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
# runs those. method="quad" takes the path-loss constant and the disc
# integrals by quadrature instead; it is the oracle the closed forms must
# match to ~1e-8 relative.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _standard_pathloss_integral(alpha: float) -> float:
    """Numeric value of int_0^inf y/(1 + y^alpha) dy.

    The substitution x = beta^(1/alpha)*y reduces the path-loss integral at
    any beta to beta^(2/alpha) times this standardized integral, so the
    quadrature path needs it only once per alpha.

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

    q = 2*pi*lambda_p * II(1) * (gamma*p_t/p_st)^(2/alpha), where II(1) is the
    path-loss integral at beta = 1: ``interference_integral`` ("closed") or
    its quadrature ``_standard_pathloss_integral`` ("quad").
    """
    if method == "closed":
        integral = interference_integral(1.0, cfg.alpha)
    elif method == "quad":
        integral = _standard_pathloss_integral(cfg.alpha)
    else:
        raise ValueError(f"method must be closed/quad, got {method!r}")
    return 2.0 * math.pi * cfg.lambda_p * integral * (
        cfg.gamma_th_lin * cfg.p_t_mw / cfg.p_st_mw) ** (2.0 / cfg.alpha)


def _decode_kernel(cfg: SystemConfig, dist_sq, method: str = "closed"):
    """Per-link decode probability at the given squared distances.

    exp(-2*pi*lambda_p * II(gamma*p_t*d^alpha / p_st)) = exp(-q*d^2) with II
    the path-loss integral; this is the interference-averaged chance that one
    Rayleigh link at distance d clears the SIR threshold.
    """
    return np.exp(-_decode_rate(cfg, method) * np.asarray(dist_sq, dtype=float))


def _disc_mean_kernel(cfg: SystemConfig, method: str, context: str) -> float:
    """Decode chance of one relay placed uniformly in the disc.

    int_0^R exp(-q*r^2) * 2r/R^2 dr = (1 - exp(-q*R^2)) / (q*R^2).
    """
    radius = cfg.r_disc
    if method == "quad":
        return integrate_doubling(
            lambda r: _decode_kernel(cfg, r * r, method) * 2.0 * r / radius ** 2,
            0.0, radius, context)
    q_area = _decode_rate(cfg, method) * radius ** 2
    if q_area == 0.0:
        return 1.0
    return -math.expm1(-q_area) / q_area


def _all_fail_bound(cfg: SystemConfig, method: str, context: str) -> float:
    """Probability that no relay in the disc clears the first-hop threshold.

    exp(-lambda_sr*pi*R^2 * mean kernel over the disc); shared by the
    composite channel and best-SIR selection rules, which coincide under a
    single secondary transmit power.
    """
    mean = _disc_mean_kernel(cfg, method, context)
    return math.exp(-math.pi * cfg.lambda_sr * cfg.r_disc ** 2 * mean)


def psi31_bound(cfg: SystemConfig, method: str = "closed") -> float:
    """Chance the best composite-channel relay fails to decode hop one."""
    return _all_fail_bound(cfg, method, "psi31")


def omega1(cfg: SystemConfig, method: str = "closed") -> float:
    """Chance that every relay's instantaneous first-hop SIR is below threshold."""
    return _all_fail_bound(cfg, method, "omega1")


def psi4_far_field(cfg: SystemConfig, method: str = "closed") -> float:
    """Far-field second-hop decode probability at the destination.

    The forwarding distance is approximated by the transmitter-destination
    separation d_sd, so the same value serves the relayed hop and the direct
    link.
    """
    return float(_decode_kernel(cfg, cfg.d_sd ** 2, method))


def delta_decode(cfg: SystemConfig, method: str = "closed") -> float:
    """Chance a uniformly placed relay decodes hop one with the transmitter
    outside every guard zone (the guard factor is part of the definition)."""
    return (_disc_mean_kernel(cfg, method, "delta")
            * guard_zone_prob(cfg.lambda_p, cfg.r_gz))


def xi_bstd(r, theta, cfg: SystemConfig, method: str = "closed"):
    """Interference-averaged decode chance of one decoding relay at polar
    (r, theta) forwarding to the destination over its exact distance."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    f_sq = r ** 2 + cfg.d_sd ** 2 - 2.0 * r * cfg.d_sd * np.cos(theta)
    return _decode_kernel(cfg, np.maximum(f_sq, 0.0), method)


_RING_PANELS = 10  # log-radius panels, each 2 wide, see _destination_rings


def _destination_rings(cfg: SystemConfig, n: int, q: float):
    """Radial nodes rho around the destination and their weights on the disc.

    sum(weights * h(rho)) approximates intint_disc exp(-q*r^2) * h(f) dA, r and
    f the distances from the transmitter and the destination: a weight is rho
    times its radial weight times exp(-q*r^2) integrated over the arc of radius
    rho inside the disc, its half-angle from the law of cosines. Each arc and
    the arc piece take n/2 Gauss-Legendre nodes, the piece mapped by
    rho = a + (b - a)*(3s^2 - 2s^3) to smooth its square-root ends. Full
    circles (destination inside the disc) take n/4 per log-radius panel; the
    disc the panels leave out holds under e^-40 of the relay disc.
    """
    d, radius = cfg.d_sd, cfg.r_disc
    lo, hi = abs(d - radius), d + radius
    x, w = _leggauss(n // 2)
    s = 0.5 * (x + 1.0)
    rho = lo + (hi - lo) * s * s * (3.0 - 2.0 * s)
    step = 3.0 * (hi - lo) * s * (1.0 - s) * w
    if d < radius:
        xl, wl = _leggauss(n // 4)
        circles = lo * np.exp(np.add.outer(2.0 * np.arange(-_RING_PANELS, 0), xl + 1.0))
        rho = np.concatenate([rho, circles.ravel()])
        step = np.concatenate([step, (circles * wl).ravel()])
    cos_edge = (d * d + rho * rho - radius * radius) / (2.0 * d * rho)
    half_angle = np.arccos(np.clip(cos_edge, -1.0, 1.0))
    r_sq = d * d + rho[:, None] ** 2 - 2.0 * d * rho[:, None] * np.cos(
        np.multiply.outer(half_angle, s))
    return rho, rho * step * half_angle * (np.exp(-q * r_sq) @ w)


def chi_integral(cfg: SystemConfig) -> float:
    """intint xi(r, theta)*r dr dtheta over the relay disc: exp(-q*rho^2)
    summed over ``_destination_rings`` with arc angles (q = 0) as weights."""
    q = _decode_rate(cfg)

    def evaluate(n: int) -> float:
        rho, arcs = _destination_rings(cfg, n, 0.0)
        return float(arcs @ np.exp(-q * rho * rho))

    return _settle(evaluate, _START_NODES // 4, _MAX_DOUBLINGS, REL_TOL,
                   "chi double integral")


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
# Outer (log-interference) nodes at the first level; each level uses twice as
# many phi nodes and passes its count to ``_destination_rings``.
_CHI_START_NODES = 48
# The last level evaluates G on a 384 x 192 grid, 384 x 1152 (3.5 MB) with the
# destination inside the disc; the outer integral sets the level reached.
_CHI_MAX_DOUBLINGS = 3


def chi_common(cfg: SystemConfig) -> float:
    """Chance that no relay in the decoding set reaches the destination.

    chi = 1 - g_st * (1 - E_I[exp(-lambda_sr * G(gamma * I / p_st))]) with
    G(u) = intint_disc kappa(r) * exp(-u * f(r, theta)^alpha) r dr dtheta,
    kappa the hop-one decode kernel and f the relay-destination distance.
    The destination interference I is one value per block, shared by every
    decoding relay, and the transmitter guard event g_st is one event per
    block, so it multiplies the relay branch instead of thinning the relays.

    I is positive stable of index beta = 2/alpha with
    E[exp(-s*I)] = exp(-c * s^beta), c = lambda_p*pi*gamma_pair(alpha)*p_t^beta,
    so Y = log(I / c^(1/beta)) has P(Y <= y) = (1/pi) int exp(-A(phi) e^(-k*y))
    dphi, k = beta/(1-beta) (see ``kanter_a``), and its density is the
    phi-integral of k*z*exp(-z), z = A(phi) e^(-k*y). The expectation over Y
    runs on Gauss-Legendre nodes; G(u) = sum_j w_j * exp(-u * rho_j^alpha)
    on ``_destination_rings``, whose log-radius rings resolve the peak at a
    destination inside the disc for every u. Below y_flat, where G(u) is
    within the truncation bound of G(0), the integrand is replaced by its
    constant times the CDF. Every node count doubles until chi settles to
    ``REL_TOL``; a stall raises ``QuadratureFailure`` with context
    "chi common interference".
    """
    if cfg.lambda_sr == 0.0:
        return 1.0
    alpha, radius, lam = cfg.alpha, cfg.r_disc, cfg.lambda_sr
    beta = 2.0 / alpha
    k = beta / (1.0 - beta)
    guard = guard_zone_prob(cfg.lambda_p, cfg.r_gz)
    c_scale = cfg.lambda_p * math.pi * gamma_pair(alpha) * cfg.p_t_mw ** beta
    u_unit = cfg.gamma_th_lin * c_scale ** (1.0 / beta) / cfg.p_st_mw  # u = u_unit*e^Y
    mean_relays = lam * math.pi * radius ** 2
    if u_unit == 0.0:
        # Interference cannot matter (no primaries or a zero threshold), so
        # every relay decodes both hops and G = pi*R^2.
        return 1.0 - guard * -math.expm1(-mean_relays)

    # Range of Y. A >= A(0+) bounds P(Y < y_lo); P(S > x) <= x^-beta/(1 - 1/e)
    # bounds the upper tail; 1 - exp(-lam*G(u)) <= lam*pi*R^2*exp(-u*f_min^alpha)
    # bounds the integrand beyond the nearest relay-destination distance, and
    # lam*(G(0) - G(u)) <= u*lam*pi*R^2*f_max^alpha its change below y_flat.
    tail = _CHI_TAIL_LOG
    a_min = (1.0 - beta) * beta ** k
    y_lo = -math.log(tail / a_min) / k
    y_hi = (tail - math.log1p(-math.exp(-1.0))) / beta
    log_u = math.log(u_unit)
    f_min = cfg.d_sd - radius
    if f_min > 0.0:
        y_hi = min(y_hi, math.log(tail + math.log(max(mean_relays, 1.0)))
                   - alpha * math.log(f_min) - log_u)
    y_hi = max(y_hi, y_lo)
    y_flat = -tail - math.log(mean_relays) - alpha * math.log(cfg.d_sd + radius) - log_u
    y_a = min(max(y_lo, y_flat), y_hi)

    def evaluate(n: int) -> float:
        xp, wp = _leggauss(2 * n)
        a_phi = kanter_a(0.5 * math.pi * (xp + 1.0), beta)
        w_phi = 0.5 * wp  # (1/pi) * (pi/2) * Gauss-Legendre weights on [0, pi]
        cdf_a = float(np.exp(-math.exp(-k * y_a) * a_phi) @ w_phi)

        xy, wy = _leggauss(n)
        half = 0.5 * (y_hi - y_a)
        y = y_a + half * (xy + 1.0)
        z = np.multiply.outer(np.exp(-k * y), a_phi)
        density = k * ((z * np.exp(-z)) @ w_phi)

        rho, weights = _destination_rings(cfg, n, _decode_rate(cfg))
        g = np.multiply.outer(-np.exp(y + log_u), rho ** alpha)
        np.exp(g, out=g)
        g = g @ weights
        success = (-math.expm1(-lam * weights.sum()) * cdf_a
                   + half * float(np.sum(wy * density * -np.expm1(-lam * g))))
        return 1.0 - guard * success

    return _settle(evaluate, _CHI_START_NODES, _CHI_MAX_DOUBLINGS, REL_TOL,
                   "chi common interference")


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


class UnsupportedScheme(ValueError):
    """Raised for schemes with no analytic expression (the random baseline)."""


BREAKDOWN_FIELDS = tuple(f.name for f in fields(AnalyticBreakdown) if f.name != "scheme")


def analyze(cfg: SystemConfig, scheme: str) -> AnalyticBreakdown:
    """Full analytic breakdown for one scheme under one configuration.

    p_succ = p_h * p_dsucc: the harvest probability ``p_h_kanter`` times the
    chance that the destination decodes. Only the relay branch depends on
    the scheme; guard_st and guard_sr are the same guard-zone factor.

    bcc and bsir share one relay branch: the composite-channel and best-SIR
    rules coincide under a single secondary transmit power. The hop-one
    all-fail chance is ``psi31_bound`` (bcc) or ``omega1`` (bsir), which
    differ only in the failure context of their quadrature oracle, and the
    selected relay
    forwards over the far-field hop ``psi4_far_field``. bcc reports them as
    psi31, psi3 = 1 - psi31 and psi4; bsir as omega1, omega and phi. Without
    the direct link p_dsucc_sd = psi3 * psi4 * guard_st * guard_sr; psi3 is
    already the joint chance that the disc holds a relay and one decodes, so
    there is no empty-disc conditioning to divide out.

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
      given a nonempty disc, 0 for a relay density of 0;
    - bstd: the relay branch less the direct link's failure on decoding sets
      that all fail, plus the direct link alone when the decoding set is
      void (chance pr_n1_zero, which never exceeds chi).
    """
    if not cfg.validated:
        raise ValueError("config must pass validate() before analysis")
    if scheme == "random_baseline":
        raise UnsupportedScheme(
            "random_baseline is a simulation-only reference; no analytic expression")
    if scheme not in ("bcc", "bsir", "bstd"):
        raise UnsupportedScheme(f"unknown scheme {scheme!r}")
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
        all_fail = psi31_bound(cfg) if scheme == "bcc" else omega1(cfg)
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
        given = ((hop1 / b.p_nonempty, failed / b.p_nonempty) if b.p_nonempty > 0
                 else (0.0, 0.0))
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
    """
    if cfg.alpha != 4.0:
        return []
    checks = []

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    pairs = [
        ("psi31", psi31_bound(cfg, "closed"), psi31_bound(cfg, "quad")),
        ("omega1", omega1(cfg, "closed"), omega1(cfg, "quad")),
        ("delta", delta_decode(cfg, "closed"), delta_decode(cfg, "quad")),
        ("psi4", psi4_far_field(cfg, "closed"), psi4_far_field(cfg, "quad")),
        ("xi", float(xi_bstd(cfg.r_disc / 2.0, 1.0, cfg, "closed")),
         float(xi_bstd(cfg.r_disc / 2.0, 1.0, cfg, "quad"))),
    ]
    for name, closed, quad_val in pairs:
        checks.append((name, closed, quad_val, rel(closed, quad_val)))
    return checks
