"""Single-lognormal fit to a sum of independent lognormals by matching the
Gauss-Hermite approximated MGF at two design points.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import InvalidDesignPointsError, UnsupportedOrderError, ValidationError
from .gaussian_approx import GaussianApprox

ZETA = 10.0 / math.log(10.0)

RESIDUAL_TOL = 1e-8
# Newton polishes well past the contract tolerance so that parameters, not
# just residuals, are recovered to near machine precision.
_TARGET_TOL = 1e-13
_MAX_NEWTON_ITER = 200
# Newton safeguards: largest change of log sigma in one step, and how many
# times a step is halved before the iteration gives up.
_MAX_LOG_SIGMA_STEP = 1.0
_MAX_HALVINGS = 10
# Stall stop: give up when this many accepted steps shrink the residual by
# less than a decade.
_STALL_STEPS = 8


@dataclass(frozen=True)
class GaussHermiteRule:
    order: int
    abscissas: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class LognormalFit:
    mu_q: float
    var_q: float
    residuals: tuple[float, float]  # relative MGF mismatch at (s1, s2)
    iterations: int
    converged: bool


def gh_rule(m0: int) -> GaussHermiteRule:
    """Physicists' Gauss-Hermite nodes and weights (weight function e^{-x^2})."""
    if not 2 <= m0 <= 64:
        raise UnsupportedOrderError(f"Gauss-Hermite order must be in [2, 64], got {m0}")
    a, w = np.polynomial.hermite.hermgauss(m0)
    rt_pi = math.sqrt(math.pi)
    if abs(w.sum() - rt_pi) > 1e-12 or abs((w * a**2).sum() - rt_pi / 2) > 1e-12:
        raise UnsupportedOrderError(f"Gauss-Hermite rule of order {m0} failed moment checks")
    return GaussHermiteRule(order=m0, abscissas=a, weights=w)


def _log_mgf(mu: float, var: float, s: float, rule: GaussHermiteRule) -> float:
    """log of the GH-approximated MGF of the lognormal 10^(X/10), X ~ N(mu, var).

    When the MGF is close to 1 (weak components, the interesting regime for
    dense-network sums) log(MGF) is of order -s*E[X] and must keep full
    relative precision, so it is formed with expm1/log1p; the logsumexp route
    takes over when the MGF itself is small.
    """
    z = np.exp((math.sqrt(2.0 * max(var, 0.0)) * rule.abscissas + mu) / ZETA)
    t = float(np.dot(rule.weights, np.expm1(-s * z))) / math.sqrt(math.pi)
    if t > -0.5:
        return math.log1p(t)
    log_terms = np.log(rule.weights / math.sqrt(math.pi)) - s * z
    return float(logsumexp(log_terms))


def lognormal_mgf(mu: float, var: float, s: float, rule: GaussHermiteRule) -> float:
    """GH-approximated MGF evaluated at s > 0; exact exp(-s*10^(mu/10)) at var=0."""
    if s <= 0:
        raise InvalidDesignPointsError(f"MGF design point must be positive, got {s}")
    if var < 0:
        raise ValidationError(f"variance must be nonnegative, got {var}")
    return math.exp(_log_mgf(mu, var, s, rule))


def _log_mgf_grad(mu: float, var: float, s: float,
                  rule: GaussHermiteRule) -> tuple[float, float]:
    """Derivatives of _log_mgf with respect to mu and log sigma.

    Both are sums over the same nodes as the value, each node weighted by its
    share of the MGF (a softmax of the log terms).  The shares are formed in
    the log domain, so a node whose power overflows contributes 0.
    """
    x = math.sqrt(2.0 * var) * rule.abscissas
    log_z = (x + mu) / ZETA
    log_terms = np.log(rule.weights) - s * np.exp(log_z)
    # d log MGF / d log z_i = -(share of node i) * s * z_i; d log z_i / d mu = 1 / ZETA
    d = -np.exp(math.log(s) + log_z + log_terms - logsumexp(log_terms)) / ZETA
    return float(d.sum()), float(np.dot(d, x))


def fenton_wilkinson(components: Sequence[GaussianApprox]) -> tuple[float, float]:
    """Moment-matched (mu, var) seed for the fit: match the linear-domain mean
    and variance of the sum of lognormals."""
    mus = np.array([c.mean for c in components])
    vs = np.array([c.variance for c in components])
    m = np.exp(mus / ZETA + vs / (2 * ZETA**2))
    v = (np.exp(vs / ZETA**2) - 1.0) * np.exp(2 * mus / ZETA + vs / ZETA**2)
    m_tot = m.sum()
    v_tot = v.sum()
    var_q = ZETA**2 * math.log1p(v_tot / m_tot**2)
    mu_q = ZETA * math.log(m_tot) - var_q / (2 * ZETA)
    return mu_q, var_q


def _residuals(mu, log_sigma, targets, s_points, rule):
    """Log-MGF mismatch at the design points, scaled by the target magnitude.

    The scaling matters: for sums of many weak components both MGF targets sit
    just below 1 and all information lives in log(MGF) ~ -1e-8, so an absolute
    tolerance on the MGF would accept fits with arbitrary variance.  A
    variance that overflows gives infinite residuals.
    """
    with np.errstate(over="ignore"):
        var = float(np.exp(2.0 * log_sigma))
    if not math.isfinite(var):
        return np.full(len(targets), np.inf)
    return np.array(
        [
            (_log_mgf(mu, var, s, rule) - t) / max(abs(t), 1e-300)
            for s, t in zip(s_points, targets)
        ]
    )


def fit_sum(
    components: Sequence[GaussianApprox],
    s1: float = 1.0,
    s2: float = 0.1,
    rule: GaussHermiteRule | None = None,
    ref_dbm: float | None = None,
) -> LognormalFit:
    """Fit (mu_q, var_q) so the fitted MGF matches the product of component
    MGFs at the two design points, evaluated on components normalized to a
    reference level (see below).

    ref_dbm sets the dB level treated as 0 dB during the fit, e.g. the
    cell-edge receive target of the network the components came from.  Left
    as None, the aggregate linear-domain mean level is used, which makes the
    fit exactly equivariant under a common dB shift of all components.

    One solver: safeguarded Newton in (mu, log sigma) from a
    Fenton-Wilkinson seed, with the analytic Jacobian of the GH log-MGF,
    steps scaled so that |d log sigma| <= 1, and at most 10 halvings to a
    trial point whose residuals are finite and smaller.  When no such point
    exists, the Jacobian is singular, or _STALL_STEPS accepted steps shrink
    the residual by less than a decade, the iteration stops at the last
    iterate, and converged says whether its residuals meet RESIDUAL_TOL; at
    design points where the quadrature has no root it is False.
    """
    if not components:
        raise ValidationError("need at least one component")
    if not 0 < s2 < s1:
        raise InvalidDesignPointsError(f"need 0 < s2 < s1, got s1={s1}, s2={s2}")
    if rule is None:
        rule = gh_rule(12)
    s_points = (s1, s2)
    # Work on components normalized to a reference level.  At raw dBm scale
    # (1e-10 mW interferers) both MGF targets collapse to 1 - O(1e-8) and the
    # design points carry no shape information; the rescaling moves them to
    # the informative regime.
    if ref_dbm is not None:
        ref = float(ref_dbm)
    else:
        ref = ZETA * logsumexp(
            [c.mean / ZETA + c.variance / (2 * ZETA**2) for c in components]
        )
    norm = [GaussianApprox(c.mean - ref, c.variance) for c in components]
    # Product of component MGFs, accumulated in the log domain.
    targets = [
        sum(_log_mgf(c.mean, c.variance, s, rule) for c in norm) for s in s_points
    ]

    if all(c.variance == 0 for c in components):
        # Sum of constants: the exact fit is a point mass (exp(2 * -400) == 0.0).
        mu, ls = 10.0 * math.log10(sum(10 ** (c.mean / 10.0) for c in norm)), -400.0
        budget = 0
    else:
        mu, var0 = fenton_wilkinson(norm)
        ls = 0.5 * math.log(max(var0, 1e-16))
        budget = _MAX_NEWTON_ITER
    scale = np.array([max(abs(t), 1e-300) for t in targets])
    f = _residuals(mu, ls, targets, s_points, rule)
    size = float(np.max(np.abs(f)))
    sizes = [size]
    iterations = 0
    while size > _TARGET_TOL and iterations < budget:
        iterations += 1
        var = math.exp(2.0 * ls)
        jac = np.array([_log_mgf_grad(mu, var, s, rule) for s in s_points]) / scale[:, None]
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        step *= 1.0 / max(1.0, abs(step[1]) / _MAX_LOG_SIGMA_STEP)
        for _ in range(_MAX_HALVINGS + 1):
            f_new = _residuals(mu + step[0], ls + step[1], targets, s_points, rule)
            # False for NaN or infinite residuals, so such trial points are rejected.
            if float(np.max(np.abs(f_new))) < size:
                break
            step *= 0.5
        else:
            break
        mu, ls = mu + step[0], ls + step[1]
        f, size = f_new, float(np.max(np.abs(f_new)))
        sizes.append(size)
        if len(sizes) > _STALL_STEPS and size > 0.1 * sizes[-1 - _STALL_STEPS]:
            break

    with np.errstate(over="ignore"):
        rel = tuple(float(r) for r in np.expm1(f * np.abs(targets)))
    var_q = math.exp(2.0 * ls)
    if var_q < 1e-12:
        var_q = 0.0
    return LognormalFit(
        mu_q=float(ref + mu),
        var_q=float(var_q),
        residuals=rel,
        iterations=iterations,
        converged=size <= RESIDUAL_TOL and max(abs(r) for r in rel) <= RESIDUAL_TOL,
    )
