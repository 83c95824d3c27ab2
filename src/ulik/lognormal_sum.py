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


def _log_mgf(mu, var, s, rule: GaussHermiteRule):
    """log of the GH-approximated MGF of the lognormal 10^(X/10), X ~ N(mu, var),
    and its derivatives with respect to mu and log sigma.

    mu, var and s broadcast against each other, with the nodes on a trailing
    axis, so one call evaluates every component at every design point.  When
    the MGF is close to 1 (weak components, the interesting regime for
    dense-network sums) log(MGF) is of order -s*E[X] and must keep full
    relative precision, so it is formed with expm1/log1p; logsumexp takes
    over below 1/2, where MGF - 1 is clamped so that log1p never sees -1.  The
    derivatives weight each node by its share of the MGF, a softmax of the
    log terms formed in the log domain, so a node whose power overflows
    contributes 0.
    """
    mu, var, s = (np.asarray(a, dtype=float)[..., None] for a in (mu, var, s))
    x = np.sqrt(2.0 * np.maximum(var, 0.0)) * rule.abscissas
    log_z = (x + mu) / ZETA
    with np.errstate(over="ignore"):
        sz = s * np.exp(log_z)
    t = np.expm1(-sz) @ rule.weights / math.sqrt(math.pi)
    log_terms = np.log(rule.weights / math.sqrt(math.pi)) - sz
    lse = logsumexp(log_terms, axis=-1, keepdims=True)
    value = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)), lse[..., 0])
    # d log MGF / d log z_i = -(share of node i) * s * z_i; d log z_i / d mu = 1 / ZETA
    d = -np.exp(np.log(s) + log_z + log_terms - lse) / ZETA
    return value, d.sum(axis=-1), (d * x).sum(axis=-1)


def lognormal_mgf(mu: float, var: float, s: float, rule: GaussHermiteRule) -> float:
    """GH-approximated MGF evaluated at s > 0; exact exp(-s*10^(mu/10)) at var=0."""
    if s <= 0:
        raise InvalidDesignPointsError(f"MGF design point must be positive, got {s}")
    if var < 0:
        raise ValidationError(f"variance must be nonnegative, got {var}")
    return math.exp(_log_mgf(mu, var, s, rule)[0])


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
    s_points = np.array([s1, s2])
    mus = np.array([c.mean for c in components], dtype=float)
    vs = np.array([c.variance for c in components], dtype=float)
    # Work on components normalized to a reference level.  At raw dBm scale
    # (1e-10 mW interferers) both MGF targets collapse to 1 - O(1e-8) and the
    # design points carry no shape information; the rescaling moves them to
    # the informative regime.
    if ref_dbm is not None:
        ref = float(ref_dbm)
    else:
        ref = ZETA * logsumexp(mus / ZETA + vs / (2 * ZETA**2))
    mus -= ref
    # Product of component MGFs, accumulated in the log domain.
    targets = _log_mgf(mus[:, None], vs[:, None], s_points, rule)[0].sum(axis=0)
    scale = np.maximum(np.abs(targets), 1e-300)

    def residuals(mu, ls):
        # Log-MGF mismatch scaled by the target magnitude, and its Jacobian in
        # (mu, log sigma).  For sums of many weak components both targets sit
        # just below 1 and all information lives in log(MGF) ~ -1e-8, so an
        # absolute tolerance on the MGF would accept any variance.  A variance
        # that overflows gives infinite residuals.
        with np.errstate(over="ignore"):
            var = float(np.exp(2.0 * ls))
        if not math.isfinite(var):
            return np.full(2, np.inf), None
        value, d_mu, d_ls = _log_mgf(mu, var, s_points, rule)
        return (value - targets) / scale, np.stack([d_mu, d_ls], axis=1) / scale[:, None]

    mu, var0 = fenton_wilkinson([GaussianApprox(m, v) for m, v in zip(mus, vs)])
    ls = 0.5 * math.log(max(var0, 1e-16))
    f, jac = residuals(mu, ls)
    size = float(np.max(np.abs(f)))
    sizes = [size]
    iterations = 0
    while size > _TARGET_TOL and iterations < _MAX_NEWTON_ITER:
        iterations += 1
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        step *= 1.0 / max(1.0, abs(step[1]) / _MAX_LOG_SIGMA_STEP)
        for _ in range(_MAX_HALVINGS + 1):
            f_new, jac_new = residuals(mu + step[0], ls + step[1])
            # False for NaN or infinite residuals, so such trial points are rejected.
            if float(np.max(np.abs(f_new))) < size:
                break
            step *= 0.5
        else:
            break
        mu, ls = mu + step[0], ls + step[1]
        f, jac, size = f_new, jac_new, float(np.max(np.abs(f_new)))
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
