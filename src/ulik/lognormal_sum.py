"""Single-lognormal fit to a sum of independent lognormals by matching the
Gauss-Hermite approximated MGF at two design points.
"""

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .gaussian_approx import ZETA, GaussianApprox

# The fit's one design, fit_sum's defaults: the Hermite order, two design points.
DEFAULT_ORDER = 12
DEFAULT_S1 = 1.0
DEFAULT_S2 = 0.1

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
    abscissas: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray  # log(weights / sqrt(pi))


@dataclass(frozen=True)
class LognormalFit:
    mu_q: float
    var_q: float
    residuals: tuple[float, float]  # relative MGF mismatch at (s1, s2)
    iterations: int
    converged: bool


@functools.lru_cache(maxsize=None)
def gh_rule(m0: int) -> GaussHermiteRule:
    """Physicists' Gauss-Hermite nodes and weights (weight function e^{-x^2}),
    built once per order and shared by every caller, so its arrays are read-only."""
    if not 2 <= m0 <= 64:
        raise ValidationError(f"Gauss-Hermite order must be in [2, 64], got {m0}")
    x, w = np.polynomial.hermite.hermgauss(m0)
    arrays = x, w, np.log(w / math.sqrt(math.pi))
    for a in arrays:
        a.flags.writeable = False
    return GaussHermiteRule(*arrays)


def _log_mgf(mu, var, s, rule: GaussHermiteRule, derivatives: bool = True):
    """log of the GH-approximated MGF of the lognormal 10^(X/10), X ~ N(mu, var),
    and its derivatives with respect to mu and log sigma (the value alone if
    not ``derivatives``).

    mu, var and s broadcast against each other, with the nodes on a trailing
    axis, so one call evaluates every component at every design point.  When
    the MGF is close to 1 (weak components, the interesting regime for
    dense-network sums) log(MGF) is of order -s*E[X] and must keep full
    relative precision, so it is formed with expm1/log1p; a log-sum-exp takes
    over below 1/2, where MGF - 1 is clamped so that log1p never sees -1.  The
    derivatives weight each node by its share of the MGF, a softmax of the
    log terms formed in the log domain, so a node whose power overflows
    contributes 0.
    """
    mu, var, s = (np.asarray(a, dtype=float)[..., None] for a in (mu, var, s))
    with np.errstate(over="ignore", divide="ignore"):
        x = np.sqrt(2.0 * np.maximum(var, 0.0)) * rule.abscissas
        log_z = (x + mu) / ZETA
        sz = s * np.exp(log_z)
        t = np.expm1(-sz) @ rule.weights / math.sqrt(math.pi)
        log_terms = rule.log_weights - sz
        # log-sum-exp over the nodes, shifted by the largest finite term.
        top = log_terms.max(axis=-1, keepdims=True)
        top[~np.isfinite(top)] = 0.0
        lse = np.log(np.exp(log_terms - top).sum(axis=-1, keepdims=True)) + top
        value = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)), lse[..., 0])
        if not derivatives:
            return value
        # d log MGF / d log z_i = -(share of node i) * s * z_i; d log z_i / d mu = 1 / ZETA
        d = -np.exp(np.log(s) + log_z + log_terms - lse) / ZETA
    return value, d.sum(axis=-1), (d * x).sum(axis=-1)


def lognormal_mgf(mu: float, var: float, s: float, rule: GaussHermiteRule) -> float:
    """GH-approximated MGF evaluated at s > 0; exact exp(-s*10^(mu/10)) at var=0."""
    if not 0 < s < math.inf:
        raise ValidationError(f"MGF design point must be positive and finite, got {s}")
    GaussianApprox(mu, var)  # refuses a non-finite mean or a negative or infinite variance
    return math.exp(_log_mgf(mu, var, s, rule, derivatives=False))


def fenton_wilkinson(mus: np.ndarray, vs: np.ndarray) -> tuple[float, float]:
    """Moment-matched (mu, var) seed for the fit from dB means and variances:
    match the linear-domain mean and variance of the sum of lognormals."""
    # Overflow and 0/0 leave inf or NaN, which the range check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.exp(mus / ZETA + vs / (2 * ZETA**2))
        v = (np.exp(vs / ZETA**2) - 1.0) * np.exp(2 * mus / ZETA + vs / ZETA**2)
        m_tot = m.sum()
        cv2 = v.sum() / m_tot**2  # squared coefficient of variation of the sum
    if not (0 < m_tot < math.inf and 0 <= cv2 < math.inf):
        raise ValidationError("no lognormal seed: the linear-domain mean and variance "
                              "of the components leave the floating-point range")
    var_q = ZETA**2 * math.log1p(cv2)
    mu_q = ZETA * math.log(m_tot) - var_q / (2 * ZETA)
    return mu_q, var_q


def fit_sum(
    components: Sequence[GaussianApprox],
    s1: float = DEFAULT_S1,
    s2: float = DEFAULT_S2,
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
    if not 0 < s2 < s1 < math.inf:
        raise ValidationError(f"need 0 < s2 < s1 < inf, got s1={s1}, s2={s2}")
    if rule is None:
        rule = gh_rule(DEFAULT_ORDER)
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
        a = mus / ZETA + vs / (2 * ZETA**2)  # log-sum-exp of the linear means
        top = a.max()
        ref = ZETA * (np.log(np.exp(a - top).sum()) + top)
    mus -= ref
    # Product of component MGFs, accumulated in the log domain.
    targets = _log_mgf(mus[:, None], vs[:, None], s_points, rule, derivatives=False).sum(axis=0)
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
        jac = np.empty((2, 2))
        value, jac[:, 0], jac[:, 1] = _log_mgf(mu, var, s_points, rule)
        jac /= scale[:, None]
        return (value - targets) / scale, jac

    mu, var0 = fenton_wilkinson(mus, vs)
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
