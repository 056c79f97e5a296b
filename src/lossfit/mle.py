"""Maximum-likelihood estimation for the two payment variables.

Both likelihoods reduce to functions of the standardized truncation point
``gamma = (t - theta)/sigma`` and ``sigma``; the location estimate is then
recovered through ``theta = t - sigma * gamma``.  The estimating systems
are solved by damped Newton iteration on ``(gamma, log sigma)`` — the log
parameterization keeps ``sigma`` positive without constraints.

Per-loss data are per-payment data plus a Binomial(n, cdf(gamma)) count
of zeros, so both variants share one algebra.  The per-loss
log-likelihood is the per-payment one of the nonzero records plus
``n0 log cdf(gamma) + (n - n0) log sf(gamma)``; the per-loss information
is ``sf(gamma)`` times the per-payment one plus ``pdf^2 / (cdf sf)`` in
the (gamma, gamma) entry.  Only these terms depend on the variant.

Asymptotic covariances come from the expected information of a single
observation, mapped to ``(theta, sigma)`` by the delta method.  Reported
covariances are evaluated at the fitted parameter values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBandError,
    DomainError,
    EstimationError,
    NoMleError,
    SingularMatrixError,
)
from .numerics import (
    SolverSpec,
    normal_hazard,
    solve_2d,
    solve_monotone_scalar,
    std_normal_log_cdf,
    std_normal_log_sf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_sf,
)
from .payments import NormalThresholds, PaymentKind, PaymentSample

__all__ = [
    "MomentSummary",
    "FisherComponents",
    "FitResult",
    "loglik_y",
    "loglik_z",
    "fit_mle_y",
    "fit_mle_z",
    "fisher_y",
    "fisher_z",
    "cov_mle_y",
    "cov_mle_z",
    "truncated_moment_ratio",
    "fit_left_truncated",
    "cov_left_truncated",
    "confidence_intervals",
]


@dataclass(frozen=True)
class MomentSummary:
    """First two sample moments of the interior (uncensored, positive) payments."""

    mu1: float
    mu2: float
    n: int
    n0: int
    n1: int
    n2: int

    @classmethod
    def from_sample(cls, sample: PaymentSample) -> "MomentSummary":
        interior = sample.interior_values
        if interior.size == 0:
            raise EstimationError("sample has no interior observations")
        mu1 = float(np.mean(interior))
        mu2 = float(np.mean(interior ** 2))
        return cls(mu1=mu1, mu2=mu2, n=sample.n, n0=sample.n0,
                   n1=sample.n1, n2=sample.n2)


@dataclass(frozen=True)
class FisherComponents:
    """Curvature components of the expected information.

    ``lam`` is the probability that an observation is interior relative to
    the truncation survivor, and ``components`` holds the three curvature
    terms entering the information matrix.
    """

    lam: float
    components: tuple[float, float, float]
    kind: PaymentKind


@dataclass
class FitResult:
    """Point estimates, asymptotic covariance, and solver diagnostics.

    ``cov`` is the asymptotic covariance of ``sqrt(n) * (theta_hat - theta,
    sigma_hat - sigma)``; divide by ``n`` for the covariance of the
    estimates themselves.  It is ``None`` only when a fit was explicitly
    requested without covariance work.  ``theta_hat = t - sigma_hat *
    gamma_hat`` holds exactly by construction.
    """

    gamma_hat: float
    sigma_hat: float
    theta_hat: float
    cov: np.ndarray | None
    n: int
    ci_theta: tuple[float, float]
    ci_sigma: tuple[float, float]
    level: float
    iterations: int
    converged: bool
    method: str
    extras: dict = field(default_factory=dict)

    @property
    def se_theta(self) -> float:
        if self.cov is None:
            raise EstimationError("fit was computed without covariance work")
        return math.sqrt(self.cov[0, 0] / self.n)

    @property
    def se_sigma(self) -> float:
        if self.cov is None:
            raise EstimationError("fit was computed without covariance work")
        return math.sqrt(self.cov[1, 1] / self.n)


# ---------------------------------------------------------------------------
# log-likelihoods and estimating systems
# ---------------------------------------------------------------------------

def _check_sigma(sigma: float) -> None:
    if not sigma > 0:
        raise DomainError("sigma must be strictly positive")


def _require_kind(sample: PaymentSample, kind: PaymentKind, name: str) -> None:
    if sample.kind is not kind:
        raise DomainError(f"{name} expects a {kind.value} sample")


def _xi_of(gamma: float, sigma: float, th: NormalThresholds) -> float:
    return gamma + th.R / sigma if math.isfinite(th.T) else math.inf


def _loglik(gamma: float, sigma: float, sample: PaymentSample) -> float:
    """Log-likelihood of either variant: the sample's truncation term plus
    the interior densities and the censored records."""
    _check_sigma(sigma)
    if sample.kind is PaymentKind.PER_PAYMENT:
        ll = -sample.n * std_normal_log_sf(gamma)  # left truncation at t
    else:
        # binomial count of zeros
        ll = sample.n0 * std_normal_log_cdf(gamma) if sample.n0 > 0 else 0.0
    n1, n2 = sample.n1, sample.n2
    ll += -0.5 * n1 * math.log(2.0 * math.pi) - n1 * math.log(sigma)
    if n2 > 0:
        ll += n2 * std_normal_log_sf(_xi_of(gamma, sigma, sample.thresholds))
    scaled = sample.interior_values / (sample.policy.c * sigma)
    ll -= 0.5 * float(np.sum((gamma + scaled) ** 2))
    return ll


def loglik_y(gamma: float, sigma: float, sample: PaymentSample) -> float:
    """Log-likelihood of a per-payment sample at ``(gamma, sigma)``."""
    _require_kind(sample, PaymentKind.PER_PAYMENT, "loglik_y")
    return _loglik(gamma, sigma, sample)


def loglik_z(gamma: float, sigma: float, sample: PaymentSample) -> float:
    """Log-likelihood of a per-loss sample at ``(gamma, sigma)``."""
    _require_kind(sample, PaymentKind.PER_LOSS, "loglik_z")
    return _loglik(gamma, sigma, sample)


def _system_residuals(gamma: float, sigma: float, stats: MomentSummary,
                      th: NormalThresholds, c: float,
                      kind: PaymentKind) -> np.ndarray:
    """Residuals of the two estimating equations, in interior-moment form."""
    xi = _xi_of(gamma, sigma, th)
    if kind is PaymentKind.PER_PAYMENT:
        o1 = (stats.n / stats.n1) * normal_hazard(gamma)
    else:
        o1 = (stats.n0 / stats.n1) * normal_hazard(-gamma) if stats.n0 > 0 else 0.0
    o2 = (stats.n2 / stats.n1) * normal_hazard(xi) \
        if stats.n2 > 0 and math.isfinite(xi) else 0.0
    m1 = stats.mu1 / c
    m2 = stats.mu2 / c ** 2
    drift = o1 - o2 - gamma
    e1 = sigma * drift - m1
    censor = o2 * th.R / sigma if o2 > 0.0 else 0.0
    e2 = sigma ** 2 * (1.0 - gamma * drift - censor) - m2
    return np.array([e1, e2])


def _solve_system(stats: MomentSummary, th: NormalThresholds, c: float,
                  kind: PaymentKind, gamma0: float, sigma0: float,
                  solver: SolverSpec) -> tuple[float, float, int, float]:
    def func(x):
        if not -300.0 < x[1] < 300.0:  # keep exp(log sigma) representable
            return np.array([np.inf, np.inf])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return _system_residuals(x[0], float(np.exp(x[1])), stats, th,
                                         c, kind)
        except OverflowError:
            return np.array([np.inf, np.inf])

    root = solve_2d(func, (gamma0, math.log(sigma0)), solver)
    gamma_hat, sigma_hat = root.x[0], math.exp(root.x[1])
    return gamma_hat, sigma_hat, root.iterations, root.residual


def _finish_fit(gamma_hat: float, sigma_hat: float, stats: MomentSummary,
                th: NormalThresholds, kind: PaymentKind, iterations: int,
                residual: float, level: float, method: str,
                extras: dict | None = None) -> FitResult:
    theta_hat = th.t - sigma_hat * gamma_hat
    xi_hat = _xi_of(gamma_hat, sigma_hat, th)
    cov = _cov_from_xi(gamma_hat, xi_hat, sigma_hat, kind)
    result = FitResult(
        gamma_hat=gamma_hat, sigma_hat=sigma_hat, theta_hat=theta_hat,
        cov=cov, n=stats.n, ci_theta=(math.nan, math.nan),
        ci_sigma=(math.nan, math.nan), level=level, iterations=iterations,
        converged=True, method=method, extras=extras or {})
    result.extras.setdefault("residual", residual)
    result.ci_theta, result.ci_sigma = confidence_intervals(result, level)
    return result


def fit_mle_y(sample: PaymentSample, solver: SolverSpec | None = None,
              level: float = 0.95) -> FitResult:
    """Maximum-likelihood fit of a per-payment sample.

    The start point uses the interior moments: ``sigma`` from their spread
    and ``gamma`` from the standardized mean.  A degenerate spread falls
    back to ten percent of the mean.
    """
    _require_kind(sample, PaymentKind.PER_PAYMENT, "fit_mle_y")
    solver = solver or SolverSpec()
    stats = MomentSummary.from_sample(sample)
    if stats.n1 < 2:
        raise EstimationError("need at least two interior observations")
    c = sample.policy.c
    m1 = stats.mu1 / c
    m2 = stats.mu2 / c ** 2
    spread = m2 - m1 ** 2
    sigma0 = math.sqrt(spread) if spread > 0 else 0.1 * m1
    gamma0 = -m1 / sigma0
    gamma_hat, sigma_hat, iters, res = _solve_system(
        stats, sample.thresholds, c, sample.kind, gamma0, sigma0, solver)
    return _finish_fit(gamma_hat, sigma_hat, stats, sample.thresholds,
                       sample.kind, iters, res, level, "mle",
                       extras={"start": (gamma0, sigma0)})


def fit_mle_z(sample: PaymentSample, solver: SolverSpec | None = None,
              level: float = 0.95) -> FitResult:
    """Maximum-likelihood fit of a per-loss sample.

    With both zero and censored records present, the start point inverts
    the empirical zero and censoring frequencies.  Without censored
    records the left-truncation closed form seeds the solver.  A sample
    with neither zeros nor censored records carries no truncation signal,
    so the fit falls back to the complete-data normal MLE of the interior
    values.  Samples with censored records but no zeros reuse the
    moment-based start of the per-payment fit.
    """
    _require_kind(sample, PaymentKind.PER_LOSS, "fit_mle_z")
    solver = solver or SolverSpec()
    stats = MomentSummary.from_sample(sample)
    if stats.n1 < 2:
        raise EstimationError("need at least two interior observations")
    th = sample.thresholds
    c = sample.policy.c
    m1 = stats.mu1 / c
    m2 = stats.mu2 / c ** 2

    if stats.n0 == 0 and stats.n2 == 0:
        # no atoms observed: plain normal MLE on the interior values
        interior = sample.interior_values / c + th.t
        theta_hat = float(np.mean(interior))
        sigma_hat = float(np.sqrt(np.mean((interior - theta_hat) ** 2)))
        gamma_hat = (th.t - theta_hat) / sigma_hat
        cov = np.array([[sigma_hat ** 2, 0.0], [0.0, sigma_hat ** 2 / 2.0]])
        result = FitResult(
            gamma_hat=gamma_hat, sigma_hat=sigma_hat, theta_hat=theta_hat,
            cov=cov, n=stats.n, ci_theta=(math.nan, math.nan),
            ci_sigma=(math.nan, math.nan), level=level, iterations=0,
            converged=True, method="mle-complete",
            extras={"note": "no zero or censored records; complete-data fit"})
        result.ci_theta, result.ci_sigma = confidence_intervals(result, level)
        return result

    if stats.n0 > 0 and stats.n2 > 0:
        gamma0 = std_normal_quantile(stats.n0 / stats.n)
        xi0 = std_normal_quantile(1.0 - stats.n2 / stats.n)
        sigma0 = th.R / (xi0 - gamma0)
    elif stats.n2 == 0:
        gamma0, sigma0 = _left_truncated_solution(m1, m2)
    else:  # censored records but no zeros: moment-based start
        spread = m2 - m1 ** 2
        sigma0 = math.sqrt(spread) if spread > 0 else 0.1 * m1
        gamma0 = -m1 / sigma0

    gamma_hat, sigma_hat, iters, res = _solve_system(
        stats, th, c, sample.kind, gamma0, sigma0, solver)
    return _finish_fit(gamma_hat, sigma_hat, stats, th, sample.kind,
                       iters, res, level, "mle",
                       extras={"start": (gamma0, sigma0)})


# ---------------------------------------------------------------------------
# expected information and covariances
# ---------------------------------------------------------------------------

def _band_quantities(gamma: float, xi: float):
    sf_g = std_normal_sf(gamma)
    if math.isfinite(xi):
        band = sf_g - std_normal_sf(xi)
        if not band > 0.0:
            raise DegenerateBandError(
                f"no probability between the standardized truncation point "
                f"{gamma:.6g} and censoring point {xi:.6g}")
        lam = band / sf_g
        omega1 = std_normal_pdf(gamma) / band
        omega2 = std_normal_pdf(xi) / band
    else:
        lam = 1.0
        omega1 = normal_hazard(gamma)
        omega2 = 0.0
    return lam, omega1, omega2


def _curvature(gamma: float, xi: float, kind: PaymentKind):
    """Curvature terms of the per-observation expected Hessian, and their weight.

    Returns ``(lam, weight, (g1, g2, g3))``; the information in
    ``(gamma, sigma)`` is ``-weight * [[g1, g2/sigma], [g2/sigma,
    g3/sigma^2]]``.  A per-loss observation is a per-payment one with
    probability ``sf(gamma)``, plus the binomial indicator of a zero: the
    weight gains the factor ``sf(gamma)`` and ``g1`` the binomial term,
    which adds ``pdf^2 / (cdf sf)`` to the (gamma, gamma) entry.
    """
    lam, o1, o2 = _band_quantities(gamma, xi)
    lower = normal_hazard(gamma)
    if math.isfinite(xi):
        upper = normal_hazard(xi)
        rs = xi - gamma  # R / sigma
        g1 = -(1.0 + gamma * o1 - xi * o2 - lower * o1 + upper * o2)
        g2 = rs * o2 * (upper - xi) + (o1 - o2 - gamma)
        g3 = rs ** 2 * o2 * (xi - upper) - (2.0 - gamma * (o1 - o2 - gamma) - o2 * rs)
    else:
        g1 = -(1.0 + gamma * o1 - lower * o1)
        g2 = o1 - gamma
        g3 = -(2.0 - gamma * (o1 - gamma))
    if kind is PaymentKind.PER_PAYMENT:
        return lam, lam, (g1, g2, g3)
    # lam sf o1 = pdf(gamma) and pdf / (cdf sf) = hazard(gamma) + hazard(-gamma),
    # so this adds pdf^2 / (cdf sf) to the (gamma, gamma) information
    g1 -= o1 * (lower + normal_hazard(-gamma))
    return lam, lam * std_normal_sf(gamma), (g1, g2, g3)


def _fisher(gamma: float, sigma: float, thresholds: NormalThresholds,
            kind: PaymentKind) -> tuple[FisherComponents, np.ndarray]:
    _check_sigma(sigma)
    lam, weight, comps = _curvature(gamma, _xi_of(gamma, sigma, thresholds), kind)
    g1, g2, g3 = comps
    info = -weight * np.array([[g1, g2 / sigma], [g2 / sigma, g3 / sigma ** 2]])
    return FisherComponents(lam=lam, components=comps, kind=kind), info


def fisher_y(gamma: float, sigma: float,
             thresholds: NormalThresholds) -> tuple[FisherComponents, np.ndarray]:
    """Expected information per observation for the per-payment variable."""
    return _fisher(gamma, sigma, thresholds, PaymentKind.PER_PAYMENT)


def fisher_z(gamma: float, sigma: float,
             thresholds: NormalThresholds) -> tuple[FisherComponents, np.ndarray]:
    """Expected information per observation for the per-loss variable."""
    return _fisher(gamma, sigma, thresholds, PaymentKind.PER_LOSS)


def _cov_from_xi(gamma: float, xi: float, sigma: float,
                 kind: PaymentKind) -> np.ndarray:
    _, weight, (g1, g2, g3) = _curvature(gamma, xi, kind)
    disc = g1 * g3 - g2 ** 2
    if disc == 0.0 or not math.isfinite(disc):
        raise SingularMatrixError("information components are singular")
    prefactor = 1.0 / (weight * disc)
    inner = np.array([[-g3, sigma * g2], [sigma * g2, -sigma ** 2 * g1]])
    dmat = np.array([[-sigma, -gamma], [0.0, 1.0]])
    cov = prefactor * dmat @ inner @ dmat.T
    return 0.5 * (cov + cov.T)  # exact symmetry despite rounding


def cov_mle_y(gamma: float, sigma: float,
              thresholds: NormalThresholds) -> np.ndarray:
    """Asymptotic covariance of the per-payment MLE of ``(theta, sigma)``."""
    _check_sigma(sigma)
    return _cov_from_xi(gamma, _xi_of(gamma, sigma, thresholds), sigma,
                        PaymentKind.PER_PAYMENT)


def cov_mle_z(gamma: float, sigma: float,
              thresholds: NormalThresholds) -> np.ndarray:
    """Asymptotic covariance of the per-loss MLE of ``(theta, sigma)``."""
    _check_sigma(sigma)
    return _cov_from_xi(gamma, _xi_of(gamma, sigma, thresholds), sigma,
                        PaymentKind.PER_LOSS)


def cov_left_truncated(gamma: float, sigma: float,
                       kind: PaymentKind) -> np.ndarray:
    """Asymptotic MLE covariance for contracts without a policy limit."""
    _check_sigma(sigma)
    return _cov_from_xi(gamma, math.inf, sigma, kind)


# ---------------------------------------------------------------------------
# left-truncation-only closed form
# ---------------------------------------------------------------------------

def truncated_moment_ratio(gamma):
    """Second moment over squared mean of the excess beyond the truncation point.

    For a normal variable ``X`` truncated at ``t`` with standardized
    truncation point ``gamma``, this is ``E[(X-t)^2] / E[(X-t)]^2`` — a
    strictly increasing function with limits 1 (as ``gamma -> -inf``) and
    2 (as ``gamma -> +inf``).  Inverting it solves the no-limit estimating
    system in a single scalar variable.
    """
    gamma = np.asarray(gamma, dtype=float)
    inv_mean = 1.0 / (normal_hazard(gamma) - gamma)
    out = inv_mean * (inv_mean - gamma)
    return float(out) if out.ndim == 0 else out


def _left_truncated_solution(m1: float, m2: float,
                             solver: SolverSpec | None = None) -> tuple[float, float]:
    delta = m2 / m1 ** 2
    if not 1.0 < delta < 2.0:
        raise NoMleError(
            f"moment ratio {delta:.6g} outside (1, 2): the truncated-normal "
            "likelihood has no interior maximum", delta=delta)
    gamma_hat = solve_monotone_scalar(truncated_moment_ratio, delta,
                                      bracket=(-8.0, 8.0), spec=solver)
    sigma_hat = m1 / (normal_hazard(gamma_hat) - gamma_hat)
    return gamma_hat, sigma_hat


def fit_left_truncated(sample: PaymentSample, solver: SolverSpec | None = None,
                       level: float = 0.95) -> FitResult:
    """Closed-form MLE for samples from contracts without a policy limit.

    Valid only when the moment ratio of the interior values lies strictly
    inside (1, 2); the solution is the global maximum of the likelihood.
    For per-loss samples the zero-frequency ratios are replaced by their
    model probabilities to reach the single-variable form; when zeros are
    present the exact two-equation solution is recorded alongside under
    ``extras["unsubstituted"]`` whenever the two differ materially.
    """
    if not sample.thresholds.unlimited:
        raise DomainError("left-truncation closed form requires an unlimited contract")
    solver = solver or SolverSpec()
    stats = MomentSummary.from_sample(sample)
    c = sample.policy.c
    m1 = stats.mu1 / c
    m2 = stats.mu2 / c ** 2
    gamma_hat, sigma_hat = _left_truncated_solution(m1, m2, solver)
    extras: dict = {"delta": m2 / m1 ** 2, "global_maximum": True}

    if stats.n0 > 0:  # only per-loss samples hold zeros
        try:
            g_ex, s_ex, _, _ = _solve_system(stats, sample.thresholds, c,
                                             sample.kind, gamma_hat, sigma_hat,
                                             solver)
            t = sample.thresholds.t
            if max(abs((t - s_ex * g_ex) - (t - sigma_hat * gamma_hat)),
                   abs(s_ex - sigma_hat)) > 1e-6:
                extras["unsubstituted"] = (t - s_ex * g_ex, s_ex)
        except EstimationError:
            pass

    return _finish_fit(gamma_hat, sigma_hat, stats, sample.thresholds,
                       sample.kind, 0, 0.0, level, "mle-left-truncated", extras)


def confidence_intervals(fit: FitResult, level: float) -> tuple[tuple[float, float],
                                                                tuple[float, float]]:
    """Asymptotic confidence intervals for ``theta`` and ``sigma``.

    ``theta`` gets the usual symmetric interval.  ``sigma`` gets a
    log-transformed (multiplicative) interval, guaranteeing a positive
    lower bound even when the symmetric one would cross zero.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    if fit.cov is None:
        raise EstimationError("fit was computed without covariance work")
    z = std_normal_quantile(0.5 + level / 2.0)
    se_t = math.sqrt(fit.cov[0, 0] / fit.n)
    se_s = math.sqrt(fit.cov[1, 1] / fit.n)
    ci_theta = (fit.theta_hat - z * se_t, fit.theta_hat + z * se_t)
    k = math.exp(z * se_s / fit.sigma_hat)
    ci_sigma = (fit.sigma_hat / k, fit.sigma_hat * k)
    return ci_theta, ci_sigma
