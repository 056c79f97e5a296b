"""Trimmed-moment estimation for the two payment variables.

The method matches trimmed sample moments of the order statistics against
their population counterparts.  Trimming removes the probability atoms
that truncation and censoring place at the edges of the payment support,
which buys robustness at a quantifiable efficiency cost.

Per-payment fits (estimation from the uncensored interior only) lead to
an implicit two-equation system because the population coefficients
depend on the unknown standardized truncation point, and the system
reduces to one monotone equation in that point; per-loss fits reduce
to the complete-data closed form once the trimming fractions cover the
atoms at zero and at the censoring point.  Every coefficient, its
truncation derivatives and the covariance stars are closed forms in the
partial normal moments over the trimming window, so no integral is
evaluated numerically.  The admissible window for the trimming fractions
is checked empirically before fitting and re-checked parametrically
after, mirroring how the fractions are chosen in practice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import (
    ConvergenceError,
    DomainError,
    EstimationError,
    NoSolutionError,
    SingularMatrixError,
    TrimValidationError,
)
from .mle import FitResult, _require_kind, confidence_intervals
from .numerics import (
    SolverSpec,
    normal_hazard,
    solve_bracketed_newton,
    std_normal_cdf,
    std_normal_log_sf,
    std_normal_sf,
)
from .payments import NormalThresholds, PaymentKind, PaymentSample

__all__ = [
    "TrimSpec",
    "CoefficientSet",
    "MtmCovarianceWork",
    "CoverageInfo",
    "TrimValidation",
    "trimmed_sample_moments",
    "coeff_c_y",
    "coeff_c_complete",
    "fit_mtm_y",
    "fit_mtm_y_plugin",
    "fit_mtm_z",
    "cov_mtm_y",
    "cov_mtm_z",
    "validate_trim_y",
    "validate_trim_z",
]

_ndtri = special.ndtri
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _parse_fraction(value) -> tuple[float, Fraction | None]:
    """Return (float value, exact Fraction when the input was rational)."""
    if isinstance(value, Fraction):
        return float(value), value
    if isinstance(value, str):
        frac = Fraction(value)
        return float(frac), frac
    if isinstance(value, int):
        return float(value), Fraction(value)
    return float(value), None


@dataclass(frozen=True)
class TrimSpec:
    """Lower and upper trimming fractions.

    Accepts floats, ``Fraction`` objects, or strings like ``"150/1451"``.
    Rational inputs keep exact arithmetic when converting fractions to
    order-statistic counts, so a trim of ``150/1451`` on 1451 records
    removes exactly 150 of them.
    """

    a: float
    b: float
    a_exact: Fraction | None = field(default=None, compare=False)
    b_exact: Fraction | None = field(default=None, compare=False)

    def __init__(self, a, b):
        a_f, a_frac = _parse_fraction(a)
        b_f, b_frac = _parse_fraction(b)
        if not (0.0 <= a_f < 1.0 and 0.0 <= b_f < 1.0):
            raise DomainError("trimming fractions must lie in [0, 1)")
        if a_f + b_f >= 1.0:
            raise DomainError("trimming fractions must satisfy a + b < 1")
        object.__setattr__(self, "a", a_f)
        object.__setattr__(self, "b", b_f)
        object.__setattr__(self, "a_exact", a_frac)
        object.__setattr__(self, "b_exact", b_frac)

    def counts(self, n: int) -> tuple[int, int]:
        """Counts of order statistics dropped from each tail of a sample of size n."""
        m_lo = _floor_fraction(n, self.a, self.a_exact)
        m_hi = _floor_fraction(n, self.b, self.b_exact)
        if m_lo + m_hi >= n:
            raise TrimValidationError(
                f"trimming ({self.a}, {self.b}) empties a sample of size {n}")
        return m_lo, m_hi

    def __str__(self) -> str:
        a = self.a_exact if self.a_exact is not None else self.a
        b = self.b_exact if self.b_exact is not None else self.b
        return f"({a}, {b})"


def _floor_fraction(n: int, value: float, exact: Fraction | None) -> int:
    if exact is not None:
        return math.floor(n * exact)
    x = n * value
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return math.floor(x)


@dataclass
class CoefficientSet:
    """Trimming coefficients of the standard normal quantile function.

    ``c1..c4`` are window averages of powers of the (possibly truncation-
    shifted) quantile function; ``c1_star..c3_star`` are the min-kernel
    double integrals feeding the moment covariance.  For per-payment data
    the coefficients depend on the standardized truncation point recorded
    in ``gamma_used`` (``-inf`` marks the complete-data case) and carry
    the partial derivatives needed for the delta-method Jacobian.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c1_star: float
    c2_star: float
    c3_star: float
    dc1_dtheta: float = 0.0
    dc2_dtheta: float = 0.0
    dc1_dsigma: float = 0.0
    dc2_dsigma: float = 0.0
    gamma_used: float = -math.inf


@dataclass
class MtmCovarianceWork:
    """Intermediate quantities of the per-payment covariance sandwich."""

    f11: float
    f12: float
    f21: float
    f22: float
    K: float
    d11: float
    d12: float
    d21: float
    d22: float
    sigma2_11: float
    sigma2_12: float
    sigma2_22: float


@dataclass
class CoverageInfo:
    """Empirical and parametric coverage of the payment support.

    For per-payment data the relevant quantity is the probability of an
    uncensored record (``s_star``); for per-loss data the cdf values at
    the two thresholds.  Parametric entries are ``None`` until a fitted
    model is supplied.
    """

    s_star_empirical: float
    s_star_parametric: float | None
    fn_t: float
    fn_T: float
    fx_t_hat: float | None
    fx_T_hat: float | None


@dataclass
class TrimValidation:
    coverage: CoverageInfo
    passed: bool
    empirical_passed: bool
    parametric_passed: bool | None
    messages: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# sample trimmed moments
# ---------------------------------------------------------------------------

def trimmed_sample_moments(sample: PaymentSample, trim: TrimSpec, j: int) -> float:
    """j-th trimmed moment of the sample on the shifted normal scale.

    Order statistics outside the trimming window are discarded; the rest
    are mapped through ``h(v) = v/c + t`` and averaged to the j-th power.
    """
    if j not in (1, 2):
        raise DomainError("moment order must be 1 or 2")
    return float(np.mean(_trimmed_window(sample, trim) ** j))


def _trimmed_window(sample: PaymentSample, trim: TrimSpec) -> np.ndarray:
    """The order statistics inside the trimming window, mapped by ``h``."""
    n = sample.n
    m_lo, m_hi = trim.counts(n)
    return sample.values[m_lo:n - m_hi] / sample.policy.c + sample.thresholds.t


def _trimmed_moments(sample: PaymentSample,
                     trim: TrimSpec) -> tuple[float, float, float]:
    """First two trimmed sample moments and their spread ``mu2 - mu1^2``."""
    h = _trimmed_window(sample, trim)
    mu1 = float(np.mean(h))
    mu2 = float(np.mean(h ** 2))
    spread = mu2 - mu1 ** 2
    if spread <= 0.0:
        raise EstimationError("trimmed moments have no spread; cannot identify sigma")
    return mu1, mu2, spread


def _match_moments(mu1: float, spread: float, c1: float,
                   c2: float) -> tuple[float, float]:
    """``(theta, sigma)`` matching the trimmed mean and spread at fixed coefficients.

    In the model the trimmed mean is ``theta + sigma c1`` and the trimmed
    spread ``sigma^2 (c2 - c1^2)``.
    """
    denom = c2 - c1 ** 2
    if denom <= 0.0:
        raise EstimationError("degenerate coefficients: c2 <= c1^2")
    sigma = math.sqrt(spread / denom)
    return mu1 - c1 * sigma, sigma


# ---------------------------------------------------------------------------
# trimming coefficients (closed form)
# ---------------------------------------------------------------------------

def _window_end(cdf_t: float, sf_t: float, s: float, one_minus_s: float) -> float:
    """``psi(s) = quantile(cdf_t + s * sf_t)``, read from the accurate tail.

    The right-tail form ``-quantile((1 - s) * sf_t)`` keeps full precision
    when the truncation point lies far in the right tail, where
    ``cdf_t + s * sf_t`` rounds to one.  Returned as a plain float, so the
    arithmetic downstream runs at Python float speed.
    """
    p = cdf_t + s * sf_t
    return float(_ndtri(p) if p < 0.5 else -_ndtri(one_minus_s * sf_t))


def _weighted_powers(weight: float, z: float, top: int = 4) -> list[float]:
    """``weight * z**j`` for j = 0..top, all zero for a zero weight even at |z| = inf."""
    if weight == 0.0:
        return [0.0] * (top + 1)
    return [weight * z ** j for j in range(top + 1)]


def _window(gamma: float, trim: TrimSpec, top: int) -> tuple[float, float, list[float]]:
    """Window ends ``z_a, z_b`` and the window averages ``c_1..c_top`` at gamma.

    Substituting ``z = psi(s)`` turns the window averages into partial
    normal moments over ``[z_a, z_b] = [psi(a), psi(1 - b)]``, which obey
    the recurrence ``M_k = (k-1) M_{k-2} + z_a^(k-1) pdf(z_a) - z_b^(k-1)
    pdf(z_b)`` with ``M_0 = tau * sf(gamma)``; every moment is kept divided
    by ``sf(gamma)`` so nothing underflows in the right tail.
    """
    a, b = trim.a, trim.b
    tau = 1.0 - a - b
    cdf_t = std_normal_cdf(gamma)
    sf_t = std_normal_sf(gamma)
    za = gamma if a == 0.0 else _window_end(cdf_t, sf_t, a, 1.0 - a)
    zb = _window_end(cdf_t, sf_t, 1.0 - b, b)
    if (a > 0.0 and not math.isfinite(za)) or (b > 0.0 and not math.isfinite(zb)):
        raise DomainError(
            f"trimming window {trim} is not representable at gamma={gamma:.6g}: "
            "the truncation point lies too far in the right tail")
    log_sf_t = std_normal_log_sf(gamma)

    def scaled_pdf(z: float) -> float:
        return 0.0 if math.isinf(z) else math.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_sf_t)

    ea = _weighted_powers(scaled_pdf(za), za, top - 1)
    eb = _weighted_powers(scaled_pdf(zb), zb, top - 1)
    m = [tau, ea[0] - eb[0]]
    for k in range(2, top + 1):
        m.append((k - 1) * m[k - 2] + ea[k - 1] - eb[k - 1])
    return za, zb, [mk / tau for mk in m[1:]]


def _dc_dtheta(gamma: float, trim: TrimSpec, za: float, zb: float, c1: float,
               c2: float, sigma: float) -> tuple[float, float] | None:
    """Location derivatives of ``c1`` and ``c2``; None where the hazard vanishes.

    ``dc_k/dgamma = hazard * (b z_b^k - (1 - a) z_a^k + tau c_k) / tau``,
    and ``gamma = (t - theta) / sigma``.  The hazard vanishes in the
    complete-data case ``gamma = -inf``.
    """
    hazard = normal_hazard(gamma)
    if not hazard > 0.0:
        return None
    a, b = trim.a, trim.b
    tau = 1.0 - a - b
    bq = _weighted_powers(b, zb, 2)
    return (-hazard * (bq[1] - (1.0 - a) * za + tau * c1) / (tau * sigma),
            -hazard * (bq[2] - (1.0 - a) * za ** 2 + tau * c2) / (tau * sigma))


def _pass_coefficients(gamma: float,
                       trim: TrimSpec) -> tuple[float, float, float, float, float, float]:
    """``(z_a, z_b, c1, c2, dc1/dgamma, dc2/dgamma)``: all one solver pass reads.

    The same window arithmetic as :func:`_coefficients`, so the values
    equal ``coeff_c_y``'s bit for bit, without the higher moments and
    stars that only the covariance needs.
    """
    za, zb, (c1, c2) = _window(gamma, trim, 2)
    d1, d2 = _dc_dtheta(gamma, trim, za, zb, c1, c2, 1.0) or (0.0, 0.0)
    return za, zb, c1, c2, -d1, -d2


def _coefficients(gamma: float, trim: TrimSpec, sigma: float) -> CoefficientSet:
    """Every trimming coefficient at standardized truncation point gamma.

    ``c1..c4`` come from :func:`_window`.  The variance of a trimmed mean
    depends on the quantile function only through its window ends
    (Stigler 1973, Ann. Statist. 1:472), so the stars take the
    complete-data closed form with ``q_a = z_a`` and ``q_b = z_b``.
    ``gamma = -inf`` gives the complete-data case, whose derivatives are
    zero.
    """
    a, b = trim.a, trim.b
    tau = 1.0 - a - b
    za, zb, (c1, c2, c3, c4) = _window(gamma, trim, 4)
    aq, bq = _weighted_powers(a, za), _weighted_powers(b, zb)
    abar, bbar = 1.0 - a, 1.0 - b
    c1s = (abar * aq[2] + bbar * bq[2] - 2.0 * aq[1] * bq[1]
           - 2.0 * tau * c1 * (aq[1] + bq[1])
           - tau ** 2 * c1 ** 2 + tau * c2) / tau ** 2
    c2s = (abar * aq[3] + bbar * bq[3] - aq[2] * bq[1] - aq[1] * bq[2]
           - tau * c1 * (aq[2] + bq[2])
           - tau * c2 * (aq[1] + bq[1])
           - tau ** 2 * c1 * c2 + tau * c3) / (2.0 * tau ** 2)
    c3s = (abar * aq[4] + bbar * bq[4] - 2.0 * aq[2] * bq[2]
           - 2.0 * tau * c2 * (aq[2] + bq[2])
           - tau ** 2 * c2 ** 2 + tau * c4) / (4.0 * tau ** 2)
    cset = CoefficientSet(c1=c1, c2=c2, c3=c3, c4=c4,
                          c1_star=c1s, c2_star=c2s, c3_star=c3s, gamma_used=gamma)
    slopes = _dc_dtheta(gamma, trim, za, zb, c1, c2, sigma)
    if slopes is not None:
        cset.dc1_dtheta, cset.dc2_dtheta = slopes
        cset.dc1_dsigma, cset.dc2_dsigma = gamma * slopes[0], gamma * slopes[1]
    return cset


def coeff_c_y(gamma: float, trim: TrimSpec, sigma: float = 1.0) -> CoefficientSet:
    """Per-payment trimming coefficients at standardized truncation point gamma.

    The window average runs over the quantile function evaluated at
    ``s + (1 - s) * cdf(gamma)``, which collapses to the complete-data
    coefficients as ``gamma -> -inf``.  Alongside ``c1..c4`` and the
    stars, derivatives with respect to the location are returned for the
    first two coefficients; the scale derivatives follow from the chain
    rule (``d/dsigma = gamma * d/dtheta`` at fixed thresholds).  ``sigma``
    only scales the derivative values.  Zero trimming fractions are
    analytic limits.
    """
    if not math.isfinite(gamma):
        raise DomainError("gamma must be finite; use coeff_c_complete for the limit")
    return _coefficients(gamma, trim, sigma)


def coeff_c_complete(trim: TrimSpec) -> CoefficientSet:
    """Complete-data trimming coefficients, including the stars, in closed form."""
    return _coefficients(-math.inf, trim, 1.0)

# ---------------------------------------------------------------------------
# per-payment fit (implicit system)
# ---------------------------------------------------------------------------

def _require_window(verdict: TrimValidation) -> None:
    """Raise when the empirical window condition failed."""
    if not verdict.empirical_passed:
        raise TrimValidationError("; ".join(verdict.messages))


#: Upper end of the search in gamma.  sf(gamma) underflows to zero at
#: about 38.5, so beyond that no window with a or b > 0 is representable.
_GAMMA_MAX = 40.0


def _solve_mtm_y(mu1: float, spread: float, t: float, trim: TrimSpec,
                 solver: SolverSpec) -> tuple[float, float, int]:
    """``(theta, sigma, passes)`` solving the per-payment trimmed-moment equations.

    At coefficients fixed at gamma, :func:`_match_moments` gives ``(theta,
    sigma)``, so the system is the scalar root of ``h(gamma) = k s(gamma)
    + c1(gamma) - gamma`` with ``k = (t - mu1) / sqrt(spread)`` and ``s =
    sqrt(c2 - c1^2)``; ``|h|`` is the move a fixed-point pass would still
    make.  As ``h = s (k - K(gamma))`` with ``K = (gamma - c1) / s``
    strictly increasing, ``h`` changes sign once, from positive to
    negative, when ``k`` lies below the limit of ``K``.  The root is found
    by :func:`~lossfit.numerics.solve_bracketed_newton` from ``gamma = k``,
    with the search capped where the window stops being representable.
    """
    k = (t - mu1) / math.sqrt(spread)
    c12 = {}  # (c1, c2) at each gamma where h was evaluated

    def h_and_slope(gamma: float) -> tuple[float, float] | None:
        try:
            _, _, c1, c2, d1, d2 = _pass_coefficients(gamma, trim)
        except DomainError:
            return None
        var = c2 - c1 * c1
        if var <= 0.0:
            raise EstimationError(
                f"degenerate coefficients at gamma={gamma:.4g}: c2 <= c1^2")
        s = math.sqrt(var)
        c12[gamma] = c1, c2
        return k * s + c1 - gamma, k * (d2 - 2.0 * c1 * d1) / (2.0 * s) + d1 - 1.0

    try:
        gamma, passes = solve_bracketed_newton(h_and_slope, k, _GAMMA_MAX, solver)
    except NoSolutionError as exc:
        raise NoSolutionError(
            f"no trimmed-moment solution for trim {trim}: k = (t - mu1) / "
            f"sqrt(spread) = {k:.6g} is at or above the limit of "
            "(gamma - c1) / sqrt(c2 - c1^2)") from exc
    except ConvergenceError as exc:
        raise ConvergenceError(
            "trimmed-moment root in gamma not found",
            last=None if exc.last is None else _match_moments(mu1, spread, *c12[exc.last]),
            iterations=exc.iterations) from exc
    return (*_match_moments(mu1, spread, *c12[gamma]), passes)


def fit_mtm_y(sample: PaymentSample, trim: TrimSpec,
              solver: SolverSpec | None = None,
              level: float = 0.95, validate: bool = True,
              with_cov: bool = True) -> FitResult:
    """Trimmed-moment fit of a per-payment sample.

    The two trimmed-moment equations reduce to one monotone scalar
    equation in the standardized truncation point, solved by safeguarded
    Newton steps on the closed-form coefficients and their
    gamma-derivatives (see :func:`_solve_mtm_y`); ``iterations`` counts
    coefficient passes and ``solver`` sets their cap and tolerances.  A
    sample with no solution raises ``NoSolutionError``: its trimmed mean
    lies too close above the truncation point, relative to its trimmed
    spread, for any gamma the kernel can represent (``k`` is at or above
    the limit of ``K``).

    With ``validate`` set, the empirical window condition is enforced
    before fitting and the parametric condition is re-checked at the
    fitted parameters, with the verdict stored under
    ``extras["validation"]``.
    """
    _require_kind(sample, PaymentKind.PER_PAYMENT, "fit_mtm_y")
    if validate:
        _require_window(validate_trim_y(sample, trim))
    mu1, _, spread = _trimmed_moments(sample, trim)
    theta, sigma, iterations = _solve_mtm_y(mu1, spread, sample.thresholds.t,
                                            trim, solver or SolverSpec())
    return _finish_mtm(sample, trim, theta, sigma, iterations, level, "mtm",
                       cov_mtm_y if with_cov else None,
                       validate_trim_y if validate else None)


def fit_mtm_y_plugin(sample: PaymentSample, trim: TrimSpec,
                     level: float = 0.95, validate: bool = True,
                     with_cov: bool = True) -> FitResult:
    """One-shot per-payment fit with the truncation probability plugged in.

    The truncation-dependent coefficients are evaluated once at the
    moment-based start values and frozen, after which the estimator has
    the complete-data closed form: no iteration is needed.  The price is a
    small perturbation relative to the fully implicit fit.
    """
    _require_kind(sample, PaymentKind.PER_PAYMENT, "fit_mtm_y_plugin")
    if validate:
        _require_window(validate_trim_y(sample, trim))
    mu1, _, spread = _trimmed_moments(sample, trim)
    gamma0 = (sample.thresholds.t - mu1) / math.sqrt(spread)
    cset = coeff_c_y(gamma0, trim)
    theta_hat, sigma_hat = _match_moments(mu1, spread, cset.c1, cset.c2)
    return _finish_mtm(sample, trim, theta_hat, sigma_hat, 0, level,
                       "mtm-plugin", cov_mtm_y if with_cov else None,
                       validate_trim_y if validate else None, frozen_gamma=gamma0)


def _finish_mtm(sample: PaymentSample, trim: TrimSpec, theta: float,
                sigma: float, iterations: int, level: float, method: str,
                cov, validator, **extras) -> FitResult:
    """The result of a trimmed-moment fit of either variant.

    ``cov(theta, sigma, thresholds, trim)`` gives the covariance and
    ``validator`` re-checks the window at the fit; each is skipped when None.
    """
    result = FitResult(
        gamma_hat=(sample.thresholds.t - theta) / sigma, sigma_hat=sigma,
        theta_hat=theta, cov=None, n=sample.n, ci_theta=(math.nan, math.nan),
        ci_sigma=(math.nan, math.nan), level=level, iterations=iterations,
        converged=True, method=method, extras={"trim": trim, **extras})
    if cov is not None:
        result.cov = cov(theta, sigma, sample.thresholds, trim)
        result.ci_theta, result.ci_sigma = confidence_intervals(result, level)
    if validator is not None:
        result.extras["validation"] = validator(sample, trim, result)
    return result


def cov_mtm_y(theta: float, sigma: float, thresholds: NormalThresholds,
              trim: TrimSpec, return_work: bool = False):
    """Asymptotic covariance of the per-payment trimmed-moment estimator.

    Assembles the delta-method sandwich: the moment covariance from the
    min-kernel coefficients, and the Jacobian of the estimator with
    respect to the two trimmed moments by implicit differentiation of the
    defining equations (the coefficients move with the parameters through
    the standardized truncation point).
    """
    if not sigma > 0:
        raise DomainError("sigma must be strictly positive")
    gamma = (thresholds.t - theta) / sigma
    cset = coeff_c_y(gamma, trim, sigma=sigma)
    c1, c2 = cset.c1, cset.c2
    f11 = 1.0 + sigma * cset.dc1_dtheta
    f12 = c1 + sigma * cset.dc1_dsigma
    f21 = cset.dc2_dtheta - 2.0 * c1 * cset.dc1_dtheta
    f22 = cset.dc2_dsigma - 2.0 * c1 * cset.dc1_dsigma
    if f11 == 0.0:
        raise SingularMatrixError("implicit system is singular (f11 = 0)")
    mu1 = theta + sigma * c1
    mu2 = theta ** 2 + 2.0 * theta * sigma * c1 + sigma ** 2 * c2
    cvar = c2 - c1 ** 2
    mvar = mu2 - mu1 ** 2
    if cvar <= 0.0 or mvar <= 0.0:
        raise SingularMatrixError("degenerate coefficient or moment spread")
    kfac = 0.5 * math.sqrt(cvar / mvar)
    den = f11 * cvar ** 2 + kfac * mvar * (f11 * f22 - f12 * f21)
    if den == 0.0:
        raise SingularMatrixError("implicit Jacobian denominator vanished")
    d21 = -kfac * (2.0 * f11 * mu1 * cvar + f21 * mvar) / den
    d22 = kfac * f11 * cvar / den
    d11 = (1.0 - f12 * d21) / f11
    d12 = -f12 * d22 / f11

    c1s, c2s, c3s = cset.c1_star, cset.c2_star, cset.c3_star
    s11 = sigma ** 2 * c1s
    s12 = 2.0 * theta * sigma ** 2 * c1s + 2.0 * sigma ** 3 * c2s
    s22 = (4.0 * theta ** 2 * sigma ** 2 * c1s
           + 8.0 * theta * sigma ** 3 * c2s + 4.0 * sigma ** 4 * c3s)
    dmat = np.array([[d11, d12], [d21, d22]])
    sig = np.array([[s11, s12], [s12, s22]])
    cov = dmat @ sig @ dmat.T
    cov = 0.5 * (cov + cov.T)  # exact symmetry despite rounding
    if not (cov[0, 0] > 0.0 and cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2 > 0.0):
        raise SingularMatrixError(
            f"covariance is not positive definite at gamma={gamma:.6g}: its "
            "terms cancel beyond double precision")
    if return_work:
        work = MtmCovarianceWork(f11=f11, f12=f12, f21=f21, f22=f22, K=kfac,
                                 d11=d11, d12=d12, d21=d21, d22=d22,
                                 sigma2_11=s11, sigma2_12=s12, sigma2_22=s22)
        return cov, work
    return cov


# ---------------------------------------------------------------------------
# per-loss fit (closed form)
# ---------------------------------------------------------------------------

def fit_mtm_z(sample: PaymentSample, trim: TrimSpec,
              level: float = 0.95, validate: bool = True,
              with_cov: bool = True) -> FitResult:
    """Trimmed-moment fit of a per-loss sample, in closed form.

    Requires the trimming window to exclude both atoms (at least ``n0``
    records trimmed below, ``n2`` above); the estimator then coincides
    with the complete-data one and needs no iteration.
    """
    _require_kind(sample, PaymentKind.PER_LOSS, "fit_mtm_z")
    if validate:
        _require_window(validate_trim_z(sample, trim))
    mu1, mu2, spread = _trimmed_moments(sample, trim)
    cset = coeff_c_complete(trim)
    theta_hat, sigma_hat = _match_moments(mu1, spread, cset.c1, cset.c2)
    residual = (abs(mu1 - (theta_hat + cset.c1 * sigma_hat)),
                abs(mu2 - (theta_hat ** 2 + 2 * theta_hat * sigma_hat * cset.c1
                           + sigma_hat ** 2 * cset.c2)))
    return _finish_mtm(sample, trim, theta_hat, sigma_hat, 0, level, "mtm",
                       _cov_mtm_z if with_cov else None,
                       validate_trim_z if validate else None, residual=max(residual))


def _cov_mtm_z(theta, sigma, thresholds, trim):
    """``cov_mtm_z`` behind the per-payment signature; only the scale enters."""
    return cov_mtm_z(sigma, trim)


def cov_mtm_z(sigma: float, trim: TrimSpec) -> np.ndarray:
    """Asymptotic covariance of the per-loss trimmed-moment estimator.

    Only the scale enters; with the atoms trimmed away the estimator and
    its covariance match the complete-data case.
    """
    if not sigma > 0:
        raise DomainError("sigma must be strictly positive")
    cset = coeff_c_complete(trim)
    c1, c2 = cset.c1, cset.c2
    c1s, c2s, c3s = cset.c1_star, cset.c2_star, cset.c3_star
    denom = c2 - c1 ** 2
    if denom <= 0.0:
        raise SingularMatrixError("degenerate coefficient spread: c2 <= c1^2")
    m11 = c1s * c2 ** 2 - 2.0 * c1 * c2 * c2s + c1 ** 2 * c3s
    m12 = -c1s * c1 * c2 + c2 * c2s + c1 ** 2 * c2s - c1 * c3s
    m22 = c1s * c1 ** 2 - 2.0 * c1 * c2s + c3s
    return sigma ** 2 / denom ** 2 * np.array([[m11, m12], [m12, m22]])


# ---------------------------------------------------------------------------
# dynamic trimming validation
# ---------------------------------------------------------------------------

def validate_trim_y(sample: PaymentSample, trim: TrimSpec,
                    fitted: FitResult | None = None) -> TrimValidation:
    """Check the per-payment window condition, empirically and parametrically.

    The upper trimming fraction must at least cover the censored share of
    the distribution: ``1 - b <= s_star``, judged against the empirical
    share ``n1/n`` and, once a fit is available, against the parametric
    share implied by the fitted model.  The count condition
    ``m_upper >= n2`` is enforced alongside.
    """
    _require_kind(sample, PaymentKind.PER_PAYMENT, "validate_trim_y")
    n = sample.n
    s_emp = sample.n1 / n
    messages: list[str] = []
    _, m_hi = trim.counts(n)
    empirical = True
    if trim.b == 0.0 and not sample.thresholds.unlimited:
        empirical = False
        messages.append("b = 0 is only admissible without a policy limit")
    if m_hi < sample.n2:
        empirical = False
        messages.append(
            f"upper trim count {m_hi} leaves {sample.n2 - m_hi} censored records "
            "inside the window")
    if 1.0 - trim.b > s_emp + 1e-12:
        empirical = False
        messages.append(
            f"1 - b = {1 - trim.b:.4f} exceeds the empirical uncensored share "
            f"{s_emp:.4f}")

    s_par = None
    parametric = None
    if fitted is not None:
        th = sample.thresholds
        p_t = std_normal_cdf((th.t - fitted.theta_hat) / fitted.sigma_hat)
        p_T = (std_normal_cdf((th.T - fitted.theta_hat) / fitted.sigma_hat)
               if math.isfinite(th.T) else 1.0)
        s_par = (p_T - p_t) / (1.0 - p_t)
        parametric = 1.0 - trim.b <= s_par + 1e-12
        if not parametric:
            messages.append(
                f"1 - b = {1 - trim.b:.4f} exceeds the parametric uncensored "
                f"share {s_par:.4f}")
    coverage = CoverageInfo(
        s_star_empirical=s_emp, s_star_parametric=s_par,
        fn_t=0.0, fn_T=(n - sample.n2) / n,
        fx_t_hat=None if fitted is None else std_normal_cdf(
            (sample.thresholds.t - fitted.theta_hat) / fitted.sigma_hat),
        fx_T_hat=None if fitted is None or not math.isfinite(sample.thresholds.T)
        else std_normal_cdf(
            (sample.thresholds.T - fitted.theta_hat) / fitted.sigma_hat))
    passed = empirical and (parametric is not False)
    return TrimValidation(coverage=coverage, passed=passed,
                          empirical_passed=empirical,
                          parametric_passed=parametric, messages=messages)


def validate_trim_z(sample: PaymentSample, trim: TrimSpec,
                    fitted: FitResult | None = None) -> TrimValidation:
    """Check the per-loss window condition, empirically and parametrically.

    The window must clear both atoms: the lower fraction at least the cdf
    at the deductible, the upper at least one minus the cdf at the limit,
    judged empirically (and parametrically once a fit is supplied).  The
    count conditions ``m_lower >= n0`` and ``m_upper >= n2`` are enforced
    alongside.
    """
    _require_kind(sample, PaymentKind.PER_LOSS, "validate_trim_z")
    n = sample.n
    fn_t = sample.n0 / n
    fn_T = (sample.n0 + sample.n1) / n
    messages: list[str] = []
    m_lo, m_hi = trim.counts(n)
    empirical = True
    if m_lo < sample.n0:
        empirical = False
        messages.append(
            f"lower trim count {m_lo} leaves {sample.n0 - m_lo} zero records "
            "inside the window")
    if m_hi < sample.n2:
        empirical = False
        messages.append(
            f"upper trim count {m_hi} leaves {sample.n2 - m_hi} censored records "
            "inside the window")
    if trim.a + 1e-12 < fn_t:
        empirical = False
        messages.append(f"a = {trim.a:.4f} is below the empirical zero share {fn_t:.4f}")
    if 1.0 - trim.b > fn_T + 1e-12:
        empirical = False
        messages.append(
            f"1 - b = {1 - trim.b:.4f} exceeds the empirical sub-limit share {fn_T:.4f}")

    fx_t = fx_T = None
    parametric = None
    if fitted is not None:
        th = sample.thresholds
        fx_t = std_normal_cdf((th.t - fitted.theta_hat) / fitted.sigma_hat)
        fx_T = (std_normal_cdf((th.T - fitted.theta_hat) / fitted.sigma_hat)
                if math.isfinite(th.T) else 1.0)
        parametric = (trim.a + 1e-12 >= fx_t) and (1.0 - trim.b <= fx_T + 1e-12)
        if not parametric:
            messages.append(
                f"parametric condition failed: needs {fx_t:.4f} <= a and "
                f"1 - b <= {fx_T:.4f}")
    coverage = CoverageInfo(
        s_star_empirical=(fn_T - fn_t) / (1.0 - fn_t) if fn_t < 1.0 else 0.0,
        s_star_parametric=None if fx_t is None else (fx_T - fx_t) / (1.0 - fx_t),
        fn_t=fn_t, fn_T=fn_T, fx_t_hat=fx_t, fx_T_hat=fx_T)
    passed = empirical and (parametric is not False)
    return TrimValidation(coverage=coverage, passed=passed,
                          empirical_passed=empirical,
                          parametric_passed=parametric, messages=messages)
