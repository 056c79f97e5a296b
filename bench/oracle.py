"""Independent reference computations for the benchmark's output checks.

Nothing here calls into ``lossfit``: every quantity is recomputed from the
normal distribution of ``scipy.stats`` and closed forms, so a check that
passes says the program agrees with the mathematics, not with itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.stats import kstwobign, norm

# ---------------------------------------------------------------------------
# trimmed-moment coefficients in closed form
# ---------------------------------------------------------------------------

def _z_pdf(z: float) -> float:
    """z * pdf(z), taken as 0 at +-inf."""
    return 0.0 if math.isinf(z) else z * norm.pdf(z)


def window_coefficients(gamma: float, a: float, b: float) -> tuple[float, float]:
    """c1, c2 of the standard normal quantile over the window [a, 1 - b].

    The quantile is psi(s) = Phi^-1(s + (1 - s) Phi(gamma)); gamma = -inf
    gives the complete-data coefficients.  Substituting z = psi(s) turns
    the window averages into partial normal moments over
    [psi(a), psi(1 - b)], written in the tail-stable form
    psi(s) = isf((1 - s) sf(gamma)).
    """
    tail = 1.0 if gamma == -math.inf else float(norm.sf(gamma))
    za = float(norm.isf(tail * (1.0 - a)))
    zb = float(norm.isf(tail * b))
    mass = tail * (1.0 - a - b)
    m1 = float(norm.pdf(za) - norm.pdf(zb))
    m2 = mass + _z_pdf(za) - _z_pdf(zb)
    return m1 / mass, m2 / mass


def trimmed_moments(x_sorted: np.ndarray, m_lo: int, m_hi: int) -> tuple[float, float]:
    window = x_sorted[m_lo:x_sorted.size - m_hi]
    return float(np.mean(window)), float(np.mean(window ** 2))


def complete_mtm(mu1: float, mu2: float, a: float, b: float) -> tuple[float, float]:
    """Closed-form trimmed-moment estimate (theta, sigma) for complete data."""
    c1, c2 = window_coefficients(-math.inf, a, b)
    sigma = math.sqrt((mu2 - mu1 ** 2) / (c2 - c1 ** 2))
    return mu1 - c1 * sigma, sigma


def mtm_y_residuals(theta: float, sigma: float, mu1: float, mu2: float,
                    t: float, a: float, b: float,
                    gamma: float | None = None) -> tuple[float, float]:
    """Scale-free residuals of the two per-payment trimmed-moment equations.

    mu1 = theta + sigma c1(gamma) and mu2 - mu1^2 = sigma^2 (c2 - c1^2),
    with gamma = (t - theta)/sigma unless a frozen gamma is given.
    """
    g = (t - theta) / sigma if gamma is None else gamma
    c1, c2 = window_coefficients(g, a, b)
    return ((mu1 - theta - sigma * c1) / sigma,
            (mu2 - mu1 ** 2 - sigma ** 2 * (c2 - c1 ** 2)) / sigma ** 2)


# ---------------------------------------------------------------------------
# censored normal likelihood and Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def censored_loglik(theta: float, sigma: float, x_interior: np.ndarray,
                    n0: int, n2: int, t: float, T: float,
                    truncated: bool) -> float:
    """Log-likelihood of log ground-up losses censored at t (zeros) and T.

    ``truncated`` selects per-payment data: no zeros are observed and
    every record is conditioned on exceeding t.
    """
    ll = float(np.sum(norm.logpdf(x_interior, theta, sigma)))
    if n0:
        ll += n0 * float(norm.logcdf(t, theta, sigma))
    if n2:
        ll += n2 * float(norm.logsf(T, theta, sigma))
    if truncated:
        ll -= (x_interior.size + n2) * float(norm.logsf(t, theta, sigma))
    return ll


def stationarity(loglik, theta: float, sigma: float) -> tuple[float, np.ndarray]:
    """Newton step length in standard-error units, and Hessian eigenvalues.

    The step -H^-1 g measured in the metric of the observed information
    -H is sqrt(g' (-H)^-1 g): zero at a maximum, and the distance to it in
    standard errors nearby.  Derivatives are central differences.
    """
    def f(dx, dy):
        return loglik(theta + dx, sigma + dy)

    h = 1e-4 * sigma
    g = np.array([(f(h, 0) - f(-h, 0)) / (2 * h), (f(0, h) - f(0, -h)) / (2 * h)])
    k = 1e-3 * sigma
    f00 = f(0, 0)
    hxx = (f(k, 0) - 2 * f00 + f(-k, 0)) / k ** 2
    hyy = (f(0, k) - 2 * f00 + f(0, -k)) / k ** 2
    hxy = (f(k, k) - f(k, -k) - f(-k, k) + f(-k, -k)) / (4 * k ** 2)
    hess = np.array([[hxx, hxy], [hxy, hyy]])
    eig = np.linalg.eigvalsh(hess)
    if not np.all(eig < 0):
        return math.inf, eig
    return math.sqrt(max(0.0, float(g @ np.linalg.solve(-hess, g)))), eig


def ks_distance(x_sorted: np.ndarray, theta: float, sigma: float,
                t: float, T: float, truncated: bool) -> float:
    """Sup distance between the empirical and the fitted cdf of log losses.

    Records sit on [t, T]: zeros at t (per-loss), censored payments at T.
    The fitted cdf has an atom at t (per-loss) and at T; the supremum is
    checked from both sides of every record and of T.
    """
    n = x_sorted.size
    grid = np.unique(np.append(x_sorted, T))
    cont = norm.cdf(grid, theta, sigma)
    if truncated:
        base = float(norm.cdf(t, theta, sigma))
        cont = (cont - base) / (1.0 - base)
    right = np.where(grid >= T, 1.0, cont)
    left = cont.copy()
    if not truncated:
        left = np.where(grid <= t, 0.0, left)
    emp_right = np.searchsorted(x_sorted, grid, side="right") / n
    emp_left = np.searchsorted(x_sorted, grid, side="left") / n
    return float(np.max(np.maximum(np.abs(emp_right - right),
                                   np.abs(emp_left - left))))


def ks_reject(distance: float, n: int, level: float) -> int:
    return int(distance > float(kstwobign.isf(level)) / math.sqrt(n))
