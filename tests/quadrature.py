"""Adaptive-quadrature oracles for the closed-form trimming coefficients.

The library computes every trimmed-moment coefficient in closed form.
These are the integral definitions those forms must reproduce, evaluated
by nested adaptive Gauss-Kronrod quadrature:

* ``c_y(gamma, a, b, k)``: the window average of ``psi(s)**k`` over
  ``(a, 1 - b)``, where ``psi(s) = quantile(s + (1 - s) * cdf(gamma))``;
* ``dc_y_dtheta(gamma, a, b, k, sigma)``: its location derivative;
* ``c_star_y(gamma, a, b)``: the min-kernel double integrals behind the
  moment covariance.

``gamma = -inf`` gives the complete-data coefficients.  Each call costs
milliseconds to seconds, which is why none of this lives in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate, special

from lossfit.errors import DomainError

_ndtri = special.ndtri
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class IntegrationError(Exception):
    """Quadrature failed to meet tolerance.

    ``estimate`` holds the best value reached, ``error_bound`` the
    estimated absolute error of that value.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for the adaptive integrators."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


def integrate_1d(f: Callable[[float], float], lo: float, hi: float,
                 spec: QuadratureSpec | None = None) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over ``(lo, hi)``.

    Raises ``IntegrationError``, carrying the best estimate, when the
    subdivision budget runs out before the tolerance is met.
    """
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise DomainError(f"integration limits must satisfy lo < hi, got ({lo}, {hi})")
    out = integrate.quad(f, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3:  # quad appended a warning message: tolerance not met
        raise IntegrationError(
            f"quadrature on ({lo}, {hi}) failed to converge: {out[3]}",
            estimate=value, error_bound=err)
    return value


def integrate_2d_square(k: Callable[[float, float], float], lo: float, hi: float,
                        spec: QuadratureSpec | None = None) -> float:
    """Integral of ``k(u, v)`` over the square ``(lo, hi) x (lo, hi)``.

    The min-kernels have a derivative kink along ``u = v``, so each inner
    integral is split there and runs over a single smooth piece.
    """
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise DomainError(f"integration limits must satisfy lo < hi, got ({lo}, {hi})")
    inner_spec = QuadratureSpec(abs_tol=0.1 * spec.abs_tol, rel_tol=0.1 * spec.rel_tol,
                                max_subdivisions=spec.max_subdivisions)

    def cross_section(u: float) -> float:
        below = integrate_1d(lambda v: k(u, v), lo, u, inner_spec) if u > lo else 0.0
        above = integrate_1d(lambda v: k(u, v), u, hi, inner_spec) if u < hi else 0.0
        return below + above

    return integrate_1d(cross_section, lo, hi, spec)


def _psi(gamma: float):
    p_t = special.ndtr(gamma)
    return lambda s: _ndtri(s + (1.0 - s) * p_t)


def _pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def c_y(gamma: float, a: float, b: float, k: int) -> float:
    """Window average of ``psi(s)**k`` over ``(a, 1 - b)``."""
    psi = _psi(gamma)
    return integrate_1d(lambda s: psi(s) ** k, a, 1.0 - b) / (1.0 - a - b)


def dc_y_dtheta(gamma: float, a: float, b: float, k: int, sigma: float = 1.0) -> float:
    """Location derivative of ``c_y`` at ``gamma = (t - theta) / sigma``."""
    psi = _psi(gamma)
    j = integrate_1d(lambda s: (1.0 - s) * psi(s) ** (k - 1) / _pdf(psi(s)),
                     a, 1.0 - b)
    return -k * _pdf(gamma) / (sigma * (1.0 - a - b)) * j


def c_star_y(gamma: float, a: float, b: float) -> tuple[float, float, float]:
    """Min-kernel double integrals for the per-payment moment covariance."""
    tau = 1.0 - a - b
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    psi = _psi(gamma)

    def weight(s: float) -> float:
        return 1.0 / _pdf(psi(s))

    def k1(u: float, v: float) -> float:
        return (min(u, v) - u * v) * weight(u) * weight(v)

    def k2(u: float, v: float) -> float:
        return (min(u, v) - u * v) * psi(u) * weight(u) * weight(v)

    def k3(u: float, v: float) -> float:
        return (min(u, v) - u * v) * psi(u) * weight(u) * psi(v) * weight(v)

    pref = (special.ndtr(-gamma) / tau) ** 2
    return (pref * integrate_2d_square(k1, a, 1.0 - b, spec),
            pref * integrate_2d_square(k2, a, 1.0 - b, spec),
            pref * integrate_2d_square(k3, a, 1.0 - b, spec))
