"""Numerical kernels: normal special functions and root finding.

Everything in this module is a pure function of its inputs, so concurrent
use from multiple threads is safe.  The statistical modules build on these
primitives; the package evaluates no integral numerically and calls no
scipy optimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import (
    ConvergenceError,
    DomainError,
    NoSolutionError,
    SingularMatrixError,
)

__all__ = [
    "SolverSpec",
    "Root2d",
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_sf",
    "std_normal_log_sf",
    "std_normal_log_cdf",
    "std_normal_quantile",
    "normal_hazard",
    "solve_monotone_scalar",
    "solve_bracketed_newton",
    "solve_2d",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class SolverSpec:
    """Stopping rules for the root finders.

    Attributes
    ----------
    residual_tol : float
        Accept a root once the residual norm falls below this.
    step_tol : float
        Declare stagnation once the step size falls below this.
    max_iterations : int
        Iteration cap.
    damping : float
        Initial Newton step fraction in (0, 1]; halved on non-decrease.
    """

    residual_tol: float = 1e-10
    step_tol: float = 1e-12
    max_iterations: int = 200
    damping: float = 1.0

    def __post_init__(self):
        if not (self.residual_tol > 0 and self.step_tol > 0):
            raise DomainError("solver tolerances must be strictly positive")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")
        if not (0.0 < self.damping <= 1.0):
            raise DomainError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class Root2d:
    """Root of a two-dimensional system plus solver diagnostics."""

    x: tuple[float, float]
    iterations: int
    residual: float

    def __iter__(self):
        return iter(self.x)


def std_normal_pdf(x):
    """Density of the standard normal distribution, ``exp(-x^2/2)/sqrt(2*pi)``."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal distribution function, accurate to ~1 ulp via ``erf``."""
    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_sf(x):
    """Upper tail probability ``1 - cdf(x)``, computed without cancellation."""
    out = special.ndtr(-np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_log_sf(x):
    """Logarithm of the upper tail probability, stable far into the tail."""
    out = special.log_ndtr(-np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_log_cdf(x):
    """Logarithm of the distribution function, stable far into the left tail."""
    out = special.log_ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of :func:`std_normal_cdf` on (0, 1).

    Raises
    ------
    DomainError
        If any probability lies outside the open unit interval.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(~((p_arr > 0.0) & (p_arr < 1.0))):
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    out = special.ndtri(p_arr)
    return float(out) if out.ndim == 0 else out


def normal_hazard(x):
    """Normal hazard rate ``pdf(x) / sf(x)``.

    Uses the scaled complementary error function, so it stays accurate for
    arguments far in the right tail where both numerator and denominator
    underflow.  ``normal_hazard(-x)`` gives ``pdf(x)/cdf(x)``.
    """
    x = np.asarray(x, dtype=float)
    out = _SQRT_2_OVER_PI / special.erfcx(x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def solve_monotone_scalar(f: Callable[[float], float], target: float,
                          bracket: tuple[float, float],
                          spec: SolverSpec | None = None) -> float:
    """Solve ``f(x) = target`` for a strictly monotone ``f``.

    The initial bracket is expanded geometrically until it straddles the
    target; a bisection/secant hybrid then drives the residual below
    ``spec.residual_tol``.

    Raises
    ------
    NoSolutionError
        If no straddling bracket can be found (target outside the range
        of ``f``, e.g. beyond a horizontal asymptote).
    """
    spec = spec or SolverSpec()
    lo, hi = float(min(bracket)), float(max(bracket))
    if lo == hi:
        hi = lo + 1.0
    g_lo = f(lo) - target
    g_hi = f(hi) - target

    increasing = g_hi >= g_lo
    for _ in range(200):
        if g_lo == 0.0:
            return lo
        if g_hi == 0.0:
            return hi
        if g_lo * g_hi < 0.0:
            break
        width = hi - lo
        grow_hi = (g_hi < 0.0) if increasing else (g_hi > 0.0)
        if grow_hi:
            hi += 2.0 * width
            g_hi = f(hi) - target
        else:
            lo -= 2.0 * width
            g_lo = f(lo) - target
        if not (math.isfinite(lo) and math.isfinite(hi)):
            break
    else:
        raise NoSolutionError(
            f"target {target} appears to be outside the range of the function")
    if g_lo * g_hi > 0.0:
        raise NoSolutionError(
            f"target {target} appears to be outside the range of the function")

    for _ in range(max(200, spec.max_iterations)):
        # secant proposal, clipped into the bracket; fall back to bisection
        denom = g_hi - g_lo
        if denom != 0.0:
            x = hi - g_hi * (hi - lo) / denom
        else:
            x = 0.5 * (lo + hi)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        g = f(x) - target
        if abs(g) <= spec.residual_tol:
            return x
        if (g < 0.0) == (g_lo < 0.0):
            lo, g_lo = x, g
        else:
            hi, g_hi = x, g
        if hi - lo <= spec.step_tol * max(1.0, abs(lo), abs(hi)):
            x = 0.5 * (lo + hi)
            if abs(f(x) - target) <= spec.residual_tol:
                return x
            raise ConvergenceError(
                "bracket collapsed before the residual tolerance was met",
                last=x, residual=abs(f(x) - target))
    raise ConvergenceError("scalar solve exceeded its iteration budget",
                           last=0.5 * (lo + hi), residual=abs(f(0.5 * (lo + hi)) - target))


def solve_bracketed_newton(fdf: Callable[[float], tuple[float, float] | None],
                           start: float, upper: float,
                           spec: SolverSpec | None = None) -> tuple[float, int]:
    """Root of an ``f`` that is positive below its root and negative above.

    ``fdf(x)`` returns ``(f(x), f'(x))``, or None where ``f`` cannot be
    evaluated; that region must lie above every point where it can.  Newton
    steps start at ``min(start, upper)`` inside a bracket ``lo < root <
    hi``, with ``hi = upper`` at first.  A step that would leave the
    bracket, or that does not halve the previous step once both ends are
    sign changes, is replaced by bisection, or by a unit step down while no
    point with ``f > 0`` is known (a safeguard in the manner of Brent 1973,
    ch. 4).  The search ends once ``|f| <= spec.step_tol * max(1, |x|)``
    or the bracket is no wider than ``spec.step_tol * max(1, |lo|, |hi|)``.

    Returns
    -------
    (x, evaluations)
        The last point where ``f`` was evaluated, and the number of calls
        to ``fdf``.

    Raises
    ------
    NoSolutionError
        If the bracket closes on a point where ``f`` cannot be evaluated:
        ``f`` stays positive wherever it can.
    ConvergenceError
        If ``spec.max_iterations`` calls do not close the bracket; ``last``
        is the last point where ``f`` was evaluated.
    """
    spec = spec or SolverSpec()
    lo, hi = -math.inf, upper
    edge = True  # hi bounds where f can be evaluated, not a point with f < 0
    x = min(start, upper)
    step = last_step = math.inf
    evaluated = None
    for it in range(1, spec.max_iterations + 1):
        newton = math.nan
        value = fdf(x)
        if value is None:
            hi, edge = x, True
        else:
            evaluated = x
            f, df = value
            if abs(f) <= spec.step_tol * max(1.0, abs(x)):
                return x, it
            if f > 0.0:
                lo = x
            else:
                hi, edge = x, False
            if df < 0.0:
                newton = x - f / df
        if lo > -math.inf and hi - lo <= spec.step_tol * max(1.0, abs(lo), abs(hi)):
            if edge:
                raise NoSolutionError(
                    "the function stays positive wherever it can be evaluated")
            return x, it
        last_step, step = step, abs(newton - x)
        open_end = lo == -math.inf or edge
        if not (lo < newton < hi and (open_end or step <= 0.5 * last_step)):
            if lo == -math.inf:  # no point with f > 0 yet: step down
                step = max(1.0, abs(hi))
                newton = hi - step
            else:
                step = 0.5 * (hi - lo)
                newton = lo + step
        x = newton
    raise ConvergenceError("bracketed Newton search exceeded its iteration budget",
                           last=evaluated, iterations=spec.max_iterations)


def _residual_norm(f: np.ndarray) -> float:
    """Euclidean norm of a residual vector; ``inf`` when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.linalg.norm(f))
    return res if math.isfinite(res) else math.inf


def _fd_jacobian(func, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian, step ``max(1e-6, 1e-6 |x_j|)``."""
    n = x.size
    jac = np.empty((fx.size, n))
    for j in range(n):
        h = max(1e-6, 1e-6 * abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(func(xp), dtype=float)
                     - np.asarray(func(xm), dtype=float)) / (2.0 * h)
    return jac


def solve_2d(func: Callable[[np.ndarray], Sequence[float]],
             start: Sequence[float],
             spec: SolverSpec | None = None) -> Root2d:
    """Damped Newton iteration for a two-equation system.

    Parameters
    ----------
    func : callable
        Maps a length-2 array to a length-2 residual vector.
    start : sequence of two floats
        Initial iterate, supplied by the calling module.
    spec : SolverSpec, optional

    Returns
    -------
    Root2d
        Root, iteration count, and final residual norm.  A start that
        already satisfies the residual tolerance is returned unchanged
        with an iteration count of zero.

    Raises
    ------
    SingularMatrixError
        If the finite-difference Jacobian is singular.
    ConvergenceError
        If the iteration budget runs out or damping cannot find a
        residual decrease; the last iterate rides on the exception.
    """
    spec = spec or SolverSpec()
    x = np.asarray(start, dtype=float).copy()
    fx = np.asarray(func(x), dtype=float)
    res = _residual_norm(fx)
    if not np.all(np.isfinite(fx)):
        raise ConvergenceError("system is not finite at the start point",
                               last=tuple(x), residual=res, iterations=0)
    if res <= spec.residual_tol:
        return Root2d(x=(x[0], x[1]), iterations=0, residual=res)

    for it in range(1, spec.max_iterations + 1):
        jac = _fd_jacobian(func, x, fx)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"singular Jacobian at iterate {tuple(x)}") from exc
        if not np.all(np.isfinite(step)):
            raise SingularMatrixError(f"non-finite Newton step at iterate {tuple(x)}")

        lam = spec.damping
        accepted = False
        for _ in range(60):
            x_new = x + lam * step
            f_new = np.asarray(func(x_new), dtype=float)
            res_new = _residual_norm(f_new)
            if res_new < res:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise ConvergenceError(
                "damping failed to reduce the residual",
                last=tuple(x), residual=res, iterations=it)

        step_size = float(np.linalg.norm(lam * step))
        x, fx, res = x_new, f_new, res_new
        if res <= spec.residual_tol:
            return Root2d(x=(x[0], x[1]), iterations=it, residual=res)
        if step_size <= spec.step_tol * max(1.0, float(np.linalg.norm(x))):
            break

    raise ConvergenceError(
        f"no convergence after {spec.max_iterations} iterations",
        last=tuple(x), residual=res, iterations=spec.max_iterations)
