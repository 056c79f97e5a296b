"""Relative efficiency of trimmed-moment estimators against the MLE.

Asymptotic comparisons take the square root of the ratio of covariance
determinants, with the MLE in the numerator so values at or below one
reflect its optimality.  Finite-sample comparisons replace the competitor
determinant with that of an empirical mean-squared-error matrix from
replicated fits.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularMatrixError
from .mle import cov_mle_y, cov_mle_z
from .mtm import TrimSpec, cov_mtm_y, cov_mtm_z
from .payments import GroundUpLognormal, PaymentKind, PolicySpec, derive_thresholds

__all__ = [
    "AreRequest",
    "AreTable",
    "are_pair",
    "are_table",
    "finite_re",
    "mle_asymptotic_cov",
]


def are_pair(s_mle: np.ndarray, s_alt: np.ndarray) -> float:
    """Asymptotic relative efficiency: sqrt(det(s_mle) / det(s_alt)).

    Both arguments must be positive definite 2x2 covariance matrices.
    """
    det_mle = float(np.linalg.det(np.asarray(s_mle, dtype=float)))
    det_alt = float(np.linalg.det(np.asarray(s_alt, dtype=float)))
    if det_mle <= 0.0 or det_alt <= 0.0:
        raise SingularMatrixError("covariance determinants must be positive")
    return math.sqrt(det_mle / det_alt)


def mle_asymptotic_cov(model: GroundUpLognormal, policy: PolicySpec,
                       variant: PaymentKind) -> np.ndarray:
    """MLE covariance of (theta, sigma) at the model's true parameters."""
    th = derive_thresholds(policy, model.w0)
    gamma = (th.t - model.theta) / model.sigma
    if variant is PaymentKind.PER_PAYMENT:
        return cov_mle_y(gamma, model.sigma, th)
    return cov_mle_z(gamma, model.sigma, th)


@dataclass(frozen=True)
class AreRequest:
    """A grid of trimming fractions to score against the MLE."""

    model: GroundUpLognormal
    policy: PolicySpec
    variant: PaymentKind
    grid: tuple[TrimSpec, ...]

    @classmethod
    def from_axes(cls, model, policy, variant, a_values, b_values) -> "AreRequest":
        grid = tuple(TrimSpec(a, b) for a in a_values for b in b_values)
        return cls(model=model, policy=policy, variant=variant, grid=grid)


@dataclass
class AreTable:
    """Grid of efficiency values, organized like a two-way table."""

    variant: PaymentKind
    cells: dict[tuple[float, float], float]
    errors: dict[tuple[float, float], str] = field(default_factory=dict)

    @property
    def a_values(self) -> list[float]:
        keys = set(self.cells) | set(self.errors)
        return sorted({a for a, _ in keys})

    @property
    def b_values(self) -> list[float]:
        keys = set(self.cells) | set(self.errors)
        return sorted({b for _, b in keys})

    def value(self, a: float, b: float) -> float:
        return self.cells[(float(a), float(b))]

    def to_csv(self, out) -> None:
        """Write the grid with a header row of b values and a leading a column."""
        close = False
        if isinstance(out, (str, bytes)):
            out = open(out, "w", encoding="utf-8")
            close = True
        try:
            out.write("a/b," + ",".join(f"{b:g}" for b in self.b_values) + "\n")
            for a in self.a_values:
                row = [f"{a:g}"]
                for b in self.b_values:
                    if (a, b) in self.cells:
                        row.append(f"{self.cells[(a, b)]:.3f}")
                    else:
                        row.append("NA")
                out.write(",".join(row) + "\n")
        finally:
            if close:
                out.close()

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def are_table(req: AreRequest) -> AreTable:
    """Score every trimming pair in the request against the MLE.

    Cells that fail (inadmissible fractions, a singular covariance) are
    recorded in ``errors`` and left out of ``cells``; one bad cell never
    aborts the table.  Cells are independent, so evaluation order does
    not matter.
    """
    model, policy = req.model, req.policy
    th = derive_thresholds(policy, model.w0)
    s_mle = mle_asymptotic_cov(model, policy, req.variant)
    cells: dict[tuple[float, float], float] = {}
    errors: dict[tuple[float, float], str] = {}
    for trim in req.grid:
        key = (trim.a, trim.b)
        try:
            if req.variant is PaymentKind.PER_PAYMENT:
                s_alt = cov_mtm_y(model.theta, model.sigma, th, trim)
            else:
                s_alt = cov_mtm_z(model.sigma, trim)
            cells[key] = are_pair(s_mle, s_alt)
        except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
            errors[key] = f"{type(exc).__name__}: {exc}"
    return AreTable(variant=req.variant, cells=cells, errors=errors)


def finite_re(estimates, truth: tuple[float, float], s_mle: np.ndarray,
              n: int) -> float:
    """Finite-sample efficiency of replicated estimates relative to the MLE.

    The numerator is the root determinant of the asymptotic MLE
    covariance; the denominator the root determinant of the empirical
    mean-squared-error matrix of the replicated estimates, centered at
    the true parameters and scaled by the sample size ``n``.  A degenerate
    (all exact) set of estimates returns ``inf``.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 2 or est.shape[1] != 2 or est.shape[0] < 2:
        raise DomainError("need at least two (theta, sigma) estimate pairs")
    dev = est - np.asarray(truth, dtype=float)
    mse = dev.T @ dev / est.shape[0]
    det_mse = float(np.linalg.det(n * mse))
    det_mle = float(np.linalg.det(np.asarray(s_mle, dtype=float)))
    if det_mle <= 0.0:
        raise SingularMatrixError("MLE covariance determinant must be positive")
    if det_mse == 0.0:
        return math.inf
    if det_mse < 0.0:
        raise SingularMatrixError("empirical MSE matrix is not positive semidefinite")
    return math.sqrt(det_mle / det_mse)
