"""Sample generation and the Monte Carlo efficiency study harness.

Samples are drawn by pushing uniforms through the payment quantile
functions, so the atom shares at zero and at the censoring point match
the model exactly.  Each replication owns an independent, counter-derived
random stream keyed by ``(seed, replication)``: results are bit-for-bit
reproducible and independent of how replications are scheduled.
"""
from __future__ import annotations

import functools
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._variants import VARIANTS
from .efficiency import are_pair, finite_re, mle_asymptotic_cov
from .errors import DomainError, EstimationError, TrimValidationError
from .mtm import TrimSpec
from .payments import (
    GroundUpLognormal,
    PaymentKind,
    PaymentSample,
    PolicySpec,
    derive_thresholds,
)

__all__ = [
    "EstimatorSpec",
    "StudyConfig",
    "StudyCell",
    "StudyResult",
    "generate_sample",
    "run_study",
]

#: Cells excluding more than this share of replications get flagged.
EXCLUSION_WARNING_RATE = 0.05


def generate_sample(model: GroundUpLognormal, policy: PolicySpec,
                    variant: PaymentKind, n: int,
                    rng: np.random.Generator) -> PaymentSample:
    """Draw a payment sample of size n through the quantile function."""
    dist = VARIANTS[variant].dist(model, policy)
    u = rng.random(n)
    values = dist.qf(u)
    if variant is PaymentKind.PER_PAYMENT:
        n2 = int(np.sum(u >= dist.s_star))
        n0 = 0
    else:
        n0 = int(np.sum(u <= dist.cdf(0.0)))
        n2 = int(np.sum(u >= dist.s_star))
    n1 = n - n0 - n2
    return PaymentSample(kind=variant, values=np.sort(values), n0=n0, n1=n1,
                         n2=n2, policy=policy, thresholds=dist.thresholds)


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator entry of a study: the MLE or a trimmed-moment variant."""

    method: str
    trim: TrimSpec | None = None

    def __post_init__(self):
        if self.method not in ("mle", "mtm", "mtm-plugin"):
            raise DomainError(f"unknown estimator method {self.method!r}")
        if self.method != "mle" and self.trim is None:
            raise DomainError("trimmed-moment estimators need trimming fractions")

    @property
    def label(self) -> str:
        if self.method == "mle":
            return "MLE"
        return f"{self.method.upper()} {self.trim}"

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        parts = text.split()
        if parts[0] == "mle":
            return cls(method="mle")
        if parts[0] in ("mtm", "mtm-plugin") and len(parts) == 3:
            return cls(method=parts[0], trim=TrimSpec(parts[1], parts[2]))
        raise DomainError(f"cannot parse estimator {text!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Full description of a Monte Carlo efficiency study."""

    model: GroundUpLognormal
    policy: PolicySpec
    variant: PaymentKind
    sample_sizes: tuple[int, ...]
    replications: int
    estimators: tuple[EstimatorSpec, ...]
    seed: int

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("need at least one replication")
        if any(n < 10 for n in self.sample_sizes):
            raise DomainError("sample sizes below 10 are not supported")
        if not self.estimators:
            raise DomainError("need at least one estimator")

    @classmethod
    def from_file(cls, path: str) -> "StudyConfig":
        """Parse a plain-text ``key = value`` configuration file.

        Recognized keys: ``variant`` (y or z), ``w0``, ``theta``, ``sigma``,
        ``coinsurance``, ``deductible``, ``limit`` (omit or ``inf`` for
        none), ``sample_sizes`` (comma separated), ``replications``,
        ``seed``, and one ``estimator`` line per estimator (``mle`` or
        ``mtm A B`` or ``mtm-plugin A B``).
        """
        values: dict[str, str] = {}
        estimators: list[EstimatorSpec] = []
        with open(path, "r", encoding="utf-8") as fobj:
            for lineno, raw in enumerate(fobj, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key, val = key.strip().lower(), val.strip()
                try:
                    if key == "estimator":
                        estimators.append(EstimatorSpec.parse(val))
                    else:
                        values[key] = val
                except Exception as exc:
                    raise DomainError(f"{path}:{lineno}: {exc}") from exc

        def need(key: str) -> str:
            if key not in values:
                raise DomainError(f"{path}: missing required key {key!r}")
            return values[key]

        try:
            variant = {"y": PaymentKind.PER_PAYMENT,
                       "z": PaymentKind.PER_LOSS}[need("variant").lower()]
            model = GroundUpLognormal(w0=float(values.get("w0", "0")),
                                      theta=float(need("theta")),
                                      sigma=float(need("sigma")))
            limit = values.get("limit", "inf")
            policy = PolicySpec(c=float(values.get("coinsurance", "1")),
                                d=float(need("deductible")),
                                u=math.inf if limit.lower() in ("inf", "none", "")
                                else float(limit))
            sizes = tuple(int(tok) for tok in need("sample_sizes").split(","))
            config = cls(model=model, policy=policy, variant=variant,
                         sample_sizes=sizes,
                         replications=int(values.get("replications", "1000")),
                         estimators=tuple(estimators),
                         seed=int(values.get("seed", "0")))
        except DomainError:
            raise
        except Exception as exc:
            raise DomainError(f"{path}: {exc}") from exc
        return config


@dataclass
class StudyCell:
    """Aggregates for one (estimator, sample size) pair."""

    estimator: str
    n: int
    mean_theta_ratio: float
    mean_sigma_ratio: float
    se_theta_ratio: float
    se_sigma_ratio: float
    re: float
    n_used: int
    n_excluded: int
    flagged: bool

    @property
    def exclusion_rate(self) -> float:
        total = self.n_used + self.n_excluded
        return self.n_excluded / total if total else 0.0


@dataclass
class StudyResult:
    """All cells of a study plus the analytic large-sample column."""

    config: StudyConfig
    cells: list[StudyCell]
    are_limit: dict[str, float]
    warnings: list[str] = field(default_factory=list)

    def cell(self, estimator_label: str, n: int) -> StudyCell:
        for cell in self.cells:
            if cell.estimator == estimator_label and cell.n == n:
                return cell
        raise KeyError((estimator_label, n))

    def to_csv(self, out) -> None:
        """Wide table: one row per estimator and statistic, one column per n."""
        close = False
        if isinstance(out, (str, bytes)):
            out = open(out, "w", encoding="utf-8")
            close = True
        sizes = list(self.config.sample_sizes)
        try:
            out.write("estimator,a,b,statistic,"
                      + ",".join(f"n={n}" for n in sizes) + ",limit\n")
            for est in self.config.estimators:
                label = est.label
                a = "" if est.trim is None else f"{est.trim.a:.6g}"
                b = "" if est.trim is None else f"{est.trim.b:.6g}"
                rows = {
                    "theta_ratio": [f"{self.cell(label, n).mean_theta_ratio:.4f}"
                                    for n in sizes] + ["1"],
                    "sigma_ratio": [f"{self.cell(label, n).mean_sigma_ratio:.4f}"
                                    for n in sizes] + ["1"],
                    "re": [f"{self.cell(label, n).re:.4f}" for n in sizes]
                    + [f"{self.are_limit[label]:.3f}"],
                    "exclusion_rate": [f"{self.cell(label, n).exclusion_rate:.4f}"
                                       for n in sizes] + [""],
                }
                for stat, cols in rows.items():
                    out.write(f"{label},{a},{b},{stat}," + ",".join(cols) + "\n")
        finally:
            if close:
                out.close()

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _fitter(est: EstimatorSpec, variant: PaymentKind):
    """The study's fit of one estimator, as a function of the sample alone.

    Window validation is not applied: study configurations satisfy the
    population-level window condition by design, and per-replication
    fluctuations of the atom counts must not censor the study.  Raises
    ``DomainError`` for a method the variant does not have.
    """
    entry = VARIANTS[variant]
    if est.method == "mle":
        return entry.fit_mle
    return functools.partial(entry.mtm_fitter(est.method), trim=est.trim,
                             validate=False, with_cov=False)


def _run_replication(config: StudyConfig, rep: int) -> np.ndarray:
    """All fits of one replication; shape (n_estimators, n_sizes, 2)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=(int(config.seed), int(rep)))))
    fits = [_fitter(est, config.variant) for est in config.estimators]
    out = np.full((len(config.estimators), len(config.sample_sizes), 2), np.nan)
    for j, n in enumerate(config.sample_sizes):
        sample = generate_sample(config.model, config.policy, config.variant,
                                 n, rng)
        for i, fit in enumerate(fits):
            try:
                result = fit(sample)
            except (EstimationError, TrimValidationError):
                continue  # an excluded replication: the entry stays NaN
            out[i, j, :] = result.theta_hat, result.sigma_hat
    return out


def run_study(config: StudyConfig, workers: int | None = None) -> StudyResult:
    """Run the full study and aggregate ratio means and efficiencies.

    Replications where an estimator fails are dropped for that estimator
    only, and the per-cell exclusion rate is reported; rates above
    five percent raise a warning flag on the cell.  ``workers`` (default:
    the ``LOSSFIT_WORKERS`` environment variable, else 1) distributes
    replications across processes without changing any result.  An
    estimator the variant does not have raises ``DomainError`` before any
    sample is drawn.
    """
    for est in config.estimators:
        _fitter(est, config.variant)
    if workers is None:
        workers = int(os.environ.get("LOSSFIT_WORKERS", "1"))
    reps = config.replications
    results = np.full((reps, len(config.estimators), len(config.sample_sizes), 2),
                      np.nan)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rep, arr in enumerate(pool.map(_run_replication,
                                               [config] * reps, range(reps),
                                               chunksize=max(1, reps // (8 * workers)))):
                results[rep] = arr
    else:
        for rep in range(reps):
            results[rep] = _run_replication(config, rep)

    theta, sigma = config.model.theta, config.model.sigma
    s_mle = mle_asymptotic_cov(config.model, config.policy, config.variant)
    th = derive_thresholds(config.policy, config.model.w0)

    cov_mtm = VARIANTS[config.variant].cov_mtm
    are_limit = {est.label: 1.0 if est.method == "mle"
                 else are_pair(s_mle, cov_mtm(theta, sigma, th, est.trim))
                 for est in config.estimators}

    cells: list[StudyCell] = []
    warnings: list[str] = []
    for i, est in enumerate(config.estimators):
        for j, n in enumerate(config.sample_sizes):
            block = results[:, i, j, :]
            ok = ~np.isnan(block[:, 0])
            used = block[ok]
            n_used = int(ok.sum())
            n_excluded = reps - n_used
            flagged = n_excluded / reps > EXCLUSION_WARNING_RATE
            if flagged:
                warnings.append(
                    f"{est.label} at n={n}: excluded {n_excluded}/{reps} "
                    "replications")
            if n_used >= 2:
                ratios = used / np.array([theta, sigma])
                mean_r = ratios.mean(axis=0)
                se_r = ratios.std(axis=0, ddof=1) / math.sqrt(n_used)
                re = finite_re(used, (theta, sigma), s_mle, n)
            else:
                mean_r = np.array([math.nan, math.nan])
                se_r = np.array([math.nan, math.nan])
                re = math.nan
            cells.append(StudyCell(
                estimator=est.label, n=n,
                mean_theta_ratio=float(mean_r[0]),
                mean_sigma_ratio=float(mean_r[1]),
                se_theta_ratio=float(se_r[0]), se_sigma_ratio=float(se_r[1]),
                re=float(re), n_used=n_used, n_excluded=n_excluded,
                flagged=flagged))
    return StudyResult(config=config, cells=cells, are_limit=are_limit,
                       warnings=warnings)
