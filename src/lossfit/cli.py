"""Command-line front end: ingestion, fitting, efficiency tables, studies.

Subcommands
-----------
ingest       read a payment CSV, transform to the normal scale, summarize
fit          fit a model (mle, mtm, mtm-plugin) and report a full row
are          tabulate trimmed-moment efficiency against the MLE
simulate     run a Monte Carlo efficiency study from a config file
diagnostics  emit QQ pairs and a log-likelihood surface grid as CSV

Exit codes: 0 success, 1 unexpected failure, 2 usage, 3 data errors,
4 window-validation failures, 5 solver non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import math
import sys

import numpy as np

from . import __version__
from ._variants import VARIANTS
from .efficiency import AreRequest, are_pair, are_table
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    EstimationError,
    LossfitError,
    NoMleError,
    TrimValidationError,
)
from .gof import ks_statistic
from .mle import FitResult
from .mtm import TrimSpec
from .payments import (
    GroundUpLognormal,
    PaymentDistribution,
    PaymentKind,
    PaymentSample,
    PolicySpec,
    transform_to_normal,
)
from .simulation import StudyConfig, run_study

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VALIDATION = 4
EXIT_CONVERGENCE = 5


# ---------------------------------------------------------------------------
# ingestion helpers
# ---------------------------------------------------------------------------

def _add_ingestion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV file of payments")
    parser.add_argument("--column", default=None,
                        help="named column holding the payments "
                             "(default: single-column file)")
    parser.add_argument("--variant", choices=["y", "z"], required=True,
                        help="y = per-payment records, z = per-loss records")
    parser.add_argument("--deductible", type=float, required=True)
    parser.add_argument("--limit", type=float, default=None,
                        help="policy limit; omit when the contract has none")
    parser.add_argument("--coinsurance", type=float, default=1.0)
    parser.add_argument("--w0", type=float, default=0.0,
                        help="known location shift of the lognormal model")


def _read_payments(path: str, column: str | None) -> np.ndarray:
    values: list[float] = []
    bad: list[int] = []
    try:
        fobj = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fobj:
        reader = csv.reader(fobj)
        col = 0
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        if column is not None:
            header = [h.strip() for h in first]
            if column not in header:
                raise DataError(f"{path}: no column named {column!r}")
            col = header.index(column)
        else:
            try:
                values.append(float(first[0]))
            except (ValueError, IndexError):
                pass  # a single-column file may still carry a header line
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values.append(float(row[col]))
            except (ValueError, IndexError):
                bad.append(lineno)
    if bad:
        raise DataError(f"{path}: unparseable payment on line(s) "
                        + ", ".join(map(str, bad[:20])))
    if not values:
        raise DataError(f"{path}: no payment records found")
    return np.asarray(values, dtype=float)


def _ingest(args) -> PaymentSample:
    raw = _read_payments(args.data, args.column)
    kind = PaymentKind.PER_PAYMENT if args.variant == "y" else PaymentKind.PER_LOSS
    policy = PolicySpec(c=args.coinsurance, d=args.deductible,
                        u=args.limit if args.limit is not None else math.inf)
    return transform_to_normal(raw, kind, policy, args.w0)


def _summary(sample: PaymentSample) -> dict:
    th = sample.thresholds
    return {
        "t": round(th.t, 4),
        "T": round(th.T, 4) if math.isfinite(th.T) else "inf",
        "R": round(th.R, 4) if math.isfinite(th.R) else "inf",
        "n0": sample.n0,
        "n1": sample.n1,
        "n2": sample.n2,
        "n": sample.n,
    }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

ROW_FIELDS = ["method", "a", "b", "theta", "sigma",
              "theta_ci_low", "theta_ci_high", "sigma_ci_low", "sigma_ci_high",
              "s_star_emp", "s_star_par", "fn_t", "fn_T", "fx_t", "fx_T",
              "validation", "are_vs_mle", "ks_statistic", "ks_decision"]


@dataclasses.dataclass
class RunReport:
    """Everything one command run produced, ready for any output format.

    ``summary`` mirrors the ingestion summary (normal-scale thresholds and
    classification counts); ``rows`` holds one entry per reported
    estimator; the configuration echo makes every estimate traceable to
    the flags that produced it.
    """

    summary: dict
    rows: list[dict]
    version: str
    timestamp: str
    configuration: dict

    def as_dict(self) -> dict:
        return {
            "tool": "lossfit",
            "version": self.version,
            "timestamp": self.timestamp,
            "configuration": self.configuration,
            "summary": self.summary,
            "rows": self.rows,
        }


def _report(args, sample: PaymentSample, rows: list[dict]) -> RunReport:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out", "format")}
    return RunReport(
        summary=_summary(sample),
        rows=rows,
        version=__version__,
        timestamp="" if getattr(args, "deterministic", False)
        else datetime.datetime.now(datetime.timezone.utc).isoformat(),
        configuration=config)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}" if math.isfinite(value) else str(value)
    return str(value)


def _emit_report(report: RunReport, args) -> None:
    fmt = getattr(args, "format", "human")
    if fmt == "json":
        text = json.dumps(report.as_dict(), indent=2, default=str) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        for key, val in report.summary.items():
            buf.write(f"# {key} = {val}\n")
        writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for row in report.rows:
            writer.writerow({k: _fmt(row.get(k)) for k in ROW_FIELDS})
        text = buf.getvalue()
    else:
        lines = [f"lossfit {report.version}"]
        if report.timestamp:
            lines.append(f"run at {report.timestamp}")
        lines.append("input: "
                     + "  ".join(f"{k}={v}" for k, v in report.summary.items()))
        if report.rows:
            header = [f for f in ROW_FIELDS
                      if any(_fmt(r.get(f)) for r in report.rows)]
            widths = {f: max(len(f), max(len(_fmt(r.get(f)))
                                         for r in report.rows))
                      for f in header}
            lines.append("  ".join(f.ljust(widths[f]) for f in header))
            for row in report.rows:
                lines.append("  ".join(_fmt(row.get(f)).ljust(widths[f])
                                       for f in header))
        text = "\n".join(lines) + "\n"
    _write_out(text, getattr(args, "out", None))


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fobj:
            fobj.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    sample = _ingest(args)
    report = _report(args, sample, rows=[])
    _emit_report(report, args)
    return EXIT_OK


def _estimated_are(sample: PaymentSample, mle_fit: FitResult,
                   trim: TrimSpec) -> float:
    """Efficiency of the trimmed estimator evaluated at the MLE parameters."""
    entry = VARIANTS[sample.kind]
    th = sample.thresholds
    return are_pair(entry.cov_mle(mle_fit.gamma_hat, mle_fit.sigma_hat, th),
                    entry.cov_mtm(mle_fit.theta_hat, mle_fit.sigma_hat, th, trim))


def _fit_row(sample: PaymentSample, fit: FitResult, method: str,
             trim: TrimSpec | None, are: float, ks_level: float,
             forced: bool) -> dict:
    row = {
        "method": method,
        "a": "" if trim is None else str(trim.a_exact or trim.a),
        "b": "" if trim is None else str(trim.b_exact or trim.b),
        "theta": fit.theta_hat,
        "sigma": fit.sigma_hat,
        "theta_ci_low": fit.ci_theta[0], "theta_ci_high": fit.ci_theta[1],
        "sigma_ci_low": fit.ci_sigma[0], "sigma_ci_high": fit.ci_sigma[1],
        "are_vs_mle": are,
    }
    ks = ks_statistic(sample, fit, level=ks_level)
    row["ks_statistic"] = round(ks.statistic, 4)
    row["ks_decision"] = ks.decision
    if trim is not None:
        verdict = VARIANTS[sample.kind].validate_trim(sample, trim, fit)
        cov = verdict.coverage
        if sample.kind is PaymentKind.PER_PAYMENT:
            row["s_star_emp"] = round(cov.s_star_empirical, 4)
            row["s_star_par"] = round(cov.s_star_parametric, 4)
        else:
            row["fn_t"] = round(cov.fn_t, 4)
            row["fn_T"] = round(cov.fn_T, 4)
            row["fx_t"] = round(cov.fx_t_hat, 4)
            row["fx_T"] = round(cov.fx_T_hat, 4)
        verdict_text = "pass" if verdict.passed else "fail"
        if forced:
            verdict_text += " (forced)"
        row["validation"] = verdict_text
    return row


def cmd_fit(args) -> int:
    sample = _ingest(args)
    entry = VARIANTS[sample.kind]
    if args.method != "mle":
        fitter = entry.mtm_fitter(args.method)
        if args.b is None:
            raise DomainError("--b is required for trimmed-moment methods")
        trim = TrimSpec(args.a, args.b)
    mle_fit = entry.fit_mle(sample, level=args.level)
    rows = []
    if args.method == "mle":
        rows.append(_fit_row(sample, mle_fit, "mle", None, 1.0,
                             args.ks_level, forced=False))
    else:
        pre = entry.validate_trim(sample, trim)
        if not pre.empirical_passed and not args.force:
            print("window validation failed: " + "; ".join(pre.messages),
                  file=sys.stderr)
            return EXIT_VALIDATION
        fit = fitter(sample, trim, level=args.level, validate=False)
        are = _estimated_are(sample, mle_fit, trim)
        rows.append(_fit_row(sample, fit, args.method, trim, are,
                             args.ks_level, forced=not pre.empirical_passed))
    report = _report(args, sample, rows)
    _emit_report(report, args)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[list, list]:
    try:
        a_part, b_part = text.split("x")
        a_values = [tok.strip() for tok in a_part.split(",") if tok.strip()]
        b_values = [tok.strip() for tok in b_part.split(",") if tok.strip()]
        if not a_values or not b_values:
            raise ValueError("empty axis")
    except ValueError as exc:
        raise DomainError(
            f"--grid must look like '0,0.05,0.1x0.01,0.05', got {text!r}") from exc
    return a_values, b_values


def cmd_are(args) -> int:
    model = GroundUpLognormal(w0=args.w0, theta=args.theta, sigma=args.sigma)
    policy = PolicySpec(c=args.coinsurance, d=args.deductible,
                        u=args.limit if args.limit is not None else math.inf)
    variant = PaymentKind.PER_PAYMENT if args.variant == "y" else PaymentKind.PER_LOSS
    a_values, b_values = _parse_grid(args.grid)
    req = AreRequest.from_axes(model, policy, variant, a_values, b_values)
    table = are_table(req)
    for key, msg in sorted(table.errors.items()):
        print(f"cell a={key[0]:g} b={key[1]:g}: {msg}", file=sys.stderr)
    _write_out(table.to_csv_string(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = StudyConfig.from_file(args.config)
    if args.reps is not None:
        config = dataclasses.replace(config, replications=args.reps)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = run_study(config, workers=args.workers)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_out(result.to_csv_string(), args.out)
    return EXIT_OK


def cmd_diagnostics(args) -> int:
    sample = _ingest(args)
    if args.theta is not None and args.sigma is not None:
        t = sample.thresholds.t
        gamma_hat = (t - args.theta) / args.sigma
        fit = FitResult(gamma_hat=gamma_hat, sigma_hat=args.sigma,
                        theta_hat=args.theta, cov=np.eye(2), n=sample.n,
                        ci_theta=(math.nan, math.nan),
                        ci_sigma=(math.nan, math.nan), level=0.95,
                        iterations=0, converged=True, method="given")
        start = (gamma_hat, args.sigma)
    else:
        fit = VARIANTS[sample.kind].fit_mle(sample, level=0.95)
        start = fit.extras.get("start", (fit.gamma_hat, fit.sigma_hat))

    # QQ pairs: empirical order statistics against fitted quantiles
    model = GroundUpLognormal(w0=0.0, theta=fit.theta_hat, sigma=fit.sigma_hat)
    dist = PaymentDistribution(model, sample.policy, sample.kind,
                               thresholds=sample.thresholds)
    n = sample.n
    probs = (np.arange(1, n + 1) - 0.5) / n
    fitted_q = dist.qf(probs)
    qq = io.StringIO()
    qq.write("p,empirical,fitted\n")
    for p, emp, fitq in zip(probs, sample.values, fitted_q):
        qq.write(f"{p:.6f},{emp:.6f},{fitq:.6f}\n")
    _write_out(qq.getvalue(), args.qq_out)

    # log-likelihood surface on a rectangle around the maximum
    loglik = VARIANTS[sample.kind].loglik
    g_lo = args.gamma_min if args.gamma_min is not None else fit.gamma_hat - 1.0
    g_hi = args.gamma_max if args.gamma_max is not None else fit.gamma_hat + 1.0
    s_lo = args.sigma_min if args.sigma_min is not None else fit.sigma_hat * 0.5
    s_hi = args.sigma_max if args.sigma_max is not None else fit.sigma_hat * 2.0
    steps = args.grid_steps
    surface = io.StringIO()
    surface.write("gamma,sigma,loglik,point\n")
    for gamma in np.linspace(g_lo, g_hi, steps):
        for sigma in np.linspace(s_lo, s_hi, steps):
            surface.write(f"{gamma:.6f},{sigma:.6f},"
                          f"{loglik(float(gamma), float(sigma), sample):.6f},\n")
    surface.write(f"{start[0]:.6f},{start[1]:.6f},"
                  f"{loglik(float(start[0]), float(start[1]), sample):.6f},start\n")
    surface.write(f"{fit.gamma_hat:.6f},{fit.sigma_hat:.6f},"
                  f"{loglik(fit.gamma_hat, fit.sigma_hat, sample):.6f},max\n")
    _write_out(surface.getvalue(), args.surface_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossfit",
        description="Lognormal loss-severity estimation for deductible-, "
                    "limit-, and coinsurance-modified payment data.")
    parser.add_argument("--version", action="version",
                        version=f"lossfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="summarize a payment data file")
    _add_ingestion_flags(p_ingest)
    _add_output_flags(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_fit = sub.add_parser("fit", help="fit a severity model and report a row")
    _add_ingestion_flags(p_fit)
    _add_output_flags(p_fit)
    p_fit.add_argument("--method", choices=["mle", "mtm", "mtm-plugin"],
                       default="mle")
    p_fit.add_argument("--a", default="0",
                       help="lower trimming fraction (decimal or rational "
                            "like 150/1451)")
    p_fit.add_argument("--b", default=None,
                       help="upper trimming fraction (decimal or rational)")
    p_fit.add_argument("--level", type=float, default=0.95,
                       help="confidence level for the parameter intervals")
    p_fit.add_argument("--ks-level", type=float, default=0.05,
                       help="significance level of the KS decision")
    p_fit.add_argument("--force", action="store_true",
                       help="report a row even when window validation fails")
    p_fit.set_defaults(func=cmd_fit)

    p_are = sub.add_parser("are", help="tabulate asymptotic relative efficiency")
    p_are.add_argument("--variant", choices=["y", "z"], required=True)
    p_are.add_argument("--theta", type=float, required=True)
    p_are.add_argument("--sigma", type=float, required=True)
    p_are.add_argument("--w0", type=float, default=0.0)
    p_are.add_argument("--deductible", type=float, required=True)
    p_are.add_argument("--limit", type=float, default=None)
    p_are.add_argument("--coinsurance", type=float, default=1.0)
    p_are.add_argument("--grid", required=True,
                       help="a-valuesxb-values, e.g. '0,0.05,0.1x0.01,0.05'")
    p_are.add_argument("--out", default=None)
    p_are.set_defaults(func=cmd_are)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo efficiency study")
    p_sim.add_argument("--config", required=True,
                       help="key = value study configuration file")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="override the configured replication count")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: LOSSFIT_WORKERS or 1)")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnostics",
                            help="emit QQ pairs and a log-likelihood surface")
    _add_ingestion_flags(p_diag)
    p_diag.add_argument("--theta", type=float, default=None,
                        help="evaluate at this location instead of fitting")
    p_diag.add_argument("--sigma", type=float, default=None)
    p_diag.add_argument("--qq-out", default=None)
    p_diag.add_argument("--surface-out", default=None)
    p_diag.add_argument("--gamma-min", type=float, default=None)
    p_diag.add_argument("--gamma-max", type=float, default=None)
    p_diag.add_argument("--sigma-min", type=float, default=None)
    p_diag.add_argument("--sigma-max", type=float, default=None)
    p_diag.add_argument("--grid-steps", type=int, default=41)
    p_diag.set_defaults(func=cmd_diagnostics)
    return parser


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["human", "csv", "json"],
                        default="human")
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so repeated runs are identical")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrimValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, NoMleError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DomainError, EstimationError, LossfitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
