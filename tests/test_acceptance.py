"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criterion 4 needs the user-supplied indemnity loss
dataset and is skipped (and replaced by criterion 5) when absent.
"""
import math

import numpy as np
import pytest

import lossfit as lf
from lossfit.efficiency import mle_asymptotic_cov
from lossfit.errors import NoMleError
from lossfit.payments import PaymentKind
from lossfit.simulation import EstimatorSpec, StudyConfig, generate_sample, run_study

from conftest import indemnity_csv_path, requires_indemnity_data
from quadrature import c_star_y

DESIGN_MODEL = lf.GroundUpLognormal(w0=1.0, theta=5.0, sigma=3.0)
U_VALUES = {"2e5": 2e5, "2.4e4": 2.4e4, "8.5e3": 8.5e3}
B_COLUMNS = {"2e5": (0.01, 0.05, 0.10, 0.15, 0.25),
             "2.4e4": (0.05, 0.10, 0.15, 0.25),
             "8.5e3": (0.10, 0.15, 0.25)}

# reference efficiency grids for the design model, by censoring point
REFERENCE_Y = {
    "2e5": {0.00: (0.987, 0.904, 0.821, 0.747, 0.616),
            0.05: (0.984, 0.904, 0.821, 0.749, 0.620),
            0.10: (0.971, 0.893, 0.813, 0.742, 0.615),
            0.15: (0.948, 0.874, 0.796, 0.726, 0.602),
            0.25: (0.885, 0.816, 0.742, 0.676, 0.556)},
    "2.4e4": {0.00: (0.960, 0.871, 0.793, 0.654),
              0.05: (0.959, 0.872, 0.795, 0.658),
              0.10: (0.948, 0.863, 0.788, 0.653),
              0.15: (0.927, 0.845, 0.771, 0.639),
              0.25: (0.867, 0.788, 0.718, 0.590)},
    "8.5e3": {0.00: (0.934, 0.850, 0.701),
              0.05: (0.935, 0.852, 0.705),
              0.10: (0.925, 0.844, 0.700),
              0.15: (0.906, 0.827, 0.685),
              0.25: (0.845, 0.769, 0.633)},
}
REFERENCE_Z = {
    "2e5": {0.10: (0.948, 0.900, 0.844, 0.793, 0.695),
            0.15: (0.891, 0.846, 0.793, 0.742, 0.647),
            0.25: (0.786, 0.745, 0.695, 0.647, 0.556),
            0.49: (0.550, 0.516, 0.471, 0.428, 0.343)},
    "2.4e4": {0.10: (0.933, 0.876, 0.822, 0.720),
              0.15: (0.877, 0.822, 0.770, 0.671),
              0.25: (0.772, 0.720, 0.671, 0.577),
              0.49: (0.535, 0.489, 0.444, 0.355)},
    "8.5e3": {0.10: (0.914, 0.858, 0.752),
              0.15: (0.858, 0.804, 0.701),
              0.25: (0.752, 0.701, 0.602),
              0.49: (0.510, 0.464, 0.371)},
}


def _verdict(number: int, name: str, passed: bool = True) -> None:
    print(f"\n[acceptance {number}] {name}: {'PASS' if passed else 'FAIL'}")


def _are_grid(variant: PaymentKind, reference: dict) -> dict:
    """Compute every reference cell; returns {(tag, a, b): (got, want)}."""
    out = {}
    for tag, rows in reference.items():
        policy = lf.PolicySpec(c=1.0, d=4.0, u=U_VALUES[tag])
        th = lf.derive_thresholds(policy, DESIGN_MODEL.w0)
        s_mle = mle_asymptotic_cov(DESIGN_MODEL, policy, variant)
        for a, wants in rows.items():
            for b, want in zip(B_COLUMNS[tag], wants):
                trim = lf.TrimSpec(a, b)
                if variant is PaymentKind.PER_PAYMENT:
                    s_alt = lf.cov_mtm_y(DESIGN_MODEL.theta, DESIGN_MODEL.sigma,
                                         th, trim)
                else:
                    s_alt = lf.cov_mtm_z(DESIGN_MODEL.sigma, trim)
                out[(tag, a, b)] = (lf.are_pair(s_mle, s_alt), want)
    return out


class TestCriterion1EfficiencyGridY:
    def test_full_per_payment_grid(self):
        cells = _are_grid(PaymentKind.PER_PAYMENT, REFERENCE_Y)
        assert len(cells) == 60  # 5 rows x 12 columns
        for key, (got, want) in cells.items():
            assert got == pytest.approx(want, abs=0.002), key
        # optimality of the MLE within numerical tolerance
        assert all(0.0 < got <= 1.001 for got, _ in cells.values())
        # for a fixed row, heavier upper trimming never gains efficiency
        for tag, rows in REFERENCE_Y.items():
            for a in rows:
                values = [cells[(tag, a, b)][0] for b in B_COLUMNS[tag]]
                assert all(x >= y for x, y in zip(values, values[1:]))
        _verdict(1, "per-payment efficiency grid (60 cells, +-0.002)")


class TestCriterion2EfficiencyGridZ:
    def test_full_per_loss_grid(self):
        cells = _are_grid(PaymentKind.PER_LOSS, REFERENCE_Z)
        assert len(cells) == 48  # 4 rows x 12 columns
        for key, (got, want) in cells.items():
            assert got == pytest.approx(want, abs=0.002), key
        assert cells[("8.5e3", 0.49, 0.25)][0] == pytest.approx(0.371,
                                                                abs=0.002)
        assert all(0.0 < got <= 1.001 for got, _ in cells.values())
        for tag, rows in REFERENCE_Z.items():
            for a in rows:
                values = [cells[(tag, a, b)][0] for b in B_COLUMNS[tag]]
                assert all(x >= y for x, y in zip(values, values[1:]))
        _verdict(2, "per-loss efficiency grid (48 cells, +-0.002)")


class TestCriterion3DeskScaleStudies:
    SEED = 20210302
    REPS = 1000

    def _check_cells(self, result, paper_re, sizes=(500, 1000)):
        # the published tables report mean-ratio standard errors <= 0.002
        # at ten thousand replications; scale that bound to the desk count
        se_bound = 0.002 * math.sqrt(10_000 / self.REPS)
        for label, want_re in paper_re.items():
            for n in sizes:
                cell = result.cell(label, n)
                assert abs(cell.mean_theta_ratio - 1.0) <= 0.01, (label, n)
                assert abs(cell.mean_sigma_ratio - 1.0) <= 0.01, (label, n)
                assert cell.se_theta_ratio <= se_bound, (label, n)
                assert cell.se_sigma_ratio <= se_bound, (label, n)
            cell = result.cell(label, 1000)
            assert abs(cell.re - want_re) <= 0.05, label
            assert abs(cell.re - result.are_limit[label]) <= 0.03, label

    def test_per_payment_study(self):
        policy = lf.PolicySpec(c=1.0, d=4.0, u=2e5)
        config = StudyConfig(
            model=DESIGN_MODEL, policy=policy, variant=PaymentKind.PER_PAYMENT,
            sample_sizes=(500, 1000), replications=self.REPS,
            estimators=(EstimatorSpec("mle"),
                        EstimatorSpec("mtm", lf.TrimSpec(0.05, 0.05)),
                        EstimatorSpec("mtm", lf.TrimSpec(0.10, 0.10)),
                        EstimatorSpec("mtm", lf.TrimSpec(0.0, 0.25))),
            seed=self.SEED)
        result = run_study(config)
        paper_re = {"MLE": 1.00, "MTM (0.05, 0.05)": 0.90,
                    "MTM (0.1, 0.1)": 0.80, "MTM (0.0, 0.25)": 0.60}
        self._check_cells(result, paper_re)
        _verdict(3, "desk-scale per-payment study (1000 replications)")

    def test_per_loss_study(self):
        policy = lf.PolicySpec(c=1.0, d=4.0, u=2.4e4)
        config = StudyConfig(
            model=DESIGN_MODEL, policy=policy, variant=PaymentKind.PER_LOSS,
            sample_sizes=(500, 1000), replications=self.REPS,
            estimators=(EstimatorSpec("mle"),
                        EstimatorSpec("mtm", lf.TrimSpec(0.10, 0.10)),
                        EstimatorSpec("mtm", lf.TrimSpec(0.25, 0.25))),
            seed=self.SEED)
        result = run_study(config)
        paper_re = {"MLE": 1.00, "MTM (0.1, 0.1)": 0.88,
                    "MTM (0.25, 0.25)": 0.57}
        self._check_cells(result, paper_re)
        _verdict(3, "desk-scale per-loss study (1000 replications)")


@requires_indemnity_data
class TestCriterion4IndemnityReproduction:
    LEVEL = 0.95

    @pytest.fixture(scope="class")
    def samples(self):
        import csv as csv_mod

        path = indemnity_csv_path()
        with open(path, "r", encoding="utf-8", newline="") as fobj:
            rows = list(csv_mod.reader(fobj))
        try:
            float(rows[0][0])
            start = 0
        except ValueError:
            start = 1
        losses = np.array([float(r[0]) for r in rows[start:]])
        policy = lf.PolicySpec(c=1.0, d=500.0, u=1e5)
        # per-loss payments: zero below the deductible, capped above
        z_raw = np.clip(losses - 500.0, 0.0, 99500.0)
        sample_z = lf.transform_to_normal(z_raw, PaymentKind.PER_LOSS,
                                          policy, 0.0)
        y_raw = z_raw[z_raw > 0.0]
        sample_y = lf.transform_to_normal(y_raw, PaymentKind.PER_PAYMENT,
                                          policy, 0.0)
        return sample_y, sample_z

    def test_summary_counts(self, samples):
        sample_y, sample_z = samples
        th = sample_z.thresholds
        assert round(th.t, 4) == 6.2146
        assert round(th.T, 4) == 11.5129
        assert round(th.R, 4) == 5.2983
        assert (sample_z.n0, sample_z.n1, sample_z.n2) == (49, 1299, 152)
        assert (sample_y.n1, sample_y.n2) == (1299, 152)

    def test_per_payment_table(self, samples):
        sample_y, _ = samples
        mle = lf.fit_mle_y(sample_y, level=self.LEVEL)
        assert mle.theta_hat == pytest.approx(9.43, abs=0.01)
        assert mle.sigma_hat == pytest.approx(1.59, abs=0.01)
        for got, want in zip((*mle.ci_theta, *mle.ci_sigma),
                             (9.34, 9.52, 1.52, 1.67)):
            assert got == pytest.approx(want, abs=0.01)
        assert lf.ks_statistic(sample_y, mle).statistic == pytest.approx(
            0.032, abs=0.001)

        rows = [((0, "150/1451"), 9.42, 1.56, (9.34, 9.51), (1.49, 1.65), 0.94),
                (("100/1451", "300/1451"), 9.40, 1.59, (9.31, 9.50),
                 (1.50, 1.69), 0.79)]
        for (a, b), theta, sigma, ci_t, ci_s, are_want in rows:
            trim = lf.TrimSpec(a, b)
            fit = lf.fit_mtm_y(sample_y, trim, level=self.LEVEL,
                               validate=False)
            assert fit.theta_hat == pytest.approx(theta, abs=0.01)
            assert fit.sigma_hat == pytest.approx(sigma, abs=0.01)
            for got, want in zip((*fit.ci_theta, *fit.ci_sigma),
                                 (*ci_t, *ci_s)):
                assert got == pytest.approx(want, abs=0.01)
            th = sample_y.thresholds
            s_mle = lf.cov_mle_y(mle.gamma_hat, mle.sigma_hat, th)
            s_mtm = lf.cov_mtm_y(mle.theta_hat, mle.sigma_hat, th, trim)
            assert lf.are_pair(s_mle, s_mtm) == pytest.approx(are_want,
                                                              abs=0.01)
        # one-shot variant agrees with the implicit fit to two decimals
        trim = lf.TrimSpec(0, "150/1451")
        full = lf.fit_mtm_y(sample_y, trim, validate=False)
        plugin = lf.fit_mtm_y_plugin(sample_y, trim, validate=False)
        assert plugin.theta_hat == pytest.approx(full.theta_hat, abs=0.01)
        assert plugin.sigma_hat == pytest.approx(full.sigma_hat, abs=0.01)

    def test_per_loss_table(self, samples):
        _, sample_z = samples
        mle = lf.fit_mle_z(sample_z, level=self.LEVEL)
        assert mle.theta_hat == pytest.approx(9.39, abs=0.01)
        assert mle.sigma_hat == pytest.approx(1.64, abs=0.01)
        for got, want in zip((*mle.ci_theta, *mle.ci_sigma),
                             (9.30, 9.47, 1.58, 1.71)):
            assert got == pytest.approx(want, abs=0.01)
        assert lf.ks_statistic(sample_z, mle).statistic == pytest.approx(
            0.027, abs=0.001)

        rows = [(("75/1500", "150/1500"), 9.38, 1.62, (9.30, 9.47),
                 (1.55, 1.69), 0.92, 0.027, 0),
                (("700/1500", "700/1500"), 9.38, 2.36, (9.23, 9.52),
                 (1.92, 2.91), 0.16, 0.107, 1)]
        for (a, b), theta, sigma, ci_t, ci_s, are_want, d_want, h_want in rows:
            trim = lf.TrimSpec(a, b)
            fit = lf.fit_mtm_z(sample_z, trim, level=self.LEVEL,
                               validate=False)
            assert fit.theta_hat == pytest.approx(theta, abs=0.01)
            assert fit.sigma_hat == pytest.approx(sigma, abs=0.01)
            for got, want in zip((*fit.ci_theta, *fit.ci_sigma),
                                 (*ci_t, *ci_s)):
                assert got == pytest.approx(want, abs=0.01)
            th = sample_z.thresholds
            s_mle = lf.cov_mle_z(mle.gamma_hat, mle.sigma_hat, th)
            s_mtm = lf.cov_mtm_z(mle.sigma_hat, trim)
            assert lf.are_pair(s_mle, s_mtm) == pytest.approx(are_want,
                                                              abs=0.01)
            ks = lf.ks_statistic(sample_z, fit)
            assert ks.statistic == pytest.approx(d_want, abs=0.001)
            assert ks.decision == h_want
        _verdict(4, "indemnity loss reproduction")


def _mc_expected_hessian(variant: PaymentKind, n: int, n_samples: int,
                         seed: tuple, h: float = 5e-3) -> np.ndarray:
    """Average numerical Hessian of the log-likelihood over many samples.

    Each sample's log-likelihood is evaluated through its sufficient
    statistics (counts and interior moment sums), which is an exact
    rearrangement of the record-by-record sum.
    """
    policy = lf.PolicySpec(c=1.0, d=4.0, u=2e5)
    dist = lf.dist_y(DESIGN_MODEL, policy) if variant is PaymentKind.PER_PAYMENT \
        else lf.dist_z(DESIGN_MODEL, policy)
    th = dist.thresholds
    std = dist.std
    gamma0, sigma0 = std.gamma, DESIGN_MODEL.sigma
    r_over = th.R
    p_t = lf.std_normal_cdf(std.gamma)
    s_star = dist.s_star

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    total = np.zeros((2, 2))
    batch = 2500
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        u = rng.random((m, n))
        if variant is PaymentKind.PER_PAYMENT:
            censored = u >= s_star
            interior = ~censored
            n0 = np.zeros(m)
        else:
            zero = u <= p_t
            censored = u >= dist.s_star
            interior = ~zero & ~censored
            n0 = zero.sum(axis=1).astype(float)
        v = dist.qf(np.where(interior, u, 0.5))
        s1 = np.where(interior, v, 0.0).sum(axis=1)
        s2 = np.where(interior, v * v, 0.0).sum(axis=1)
        n2 = censored.sum(axis=1).astype(float)
        n1 = n - n0 - n2

        def loglik(gamma, sigma):
            xi = gamma + r_over / sigma
            ll = (-0.5 * n1 * math.log(2 * math.pi) - n1 * math.log(sigma)
                  + n2 * lf.numerics.std_normal_log_sf(xi)
                  - 0.5 * (n1 * gamma ** 2 + 2 * gamma * s1 / sigma
                           + s2 / sigma ** 2))
            if variant is PaymentKind.PER_PAYMENT:
                ll -= n * lf.numerics.std_normal_log_sf(gamma)
            else:
                ll += n0 * lf.numerics.std_normal_log_cdf(gamma)
            return ll

        g, s = gamma0, sigma0
        h_gg = (loglik(g + h, s) - 2 * loglik(g, s) + loglik(g - h, s)) / h ** 2
        h_ss = (loglik(g, s + h) - 2 * loglik(g, s) + loglik(g, s - h)) / h ** 2
        h_gs = (loglik(g + h, s + h) - loglik(g + h, s - h)
                - loglik(g - h, s + h) + loglik(g - h, s - h)) / (4 * h ** 2)
        total += np.array([[h_gg.sum(), h_gs.sum()],
                           [h_gs.sum(), h_ss.sum()]])
        done += m
    return total / (n_samples * n)


class TestCriterion5PropertySuite:
    def test_fisher_information_vs_expected_hessian(self):
        policy = lf.PolicySpec(c=1.0, d=4.0, u=2e5)
        th = lf.derive_thresholds(policy, DESIGN_MODEL.w0)
        std = lf.standardize(DESIGN_MODEL, th)
        for tag, (variant, fisher) in enumerate(
                ((PaymentKind.PER_PAYMENT, lf.fisher_y),
                 (PaymentKind.PER_LOSS, lf.fisher_z))):
            mc = _mc_expected_hessian(variant, n=1000, n_samples=100_000,
                                      seed=(41, tag))
            _, info = fisher(std.gamma, DESIGN_MODEL.sigma, th)
            np.testing.assert_allclose(-mc, info, rtol=0.02)
        _verdict(5, "expected-Hessian agreement (1e5 samples, 2%)")

    def test_coefficient_oracles(self):
        for a, b in ((0.1, 0.1), (0.05, 0.25), (0.25, 0.1)):
            trim = lf.TrimSpec(a, b)
            closed = lf.coeff_c_complete(trim)
            direct = c_star_y(-math.inf, a, b)
            assert closed.c1_star == pytest.approx(direct[0], abs=1e-6)
            assert closed.c2_star == pytest.approx(direct[1], abs=1e-6)
            assert closed.c3_star == pytest.approx(direct[2], abs=1e-6)
        trim = lf.TrimSpec(0.1, 0.1)
        far = lf.coeff_c_y(-20.0, trim)
        complete = lf.coeff_c_complete(trim)
        for k in (1, 2, 3, 4):
            assert getattr(far, f"c{k}") == pytest.approx(
                getattr(complete, f"c{k}"), abs=1e-8)
        _verdict(5, "coefficient oracles (closed form vs double integrals)")

    def test_moment_ratio_function(self):
        # limits: the function approaches 1 and 2 like 1/gamma^2, so the
        # named tolerances are checked at arguments where they are
        # attainable, and the values at -/+30 are pinned exactly
        assert abs(lf.truncated_moment_ratio(-2000.0) - 1.0) <= 1e-6
        assert abs(lf.truncated_moment_ratio(100.0) - 2.0) <= 1e-3
        assert lf.truncated_moment_ratio(-30.0) == pytest.approx(
            1.0 + 1.0 / 900.0, abs=1e-12)
        assert abs(lf.truncated_moment_ratio(30.0) - 2.0) <= 3e-3
        grid = np.linspace(-10.0, 10.0, 10_000)
        assert np.all(np.diff(lf.truncated_moment_ratio(grid)) > 0)
        policy = lf.PolicySpec(c=1.0, d=4.0, u=math.inf)
        th = lf.derive_thresholds(policy, 1.0)
        bad = lf.PaymentSample(kind=PaymentKind.PER_PAYMENT,
                               values=np.array([1.0, 1.0, 1.0, 20.0]),
                               n0=0, n1=4, n2=0, policy=policy, thresholds=th)
        with pytest.raises(NoMleError):
            lf.fit_left_truncated(bad)
        _verdict(5, "moment-ratio function (limits, monotone, existence)")

    def test_estimator_consistency_at_ten_thousand(self):
        policy = lf.PolicySpec(c=1.0, d=4.0, u=2e5)
        th = lf.derive_thresholds(policy, DESIGN_MODEL.w0)
        std = lf.standardize(DESIGN_MODEL, th)
        n = 10_000
        truth = (DESIGN_MODEL.theta, DESIGN_MODEL.sigma)

        def check(fit, cov):
            se = np.sqrt(np.diag(cov) / n)
            assert abs(fit.theta_hat - truth[0]) <= 4 * se[0]
            assert abs(fit.sigma_hat - truth[1]) <= 4 * se[1]

        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((42, 0))))
        sample_y = generate_sample(DESIGN_MODEL, policy,
                                   PaymentKind.PER_PAYMENT, n, rng)
        sample_z = generate_sample(DESIGN_MODEL, policy,
                                   PaymentKind.PER_LOSS, n, rng)
        check(lf.fit_mle_y(sample_y),
              lf.cov_mle_y(std.gamma, DESIGN_MODEL.sigma, th))
        check(lf.fit_mle_z(sample_z),
              lf.cov_mle_z(std.gamma, DESIGN_MODEL.sigma, th))
        check(lf.fit_mtm_y(sample_y, lf.TrimSpec(0.05, 0.05), validate=False),
              lf.cov_mtm_y(DESIGN_MODEL.theta, DESIGN_MODEL.sigma, th,
                           lf.TrimSpec(0.05, 0.05)))
        check(lf.fit_mtm_z(sample_z, lf.TrimSpec(0.10, 0.10), validate=False),
              lf.cov_mtm_z(DESIGN_MODEL.sigma, lf.TrimSpec(0.10, 0.10)))
        _verdict(5, "estimator consistency at n = 10000 (4 analytic SE)")

    def test_closed_form_and_solver_residuals(self):
        policy = lf.PolicySpec(c=1.0, d=4.0, u=2e5)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((42, 1))))
        sample_z = generate_sample(DESIGN_MODEL, policy, PaymentKind.PER_LOSS,
                                   2000, rng)
        fit_z = lf.fit_mtm_z(sample_z, lf.TrimSpec(0.15, 0.15), validate=False)
        assert fit_z.extras["residual"] <= 1e-12
        sample_y = generate_sample(DESIGN_MODEL, policy,
                                   PaymentKind.PER_PAYMENT, 2000, rng)
        for fit in (lf.fit_mle_y(sample_y), lf.fit_mle_z(sample_z)):
            assert fit.extras["residual"] <= 1e-8
        _verdict(5, "closed-form and solver residuals")

    def test_seeded_study_runs_are_byte_identical(self):
        policy = lf.PolicySpec(c=1.0, d=4.0, u=2.4e4)
        config = StudyConfig(
            model=DESIGN_MODEL, policy=policy, variant=PaymentKind.PER_LOSS,
            sample_sizes=(80,), replications=30,
            estimators=(EstimatorSpec("mle"),
                        EstimatorSpec("mtm", lf.TrimSpec(0.15, 0.15))),
            seed=777)
        first = run_study(config).to_csv_string()
        second = run_study(config).to_csv_string()
        assert first.encode() == second.encode()
        _verdict(5, "seeded study determinism (byte-identical)")
