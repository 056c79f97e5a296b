"""Maximum-likelihood estimation, information matrices, special cases."""
import math

import numpy as np
import pytest

import lossfit as lf
from lossfit.errors import DomainError, EstimationError, NoMleError
from lossfit.mle import MomentSummary, _system_residuals
from lossfit.numerics import std_normal_log_cdf, std_normal_log_sf
from lossfit.payments import PaymentKind
from lossfit.simulation import generate_sample



def _sample_from_values(values, kind, policy, w0=0.0, thresholds=None):
    th = thresholds or lf.derive_thresholds(policy, w0)
    values = np.sort(np.asarray(values, dtype=float))
    cr = policy.c * th.R
    n0 = int(np.sum(values == 0.0))
    n2 = int(np.sum(values == cr)) if math.isfinite(cr) else 0
    return lf.PaymentSample(kind=kind, values=values, n0=n0,
                            n1=values.size - n0 - n2, n2=n2, policy=policy,
                            thresholds=th)


class TestLogLikelihoods:
    def test_censoring_term_vanishes_without_censored_records(
            self, policy_unlimited):
        sample = _sample_from_values([0.5, 1.0, 2.0], PaymentKind.PER_PAYMENT,
                                     policy_unlimited, w0=1.0)
        g, s = -0.5, 2.0
        manual = (-1.5 * math.log(2 * math.pi)
                  - 3 * math.log(1 - lf.std_normal_cdf(g))
                  - 3 * math.log(s)
                  - 0.5 * sum((g + v / s) ** 2 for v in (0.5, 1.0, 2.0)))
        assert lf.loglik_y(g, s, sample) == pytest.approx(manual, rel=1e-12)

    def test_quadratic_penalty_moves_with_distance(self, policy_unlimited):
        g, s = -1.0, 2.0
        center = -g * s  # interior term is -(g + y/s)^2 / 2, centered at -gs
        near = _sample_from_values([center + 0.1], PaymentKind.PER_PAYMENT,
                                   policy_unlimited, w0=1.0)
        far = _sample_from_values([center + 1.5], PaymentKind.PER_PAYMENT,
                                  policy_unlimited, w0=1.0)
        assert lf.loglik_y(g, s, near) > lf.loglik_y(g, s, far)

    def test_zero_record_adds_log_cdf(self, policy_u2e5):
        base = _sample_from_values([1.0, 2.0], PaymentKind.PER_LOSS,
                                   policy_u2e5, w0=1.0)
        with_zero = _sample_from_values([0.0, 1.0, 2.0], PaymentKind.PER_LOSS,
                                        policy_u2e5, w0=1.0)
        g, s = -0.8, 1.7
        delta = lf.loglik_z(g, s, with_zero) - lf.loglik_z(g, s, base)
        assert delta == pytest.approx(math.log(lf.std_normal_cdf(g)), rel=1e-12)

    def test_complete_sample_is_plain_normal_likelihood(self, policy_u2e5):
        values = [0.7, 1.1, 2.2, 3.0]
        sample = _sample_from_values(values, PaymentKind.PER_LOSS, policy_u2e5,
                                     w0=1.0)
        g, s = -0.4, 1.3
        manual = sum(math.log(lf.std_normal_pdf(g + v / s) / s) for v in values)
        assert lf.loglik_z(g, s, sample) == pytest.approx(manual, rel=1e-12)

    def test_loglik_at_fit_exceeds_start(self, indemnity_moment_sample_y,
                                         indemnity_moment_sample_z):
        fit = lf.fit_mle_y(indemnity_moment_sample_y)
        g0, s0 = fit.extras["start"]
        assert lf.loglik_y(fit.gamma_hat, fit.sigma_hat,
                           indemnity_moment_sample_y) > lf.loglik_y(
            g0, s0, indemnity_moment_sample_y)
        fit_z = lf.fit_mle_z(indemnity_moment_sample_z)
        g0z, s0z = fit_z.extras["start"]
        assert lf.loglik_z(fit_z.gamma_hat, fit_z.sigma_hat,
                           indemnity_moment_sample_z) > lf.loglik_z(
            g0z, s0z, indemnity_moment_sample_z)

    def test_sigma_domain(self, indemnity_moment_sample_y):
        with pytest.raises(DomainError):
            lf.loglik_y(-1.0, 0.0, indemnity_moment_sample_y)


class TestGradientIdentity:
    """Finite differences of the log-likelihoods match the estimating
    systems in residual form: grad_gamma = (n1/sigma) e1 and
    grad_sigma = (n1/sigma^3)(-e2 - sigma gamma e1)."""

    @pytest.mark.parametrize("kind", [PaymentKind.PER_PAYMENT,
                                      PaymentKind.PER_LOSS])
    def test_residual_form(self, kind, indemnity_moment_sample_y,
                           indemnity_moment_sample_z):
        sample = indemnity_moment_sample_y if kind is PaymentKind.PER_PAYMENT \
            else indemnity_moment_sample_z
        loglik = lf.loglik_y if kind is PaymentKind.PER_PAYMENT else lf.loglik_z
        stats = MomentSummary.from_sample(sample)
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(20):
            g = rng.uniform(-3.0, 0.5)
            s = rng.uniform(0.8, 4.0)
            e1, e2 = _system_residuals(g, s, stats, sample.thresholds,
                                       sample.policy.c, kind)
            grad_g = (loglik(g + h, s, sample) - loglik(g - h, s, sample)) / (2 * h)
            grad_s = (loglik(g, s + h, sample) - loglik(g, s - h, sample)) / (2 * h)
            assert grad_g == pytest.approx(stats.n1 / s * e1,
                                           rel=1e-6, abs=1e-6)
            assert grad_s == pytest.approx(
                stats.n1 / s ** 3 * (-e2 - s * g * e1), rel=1e-6, abs=1e-6)


class TestFitIndemnityRows:
    """The published indemnity results depend on the data only through the
    sufficient statistics carried by the synthetic samples."""

    def test_per_payment_row(self, indemnity_moment_sample_y):
        fit = lf.fit_mle_y(indemnity_moment_sample_y)
        g0, s0 = fit.extras["start"]
        assert g0 == pytest.approx(-2.4453, abs=5e-4)
        assert s0 == pytest.approx(1.2171, abs=5e-4)
        assert fit.theta_hat == pytest.approx(9.43, abs=5e-3)
        assert fit.sigma_hat == pytest.approx(1.59, abs=5e-3)
        assert fit.ci_theta[0] == pytest.approx(9.34, abs=0.01)
        assert fit.ci_theta[1] == pytest.approx(9.52, abs=0.01)
        assert fit.ci_sigma[0] == pytest.approx(1.52, abs=0.01)
        assert fit.ci_sigma[1] == pytest.approx(1.67, abs=0.01)

    def test_per_loss_row(self, indemnity_moment_sample_z):
        fit = lf.fit_mle_z(indemnity_moment_sample_z)
        g0, s0 = fit.extras["start"]
        assert g0 == pytest.approx(-1.8430, abs=5e-4)
        assert s0 == pytest.approx(1.6998, abs=5e-4)
        assert fit.theta_hat == pytest.approx(9.39, abs=5e-3)
        assert fit.sigma_hat == pytest.approx(1.64, abs=5e-3)
        assert fit.ci_theta[0] == pytest.approx(9.30, abs=0.01)
        assert fit.ci_theta[1] == pytest.approx(9.47, abs=0.01)
        assert fit.ci_sigma[0] == pytest.approx(1.58, abs=0.01)
        assert fit.ci_sigma[1] == pytest.approx(1.71, abs=0.01)

    def test_start_recovers_empirical_truncation_probability(
            self, indemnity_moment_sample_z):
        fit = lf.fit_mle_z(indemnity_moment_sample_z)
        g0, _ = fit.extras["start"]
        n0, n = indemnity_moment_sample_z.n0, indemnity_moment_sample_z.n
        assert lf.std_normal_cdf(g0) == pytest.approx(n0 / n, rel=1e-10)


class TestFitInvariants:
    @pytest.mark.parametrize("kind", [PaymentKind.PER_PAYMENT,
                                      PaymentKind.PER_LOSS])
    def test_location_identity_and_residual(self, kind, design_model,
                                            policy_u2e5):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((5, 1))))
        sample = generate_sample(design_model, policy_u2e5, kind, 800, rng)
        fit = lf.fit_mle_y(sample) if kind is PaymentKind.PER_PAYMENT \
            else lf.fit_mle_z(sample)
        th = sample.thresholds
        assert fit.theta_hat == th.t - fit.sigma_hat * fit.gamma_hat
        assert fit.extras["residual"] <= 1e-8
        assert fit.converged

    def test_coinsurance_invariance(self, design_model):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 2))))
        full_policy = lf.PolicySpec(c=1.0, d=4.0, u=2e5)
        sample = generate_sample(design_model, full_policy,
                                 PaymentKind.PER_PAYMENT, 500, rng)
        fit_full = lf.fit_mle_y(sample)
        lam = 0.25
        scaled_policy = lf.PolicySpec(c=lam, d=4.0, u=2e5)
        scaled = lf.PaymentSample(kind=sample.kind, values=lam * sample.values,
                                  n0=0, n1=sample.n1, n2=sample.n2,
                                  policy=scaled_policy,
                                  thresholds=sample.thresholds)
        fit_scaled = lf.fit_mle_y(scaled)
        assert fit_scaled.theta_hat == pytest.approx(fit_full.theta_hat,
                                                     abs=1e-8)
        assert fit_scaled.sigma_hat == pytest.approx(fit_full.sigma_hat,
                                                     abs=1e-8)

    def test_degenerate_sample_rejected(self, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, 1.0)
        all_censored = lf.PaymentSample(
            kind=PaymentKind.PER_PAYMENT,
            values=np.full(5, policy_u2e5.c * th.R), n0=0, n1=0, n2=5,
            policy=policy_u2e5, thresholds=th)
        with pytest.raises(EstimationError):
            lf.fit_mle_y(all_censored)


class TestFisherMatrices:
    def test_symmetry_and_positive_definite(self, design_model, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        std = lf.standardize(design_model, th)
        for fisher in (lf.fisher_y, lf.fisher_z):
            _, info = fisher(std.gamma, design_model.sigma, th)
            assert info[0, 1] == info[1, 0]
            assert np.all(np.linalg.eigvalsh(info) > 0)

    def test_lambda_is_one_without_limit(self, design_model, policy_unlimited):
        th = lf.derive_thresholds(policy_unlimited, design_model.w0)
        std = lf.standardize(design_model, th)
        comps, _ = lf.fisher_y(std.gamma, design_model.sigma, th)
        assert comps.lam == 1.0

    @pytest.mark.parametrize("pair", [(lf.fisher_y, lf.cov_mle_y),
                                      (lf.fisher_z, lf.cov_mle_z)])
    def test_cov_of_shape_parameters_inverts_information(
            self, pair, design_model, policy_u2e5):
        fisher, cov_fn = pair
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        std = lf.standardize(design_model, th)
        sigma = design_model.sigma
        _, info = fisher(std.gamma, sigma, th)
        cov_theta_sigma = cov_fn(std.gamma, sigma, th)
        # map back from (theta, sigma) to (gamma, sigma)
        dmat = np.array([[-sigma, -std.gamma], [0.0, 1.0]])
        dinv = np.linalg.inv(dmat)
        cov_gamma_sigma = dinv @ cov_theta_sigma @ dinv.T
        np.testing.assert_allclose(cov_gamma_sigma @ info, np.eye(2),
                                   atol=1e-10)

    def test_spd_covariances(self, design_model, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        std = lf.standardize(design_model, th)
        for cov_fn in (lf.cov_mle_y, lf.cov_mle_z):
            cov = cov_fn(std.gamma, design_model.sigma, th)
            assert cov[0, 1] == cov[1, 0]
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    @pytest.mark.parametrize("kind", [PaymentKind.PER_PAYMENT,
                                      PaymentKind.PER_LOSS])
    def test_observed_hessian_smoke(self, kind, design_model, policy_u2e5):
        # one large sample's numerical Hessian is close to the expected one
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 3))))
        n = 50_000
        sample = generate_sample(design_model, policy_u2e5, kind, n, rng)
        th = sample.thresholds
        std = lf.standardize(design_model, th)
        loglik = lf.loglik_y if kind is PaymentKind.PER_PAYMENT else lf.loglik_z
        g, s = std.gamma, design_model.sigma
        h = 1e-4

        def ll(gg, ss):
            return loglik(gg, ss, sample)

        h_gg = (ll(g + h, s) - 2 * ll(g, s) + ll(g - h, s)) / h ** 2
        h_ss = (ll(g, s + h) - 2 * ll(g, s) + ll(g, s - h)) / h ** 2
        h_gs = (ll(g + h, s + h) - ll(g + h, s - h)
                - ll(g - h, s + h) + ll(g - h, s - h)) / (4 * h ** 2)
        fisher = lf.fisher_y if kind is PaymentKind.PER_PAYMENT else lf.fisher_z
        _, info = fisher(g, s, th)
        observed = -np.array([[h_gg, h_gs], [h_gs, h_ss]]) / n
        np.testing.assert_allclose(observed, info, rtol=0.05)


class TestMomentRatioFunction:
    def test_exact_value_at_minus_thirty(self):
        # the hazard term underflows, leaving pure arithmetic:
        # G(-30) = (1/30)(1/30 + 30) = 1 + 1/900
        assert lf.truncated_moment_ratio(-30.0) == pytest.approx(
            1.0 + 1.0 / 900.0, abs=1e-15)

    def test_value_at_plus_thirty_vs_highprec_oracle(self):
        # independent extended-precision evaluation of the whole expression
        from test_numerics import _erfc_longdouble

        z = np.longdouble(30.0)
        sf = 0.5 * _erfc_longdouble(float(z / np.sqrt(np.longdouble(2.0))))
        pdf = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi * np.longdouble(1.0))
        inv = 1.0 / (pdf / sf - z)
        oracle = float(inv * (inv - z))
        # the subtraction hazard - gamma amplifies the hazard's ~1e-14
        # relative error by gamma^2, leaving ~1e-8 at gamma = 30
        assert lf.truncated_moment_ratio(30.0) == pytest.approx(oracle,
                                                                rel=1e-7)

    def test_limits_where_attainable(self):
        # G - 1 = 1/gamma^2 + o(1) on the left: the 1e-6 band needs |gamma|
        # beyond ~1000 (at -30 the deviation is 1/900, for any implementation)
        assert abs(lf.truncated_moment_ratio(-2000.0) - 1.0) <= 1e-6
        assert abs(lf.truncated_moment_ratio(100.0) - 2.0) <= 1e-3
        assert abs(lf.truncated_moment_ratio(-30.0) - 1.0) <= 2e-3
        assert abs(lf.truncated_moment_ratio(30.0) - 2.0) <= 3e-3

    def test_strictly_increasing_on_dense_grid(self):
        g = np.linspace(-10.0, 10.0, 10_000)
        values = lf.truncated_moment_ratio(g)
        assert np.all(np.diff(values) > 0)

    def test_range_is_open_unit_band(self):
        g = np.linspace(-40.0, 40.0, 2001)
        values = lf.truncated_moment_ratio(g)
        assert np.all(values > 1.0) and np.all(values < 2.0)


class TestLeftTruncatedFit:
    def test_inversion_round_trip(self):
        gamma = lf.solve_monotone_scalar(lf.truncated_moment_ratio, 1.5,
                                         (-8.0, 8.0))
        assert lf.truncated_moment_ratio(gamma) == pytest.approx(1.5, abs=1e-10)

    def test_ratio_outside_band_raises(self, policy_unlimited):
        values = np.array([1.0, 1.0, 1.0, 20.0])  # ratio well above 2
        sample = _sample_from_values(values, PaymentKind.PER_PAYMENT,
                                     policy_unlimited, w0=1.0)
        with pytest.raises(NoMleError) as err:
            lf.fit_left_truncated(sample)
        assert err.value.delta > 2.0

    def test_solution_satisfies_both_equations(self, design_model,
                                               policy_unlimited):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 7))))
        sample = generate_sample(design_model, policy_unlimited,
                                 PaymentKind.PER_PAYMENT, 2000, rng)
        fit = lf.fit_left_truncated(sample)
        stats = MomentSummary.from_sample(sample)
        res = _system_residuals(fit.gamma_hat, fit.sigma_hat, stats,
                                sample.thresholds, 1.0, sample.kind)
        assert np.max(np.abs(res)) <= 1e-9
        assert fit.extras["global_maximum"]

    def test_consistency_at_large_n(self, design_model, policy_unlimited):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 8))))
        sample = generate_sample(design_model, policy_unlimited,
                                 PaymentKind.PER_PAYMENT, 10_000, rng)
        fit = lf.fit_left_truncated(sample)
        cov = lf.cov_left_truncated(fit.gamma_hat, fit.sigma_hat, sample.kind)
        se_theta = math.sqrt(cov[0, 0] / sample.n)
        se_sigma = math.sqrt(cov[1, 1] / sample.n)
        assert abs(fit.theta_hat - design_model.theta) <= 3 * se_theta
        assert abs(fit.sigma_hat - design_model.sigma) <= 3 * se_sigma

    def test_agrees_with_general_solver(self, design_model, policy_unlimited):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 9))))
        sample = generate_sample(design_model, policy_unlimited,
                                 PaymentKind.PER_PAYMENT, 3000, rng)
        closed = lf.fit_left_truncated(sample)
        general = lf.fit_mle_y(sample)
        assert closed.theta_hat == pytest.approx(general.theta_hat, abs=1e-8)
        assert closed.sigma_hat == pytest.approx(general.sigma_hat, abs=1e-8)

    def test_agrees_with_huge_finite_limit_proxy(self, design_model,
                                                 policy_unlimited):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 10))))
        sample = generate_sample(design_model, policy_unlimited,
                                 PaymentKind.PER_PAYMENT, 1000, rng)
        t = sample.thresholds.t
        proxy = lf.NormalThresholds(t=t, T=1e20, R=1e20 - t)
        proxied = lf.PaymentSample(kind=sample.kind, values=sample.values,
                                   n0=0, n1=sample.n1, n2=0,
                                   policy=lf.PolicySpec(c=1.0, d=4.0, u=math.inf),
                                   thresholds=proxy)
        closed = lf.fit_left_truncated(sample)
        via_proxy = lf.fit_mle_y(proxied)
        assert via_proxy.theta_hat == pytest.approx(closed.theta_hat, abs=1e-6)
        assert via_proxy.sigma_hat == pytest.approx(closed.sigma_hat, abs=1e-6)

    def test_per_loss_records_unsubstituted_solution(self, design_model,
                                                     policy_unlimited):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 11))))
        sample = generate_sample(design_model, policy_unlimited,
                                 PaymentKind.PER_LOSS, 500, rng)
        fit = lf.fit_left_truncated(sample)
        exact = lf.fit_mle_z(sample)
        if "unsubstituted" in fit.extras:
            theta_u, sigma_u = fit.extras["unsubstituted"]
            assert theta_u == pytest.approx(exact.theta_hat, abs=1e-6)
            assert sigma_u == pytest.approx(exact.sigma_hat, abs=1e-6)
        else:
            assert fit.theta_hat == pytest.approx(exact.theta_hat, abs=2e-6)

    def test_requires_unlimited_contract(self, indemnity_moment_sample_y):
        with pytest.raises(DomainError):
            lf.fit_left_truncated(indemnity_moment_sample_y)


class TestCovLeftTruncated:
    def test_matches_general_cov_at_large_finite_limit(self, design_model):
        gamma, sigma = -1.3, 3.0
        far = lf.NormalThresholds(t=1.0, T=50.0, R=49.0)
        for kind, cov_general in ((PaymentKind.PER_PAYMENT, lf.cov_mle_y),
                                  (PaymentKind.PER_LOSS, lf.cov_mle_z)):
            limit_cov = lf.cov_left_truncated(gamma, sigma, kind)
            general = cov_general(gamma, sigma, far)
            np.testing.assert_allclose(general, limit_cov, atol=1e-6)

    def test_positive_definite(self):
        for kind in PaymentKind:
            cov = lf.cov_left_truncated(-1.3, 3.0, kind)
            assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestPerLossIsPerPaymentPlusBinomial:
    """A per-loss sample is its nonzero records, a per-payment sample, plus
    a Binomial(n, cdf(gamma)) count of zeros."""

    GAMMAS = np.linspace(-3.0, 4.0, 29)
    SIGMAS = (0.5, 1.0, 3.0)

    @pytest.mark.parametrize("R", [1.0, 3.0, math.inf])
    def test_loglik(self, R):
        # t = 0 and T = R on the normal scale
        policy = lf.PolicySpec(c=0.8, d=1.0, u=math.exp(R))
        model = lf.GroundUpLognormal(w0=0.0, theta=0.5, sigma=1.0)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((25, 1))))
        z = generate_sample(model, policy, PaymentKind.PER_LOSS, 400, rng)
        assert z.n0 > 0 and (z.n2 > 0 or math.isinf(R))
        nonzero = lf.PaymentSample(kind=PaymentKind.PER_PAYMENT,
                                   values=z.values[z.n0:], n0=0, n1=z.n1,
                                   n2=z.n2, policy=policy,
                                   thresholds=z.thresholds)
        for gamma in self.GAMMAS:
            for sigma in self.SIGMAS:
                expected = (lf.loglik_y(gamma, sigma, nonzero)
                            + z.n0 * std_normal_log_cdf(gamma)
                            + (z.n - z.n0) * std_normal_log_sf(gamma))
                assert lf.loglik_z(gamma, sigma, z) == pytest.approx(
                    expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("R", [1.0, 3.0, math.inf])
    def test_fisher(self, R):
        th = lf.NormalThresholds(t=0.0, T=R, R=R)
        for gamma in self.GAMMAS:
            sf = lf.std_normal_sf(gamma)
            binomial = lf.std_normal_pdf(gamma) ** 2 / (lf.std_normal_cdf(gamma) * sf)
            for sigma in self.SIGMAS:
                _, info_y = lf.fisher_y(gamma, sigma, th)
                _, info_z = lf.fisher_z(gamma, sigma, th)
                expected = sf * info_y
                expected[0, 0] += binomial
                np.testing.assert_allclose(info_z, expected, rtol=1e-14, atol=0.0)


class TestFitZEdgeCases:
    def test_complete_fallback_without_atoms(self, policy_u2e5):
        rng = np.random.default_rng(23)
        th = lf.derive_thresholds(policy_u2e5, 1.0)
        interior = np.clip(rng.normal(4.0, 1.0, size=400), 0.5, 10.0) - 0.0
        sample = _sample_from_values(interior, PaymentKind.PER_LOSS,
                                     policy_u2e5, w0=1.0)
        assert sample.n0 == 0 and sample.n2 == 0
        fit = lf.fit_mle_z(sample)
        assert fit.method == "mle-complete"
        shifted = interior + th.t
        assert fit.theta_hat == pytest.approx(float(np.mean(shifted)), rel=1e-12)
        assert fit.sigma_hat == pytest.approx(
            float(np.std(shifted)), rel=1e-12)

    def test_censored_but_no_zeros(self, design_model):
        # raise the deductible response: no zero records, some censored
        policy = lf.PolicySpec(c=1.0, d=4.0, u=900.0)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 12))))
        raw = generate_sample(design_model, policy, PaymentKind.PER_LOSS,
                              2000, rng)
        no_zero_values = raw.values[raw.n0:]
        sample = lf.PaymentSample(kind=PaymentKind.PER_LOSS,
                                  values=no_zero_values, n0=0,
                                  n1=raw.n1, n2=raw.n2, policy=policy,
                                  thresholds=raw.thresholds)
        fit = lf.fit_mle_z(sample)
        assert fit.converged

    def test_left_truncation_seed_when_uncensored(self, design_model,
                                                  policy_unlimited):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 13))))
        sample = generate_sample(design_model, policy_unlimited,
                                 PaymentKind.PER_LOSS, 1000, rng)
        assert sample.n2 == 0 and sample.n0 > 0
        fit = lf.fit_mle_z(sample)
        assert fit.converged
        assert fit.extras["residual"] <= 1e-8


class TestConfidenceIntervals:
    def test_wider_at_higher_levels(self, indemnity_moment_sample_y):
        fit = lf.fit_mle_y(indemnity_moment_sample_y)
        widths_theta = []
        widths_sigma = []
        for level in (0.80, 0.90, 0.95, 0.99):
            ci_t, ci_s = lf.confidence_intervals(fit, level)
            widths_theta.append(ci_t[1] - ci_t[0])
            widths_sigma.append(ci_s[1] - ci_s[0])
        assert all(np.diff(widths_theta) > 0)
        assert all(np.diff(widths_sigma) > 0)

    def test_sigma_interval_stays_positive(self, indemnity_moment_sample_y):
        fit = lf.fit_mle_y(indemnity_moment_sample_y)
        ci_t, ci_s = lf.confidence_intervals(fit, 0.999999)
        assert ci_s[0] > 0.0

    def test_level_domain(self, indemnity_moment_sample_y):
        fit = lf.fit_mle_y(indemnity_moment_sample_y)
        with pytest.raises(DomainError):
            lf.confidence_intervals(fit, 1.0)
