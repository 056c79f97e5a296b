"""Trimmed-moment coefficients, estimators, covariances, validation."""
import math
from fractions import Fraction

import numpy as np
import pytest

import lossfit as lf
import quadrature
from lossfit.errors import ConvergenceError, DomainError, TrimValidationError
from lossfit.payments import PaymentKind
from lossfit.simulation import generate_sample

COEFFICIENTS = ("c1", "c2", "c3", "c4", "c1_star", "c2_star", "c3_star")


def _y_sample(values, policy, w0=1.0):
    th = lf.derive_thresholds(policy, w0)
    values = np.sort(np.asarray(values, dtype=float))
    cr = policy.c * th.R
    n2 = int(np.sum(values == cr)) if math.isfinite(cr) else 0
    return lf.PaymentSample(kind=PaymentKind.PER_PAYMENT, values=values,
                            n0=0, n1=values.size - n2, n2=n2, policy=policy,
                            thresholds=th)


class TestTrimSpec:
    def test_rational_counts_are_exact(self):
        trim = lf.TrimSpec("150/1451", "300/1451")
        assert trim.counts(1451) == (150, 300)
        assert trim.a_exact == Fraction(150, 1451)

    def test_float_counts(self):
        assert lf.TrimSpec(0.2, 0.2).counts(10) == (2, 2)
        assert lf.TrimSpec(0.1, 0.25).counts(1451) == (145, 362)

    def test_float_near_integer_snaps(self):
        # 1451 * (150/1451 as a float) = 149.99999999999997
        trim = lf.TrimSpec(150 / 1451, 150 / 1451)
        assert trim.counts(1451) == (150, 150)

    def test_invalid_fractions(self):
        with pytest.raises(DomainError):
            lf.TrimSpec(0.5, 0.5)
        with pytest.raises(DomainError):
            lf.TrimSpec(-0.1, 0.2)

    def test_empty_window_rejected(self):
        # a + b < 1 keeps floor(na) + floor(nb) <= n - 1 for exact inputs,
        # but near-half fractions can snap both counts up to n/2
        with pytest.raises(TrimValidationError):
            lf.TrimSpec(0.49999999999999, 0.49999999999999).counts(10)

    def test_window_never_empties_for_plain_fractions(self):
        # floor(na) + floor(nb) < n whenever a + b < 1
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = rng.uniform(0, 0.95)
            b = rng.uniform(0, 0.999 - a)
            n = int(rng.integers(2, 50))
            m_lo, m_hi = lf.TrimSpec(a, b).counts(n)
            assert m_lo + m_hi < n


class TestTrimmedSampleMoments:
    POLICY = lf.PolicySpec(c=1.0, d=4.0, u=2e5)

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0.5, 5.0, size=10))
        sample = _y_sample(values, self.POLICY)
        t = sample.thresholds.t
        trim = lf.TrimSpec(0.2, 0.2)
        # brute force over the sorted list: order statistics 3..8
        window = np.sort(values)[2:8] + t
        assert lf.trimmed_sample_moments(sample, trim, 1) == pytest.approx(
            float(np.mean(window)), rel=1e-14)
        assert lf.trimmed_sample_moments(sample, trim, 2) == pytest.approx(
            float(np.mean(window ** 2)), rel=1e-14)

    def test_no_trim_is_plain_moment(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 0))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_LOSS, 100, rng)
        trim = lf.TrimSpec(0.0, 0.0)
        h = sample.values / sample.policy.c + sample.thresholds.t
        assert lf.trimmed_sample_moments(sample, trim, 1) == pytest.approx(
            float(np.mean(h)), rel=1e-14)

    def test_constant_window(self):
        sample = _y_sample(np.full(8, 2.5), self.POLICY)
        t = sample.thresholds.t
        assert lf.trimmed_sample_moments(sample, lf.TrimSpec(0.25, 0.25), 2) \
            == pytest.approx((2.5 + t) ** 2, rel=1e-14)

    def test_outliers_beyond_window_are_ignored(self, design_model,
                                                policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 1))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_PAYMENT, 200, rng)
        trim = lf.TrimSpec(0.1, 0.1)
        base = lf.trimmed_sample_moments(sample, trim, 1)
        # push the largest observation to the censoring point: still trimmed
        contaminated = sample.values.copy()
        contaminated[-1] = sample.censoring_point
        dirty = _y_sample(contaminated, policy_u2e5)
        assert lf.trimmed_sample_moments(dirty, trim, 1) == pytest.approx(
            base, rel=1e-14)


class TestCoefficientsY:
    def test_limit_matches_complete_data(self):
        trim = lf.TrimSpec(0.1, 0.1)
        far = lf.coeff_c_y(-20.0, trim)
        complete = lf.coeff_c_complete(trim)
        for k in ("c1", "c2", "c3", "c4"):
            assert getattr(far, k) == pytest.approx(getattr(complete, k),
                                                    abs=1e-8)

    def test_symmetric_trim_first_coefficient_vanishes_in_limit(self):
        cset = lf.coeff_c_y(-20.0, lf.TrimSpec(0.1, 0.1))
        assert abs(cset.c1) <= 1e-8

    def test_against_midpoint_riemann_oracle(self):
        gamma, a, b = -1.3005, 0.0, 0.05
        p_t = lf.std_normal_cdf(gamma)
        n = 10_000_000
        s = a + (np.arange(n) + 0.5) / n * (1 - b - a)
        z = lf.std_normal_quantile(s + (1 - s) * p_t)
        trim = lf.TrimSpec(a, b)
        cset = lf.coeff_c_y(gamma, trim)
        for k in (1, 2):
            oracle = float(np.mean(z ** k))  # window average
            assert getattr(cset, f"c{k}") == pytest.approx(oracle, abs=1e-7)

    def test_derivatives_match_finite_differences(self):
        trim = lf.TrimSpec(0.05, 0.1)
        t, sigma, theta = 1.0, 2.0, 3.5
        h = 1e-5

        def c_at(theta_val, k):
            gamma = (t - theta_val) / sigma
            return getattr(lf.coeff_c_y(gamma, trim), f"c{k}")

        cset = lf.coeff_c_y((t - theta) / sigma, trim, sigma=sigma)
        for k, analytic in ((1, cset.dc1_dtheta), (2, cset.dc2_dtheta)):
            fd = (c_at(theta + h, k) - c_at(theta - h, k)) / (2 * h)
            assert analytic == pytest.approx(fd, rel=1e-6)
        # scale derivative via the chain rule through gamma
        gamma = (t - theta) / sigma
        assert cset.dc1_dsigma == pytest.approx(gamma * cset.dc1_dtheta,
                                                rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 0.05), (0.05, 0.1), (0.1, 0.25)])
    @pytest.mark.parametrize("gamma", [-3.0, -0.6, 0.0, 1.5])
    def test_closed_forms_match_quadrature(self, gamma, a, b):
        sigma = 2.0
        cset = lf.coeff_c_y(gamma, lf.TrimSpec(a, b), sigma=sigma)
        for k in (1, 2, 3, 4):
            assert getattr(cset, f"c{k}") == pytest.approx(
                quadrature.c_y(gamma, a, b, k), abs=1e-12)
        for k in (1, 2):
            assert getattr(cset, f"dc{k}_dtheta") == pytest.approx(
                quadrature.dc_y_dtheta(gamma, a, b, k, sigma), rel=1e-10)
        stars = quadrature.c_star_y(gamma, a, b)
        for k in (1, 2, 3):
            assert getattr(cset, f"c{k}_star") == pytest.approx(stars[k - 1],
                                                                rel=1e-10)

    def test_zero_upper_fraction_is_analytic_limit(self):
        # b = 0 is the limit of the window as it reaches the top of the
        # support, not a singular endpoint
        gamma = -1.0
        cset = lf.coeff_c_y(gamma, lf.TrimSpec(0.1, 0.0))
        for k in (1, 2, 3, 4):
            assert getattr(cset, f"c{k}") == pytest.approx(
                quadrature.c_y(gamma, 0.1, 0.0, k), abs=1e-8)
        for k in (1, 2):
            assert getattr(cset, f"dc{k}_dtheta") == pytest.approx(
                quadrature.dc_y_dtheta(gamma, 0.1, 0.0, k), abs=1e-8)
        near = lf.coeff_c_y(gamma, lf.TrimSpec(0.1, 1e-14))
        for name in COEFFICIENTS + ("dc1_dtheta", "dc2_dtheta"):
            assert getattr(cset, name) == pytest.approx(getattr(near, name), abs=1e-9)
        with pytest.raises(DomainError):
            lf.coeff_c_y(-math.inf, lf.TrimSpec(0.1, 0.1))

    @pytest.mark.parametrize("gamma", [8.0, 9.0, 15.0, 30.0])
    def test_stable_far_in_the_right_tail(self, gamma):
        # the naive quantile(s + (1 - s) cdf(gamma)) rounds to quantile(1)
        # here; the window ends are read from the right tail instead
        th = lf.NormalThresholds(t=gamma, T=math.inf, R=math.inf)
        for a, b in ((0.0, 0.05), (0.05, 0.1), (0.1, 0.25)):
            trim = lf.TrimSpec(a, b)
            cset = lf.coeff_c_y(gamma, trim)
            assert all(math.isfinite(getattr(cset, name)) for name in COEFFICIENTS)
            z_a = gamma if a == 0.0 else -lf.std_normal_quantile(
                (1 - a) * lf.std_normal_sf(gamma))
            z_b = -lf.std_normal_quantile(b * lf.std_normal_sf(gamma))
            assert z_a <= cset.c1 <= z_b
            assert cset.c2 > cset.c1 ** 2
            cov = lf.cov_mtm_y(0.0, 1.0, th, trim)
            assert np.all(np.isfinite(cov))
            assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestCoefficientsComplete:
    def test_symmetric_trim_kills_odd_coefficients(self):
        cset = lf.coeff_c_complete(lf.TrimSpec(0.15, 0.15))
        assert abs(cset.c1) <= 1e-12
        assert abs(cset.c3) <= 1e-11

    @pytest.mark.parametrize("a,b", [(0.1, 0.1), (0.05, 0.25)])
    def test_closed_form_stars_match_double_integrals(self, a, b):
        trim = lf.TrimSpec(a, b)
        closed = lf.coeff_c_complete(trim)
        direct = quadrature.c_star_y(-math.inf, a, b)
        assert closed.c1_star == pytest.approx(direct[0], abs=1e-6)
        assert closed.c2_star == pytest.approx(direct[1], abs=1e-6)
        assert closed.c3_star == pytest.approx(direct[2], abs=1e-6)

    def test_zero_fractions_are_analytic_limits(self):
        cset = lf.coeff_c_complete(lf.TrimSpec(0.0, 0.1))
        for k in (1, 2, 3, 4):
            assert getattr(cset, f"c{k}") == pytest.approx(
                quadrature.c_y(-math.inf, 0.0, 0.1, k), abs=1e-8)
        near = lf.coeff_c_complete(lf.TrimSpec(1e-14, 0.1))
        for name in COEFFICIENTS:
            assert getattr(cset, name) == pytest.approx(getattr(near, name), abs=1e-9)
        # no trimming at all: plain standard normal moments, and the stars
        # are var(Z), cov(Z, Z^2) / 2 and var(Z^2) / 4
        untrimmed = lf.coeff_c_complete(lf.TrimSpec(0.0, 0.0))
        for name, want in zip(COEFFICIENTS, (0.0, 1.0, 0.0, 3.0, 1.0, 0.0, 0.5)):
            assert getattr(untrimmed, name) == pytest.approx(want, abs=1e-12)


class TestStarCoefficientLimit:
    def test_variance_integrals_reduce_to_complete_data(self):
        trim = lf.TrimSpec(0.1, 0.1)
        far = quadrature.c_star_y(-20.0, 0.1, 0.1)
        complete = lf.coeff_c_complete(trim)
        assert far[0] == pytest.approx(complete.c1_star, abs=1e-6)
        assert far[1] == pytest.approx(complete.c2_star, abs=1e-6)
        assert far[2] == pytest.approx(complete.c3_star, abs=1e-6)


class TestFitMtmY:
    def test_recovers_design_parameters(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 2))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_PAYMENT, 2000, rng)
        fit = lf.fit_mtm_y(sample, lf.TrimSpec(0.05, 0.05), validate=False)
        assert fit.converged
        se_theta = fit.se_theta
        se_sigma = fit.se_sigma
        assert abs(fit.theta_hat - design_model.theta) <= 4 * se_theta
        assert abs(fit.sigma_hat - design_model.sigma) <= 4 * se_sigma
        # back-substitution: the fitted pair solves both moment equations
        mu1 = lf.trimmed_sample_moments(sample, lf.TrimSpec(0.05, 0.05), 1)
        mu2 = lf.trimmed_sample_moments(sample, lf.TrimSpec(0.05, 0.05), 2)
        gamma = fit.gamma_hat
        cset = lf.coeff_c_y(gamma, lf.TrimSpec(0.05, 0.05))
        assert fit.theta_hat + cset.c1 * fit.sigma_hat == pytest.approx(
            mu1, abs=1e-8)
        assert (fit.theta_hat ** 2
                + 2 * fit.theta_hat * fit.sigma_hat * cset.c1
                + fit.sigma_hat ** 2 * cset.c2) == pytest.approx(mu2, abs=1e-7)

    def test_plugin_close_to_implicit(self):
        # a contract with a moderate truncation share, where freezing the
        # truncation probability at the start values is a fair shortcut
        model = lf.GroundUpLognormal(w0=0.0, theta=9.4, sigma=1.6)
        policy = lf.PolicySpec(c=1.0, d=500.0, u=1e5)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 3))))
        sample = generate_sample(model, policy, PaymentKind.PER_PAYMENT,
                                 2000, rng)
        trim = lf.TrimSpec(0.0, 0.12)
        full = lf.fit_mtm_y(sample, trim, validate=False)
        plugin = lf.fit_mtm_y_plugin(sample, trim, validate=False)
        assert plugin.iterations == 0
        assert plugin.theta_hat == pytest.approx(full.theta_hat, abs=0.1)
        assert plugin.sigma_hat == pytest.approx(full.sigma_hat, abs=0.1)

    def test_plugin_reduces_to_complete_form_when_truncation_vanishes(self):
        # values far above the deductible: the plugged-in truncation
        # probability is numerically zero
        policy = lf.PolicySpec(c=1.0, d=1.0 + 1e-9, u=math.inf)
        rng = np.random.default_rng(12)
        values = rng.normal(25.0, 1.0, size=400)
        sample = _y_sample(values, policy)
        trim = lf.TrimSpec(0.1, 0.1)
        plugin = lf.fit_mtm_y_plugin(sample, trim, validate=False)
        mu1 = lf.trimmed_sample_moments(sample, trim, 1)
        mu2 = lf.trimmed_sample_moments(sample, trim, 2)
        complete = lf.coeff_c_complete(trim)
        sigma_closed = math.sqrt((mu2 - mu1 ** 2)
                                 / (complete.c2 - complete.c1 ** 2))
        theta_closed = mu1 - complete.c1 * sigma_closed
        assert plugin.sigma_hat == pytest.approx(sigma_closed, rel=1e-9)
        assert plugin.theta_hat == pytest.approx(theta_closed, rel=1e-9)

    @pytest.mark.xfail(
        strict=True, raises=ConvergenceError,
        reason="the fixed point contracts too slowly on this sample and stops "
               "after 200 passes even with exact coefficients; ROADMAP open "
               "item 3 replaces it with a safeguarded scalar root in gamma")
    def test_slowly_contracting_sample_converges(self, design_model,
                                                 policy_u2e5):
        # the first (n = 500) sample of replication 82 of a study seeded
        # 3109143429, drawn exactly as simulation._run_replication draws it
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(3109143429, 82))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_PAYMENT, 500, rng)
        fit = lf.fit_mtm_y(sample, lf.TrimSpec(0.0, 0.25), validate=False,
                           with_cov=False)
        assert fit.converged

    def test_empirical_validation_enforced(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 4))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_PAYMENT, 500, rng)
        assert sample.n2 > 0
        with pytest.raises(TrimValidationError):
            lf.fit_mtm_y(sample, lf.TrimSpec(0.0, 1e-6))

    def test_kind_check(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 5))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_LOSS, 100, rng)
        with pytest.raises(DomainError):
            lf.fit_mtm_y(sample, lf.TrimSpec(0.1, 0.1))


class TestFitMtmZ:
    def test_closed_form_residuals(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 6))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_LOSS, 1500, rng)
        fit = lf.fit_mtm_z(sample, lf.TrimSpec(0.15, 0.15), validate=False)
        assert fit.extras["residual"] <= 1e-12
        assert fit.iterations == 0

    def test_window_must_clear_atoms(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 7))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_LOSS, 1000, rng)
        assert sample.n0 > 20
        with pytest.raises(TrimValidationError):
            lf.fit_mtm_z(sample, lf.TrimSpec(0.01, 0.1))

    def test_estimates_track_design_parameters(self, design_model,
                                               policy_u24k):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 8))))
        sample = generate_sample(design_model, policy_u24k,
                                 PaymentKind.PER_LOSS, 4000, rng)
        fit = lf.fit_mtm_z(sample, lf.TrimSpec(0.10, 0.10), validate=False)
        assert abs(fit.theta_hat - design_model.theta) <= 4 * fit.se_theta
        assert abs(fit.sigma_hat - design_model.sigma) <= 4 * fit.se_sigma

    def test_robust_to_window_outliers(self, design_model, policy_u2e5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 9))))
        sample = generate_sample(design_model, policy_u2e5,
                                 PaymentKind.PER_LOSS, 1000, rng)
        trim = lf.TrimSpec(0.12, 0.12)
        base = lf.fit_mtm_z(sample, trim, validate=False)
        values = sample.values.copy()
        values[-5:] = sample.censoring_point  # push extremes to the boundary
        dirty = lf.PaymentSample(kind=PaymentKind.PER_LOSS,
                                 values=values, n0=sample.n0,
                                 n1=sample.n - sample.n0
                                 - int(np.sum(values == sample.censoring_point)),
                                 n2=int(np.sum(values == sample.censoring_point)),
                                 policy=policy_u2e5,
                                 thresholds=sample.thresholds)
        contaminated = lf.fit_mtm_z(dirty, trim, validate=False)
        assert contaminated.theta_hat == pytest.approx(base.theta_hat,
                                                       rel=1e-12)
        assert contaminated.sigma_hat == pytest.approx(base.sigma_hat,
                                                       rel=1e-12)


class TestCovariances:
    def test_y_efficiency_reference_cells(self, design_model, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        std = lf.standardize(design_model, th)
        s_mle = lf.cov_mle_y(std.gamma, design_model.sigma, th)
        s_light_trim = lf.cov_mtm_y(design_model.theta, design_model.sigma,
                                    th, lf.TrimSpec(0.0, 0.01))
        assert lf.are_pair(s_mle, s_light_trim) == pytest.approx(0.987,
                                                                 abs=0.002)
        s_heavy_trim = lf.cov_mtm_y(design_model.theta, design_model.sigma,
                                    th, lf.TrimSpec(0.25, 0.25))
        assert lf.are_pair(s_mle, s_heavy_trim) == pytest.approx(0.556,
                                                                 abs=0.002)

    def test_z_efficiency_reference_cells(self, design_model, policy_u2e5,
                                          policy_u85h):
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        std = lf.standardize(design_model, th)
        s_mle = lf.cov_mle_z(std.gamma, design_model.sigma, th)
        s_mtm = lf.cov_mtm_z(design_model.sigma, lf.TrimSpec(0.10, 0.01))
        assert lf.are_pair(s_mle, s_mtm) == pytest.approx(0.948, abs=0.002)
        th_small = lf.derive_thresholds(policy_u85h, design_model.w0)
        std_small = lf.standardize(design_model, th_small)
        s_mle_small = lf.cov_mle_z(std_small.gamma, design_model.sigma,
                                   th_small)
        s_median_like = lf.cov_mtm_z(design_model.sigma,
                                     lf.TrimSpec(0.49, 0.25))
        assert lf.are_pair(s_mle_small, s_median_like) == pytest.approx(
            0.371, abs=0.002)

    def test_work_record_is_finite_and_cov_spd(self, design_model,
                                               policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        cov, work = lf.cov_mtm_y(design_model.theta, design_model.sigma, th,
                                 lf.TrimSpec(0.05, 0.1), return_work=True)
        for field_name in ("f11", "f12", "f21", "f22", "K", "d11", "d12",
                           "d21", "d22", "sigma2_11", "sigma2_12", "sigma2_22"):
            assert math.isfinite(getattr(work, field_name))
        assert work.sigma2_11 > 0 and work.sigma2_22 > 0
        assert cov[0, 1] == cov[1, 0]
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_moment_covariance_against_simulation(self, design_model,
                                                  policy_u2e5):
        # empirical covariance of the two trimmed moments, scaled by n,
        # matches the min-kernel integrals
        trim = lf.TrimSpec(0.1, 0.1)
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        _, work = lf.cov_mtm_y(design_model.theta, design_model.sigma, th,
                               trim, return_work=True)
        dist = lf.dist_y(design_model, policy_u2e5)
        reps, n = 10_000, 2000
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 10))))
        m_lo, m_hi = trim.counts(n)
        mu1 = np.empty(reps)
        mu2 = np.empty(reps)
        batch = 500
        for start in range(0, reps, batch):
            u = rng.random((batch, n))
            v = np.sort(dist.qf(u), axis=1)[:, m_lo:n - m_hi]
            h = v / policy_u2e5.c + th.t
            mu1[start:start + batch] = h.mean(axis=1)
            mu2[start:start + batch] = (h ** 2).mean(axis=1)
        emp = np.cov(np.vstack([mu1, mu2]), ddof=1) * n
        assert emp[0, 0] == pytest.approx(work.sigma2_11, rel=0.05)
        assert emp[0, 1] == pytest.approx(work.sigma2_12, rel=0.05)
        assert emp[1, 1] == pytest.approx(work.sigma2_22, rel=0.05)

    def test_scale_domain_guard(self):
        with pytest.raises(DomainError):
            lf.cov_mtm_z(-1.0, lf.TrimSpec(0.1, 0.1))
        th = lf.NormalThresholds(t=1.0, T=5.0, R=4.0)
        with pytest.raises(DomainError):
            lf.cov_mtm_y(5.0, 0.0, th, lf.TrimSpec(0.1, 0.1))


class TestEstimatedAre:
    """Per-row efficiency at the MLE-fitted parameters.

    These values depend on the indemnity data only through the
    maximum-likelihood fit, which the synthetic moment samples pin down,
    so the reported columns are checkable without the dataset.
    """

    Y_ROWS = [((0, "150/1451"), 0.94), ((0, "200/1451"), 0.89),
              ((0, "300/1451"), 0.80), ((0, "700/1451"), 0.48),
              (("10/1451", "150/1451"), 0.94), (("50/1451", "200/1451"), 0.89),
              (("100/1451", "300/1451"), 0.79)]
    Z_ROWS = [(("75/1500", "150/1500"), 0.92), (("75/1500", "225/1500"), 0.86),
              (("75/1500", "375/1500"), 0.76), (("75/1500", "750/1500"), 0.52),
              (("150/1500", "150/1500"), 0.86), (("225/1500", "225/1500"), 0.76),
              (("375/1500", "375/1500"), 0.57), (("700/1500", "700/1500"), 0.16)]

    def test_per_payment_rows(self, indemnity_moment_sample_y):
        sample = indemnity_moment_sample_y
        th = sample.thresholds
        mle = lf.fit_mle_y(sample)
        s_mle = lf.cov_mle_y(mle.gamma_hat, mle.sigma_hat, th)
        for (a, b), want in self.Y_ROWS:
            s_mtm = lf.cov_mtm_y(mle.theta_hat, mle.sigma_hat, th,
                                 lf.TrimSpec(a, b))
            assert lf.are_pair(s_mle, s_mtm) == pytest.approx(want, abs=0.005)
        # the near-median trim: reported 0.24; this pipeline gets 0.218,
        # stable under parameter perturbation, while the matching per-loss
        # deep trim agrees with its reported value to 0.004 below
        s_deep = lf.cov_mtm_y(mle.theta_hat, mle.sigma_hat, th,
                              lf.TrimSpec("650/1451", "650/1451"))
        assert lf.are_pair(s_mle, s_deep) == pytest.approx(0.218, abs=0.005)

    def test_per_loss_rows(self, indemnity_moment_sample_z):
        sample = indemnity_moment_sample_z
        mle = lf.fit_mle_z(sample)
        s_mle = lf.cov_mle_z(mle.gamma_hat, mle.sigma_hat, sample.thresholds)
        for (a, b), want in self.Z_ROWS:
            s_mtm = lf.cov_mtm_z(mle.sigma_hat, lf.TrimSpec(a, b))
            assert lf.are_pair(s_mle, s_mtm) == pytest.approx(want, abs=0.005)


class TestValidation:
    def test_y_empirical_and_parametric(self, indemnity_moment_sample_y):
        fit = lf.fit_mle_y(indemnity_moment_sample_y)
        sample = indemnity_moment_sample_y
        verdict = lf.validate_trim_y(sample, lf.TrimSpec("300/1451", "300/1451"),
                                     fit)
        cov = verdict.coverage
        assert cov.s_star_empirical == pytest.approx(1299 / 1451, rel=1e-12)
        assert round(cov.s_star_parametric, 2) == 0.90
        assert verdict.passed

    def test_y_boundary_trim_fails_strictly(self, indemnity_moment_sample_y):
        # 1 - 150/1451 exceeds the empirical uncensored share 1299/1451 by
        # 2/1451, so the strict window condition fails (the published
        # analysis worked at two-decimal resolution)
        verdict = lf.validate_trim_y(indemnity_moment_sample_y,
                                     lf.TrimSpec("150/1451", "150/1451"))
        assert not verdict.empirical_passed

    def test_b_zero_needs_unlimited_contract(self, indemnity_moment_sample_y,
                                             design_model, policy_unlimited):
        verdict = lf.validate_trim_y(indemnity_moment_sample_y,
                                     lf.TrimSpec(0.0, 0.0))
        assert not verdict.empirical_passed
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 11))))
        unlimited = generate_sample(design_model, policy_unlimited,
                                    PaymentKind.PER_PAYMENT, 100, rng)
        assert lf.validate_trim_y(unlimited, lf.TrimSpec(0.0, 0.0)).empirical_passed

    def test_z_conditions(self, indemnity_moment_sample_z):
        sample = indemnity_moment_sample_z
        fit = lf.fit_mle_z(sample)
        verdict = lf.validate_trim_z(sample, lf.TrimSpec("75/1500", "375/1500"),
                                     fit)
        cov = verdict.coverage
        assert cov.fn_t == pytest.approx(49 / 1500, rel=1e-12)
        assert cov.fn_T == pytest.approx(1348 / 1500, rel=1e-12)
        assert round(cov.fx_t_hat, 2) == 0.03
        assert round(cov.fx_T_hat, 2) == 0.90
        assert verdict.passed

    def test_z_lower_fraction_below_zero_share_fails(
            self, indemnity_moment_sample_z):
        verdict = lf.validate_trim_z(indemnity_moment_sample_z,
                                     lf.TrimSpec(0.01, 0.25))
        assert not verdict.empirical_passed
        assert any("zero" in m for m in verdict.messages)
