"""Policy transformations and payment distributions."""
import math

import numpy as np
import pytest

import lossfit as lf
from lossfit.errors import DataError, DegenerateBandError, DomainError
from lossfit.payments import PaymentKind


class TestDeriveThresholds:
    def test_indemnity_contract(self):
        th = lf.derive_thresholds(lf.PolicySpec(c=1.0, d=500.0, u=1e5), 0.0)
        assert round(th.t, 4) == 6.2146
        assert round(th.T, 4) == 11.5129
        assert round(th.R, 4) == 5.2983

    def test_unlimited(self):
        th = lf.derive_thresholds(lf.PolicySpec(c=1.0, d=4.0, u=math.inf), 1.0)
        assert th.t == pytest.approx(math.log(3.0))
        assert math.isinf(th.T) and math.isinf(th.R)
        assert th.unlimited

    def test_design_contract(self):
        th = lf.derive_thresholds(lf.PolicySpec(c=1.0, d=4.0, u=2e5), 1.0)
        assert round(th.t, 4) == 1.0986
        assert round(th.T, 4) == 12.2061

    def test_deductible_below_shift_rejected(self):
        with pytest.raises(DomainError):
            lf.derive_thresholds(lf.PolicySpec(c=1.0, d=4.0, u=10.0), 4.0)

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            lf.PolicySpec(c=0.0, d=1.0, u=2.0)
        with pytest.raises(DomainError):
            lf.PolicySpec(c=1.0, d=5.0, u=5.0)


class TestStandardize:
    def test_gamma_zero_case(self, design_model):
        th = lf.NormalThresholds(t=design_model.theta, T=design_model.theta + 3,
                                 R=3.0)
        std = lf.standardize(design_model, th)
        assert std.gamma == 0.0
        expected = lf.std_normal_pdf(0.0) / (0.5 - (1 - lf.std_normal_cdf(std.xi)))
        assert std.omega1 == pytest.approx(expected, rel=1e-12)

    def test_unlimited_upper_ratio_vanishes(self, design_model, policy_unlimited):
        th = lf.derive_thresholds(policy_unlimited, design_model.w0)
        std = lf.standardize(design_model, th)
        assert std.omega2 == 0.0
        assert math.isinf(std.xi)

    def test_design_values(self, design_model, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, design_model.w0)
        std = lf.standardize(design_model, th)
        assert round(std.gamma, 4) == -1.3005
        assert round(std.xi, 4) == 2.4020
        band = lf.std_normal_cdf(std.xi) - lf.std_normal_cdf(std.gamma)
        assert std.omega1 == pytest.approx(lf.std_normal_pdf(std.gamma) / band,
                                           rel=1e-12)
        assert std.omega2 == pytest.approx(lf.std_normal_pdf(std.xi) / band,
                                           rel=1e-12)

    def test_degenerate_band(self):
        model = lf.GroundUpLognormal(w0=0.0, theta=5000.0, sigma=1.0)
        th = lf.NormalThresholds(t=1.0, T=2.0, R=1.0)
        with pytest.raises(DegenerateBandError):
            lf.standardize(model, th)


class TestTransformToNormal:
    POLICY = lf.PolicySpec(c=1.0, d=500.0, u=1e5)

    def test_max_payment_maps_to_censoring_point(self):
        sample = lf.transform_to_normal([99500.0, 1.0], PaymentKind.PER_PAYMENT,
                                        self.POLICY, 0.0)
        assert sample.n2 == 1
        assert sample.values[-1] == sample.censoring_point

    def test_zero_maps_to_zero_atom(self):
        sample = lf.transform_to_normal([0.0, 10.0], PaymentKind.PER_LOSS,
                                        self.POLICY, 0.0)
        assert sample.n0 == 1
        assert sample.values[0] == 0.0

    def test_zero_rejected_for_per_payment(self):
        with pytest.raises(DataError) as err:
            lf.transform_to_normal([5.0, 0.0], PaymentKind.PER_PAYMENT,
                                   self.POLICY, 0.0)
        assert err.value.index == 1

    def test_values_match_shifted_log(self):
        rng = np.random.default_rng(11)
        w = np.exp(rng.normal(7.0, 1.0, size=200))  # ground-up losses
        w = np.clip(w, 501.0, 9.9e4)
        raw = w - 500.0
        sample = lf.transform_to_normal(raw, PaymentKind.PER_PAYMENT,
                                        self.POLICY, 0.0)
        expected = np.sort(np.log(w) - 0.0)  # x = log(w - w0), value = x - t
        np.testing.assert_allclose(sample.values,
                                   expected - math.log(500.0), rtol=1e-12)

    def test_out_of_range_payment_identified(self):
        with pytest.raises(DataError) as err:
            lf.transform_to_normal([1.0, 2.0, 1e6], PaymentKind.PER_PAYMENT,
                                   self.POLICY, 0.0)
        assert err.value.index == 2

    def test_negative_payment_identified(self):
        with pytest.raises(DataError) as err:
            lf.transform_to_normal([1.0, -2.0], PaymentKind.PER_LOSS,
                                   self.POLICY, 0.0)
        assert err.value.index == 1

    def test_coinsurance_scaling(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(1.0, 9e4, size=50)
        full = lf.transform_to_normal(raw, PaymentKind.PER_PAYMENT,
                                      lf.PolicySpec(c=1.0, d=500.0, u=1e5), 0.0)
        lam = 0.5
        half = lf.transform_to_normal(lam * raw, PaymentKind.PER_PAYMENT,
                                      lf.PolicySpec(c=lam, d=500.0, u=1e5), 0.0)
        # classification is unchanged and the normal values scale with c,
        # so the shifted values v/c + t coincide
        assert (half.n0, half.n1, half.n2) == (full.n0, full.n1, full.n2)
        np.testing.assert_allclose(half.values / lam, full.values, rtol=1e-12)


class TestSampleValidation:
    def test_count_mismatch_rejected(self, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, 1.0)
        with pytest.raises(DomainError):
            lf.PaymentSample(kind=PaymentKind.PER_PAYMENT,
                             values=np.array([1.0, 2.0]), n0=0, n1=1, n2=1,
                             policy=policy_u2e5, thresholds=th)

    def test_per_payment_zero_rejected(self, policy_u2e5):
        th = lf.derive_thresholds(policy_u2e5, 1.0)
        with pytest.raises(DomainError):
            lf.PaymentSample(kind=PaymentKind.PER_PAYMENT,
                             values=np.array([0.0, 2.0]), n0=1, n1=1, n2=0,
                             policy=policy_u2e5, thresholds=th)


class TestDistY:
    def test_cdf_boundaries(self, design_model, policy_u2e5):
        dist = lf.dist_y(design_model, policy_u2e5)
        cr = dist.censoring_point
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(cr) == 1.0
        assert dist.cdf(cr + 1.0) == 1.0

    def test_qf_formula_branch(self, design_model, policy_u2e5):
        dist = lf.dist_y(design_model, policy_u2e5)
        th = dist.thresholds
        p_t = lf.std_normal_cdf(dist.std.gamma)
        for v in (0.01, 0.3, 0.9):
            direct = (design_model.theta
                      + design_model.sigma
                      * lf.std_normal_quantile(v + (1 - v) * p_t) - th.t)
            assert dist.qf(v) == pytest.approx(direct, rel=1e-12)

    def test_round_trip_on_continuous_branch(self, design_model, policy_u2e5):
        dist = lf.dist_y(design_model, policy_u2e5)
        v = np.linspace(0.002, dist.s_star - 1e-6, 100)
        np.testing.assert_allclose(dist.cdf(dist.qf(v)), v, atol=1e-10)

    def test_censoring_atom(self, design_model, policy_u2e5):
        dist = lf.dist_y(design_model, policy_u2e5)
        std = dist.std
        expected = lf.std_normal_cdf(-std.xi) / lf.std_normal_cdf(-std.gamma)
        assert dist.pdf(dist.censoring_point) == pytest.approx(expected, rel=1e-12)
        assert dist.qf(dist.s_star) == dist.censoring_point  # closed upper branch
        assert dist.qf(1.0) == dist.censoring_point

    def test_unlimited_matches_truncated_normal(self, design_model,
                                                policy_unlimited):
        dist = lf.dist_y(design_model, policy_unlimited)
        th = dist.thresholds
        y = np.linspace(0.01, 20.0, 50)
        x = (y + th.t - design_model.theta) / design_model.sigma
        g = (th.t - design_model.theta) / design_model.sigma
        expected = ((lf.std_normal_cdf(x) - lf.std_normal_cdf(g))
                    / (1 - lf.std_normal_cdf(g)))
        np.testing.assert_allclose(dist.cdf(y), expected, rtol=1e-12)

    def test_qf_domain(self, design_model, policy_u2e5):
        dist = lf.dist_y(design_model, policy_u2e5)
        with pytest.raises(DomainError):
            dist.qf(1.5)
        with pytest.raises(DomainError):
            dist.qf(-0.1)

    def test_qf_nondecreasing(self, design_model, policy_u2e5):
        dist = lf.dist_y(design_model, policy_u2e5)
        v = np.linspace(0.0, 1.0, 501)
        assert np.all(np.diff(dist.qf(v)) >= 0)


class TestDistZ:
    def test_zero_atom_mass(self, design_model):
        dist = lf.dist_z(design_model, lf.PolicySpec(c=1.0, d=4.0, u=2e5))
        assert round(dist.pdf(0.0), 4) == 0.0967
        assert dist.pdf(0.0) == pytest.approx(lf.std_normal_cdf(dist.std.gamma),
                                              rel=1e-12)

    def test_qf_branches(self, design_model, policy_u2e5):
        dist = lf.dist_z(design_model, policy_u2e5)
        p_t = lf.std_normal_cdf(dist.std.gamma)
        p_T = lf.std_normal_cdf(dist.std.xi)
        assert dist.qf(p_t / 2) == 0.0
        assert dist.qf(p_t) == 0.0
        mid = 0.5 * (p_t + p_T)
        direct = (design_model.theta
                  + design_model.sigma * lf.std_normal_quantile(mid)
                  - dist.thresholds.t)
        assert dist.qf(mid) == pytest.approx(direct, rel=1e-12)
        assert dist.qf(p_T) == dist.censoring_point
        assert dist.qf(1.0) == dist.censoring_point

    def test_total_mass_one(self, design_model, policy_u2e5):
        dist = lf.dist_z(design_model, policy_u2e5)
        p_t = lf.std_normal_cdf(dist.std.gamma)
        p_T = lf.std_normal_cdf(dist.std.xi)
        total = dist.pdf(0.0) + (p_T - p_t) + dist.pdf(dist.censoring_point)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_cdf_right_continuous_at_zero(self, design_model, policy_u2e5):
        dist = lf.dist_z(design_model, policy_u2e5)
        assert dist.cdf(0.0) == pytest.approx(
            lf.std_normal_cdf(dist.std.gamma), rel=1e-12)
        assert dist.cdf(-1e-12) == 0.0

    @pytest.mark.parametrize("R", [1.0, 3.0, math.inf])
    def test_cdf_is_zero_atom_plus_per_payment_cdf(self, R):
        # per-loss = per-payment plus a binomial count of zeros:
        # cdf_z = cdf(gamma) + sf(gamma) cdf_y on (0, cR), with t = 0, T = R
        policy = lf.PolicySpec(c=0.8, d=1.0, u=math.exp(R))
        for gamma in np.linspace(-3.0, 4.0, 29):
            for sigma in (0.5, 1.0, 3.0):
                model = lf.GroundUpLognormal(w0=0.0, theta=-sigma * gamma,
                                             sigma=sigma)
                dist_y, dist_z = lf.dist_y(model, policy), lf.dist_z(model, policy)
                top = policy.c * (R if math.isfinite(R)
                                  else abs(model.theta) + 6.0 * sigma)
                v = np.linspace(0.0, top, 202)[1:-1]
                g = dist_z.std.gamma
                expected = lf.std_normal_cdf(g) + lf.std_normal_sf(g) * dist_y.cdf(v)
                np.testing.assert_allclose(dist_z.cdf(v), expected, rtol=0.0,
                                           atol=1e-15)

    def test_cdf_of_qf(self, design_model, policy_u2e5):
        dist = lf.dist_z(design_model, policy_u2e5)
        p_t = lf.std_normal_cdf(dist.std.gamma)
        p_T = lf.std_normal_cdf(dist.std.xi)
        v = np.linspace(p_t + 1e-3, p_T - 1e-3, 100)
        np.testing.assert_allclose(dist.cdf(dist.qf(v)), v, atol=1e-10)
