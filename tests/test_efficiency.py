"""Relative-efficiency computations and table generation."""
import math

import numpy as np
import pytest

import lossfit as lf
from lossfit.efficiency import mle_asymptotic_cov
from lossfit.errors import DomainError, SingularMatrixError
from lossfit.payments import PaymentKind


class TestArePair:
    def test_identity(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert lf.are_pair(s, s) == 1.0

    def test_determinant_scaling(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert lf.are_pair(s, 4.0 * s) == pytest.approx(0.25, rel=1e-12)

    def test_scale_consistency(self):
        s1 = np.array([[2.0, 0.3], [0.3, 1.0]])
        s2 = np.array([[3.0, -0.2], [-0.2, 2.5]])
        base = lf.are_pair(s1, s2)
        assert lf.are_pair(7.0 * s1, 7.0 * s2) == pytest.approx(base, rel=1e-12)

    def test_reference_cell(self, design_model, policy_u24k):
        th = lf.derive_thresholds(policy_u24k, design_model.w0)
        s_mle = mle_asymptotic_cov(design_model, policy_u24k,
                                   PaymentKind.PER_PAYMENT)
        s_mtm = lf.cov_mtm_y(design_model.theta, design_model.sigma, th,
                             lf.TrimSpec(0.0, 0.05))
        assert lf.are_pair(s_mle, s_mtm) == pytest.approx(0.960, abs=0.002)

    def test_nonpositive_determinant(self):
        good = np.eye(2)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # det < 0
        with pytest.raises(SingularMatrixError):
            lf.are_pair(bad, good)


class TestAreTable:
    def test_full_grid_row_pattern(self, design_model, policy_u2e5):
        req = lf.AreRequest.from_axes(design_model, policy_u2e5,
                                      PaymentKind.PER_PAYMENT,
                                      [0.05, 0.25], [0.05, 0.10])
        table = lf.are_table(req)
        assert not table.errors
        # lighter trimming cannot be less efficient at the same b
        for b in (0.05, 0.10):
            assert table.value(0.05, b) >= table.value(0.25, b)

    def test_per_cell_errors_do_not_abort(self):
        # a deductible 40 standard deviations above the location leaves a
        # truncation share that no trimming window with b > 0 can resolve
        # in double precision, while the untrimmed cell stays computable
        model = lf.GroundUpLognormal(w0=0.0, theta=0.0, sigma=1.0)
        policy = lf.PolicySpec(c=1.0, d=math.exp(40.0), u=math.inf)
        grid = (lf.TrimSpec(0.0, 0.0), lf.TrimSpec(0.0, 0.1))
        req = lf.AreRequest(model=model, policy=policy,
                            variant=PaymentKind.PER_PAYMENT, grid=grid)
        table = lf.are_table(req)
        assert (0.0, 0.0) in table.cells
        assert table.errors[(0.0, 0.1)].startswith("DomainError")
        csv_text = table.to_csv_string()
        assert "NA" in csv_text

    def test_csv_layout(self, design_model, policy_u2e5):
        req = lf.AreRequest.from_axes(design_model, policy_u2e5,
                                      PaymentKind.PER_LOSS,
                                      [0.10], [0.05, 0.10])
        table = lf.are_table(req)
        lines = table.to_csv_string().strip().splitlines()
        assert lines[0] == "a/b,0.05,0.1"
        assert lines[1].startswith("0.1,")
        assert len(lines) == 2

    def test_single_cell_grid(self, design_model, policy_u2e5):
        req = lf.AreRequest.from_axes(design_model, policy_u2e5,
                                      PaymentKind.PER_LOSS, [0.1], [0.1])
        table = lf.are_table(req)
        lines = table.to_csv_string().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 2


class TestFiniteRe:
    def test_all_estimates_exact_gives_infinity(self):
        estimates = np.tile([5.0, 3.0], (10, 1))
        assert math.isinf(lf.finite_re(estimates, (5.0, 3.0), np.eye(2), 100))

    def test_estimator_against_its_own_asymptotics(self, design_model,
                                                   policy_u2e5):
        # estimates drawn straight from the asymptotic law give RE near one
        s_mle = mle_asymptotic_cov(design_model, policy_u2e5,
                                   PaymentKind.PER_PAYMENT)
        n = 1000
        rng = np.random.default_rng(31)
        estimates = rng.multivariate_normal(
            (design_model.theta, design_model.sigma), s_mle / n, size=20_000)
        re = lf.finite_re(estimates, (design_model.theta, design_model.sigma),
                          s_mle, n)
        assert re == pytest.approx(1.0, abs=0.02)

    def test_needs_two_estimates(self):
        with pytest.raises(DomainError):
            lf.finite_re(np.array([[5.0, 3.0]]), (5.0, 3.0), np.eye(2), 10)
