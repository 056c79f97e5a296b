"""Sample generation and the Monte Carlo study harness."""
import math

import numpy as np
import pytest

import lossfit as lf
from lossfit import simulation
from lossfit.errors import DomainError
from lossfit.payments import PaymentKind
from lossfit.simulation import EstimatorSpec, StudyConfig, run_study


def _rng(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class TestGenerateSample:
    def test_bit_exact_repeatability(self, design_model, policy_u2e5):
        a = lf.generate_sample(design_model, policy_u2e5,
                               PaymentKind.PER_PAYMENT, 500, _rng(7, 1))
        b = lf.generate_sample(design_model, policy_u2e5,
                               PaymentKind.PER_PAYMENT, 500, _rng(7, 1))
        assert np.array_equal(a.values, b.values)
        assert (a.n0, a.n1, a.n2) == (b.n0, b.n1, b.n2)

    def test_unlimited_contract_has_no_censoring(self, design_model,
                                                 policy_unlimited):
        sample = lf.generate_sample(design_model, policy_unlimited,
                                    PaymentKind.PER_PAYMENT, 2000, _rng(7, 2))
        assert sample.n2 == 0

    def test_zero_share_matches_truncation_probability(self, design_model,
                                                       policy_u2e5):
        sample = lf.generate_sample(design_model, policy_u2e5,
                                    PaymentKind.PER_LOSS, 10 ** 6, _rng(7, 3))
        std = lf.standardize(design_model, sample.thresholds)
        expected = lf.std_normal_cdf(std.gamma)
        assert sample.n0 / sample.n == pytest.approx(expected, abs=1e-3)

    def test_counts_match_atoms_of_quantile_function(self, design_model,
                                                     policy_u24k):
        sample = lf.generate_sample(design_model, policy_u24k,
                                    PaymentKind.PER_LOSS, 5000, _rng(7, 4))
        cr = sample.censoring_point
        assert sample.n0 == int(np.sum(sample.values == 0.0))
        assert sample.n2 == int(np.sum(sample.values == cr))


class TestStudyConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# demo study\n"
            "variant = y\n"
            "w0 = 1\n"
            "theta = 5\n"
            "sigma = 3\n"
            "deductible = 4\n"
            "limit = 2e5\n"
            "sample_sizes = 100, 250\n"
            "replications = 8\n"
            "seed = 99\n"
            "estimator = mle\n"
            "estimator = mtm 0.1 0.1\n")
        config = StudyConfig.from_file(str(cfg))
        assert config.variant is PaymentKind.PER_PAYMENT
        assert config.sample_sizes == (100, 250)
        assert config.replications == 8
        assert len(config.estimators) == 2
        assert config.estimators[1].trim.a == pytest.approx(0.1)

    def test_unlimited_by_omission(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "variant = z\ntheta = 5\nsigma = 3\nw0 = 1\ndeductible = 4\n"
            "sample_sizes = 50\nreplications = 2\nestimator = mle\n")
        config = StudyConfig.from_file(str(cfg))
        assert math.isinf(config.policy.u)

    def test_error_carries_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = y\nnonsense line without equals\n")
        with pytest.raises(DomainError) as err:
            StudyConfig.from_file(str(cfg))
        assert ":2:" in str(err.value)

    def test_bad_estimator_reported_with_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("estimator = mtm 0.1\n")
        with pytest.raises(DomainError) as err:
            StudyConfig.from_file(str(cfg))
        assert ":1:" in str(err.value)

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = y\nsample_sizes = 100\nestimator = mle\n")
        with pytest.raises(DomainError):
            StudyConfig.from_file(str(cfg))


def _tiny_config(design_model, policy, variant, estimators, reps=40, seed=123):
    return StudyConfig(model=design_model, policy=policy, variant=variant,
                       sample_sizes=(60,), replications=reps,
                       estimators=estimators, seed=seed)


class TestRunStudy:
    def test_deterministic_csv(self, design_model, policy_u2e5):
        config = _tiny_config(design_model, policy_u2e5,
                              PaymentKind.PER_LOSS,
                              (EstimatorSpec("mle"),
                               EstimatorSpec("mtm", lf.TrimSpec(0.15, 0.15))))
        a = run_study(config).to_csv_string()
        b = run_study(config).to_csv_string()
        assert a == b

    def test_workers_do_not_change_results(self, design_model, policy_u2e5):
        config = _tiny_config(design_model, policy_u2e5,
                              PaymentKind.PER_LOSS,
                              (EstimatorSpec("mle"),), reps=12)
        serial = run_study(config, workers=1).to_csv_string()
        parallel = run_study(config, workers=2).to_csv_string()
        assert serial == parallel

    def test_seed_changes_results(self, design_model, policy_u2e5):
        base = _tiny_config(design_model, policy_u2e5, PaymentKind.PER_LOSS,
                            (EstimatorSpec("mle"),))
        import dataclasses
        other = dataclasses.replace(base, seed=321)
        assert run_study(base).to_csv_string() != run_study(other).to_csv_string()

    def test_limit_column_holds_analytic_are(self, design_model, policy_u24k):
        trim = lf.TrimSpec(0.10, 0.10)
        config = _tiny_config(design_model, policy_u24k, PaymentKind.PER_LOSS,
                              (EstimatorSpec("mle"), EstimatorSpec("mtm", trim)),
                              reps=10)
        result = run_study(config)
        label = EstimatorSpec("mtm", trim).label
        assert result.are_limit["MLE"] == 1.0
        assert result.are_limit[label] == pytest.approx(0.876, abs=0.002)

    def test_exclusions_are_counted_and_flagged(self, design_model):
        # a brutally low limit censors most of each tiny sample, so the
        # interior maximum frequently does not exist and those replications
        # are dropped for the affected estimator
        brutal = lf.PolicySpec(c=1.0, d=4.0, u=400.0)
        config = StudyConfig(model=design_model, policy=brutal,
                             variant=PaymentKind.PER_PAYMENT,
                             sample_sizes=(12,), replications=60,
                             estimators=(EstimatorSpec("mle"),), seed=5)
        result = run_study(config)
        cell = result.cell("MLE", 12)
        assert cell.n_excluded > 0
        assert cell.n_used > 0
        assert cell.n_used + cell.n_excluded == 60
        assert cell.exclusion_rate > 0.05
        assert cell.flagged
        assert result.warnings

    def test_untrimmed_top_on_unlimited_contract(self, design_model,
                                                 policy_unlimited):
        trim = lf.TrimSpec(0.05, 0.0)
        config = _tiny_config(design_model, policy_unlimited,
                              PaymentKind.PER_PAYMENT,
                              (EstimatorSpec("mle"), EstimatorSpec("mtm", trim)),
                              reps=10)
        result = run_study(config)
        label = EstimatorSpec("mtm", trim).label
        assert result.cell(label, 60).n_excluded == 0
        assert result.cell(label, 60).n_used == 10
        assert 0.0 < result.are_limit[label] < 1.0

    def test_sample_without_solution_is_an_exclusion(self):
        # at gamma = 1 with trim (0, 0.25), replication 43 of seed 11 has
        # no trimmed-moment solution (see test_mtm); it is dropped and
        # counted, and the study goes on
        trim = lf.TrimSpec(0.0, 0.25)
        model = lf.GroundUpLognormal(w0=1.0, theta=math.log(3.0) - 1.0, sigma=1.0)
        config = StudyConfig(model=model, policy=lf.PolicySpec(c=1.0, d=4.0, u=math.inf),
                             variant=PaymentKind.PER_PAYMENT, sample_sizes=(500,),
                             replications=44, estimators=(EstimatorSpec("mtm", trim),),
                             seed=11)
        cell = run_study(config).cell(EstimatorSpec("mtm", trim).label, 500)
        assert (cell.n_used, cell.n_excluded) == (43, 1)

    def test_impossible_estimator_rejected_before_sampling(
            self, design_model, policy_u2e5, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(simulation, "generate_sample", no_draw)
        config = _tiny_config(design_model, policy_u2e5, PaymentKind.PER_LOSS,
                              (EstimatorSpec("mle"),
                               EstimatorSpec("mtm-plugin", lf.TrimSpec(0.1, 0.1))))
        with pytest.raises(DomainError, match="mtm-plugin"):
            run_study(config)

    def test_mean_ratio_standard_errors_reported(self, design_model,
                                                 policy_u2e5):
        config = _tiny_config(design_model, policy_u2e5,
                              PaymentKind.PER_LOSS, (EstimatorSpec("mle"),),
                              reps=50)
        cell = run_study(config).cell("MLE", 60)
        assert cell.se_theta_ratio > 0
        assert cell.se_sigma_ratio > 0

    def test_estimator_spec_parsing(self):
        assert EstimatorSpec.parse("mle").method == "mle"
        spec = EstimatorSpec.parse("mtm-plugin 0.05 25/100")
        assert spec.method == "mtm-plugin"
        assert spec.trim.b == pytest.approx(0.25)
        with pytest.raises(DomainError):
            EstimatorSpec.parse("huh 1 2")

    def test_config_validation(self, design_model, policy_u2e5):
        with pytest.raises(DomainError):
            StudyConfig(model=design_model, policy=policy_u2e5,
                        variant=PaymentKind.PER_LOSS, sample_sizes=(5,),
                        replications=10, estimators=(EstimatorSpec("mle"),),
                        seed=1)
        with pytest.raises(DomainError):
            StudyConfig(model=design_model, policy=policy_u2e5,
                        variant=PaymentKind.PER_LOSS, sample_sizes=(100,),
                        replications=0, estimators=(EstimatorSpec("mle"),),
                        seed=1)
