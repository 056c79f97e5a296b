"""End-to-end command-line checks."""
import csv
import json
import math

import numpy as np
import pytest

import lossfit as lf
from lossfit.cli import EXIT_DATA, EXIT_OK, EXIT_VALIDATION, main
from lossfit.payments import PaymentKind
from lossfit.simulation import generate_sample


def _write_payment_csv(path, sample, header=None):
    """Invert the normal-scale transform back to currency payments."""
    c = sample.policy.c
    d, w0 = sample.policy.d, 0.0
    raw = c * (d - w0) * np.expm1(sample.values / c)
    raw = np.where(sample.values == 0.0, 0.0, raw)
    cr = sample.censoring_point
    if math.isfinite(cr):
        raw = np.where(sample.values == cr, c * (sample.policy.u - d), raw)
    with open(path, "w", newline="") as fobj:
        writer = csv.writer(fobj)
        if header:
            writer.writerow([header])
        for value in raw:
            writer.writerow([f"{value:.10f}"])
    return raw


@pytest.fixture()
def payment_csv(tmp_path, design_model):
    model = lf.GroundUpLognormal(w0=0.0, theta=9.4, sigma=1.6)
    policy = lf.PolicySpec(c=1.0, d=500.0, u=1e5)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((10, 1))))
    sample = generate_sample(model, policy, PaymentKind.PER_LOSS, 800, rng)
    path = tmp_path / "payments.csv"
    _write_payment_csv(path, sample)
    return path, sample


BASE = ["--deductible", "500", "--limit", "100000", "--w0", "0"]


class TestIngest:
    def test_summary_values(self, payment_csv, capsys):
        path, sample = payment_csv
        code = main(["ingest", "--data", str(path), "--variant", "z", *BASE])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "t=6.2146" in out
        assert "T=11.5129" in out
        assert "R=5.2983" in out
        assert f"n0={sample.n0}" in out
        assert f"n1={sample.n1}" in out
        assert f"n2={sample.n2}" in out

    def test_json_format(self, payment_csv, tmp_path):
        path, sample = payment_csv
        out = tmp_path / "report.json"
        code = main(["ingest", "--data", str(path), "--variant", "z", *BASE,
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["summary"]["n"] == sample.n
        assert report["summary"]["t"] == 6.2146
        assert report["tool"] == "lossfit"

    def test_named_column(self, tmp_path, payment_csv):
        path, sample = payment_csv
        code = main(["ingest", "--data", str(path), "--variant", "z", *BASE,
                     "--column", "payment"])
        assert code == EXIT_DATA  # no such column
        rows = path.read_text().splitlines()
        named = tmp_path / "named.csv"
        named.write_text("payment\n" + "\n".join(rows))
        assert main(["ingest", "--data", str(named), "--variant", "z", *BASE,
                     "--column", "payment"]) == EXIT_OK

    def test_unlimited_contract(self, payment_csv, tmp_path, capsys):
        path, _ = payment_csv
        code = main(["ingest", "--data", str(path), "--variant", "z",
                     "--deductible", "500", "--w0", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "T=inf" in out
        assert "n2=0" in out

    def test_missing_file(self, tmp_path):
        assert main(["ingest", "--data", str(tmp_path / "nope.csv"),
                     "--variant", "z", *BASE]) == EXIT_DATA

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["ingest", "--data", str(empty), "--variant", "z",
                     *BASE]) == EXIT_DATA

    def test_unparseable_rows_reported_with_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("100\noops\n200\n")
        assert main(["ingest", "--data", str(bad), "--variant", "z",
                     *BASE]) == EXIT_DATA
        assert "line(s) 2" in capsys.readouterr().err


class TestFit:
    def test_mle_row(self, payment_csv, tmp_path):
        path, _ = payment_csv
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(path), "--variant", "z", *BASE,
                     "--method", "mle", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        row = json.loads(out.read_text())["rows"][0]
        assert row["method"] == "mle"
        assert row["are_vs_mle"] == 1.0
        assert row["theta_ci_low"] < row["theta"] < row["theta_ci_high"]
        assert 0 < row["sigma_ci_low"] < row["sigma"] < row["sigma_ci_high"]
        assert row["ks_decision"] in (0, 1)

    def test_mtm_row_includes_validation_columns(self, payment_csv, tmp_path):
        path, _ = payment_csv
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(path), "--variant", "z", *BASE,
                     "--method", "mtm", "--a", "0.1", "--b", "0.15",
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        row = json.loads(out.read_text())["rows"][0]
        assert row["validation"] == "pass"
        assert 0 <= row["fn_t"] <= row["fn_T"] <= 1
        assert 0 <= row["fx_t"] <= row["fx_T"] <= 1
        assert 0 < row["are_vs_mle"] < 1.001

    def test_invalid_window_blocks_without_force(self, payment_csv, capsys):
        path, sample = payment_csv
        assert sample.n2 > 0
        code = main(["fit", "--data", str(path), "--variant", "z", *BASE,
                     "--method", "mtm", "--a", "0.1", "--b", "0"])
        assert code == EXIT_VALIDATION
        assert "validation" in capsys.readouterr().err

    def test_untrimmed_top_without_a_limit(self, tmp_path):
        # b = 0 is admissible without a policy limit, and the fit must
        # honour what validation accepted
        model = lf.GroundUpLognormal(w0=0.0, theta=9.4, sigma=1.6)
        policy = lf.PolicySpec(c=1.0, d=500.0, u=math.inf)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((10, 2))))
        sample = generate_sample(model, policy, PaymentKind.PER_PAYMENT, 800, rng)
        path = tmp_path / "unlimited.csv"
        _write_payment_csv(path, sample)
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(path), "--variant", "y",
                     "--deductible", "500", "--w0", "0", "--method", "mtm",
                     "--a", "0.05", "--b", "0", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        row = json.loads(out.read_text())["rows"][0]
        assert row["validation"] == "pass"
        assert 0 < row["are_vs_mle"] < 1.001

    def test_force_marks_the_row(self, payment_csv, tmp_path):
        path, _ = payment_csv
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(path), "--variant", "z", *BASE,
                     "--method", "mtm", "--a", "0.01", "--b", "0.15",
                     "--force", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        row = json.loads(out.read_text())["rows"][0]
        assert "forced" in row["validation"]

    def test_rational_trim_fractions(self, payment_csv, tmp_path):
        path, _ = payment_csv
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(path), "--variant", "z", *BASE,
                     "--method", "mtm", "--a", "80/800", "--b", "120/800",
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["rows"][0]["a"] == "1/10"

    def test_deterministic_reports_are_identical(self, payment_csv, tmp_path):
        path, _ = payment_csv
        args = ["fit", "--data", str(path), "--variant", "z", *BASE,
                "--method", "mle", "--format", "json", "--deterministic"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(out1)]) == EXIT_OK
        assert main([*args, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestAre:
    def test_single_cell(self, tmp_path, capsys):
        code = main(["are", "--variant", "z", "--theta", "5", "--sigma", "3",
                     "--w0", "1", "--deductible", "4", "--limit", "200000",
                     "--grid", "0.1x0.1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a/b,0.1"
        value = float(lines[1].split(",")[1])
        assert value == pytest.approx(0.844, abs=0.002)

    def test_csv_written_to_file(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["are", "--variant", "z", "--theta", "5", "--sigma", "3",
                     "--w0", "1", "--deductible", "4", "--limit", "8500",
                     "--grid", "0.25x0.1,0.15,0.25", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        cells = lines[1].split(",")[1:]
        assert [float(x) for x in cells] == pytest.approx([0.752, 0.701, 0.602],
                                                          abs=0.002)

    def test_bad_grid(self, capsys):
        code = main(["are", "--variant", "z", "--theta", "5", "--sigma", "3",
                     "--deductible", "4", "--grid", "nonsense"])
        assert code != EXIT_OK


class TestSimulate:
    CFG = ("variant = z\nw0 = 1\ntheta = 5\nsigma = 3\ndeductible = 4\n"
           "limit = 24000\nsample_sizes = 60\nreplications = 25\nseed = 11\n"
           "estimator = mle\nestimator = mtm 0.15 0.15\n")

    def test_smoke_and_determinism(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CFG)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) \
            == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) \
            == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "estimator,a,b,statistic,n=60,limit"

    def test_reps_and_seed_overrides(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CFG)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["simulate", "--config", str(cfg), "--reps", "10",
                     "--seed", "1", "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--reps", "10",
                     "--seed", "2", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() != out2.read_bytes()

    def test_config_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = q\n")
        assert main(["simulate", "--config", str(cfg)]) != EXIT_OK


class TestDiagnostics:
    def test_qq_and_surface(self, payment_csv, tmp_path):
        path, sample = payment_csv
        qq = tmp_path / "qq.csv"
        surface = tmp_path / "surface.csv"
        code = main(["diagnostics", "--data", str(path), "--variant", "z",
                     *BASE, "--qq-out", str(qq), "--surface-out", str(surface),
                     "--grid-steps", "11"])
        assert code == EXIT_OK
        qq_rows = qq.read_text().strip().splitlines()
        assert qq_rows[0] == "p,empirical,fitted"
        assert len(qq_rows) == sample.n + 1
        # a well-specified model stays near the diagonal away from the atoms
        mid = qq_rows[len(qq_rows) // 2].split(",")
        assert float(mid[1]) == pytest.approx(float(mid[2]), abs=0.5)

        surf_rows = surface.read_text().strip().splitlines()
        assert surf_rows[0] == "gamma,sigma,loglik,point"
        assert len(surf_rows) == 11 * 11 + 2 + 1
        tagged = {row.rsplit(",", 1)[1] for row in surf_rows[1:]}
        assert {"start", "max"} <= tagged
        # the marked maximum beats every grid cell
        values = [float(r.split(",")[2]) for r in surf_rows[1:-2]]
        max_row = [r for r in surf_rows if r.endswith(",max")][0]
        assert float(max_row.split(",")[2]) >= max(values) - 1e-9

    def test_single_cell_grid(self, payment_csv, tmp_path):
        path, _ = payment_csv
        qq = tmp_path / "qq.csv"
        surface = tmp_path / "surface.csv"
        code = main(["diagnostics", "--data", str(path), "--variant", "z",
                     *BASE, "--theta", "9.4", "--sigma", "1.6",
                     "--qq-out", str(qq), "--surface-out", str(surface),
                     "--grid-steps", "1",
                     "--gamma-min", "-2", "--gamma-max", "-2",
                     "--sigma-min", "1.6", "--sigma-max", "1.6"])
        assert code == EXIT_OK
        surf_rows = surface.read_text().strip().splitlines()
        assert len(surf_rows) == 1 + 1 + 2  # header, one cell, two markers
