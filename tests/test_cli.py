"""Tests for the CLI's CSV reader and writer."""

import re

import numpy as np
import pytest

from tobitcount import cli
from tobitcount.stingarch import CountSeries

DIAGNOSE = ["diagnose", "--alpha0", "2", "--alpha1", "0.4", "--delta", "0.25"]


def _csv(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngestRefusals:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("count\n3\n4,5\n", "row 3: expected 1 columns, got 2"),
            ("count,z1\n3,0.5\n4,\n", "row 3: missing value"),
            ("count,z1\n3,0.5\n , 0.5\n", "row 3: missing value"),
            ("3\nabc\n", "row 2: 'abc' is not a number"),
            ("3\n 2.5 \n", "row 2: count '2.5' is fractional"),
            ("3\nnan\n", "row 2: count 'nan' is fractional"),
            ("3\n-inf\n", "row 2: count '-inf' is fractional"),
            ("3\n-1\n", "row 2: count '-1' is negative"),
            ("3\n9007199254740993\n", "row 2: count '9007199254740993' is too large"),
            ("3\n9007199254740992\n", "row 2: count '9007199254740992' is too large"),
            ("3\n1e30\n", "row 2: count '1e30' is too large"),
            ("count,z1\n3,0.5\n4,x\n", "row 3: bad covariate value"),
            ("count,z1\n3,0.5\n4,nan\n", "row 3: bad covariate value"),
            ("count,z1\n3,0.5\n4, inf \n", "row 3: bad covariate value"),
            ("count,z1,z2\n3,0.5,-inf\n", "row 2: bad covariate value"),
            ("count\n\n", "no data rows"),
        ],
    )
    def test_message_row_and_exit_code(self, tmp_path, capsys, text, message):
        path = _csv(tmp_path, text)
        with pytest.raises(cli.IngestError, match=re.escape(message) + "$"):
            cli.ingest_csv(path)
        assert cli.main([*DIAGNOSE, "--input", path]) == cli.EXIT_INGEST
        assert capsys.readouterr().err.endswith(f"{message}\n")

    def test_unreadable_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        with pytest.raises(cli.IngestError, match="cannot open"):
            cli.ingest_csv(missing)
        assert cli.main([*DIAGNOSE, "--input", missing]) == cli.EXIT_INGEST

    def test_large_counts_below_the_limit_are_exact(self, tmp_path):
        series = cli.ingest_csv(_csv(tmp_path, "9007199254740991\n1e15\n"))
        assert series.counts.tolist() == [2**53 - 1, 10**15]

    @pytest.mark.parametrize(
        "text, message",
        [
            # the earliest bad row wins, whatever its check
            ("3\n2.5\n4,5\n", "row 2: count '2.5' is fractional"),
            ("3\n4,5\n2.5\n", "row 2: expected 1 columns, got 2"),
            ("3,1\n4,1\n-1,x\n1e30,1,2\n", "row 3: count '-1' is negative"),
            # within a row: width, missing, not a number, fractional,
            # negative, too large, covariate
            ("3,1\nabc,,2\n", "row 2: expected 2 columns, got 3"),
            ("3,1\nabc,\n", "row 2: missing value"),
            ("3,1\nabc,x\n", "row 2: 'abc' is not a number"),
            ("3,1\n-1.5,x\n", "row 2: count '-1.5' is fractional"),
            ("3,1\n-1,x\n", "row 2: count '-1' is negative"),
            ("3,1\n1e30,x\n", "row 2: count '1e30' is too large"),
            ("3,1\n4,x\n", "row 2: bad covariate value"),
            ("3,1\n1e30,nan\n", "row 2: count '1e30' is too large"),
            ("3,1\n4,nan\n2.5,1\n", "row 2: bad covariate value"),
        ],
    )
    def test_precedence(self, tmp_path, text, message):
        with pytest.raises(cli.IngestError, match="^" + re.escape(message) + "$"):
            cli.ingest_csv(_csv(tmp_path, text))


class TestIngestLayout:
    def test_header_and_blank_rows_are_skipped(self, tmp_path):
        text = "count,z1\n\n3 , 0.5\n , \n4,-0.25\n,\n"
        series = cli.ingest_csv(_csv(tmp_path, text))
        assert series.counts.dtype == np.int64
        assert series.counts.tolist() == [3, 4]
        assert series.covariates.tolist() == [[0.5], [-0.25]]

    def test_header_only_in_the_first_row(self, tmp_path):
        with pytest.raises(cli.IngestError, match="^row 2: 'count' is not a number$"):
            cli.ingest_csv(_csv(tmp_path, "3\ncount\n"))
        with pytest.raises(cli.IngestError, match="^row 2: 'count' is not a number$"):
            cli.ingest_csv(_csv(tmp_path, "\ncount\n3\n"))

    def test_header_with_an_empty_first_cell(self, tmp_path):
        series = cli.ingest_csv(_csv(tmp_path, ",z1\n3,0.5\n"))
        assert series.counts.tolist() == [3]
        assert series.covariates.tolist() == [[0.5]]

    def test_one_column_has_no_covariates(self, tmp_path):
        series = cli.ingest_csv(_csv(tmp_path, "count\n0\n7\n-0\n"))
        assert series.counts.tolist() == [0, 7, 0]
        assert series.covariates is None

    def test_write_then_ingest_round_trip(self, tmp_path):
        z = np.array(
            [[0.1, 1.0 / 3.0], [5e-324, -2.5e300], [-0.0, 1e16], [123456.789, 2.0**-1074]]
        )
        series = CountSeries(np.array([0, 17, 2**52, 3]), covariates=z)
        first = tmp_path / "first.csv"
        cli._write_series_csv(series, str(first))
        assert first.read_text().splitlines()[0] == "count,z1,z2"
        again = cli.ingest_csv(str(first))
        assert np.array_equal(again.counts, series.counts)
        assert again.covariates.tobytes() == series.covariates.tobytes()
        second = tmp_path / "second.csv"
        cli._write_series_csv(again, str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_writer_without_covariates(self, tmp_path, capsys):
        cli._write_series_csv(CountSeries(np.array([4, 0, 12])), None)
        assert capsys.readouterr().out == "count\n4\n0\n12\n"


class TestRefusedFlagsAndFits:
    def test_fit_on_a_nan_covariate_is_an_ingestion_error(self, tmp_path, capsys):
        rows = [f"{k % 5},{(k % 7) / 4}" for k in range(50)]
        rows[20] = "3,nan"
        path = _csv(tmp_path, "count,z1\n" + "\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        argv = ["fit", "-p", "1", "-q", "0", "--input", path, "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_INGEST
        assert capsys.readouterr().err.endswith("row 22: bad covariate value\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["cls", "clade"])
    def test_fit_on_zeros_is_a_numerical_failure(self, tmp_path, capsys, method):
        path = _csv(tmp_path, "count\n" + "0\n" * 60)
        out = tmp_path / "fit.json"
        argv = ["fit", "--method", method, "--input", path, "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert "no positive count" in capsys.readouterr().err
        assert not out.exists()

    # moments is covered by test_cli_exact_without_the_route_is_a_configuration_error
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--n", "10"], ["mc-study", "--n", "50", "--replications", "1"]],
        ids=["simulate", "mc-study"],
    )
    def test_gammas_only_on_diagnose(self, capsys, argv):
        spec = ["--alpha0", "2", "--alpha1", "0.4", "--delta", "0.25", "--gammas", "0.5"]
        assert cli.main([*argv, *spec]) == cli.EXIT_CONFIG
        assert "unrecognized arguments: --gammas 0.5" in capsys.readouterr().err

    def test_diagnose_takes_gammas_with_a_covariate_csv(self, tmp_path):
        rows = [f"{k % 5},{(k % 7) / 4}" for k in range(60)]
        path = _csv(tmp_path, "count,z1\n" + "\n".join(rows) + "\n")
        out = tmp_path / "diagnose.json"
        argv = [*DIAGNOSE, "--gammas", "0.5", "--input", path, "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert out.exists()


SPEC = ["--alpha0", "2", "--alpha1", "0.4", "--beta1", "0.2", "--delta", "0.25"]


class TestConfigurationChecks:
    # every check runs before the zero-replication shortcut
    @pytest.mark.parametrize("replications", ["0", "1"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "0"], "--n must be >= 1, got 0"),
            (["--n", "-5"], "--n must be >= 1, got -5"),
            (["--n", "50", "--methods", "bogus"], "unknown --methods ['bogus']"),
            (["--n", "50", "--methods", "mle,bogus"], "unknown --methods ['bogus']"),
            (["--n", "50", "--methods", ""], "--methods names no method"),
            (["--n", "50", "--methods", " , "], "--methods names no method"),
            (["--n", "50", "--methods", "mle,mle"], "--methods names ['mle'] more than once"),
            (["--n", "50", "--methods", "cls, mle,cls"], "--methods names ['cls'] more than once"),
        ],
    )
    def test_mc_study_refuses_a_bad_configuration(self, tmp_path, capsys, replications, flags, message):
        out = tmp_path / "mc.json"
        argv = ["mc-study", *SPEC, *flags, "--replications", replications, "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["-p", "-1"], "-p must be >= 0, got -1"),
            (["-q", "-1"], "-q must be >= 0, got -1"),
            (["--method", "cls", "-p", "-1"], "-p must be >= 0, got -1"),
            (["--method", "clade", "-q", "-2"], "-q must be >= 0, got -2"),
            (["--model", "stbingarch", "--bound", "5", "-p", "-1"], "-p must be >= 0, got -1"),
        ],
    )
    def test_fit_refuses_a_negative_order_before_reading(self, tmp_path, capsys, flags, message):
        # the input does not exist: the refusal comes before the read
        argv = ["fit", *flags, "--input", str(tmp_path / "missing.csv")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_mc_study_with_zero_replications(self, tmp_path):
        out = tmp_path / "mc.json"
        argv = ["mc-study", *SPEC, "--n", "50", "--replications", "0", "--methods", " mle, cls "]
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        assert out.read_text() == '{\n  "methods": {},\n  "replications": 0\n}\n'

    @pytest.mark.parametrize("method", ["simulated", "all", "linear"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_moments_refuses_a_path_shorter_than_one(self, capsys, method, n):
        argv = ["moments", "--alpha0", "2", "--alpha1", "0.5", "--delta", "0.25"]
        assert cli.main([*argv, "--method", method, "--n", n]) == cli.EXIT_CONFIG
        assert f"--n must be >= 1, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["simulated", "all"])
    def test_simulated_moments_need_a_path_longer_than_the_lags(self, capsys, method):
        argv = ["moments", "--alpha0", "2", "--alpha1", "0.5", "--delta", "0.25", "--method", method]
        assert cli.main([*argv, "--n", "3"]) == cli.EXIT_CONFIG
        assert "--n must exceed --max-lag 3, got 3" in capsys.readouterr().err
        assert cli.main([*argv, "--n", "4"]) == cli.EXIT_OK
        assert cli.main([*argv, "--n", "1", "--max-lag", "1"]) == cli.EXIT_CONFIG
