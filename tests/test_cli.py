"""CLI tests, run in process through svarlic.cli.main."""

import numpy as np
import pytest

from svarlic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate(tmp_path, capsys, m=2, k=1, n=256, seed=7):
    path = tmp_path / "data.csv"
    code, _, err = run(capsys, "simulate", "-m", str(m), "-k", str(k),
                       "-n", str(n), "--seed", str(seed), "-o", str(path))
    assert code == 0, err
    return path


class TestFit:
    def test_report_on_simulated_data(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, m=2, k=1, n=1024)
        code, out, err = run(capsys, "fit", "-i", str(path), "-k", "1")
        assert code == 0
        assert err == ""
        assert out.startswith("svarlic fit report\n")
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines()[1:])
        assert fields["branches_m"] == "2"
        assert fields["samples_n"] == "1024"
        assert fields["method"] == "both"
        assert float(fields["discrepancy"]) < 1e-8
        assert float(fields["whitening_error"]) < 1e-8

    @pytest.mark.parametrize("method", ["ls", "lic"])
    def test_single_method_has_no_discrepancy(self, tmp_path, capsys, method):
        path = simulate(tmp_path, capsys)
        code, out, _ = run(capsys, "fit", "-i", str(path), "-k", "1",
                           "--method", method)
        assert code == 0
        assert f"method: {method}" in out
        assert "discrepancy" not in out

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys)
        report = tmp_path / "fit.txt"
        code, _, _ = run(capsys, "fit", "-i", str(path), "-k", "1",
                         "-o", str(report))
        assert code == 0
        code, out, _ = run(capsys, "fit", "-i", str(path), "-k", "1")
        assert report.read_text() == out

    def test_header_flag_skips_first_line(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, n=300)
        with_header = tmp_path / "header.csv"
        with_header.write_text("a,b\n" + path.read_text())
        bare_code, bare_out, _ = run(capsys, "fit", "-i", str(path), "-k", "1")
        code, out, _ = run(capsys, "fit", "-i", str(with_header), "-k", "1",
                           "--header")
        assert (bare_code, code) == (0, 0)
        # identical numbers; only the echoed input path differs
        assert out.splitlines()[2:] == bare_out.splitlines()[2:]

    def test_ramp_exits_3_naming_singular_gram(self, tmp_path, capsys):
        path = tmp_path / "ramp.csv"
        np.savetxt(path, np.arange(64.0), delimiter=",")
        code, out, err = run(capsys, "fit", "-i", str(path), "-k", "1")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "singular" in err

    def test_gram_overflow_exits_3(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, m=2, k=1, n=256)
        scaled = tmp_path / "scaled.csv"
        np.savetxt(scaled, np.loadtxt(path, delimiter=",") * 1e160, delimiter=",")
        code, out, err = run(capsys, "fit", "-i", str(scaled), "-k", "1")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "overflows" in err

    def test_order_too_large_exits_2(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, n=16)
        code, _, err = run(capsys, "fit", "-i", str(path), "-k", "16")
        assert code == 2
        assert "order too large" in err
        assert err.count("\n") == 1

    def test_too_few_samples_exits_3(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, m=2, k=1, n=4)
        code, _, err = run(capsys, "fit", "-i", str(path), "-k", "2")
        assert code == 3
        assert "N - K" in err

    def test_non_finite_csv_exits_2(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, m=2, k=1, n=64)
        rows = path.read_text().splitlines()
        rows[10] = "nan," + rows[10].split(",", 1)[1]
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "fit", "-i", str(bad), "-k", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "non-finite" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "-i", str(tmp_path / "no.csv"), "-k", "1")
        assert code == 2
        assert err.count("\n") == 1

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        code, _, err = run(capsys, "fit", "-i", str(path), "-k", "1")
        assert code == 2
        assert err.count("\n") == 1

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, "fit", "-i", str(path), "-k", "0")
        assert code == 2


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "simulate", "-m", "2", "-k", "1",
                             "-n", "512", "--seed", "7", "-o", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.model.txt").read_bytes() == \
               (tmp_path / "b.model.txt").read_bytes()

    def test_row_and_column_counts(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, m=3, k=2, n=128)
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        assert data.shape == (128, 3)

    def test_round_trip_through_fit(self, tmp_path, capsys):
        path = simulate(tmp_path, capsys, m=2, k=2, n=800)
        code, out, _ = run(capsys, "fit", "-i", str(path), "-k", "2")
        assert code == 0
        assert "svarlic fit report" in out

    def test_sidecar_reports_generating_model(self, tmp_path, capsys):
        simulate(tmp_path, capsys, m=2, k=1, n=64, seed=9)
        sidecar = (tmp_path / "data.model.txt").read_text()
        assert sidecar.startswith("svarlic generating model\n")
        assert "seed: 9" in sidecar
        assert "spectral_radius:" in sidecar

    def test_unstable_radius_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "-m", "1", "-k", "1", "-n", "8",
                           "--radius", "1.5", "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "target_radius" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "x.csv"
        code, _, err = run(capsys, "simulate", "-m", "1", "-k", "1", "-n", "8",
                           "-o", str(target))
        assert code == 2
        assert err.count("\n") == 1


class TestCount:
    def test_golden_small_case(self, capsys):
        code, out, err = run(capsys, "count", "-m", "1", "-k", "1", "-n", "3")
        assert (code, err) == (0, "")
        assert out == (
            "multiply-count model: M=1 K=1 N=3\n"
            "least-squares route:\n"
            "  SS^H           4\n"
            "  (SS^H)^-1      4\n"
            "  XS^H           4\n"
            "  XS^H(SS^H)^-1  4\n"
            "  V_hat          4\n"
            "  V_hat V_hat^H  2\n"
            "  L              0.5\n"
            "  R_i            1\n"
            "  t              1\n"
            "  total          24.5\n"
            "large-inverse-cholesky route:\n"
            "  TT^H           9\n"
            "  U_hat          13.5\n"
            "  total          22.5\n"
            "savings_ratio: 0.081632653061224469\n"
        )

    def test_reference_totals(self, capsys):
        code, out, _ = run(capsys, "count", "-m", "4", "-k", "2", "-n", "1024")
        assert code == 0
        assert "  total          132191.5\n" in out
        assert "  total          87457.5\n" in out
        assert "savings_ratio: 0.33840299867994539\n" in out

    def test_negative_savings_note(self, capsys):
        code, out, _ = run(capsys, "count", "-m", "1", "-k", "1", "-n", "2")
        assert code == 0
        assert "note: LIC not beneficial at this size" in out

    def test_n_not_above_k_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "-m", "1", "-k", "3", "-n", "3")
        assert code == 2
        assert err.count("\n") == 1


class TestBench:
    def test_small_benchmark_runs(self, capsys):
        code, out, err = run(capsys, "bench", "-m", "2", "-k", "1", "-n", "256",
                             "--trials", "3", "--seed", "1")
        assert (code, err) == (0, "")
        assert out.startswith("benchmark: M=2 K=1 N=256 trials=3 seed=1\n")
        assert "ls_median_seconds:" in out
        assert "lic_median_seconds:" in out
        assert "measured_savings_ratio:" in out
        assert "modeled_savings_ratio:" in out
        assert "lic_faster:" in out

    def test_zero_trials_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "-m", "2", "-k", "1", "-n", "64", "--trials", "0"])
        assert exc.value.code == 2
        assert "trials" in capsys.readouterr().err

    def test_negative_trials_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "-m", "2", "-k", "1", "-n", "64", "--trials", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "trials" in err


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "-k", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("svarlic: error:")

    def test_unknown_method(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "-i", "x.csv", "-k", "1", "--method", "magic"])
        assert exc.value.code == 2

    def test_negative_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "-i", "x.csv", "-k", "-1"])
        assert exc.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_zero_branches(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "-m", "0", "-k", "1", "-n", "8",
                  "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
