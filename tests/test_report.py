"""Report rendering tests: number formatting and stable field order."""

import numpy as np

from svarlic.model import SvarCoefficients
from svarlic.report import (
    format_matrix,
    format_number,
    format_vector,
    render_bench_report,
    render_count_table,
    render_fit_report,
    render_model,
)


class TestFormatNumber:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(0)
        for value in rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, 200):
            assert float(format_number(value)) == value

    def test_negative_zero_collapses(self):
        assert format_number(-0.0) == "0"
        assert format_number(0.0) == "0"

    def test_integers_stay_short(self):
        assert format_number(24.5) == "24.5"
        assert format_number(132191.5) == "132191.5"


class TestVectorMatrixLayout:
    def test_vector(self):
        assert format_vector(np.array([1.0, 2.5])) == "[1, 2.5]"

    def test_matrix_row_major(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert format_matrix(a) == "[[1, 2], [3, 4]]"


def small_model():
    return SvarCoefficients(L=np.array([[2.0]]), R=(np.array([[0.5]]),),
                            t=np.array([0.25]))


class TestFitReport:
    def test_field_order(self):
        text = render_fit_report(small_model(), n=10, method="both",
                                 source="x.csv", whitening=1e-15,
                                 discrepancy=2e-16)
        keys = [line.split(":")[0] for line in text.strip().splitlines()[1:]]
        assert keys == ["input", "branches_m", "samples_n", "order_k", "method",
                        "L", "R_1", "t", "whitening_error", "ls_multiplies",
                        "lic_multiplies", "savings_ratio", "discrepancy"]

    def test_shape_is_read_off_the_model(self):
        model = SvarCoefficients(L=np.eye(2))
        text = render_fit_report(model, n=10, method="lic", source="x.csv",
                                 whitening=0.0)
        assert "branches_m: 2\nsamples_n: 10\norder_k: 0\n" in text

    def test_discrepancy_omitted_for_single_method(self):
        text = render_fit_report(small_model(), n=10, method="ls",
                                 source="x.csv", whitening=0.0)
        assert "discrepancy" not in text

    def test_deterministic(self):
        args = dict(n=10, method="lic", source="x.csv", whitening=0.5)
        assert (render_fit_report(small_model(), **args)
                == render_fit_report(small_model(), **args))


class TestModelSidecar:
    def test_contains_generation_parameters(self):
        text = render_model(small_model(), seed=7, target_radius=0.8)
        assert "seed: 7" in text
        assert "target_radius: 0.80000000000000004" in text
        assert "spectral_radius: 0.25" in text
        assert "L: [[2]]" in text
        assert "R_1: [[0.5]]" in text
        assert "t: [0.25]" in text


class TestCountTable:
    def test_small_case_golden(self):
        assert render_count_table(1, 1, 3) == (
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

    def test_negative_savings_flagged(self):
        text = render_count_table(1, 1, 2)
        assert "note: LIC not beneficial at this size" in text

    def test_positive_savings_not_flagged(self):
        assert "not beneficial" not in render_count_table(4, 2, 1024)


class TestBenchReport:
    def test_contains_measured_and_modeled(self):
        text = render_bench_report(m=4, k=2, n=8192, trials=20, seed=0,
                                   ls_median=0.02, lic_median=0.01)
        assert "ls_median_seconds: 0.02" in text
        assert "lic_median_seconds: 0.01" in text
        assert "measured_savings_ratio: 0.5" in text
        assert "modeled_savings_ratio:" in text
        assert "lic_faster: yes" in text

    def test_slower_flagged(self):
        text = render_bench_report(m=1, k=1, n=4, trials=2, seed=0,
                                   ls_median=0.01, lic_median=0.02)
        assert "lic_faster: no" in text
