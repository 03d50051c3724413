import math
import random
from dataclasses import asdict

import pytest

from mrcner.metrics import (
    EvalError,
    EvalReport,
    aggregate,
    f1_from_pr,
    format_pct,
    score,
    stars_for,
    t_test,
)
from oracles import (
    RUNS_MEAN_9270_STD_016_MAX_9292,
    REFERENCE_ROW_F1_EXACT,
    WELCH_FIXTURES,
)


class TestScore:
    def test_published_row_arithmetic(self):
        # Exact harmonic mean of the published P/R pair, pinned ahead of time.
        assert f1_from_pr(94.37, 94.00) == pytest.approx(REFERENCE_ROW_F1_EXACT, abs=1e-9)

    def test_perfect_predictions(self):
        gold = {("d", 0, "C"): [(0, 0), (2, 4)]}
        report = score(gold, {("d", 0, "C"): [(0, 0), (2, 4)]})
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_boundary_error_counts_both_ways(self):
        report = score({("d", 0, "C"): [(0, 0)]}, {("d", 0, "C"): [(0, 1)]})
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)
        assert report.f1 == 0.0

    def test_micro_average_over_sentences(self):
        gold = {("d", 0, "C"): [(0, 1)], ("d", 1, "C"): [(2, 2), (5, 6)]}
        pred = {("d", 0, "C"): [(0, 1), (3, 3)], ("d", 1, "C"): [(2, 2)]}
        report = score(gold, pred)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)

    def test_missing_sentence_in_predictions_is_fn(self):
        report = score({("d", 0, "C"): [(0, 0)]}, {})
        assert (report.tp, report.fp, report.fn) == (0, 0, 1)

    def test_unknown_sentence_rejected(self):
        with pytest.raises(EvalError, match="unknown sentence"):
            score({}, {("d", 9, "C"): [(0, 0)]})

    def test_type_sensitivity_through_key(self):
        gold = {("d", 0, "CHEMICAL"): [(0, 0)], ("d", 0, "DISEASE"): []}
        pred = {("d", 0, "DISEASE"): [(0, 0)], ("d", 0, "CHEMICAL"): []}
        report = score(gold, pred)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)

    def test_symmetry_of_tp(self):
        rng = random.Random(0)
        for _ in range(50):
            gold = {("d", i, "C"): sorted({(rng.randint(0, 5), rng.randint(6, 9))
                                           for _ in range(rng.randint(0, 3))})
                    for i in range(3)}
            pred = {("d", i, "C"): sorted({(rng.randint(0, 5), rng.randint(6, 9))
                                           for _ in range(rng.randint(0, 3))})
                    for i in range(3)}
            a = score(gold, pred)
            b = score(pred, gold)
            assert a.tp == b.tp and a.fp == b.fn and a.fn == b.fp

    def test_f1_between_min_and_max_of_p_r(self):
        rng = random.Random(1)
        for _ in range(200):
            tp, fp, fn = rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20)
            report = EvalReport(tp, fp, fn)
            if report.precision + report.recall > 0:
                assert min(report.precision, report.recall) - 1e-12 <= report.f1
                assert report.f1 <= max(report.precision, report.recall) + 1e-12

    def test_zero_denominators(self):
        report = EvalReport(0, 0, 0)
        assert report.precision == report.recall == report.f1 == 0.0


class TestFormatting:
    def test_two_decimals_half_away_from_zero(self):
        assert format_pct(0.9418463661941924) == "94.18"
        assert format_pct(0.94185) == "94.19"  # exact tie rounds away from zero
        assert format_pct(0.5) == "50.00"
        assert format_pct(0.001049) == "0.10"

    def test_raw_reals_in_report_dict(self):
        report = EvalReport(9437, 563, 600)
        payload = asdict(report)
        assert payload["precision"] == report.precision
        assert isinstance(payload["tp"], int)


class TestAggregate:
    def test_published_summary_statistics(self):
        stats = aggregate(RUNS_MEAN_9270_STD_016_MAX_9292)
        assert stats.mean == pytest.approx(92.70, abs=1e-9)
        assert stats.std == pytest.approx(0.16, abs=1e-9)
        assert stats.max == pytest.approx(92.92, abs=1e-12)

    def test_single_run_has_no_std(self):
        stats = aggregate([88.5])
        assert stats.mean == stats.max == 88.5
        assert stats.std == 0.0
        assert not stats.std_defined

    def test_hand_checkable_sample_std(self):
        stats = aggregate([1, 2, 3, 4, 5])
        assert stats.mean == pytest.approx(3.0)
        assert stats.std == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert stats.std == pytest.approx(1.5811388300841898, abs=1e-12)
        assert stats.max == 5.0

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            aggregate([])


class TestTTest:
    def test_identical_samples(self):
        result = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)
        assert result.stars == "ns"

    @pytest.mark.parametrize("a,b,t_expected,p_expected", WELCH_FIXTURES)
    def test_against_frozen_oracle(self, a, b, t_expected, p_expected):
        result = t_test(a, b)
        assert result.t_statistic == pytest.approx(t_expected, abs=1e-9)
        assert abs(result.p_value - p_expected) <= 1e-6

    def test_shift_by_ten_is_significant(self):
        result = t_test([1.0, 2.0, 3.0], [11.0, 12.0, 13.0])
        assert result.p_value < 0.01
        assert result.stars == "p<0.01"

    def test_five_run_pair_from_protocol(self):
        result = t_test([88.2, 88.4, 88.3, 88.5, 88.4], [89.3, 89.5, 89.2, 89.6, 89.4])
        assert result.stars == "p<0.01"

    def test_symmetry(self):
        a = [10.0, 11.0, 12.5]
        b = [11.5, 12.0, 13.5, 12.2]
        r1, r2 = t_test(a, b), t_test(b, a)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-15)
        assert r1.t_statistic == pytest.approx(-r2.t_statistic, abs=1e-15)

    def test_degenerate_zero_variance(self):
        equal = t_test([5.0, 5.0], [5.0, 5.0])
        assert equal.p_value == 1.0 and equal.degenerate
        different = t_test([5.0, 5.0], [6.0, 6.0])
        assert different.p_value == 0.0 and different.degenerate
        assert math.isinf(different.t_statistic)

    def test_student_variant_flag(self):
        a = [10.1, 10.3, 10.2, 10.4]
        b = [10.8, 10.9, 11.0, 10.7, 10.85]
        welch = t_test(a, b, welch=True)
        student = t_test(a, b, welch=False)
        assert welch.p_value != student.p_value

    def test_too_few_values_rejected(self):
        with pytest.raises(EvalError):
            t_test([1.0], [1.0, 2.0])

    def test_star_thresholds(self):
        assert stars_for(0.2) == "ns"
        assert stars_for(0.049) == "p<0.05"
        assert stars_for(0.009) == "p<0.01"
