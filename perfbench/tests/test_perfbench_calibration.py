import pytest

import calibration

REF = calibration.REFERENCE_S


def test_host_at_reference_speed_leaves_the_time_unchanged():
    points = [(0.0, REF), (1.0, REF), (2.0, REF)]
    assert calibration.rescale(0.5, 0.9, points) == pytest.approx(0.4)


def test_short_call_is_judged_by_the_points_that_bracket_it():
    # Host twice as slow around the call, at reference speed elsewhere.
    points = [(0.0, REF), (10.0, 2 * REF), (10.2, 2 * REF), (20.0, REF)]
    assert calibration.rescale(10.05, 10.15, points) == pytest.approx(0.05)


def test_long_call_is_judged_by_the_points_around_it():
    # A 4 s call from t=10 to t=14: points from t=6 to t=18 count, t=0 and t=30 do not.
    points = [(0.0, 9 * REF), (7.0, REF), (9.9, 2 * REF), (14.1, 2 * REF), (17.0, REF), (30.0, 9 * REF)]
    assert calibration.rescale(10.0, 14.0, points) == pytest.approx(4.0 / 1.5)
