import math
from dataclasses import replace

import pytest

from sixradii.errors import ErrorModel, flip_threshold


def test_bend_elongation_default_diameter():
    assert ErrorModel().bend_elongation() == pytest.approx(0.0285, abs=1e-12)


def test_bend_elongation_scales_with_diameter():
    # 171 microns for 3 mm wire; proportionality pins the zero-diameter limit
    thick = ErrorModel(wire_diameter=3.0)
    assert thick.bend_elongation() == pytest.approx(0.171, abs=1e-12)
    assert thick.bend_elongation() == pytest.approx(6.0 * ErrorModel().bend_elongation())
    assert ErrorModel(bend_elongation_per_mm=0.0).bend_elongation() == 0.0


def test_circumference_stdev_line():
    model = ErrorModel()
    assert model.circumference_stdev(350.0) == pytest.approx(0.3538, abs=1e-12)
    assert model.circumference_stdev(450.0) == pytest.approx(0.4406, abs=1e-12)
    assert model.circumference_stdev(500.0) == pytest.approx(0.05 + 8.68e-4 * 500)


def test_circumference_stdev_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        ErrorModel().circumference_stdev(0.0)
    with pytest.raises(ValueError):
        ErrorModel().circumference_stdev(-450.0)


def test_fixed_toggle_zeroes_only_fixed_terms():
    model = ErrorModel(fixed_errors_enabled=False)
    assert model.bend_elongation() == 0.0
    assert model.cut_elongation_effective() == 0.0
    assert model.cut_match_stdev_effective() == 0.09
    assert model.juxtaposition_span_effective() == 0.18
    assert model.circumference_stdev(450.0) > 0.0


def test_random_toggle_zeroes_only_random_terms():
    model = ErrorModel(random_errors_enabled=False)
    assert model.cut_match_stdev_effective() == 0.0
    assert model.juxtaposition_span_effective() == 0.0
    assert model.circumference_stdev(450.0) == 0.0
    assert model.bend_elongation() == pytest.approx(0.0285)
    assert model.cut_elongation_effective() == 0.095


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        ErrorModel(wire_diameter=0.0)
    with pytest.raises(ValueError):
        ErrorModel(cut_match_stdev=-0.01)


def test_flip_threshold_values():
    assert flip_threshold(200.0) == pytest.approx(0.0377, abs=2e-4)  # about 38 microns
    assert flip_threshold(400.0) == pytest.approx(2.0 * flip_threshold(200.0))
    assert flip_threshold(450.0) == pytest.approx(3e-5 * 2 * math.pi * 450, rel=1e-12)
    with pytest.raises(ValueError):
        flip_threshold(0.0)


def test_model_is_immutable_value_object():
    model = ErrorModel()
    assert model == ErrorModel()
    assert replace(model, wire_diameter=1.0) != model
    with pytest.raises(AttributeError):
        model.wire_diameter = 1.0
