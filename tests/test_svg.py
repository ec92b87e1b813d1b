import numpy as np
import pytest

from sixradii.histogram import Histogram
from sixradii.svgplot import render_histogram_svg


def test_single_value_yields_one_bar(tmp_path):
    hist = Histogram()
    hist.record_all(np.full(10, 5))
    path = tmp_path / "hist.svg"
    render_histogram_svg(hist, path)
    text = path.read_text()
    assert text.count("<rect") == 1
    assert text.startswith("<?xml")
    assert "</svg>" in text


def test_identical_histograms_identical_bytes(tmp_path):
    hist_a = Histogram()
    hist_b = Histogram()
    values = np.array([4, 5, 5, 6, 9, 20])
    hist_a.record_all(values)
    hist_b.record_all(values)
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    render_histogram_svg(hist_a, path_a)
    render_histogram_svg(hist_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_all_window_bins_labeled(tmp_path):
    hist = Histogram()
    hist.record_all(np.array([5]))
    path = tmp_path / "hist.svg"
    render_histogram_svg(hist, path)
    text = path.read_text()
    for label in range(1, 17):
        assert f">{label}</text>" in text


def test_empty_histogram_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        render_histogram_svg(Histogram(), tmp_path / "x.svg")
