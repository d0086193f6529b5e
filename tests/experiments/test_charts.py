"""Tests for the ASCII chart renderers."""

from repro.experiments.charts import scatter_plot


class TestScatterPlot:
    def test_markers_and_legend(self):
        text = scatter_plot({"rnr": (0.9, 0.95), "bingo": (0.3, 0.3)})
        assert "R" in text and "B" in text
        assert "R=rnr" in text

    def test_axis_labels(self):
        text = scatter_plot({"x": (0.5, 0.5)}, x_label="cov", y_label="acc")
        assert "cov" in text and "acc" in text

    def test_out_of_range_clamped(self):
        text = scatter_plot({"q": (2.0, -1.0)})
        assert "Q" in text
